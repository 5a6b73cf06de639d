"""Condition numbers of the flexibility matrix.

Three conditioning indicators are reported per flexibility matrix: PL, the
base-10 log of the extreme eigenvalue ratio; PN, the determinant of the
row-normalized matrix; and PDET, the determinant after symmetric diagonal
scaling.  Both determinants come from log det G, read off the Cholesky
factor that is also G's positive-definiteness test.  They underflow quickly
for large matrices, so their base-10 logs are carried alongside the clamped
values.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from framecycles.cholesky import cholesky

_SYMMETRY_TOL = 1e-12


def eig_extremes(G: np.ndarray) -> tuple[float, float]:
    """Extreme eigenvalues (min, max) of a symmetric positive definite matrix.

    It checks G before any other use: it must be a non-empty square matrix
    of finite numbers, symmetric, with a positive diagonal and positive
    eigenvalues; anything else is a ValueError.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {G.shape}")
    if G.size == 0:
        raise ValueError("G is empty: the frame has no cycles (b1 = 0)")
    if not np.isfinite(G).all():
        raise ValueError("matrix has a non-finite entry")
    scale = float(np.max(np.abs(G)))
    if float(np.max(np.abs(G - G.T))) > _SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric")
    if np.any(np.diag(G) <= 0):
        raise ValueError("not positive definite: matrix has a non-positive diagonal entry")
    eigvals = np.linalg.eigvalsh(G)
    lam_min, lam_max = float(eigvals[0]), float(eigvals[-1])
    if lam_min <= 0:
        raise ValueError("not positive definite")
    return lam_min, lam_max


@dataclass(frozen=True)
class ConditionReport:
    """PL/PN/PDET and the good-digit estimate for one flexibility matrix."""

    pl: float
    pn: float
    pn_log10: float
    pdet: float
    pdet_log10: float
    good_digits: float
    precision: int = 16


def check_precision(precision: int) -> None:
    """Reject a machine that carries fewer than one digit, or more than a float holds."""
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    if precision > sys.float_info.max:
        raise ValueError(f"precision must be at most {sys.float_info.max:g}")


def condition_report(G: np.ndarray, precision: int = 16) -> ConditionReport:
    """PL, PN, PDET and the good digits p - PL of G on a machine carrying p digits.

    PN and PDET scale G diagonally, so each determinant is det G over the
    product of its scale factors: the row norms for PN, the diagonal for
    PDET.  One log-determinant of G, 2 sum log diag L from G = L L', serves
    both; a determinant that underflows is 0.
    """
    check_precision(precision)
    G = np.asarray(G, dtype=float)
    lam_min, lam_max = eig_extremes(G)
    pl = math.log10(lam_max / lam_min)
    L = cholesky(G)
    logdet = 2.0 * float(np.log(np.diag(L)).sum())
    values = []
    for scales in (np.linalg.norm(G, axis=1), np.diag(G)):
        log_value = logdet - float(np.log(scales).sum())
        value = math.exp(log_value) if log_value > -745 else 0.0
        values += [value, log_value / math.log(10.0)]
    return ConditionReport(pl, *values, good_digits=precision - pl, precision=precision)
