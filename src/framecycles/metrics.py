"""Condition numbers and the chopped-arithmetic demo.

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
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise ValueError("not positive definite") from exc
    logdet = 2.0 * float(np.log(np.diag(L)).sum())
    values = []
    for scales in (np.linalg.norm(G, axis=1), np.diag(G)):
        log_value = logdet - float(np.log(scales).sum())
        value = math.exp(log_value) if log_value > -745 else 0.0
        values += [value, log_value / math.log(10.0)]
    return ConditionReport(pl, *values, good_digits=precision - pl, precision=precision)


# --- chopped decimal arithmetic -------------------------------------------


def chop(value: float, digits: int) -> float:
    """Round to *digits* significant decimal digits, half away from zero."""
    if digits < 1:
        raise ValueError(f"digit budget must be >= 1, got {digits}")
    if value == 0 or not math.isfinite(value):
        return value
    exponent = math.floor(math.log10(abs(value)))
    scale = 10.0 ** (digits - 1 - exponent)
    return math.copysign(math.floor(abs(value) * scale + 0.5), value) / scale


class ChoppedPivotBreakdown(ZeroDivisionError):
    """A pivot chopped to exactly zero during elimination."""


NO_PIVOTING = "none"
ROW_REORDER = "row-reorder"

#: The ill-conditioned 3x3 demo system, first circulated variant.
DEMO_VARIANT_A = (
    [[-0.002, 4.0, 4.0], [-2.0, 2.906, -5.38], [3.0, -4.301, -3.112]],
    [7.998, -4.481, -4.143],
)
#: Second variant (already row-reordered; several entries differ).
DEMO_VARIANT_B = (
    [[3.0, -4.301, -3.112], [-0.0002, 4.0, 4.0], [-2.0, 2.406, -5.386]],
    [-4.413, 7.998, -4.481],
)


def ill_conditioned_demo() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Consistent (A, b, x) for the demo: b is built so x = (-1, 1, 1) exactly.

    The two circulated variants contradict each other (and neither right-hand
    side is consistent with the stated solution), so the shipped system takes
    the destabilizing small leading pivot together with the first variant's
    remaining entries and derives b from the exact solution.  Eliminating
    without pivoting at a 4-digit budget then loses the solution completely,
    while row reordering recovers it.
    """
    A = np.array(DEMO_VARIANT_A[0])
    A[0, 0] = DEMO_VARIANT_B[0][1][0]
    x = np.array([-1.0, 1.0, 1.0])
    return A, A @ x, x


def chopped_gauss_solve(
    A: np.ndarray,
    b: np.ndarray,
    digits: int | None = None,
    pivoting: str = NO_PIVOTING,
) -> np.ndarray:
    """Gaussian elimination with every intermediate chopped to *digits*.

    digits=None disables chopping (full-precision elimination).  Row
    reordering pre-sorts the rows so the largest leading coefficients land
    on the diagonal before elimination starts.
    """
    M = [list(map(float, row)) for row in np.asarray(A, dtype=float)]
    rhs = [float(v) for v in np.asarray(b, dtype=float)]
    n = len(M)
    if any(len(row) != n for row in M) or len(rhs) != n:
        raise ValueError("system must be square with a matching right-hand side")

    if digits is None:
        rnd = lambda x: x
    else:
        rnd = lambda x: chop(x, digits)
    M = [[rnd(v) for v in row] for row in M]
    rhs = [rnd(v) for v in rhs]

    if pivoting == ROW_REORDER:
        order: list[int] = []
        remaining = list(range(n))
        for col in range(n):
            best = max(remaining, key=lambda r: (abs(M[r][col]), -r))
            order.append(best)
            remaining.remove(best)
        M = [M[r] for r in order]
        rhs = [rhs[r] for r in order]
    elif pivoting != NO_PIVOTING:
        raise ValueError(f"unknown pivoting mode '{pivoting}'")

    for k in range(n - 1):
        if M[k][k] == 0:
            raise ChoppedPivotBreakdown("chopped pivot breakdown")
        for i in range(k + 1, n):
            factor = rnd(M[i][k] / M[k][k])
            for j in range(k, n):
                M[i][j] = rnd(M[i][j] - rnd(factor * M[k][j]))
            rhs[i] = rnd(rhs[i] - rnd(factor * rhs[k]))

    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        if M[i][i] == 0:
            raise ChoppedPivotBreakdown("chopped pivot breakdown")
        acc = rhs[i]
        for j in range(i + 1, n):
            acc = rnd(acc - rnd(M[i][j] * x[j]))
        x[i] = rnd(acc / M[i][i])
    return np.array(x)
