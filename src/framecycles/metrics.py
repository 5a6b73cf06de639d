"""Condition numbers of the flexibility matrix.

Three conditioning indicators are reported per flexibility matrix: PL, the
base-10 log of the extreme eigenvalue ratio; PN, the determinant of the
row-normalized matrix; and PDET, the determinant after symmetric diagonal
scaling.  G is factored once, G = L L'; that Cholesky factor is G's
positive-definiteness test, gives log det G for both determinants, and
applies G^-1 for the smallest eigenvalue.  ``condition_report`` is the
one entry point that checks G; ``eig_extremes`` takes only the factor and
reads G from it.  G is the only n x n array the report holds: the checks
read G in place or _BLOCK rows at a time, and so do PN's row norms.  The
determinants underflow quickly for large matrices, so their base-10 logs
are carried alongside the clamped values.

PL needs only the two extreme eigenvalues, so no eigendecomposition of G
is made.  Each comes from a Lanczos run (Lanczos 1950) with full
reorthogonalisation: lambda_max from products with G, and lambda_min as
1 / lambda_max(G^-1), where each step applies G^-1 as one blocked forward
and backward sweep through L.  Both runs start from one fixed vector,
v_k = frac(k^2 phi) - 1/2 for k = 1..n with phi = (sqrt 5 - 1) / 2: it is
deterministic and needs no random generator, and unlike the vector of
ones it changes when the cycles are renumbered, so the symmetry of a frame
cannot make it orthogonal to an extreme eigenvector.  Each run, and PN's
row norms, scale G by a power of two near 1 / max|G|, which is exact and
keeps products and norms inside the range of a float.  Every 5 steps the
largest Ritz value theta of the Lanczos tridiagonal T is tested, and a run
stops once its residual estimate beta_k |s_k| is at most n eps theta, or
at step n, where T is similar to the operator.  The Ritz value then lies
within its residual of an eigenvalue, and the extreme Ritz values converge
to the extreme eigenvalues first (Paige 1972), so each extreme is within
about n eps lambda_max of the exact one: the accuracy that a full
symmetric eigensolver guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from framecycles.cholesky import _BLOCK, Cholesky, cholesky
from framecycles.model import check_precision

_SYMMETRY_TOL = 1e-12
#: Lanczos steps between two convergence tests.
_CHECK_EVERY = 5
#: The fractional parts of k^2 times this make the Lanczos start vector.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _checked(G: np.ndarray) -> np.ndarray:
    """G as floats, if it is a non-empty square matrix of finite numbers,
    symmetric, with a positive diagonal, whose largest entry is a normal
    float; anything else is a ValueError."""
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {G.shape}")
    if G.size == 0:
        raise ValueError("G is empty: the frame has no cycles (b1 = 0)")
    # max|G| from the extremes in place: no |G| copy.  NaN or inf if an entry is.
    top, bottom = float(G.max()), float(G.min())
    if not (math.isfinite(top) and math.isfinite(bottom)):
        raise ValueError("matrix has a non-finite entry")
    scale = max(top, -bottom)
    # Each block of rows against the same block of columns, up to the block's
    # end: G - G' in one go makes a transposed copy of G, 8 times slower at
    # n = 675.
    asymmetry = max(
        float(np.max(np.abs(G[s : s + _BLOCK, : s + _BLOCK] - G[: s + _BLOCK, s : s + _BLOCK].T)))
        for s in range(0, len(G), _BLOCK)
    )
    if asymmetry > _SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric")
    if np.any(np.diag(G) <= 0):
        raise ValueError("not positive definite: matrix has a non-positive diagonal entry")
    # Below the smallest normal float no power of two brings G's products
    # and norms back into range: a sweep through its factor overflows.
    if scale < np.finfo(float).tiny:
        raise ValueError(f"matrix entries are subnormal: the largest is {scale:g}")
    return G


def _exponent(G: np.ndarray) -> int:
    """e with 2^e near max|G|, the largest diagonal entry of an SPD G."""
    return max(math.frexp(float(np.max(np.diag(G))))[1] - 1, -1021)


def eig_extremes(factor: Cholesky) -> tuple[float, float]:
    """Extreme eigenvalues (min, max) of the symmetric positive definite
    matrix *factor*.G, from its Cholesky factor.

    G is not checked here: ``condition_report`` checks it before it factors it.
    """
    G = factor.G
    # Both runs see their operator times 2^-e: exactly the runs on G, but no
    # product or norm in them over- or underflows, however large or small G is.
    exponent = _exponent(G)
    up, down = math.ldexp(1.0, exponent), math.ldexp(1.0, -exponent)
    n = len(G)
    lam_min = up / _largest_eigenvalue(lambda v: factor.sweep(v) * up, n)
    return lam_min, up * _largest_eigenvalue(lambda v: (G @ v) * down, n)


def _largest_eigenvalue(apply: Callable[[np.ndarray], np.ndarray], n: int) -> float:
    """The largest eigenvalue of the symmetric positive definite operator
    *apply* on R^n, by Lanczos with full reorthogonalisation.

    The Krylov basis grows in place by 16 rows at a time, so it holds about
    as many vectors as the run takes steps, and never two copies of itself.
    """
    tol = n * np.finfo(float).eps
    v = (np.arange(1, n + 1) ** 2 * _GOLDEN) % 1.0 - 0.5
    v /= math.sqrt(v @ v)
    basis = np.empty((min(n, 16), n))
    alpha, beta = [], []
    for k in range(n):
        if k == len(basis):
            # No view of the basis outlives a step, so it can move.
            basis.resize((min(k + 16, n), n), refcheck=False)
        basis[k] = v
        w = apply(v)
        alpha.append(float(v @ w))
        w -= alpha[-1] * v
        if k:
            w -= beta[-1] * basis[k - 1]
        # One classical Gram-Schmidt pass against the whole basis keeps it
        # orthonormal to rounding.
        w -= (basis[: k + 1] @ w) @ basis[: k + 1]
        b = math.sqrt(w @ w)
        # A b near 0 means the Krylov space is invariant: T then holds its
        # eigenvalues, and the test below passes.
        if (k + 1) % _CHECK_EVERY == 0 or k + 1 == n or b <= tol * max(alpha):
            T = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
            theta, S = np.linalg.eigh(T)
            if k + 1 == n or b * abs(S[-1, -1]) <= tol * theta[-1]:
                return float(theta[-1])
        beta.append(b)
        v = w / b
    raise ValueError("an operator on R^0 has no eigenvalues")


@dataclass(frozen=True)
class ConditionReport:
    """PL/PN/PDET and the good-digit estimate for one flexibility matrix."""

    pl: float
    pn: float
    pn_log10: float
    pdet: float
    pdet_log10: float
    good_digits: float
    precision: int


def condition_report(G: np.ndarray, precision: int = 16) -> ConditionReport:
    """PL, PN, PDET and the good digits p - PL of G on a machine carrying p digits.

    PN and PDET scale G diagonally, so each determinant is det G over the
    product of its scale factors: the row norms for PN, the diagonal for
    PDET.  One log-determinant of G, 2 sum log diag L from G = L L', serves
    both; a determinant that underflows is 0.
    """
    check_precision(precision)
    G = _checked(G)
    factor = cholesky(G)
    lam_min, lam_max = eig_extremes(factor)
    pl = math.log10(lam_max / lam_min)
    logdet = factor.log_det()
    # Row norms of G 2^-e, whose squares cannot overflow or underflow, then
    # times 2^e; one block of rows at a time, so no second n x n array.
    down = math.ldexp(1.0, -_exponent(G))
    rows = [np.linalg.norm(G[s : s + _BLOCK] * down, axis=1) for s in range(0, len(G), _BLOCK)]
    values = []
    for scales in (np.concatenate(rows) / down, np.diag(G)):
        log_value = logdet - float(np.log(scales).sum())
        value = math.exp(log_value) if log_value > -745 else 0.0
        values += [value, log_value / math.log(10.0)]
    return ConditionReport(pl, *values, good_digits=precision - pl, precision=precision)
