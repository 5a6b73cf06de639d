"""The Cholesky factor of a flexibility matrix, and solves with it.

Both users of G factor it once: the force method solves with the factor,
the conditioning report reads log det G off its diagonal.  Each one's
positive-definiteness test is that factorisation.  numpy has no triangular
solver, so ``cholesky_solve`` substitutes block by block: it inverts each
diagonal block of L once and does the rest with matrix products, which
costs O(n^2) against the O(n^3) of an LU of G.
"""

from __future__ import annotations

import numpy as np

#: Rows per diagonal block of L in ``cholesky_solve``.
_BLOCK = 64


def cholesky(G: np.ndarray) -> np.ndarray:
    """Lower-triangular L with G = L L'; a G that is not positive definite is a ValueError."""
    try:
        return np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise ValueError("not positive definite") from exc


def cholesky_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with L L' x = b: L y = b forward, then L' x = y backward, in blocks of rows.

    A product with a block's inverse is less accurate than substituting
    through the block, so one step of refinement against L L' follows; it
    reuses the inverses and costs two more sweeps and two products with L.
    """
    n = len(b)
    blocks = [(s, min(s + _BLOCK, n)) for s in range(0, n, _BLOCK)]
    inverses = [(s, e, np.linalg.inv(L[s:e, s:e])) for s, e in blocks]
    x = _sweep(L, b, inverses)
    return x + _sweep(L, b - L @ (L.T @ x), inverses)


def _sweep(L: np.ndarray, b: np.ndarray, inverses: list) -> np.ndarray:
    """L L' x = b by block forward then backward substitution with the
    inverses of L's diagonal blocks, given as (first row, end row, inverse)."""
    x = np.array(b, dtype=float)
    for s, e, inverse in inverses:
        x[s:e] = inverse @ (x[s:e] - L[s:e, :s] @ x[:s])
    for s, e, inverse in reversed(inverses):
        x[s:e] = inverse.T @ (x[s:e] - L[e:, s:e].T @ x[e:])
    return x
