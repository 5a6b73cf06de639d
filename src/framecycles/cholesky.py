"""The Cholesky factor of a flexibility matrix, and solves with it.

Both users of G factor it once: the force method solves with the factor,
and the conditioning report reads log det G off its diagonal and applies
G^-1 through it for the smallest eigenvalue.  Each one's
positive-definiteness test is that factorisation.  numpy has no triangular
solver, so the factor substitutes block by block: it inverts each diagonal
block of L once, when it is made, and does the rest of every solve with
matrix products, which costs O(n^2) against the O(n^3) of an LU of G.
"""

from __future__ import annotations

import numpy as np

#: Rows per diagonal block of L in a blocked sweep.
_BLOCK = 64


class Cholesky:
    """G = L L', with the inverse of each diagonal block of L, computed once."""

    def __init__(self, L: np.ndarray) -> None:
        self.L = L
        n = len(L)
        ends = [(s, min(s + _BLOCK, n)) for s in range(0, n, _BLOCK)]
        self._inverses = [(s, e, np.linalg.inv(L[s:e, s:e])) for s, e in ends]

    def log_det(self) -> float:
        """log det G = 2 sum log diag L."""
        return 2.0 * float(np.log(np.diag(self.L)).sum())

    def sweep(self, b: np.ndarray) -> np.ndarray:
        """G^-1 b by one blocked sweep: L y = b forward, then L' x = y backward,
        each diagonal block through its inverse."""
        L = self.L
        x = np.array(b, dtype=float)
        for s, e, inverse in self._inverses:
            x[s:e] = inverse @ (x[s:e] - L[s:e, :s] @ x[:s])
        for s, e, inverse in reversed(self._inverses):
            x[s:e] = inverse.T @ (x[s:e] - L[e:, s:e].T @ x[e:])
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with G x = b: a sweep, then one step of refinement against L L'.

        A product with a block's inverse is less accurate than substituting
        through the block; the refinement step costs one more sweep and two
        products with L.
        """
        x = self.sweep(b)
        return x + self.sweep(b - self.L @ (self.L.T @ x))


def cholesky(G: np.ndarray) -> Cholesky:
    """The factor of G = L L'; a G that is not positive definite is a ValueError."""
    try:
        return Cholesky(np.linalg.cholesky(G))
    except np.linalg.LinAlgError as exc:
        raise ValueError("not positive definite") from exc
