"""The Cholesky factor of a flexibility matrix, taken along its band, and
solves with it.

Both users of G factor it once: the force method solves with the factor,
and the conditioning report reads log det G off its diagonal and applies
G^-1 through it for the smallest eigenvalue.  Each one's
positive-definiteness test is that factorisation.

G's 3x3-block pattern is that of the cycle adjacency matrix D, so G is
sparse, but the greedy order of the cycles scatters its entries.  The
factor renumbers the cycles by reverse Cuthill-McKee (Cuthill & McKee
1969) on G's pattern over consecutive row triples, which keeps each
cycle's three redundants together.  A symmetric renumbering changes
neither det G, nor the eigenvalues, nor the solution.  The renumbered G
is factored along its envelope (George & Liu 1981), left-looking, in
blocks of 64 rows: no fill falls left of a row's first nonzero, so each
block column of L reaches down only to the last row whose first nonzero
lies left of the block's end.  A dense G is the case of an envelope as
deep as G, by the same code.

The factor keeps, per block, the inverse of its diagonal block of L (made
once), the panel of L below that block, and diag L, plus a reference to
G.  G is the only n x n array it holds or makes: the pattern over row
triples is read from G's rows, _BLOCK triples at a time, and kept as its
nonzero pairs, and each block column of G is gathered down to the
envelope only.  numpy has no triangular solver, so each solve substitutes
block by block through those inverses with matrix products.
"""

from __future__ import annotations

import numpy as np

#: Rows per diagonal block of L in the factor and in a blocked sweep.
_BLOCK = 64


def _triples(rows: np.ndarray) -> np.ndarray:
    """Each run of three consecutive rows ORed into one (the last run may be shorter)."""
    out = rows[0::3].copy()
    for k in (1, 2):
        more = rows[k::3]
        out[: len(more)] |= more
    return out


def _reverse_cuthill_mckee(neighbours: list[list[int]]) -> list[int]:
    """The Cuthill-McKee order of the graph with these adjacency lists,
    reversed.  Each component starts at its unnumbered node of lowest
    degree, and each node's unnumbered neighbours follow it by lowest
    degree, then lowest index."""
    key = [(len(a), v) for v, a in enumerate(neighbours)].__getitem__
    seen = [False] * len(neighbours)
    order: list[int] = []
    for root in sorted(range(len(neighbours)), key=key):
        if seen[root]:
            continue
        seen[root] = True
        head = len(order)
        order.append(root)
        while head < len(order):
            fresh = sorted((u for u in neighbours[order[head]] if not seen[u]), key=key)
            for u in fresh:
                seen[u] = True
            order += fresh
            head += 1
    return order[::-1]


def _pattern(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j), in row-major order, of the nonzero row triple pairs of G,
    with the diagonal.

    Read from G's rows alone, _BLOCK triples at a time, so no n x n mask is
    made.  The factor reads only G's lower triangle, each of whose nonzeros
    lies in its row's pattern, so the envelope is exact even where G is
    symmetric only to rounding.
    """
    size = -(-len(G) // 3)
    i, j = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for a in range(0, size, _BLOCK):
        block = _triples(_triples(G[3 * a : 3 * (a + _BLOCK)] != 0).T).T
        block[np.arange(len(block)), a + np.arange(len(block))] = True
        rows_of, cols_of = np.nonzero(block)
        i.append(rows_of + a)
        j.append(cols_of)
    return np.concatenate(i), np.concatenate(j)


def _order(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of G renumbered by row triples, and in that order the first
    column of each row's envelope.

    The triples take reverse Cuthill-McKee order on G's nonzero pattern
    over triples.  A coarser pattern only widens the envelope, so it is
    exact for any n.
    """
    n = len(G)
    i, j = _pattern(G)
    # Where each triple's neighbours start in j; its diagonal makes each run non-empty.
    runs = np.searchsorted(i, np.arange(-(-n // 3)))
    bounds = [*runs.tolist(), len(j)]
    neighbours = j.tolist()
    adjacency = [neighbours[a:b] for a, b in zip(bounds, bounds[1:])]
    order = np.array(_reverse_cuthill_mckee(adjacency), dtype=np.intp)
    # Position of each triple's first neighbour, in the order.
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    first = np.minimum.reduceat(position[j], runs)[order]
    sizes = np.minimum(3, n - 3 * order)
    starts = np.cumsum(sizes) - sizes
    rows = (3 * order[:, None] + np.arange(3)).ravel()
    return rows[rows < n], np.repeat(starts[first], sizes)


class Cholesky:
    """G = L L' with G's rows and columns in the order *perm*: for each
    block of L, the inverse of its diagonal block and its panel below, down
    to the envelope; *bandwidth* is the largest distance, in rows, from a
    diagonal entry of the renumbered G to the first column of its envelope."""

    def __init__(self, G: np.ndarray) -> None:
        self.G = G
        n = len(G)
        self.perm, firsts = _order(G)
        self.bandwidth = int(np.max(np.arange(n) - firsts, initial=0))
        self._blocks: list[tuple[int, int, int, np.ndarray, np.ndarray]] = []
        diagonals = []
        for s in range(0, n, _BLOCK):
            e = min(s + _BLOCK, n)
            t = int(np.flatnonzero(firsts < e)[-1]) + 1
            # Block column [s, e) of the renumbered G, rows s to t, less the
            # products of the earlier panels that reach row s.
            column = G[np.ix_(self.perm[s:t], self.perm[s:e])]
            for _, e0, t0, _, panel in self._blocks:
                if t0 > s:
                    above = panel[s - e0 : min(t0, e) - e0]
                    column[: t0 - s, : len(above)] -= panel[s - e0 : t0 - e0] @ above.T
            diagonal = np.linalg.cholesky(column[: e - s])
            inverse = np.linalg.inv(diagonal)
            self._blocks.append((s, e, t, inverse, column[e - s :] @ inverse.T))
            diagonals.append(np.diag(diagonal))
        self._diagonal = np.concatenate(diagonals) if diagonals else np.empty(0)

    def log_det(self) -> float:
        """log det G = 2 sum log diag L."""
        return 2.0 * float(np.log(self._diagonal).sum())

    def sweep(self, b: np.ndarray) -> np.ndarray:
        """G^-1 b by one blocked sweep: L y = b forward, then L' x = y
        backward, each diagonal block through its inverse."""
        y = np.asarray(b, dtype=float)[self.perm]
        for s, e, t, inverse, panel in self._blocks:
            y[s:e] = inverse @ y[s:e]
            y[e:t] -= panel @ y[s:e]
        for s, e, t, inverse, panel in reversed(self._blocks):
            y[s:e] = inverse.T @ (y[s:e] - panel.T @ y[e:t])
        x = np.empty_like(y)
        x[self.perm] = y
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with G x = b: a sweep, then one step of refinement against G.

        A product with a block's inverse is less accurate than substituting
        through the block; the refinement step costs one more sweep and one
        product with G.
        """
        x = self.sweep(b)
        return x + self.sweep(b - self.G @ x)


def cholesky(G: np.ndarray) -> Cholesky:
    """The factor of G = L L'; a G that is not positive definite is a ValueError."""
    try:
        return Cholesky(np.asarray(G, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise ValueError("not positive definite") from exc
