"""The Cholesky factor of G along its band and the blocked solve with it,
which the force method and the conditioning report share."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from framecycles.cholesky import _BLOCK, _pattern, _reverse_cuthill_mckee, cholesky
from framecycles.cli import Analysis, load_or_generate
from test_force import planar_grids

EPS = np.finfo(float).eps
#: Sizes around the block edges, empty included.
SIZES = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 200]


@st.composite
def scaled_spd_systems(draw):
    """An SPD matrix with eigenvalue ratio up to 1e8, scaled symmetrically by
    10^[-k, k] for k up to 8, and a right-hand side."""
    n = draw(st.sampled_from(SIZES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = 10.0 ** rng.uniform(0.0, draw(st.floats(0.0, 8.0)), size=n)
    k = draw(st.floats(0.0, 8.0))
    s = 10.0 ** rng.uniform(-k, k, size=n)
    G = s[:, None] * ((Q * eigs) @ Q.T) * s
    return (G + G.T) / 2, rng.standard_normal(n)


def check_solve_and_log_det(G, b):
    """Normwise backward error of the refined solve and of the single sweep
    that applies G^-1 for the smallest eigenvalue, and log det G from the factor."""
    n = len(b)
    factor = cholesky(G)
    for x in (factor.solve(b), factor.sweep(b)):
        assert x.shape == (n,)
        residual = np.linalg.norm(G @ x - b, np.inf)
        assert residual <= 100 * n * EPS * np.linalg.norm(G, np.inf) * np.linalg.norm(x, np.inf)
    assert factor.log_det() == pytest.approx(oracles.reference_log_det(G), rel=1e-10, abs=1e-10)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scaled_spd_systems())
def test_solve_is_backward_stable_on_scaled_spd_matrices(system):
    check_solve_and_log_det(*system)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(planar_grids(), st.sampled_from([1, 2, 3, 4, 5, "baseline"]), st.integers(0, 2**32 - 1))
def test_solve_is_backward_stable_on_flexibility_matrices(model, algorithm, seed):
    analysis = Analysis(model)
    G = analysis.g(analysis.basis(algorithm))
    check_solve_and_log_det(G, np.random.default_rng(seed).standard_normal(len(G)))


@st.composite
def permuted_band_systems(draw):
    """One or two SPD blocks on the diagonal, each of a random half-bandwidth
    and scaled symmetrically by 10^[-4, 4], under a random symmetric
    permutation, and a right-hand side.  No block's size is a multiple of
    3 or of _BLOCK.  In some, one zero faces a tiny entry, as where G is
    symmetric only to rounding; the factor reads only the lower triangle."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.sampled_from([1, 2, 5, 67, 131, 200]), min_size=1, max_size=2))
    G = np.zeros((sum(sizes), sum(sizes)))
    start = 0
    for n in sizes:
        w = draw(st.integers(0, n - 1))
        A = np.triu(np.tril(rng.standard_normal((n, n)), w), -w)
        A = A + A.T
        A += np.diag(np.abs(A).sum(axis=1) + 1.0)
        s = 10.0 ** rng.uniform(-4.0, 4.0, size=n)
        G[start : start + n, start : start + n] = s[:, None] * A * s
        start += n
    zeros = np.argwhere(G == 0)
    if len(zeros) and draw(st.booleans()):
        i, j = zeros[rng.integers(len(zeros))]
        G[i, j] = EPS * np.sqrt(G[i, i] * G[j, j])
    p = rng.permutation(len(G))
    return G[np.ix_(p, p)], rng.standard_normal(len(G))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(permuted_band_systems())
def test_solve_is_backward_stable_on_permuted_band_matrices(system):
    G, b = system
    check_solve_and_log_det(G, b)
    perm = cholesky(G).perm
    assert np.array_equal(np.sort(perm), np.arange(len(G)))
    assert np.array_equal(cholesky(G).perm, perm)


@pytest.mark.parametrize("n", [0, 1, 2, 3 * _BLOCK - 1, 3 * _BLOCK, 3 * _BLOCK + 2, 400])
def test_pattern_is_that_of_all_of_g_at_once(n):
    """Read block by block, the pattern over row triples is the one a mask of
    all of G's rows gives, with the diagonal, for a G whose own pattern is
    not symmetric: nothing is read from G's columns."""
    rng = np.random.default_rng(n)
    G = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.01)
    size = -(-n // 3)
    mask = np.zeros((size, size), dtype=bool)
    i, j = np.nonzero(G)
    mask[i // 3, j // 3] = True
    mask |= np.eye(size, dtype=bool)
    expected = np.nonzero(mask)
    pattern = _pattern(G)
    assert all(np.array_equal(a, b) for a, b in zip(pattern, expected))


@pytest.fixture(scope="module")
def checker_15x15():
    """G of the 15x15 checker grid (n = 675) for algorithms 1 and 3 and the baseline."""
    analysis = Analysis(load_or_generate("grid:15x15:checker"))
    return {algorithm: analysis.g(analysis.basis(algorithm)) for algorithm in (1, 3, "baseline")}


@pytest.mark.parametrize("algorithm", [1, 3, "baseline"])
def test_order_is_a_deterministic_permutation_of_row_triples(checker_15x15, algorithm):
    """Each cycle's three redundants stay together, in their own order."""
    G = checker_15x15[algorithm]
    perm = cholesky(G).perm
    assert np.array_equal(np.sort(perm), np.arange(len(G)))
    assert np.array_equal(perm.reshape(-1, 3), perm[::3, None] + np.arange(3))
    assert np.all(perm[::3] % 3 == 0)
    assert np.array_equal(cholesky(G.copy()).perm, perm)


def triple_pattern(G):
    """G's nonzero pattern over consecutive row triples, made symmetric."""
    triples = np.arange(len(G)) // 3
    rows, cols = np.nonzero(G)
    pattern = np.zeros((-(-len(G) // 3),) * 2, dtype=bool)
    pattern[triples[rows], triples[cols]] = True
    return pattern | pattern.T


def rcm_rows(G):
    """G's rows in the reverse Cuthill-McKee order of its row triples."""
    adjacency = [np.flatnonzero(row).tolist() for row in triple_pattern(G)]
    rows = (3 * np.array(_reverse_cuthill_mckee(adjacency))[:, None] + np.arange(3)).ravel()
    return rows[rows < len(G)]


def greedy_bandwidth(G):
    """The half-bandwidth in rows of G's envelope over row triples, in G's own order."""
    pattern = triple_pattern(G)
    last_rows = np.minimum(3 * np.arange(len(pattern)) + 2, len(G) - 1)
    return int(np.max(last_rows - 3 * np.argmax(pattern, axis=1)))


@pytest.mark.parametrize("algorithm,bandwidth", [(1, 47), (3, 47), ("baseline", 89)])
def test_half_bandwidths_on_the_15x15_checker_grid(checker_15x15, algorithm, bandwidth):
    """Reverse Cuthill-McKee narrows G's band to 15 cycles for algorithms 1
    and 3 and to 29 for the baseline, 3 rows per cycle plus the rest of a
    triple.  The factor takes that order for every basis."""
    G = checker_15x15[algorithm]
    factor = cholesky(G)
    assert factor.bandwidth == bandwidth
    assert np.array_equal(factor.perm, rcm_rows(G))


@pytest.mark.parametrize("algorithm", [1, 3, "baseline"])
def test_band_is_never_wider_than_the_greedy_order(checker_15x15, algorithm):
    """Algorithm 3's greedy order ties with reverse Cuthill-McKee; the
    others' greedy orders are far wider."""
    G = checker_15x15[algorithm]
    assert cholesky(G).bandwidth <= greedy_bandwidth(G)


def test_a_dense_matrix_keeps_its_full_band_in_rcm_order():
    """On a complete pattern every triple has the same degree, so reverse
    Cuthill-McKee numbers the triples from the last to the first."""
    G = oracles.random_spd(np.random.default_rng(0), 2 * _BLOCK + 1)
    factor = cholesky(G)
    triples = np.arange(len(G) // 3)[::-1]
    assert np.array_equal(factor.perm, (3 * triples[:, None] + np.arange(3)).ravel())
    assert factor.bandwidth == len(G) - 1


def test_factor_keeps_less_than_a_quarter_of_g(checker_15x15):
    """The factor of the baseline's G keeps a reference to G, its panels
    along the band and the diagonal blocks' inverses, and no n x n L."""
    G = checker_15x15["baseline"]
    tracemalloc.start()
    try:
        factor = cholesky(G)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert factor.G is G
    assert kept < G.nbytes / 4


def test_block_inverses_are_made_once_per_factor(monkeypatch):
    G = oracles.random_spd(np.random.default_rng(0), 2 * _BLOCK + 1)
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
    factor = cholesky(G)
    assert calls == [(_BLOCK, _BLOCK), (_BLOCK, _BLOCK), (1, 1)]
    factor.solve(np.ones(len(G)))
    factor.sweep(np.ones(len(G)))
    assert len(calls) == 3


def test_solve_leaves_b_alone():
    G = oracles.random_spd(np.random.default_rng(0), 2 * _BLOCK + 1)
    b = np.arange(len(G), dtype=float)
    factor = cholesky(G)
    factor.solve(b)
    factor.sweep(b)
    assert np.array_equal(b, np.arange(len(G)))


@pytest.mark.parametrize(
    "G", [np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((3, 3)), np.array([[-1.0]])]
)
def test_a_matrix_that_is_not_positive_definite_is_a_value_error(G):
    with pytest.raises(ValueError, match="^not positive definite$"):
        cholesky(G)
