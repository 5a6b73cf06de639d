"""The Cholesky factor of G and the blocked solve with it, which the force
method and the conditioning report share."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from framecycles.cholesky import _BLOCK, cholesky
from framecycles.cli import Analysis
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
