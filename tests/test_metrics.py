"""Conditioning indicators and chopped arithmetic."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    NO_PIVOTING,
    ROW_REORDER,
    ChoppedPivotBreakdown,
    chop,
    chopped_gauss_solve,
    ill_conditioned_demo,
)
from framecycles import metrics
from framecycles.basis import adjacency_matrix, incidence_matrix
from framecycles.cholesky import cholesky
from framecycles.cli import Analysis, load_or_generate
from framecycles.metrics import condition_report, eig_extremes
from framecycles.model import Edge, WeightedGraph
from test_cycles import connected_graphs
from test_force import _rendered, every_basis, planar_grids

EPS = np.finfo(float).eps


@pytest.mark.parametrize("n", [0, 1, 2])
def test_random_spd_oracle_takes_every_size(n):
    M = oracles.random_spd(np.random.default_rng(n), n)
    assert M.shape == (n, n)
    assert np.allclose(M, M.T)
    eigs = np.linalg.eigvalsh(M)
    assert np.all((eigs > 0.1 - 1e-12) & (eigs < 10.0 + 1e-12))
    assert np.all(np.diff(eigs) >= 1e-3 - 1e-12)


class TestEigExtremes:
    """Extremes from a Cholesky factor, and the matrices rejected before one
    is made: condition_report checks G first."""

    def test_known_diagonal(self):
        lo, hi = eig_extremes(cholesky(np.diag([2.0, 5.0, 11.0])))
        assert lo == pytest.approx(2.0)
        assert hi == pytest.approx(11.0)

    def test_matches_charpoly_oracle(self):
        rng = np.random.default_rng(17)
        for n in (3, 4):
            for _ in range(100):
                M = oracles.random_spd(rng, n)
                lo, hi = eig_extremes(cholesky(M))
                olo, ohi = oracles.charpoly_extreme_eigs(M)
                assert lo == pytest.approx(olo, rel=1e-10)
                assert hi == pytest.approx(ohi, rel=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            condition_report(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("i,j", [(1, 0), (0, 1), (70, 3), (3, 70), (130, 129), (149, 64), (64, 149)])
    def test_rejects_one_asymmetric_pair_anywhere(self, i, j):
        # n = 150 spans three blocks of the blocked symmetry check.
        G = oracles.random_spd(np.random.default_rng(7), 150)
        G[i, j] += 1e-9 * np.max(np.abs(G))
        with pytest.raises(ValueError, match="symmetric"):
            condition_report(G)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            condition_report(np.diag([1.0, -1.0]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            condition_report(np.ones((2, 3)))


class TestIndicators:
    def test_pl_of_scaled_identity(self):
        assert condition_report(7.3 * np.eye(4)).pl == pytest.approx(0.0, abs=1e-12)

    def test_pl_of_known_ratio(self):
        assert condition_report(np.diag([1.0, 1000.0])).pl == pytest.approx(3.0)

    def test_good_digits(self):
        G = np.diag([1.0, 10.0**3.452154])
        assert condition_report(G, 8).good_digits == pytest.approx(4.547846)
        assert condition_report(np.diag([1.0, 100.0])).good_digits == pytest.approx(14.0)

    def test_pn_identity(self):
        assert condition_report(np.eye(5)).pn == pytest.approx(1.0)

    def test_pn_hand_value(self):
        # rows [1,1]/sqrt(2) and [1,2]/sqrt(5): det = 1/sqrt(10)
        assert condition_report(np.array([[1.0, 1.0], [1.0, 2.0]])).pn == pytest.approx(
            1 / math.sqrt(10), abs=1e-12
        )

    def test_pdet_of_diagonal_is_one(self):
        assert condition_report(np.diag([3.0, 17.0, 0.25])).pdet == pytest.approx(1.0)

    def test_pdet_invariant_under_diagonal_scaling(self):
        rng = np.random.default_rng(3)
        G = oracles.random_spd(rng, 4)
        s = np.array([1.0, 10.0, 100.0, 0.01])
        assert condition_report(G * np.outer(s, s)).pdet == pytest.approx(
            condition_report(G).pdet, rel=1e-10
        )

    def test_pdet_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            condition_report(np.array([[0.0, 1.0], [1.0, 2.0]]))

    def test_pn_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError, match="non-positive diagonal"):
            condition_report(np.array([[1.0, 2.0], [2.0, -1.0]]))

    def test_pn_rejects_zero_row(self):
        # A zero row has a zero diagonal entry, which the diagonal check rejects.
        with pytest.raises(ValueError, match="non-positive diagonal"):
            condition_report(np.array([[0.0, 0.0], [0.0, 2.0]]))

    def test_underflow_clamps_to_zero_with_finite_log(self):
        # (1-d)I + dJ with d ~ 1: det = (1-d)^(n-1) * (1 + (n-1)d)
        n, d = 120, 0.9999999
        G = (1 - d) * np.eye(n) + d * np.ones((n, n))
        report = condition_report(G)
        value, log10 = report.pdet, report.pdet_log10
        assert value == 0.0
        assert math.isfinite(log10)
        expected = (n - 1) * math.log10(1 - d) + math.log10(1 + (n - 1) * d)
        assert log10 == pytest.approx(expected, rel=1e-6)
        assert report.pn == 0.0

    @pytest.mark.parametrize("d", [0.99, 0.99004345])
    def test_a_determinant_in_the_subnormal_range_is_not_zero(self, d):
        """190 blocks [[1, d], [d, 1]]: ln PDET = 190 ln(1 - d^2), -744.24 and
        -745.06, both of which exp rounds to the smallest subnormal."""
        G = np.kron(np.eye(190), np.array([[1.0, d], [d, 1.0]]))
        report = condition_report(G)
        assert report.pdet_log10 * math.log(10.0) == pytest.approx(190 * math.log1p(-d * d), rel=1e-12)
        assert report.pdet == math.ulp(0.0)

    def test_log10_matches_value_when_not_underflowed(self):
        G = np.array([[1.0, 1.0], [1.0, 2.0]])
        report = condition_report(G)
        value, log10 = report.pn, report.pn_log10
        assert log10 == pytest.approx(math.log10(abs(value)), rel=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(connected_graphs())
@example(WeightedGraph((1, 2), (Edge(1, 1, 2),), {1: 1.0}))
def test_sparsity_raster_matches_the_entry_by_entry_reference(graph):
    """Every basis of a random graph, a tree's empty one too: the PBM raster
    of D has one pixel per entry, agrees with the reference that looks at one
    entry of the integer C C' at a time, and blackens chi(D) pixels."""
    for basis in every_basis(graph):
        adjacency = adjacency_matrix(incidence_matrix(basis))
        raster = _rendered(adjacency)
        assert raster == oracles.reference_sparsity_pbm(oracles.cycle_adjacency_counts(basis))
        assert "".join(raster.splitlines()[2:]).count("1") == adjacency.chi


@st.composite
def scaled_spd(draw):
    """SPD matrices with eigenvalue ratio up to 1e8, scaled symmetrically by 10^[-3, 3]."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = 10.0 ** rng.uniform(0.0, draw(st.floats(0.0, 8.0)), size=n)
    s = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
    G = s[:, None] * ((Q * eigs) @ Q.T) * s
    G = (G + G.T) / 2
    # Scaling can push the computed smallest eigenvalue below zero; such a
    # matrix is not SPD in floating point, and PL rightly rejects it.
    assume(np.linalg.eigvalsh(G)[0] > 0)
    return G


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scaled_spd())
def test_determinants_match_the_explicitly_scaled_copies(G):
    """PN and PDET from one log-determinant of G agree with the slogdet of the
    row-normalized copy and of the D^-1/2-scaled copy."""
    (ref_pn, ref_pn_log), (ref_pdet, ref_pdet_log) = oracles.reference_determinants(G)
    report = condition_report(G)
    assert report.pn_log10 == pytest.approx(ref_pn_log, abs=1e-8)
    assert report.pdet_log10 == pytest.approx(ref_pdet_log, abs=1e-8)
    for value, ref in ((report.pn, ref_pn), (report.pdet, ref_pdet)):
        if value != 0.0:
            assert value == pytest.approx(ref, rel=1e-7)


def check_extremes_against_eigvalsh(G):
    """Both extremes lie within 10 n eps lambda_max of eigvalsh's, which is
    the accuracy that eigvalsh itself guarantees."""
    reference = np.linalg.eigvalsh(G)
    lo, hi = eig_extremes(cholesky(G))
    bound = 10 * len(G) * EPS * reference[-1]
    assert abs(lo - reference[0]) <= bound
    assert abs(hi - reference[-1]) <= bound


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scaled_spd())
def test_extremes_match_eigvalsh_on_scaled_spd_matrices(G):
    check_extremes_against_eigvalsh(G)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(planar_grids())
def test_extremes_match_eigvalsh_on_flexibility_matrices(model):
    analysis = Analysis(model)
    for algorithm in (1, 2, 3, 4, 5, "baseline"):
        check_extremes_against_eigvalsh(analysis.g(analysis.basis(algorithm)))


@pytest.mark.parametrize(
    "G",
    [
        np.array([[2.5]]),
        oracles.random_spd(np.random.default_rng(1), 2),
        oracles.random_spd(np.random.default_rng(2), 3),
        7.3 * np.eye(5),
        np.diag([3.0, 1.0, 2.0, 1.0, 3.0]),
        np.diag(np.arange(40.0, 0.0, -1.0)),
        np.diag(10.0 ** np.linspace(-6.0, 6.0, 30)),
    ],
    ids=["1x1", "2x2", "3x3", "scaled-identity", "diagonal-repeated", "diagonal-40", "diagonal-1e12"],
)
def test_extremes_where_lanczos_terminates_exactly(G):
    """At most n steps, or fewer where the Krylov space is invariant: there
    T carries every distinct eigenvalue that the start vector touches."""
    check_extremes_against_eigvalsh(G)


def _spread_with_clusters(n, gap):
    """Diagonal: n - 4 eigenvalues spread over [0.1, 0.5], and the two
    extreme pairs each split by a relative gap."""
    return np.diag(np.r_[0.01, 0.01 * (1 + gap), np.linspace(0.1, 0.5, n - 4), 1 - gap, 1.0])


@pytest.mark.parametrize(
    "G",
    [
        # The top eigenvector e1 - e2 is orthogonal to the vector of ones.
        np.eye(6) + 2.0 * np.outer([1.0, -1.0, 0, 0, 0, 0], [1.0, -1.0, 0, 0, 0, 0]),
        # Close extreme pairs, which the runs must resolve: until they do,
        # the top Ritz value sits between the two.
        _spread_with_clusters(200, 1e-4),
    ],
    ids=["top-eigenvector-orthogonal-to-ones", "clustered-extremes"],
)
def test_extremes_that_a_poor_start_or_an_early_stop_would_miss(G):
    check_extremes_against_eigvalsh(G)


@pytest.mark.parametrize("power", [-900, -600, 600, 900])
def test_extremes_scale_with_g_however_large_or_small(power):
    """G times 2^power has its extremes times 2^power: neither run may
    overflow or underflow (2^600 G squares to beyond the largest float)."""
    G = oracles.random_spd(np.random.default_rng(11), 100)
    lo, hi = eig_extremes(cholesky(G))
    scaled_lo, scaled_hi = eig_extremes(cholesky(G * 2.0**power))
    assert scaled_lo == pytest.approx(lo * 2.0**power, rel=1e-12)
    assert scaled_hi == pytest.approx(hi * 2.0**power, rel=1e-12)


@pytest.mark.parametrize("power", [-900, -600, 600, 900])
def test_report_scales_with_g_however_large_or_small(power):
    """G times 2^power has G's PL and the same PN and PDET: no row norm's
    squares may overflow or underflow (2^600 G squares to beyond the
    largest float), and no step may warn."""
    G = oracles.random_spd(np.random.default_rng(11), 100)
    report = condition_report(G)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scaled = condition_report(G * 2.0**power)
    assert scaled.pl == report.pl
    assert scaled.pn_log10 == pytest.approx(report.pn_log10, abs=1e-10)
    assert scaled.pdet_log10 == pytest.approx(report.pdet_log10, abs=1e-10)


@pytest.mark.parametrize("unreached", [None, "eig_extremes"], ids=["condition_report", "eig_extremes"])
def test_a_subnormal_g_is_a_value_error(unreached, monkeypatch):
    """No power of two brings a G below the smallest normal float back into
    range: condition_report rejects it before a sweep through its factor
    could overflow, so eig_extremes never sees it."""
    if unreached:

        def fail(*args):
            raise AssertionError(f"{unreached} reached with a subnormal G")

        monkeypatch.setattr(metrics, unreached, fail)
    G = oracles.random_spd(np.random.default_rng(11), 100) * 2.0**-1030
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="^matrix entries are subnormal: the largest is "):
            condition_report(G)


def test_extremes_are_deterministic_and_leave_the_global_rng_alone():
    G = oracles.random_spd(np.random.default_rng(5), 40)
    np.random.seed(123)
    expected = np.random.random()
    np.random.seed(123)
    first = eig_extremes(cholesky(G))
    assert np.random.random() == expected
    assert eig_extremes(cholesky(G)) == first


def test_condition_loads_no_random_generator():
    """numpy.random adds about 6 MB of resident memory to the process; the
    Lanczos start vector is a formula, so a report never imports it."""
    code = (
        "import sys; from framecycles.cli import main; "
        "assert main(['condition', 'grid:3x3:checker']) == 0; "
        "sys.exit('numpy.random' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True)


@pytest.fixture(scope="module")
def checker_15x15_analysis():
    return Analysis(load_or_generate("grid:15x15:checker"))


@pytest.mark.parametrize("algorithm", ["baseline", 1, 2, 3, 4, 5])
def test_lanczos_holds_no_n_by_n_basis(checker_15x15_analysis, algorithm):
    """The Krylov basis grows in place, so however many steps a run takes
    (75 for algorithm 3 here), it never holds an old and a new copy of itself."""
    analysis = checker_15x15_analysis
    G = analysis.g(analysis.basis(algorithm))
    factor = cholesky(G)
    tracemalloc.start()
    try:
        eig_extremes(factor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < G.nbytes / 4


class TestConditionReport:
    def test_fields_are_consistent(self):
        G = np.diag([1.0, 100.0])
        report = condition_report(G, precision=8)
        assert report.pl == pytest.approx(2.0)
        assert report.good_digits == pytest.approx(6.0)
        assert report.pdet == pytest.approx(1.0)
        assert report.precision == 8

    def test_one_digit_of_precision_is_accepted(self):
        report = condition_report(np.diag([1.0, 100.0]), 1)
        assert report.precision == 1
        assert report.good_digits == pytest.approx(-1.0)


class TestChop:
    @pytest.mark.parametrize(
        "value,digits,expected",
        [
            (1234.567, 4, 1235.0),
            (1234.444, 4, 1234.0),
            (-0.0026349, 3, -0.00263),
            (-0.0026350, 3, -0.00264),  # half rounds away from zero
            (0.0, 5, 0.0),
            (99.99, 2, 100.0),
            (7.0, 1, 7.0),
        ],
    )
    def test_cases(self, value, digits, expected):
        assert chop(value, digits) == expected

    def test_rejects_nonpositive_digit_budget(self):
        with pytest.raises(ValueError, match="digit budget"):
            chop(1.0, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_condition_report_rejects_a_non_finite_entry(bad):
    G = np.eye(3)
    G[1, 2] = G[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        condition_report(G)


def test_condition_report_rejects_an_empty_matrix():
    with pytest.raises(ValueError, match=r"G is empty.*b1 = 0"):
        condition_report(np.zeros((0, 0)))


@pytest.mark.parametrize("precision", [0, -5])
def test_condition_report_rejects_precision_below_one(precision):
    with pytest.raises(ValueError, match=f"precision must be >= 1, got {precision}"):
        condition_report(np.eye(3), precision)


def test_condition_report_rejects_precision_beyond_a_float():
    with pytest.raises(ValueError, match=r"precision must be at most 1\.79769e\+308"):
        condition_report(np.eye(3), 10**400)


class TestChoppedGaussSolve:
    def test_exact_mode_recovers_solution(self):
        A, b, x = ill_conditioned_demo()
        assert np.allclose(chopped_gauss_solve(A, b), x, atol=1e-12)

    def test_chopping_without_pivoting_destroys_solution(self):
        A, b, x = ill_conditioned_demo()
        got = chopped_gauss_solve(A, b, digits=4, pivoting=NO_PIVOTING)
        assert np.max(np.abs(got - x)) > 0.5  # first component is lost

    def test_row_reordering_recovers_solution(self):
        A, b, x = ill_conditioned_demo()
        got = chopped_gauss_solve(A, b, digits=4, pivoting=ROW_REORDER)
        assert np.allclose(got, x, atol=1e-2)

    def test_more_digits_converge(self):
        A, b, x = ill_conditioned_demo()
        errors = [
            np.max(np.abs(chopped_gauss_solve(A, b, digits=d) - x))
            for d in (6, 8, 10, 12)
        ]
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 1e-6

    def test_zero_pivot_breakdown(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.array([1.0, 1.0])
        with pytest.raises(ChoppedPivotBreakdown):
            chopped_gauss_solve(A, b, digits=4, pivoting=NO_PIVOTING)
        assert np.allclose(
            chopped_gauss_solve(A, b, digits=4, pivoting=ROW_REORDER), [1.0, 1.0]
        )

    def test_unknown_pivoting_mode(self):
        with pytest.raises(ValueError, match="pivoting mode"):
            chopped_gauss_solve(np.eye(2), np.ones(2), pivoting="full")

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="square"):
            chopped_gauss_solve(np.ones((2, 3)), np.ones(2))

    def test_demo_solution_is_consistent(self):
        A, b, x = ill_conditioned_demo()
        assert np.allclose(A @ x, b, atol=1e-14)
        assert x.tolist() == [-1.0, 1.0, 1.0]
