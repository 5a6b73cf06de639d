"""Conditioning indicators and chopped arithmetic."""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from framecycles.metrics import condition_report, eig_extremes
from framecycles.render import render_sparsity


class TestEigExtremes:
    def test_known_diagonal(self):
        lo, hi = eig_extremes(np.diag([2.0, 5.0, 11.0]))
        assert lo == pytest.approx(2.0)
        assert hi == pytest.approx(11.0)

    def test_matches_charpoly_oracle(self):
        rng = np.random.default_rng(17)
        for n in (3, 4):
            for _ in range(100):
                M = oracles.random_spd(rng, n)
                lo, hi = eig_extremes(M)
                olo, ohi = oracles.charpoly_extreme_eigs(M)
                assert lo == pytest.approx(olo, rel=1e-10)
                assert hi == pytest.approx(ohi, rel=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            eig_extremes(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            eig_extremes(np.diag([1.0, -1.0]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            eig_extremes(np.ones((2, 3)))


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

    def test_log10_matches_value_when_not_underflowed(self):
        G = np.array([[1.0, 1.0], [1.0, 2.0]])
        report = condition_report(G)
        value, log10 = report.pn, report.pn_log10
        assert log10 == pytest.approx(math.log10(abs(value)), rel=1e-12)


def _rendered(matrix):
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "pattern.pbm")
        render_sparsity(matrix, path)
        with open(path) as fh:
            return fh.read()


class TestNnz:
    def test_entry_count(self):
        raster = _rendered(np.array([[1.0, 0.0], [2.0, 3.0]]))
        assert raster == "P1\n2 2\n1 0\n1 1\n"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.integers(1, 8), st.data())
def test_sparsity_raster_matches_the_entry_by_entry_reference(h, w, data):
    """Sparse matrices, tiny nonzeros too: the PBM raster has one pixel per
    entry and agrees with the reference that looks at one entry at a time."""
    M = np.zeros((h, w))
    cells = st.tuples(st.integers(0, h - 1), st.integers(0, w - 1))
    for i, j in data.draw(st.lists(cells, max_size=6)):
        M[i, j] = data.draw(st.sampled_from([1.0, -2.5, 1e-300]))
    raster = _rendered(M)
    assert raster == oracles.reference_sparsity_pbm(M)
    assert "".join(raster.splitlines()[2:]).count("1") == np.count_nonzero(M)


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


class TestConditionReport:
    def test_fields_are_consistent(self):
        G = np.diag([1.0, 100.0])
        report = condition_report(G, precision=8)
        assert report.pl == pytest.approx(2.0)
        assert report.good_digits == pytest.approx(6.0)
        assert report.pdet == pytest.approx(1.0)
        assert report.precision == 8


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
