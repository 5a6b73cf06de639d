"""End-to-end acceptance checks, one test per acceptance criterion.

Each test prints nothing on its own; `pytest -v` gives the one pass/fail
line per criterion.  Two clauses are known not to hold for this
implementation and are asserted anyway rather than weakened:

* criterion 1's space-frame sparsity target: `grid3d:4x1x1`, algorithm 1
  gives X(D) = 72, not 74, under six candidate orderings, both tree kinds,
  300 random id relabellings (72-90) and two fictitious-link support
  models (80 each); and
* criterion 9's demand that eliminating without row interchange loses the
  leading unknown by three orders of magnitude: the shipped system gives
  (0, 2, 0), the digit-corrected variant A (5, 2.002, 0) rounded and
  (-1, 0.571, 1.428) truncated, and the reduced second row ties
  x1 ~ 1 + 4 (1 - x3), so |x1| = 1e3 needs x3 off by about 250.

Neither the paper's space frame nor its demo system is in the repository
to settle these.  Criterion 3 does not demand that the two independence
controls always agree, which is false for the method; its docstring says
where they must.
"""

import random
import time

import numpy as np
import pytest

import oracles
from oracles import NO_PIVOTING, ROW_REORDER, chopped_gauss_solve, ill_conditioned_demo
from framecycles.basis import (
    AlgorithmSpec,
    adjacency_matrix,
    generate_basis,
    incidence_matrix,
)
from framecycles.cli import Analysis, load_or_generate
from framecycles.cycles import NoCycleThroughMember, min_cycle_on_member
from framecycles.force import (
    assemble_g,
    build_b1,
    solve_force_method,
    unassembled_flexibility,
)
from framecycles.frames import generate_grid, generate_grid3d
from framecycles.metrics import condition_report, eig_extremes
from framecycles.model import build_graph, classify_members, cycle_rank


def chi_and_pl(model, algorithm):
    basis = Analysis(model).basis(algorithm)
    D = adjacency_matrix(incidence_matrix(basis))
    G = assemble_g(build_b1(model, basis), unassembled_flexibility(model))
    return D.chi, condition_report(G).pl


def timed_chi(model, algorithm):
    start = time.perf_counter()
    basis = Analysis(model).basis(algorithm)
    elapsed = time.perf_counter() - start
    return adjacency_matrix(incidence_matrix(basis)).chi, elapsed


def test_criterion_01_benchmark_sparsity_targets():
    """Known X(D) values on the benchmark grids, each generated in < 1 s."""
    for stories, spans, algorithm, expected in [
        (3, 4, 1, 46),
        (3, 4, 3, 46),
        (3, 3, 3, 33),
        (4, 4, 1, 64),
    ]:
        chi, elapsed = timed_chi(generate_grid(stories, spans), algorithm)
        assert chi == expected, f"grid {stories}x{spans} alg {algorithm}: X = {chi}"
        assert elapsed < 1.0

    chi, elapsed = timed_chi(generate_grid3d(4, 1, 1), 1)
    assert elapsed < 1.0
    # Known failure: the merged-support graph admits a strictly sparser
    # basis than the target value for this space frame (72 < 74).
    assert chi == 74, f"space frame 4x1x1 alg 1: X = {chi}"


def test_criterion_02_rank_identity_on_many_graphs():
    """chi = b1 + 2*sum(sigma) for every basis on 100+ graphs, all algorithms."""
    graphs = []
    rng = random.Random(2024)
    for _ in range(90):
        graphs.append(oracles.random_connected_graph(rng, 40))
    for stories in range(1, 5):
        for spans in range(1, 5):
            graphs.append(build_graph(generate_grid(stories, spans)))
    graphs.append(build_graph(generate_grid3d(2, 1, 1)))
    graphs.append(build_graph(generate_grid3d(1, 2, 2)))
    assert len(graphs) > 100

    for graph in graphs:
        partition = classify_members(graph)
        for algorithm_id in (1, 2, 3, 4, 5):
            spec = AlgorithmSpec.for_id(algorithm_id)
            basis = generate_basis(graph, spec, partition if spec.na_avoidance else None)
            assert len(basis) == cycle_rank(graph)
            D = adjacency_matrix(incidence_matrix(basis))
            assert D.chi == len(basis) + 2 * sum(D.sigma)


def test_criterion_03_independence_controls():
    """Each control matches its oracle; they coincide wherever the maths says so.

    The log of every greedy run is replayed against independent oracles.
    Elimination must accept exactly the candidates outside the GF(2) span of
    the accepted cycles; the Betti control exactly those that raise the
    union's b1 by one.  The two verdicts must then coincide except where
    they provably cannot: at a candidate that closes two or more cycles of
    the union at once (independent, but growth > 1), or while the union's
    cycle space is larger than the span of the accepted cycles, which only
    such an earlier acceptance can cause (a candidate inside the union,
    growth 0, can still be independent).
    """
    models = [
        (f"grid:{stories}x{spans}:{pattern}", generate_grid(stories, spans, pattern=pattern))
        for stories in range(1, 5)
        for spans in range(1, 5)
        for pattern in ("homogeneous", "weak-beams", "weak-columns", "checker")
    ]
    models.append(("grid3d:4x1x1", generate_grid3d(4, 1, 1)))
    models.append(("grid3d:2x2x2", generate_grid3d(2, 2, 2)))

    multi_closures = 0
    for label, model in models:
        graph = build_graph(model)
        for algorithm_id in (1, 2, 3, 4):
            basis = Analysis(model).basis(algorithm_id)
            assert len(basis) == cycle_rank(graph)
            rank = oracles.gf2_rank(
                [c.members for c in basis.cycles], graph.member_ids()
            )
            assert rank == cycle_rank(graph)

            # Algorithms 1-4 build one unmasked candidate per generator, so
            # each logged candidate can be rebuilt from its generator.
            accepted: list[frozenset[int]] = []
            union: set[int] = set()
            for generator, elimination, betti in basis.control_log:
                members = min_cycle_on_member(
                    graph, generator, basis.algorithm.tree_kind
                ).members
                where = (label, algorithm_id, generator)
                independent = (
                    oracles.gf2_rank(accepted + [members], graph.member_ids())
                    == len(accepted) + 1
                )
                union_b1 = oracles.subgraph_b1(graph, union)
                growth = oracles.subgraph_b1(graph, union | members) - union_b1
                assert elimination == independent, where
                assert betti == (growth == 1), where
                if betti:
                    assert elimination  # growth control is one-sidedly stricter
                # The accepted cycles span the union's whole cycle space.
                spanned = union_b1 == len(accepted)
                if growth >= 2:
                    multi_closures += 1
                elif spanned:
                    assert elimination == betti, where
                if elimination:
                    accepted.append(members)
                    union |= members
            # The replay rebuilt exactly the cycles the greedy kept.
            assert [c.members for c in basis.cycles[: len(accepted)]] == accepted
    # The explained branch is exercised, not merely permitted.
    assert multi_closures > 0


def test_criterion_04_member_cycles_are_minimum_length():
    """Per-member generated cycles match a brute-force shortest-cycle search."""
    rng = random.Random(404)
    checked = 0
    for _ in range(60):
        graph = oracles.random_connected_graph(rng, 14)
        for mid in graph.member_ids():
            expected = oracles.shortest_cycle_length_through(graph, mid)
            if expected is None:
                with pytest.raises(NoCycleThroughMember):
                    min_cycle_on_member(graph, mid)
                continue
            cycle = min_cycle_on_member(graph, mid)
            assert mid in cycle.members
            assert oracles.is_simple_cycle(graph, cycle.members)
            assert cycle.length == expected
            checked += 1
    assert checked > 100


def test_criterion_05_sparser_is_not_better_conditioned():
    """On heterogeneous frames the modified trees trade sparsity for conditioning."""
    weak_frames = [generate_grid(1, spans, pattern="weak-beams") for spans in (2, 3, 4, 5)]
    weak_frames += [generate_grid(stories, 1, pattern="weak-columns") for stories in (2, 3, 4, 5)]
    for model in weak_frames:
        x1, p1 = chi_and_pl(model, 1)
        x2, p2 = chi_and_pl(model, 2)
        x3, p3 = chi_and_pl(model, 3)
        x4, p4 = chi_and_pl(model, 4)
        assert x2 >= x1 and x4 >= x3
        assert p2 <= p1 + 0.05 and p4 <= p3 + 0.05

    for stories, spans in [(1, 4), (2, 2), (2, 3), (2, 4)]:
        model = generate_grid(stories, spans, pattern="checker")
        x1, p1 = chi_and_pl(model, 1)
        x2, p2 = chi_and_pl(model, 2)
        x3, p3 = chi_and_pl(model, 3)
        x4, p4 = chi_and_pl(model, 4)
        assert x2 > x1 and p2 < p1
        assert x4 > x3 and p4 < p3


def test_criterion_06_flexibility_sparsity_matches_cycle_overlap():
    """G's 3x3 block pattern equals the cycle adjacency pattern exactly."""
    cases = [
        (2, 2, "homogeneous", 1),
        (2, 3, "weak-beams", 2),
        (3, 3, "checker", 3),
        (3, 4, "weak-columns", 4),
        (1, 5, "homogeneous", 5),
    ]
    for stories, spans, pattern, algorithm in cases:
        model = generate_grid(stories, spans, pattern=pattern)
        basis = Analysis(model).basis(algorithm)
        D = adjacency_matrix(incidence_matrix(basis)).D
        G = assemble_g(build_b1(model, basis), unassembled_flexibility(model))
        n = D.shape[0]
        for i in range(n):
            for j in range(n):
                block = G[3 * i : 3 * i + 3, 3 * j : 3 * j + 3]
                assert (np.max(np.abs(block)) > 0) == (D[i, j] != 0)


def test_criterion_07_force_method_matches_displacement_method():
    """Member forces agree with an independent stiffness solve to 1e-6."""
    load_cases = [
        lambda top: [(top, 10.0, 0.0, 0.0)],
        lambda top: [(top, 0.0, -25.0, 0.0)],
        lambda top: [(top, 3.0, -8.0, 5.0), (top - 1, -2.0, 0.0, 0.0)],
    ]
    for stories, spans in [(1, 1), (2, 2), (3, 3)]:
        model = generate_grid(stories, spans)
        basis = Analysis(model).basis(1)
        top = model.nodes[-1].id
        for make_loads in load_cases:
            loads = make_loads(top)
            solution = solve_force_method(model, basis, loads)
            expected = oracles.stiffness_member_forces(model, loads)
            scale = max(np.max(np.abs(v)) for v in expected.values())
            for i, mid in enumerate(solution.member_order):
                got = solution.r[3 * i : 3 * i + 3]
                assert np.allclose(got, expected[mid], rtol=1e-6, atol=1e-6 * scale)
            assert solution.compatibility_residual < 1e-8


def test_criterion_08_conditioning_indicators():
    """PL/PN/PDET on known matrices; extreme eigenvalues vs an independent solver."""
    assert condition_report(np.diag([1.0, 1000.0])).pl == pytest.approx(3.0, abs=1e-12)
    assert condition_report(np.eye(6)).pn == pytest.approx(1.0, abs=1e-12)
    assert condition_report(np.array([[1.0, 1.0], [1.0, 2.0]])).pn == pytest.approx(
        10.0**-0.5, abs=1e-12
    )
    assert condition_report(np.diag([4.0, 0.5, 12.0])).pdet == pytest.approx(1.0, abs=1e-12)

    rng = np.random.default_rng(808)
    for n in (3, 4):
        for _ in range(100):
            M = oracles.random_spd(rng, n)
            lo, hi = eig_extremes(M)
            olo, ohi = oracles.charpoly_extreme_eigs(M)
            assert lo == pytest.approx(olo, rel=1e-10)
            assert hi == pytest.approx(ohi, rel=1e-10)


def test_criterion_09_small_pivot_demo():
    """Four-digit elimination loses the solution without row interchange."""
    A, b, x = ill_conditioned_demo()
    assert np.allclose(chopped_gauss_solve(A, b), x, atol=1e-12)

    reordered = chopped_gauss_solve(A, b, digits=4, pivoting=ROW_REORDER)
    assert np.allclose(reordered, x, atol=1e-2)

    naive = chopped_gauss_solve(A, b, digits=4, pivoting=NO_PIVOTING)
    assert abs(naive[0] - x[0]) > 0.5  # the leading unknown is lost
    # Known failure: no consistent reading of the demo system drives the
    # leading unknown past |x1| = 10 at a four-digit budget, let alone 1e3.
    assert abs(naive[0]) >= 1e3, f"|x1| = {abs(naive[0])}"


def test_criterion_10_reports_are_deterministic(tmp_path):
    """Two identical comparison runs produce byte-identical table and CSV."""
    algorithms = [1, 2, 3, 4, 5, "baseline"]
    table1, csv1, rows1 = Analysis(load_or_generate("grid:3x4:checker")).compare(algorithms)
    table2, csv2, rows2 = Analysis(load_or_generate("grid:3x4:checker")).compare(algorithms)
    assert table1 == table2
    assert csv1 == csv2
    assert rows1 == rows2
    assert table1.splitlines()[0].split()[0] == "algorithm"
    assert len(csv1.splitlines()) == 7
