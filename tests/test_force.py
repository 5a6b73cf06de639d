"""Force-method matrices and solutions for planar frames."""

import os
import random
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import make_golden
import oracles
from framecycles import force
from framecycles.basis import (
    AlgorithmSpec,
    CycleBasis,
    adjacency_matrix,
    baseline_tree_basis,
    generate_basis,
    incidence_matrix,
)
from framecycles.force import (
    RankDeficientBasis,
    UnsupportedModel,
    assemble_g,
    build_b1,
    nodal_equilibrium_residual,
    solve_force_method,
    unassembled_flexibility,
)
from framecycles.cholesky import _BLOCK
from framecycles.cli import Analysis, load_or_generate
from framecycles.cycles import CycleVector
from framecycles.frames import HEAVY_SECTION, PATTERNS, generate_grid
from framecycles.metrics import condition_report
from framecycles.model import (
    FrameMember,
    FrameNode,
    ModelError,
    Section,
    StructuralModel,
    WeightedGraph,
    build_graph,
    classify_members,
)
from framecycles.render import render_sparsity


#: Mostly plain coordinates; some tiny ones, and some up to 1e103, where a
#: length cubed can overflow (above about 5.6e102).
_PLAIN = st.floats(min_value=-1e3, max_value=1e3)
COORDINATE = st.one_of(
    *[_PLAIN] * 6, st.floats(min_value=0.0, max_value=1e-150), st.floats(1e100, 1e103)
)
#: Section properties (A, I, E), mostly of real sections; the rest from
#: subnormal to huge, so E*A and E*I can underflow or overflow.
_REAL = st.floats(min_value=1e-8, max_value=1e12)
_ANY = st.floats(min_value=5e-324, max_value=1e300)
PROPERTIES = st.one_of(*[st.tuples(_REAL, _REAL, _REAL)] * 5, st.tuples(_ANY, _ANY, _ANY))


def oracle_blocks(model) -> np.ndarray:
    """The scalar oracle's block per member, in id order; a block whose
    E*A or E*I underflows to zero, where the oracle divides by zero, is inf."""
    blocks = []
    for m in sorted(model.members, key=lambda m: m.id):
        try:
            block = oracles.member_flexibility(model.member_section(m), model.member_length(m))
        except ZeroDivisionError:
            block = np.full((3, 3), np.inf)
        blocks.append(block)
    return np.array(blocks, dtype=float).reshape(-1, 3, 3)


def basis_for(model, algorithm_id=1):
    graph = build_graph(model)
    return generate_basis(graph, AlgorithmSpec.for_id(algorithm_id))


class TestMemberFlexibility:
    def test_heavy_section_block(self):
        """Cantilever block entries for the heavy test section at L = 3 m."""
        F = oracles.member_flexibility(HEAVY_SECTION, 3.0)
        assert F[0, 0] == pytest.approx(1.4728e-5, rel=1e-4)
        assert F[1, 1] == pytest.approx(2.1855e-3, rel=1e-4)
        assert F[1, 2] == pytest.approx(1.0927e-3, rel=1e-4)
        assert F[2, 2] == pytest.approx(7.2849e-4, rel=1e-4)
        assert F[0, 1] == F[0, 2] == 0.0
        assert np.allclose(F, F.T)

    def test_rejects_zero_length(self):
        with pytest.raises(ModelError):
            oracles.member_flexibility(HEAVY_SECTION, 0.0)

    def test_length_cubed_that_overflows_is_reported(self):
        """L**3 overflows a float for L = 3e103: the block reads inf, and Fm
        names the member rather than letting OverflowError out."""
        assert oracles.member_flexibility(HEAVY_SECTION, 3e103)[1, 1] == np.inf
        model = generate_grid(1, 1, bay=3e103, height=3e103)
        first = min(m.id for m in model.members)
        with pytest.raises(ModelError, match=f"member {first}: flexibility is not finite"):
            unassembled_flexibility(model)

    def test_fm_is_block_diagonal(self):
        """One cantilever block per member in id order; assembled, they are
        the diagonal blocks of an otherwise zero 3M x 3M matrix."""
        model = generate_grid(2, 2)
        Fm = unassembled_flexibility(model)
        assert Fm.shape == (10, 3, 3)
        members = sorted(model.members, key=lambda m: m.id)
        for block, m in zip(Fm, members):
            expected = oracles.member_flexibility(model.member_section(m), model.member_length(m))
            assert np.array_equal(block, expected)
        dense = oracles.dense_flexibility(model)
        assert dense.shape == (30, 30)
        mask = np.kron(np.eye(10, dtype=bool), np.ones((3, 3), dtype=bool))
        assert np.all(dense[~mask] == 0)
        assert np.array_equal(dense[mask].reshape(10, 3, 3), Fm)

    def test_fm_matches_the_scalar_oracle_on_every_golden_grid(self):
        for spec, _, _ in make_golden.report_corpus():
            model = load_or_generate(spec)
            assert np.array_equal(unassembled_flexibility(model), oracle_blocks(model)), spec

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(COORDINATE, COORDINATE, PROPERTIES), max_size=4))
    @example([(0.0, 900.6716254685628, (1.0, 1.0, 1.0))])
    @example([(3e103, 0.0, (0.0097, 0.0001961, 2.1e7))])  # L^3 overflows: F[1, 1] is inf
    @example([(3.0, 4.0, (0.0097, 0.0001961, 2.1e7)), (3.0, 0.0, (1e-300, 1.0, 1e-10))])
    def test_fm_matches_the_scalar_oracle_bit_for_bit(self, members):
        """Members from a support at the origin to free nodes at drawn points,
        each with its own drawn section: Fm equals the oracle's blocks to the
        last bit, or, where a block is not finite, a ModelError names the
        first such member.  In the examples: a length whose cube numpy's
        vectorised power rounds differently from C pow (with AVX-512), a
        length whose cube overflows, and a second member with a subnormal E*A."""
        members = [m for m in members if m[:2] != (0.0, 0.0)]
        nodes = [FrameNode(1, (0.0, 0.0))]
        nodes += [FrameNode(i + 2, (x, y)) for i, (x, y, *_) in enumerate(members)]
        frame_members = [FrameMember(i + 1, 1, i + 2, f"s{i + 1}") for i in range(len(members))]
        sections = {f"s{i + 1}": Section(*properties) for i, (*_, properties) in enumerate(members)}
        model = StructuralModel(nodes, frame_members, sections, [1])
        expected = oracle_blocks(model)
        finite = np.isfinite(expected).all(axis=(1, 2))
        if finite.all():
            assert np.array_equal(unassembled_flexibility(model), expected)
            return
        first = int(np.argmin(finite)) + 1
        message = rf"^member {first}: flexibility is not finite \(section 's{first}'\)$"
        with pytest.raises(ModelError, match=message):
            unassembled_flexibility(model)


class TestB1:
    @pytest.mark.parametrize("stories,spans", [(1, 1), (2, 2), (3, 3)])
    def test_columns_are_self_equilibrating(self, stories, spans):
        model = generate_grid(stories, spans)
        B1 = oracles.dense_b1(build_b1(model, basis_for(model)))
        for j in range(B1.shape[1]):
            assert nodal_equilibrium_residual(model, B1[:, j]) < 1e-12

    def test_three_columns_per_cycle(self):
        model = generate_grid(2, 3)
        basis = basis_for(model)
        B1 = build_b1(model, basis)
        assert B1.shape == (3 * len(model.members), 3 * len(basis))

    def test_3d_rejected(self):
        model = generate_grid(1, 1, 1)
        graph = build_graph(model)
        basis = generate_basis(graph, AlgorithmSpec.for_id(1))
        with pytest.raises(UnsupportedModel):
            build_b1(model, basis)

    @pytest.mark.parametrize(
        "members,message",
        [
            # Two loops that meet at the ground: node -1 joins four members.
            ({1, 2, 3, 4, 5, 7}, r"not a simple cycle \(node -1 has degree 4\)"),
            # Two disjoint loops, every node of degree 2: the walk from member 1
            # closes after the three members of its own loop.
            ({1, 2, 5, 7, 10, 11, 14}, r"not one cycle \(its walk closes after 3 of 7 members\)"),
        ],
        ids=["loops-meeting-at-ground", "disjoint-loops"],
    )
    def test_member_set_that_is_not_one_cycle_is_rejected(self, members, message):
        """On grid:2x3 (ground -1; members 1-4 from it, 5-7 and 12-14 the
        floors, 8-11 the upper columns), neither set is one simple cycle."""
        model = generate_grid(2, 3)
        graph = build_graph(model)
        basis = CycleBasis([CycleVector.from_members(graph, frozenset(members), 1)], graph)
        with pytest.raises(UnsupportedModel, match="cycle on generator 1 is " + message):
            build_b1(model, basis)

    def test_solve_holds_no_dense_b1(self):
        """The solve's peak traced memory on the 15x15 checker grid with ten
        loaded nodes stays below a dense 3M x 3b1 B1 plus one G."""
        model = generate_grid(15, 15, pattern="checker")
        basis = Analysis(model).basis("baseline")
        free = sorted(n.id for n in model.nodes if n.id not in set(model.supports))
        loads = [(free[37 * i % len(free)], 10.0 * (i + 1), -5.0 * i, 2.0) for i in range(10)]
        tracemalloc.start()
        try:
            solve_force_method(model, basis, loads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m, n = 3 * len(model.members), 3 * len(basis)
        assert peak < 8 * (m * n + n * n)


@pytest.mark.parametrize("algorithm", ["baseline", 1, 3])
def test_g_is_the_only_n_by_n_array(algorithm):
    """On the 15x15 checker grid, G with its condition report, and the solve,
    each peak below 1.5 G above the memory live when they start: no |G|
    copy, no unbounded scatter, no n x n mask is made beside G."""
    model = generate_grid(15, 15, pattern="checker")
    analysis = Analysis(model)
    basis = analysis.basis(algorithm)
    free = sorted(n.id for n in model.nodes if n.id not in set(model.supports))
    loads = [(free[37 * i % len(free)], 10.0 * (i + 1), -5.0 * i, 2.0) for i in range(10)]
    # numpy's first scatter leaves memory behind once per process.
    G = analysis.g(basis)
    for run in (
        lambda: condition_report(analysis.g(basis)),
        lambda: solve_force_method(model, basis, loads),
    ):
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - live < 1.5 * G.nbytes


class TestB0:
    """The particular forces r0 = B0 p, carried from the loads without a B0."""

    def test_columns_equilibrate_their_load(self):
        """The forces for each unit load, one column of the solution, balance it."""
        model = generate_grid(2, 2)
        basis = basis_for(model)
        for node, dof in [(5, 0), (7, 1), (9, 2)]:
            wrench = [0.0, 0.0, 0.0]
            wrench[dof] = 1.0
            solution = solve_force_method(model, basis, [(node, *wrench)])
            res = nodal_equilibrium_residual(model, solution.r, {(node, dof): 1.0})
            assert res < 1e-12

    def test_load_on_support_rejected(self):
        model = generate_grid(2, 2)
        with pytest.raises(ModelError, match="load on supported node 1 is rejected"):
            solve_force_method(model, basis_for(model), [(1, 1.0, 0.0, 0.0)])

    def test_load_on_unknown_node_rejected(self):
        model = generate_grid(2, 2)
        with pytest.raises(ModelError, match="unknown node 99"):
            solve_force_method(model, basis_for(model), [(99, 1.0, 0.0, 0.0)])

    @pytest.mark.parametrize(
        "node,message",
        [(1, "load on supported node 1 is rejected"), (99, "load on unknown node 99")],
    )
    def test_loads_are_checked_before_g_is_built(self, monkeypatch, node, message):
        """A bad load node costs no B1, no G and no factorisation."""

        def too_early(*args):
            raise AssertionError("the force layer was built before the loads were checked")

        monkeypatch.setattr(force, "build_b1", too_early)
        monkeypatch.setattr(force, "_build_b1", too_early)
        monkeypatch.setattr(force, "assemble_g", too_early)
        model = generate_grid(2, 2)
        with pytest.raises(ModelError, match=f"^{message}$"):
            solve_force_method(model, basis_for(model), [(node, 1.0, 0.0, 0.0)])

    def test_loads_on_one_node_add_up(self):
        model = generate_grid(2, 2, pattern="checker")
        basis = basis_for(model, 2)
        split = solve_force_method(model, basis, [(7, 5.0, -3.0, 2.0), (7, -1.5, 4.0, 0.5)])
        summed = solve_force_method(model, basis, [(7, 3.5, 1.0, 2.5)])
        assert np.max(np.abs(split.r - summed.r)) <= 1e-12 * np.max(np.abs(summed.r))


class TestAssembleG:
    def test_spd_and_block_pattern(self):
        model = generate_grid(2, 3, pattern="weak-beams")
        basis = basis_for(model, 2)
        G = assemble_g(build_b1(model, basis), unassembled_flexibility(model))
        assert np.allclose(G, G.T)
        D = oracles.cycle_adjacency_counts(basis) != 0
        assert np.array_equal(oracles.adjacency_pattern(adjacency_matrix(incidence_matrix(basis))), D)
        for i in range(D.shape[0]):
            for j in range(D.shape[1]):
                block = G[3 * i : 3 * i + 3, 3 * j : 3 * j + 3]
                assert (np.max(np.abs(block)) > 0) == D[i, j]

    def test_fm_of_the_wrong_shape_is_rejected(self):
        model = generate_grid(1, 1)
        B1 = build_b1(model, basis_for(model))
        with pytest.raises(ValueError, match=r"Fm of shape \(2, 3, 3\) does not match B1"):
            assemble_g(B1, unassembled_flexibility(model)[:-1])

    @pytest.mark.parametrize("algorithm", [2, "baseline"])
    def test_exactly_symmetric_across_blocks(self, algorithm):
        """Each member's product is symmetric before it is scattered, and a
        simple cycle passes a member once, so entries (p, q) and (q, p) sum
        the same numbers in the same member order, however large G is."""
        model = generate_grid(8, 8, pattern="checker")
        basis = Analysis(model).basis(algorithm)
        G = assemble_g(build_b1(model, basis), unassembled_flexibility(model))
        assert len(G) > 2 * 64
        assert np.array_equal(G, G.T)

    @pytest.mark.parametrize("algorithm", [2, "baseline"])
    def test_chunks_add_what_single_members_add(self, algorithm):
        """G is scattered in chunks of at most n _BLOCK entries; bit for bit,
        it is G summed one member at a time, members by the number of cycles
        through them, then by row."""
        model = generate_grid(10, 10, pattern="weak-beams")
        B1 = build_b1(model, Analysis(model).basis(algorithm))
        Fm = unassembled_flexibility(model)
        n = B1.shape[1]
        counts = np.bincount(B1.rows, minlength=len(Fm))
        batches = np.bincount(counts)[1:] * (3 * np.arange(1, counts.max() + 1)) ** 2
        assert batches.max() > n * _BLOCK
        expected = np.zeros((n, n))
        for m in sorted(np.flatnonzero(counts), key=lambda m: (counts[m], m)):
            run = B1.rows == m
            cols = (3 * B1.cycles[run][:, None] + np.arange(3)).ravel()
            Bm = B1.blocks[run].transpose(1, 0, 2).reshape(3, -1)
            X = Bm.T @ (Fm[m] @ Bm)
            expected[np.ix_(cols, cols)] += (X + X.T) * 0.5
        assert np.array_equal(assemble_g(B1, Fm), expected)

    def test_dependent_basis_rejected(self):
        """assemble_g factors nothing; each consumer's own factorisation rejects G."""
        model = generate_grid(1, 1)
        basis = basis_for(model)
        doubled = CycleBasis(basis.cycles * 2, basis.graph, basis.algorithm)
        with pytest.raises(RankDeficientBasis):
            solve_force_method(model, doubled, [(3, 1.0, 0.0, 0.0)])
        G = assemble_g(build_b1(model, doubled), unassembled_flexibility(model))
        with pytest.raises(ValueError, match="not positive definite"):
            condition_report(G)


class TestSolve:
    def test_graph_without_a_ground_is_rejected(self):
        model = generate_grid(1, 1)
        graph = build_graph(model)
        basis = baseline_tree_basis(WeightedGraph(graph.nodes, graph.members, graph.weights))
        with pytest.raises(ModelError, match="particular solution requires a grounded graph"):
            solve_force_method(model, basis, [(3, 1.0, 0.0, 0.0)])

    def test_matches_stiffness_method(self):
        model = generate_grid(2, 2)
        loads = [(7, 5.0, -3.0, 2.0), (9, -1.0, 0.0, 0.0)]
        solution = solve_force_method(model, basis_for(model), loads)
        expected = oracles.stiffness_member_forces(model, loads)
        for i, mid in enumerate(solution.member_order):
            got = solution.r[3 * i : 3 * i + 3]
            want = expected[mid]
            assert np.allclose(got, want, rtol=1e-8, atol=1e-10)

    def test_solution_is_in_equilibrium_with_loads(self):
        model = generate_grid(3, 2)
        loads = [(11, 2.0, 0.0, 0.0)]
        solution = solve_force_method(model, basis_for(model), loads)
        residual = nodal_equilibrium_residual(model, solution.r, {(11, 0): 2.0})
        assert residual < 1e-12
        assert solution.compatibility_residual < 1e-10

    def test_basis_choice_does_not_change_forces(self):
        """Member forces are basis-independent; only the redundants differ."""
        model = generate_grid(2, 2, pattern="weak-columns")
        loads = [(6, 0.0, -4.0, 0.0)]
        reference = None
        for algorithm_id in (1, 2, 3):
            solution = solve_force_method(model, basis_for(model, algorithm_id), loads)
            if reference is None:
                reference = solution.r
            else:
                assert np.allclose(solution.r, reference, rtol=1e-8, atol=1e-10)

    def test_zero_load_case(self):
        model = generate_grid(1, 1)
        solution = solve_force_method(model, basis_for(model), [])
        assert not np.any(solution.q)
        assert not np.any(solution.r)
        assert solution.compatibility_residual == 0.0

    @pytest.mark.parametrize(
        "node,message",
        [
            (1, "load on supported node 1 is rejected"),
            (99, "load on unknown node 99"),
            (-1, "load on unknown node -1"),
        ],
    )
    def test_equilibrium_residual_rejects_what_the_solve_rejects(self, node, message):
        model = generate_grid(1, 1)
        with pytest.raises(ModelError, match=f"^{message}$"):
            solve_force_method(model, basis_for(model), [(node, 1.0, 0.0, 0.0)])
        with pytest.raises(ModelError, match=f"^{message}$"):
            nodal_equilibrium_residual(model, np.zeros(3 * len(model.members)), {(node, 0): 1.0})

    @pytest.mark.parametrize("dof", [3, -1, 1.5])
    def test_equilibrium_residual_rejects_a_dof_other_than_0_1_2(self, dof):
        model = generate_grid(1, 1)
        with pytest.raises(ModelError, match=f"^load on node 3: dof must be 0, 1 or 2, got {dof}$"):
            nodal_equilibrium_residual(model, np.zeros(3 * len(model.members)), {(3, dof): 1.0})

    def test_3d_equilibrium_residual_rejected(self):
        model = generate_grid(1, 1, 1)
        with pytest.raises(UnsupportedModel, match="unsupported for 3D"):
            nodal_equilibrium_residual(model, np.ones(3 * len(model.members)))


@st.composite
def planar_grids(draw):
    """Grids of random size, section pattern and bay/story dimensions; half
    of them with every node nudged so that members leave the axes."""
    bay, height = draw(st.floats(1.0, 8.0)), draw(st.floats(1.0, 8.0))
    model = generate_grid(
        draw(st.integers(1, 5)),
        draw(st.integers(1, 5)),
        bay=bay,
        height=height,
        pattern=draw(st.sampled_from(PATTERNS)),
    )
    if draw(st.booleans()):
        nudge = st.floats(-0.3, 0.3)
        nodes = [
            FrameNode(n.id, (n.coords[0] + bay * draw(nudge), n.coords[1] + height * draw(nudge)))
            for n in model.nodes
        ]
        model = StructuralModel(nodes, model.members, model.sections, model.supports)
    return model


def _rendered(adjacency):
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "pattern.pbm")
        render_sparsity(adjacency, path)
        with open(path) as fh:
            return fh.read()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(planar_grids())
def test_block_structured_force_layer_matches_dense_references(model):
    """B1, G and the sparsity rasters agree with the dense, one-block-at-a-time
    references for every algorithm; G is exactly symmetric, and its block
    pattern is D's, so the raster that ``render --block`` draws from D is
    G's block pattern, and D's pattern is that of the integer C C'."""
    Fm = unassembled_flexibility(model)
    dense_fm = oracles.dense_flexibility(model)
    analysis = Analysis(model)
    for algorithm in (1, 2, 3, 4, 5, "baseline"):
        basis = analysis.basis(algorithm)
        blocks = build_b1(model, basis)
        B1 = oracles.dense_b1(blocks)
        reference_b1 = oracles.reference_b1(model, basis)
        assert np.all(np.abs(B1 - reference_b1) <= 1e-14 * np.max(np.abs(reference_b1), axis=0))

        G = assemble_g(blocks, Fm)
        assert np.array_equal(G, G.T)
        dense = oracles.dense_g(reference_b1, dense_fm)
        assert np.max(np.abs(G - dense)) <= 1e-12 * np.max(np.abs(dense))
        adjacency = adjacency_matrix(incidence_matrix(basis))
        D = oracles.cycle_adjacency_counts(basis) != 0
        assert np.array_equal(oracles.adjacency_pattern(adjacency), D)
        pattern = oracles.reference_sparsity_pbm(G, 3)
        assert pattern == oracles.reference_sparsity_pbm(dense, 3)
        assert pattern == oracles.reference_sparsity_pbm(D)

        assert _rendered(adjacency) == pattern


@settings(max_examples=40, deadline=None, derandomize=True)
@given(planar_grids(), st.integers(0, 2**32 - 1))
def test_b1_blocks_act_as_the_dense_reference(model, seed):
    """B1 q, B1' x and the scattered blocks agree with the one-wrench-at-a-time
    reference B1 for every algorithm; the blocks are sorted by (member row,
    cycle), one per pair, and nbytes counts their three arrays."""
    rng = np.random.default_rng(seed)
    analysis = Analysis(model)
    for algorithm in (1, 2, 3, 4, 5, "baseline"):
        basis = analysis.basis(algorithm)
        B1 = build_b1(model, basis)
        reference = oracles.reference_b1(model, basis)
        assert B1.shape == reference.shape
        dense = oracles.dense_b1(B1)
        assert np.all(np.abs(dense - reference) <= 1e-14 * np.max(np.abs(reference), axis=0))
        assert np.all(np.diff(B1.rows * B1.shape[1] + B1.cycles) > 0)
        assert B1.nbytes == B1.rows.nbytes + B1.cycles.nbytes + B1.blocks.nbytes

        q = rng.standard_normal(B1.shape[1])
        x = rng.standard_normal(B1.shape[0])
        bound_q = 1e-13 * (np.abs(reference) @ np.abs(q))
        bound_x = 1e-13 * (np.abs(reference).T @ np.abs(x))
        assert np.all(np.abs(B1.matvec(q) - reference @ q) <= bound_q)
        assert np.all(np.abs(B1.rmatvec(x) - reference.T @ x) <= bound_x)


@st.composite
def loaded_planar_grids(draw):
    """A ``planar_grids`` frame with one to four loaded free nodes."""
    model = draw(planar_grids())
    free = [n.id for n in model.nodes if n.id not in set(model.supports)]
    component = st.floats(-100.0, 100.0).map(lambda value: round(value, 2))
    nodes = draw(st.lists(st.sampled_from(free), min_size=1, max_size=4, unique=True))
    return model, [(node, draw(component), draw(component), draw(component)) for node in nodes]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(loaded_planar_grids())
def test_force_method_matches_stiffness_method_for_every_basis(case):
    """Member forces agree with the displacement-method oracle to criterion 7's
    tolerances and balance the loads at every free node, whatever the basis."""
    model, loads = case
    expected = oracles.stiffness_member_forces(model, loads)
    scale = max(np.max(np.abs(v)) for v in expected.values())
    applied = {(node, dof): value for node, *values in loads for dof, value in enumerate(values)}
    analysis = Analysis(model)
    for algorithm in (1, 2, 3, 4, 5, "baseline"):
        solution = solve_force_method(model, analysis.basis(algorithm), loads)
        for i, mid in enumerate(solution.member_order):
            got = solution.r[3 * i : 3 * i + 3]
            assert np.allclose(got, expected[mid], rtol=1e-6, atol=1e-6 * scale)
        assert nodal_equilibrium_residual(model, solution.r, applied) < 1e-9


def every_basis(graph):
    """The baseline's basis of *graph*, then algorithms 1 to 5's."""
    partition = classify_members(graph)
    bases = [baseline_tree_basis(graph)]
    for algorithm_id in (1, 2, 3, 4, 5):
        spec = AlgorithmSpec.for_id(algorithm_id)
        bases.append(generate_basis(graph, spec, partition if spec.na_avoidance else None))
    return bases


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_each_cycle_is_walked_once_around_from_its_generator(seed):
    """On random graphs, every cycle of every algorithm's basis is walked
    member by member: each member once, the generator first and from its "a"
    end, and the signed incidence sum of the steps is zero at every node.
    The steps are the oracle walk's, sign for sign."""
    graph = oracles.random_connected_graph(random.Random(seed), 24)
    ends = {e.id: (e.a, e.b) for e in graph.members}
    for basis in every_basis(graph):
        for cycle in basis.cycles:
            steps = force._oriented(ends, cycle)
            assert steps[0] == (cycle.generator, 1.0)
            assert sorted(mid for mid, _ in steps) == sorted(cycle.members)
            incidence = dict.fromkeys(graph.nodes, 0.0)
            for mid, sign in steps:
                a, b = ends[mid]
                incidence[a] -= sign
                incidence[b] += sign
            assert set(incidence.values()) == {0.0}
            assert steps == oracles._cycle_walk(graph, cycle)
