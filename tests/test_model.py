"""Frame model validation, member weights, and graph contraction."""

import math

import pytest

from framecycles.frames import HEAVY_SECTION, LIGHT_SECTION, generate_grid
from framecycles.model import (
    GROUND,
    Edge,
    FrameMember,
    FrameNode,
    ModelError,
    Section,
    StructuralModel,
    WeightedGraph,
    build_graph,
    classify_members,
    cycle_rank,
    member_weight,
    member_weight_3d,
)

SECTIONS = {"s": Section(A=0.01, I=0.0002, E=2.1e7)}


def simple_model(members, nodes=None, supports=(1,)):
    nodes = nodes or [
        FrameNode(1, (0.0, 0.0)),
        FrameNode(2, (3.0, 0.0)),
        FrameNode(3, (3.0, 3.0)),
    ]
    return StructuralModel(nodes, members, SECTIONS, list(supports))


class TestSection:
    def test_rejects_nonpositive_properties(self):
        for bad in (dict(A=0), dict(I=-1e-6), dict(E=0), dict(A=-math.inf)):
            props = dict(A=0.01, I=0.0002, E=2.1e7)
            props.update(bad)
            with pytest.raises(ModelError, match="must be positive"):
                Section(**props)

    def test_rejects_nonfinite_properties(self):
        for bad in (dict(A=math.nan), dict(I=math.inf), dict(E=math.nan)):
            props = dict(A=0.01, I=0.0002, E=2.1e7)
            props.update(bad)
            with pytest.raises(ModelError, match="must be finite"):
                Section(**props)


class TestModelValidation:
    def test_duplicate_node_id(self):
        nodes = [FrameNode(1, (0.0, 0.0)), FrameNode(1, (1.0, 0.0))]
        with pytest.raises(ModelError, match="duplicate node id 1"):
            StructuralModel(nodes, [], SECTIONS, [1])

    def test_wrong_coordinate_count(self):
        nodes = [FrameNode(1, (0.0, 0.0, 0.0))]
        with pytest.raises(ModelError, match="coordinates"):
            StructuralModel(nodes, [], SECTIONS, [1])

    def test_nonfinite_coordinate(self):
        for bad in (math.nan, math.inf):
            nodes = [FrameNode(1, (0.0, 0.0)), FrameNode(2, (bad, 0.0))]
            with pytest.raises(ModelError, match="node 2 has a non-finite coordinate"):
                StructuralModel(nodes, [FrameMember(1, 1, 2, "s")], SECTIONS, [1])

    def test_member_self_loop(self):
        with pytest.raises(ModelError, match="to itself"):
            simple_model([FrameMember(1, 2, 2, "s")])

    def test_member_missing_node(self):
        with pytest.raises(ModelError, match="missing node 9"):
            simple_model([FrameMember(1, 1, 9, "s")])

    def test_member_missing_section(self):
        with pytest.raises(ModelError, match="missing section 'nope'"):
            simple_model([FrameMember(1, 1, 2, "nope")])

    def test_parallel_members_rejected(self):
        members = [FrameMember(1, 1, 2, "s"), FrameMember(2, 2, 1, "s")]
        with pytest.raises(ModelError, match="multigraph"):
            simple_model(members)

    def test_zero_length_member(self):
        nodes = [FrameNode(1, (0.0, 0.0)), FrameNode(2, (0.0, 0.0))]
        with pytest.raises(ModelError, match="zero length"):
            StructuralModel(nodes, [FrameMember(1, 1, 2, "s")], SECTIONS, [1])

    def test_length_that_overflows(self):
        nodes = [FrameNode(1, (-1e308, 0.0)), FrameNode(2, (1e308, 0.0))]
        with pytest.raises(ModelError, match="member 1 is too long"):
            StructuralModel(nodes, [FrameMember(1, 1, 2, "s")], SECTIONS, [1])

    def test_support_must_exist(self):
        with pytest.raises(ModelError, match="support references missing node"):
            simple_model([FrameMember(1, 1, 2, "s")], supports=(8,))

    def test_unsupported_model_rejected(self):
        with pytest.raises(ModelError, match="no supports"):
            simple_model([FrameMember(1, 1, 2, "s")], supports=())


class TestMemberWeight:
    """Weights are twice the sum of EA/L, 12EI/L^3 and 4EI/L (hand-checked)."""

    def test_heavy_section_weight(self):
        assert member_weight(HEAVY_SECTION, 3.0) == pytest.approx(150442.13, abs=0.01)

    def test_light_section_weight(self):
        assert member_weight(LIGHT_SECTION, 3.0) == pytest.approx(14967.68, abs=0.01)

    def test_sqrt_sum_variant(self):
        assert member_weight(HEAVY_SECTION, 3.0, "sqrt-sum") == pytest.approx(754.92, abs=0.01)

    def test_sqrt_sum_is_sum_of_roots(self):
        s, L = HEAVY_SECTION, 4.0
        terms = (s.E * s.A / L, 12 * s.E * s.I / L**3, 4 * s.E * s.I / L)
        assert member_weight(s, L, "sqrt-sum") == pytest.approx(
            2 * sum(math.sqrt(t) for t in terms)
        )

    def test_3d_weight_doubles_bending_terms(self):
        s, L = HEAVY_SECTION, 3.0
        bending = 2.0 * (12 * s.E * s.I / L**3 + 4 * s.E * s.I / L)
        assert member_weight_3d(s, L) == pytest.approx(member_weight(s, L) + bending)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ModelError):
            member_weight(HEAVY_SECTION, 0.0)
        with pytest.raises(ModelError):
            member_weight(HEAVY_SECTION, 3.0, "product")
        with pytest.raises(ModelError, match="unknown weight variant 'bogus'"):
            member_weight_3d(HEAVY_SECTION, 3.0, "bogus")


class TestWeightedGraph:
    def test_incident_sorted_by_member_id(self):
        g = WeightedGraph(
            (1, 2, 3),
            (Edge(3, 1, 2), Edge(1, 1, 3), Edge(2, 2, 3)),
            {1: 1.0, 2: 1.0, 3: 1.0},
        )
        assert [e.id for e, _ in g.adjacency[1]] == [1, 3]
        assert g.column == {1: 0, 2: 1, 3: 2}
        assert g.member_ids() == [1, 2, 3]
        assert g.b0 == 1
        assert cycle_rank(g) == 1

    @pytest.mark.parametrize(
        "edge,message", [(Edge(1, 1, 1), "is a self loop"), (Edge(1, 1, 3), "references missing node")]
    )
    def test_rejects_a_member_off_two_distinct_nodes(self, edge, message):
        with pytest.raises(ModelError, match=message):
            WeightedGraph((1, 2), (edge,), {1: 1.0})

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ModelError, match="positive weight"):
            WeightedGraph((1, 2), (Edge(1, 1, 2),), {1: 0.0})

    def test_rejects_nonfinite_weight(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ModelError, match="finite weight"):
                WeightedGraph((1, 2), (Edge(1, 1, 2),), {1: bad})

    def test_component_count(self):
        g = WeightedGraph((1, 2, 3, 4), (Edge(1, 1, 2),), {1: 1.0})
        assert g.b0 == 3

    def test_component_count_is_not_an_argument(self):
        with pytest.raises(TypeError):
            WeightedGraph((1, 2), (Edge(1, 1, 2),), {1: 1.0}, b0=5)


class TestBuildGraph:
    def test_portal_frame_contracts_to_triangle(self):
        portal = generate_grid(1, 1)
        g = build_graph(portal)
        assert len(g.nodes) == 3
        assert len(g.members) == 3
        assert g.ground == GROUND
        assert cycle_rank(g) == 1

    @pytest.mark.parametrize(
        "ids",
        [{5: -1}, {3: -1}, {n: n - 6 for n in range(1, 7)}],
        ids=["free-5", "free-3", "all-shifted"],
    )
    def test_a_free_node_numbered_minus_one_is_not_merged_into_the_ground(self, ids):
        """The ground's id lies below every node id: a two-story portal with a
        free node renumbered -1 keeps that node free and compares as before."""
        from framecycles.cli import Analysis

        portal = generate_grid(2, 1)
        new = lambda node: ids.get(node, node)
        model = StructuralModel(
            [FrameNode(new(n.id), n.coords) for n in portal.nodes],
            [FrameMember(m.id, new(m.a), new(m.b), m.section) for m in portal.members],
            portal.sections,
            [new(s) for s in portal.supports],
        )
        g = build_graph(model)
        assert g.ground not in {n.id for n in model.nodes}
        assert g.nodes[0] == g.ground and cycle_rank(g) == 2
        algorithms = [1, 2, 3, 4, 5, "baseline"]
        assert Analysis(model).compare(algorithms) == Analysis(portal).compare(algorithms)

    def test_three_story_four_span_counts(self):
        g = build_graph(generate_grid(3, 4))
        assert len(g.nodes) == 16
        assert len(g.members) == 27
        assert cycle_rank(g) == 12

    def test_member_between_supports_rejected(self):
        nodes = [FrameNode(1, (0.0, 0.0)), FrameNode(2, (3.0, 0.0))]
        m = StructuralModel(nodes, [FrameMember(1, 1, 2, "s")], SECTIONS, [1, 2])
        with pytest.raises(ModelError, match="two supported nodes"):
            build_graph(m)

    def test_disconnected_structure_rejected(self):
        nodes = [
            FrameNode(1, (0.0, 0.0)),
            FrameNode(2, (0.0, 3.0)),
            FrameNode(3, (9.0, 9.0)),
        ]
        m = StructuralModel(nodes, [FrameMember(1, 1, 2, "s")], SECTIONS, [1])
        with pytest.raises(ModelError, match="disconnected"):
            build_graph(m)

    def test_3d_models_use_space_weights(self):
        m = generate_grid(1, 1, 1)
        g = build_graph(m)
        col = m.members[0]
        expected = member_weight_3d(m.member_section(col), m.member_length(col))
        assert g.weight(col.id) == pytest.approx(expected)


class TestClassifyMembers:
    def test_partition_on_heterogeneous_frame(self):
        g = build_graph(generate_grid(3, 4, pattern="weak-beams"))
        inadmissible = classify_members(g)
        light = {e.id for e in g.members if g.weight(e.id) < 20000}
        assert inadmissible == frozenset(light)
        threshold = sum(g.weights.values()) / len(g.members) / 2
        assert all((g.weight(mid) < threshold) == (mid in inadmissible) for mid in g.weights)

    def test_homogeneous_frame_is_fully_admissible(self):
        g = build_graph(generate_grid(2, 2))
        assert classify_members(g) == frozenset()

    def test_threshold_scales_with_alpha(self):
        g = build_graph(generate_grid(3, 4, pattern="weak-beams"))
        assert classify_members(g, alpha=20) == frozenset()

    def test_graph_without_members_is_rejected(self):
        with pytest.raises(ModelError, match="graph has no members"):
            classify_members(WeightedGraph((1,), (), {}))

    def test_alpha_validation(self):
        g = build_graph(generate_grid(1, 1))
        with pytest.raises(ModelError, match="alpha"):
            classify_members(g, alpha=0)

    def test_alpha_beyond_a_float_is_rejected(self):
        g = build_graph(generate_grid(1, 1))
        with pytest.raises(ModelError, match=r"alpha must be at most 1\.79769e\+308"):
            classify_members(g, alpha=10**400)
