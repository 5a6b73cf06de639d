"""Route trees, minimal cycles, and GF(2) independence machinery."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from framecycles.cycles import (
    SRT,
    SRTM,
    CycleSpace,
    CycleVector,
    MemberMask,
    NoCycleThroughMember,
    UnionSubgraph,
    admissible_expansion,
    build_srt,
    build_srtm,
    min_cycle_on_member,
)
from framecycles.frames import generate_grid
from framecycles.model import Edge, WeightedGraph, build_graph, cycle_rank


def graph_from_edges(edges, weights=None):
    nodes = sorted({n for a, b in edges for n in (a, b)})
    members = tuple(Edge(i + 1, a, b) for i, (a, b) in enumerate(edges))
    w = {e.id: 1.0 for e in members}
    if weights:
        w.update(weights)
    return WeightedGraph(tuple(nodes), members, w)


# 1 -- 2 -- 3
# |         |
# 4 ------- 5      plus a pendant node 6 on node 3
HOUSE = graph_from_edges([(1, 2), (2, 3), (1, 4), (3, 5), (4, 5), (3, 6)])


class TestSrt:
    def test_labels_are_bfs_distances(self):
        tree = build_srt(HOUSE, 1)
        assert tree.label == {1: 0, 2: 1, 4: 1, 3: 2, 5: 2, 6: 3}

    def test_path_members_reach_root(self):
        tree = build_srt(HOUSE, 1)
        assert tree.path_members(6) == [6, 2, 1]

    def test_forbidden_member_is_excluded(self):
        tree = build_srt(HOUSE, 1, forbidden=1)  # drop member 1-2
        assert tree.label[2] == 4  # now reached the long way round

    def test_unreachable_nodes_absent(self):
        chain = graph_from_edges([(1, 2), (2, 3)])
        tree = build_srt(chain, 1, forbidden=2)
        assert 3 not in tree.label


class TestSrtm:
    def test_prunes_below_average_members(self):
        # Node 1 sees weights 10 and 1: the light member must not enter the
        # tree while the heavy route can still span the graph.
        g = graph_from_edges(
            [(1, 2), (1, 3), (2, 3)], weights={1: 10.0, 2: 1.0, 3: 10.0}
        )
        tree = build_srtm(g, 1)
        used = {via for _, via in tree.parent.values()}
        assert used == {1, 3}

    def test_fallback_attaches_stranded_nodes(self):
        # Pruning at node 1 would strand node 3 entirely; the fallback pass
        # must still span the component.
        g = graph_from_edges([(1, 2), (1, 3)], weights={1: 10.0, 2: 1.0})
        tree = build_srtm(g, 1)
        assert set(tree.label) == {1, 2, 3}

    def test_spans_same_component_as_srt(self):
        rng = random.Random(7)
        for _ in range(25):
            g = oracles.random_connected_graph(rng, 20)
            srt = build_srt(g, g.nodes[0])
            srtm = build_srtm(g, g.nodes[0])
            assert set(srtm.label) == set(srt.label)


class TestMinCycle:
    def test_square_cell(self):
        square = graph_from_edges([(1, 2), (2, 3), (3, 4), (4, 1)])
        cycle = min_cycle_on_member(square, 1)
        assert cycle.members == frozenset({1, 2, 3, 4})
        assert cycle.length == 4
        assert cycle.generator == 1

    def test_picks_shorter_of_two_cells(self):
        # Member 1 sits on a triangle and on a square; the triangle wins.
        g = graph_from_edges([(1, 2), (2, 3), (3, 1), (2, 4), (4, 5), (5, 1)])
        cycle = min_cycle_on_member(g, 1)
        assert cycle.members == frozenset({1, 2, 3})

    def test_bridge_member_raises(self):
        with pytest.raises(NoCycleThroughMember):
            min_cycle_on_member(HOUSE, 6)  # pendant member to node 6

    def test_unknown_tree_kind(self):
        with pytest.raises(ValueError, match="tree kind"):
            min_cycle_on_member(HOUSE, 1, "DFS")

    def test_srt_cycles_are_minimum_length(self):
        rng = random.Random(11)
        for _ in range(40):
            g = oracles.random_connected_graph(rng, 14)
            for mid in g.member_ids():
                expected = oracles.shortest_cycle_length_through(g, mid)
                if expected is None:
                    with pytest.raises(NoCycleThroughMember):
                        min_cycle_on_member(g, mid)
                    continue
                cycle = min_cycle_on_member(g, mid)
                assert mid in cycle.members
                assert oracles.is_simple_cycle(g, cycle.members)
                assert cycle.length == expected


class TestCycleSpace:
    def test_rank_matches_dense_oracle(self):
        rng = random.Random(23)
        for _ in range(20):
            g = oracles.random_connected_graph(rng, 24)
            cycles = []
            for mid in g.member_ids():
                try:
                    cycles.append(min_cycle_on_member(g, mid))
                except NoCycleThroughMember:
                    pass
            space = CycleSpace.over(g)
            for c in cycles:
                space.add(c)
            expected = oracles.gf2_rank([c.members for c in cycles], g.member_ids())
            assert len(space.pivots) == expected
            assert len(space.pivots) <= cycle_rank(g)

    def test_dependent_cycle_rejected(self):
        square = graph_from_edges([(1, 2), (2, 3), (3, 4), (4, 1)])
        c = min_cycle_on_member(square, 1)
        space = CycleSpace.over(square)
        assert space.add(c)
        assert not space.add(c)
        assert not space.is_independent(c)


class TestAdmissibleExpansion:
    def test_fresh_cycle_accepted(self):
        g = build_graph(generate_grid(1, 2))
        c = min_cycle_on_member(g, 1)
        assert admissible_expansion(g, UnionSubgraph(), c)

    def test_redundant_cycle_rejected(self):
        g = build_graph(generate_grid(1, 2))
        c = min_cycle_on_member(g, 1)
        union = UnionSubgraph()
        union.add(g, c.members)
        assert not admissible_expansion(g, union, c)

    def test_betti_accept_implies_gf2_accept(self):
        """The Betti-growth control is the stricter of the two controls."""
        rng = random.Random(31)
        for _ in range(30):
            g = oracles.random_connected_graph(rng, 18)
            space = CycleSpace.over(g)
            union = UnionSubgraph()
            cycles = []
            for mid in g.member_ids():
                try:
                    cycles.append(min_cycle_on_member(g, mid))
                except NoCycleThroughMember:
                    pass
            for c in cycles:
                if admissible_expansion(g, union, c):
                    assert space.is_independent(c)
                if space.add(c):
                    union.add(g, c.members)


# --- properties against the reference construction --------------------------

#: Repeated weights make ties in the SRTM averages and orderings.
TIED_WEIGHTS = (1.0, 2.0, 2.5, 10.0)


@st.composite
def connected_graphs(draw):
    """Connected graphs of up to 9 nodes; parallel members allowed, as in
    contracted frames whose node is tied to two supports."""
    n = draw(st.integers(2, 9))
    ids = draw(st.permutations(range(1, n + 1)))
    pairs = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]  # spanning tree
    pairs += draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
                lambda p: (p[0], (p[0] + p[1]) % n)
            ),
            max_size=14,
        )
    )
    weight = st.sampled_from(TIED_WEIGHTS) | st.floats(0.5, 100.0)
    members = tuple(Edge(k + 1, ids[a], ids[b]) for k, (a, b) in enumerate(pairs))
    weights = {e.id: draw(weight) for e in members}
    return WeightedGraph(tuple(ids), members, weights)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(connected_graphs())
def test_cycles_match_reference_construction(g):
    """Lazy SRT and table-driven SRTM give the eager construction's cycles,
    down to the last bit of the weight; bridges raise in both."""
    for kind in (SRT, SRTM):
        for mid in g.member_ids():
            expected = oracles.reference_min_cycle(g, mid, kind)
            if expected is None:
                with pytest.raises(NoCycleThroughMember):
                    min_cycle_on_member(g, mid, kind)
                continue
            cycle = min_cycle_on_member(g, mid, kind)
            assert cycle.members == expected[0]
            assert list(cycle.members) == list(expected[0])  # the order summed in
            assert repr(cycle.weight) == repr(expected[1])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(connected_graphs(), st.data())
def test_union_growth_is_b1_difference(g, data):
    """Union-find growth equals the rise of the union's b1, by BFS oracle."""
    union = UnionSubgraph()
    ids = g.member_ids()
    for _ in range(data.draw(st.integers(1, 6))):
        cand = frozenset(data.draw(st.lists(st.sampled_from(ids), min_size=1)))
        before = oracles.subgraph_b1(g, union.members)
        after = oracles.subgraph_b1(g, union.members | cand)
        assert union.growth(g, cand) == after - before
        if data.draw(st.booleans()):
            union.add(g, cand)


def masked_case(seed, tied, data):
    """A random graph and a mask over some of its members, all but one at most."""
    g = oracles.random_connected_graph(random.Random(seed), 24)
    if tied:  # repeated weights make ties in the SRTM averages
        weights = {mid: data.draw(st.sampled_from(TIED_WEIGHTS)) for mid in g.member_ids()}
        g = WeightedGraph(g.nodes, g.members, weights)
    ids = g.member_ids()
    mask = MemberMask(g)
    for mid in data.draw(st.lists(st.sampled_from(ids), unique=True, max_size=len(ids) - 1)):
        mask.add(mid)
    return g, mask


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.data())
def test_masked_cycles_match_the_masked_copy(seed, tied, data):
    """With members masked, each other member's cycle is the one on a copy of
    the graph without them, down to the last bit of the weight; a member
    left without a cycle raises in both."""
    g, mask = masked_case(seed, tied, data)
    for kind in (SRT, SRTM):
        for mid in g.member_ids():
            if mid in mask.members:
                continue
            view = oracles.masked_graph(g, mask.members, keep=mid)
            expected = oracles.reference_min_cycle(view, mid, kind)
            if expected is None:
                with pytest.raises(NoCycleThroughMember):
                    min_cycle_on_member(g, mid, kind, mask)
                continue
            cycle = min_cycle_on_member(g, mid, kind, mask)
            assert cycle.members == expected[0]
            assert list(cycle.members) == list(expected[0])  # the order summed in
            assert repr(cycle.weight) == repr(expected[1])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.data())
def test_masked_trees_match_the_masked_copy(seed, tied, data):
    """With members masked and one more forbidden, both whole route trees from
    either end of the forbidden member are the reference trees on a copy of
    the graph without them: every label and parent, past any meet."""
    g, mask = masked_case(seed, tied, data)
    for mid in g.member_ids():
        if mid in mask.members:
            continue
        view = oracles.masked_graph(g, mask.members, keep=mid)
        e = g.member(mid)
        for end in (e.a, e.b):
            for build, reference in (
                (build_srt, oracles._reference_srt),
                (build_srtm, oracles._reference_srtm),
            ):
                tree = build(g, end, forbidden=mid, mask=mask)
                assert (tree.label, tree.parent) == reference(view, end, mid)
