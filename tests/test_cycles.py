"""Route trees, minimal cycles, and GF(2) independence machinery."""

import contextlib
import itertools
import random
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from framecycles import cycles
from framecycles.basis import AlgorithmSpec, generate_basis
from framecycles.cli import Analysis
from framecycles.cycles import (
    SRT,
    SRTM,
    CycleSpace,
    CycleVector,
    MemberMask,
    NoCycleThroughMember,
    RouteTree,
    UnionSubgraph,
    _certified,
    _closure,
    _grow,
    _plain,
    _pruned,
    _reach,
    _srtm_tiers,
    _stranded_pair,
    admissible_expansion,
    build_srt,
    min_cycle_on_member,
)
from framecycles.frames import generate_grid
from framecycles.model import Edge, WeightedGraph, build_graph, classify_members, cycle_rank


def graph_from_edges(edges, weights=None):
    nodes = sorted({n for a, b in edges for n in (a, b)})
    members = tuple(Edge(i + 1, a, b) for i, (a, b) in enumerate(edges))
    w = {e.id: 1.0 for e in members}
    if weights:
        w.update(weights)
    return WeightedGraph(tuple(nodes), members, w)


def whole_tree(g, root, forbidden, kind=SRT, mask=None):
    """The whole route tree of *kind* from *root* with the forbidden (and any
    masked) members left out, pulled to the end from the lists and, for an
    SRTM from an end of that member, the L0 that ``min_cycle_on_member``'s
    search uses: ``_grow``, or ``_srtm_tiers`` from ``_stranded_pair``."""
    e = g.member(forbidden)
    plain = _plain(g, forbidden, mask)
    tree = RouteTree(root, {}, {root: 0})
    if kind == SRT:
        tiers = _grow(tree, plain)
    else:
        pruned = _pruned(g, plain, mask)
        tiers = _srtm_tiers(tree, pruned, _stranded_pair(g, e, plain, pruned, mask)[root != e.a])
    for _ in tiers:
        pass
    return tree


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
        tree = whole_tree(HOUSE, 1, forbidden=1)  # drop member 1-2
        assert tree.label[2] == 4  # now reached the long way round

    def test_unreachable_nodes_absent(self):
        chain = graph_from_edges([(1, 2), (2, 3)])
        tree = whole_tree(chain, 1, forbidden=2)
        assert 3 not in tree.label


class TestSrtm:
    """Each graph but the random ones ends in a pendant member to node 4: the
    tree grows from node 1 with that member forbidden, so node 1's lists and
    average are those of the graph without it."""

    def test_prunes_below_average_members(self):
        # Node 1 sees weights 10 and 1: the light member must not enter the
        # tree while the heavy route can still span the graph.
        g = graph_from_edges(
            [(1, 2), (1, 3), (2, 3), (1, 4)], weights={1: 10.0, 2: 1.0, 3: 10.0}
        )
        tree = whole_tree(g, 1, forbidden=4, kind=SRTM)
        used = {via for _, via in tree.parent.values()}
        assert used == {1, 3}

    def test_fallback_attaches_stranded_nodes(self):
        # Pruning at node 1 would strand node 3 entirely; the fallback pass
        # must still span the component.
        g = graph_from_edges([(1, 2), (1, 3), (1, 4)], weights={1: 10.0, 2: 1.0})
        tree = whole_tree(g, 1, forbidden=3, kind=SRTM)
        assert set(tree.label) == {1, 2, 3}

    def test_spans_same_component_as_srt(self):
        rng = random.Random(7)
        for _ in range(25):
            g = oracles.random_connected_graph(rng, 20)
            for mid in g.member_ids():
                e = g.member(mid)
                for end in (e.a, e.b):
                    srt = whole_tree(g, end, mid)
                    srtm = whole_tree(g, end, mid, SRTM)
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
            space = CycleSpace(g.column)
            for c in cycles:
                space.add(c)
            expected = oracles.gf2_rank([c.members for c in cycles], g.member_ids())
            assert len(space.pivots) == expected
            assert len(space.pivots) <= cycle_rank(g)

    def test_dependent_cycle_rejected(self):
        square = graph_from_edges([(1, 2), (2, 3), (3, 4), (4, 1)])
        c = min_cycle_on_member(square, 1)
        space = CycleSpace(square.column)
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
            space = CycleSpace(g.column)
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


@contextlib.contextmanager
def counted_tier_pulls():
    """A list that gets, per ``_first_common_node`` call, how many tiers the
    search pulled from each side: its arguments 1 and 3 are the iterators."""
    pulls = []
    search = cycles._first_common_node

    def counting(*args):
        pulled = [0, 0]
        pulls.append(pulled)

        def counted(side, tiers):
            for tier in tiers:
                pulled[side] += 1
                yield tier

        args = list(args)
        args[1], args[3] = counted(0, args[1]), counted(1, args[3])
        return search(*args)

    with mock.patch.object(cycles, "_first_common_node", counting):
        yield pulls


def assert_reference_cycle(g, mid, kind, reference, mask=None):
    """The member's cycle is the one the eager construction gives on the
    *reference* graph, down to the last bit of the weight, or a bridge in
    both; and each tree pulled exactly the tiers the reference examined."""
    expected, tiers = oracles.reference_min_cycle(reference, mid, kind)
    with counted_tier_pulls() as pulls:
        if expected is None:
            with pytest.raises(NoCycleThroughMember):
                min_cycle_on_member(g, mid, kind, mask)
        else:
            cycle = min_cycle_on_member(g, mid, kind, mask)
    assert pulls == [list(tiers)]
    if expected is not None:
        assert cycle.members == expected[0]
        assert list(cycle.members) == list(expected[0])  # the order summed in
        assert repr(cycle.weight) == repr(expected[1])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(connected_graphs())
def test_cycles_match_reference_construction(g):
    """Lazy SRT and table-driven SRTM give the eager construction's cycles,
    down to the last bit of the weight, and grow only the tiers it examines;
    bridges raise in both."""
    for kind in (SRT, SRTM):
        for mid in g.member_ids():
            assert_reference_cycle(g, mid, kind, g)


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
    the graph without them, down to the last bit of the weight, grown only
    as deep as the search on the copy examines; a member left without a
    cycle raises in both."""
    g, mask = masked_case(seed, tied, data)
    for kind in (SRT, SRTM):
        for mid in g.member_ids():
            if mid not in mask.members:
                view = oracles.masked_graph(g, mask.members, keep=mid)
                assert_reference_cycle(g, mid, kind, view, mask)


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
            for kind, reference in (
                (SRT, oracles._reference_srt),
                (SRTM, oracles._reference_srtm),
            ):
                tree = whole_tree(g, end, mid, kind, mask)
                assert (tree.label, tree.parent) == reference(view, end, mid)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.data())
def test_grow_from_a_node_set_labels_each_node_with_its_distance_to_it(seed, data):
    """A tree whose labels hold a node set S at 0 grows to the nodes reachable
    from S without the forbidden member, each labelled with its breadth-first
    distance to S (networkx's multi-source search); tier k is the nodes at
    distance k, and each parent is a neighbour one tier up."""
    g = oracles.random_connected_graph(random.Random(seed), 30)
    forbidden = data.draw(st.sampled_from(g.member_ids()))
    sources = data.draw(st.lists(st.sampled_from(g.nodes), min_size=1, unique=True))
    tree = RouteTree(sources[0], {}, dict.fromkeys(sources, 0))
    tiers = list(_grow(tree, _plain(g, forbidden, None)))
    view = nx.Graph()
    view.add_nodes_from(g.nodes)
    view.add_edges_from((e.a, e.b) for e in g.members if e.id != forbidden)
    distance = nx.multi_source_dijkstra_path_length(view, set(sources))
    assert tree.label == distance
    assert [sorted(tier) for tier in tiers] == [
        sorted(n for n, d in distance.items() if d == k) for k in range(1, len(tiers) + 1)
    ]
    for v, (u, via) in tree.parent.items():
        e = g.member(via)
        assert via != forbidden and {e.a, e.b} == {u, v}
        assert tree.label[u] == tree.label[v] - 1


#: Weights four orders of magnitude apart: pruning strands whole chains of
#: nodes, so the fallback attaches some in its second round or later.
CONTRAST_WEIGHTS = (0.01, 1.0, 100.0)


def contrast_case(seed, data, max_masked=6):
    """A random graph with high-contrast weights, a forbidden member, a mask
    over up to *max_masked* other members (None if it holds none) and the
    copy of the graph without the masked members."""
    g = oracles.random_connected_graph(random.Random(seed), 40)
    draw_weight = st.sampled_from(CONTRAST_WEIGHTS)
    g = WeightedGraph(g.nodes, g.members, {mid: data.draw(draw_weight) for mid in g.member_ids()})
    forbidden = data.draw(st.sampled_from(g.member_ids()))
    others = [mid for mid in g.member_ids() if mid != forbidden]
    mask = MemberMask(g)
    for mid in data.draw(st.lists(st.sampled_from(others), unique=True, max_size=max_masked)):
        mask.add(mid)
    view = oracles.masked_graph(g, mask.members, keep=forbidden)
    return g, forbidden, mask if mask.members else None, view


def test_srtm_tiers_pulled_so_far_are_the_top_of_the_whole_tree():
    """After any k tiers taken from ``_srtm_tiers``, the tree holds exactly
    the reference tree's nodes up to tier k, with their labels and parents,
    on a copy of the graph without the masked members, and no node below
    tier k: the main phase grows lazily too.  Some examples attach a node in
    fallback round 2 or later, and some strand a node with a survivor two
    or more tiers below it, which the main phase must not expand to."""
    late_rounds, stranded_with_survivors = [], []

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.data())
    def check(seed, data):
        g, forbidden, mask, view = contrast_case(seed, data)
        e = g.member(forbidden)
        root = data.draw(st.sampled_from((e.a, e.b)))
        label, parent = oracles._reference_srtm(view, root, forbidden)
        main, _ = oracles._reference_srtm_main(view, root, forbidden)
        late_rounds.append(any(v not in main and u not in main for v, (u, _) in parent.items()))

        tree = RouteTree(root, {}, {root: 0})
        plain = _plain(g, forbidden, mask)
        pruned = _pruned(g, plain, mask)
        table, ends = pruned
        stranded_with_survivors.append(
            any(
                label[w] > label[v] + 1
                for v in label
                if v not in main
                for _, w in (ends[v] if v in ends else table[v])
            )
        )
        stranded = _stranded_pair(g, e, plain, pruned, mask)[root != e.a]
        tiers = _srtm_tiers(tree, pruned, stranded)
        k = data.draw(st.integers(0, max(label.values()) + 1))
        pulled = list(itertools.islice(tiers, k))
        assert [sorted(tier) for tier in pulled] == [
            sorted(n for n, lbl in label.items() if lbl == j) for j in range(1, len(pulled) + 1)
        ]
        assert tree.label == {n: lbl for n, lbl in label.items() if lbl <= k}
        assert tree.parent == {n: parent[n] for n in tree.label if n != root}

    check()
    assert any(late_rounds)
    assert any(stranded_with_survivors)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.data())
def test_main_phase_node_set_is_the_reference_main_phase(seed, data):
    """Each end's L0, the one the search uses, is the node set of the
    reference main phase on the copy without the masked members, and so are
    its search and a certified L0, masked or not; the two trees of a member
    share their stranded-node state exactly when their two L0 are equal;
    and the whole SRTM, built on a certified L0 where there is one, is the
    reference tree."""
    g, forbidden, mask, view = contrast_case(seed, data)
    e = g.member(forbidden)
    plain = _plain(g, forbidden, mask)
    pruned = _pruned(g, plain, mask)
    expected = {}
    for end in (e.a, e.b):
        main, _ = oracles._reference_srtm_main(view, end, forbidden)
        expected[end] = set(main)
        assert _reach(end, pruned) == expected[end]
        certified = _certified(g, end, pruned, mask)
        assert certified is None or set(certified) == expected[end]
        tree = whole_tree(g, end, forbidden, SRTM, mask)
        assert (tree.label, tree.parent) == oracles._reference_srtm(view, end, forbidden)
    stranded_a, stranded_b = _stranded_pair(g, e, plain, pruned, mask)
    assert set(stranded_a.main) == expected[e.a] and set(stranded_b.main) == expected[e.b]
    assert (stranded_a is stranded_b) == (expected[e.a] == expected[e.b])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(connected_graphs(), st.data())
def test_certificate_holds_whatever_the_representative(g, data):
    """On small graphs with parallel members and tied weights, whichever
    node a component's record is made from first (its representative r),
    every L0, certified or searched, is the reference main phase's node set
    on the copy without the masked members, under a mask of up to six."""
    _closure(g, data.draw(st.sampled_from(g.nodes)))
    masked = data.draw(st.lists(st.sampled_from(g.member_ids()), unique=True, max_size=6))
    mask = MemberMask(g)
    for mid in masked:
        mask.add(mid)
    for mid in g.member_ids():
        if mid in mask.members:
            continue
        e = g.member(mid)
        view = oracles.masked_graph(g, mask.members, keep=mid)
        some = mask if mask.members else None
        plain = _plain(g, mid, some)
        pruned = _pruned(g, plain, some)
        for end, stranded in zip((e.a, e.b), _stranded_pair(g, e, plain, pruned, some)):
            main, _ = oracles._reference_srtm_main(view, end, mid)
            assert set(stranded.main) == set(main)
            certified = _certified(g, end, pruned, some)
            assert certified is None or set(certified) == set(main)


def high_contrast_graph(model):
    """The model's graph with a two-member tail, one light and one heavy,
    which adds two bridges."""
    grid = build_graph(model)
    top, last = max(grid.nodes), max(grid.member_ids())
    tail = (Edge(last + 1, top, top + 1), Edge(last + 2, top + 1, top + 2))
    light, heavy = min(grid.weights.values()) / 100, max(grid.weights.values()) * 100
    weights = {**grid.weights, last + 1: light, last + 2: heavy}
    return WeightedGraph((*grid.nodes, top + 1, top + 2), grid.members + tail, weights)


HIGH_CONTRAST_GRIDS = pytest.mark.parametrize(
    "model",
    [
        generate_grid(8, 8, pattern="weak-columns"),
        generate_grid(8, 8, pattern="checker"),
        generate_grid(3, 3, 3, pattern="checker"),
    ],
    ids=["grid:8x8:weak-columns", "grid:8x8:checker", "grid3d:3x3x3:checker"],
)


@HIGH_CONTRAST_GRIDS
def test_srtm_cycles_on_high_contrast_grids_match_the_reference(model):
    """Every member's SRTM cycle on grids whose fallback runs many rounds is
    the one from two whole reference trees, down to the weight's last bit,
    and each tree pulls only the tiers examined.  The tail's two bridges
    raise in both."""
    g = high_contrast_graph(model)
    for mid in g.member_ids():
        assert_reference_cycle(g, mid, SRTM, g)


@HIGH_CONTRAST_GRIDS
def test_main_phase_node_sets_on_high_contrast_grids_match_the_reference(model):
    """At both ends of every member, L0 is the reference main phase's node
    set, and the certificate holds at some ends of every grid, so the
    closure shared by a component is in use."""
    g = high_contrast_graph(model)
    certified = 0
    for mid in g.member_ids():
        e = g.member(mid)
        plain = _plain(g, mid, None)
        pruned = _pruned(g, plain, None)
        for end, stranded in zip((e.a, e.b), _stranded_pair(g, e, plain, pruned, None)):
            main, _ = oracles._reference_srtm_main(g, end, mid)
            assert set(stranded.main) == set(main)
            certified += _certified(g, end, pruned, None) is not None
    assert certified > 0


def survivor_ids(lists):
    return {e.id for e, _ in lists}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.data())
def test_mask_changed_is_the_nodes_whose_survivors_differ(seed, data):
    """After every ``MemberMask.add`` of a sequence, ``changed`` is exactly
    the set of nodes whose survivor ids in ``heavy`` differ from the
    graph's ``heavy_incident``: outside it the masked survivor digraph is
    the graph's."""
    g, forbidden, mask, _ = contrast_case(seed, data, max_masked=20)
    mask = mask or MemberMask(g)
    others = [mid for mid in g.member_ids() if mid not in mask.members]
    for mid in [None, *data.draw(st.lists(st.sampled_from(others), unique=True, max_size=8))]:
        if mid is not None:
            mask.add(mid)
        assert mask.changed == {
            n
            for n in g.nodes
            if survivor_ids(mask.heavy[n]) != survivor_ids(g.heavy_incident[n])
        }


def test_certificate_re_hangs_re_routes_and_holds_under_a_mask(monkeypatch):
    """On fixed grids, unmasked and under algorithm 5's growing mask, every
    certified L0 is the reference main phase's node set, and some roots are
    certified only by re-hanging a lost member of T (``_clear`` runs only
    when one is lost), some only by re-routing the root's broken path home
    (``_break`` runs again only then), and some under a mask."""
    runs = {"_clear": 0, "_break": 0}
    for name in runs:
        original = getattr(cycles, name)

        def counted(*args, name=name, original=original):
            runs[name] += 1
            return original(*args)

        monkeypatch.setattr(cycles, name, counted)
    certified_by = {"re-hang": 0, "re-route": 0, "mask": 0}

    def check(g, mid, mask, view):
        e = g.member(mid)
        pruned = _pruned(g, _plain(g, mid, mask), mask)
        for end in (e.a, e.b):
            runs.update(_clear=0, _break=0)
            certified = _certified(g, end, pruned, mask)
            if certified is None:
                continue
            main, _ = oracles._reference_srtm_main(view, end, mid)
            assert set(certified) == set(main)
            certified_by["re-hang"] += runs["_clear"] > 0
            certified_by["re-route"] += runs["_break"] > 1
            certified_by["mask"] += mask is not None

    for model in (
        generate_grid(8, 8, pattern="weak-columns"),
        generate_grid(3, 3, 3, pattern="checker"),
    ):
        g = build_graph(model)
        for mid in g.member_ids():
            check(g, mid, None, g)
        mask = MemberMask(g)
        for mid in sorted(classify_members(g), key=lambda m: (g.weight(m), m)):
            if mask.members:
                check(g, mid, mask, oracles.masked_graph(g, mask.members, keep=mid))
            mask.add(mid)
    assert all(certified_by.values()), certified_by


def test_l0_searches_for_algorithms_2_and_5_on_a_space_grid(monkeypatch):
    """Algorithms 2 and 5 on one 6x4x4 checker space grid search for L0 at
    no more than 106 roots.  They searched at 685 when the certificate was
    tried only without a mask and failed wherever a member of T was pruned:
    the count guards the certificate's reach, with no timing."""
    searches = 0
    reach = cycles._reach

    def counted(*args, **kwargs):
        nonlocal searches
        searches += 1
        return reach(*args, **kwargs)

    monkeypatch.setattr(cycles, "_reach", counted)
    g = build_graph(generate_grid(6, 4, 4, pattern="checker"))
    generate_basis(g, AlgorithmSpec.for_id(2))
    generate_basis(g, AlgorithmSpec.for_id(5), classify_members(g))
    assert searches <= 106


#: grid:k x k:checker -> (M, {algorithm: (labels, L0 search nodes)}): the
#: totals of algorithms 2 and 5 when these bounds were set.
SRTM_WORK_ON_CHECKER_GRIDS = {
    10: (210, {2: (3740, 5416), 5: (4407, 5417)}),
    20: (820, {2: (22191, 61236), 5: (27493, 61237)}),
    30: (1830, {2: (65729, 271956), 5: (83587, 271957)}),
}


@pytest.mark.parametrize("k", sorted(SRTM_WORK_ON_CHECKER_GRIDS))
def test_route_tree_work_on_checker_grids(monkeypatch, k):
    """The route-tree work of one basis on grid:k x k:checker, counted with
    no timing, one fresh ``Analysis`` per basis: after each cycle search the
    labels of both trees, and the nodes of each L0 search.

    Algorithm 1 labels at most 16 nodes per member (13.7, 14.8 and 15.2 at
    k = 10, 20 and 30) and searches for no L0.  Algorithms 2 and 5 stay
    within the totals they gave when the bounds were set; per member their
    labels grow about as the square root of M and their searches nearly as
    M.  These guard observations on these grids, not theorems."""
    work = {"labels": 0, "searched": 0}
    search, reach = cycles._first_common_node, cycles._reach

    def counted_search(tree_a, tiers_a, tree_b, tiers_b):
        meet = search(tree_a, tiers_a, tree_b, tiers_b)
        work["labels"] += len(tree_a.label) + len(tree_b.label)
        return meet

    def counted_reach(*args):
        found = reach(*args)
        work["searched"] += len(found)
        return found

    monkeypatch.setattr(cycles, "_first_common_node", counted_search)
    monkeypatch.setattr(cycles, "_reach", counted_reach)
    members, bounds = SRTM_WORK_ON_CHECKER_GRIDS[k]
    counted = {}
    for algorithm in (1, *bounds):
        work.update(labels=0, searched=0)
        analysis = Analysis(generate_grid(k, k, pattern="checker"))
        analysis.basis(algorithm)
        assert len(analysis.graph.member_ids()) == members
        counted[algorithm] = (work["labels"], work["searched"])
    assert counted[1][0] <= 16 * members and counted[1][1] == 0
    for algorithm, (labels, searched) in bounds.items():
        assert counted[algorithm][0] <= labels, algorithm
        assert counted[algorithm][1] <= searched, algorithm
