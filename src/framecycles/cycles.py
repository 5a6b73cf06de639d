"""Shortest route trees, minimal cycles on members, and GF(2) independence.

Both route trees grow by one breadth-first tier loop over per-node
candidate lists: the plain SRT over all incident members, which yields
minimum-length cycles, and the weight-pruned SRTM over the members at
least as heavy as their node's average, plus rounds that attach nodes
stranded by pruning; both yield their tiers one at a time.  The search
for a member's cycle lets its two trees take turns, the first end's
first: each pulls one tier on its turn, a tree with none left drops out,
and the search stops where they meet, so neither grows a tier it does
not examine.  An SRTM needs its main phase's node set L0 before its
first tier.  Where a certificate shows it, with a mask or without, L0 is
the closure of the root's strong component in the graph's survivor
digraph, made once per component and graph and shared by every tree
rooted there; elsewhere it is one search, and the two trees of a member
share it when their L0 are equal.  Forbidden and masked members are left
out of the lists, nowhere else.  All tie-breaking is by ascending member
id then ascending node id, so every result is deterministic.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Collection, Iterator
from dataclasses import dataclass, field
from itertools import count

from framecycles.model import DisjointSets, Edge, WeightedGraph, heavy_first

SRT = "SRT"
SRTM = "SRTM"


class NoCycleThroughMember(ValueError):
    """The member is a bridge: no cycle passes through it."""


@dataclass
class RouteTree:
    """Spanning tree of the reachable component with breadth-first tier labels.

    A tree grown lazily for ``min_cycle_on_member`` holds exactly the tiers
    that the lock-step search examined, an SRTM's as well as an SRT's: the
    two trees take turns, tree a first, and each pulls one tier on its turn
    (``_first_common_node``).  The SRTM's main-phase node set L0 is known
    apart from the tree (``_stranded_pair``).
    """

    root: int
    parent: dict[int, tuple[int, int]]  # node -> (parent node, via member id)
    label: dict[int, int]

    def path_members(self, node: int) -> list[int]:
        """Member ids on the tree path from *node* up to the root."""
        path = []
        while node != self.root:
            node, via = self.parent[node]
            path.append(via)
        return path


@dataclass(frozen=True)
class CycleVector:
    """A cycle as a member set, i.e. a vector over GF(2) indexed by members."""

    members: frozenset[int]
    length: int
    weight: float
    generator: int

    @staticmethod
    def from_members(
        graph: WeightedGraph, members: frozenset[int], generator: int
    ) -> "CycleVector":
        """The cycle on *members*, its weight summed in set-iteration order.

        That order depends on how the set was built, not only on what it
        holds, and cycles of equal geometry can differ in the last bit:
        330819.6266666667 against 330819.62666666665 on
        ``grid:2x7:checker``.  The weight-descending greedy order is decided
        by that bit, so every builder of a member set must keep building it
        the same way.
        """
        weight = sum(graph.weight(m) for m in members)
        return CycleVector(members, len(members), weight, generator)


def close_cycle(
    graph: WeightedGraph, member_id: int, path_a: list[int], path_b: list[int]
) -> CycleVector:
    """The cycle that *member_id* closes with two tree paths from its ends.

    The paths (member ids, as ``RouteTree.path_members`` gives them) run
    from the member's two ends to a common node; members on both cancel
    over GF(2).  The set is built as the member, then ^ path a, then ^
    path b: that order fixes the weight's last bit (``from_members``).
    """
    members: set[int] = {member_id}
    members ^= set(path_a)
    members ^= set(path_b)
    return CycleVector.from_members(graph, frozenset(members), member_id)


#: Per-node (edge, other-end) lists: a table, and overrides at the forbidden ends.
Lists = tuple[dict[int, list], dict[int, list]]


class MemberMask:
    """Members kept out of route trees, as if deleted from the graph.

    ``incident`` and ``heavy`` are the plain and the SRTM candidate tables
    of the graph without them.  They start as the graph's ``adjacency``
    and ``heavy_incident``; taking a member in recomputes both at its two
    ends only, in member-id order, so each list and each mean is the one a
    copy of the graph without the masked members would give.  ``changed``
    holds the nodes whose survivors in ``heavy`` are not, as a set of
    members, those of ``heavy_incident``: everywhere else the survivor
    digraph is the graph's, which ``_certified`` relies on.
    """

    def __init__(self, graph: WeightedGraph):
        self.graph = graph
        self.members: set[int] = set()
        self.incident = dict(graph.adjacency)
        self.heavy = dict(graph.heavy_incident)
        self.changed: set[int] = set()

    def add(self, member_id: int) -> None:
        self.members.add(member_id)
        graph = self.graph
        e = graph.member(member_id)
        for end in (e.a, e.b):
            kept = [(f, v) for f, v in self.incident[end] if f.id != member_id]
            self.incident[end] = kept
            self.heavy[end] = heavy = heavy_first(kept, graph.weights)
            if {f.id for f, _ in heavy} == {f.id for f, _ in graph.heavy_incident[end]}:
                self.changed.discard(end)
            else:
                self.changed.add(end)


def _plain(graph: WeightedGraph, forbidden: int, mask: MemberMask | None) -> Lists:
    """The incident lists without the forbidden and masked members: with
    ``_pruned``'s, the only place where route trees leave members out."""
    table = graph.adjacency if mask is None else mask.incident
    m = graph.member(forbidden)
    return table, {end: [(e, v) for e, v in table[end] if e.id != forbidden] for end in (m.a, m.b)}


def _pruned(graph: WeightedGraph, plain: Lists, mask: MemberMask | None) -> Lists:
    """The SRTM survivor lists (``heavy_first``) of the same graph as *plain*."""
    table = graph.heavy_incident if mask is None else mask.heavy
    return table, {end: heavy_first(kept, graph.weights) for end, kept in plain[1].items()}


def _grow(tree: RouteTree, lists: Lists) -> Iterator[list[int]]:
    """Add the tree's breadth-first tiers one at a time, yielding each new one.

    Tier 0 is every node the tree already labels: the root of a fresh tree.
    Each node of a tier takes its unlabelled candidates in list order; tier
    k+1 depends only on tiers 0..k (each expanded in ascending node id), so
    a tree grown part way is exactly the top of the full tree.
    """
    table, ends = lists
    label, parent = tree.label, tree.parent
    frontier = list(label)
    while True:
        next_frontier = []
        for u in sorted(frontier):
            depth = label[u] + 1
            for edge, v in ends[u] if u in ends else table[u]:
                if v in label:
                    continue
                label[v] = depth
                parent[v] = (u, edge.id)
                next_frontier.append(v)
        if not next_frontier:
            return
        yield next_frontier
        frontier = next_frontier


def build_srt(graph: WeightedGraph, root: int) -> RouteTree:
    """Breadth-first shortest route tree rooted at *root*, over the whole graph."""
    tree = RouteTree(root, {}, {root: 0})
    for _ in _grow(tree, (graph.adjacency, {})):
        pass
    return tree


def _reach(root: int, lists: Lists) -> set[int]:
    """The nodes reachable from *root* over *lists*."""
    table, ends = lists
    seen = {root}
    order = [root]
    for u in order:
        for _, v in ends[u] if u in ends else table[u]:
            if v not in seen:
                seen.add(v)
                order.append(v)
    return seen


def _closure(graph: WeightedGraph, node: int) -> tuple[RouteTree, RouteTree]:
    """The record of *node*'s strong component K in the graph's survivor
    digraph (u -> v over ``heavy_incident[u]``), made at the first need and
    kept in ``WeightedGraph.heavy_closures`` for every node of K.

    The first node asked for is K's representative r.  The record is two
    breadth-first trees from r: T, over the survivor lists, whose nodes are
    L, the nodes reachable from r (the closure of K); and one over the same
    members reversed inside L, whose nodes are K, so that a node's parent
    there is its next step on a path to r.
    """
    memo = graph.heavy_closures
    if node not in memo:
        heavy = graph.heavy_incident
        out = RouteTree(node, {}, {node: 0})
        for _ in _grow(out, (heavy, {})):
            pass
        into: dict[int, list] = {v: [] for v in out.label}
        for u in out.label:
            for e, v in heavy[u]:
                into[v].append((e, u))
        back = RouteTree(node, {}, {node: 0})
        for _ in _grow(back, (into, {})):
            pass
        memo.update(dict.fromkeys(back.label, (out, back)))
    return memo[node]


def _certified(
    graph: WeightedGraph, root: int, pruned: Lists, mask: MemberMask | None
) -> dict | None:
    """L0 as the closure L of *root*'s component (``_closure``), where a
    certificate shows that they are equal, else None.

    *pruned* differs from ``heavy_incident`` only at the forbidden member's
    ends and the mask's ``changed`` nodes, so three checks at those of them
    in L decide it, at the cost of their degrees and of a few tree paths,
    not a search.  (a) If their survivors all end in L, L is closed and
    holds the root, so L0 is within L.  (b) A member of T pruned at one of
    them loses its child c.  If each lost c has a neighbour y in L whose
    member to c survives at y and whose path up T meets no lost child, c
    included, r reaches every node of T.  (c) If the root's path to r in
    the reversed tree keeps each step, or breaks only at a node x one of
    whose survivors lies in K with a whole path to r, the root reaches r.
    (b) and (c) together put all of L in L0.  r may be an end itself; the
    root's path to it is then empty or checked like any other.
    """
    out, back = _closure(graph, root)
    closed, tree = out.label, out.parent
    table, ends = pruned
    heavy, weights = graph.heavy_incident, graph.weights
    kept: dict[int, set[int]] = {}
    lost: list[int] = []
    for x in ends if mask is None else ends.keys() | mask.changed:
        if x not in closed:
            continue
        survivors = ends[x] if x in ends else table[x]
        if any(v not in closed for _, v in survivors):
            return None
        kept[x] = ids = {e.id for e, _ in survivors}
        lost += [v for e, v in heavy[x] if e.id not in ids and tree.get(v) == (x, e.id)]
    if lost:
        blocked = set(lost)
        for c in lost:
            # y's survivors are its members at or above their mean, so at an
            # unchanged y the member to c survives if it weighs at least the last.
            if not any(
                y in closed
                and (e.id in kept[y] if y in kept else weights[e.id] >= weights[heavy[y][-1][0].id])
                and _clear(tree, y, blocked)
                for e, y in graph.adjacency[c]
            ):
                return None
    x = _break(back, root, kept)
    if x is not None and not any(
        w in back.label and _break(back, w, kept) is None
        for _, w in (ends[x] if x in ends else table[x])
    ):
        return None
    return closed


def _clear(parent: dict[int, tuple[int, int]], node: int, blocked: set[int]) -> bool:
    """Whether the path from *node* up the tree of *parent* meets no node of *blocked*."""
    while node not in blocked:
        if node not in parent:
            return True
        node = parent[node][0]
    return False


def _break(back: RouteTree, node: int, kept: dict[int, set[int]]) -> int | None:
    """The first node on *node*'s path to the root of *back* whose step
    there is not among its survivors *kept*, or None if the path is whole."""
    while node != back.root:
        after, eid = back.parent[node]
        if node in kept and eid not in kept[node]:
            return node
        node = after
    return None


class _Stranded:
    """The stranded nodes of the SRTMs with one L0 (*main*) and one *plain*.

    A node that the main phase strands is attached in fallback round r, its
    distance to L0 over *plain*, by its heaviest key ``(-w, id, u)`` over
    its neighbours u in round r-1 (L0 for round 1): when it is attached, all
    its labelled neighbours lie in that round.  Its parent depends on
    neither root, so the two trees of one member share it when they share
    L0, and it is found once, when first met (``found``): in round 1 by a
    look at its own list for L0, in a later round from the rounds of a
    ``_grow`` out of L0 over *plain*, made at the first need and pulled
    until it has the node.
    """

    def __init__(self, graph: WeightedGraph, root: int, main: Collection[int], plain: Lists):
        self.weights, self.root, self.main, self.plain = graph.weights, root, main, plain
        self.found: dict[int, tuple[int, int]] = {}  # stranded node -> its parent
        self.rounds: dict[int, int] = {}  # fallback round: 0 in L0, the rest as pulled
        self.fallback: Iterator[list[int]] | None = None

    def attach(self, v: int) -> tuple[int, int]:
        table, ends = self.plain
        weights, main = self.weights, self.main
        adjacent = ends[v] if v in ends else table[v]
        keys = [(-weights[e.id], e.id, u) for e, u in adjacent if u in main]
        if not keys:
            if self.fallback is None:
                self.rounds = dict.fromkeys(main, 0)
                self.fallback = _grow(RouteTree(self.root, {}, self.rounds), self.plain)
            # _grow yields only whole rounds, and v, met over *plain*, is
            # reachable from L0: the pull ends with rounds 0..rounds[v] whole.
            rounds = self.rounds
            while v not in rounds:
                next(self.fallback)
            before = rounds[v] - 1
            keys = [(-weights[e.id], e.id, u) for e, u in adjacent if rounds.get(u) == before]
        _, eid, u = min(keys)
        return u, eid


def _stranded_pair(
    graph: WeightedGraph, m: Edge, plain: Lists, pruned: Lists, mask: MemberMask | None
) -> tuple[_Stranded, _Stranded]:
    """The stranded-node state of the SRTMs from member *m*'s two ends.

    Each end's L0, the nodes it reaches over *pruned*, is the closure shared
    by its whole component wherever ``_certified`` shows that to be L0,
    masked or not, and else one search.  The two L0 are equal exactly when
    each end reaches the other, and then the two trees share L0, the
    fallback rounds and the parents found.
    """
    main_a, main_b = (
        _certified(graph, end, pruned, mask) or _reach(end, pruned) for end in (m.a, m.b)
    )
    stranded_a = _Stranded(graph, m.a, main_a, plain)
    if m.b in main_a and m.a in main_b:
        return stranded_a, stranded_a
    return stranded_a, _Stranded(graph, m.b, main_b, plain)


def _srtm_tiers(tree: RouteTree, pruned: Lists, stranded: _Stranded) -> Iterator[list[int]]:
    """Add the SRTM's tiers to *tree* one at a time, yielding each new one.

    Tier j is main tier j, pulled from a ``_grow`` over *pruned*, and the
    stranded nodes whose parent is in tier j-1; those are among the
    unlabelled neighbours of tier j-1 over *plain* that are not in L0, which
    is known before the first pull (``_stranded_pair``).  So a tree pulled
    to tier k holds exactly the top k tiers of the whole SRTM, and nothing
    below them.
    """
    main = _grow(tree, pruned)
    table, ends = stranded.plain
    in_main, found, attach = stranded.main, stranded.found, stranded.attach
    label, parent = tree.label, tree.parent
    tier = [tree.root]
    for depth in count(1):
        # A copy: the list that _grow yields is its own next frontier.
        next_tier = list(next(main, ()))
        for u in tier:
            for _, v in ends[u] if u in ends else table[u]:
                if v in label or v in in_main:
                    continue
                if v not in found:
                    found[v] = attach(v)
                if found[v][0] == u:
                    label[v] = depth
                    parent[v] = found[v]
                    next_tier.append(v)
        if not next_tier:
            return
        yield next_tier
        tier = next_tier


def min_cycle_on_member(
    graph: WeightedGraph,
    member_id: int,
    tree_kind: str = SRT,
    mask: MemberMask | None = None,
) -> CycleVector:
    """Minimal cycle on a generator member.

    Two route trees of the given kind grow from the member's two ends with
    the member itself forbidden, taking turns one tier at a time; the first
    common node closes the cycle.  Both kinds grow only as far as that
    node.  An SRTM knows its main-phase node set L0 before it grows a tier
    (``_stranded_pair``, which shares it between the two trees where it
    can), and grows its main tiers and attaches its stranded nodes only as
    deep as the search goes (``_srtm_tiers``), so the cycle is the one two
    whole trees would give.  With SRT trees the result has minimum length
    among cycles through the member; SRTM trades length for weight.  With a
    *mask*, the cycle is the one on the graph without the masked members.
    """
    if tree_kind not in (SRT, SRTM):
        raise ValueError(f"unknown tree kind '{tree_kind}'")
    m = graph.member(member_id)
    plain = _plain(graph, member_id, mask)
    tree_a, tree_b = RouteTree(m.a, {}, {m.a: 0}), RouteTree(m.b, {}, {m.b: 0})
    if tree_kind == SRT:
        tiers_a, tiers_b = _grow(tree_a, plain), _grow(tree_b, plain)
    else:
        pruned = _pruned(graph, plain, mask)
        stranded_a, stranded_b = _stranded_pair(graph, m, plain, pruned, mask)
        tiers_a = _srtm_tiers(tree_a, pruned, stranded_a)
        tiers_b = _srtm_tiers(tree_b, pruned, stranded_b)
    meet = _first_common_node(tree_a, tiers_a, tree_b, tiers_b)
    if meet is None:
        raise NoCycleThroughMember(f"no cycle through member {member_id}")
    return close_cycle(graph, member_id, tree_a.path_members(meet), tree_b.path_members(meet))


def _first_common_node(
    tree_a: RouteTree, tiers_a: Iterator[list[int]], tree_b: RouteTree, tiers_b: Iterator[list[int]]
) -> int | None:
    """Lock-step tier intersection: the two trees take turns, tree a first.

    Each iterator yields its tree's tiers below the root, in label order,
    labelling each in its tree as it goes.  On its turn a tree pulls one
    tier and looks for it in the other tree's labels; a tree with no tier
    left drops out, and the other goes on alone.  So each tree holds exactly
    the tiers examined.  If a tier meets several nodes, the lowest id wins.
    """
    turns = deque([(tiers_a, tree_b.label), (tiers_b, tree_a.label)])
    while turns:
        tiers, other = turns.popleft()
        tier = next(tiers, None)
        if tier is not None:
            common = [v for v in tier if v in other]
            if common:
                return min(common)
            turns.append((tiers, other))
    return None


@dataclass
class CycleSpace:
    """Incremental GF(2) span of cycle vectors via a reduced pivot table.

    Vectors are bitmasks over a graph's members, bit ``column[id]`` for
    member *id* (``WeightedGraph.column``); repeated independence queries
    amortize to one elimination pass each.
    """

    column: dict[int, int]
    pivots: dict[int, int] = field(default_factory=dict)  # pivot bit -> row

    def _to_bits(self, cycle: CycleVector) -> int:
        bits = 0
        for mid in cycle.members:
            bits |= 1 << self.column[mid]
        return bits

    def _reduce(self, bits: int) -> int:
        while bits:
            top = bits.bit_length() - 1
            row = self.pivots.get(top)
            if row is None:
                return bits
            bits ^= row
        return 0

    def is_independent(self, cycle: CycleVector) -> bool:
        return self._reduce(self._to_bits(cycle)) != 0

    def add(self, cycle: CycleVector) -> bool:
        """Add the cycle if independent; returns whether it was added."""
        reduced = self._reduce(self._to_bits(cycle))
        if reduced == 0:
            return False
        self.pivots[reduced.bit_length() - 1] = reduced
        return True


@dataclass
class UnionSubgraph:
    """The union of the accepted cycles' members and the node sets it connects."""

    members: set[int] = field(default_factory=set)
    components: DisjointSets = field(default_factory=DisjointSets)

    def growth(self, graph: WeightedGraph, members: frozenset[int]) -> int:
        """How much the union's first Betti number would rise with *members*.

        Each fresh member whose ends are already connected, by the union or
        by fresh members taken before it, closes one more cycle.  The
        trial links go into a throwaway overlay; the union is unchanged.
        """
        overlay = DisjointSets(self.components)
        closed = 0
        for mid in members:
            if mid not in self.members:
                e = graph.member(mid)
                closed += not overlay.union(e.a, e.b)
        return closed

    def add(self, graph: WeightedGraph, members: frozenset[int]) -> None:
        """Take *members* into the union (done only on acceptance)."""
        for mid in members:
            if mid not in self.members:
                e = graph.member(mid)
                self.components.union(e.a, e.b)
        self.members |= members


def admissible_expansion(
    graph: WeightedGraph, union: UnionSubgraph, candidate: CycleVector
) -> bool:
    """Independence control via Betti growth of the expanding union subgraph.

    True iff adding the candidate's members raises the union's first Betti
    number by exactly one.
    """
    return union.growth(graph, candidate.members) == 1
