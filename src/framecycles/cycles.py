"""Shortest route trees, minimal cycles on members, and GF(2) independence.

Both route trees grow by one breadth-first tier loop over per-node
candidate lists: the plain SRT over all incident members, which yields
minimum-length cycles, and the weight-pruned SRTM over the members at
least as heavy as their node's average, plus a pass that attaches nodes
stranded by pruning.  Forbidden and masked members are left out of the
lists, nowhere else.  All tie-breaking is by ascending member id then
ascending node id, so every result is deterministic.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from framecycles.model import DisjointSets, WeightedGraph, heavy_first

SRT = "SRT"
SRTM = "SRTM"


class NoCycleThroughMember(ValueError):
    """The member is a bridge: no cycle passes through it."""


@dataclass
class RouteTree:
    """Spanning tree of the reachable component with breadth-first tier labels.

    An SRT grown lazily for ``min_cycle_on_member`` holds only the tiers
    that the lock-step search reached.
    """

    root: int
    kind: str
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
    copy of the graph without the masked members would give.
    """

    def __init__(self, graph: WeightedGraph):
        self.graph = graph
        self.members: set[int] = set()
        self.incident = dict(graph.adjacency)
        self.heavy = dict(graph.heavy_incident)

    def add(self, member_id: int) -> None:
        self.members.add(member_id)
        e = self.graph.member(member_id)
        for end in (e.a, e.b):
            kept = [(f, v) for f, v in self.incident[end] if f.id != member_id]
            self.incident[end] = kept
            self.heavy[end] = heavy_first(kept, self.graph.weights)


def _plain(graph: WeightedGraph, forbidden: int | None, mask: MemberMask | None) -> Lists:
    """The incident lists without the forbidden and masked members: with
    ``_pruned``'s, the only place where route trees leave members out."""
    table = graph.adjacency if mask is None else mask.incident
    if forbidden is None:
        return table, {}
    m = graph.member(forbidden)
    ends = {end: [(e, v) for e, v in table[end] if e.id != forbidden] for end in (m.a, m.b)}
    return table, ends


def _pruned(graph: WeightedGraph, plain: Lists, mask: MemberMask | None) -> Lists:
    """The SRTM survivor lists (``heavy_first``) of the same graph as *plain*."""
    table = graph.heavy_incident if mask is None else mask.heavy
    return table, {end: heavy_first(kept, graph.weights) for end, kept in plain[1].items()}


def _grow(tree: RouteTree, lists: Lists) -> Iterator[list[int]]:
    """Add the tree's breadth-first tiers one at a time, yielding each new one.

    Each node of a tier takes its unlabelled candidates in list order; tier
    k+1 depends only on tiers 0..k (each expanded in ascending node id), so
    a tree grown part way is exactly the top of the full tree.
    """
    table, ends = lists
    label, parent = tree.label, tree.parent
    frontier = [tree.root]
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


def build_srt(
    graph: WeightedGraph,
    root: int,
    forbidden: int | None = None,
    mask: MemberMask | None = None,
) -> RouteTree:
    """Breadth-first shortest route tree rooted at *root*.

    The forbidden member and the masked ones, if any, never enter the tree;
    nodes unreachable without them are simply absent.
    """
    tree = RouteTree(root, SRT, {}, {root: 0})
    for _ in _grow(tree, _plain(graph, forbidden, mask)):
        pass
    return tree


def build_srtm(
    graph: WeightedGraph,
    root: int,
    forbidden: int | None = None,
    mask: MemberMask | None = None,
) -> RouteTree:
    """Weight-pruned route tree: SRTM.

    Tier expansion as in the SRT, except that at each expanded node the
    incident members weighing strictly less than the average weight of that
    node's incident members are pruned from tree candidacy, and surviving
    candidates are taken in descending weight order.  A final pass attaches
    any node stranded by pruning through its maximum-weight available member
    so the tree still spans the reachable component.  The forbidden member
    and the masked ones never enter the tree or any average.
    """
    plain = _plain(graph, forbidden, mask)
    return _srtm(graph, root, plain, _pruned(graph, plain, mask))


def _srtm(graph: WeightedGraph, root: int, plain: Lists, pruned: Lists) -> RouteTree:
    """The tier loop run to the end over *pruned*, then the fallback over *plain*."""
    tree = RouteTree(root, SRTM, {}, {root: 0})
    for _ in _grow(tree, pruned):
        pass
    # Fallback: pruning can strand nodes that are reachable in the graph.
    # Only a node attached in the previous round can have an unlabelled
    # neighbour, so each round scans just those.
    table, ends = plain
    label, parent = tree.label, tree.parent
    scan = list(label)
    while scan:
        attachable: dict[int, tuple[float, int, int]] = {}
        for u in scan:
            for e, v in ends[u] if u in ends else table[u]:
                if v in label:
                    continue
                key = (-graph.weight(e.id), e.id, u)
                if v not in attachable or key < attachable[v]:
                    attachable[v] = key
        scan = sorted(attachable)
        for v in scan:
            _, eid, u = attachable[v]
            label[v] = label[u] + 1
            parent[v] = (u, eid)
    return tree


def _tiers(tree: RouteTree) -> Iterator[list[int]]:
    """A complete tree's tiers below the root, in label order."""
    tiers: list[list[int]] = [[] for _ in range(max(tree.label.values()) + 1)]
    for node, tier in tree.label.items():
        tiers[tier].append(node)
    return iter(tiers[1:])


def min_cycle_on_member(
    graph: WeightedGraph,
    member_id: int,
    tree_kind: str = SRT,
    mask: MemberMask | None = None,
) -> CycleVector:
    """Minimal cycle on a generator member.

    Two route trees of the given kind grow from the member's two ends with
    the member itself forbidden, expanding in lock-step tiers; the first
    common node closes the cycle.  SRT trees grow only as far as that node;
    SRTM trees are built whole, as the fallback can attach nodes below the
    tier at which they meet.  With SRT trees the result has minimum length
    among cycles through the member; SRTM trades length for weight.  With a
    *mask*, the cycle is the one on the graph without the masked members.
    """
    if tree_kind not in (SRT, SRTM):
        raise ValueError(f"unknown tree kind '{tree_kind}'")
    m = graph.member(member_id)
    plain = _plain(graph, member_id, mask)
    if tree_kind == SRT:
        tree_a, tree_b = RouteTree(m.a, SRT, {}, {m.a: 0}), RouteTree(m.b, SRT, {}, {m.b: 0})
        tiers_a, tiers_b = _grow(tree_a, plain), _grow(tree_b, plain)
    else:
        pruned = _pruned(graph, plain, mask)
        tree_a, tree_b = (_srtm(graph, end, plain, pruned) for end in (m.a, m.b))
        tiers_a, tiers_b = _tiers(tree_a), _tiers(tree_b)
    meet = _first_common_node(tree_a.root, tiers_a, tree_b.root, tiers_b)
    if meet is None:
        raise NoCycleThroughMember(f"no cycle through member {member_id}")
    return close_cycle(graph, member_id, tree_a.path_members(meet), tree_b.path_members(meet))


def _first_common_node(
    root_a: int, tiers_a: Iterator[list[int]], root_b: int, tiers_b: Iterator[list[int]]
) -> int | None:
    """Lock-step tier intersection: alternate expanding each tree one tier.

    Each iterator yields its tree's tiers below the root, in label order.
    The tree at the lower tier expands next (tree a on a tie) while it has a
    tier left, so each side's next tier is fetched one step ahead.  If
    several common nodes appear at the same step, the lowest node id wins.
    """
    seen_a, seen_b = {root_a}, {root_b}
    next_a, next_b = next(tiers_a, None), next(tiers_b, None)
    depth_a = depth_b = 0
    while next_a or next_b:
        if next_a and (depth_a <= depth_b or not next_b):
            depth_a += 1
            seen_a.update(next_a)
            common = seen_b.intersection(next_a)
            next_a = None if common else next(tiers_a, None)
        else:
            depth_b += 1
            seen_b.update(next_b)
            common = seen_a.intersection(next_b)
            next_b = None if common else next(tiers_b, None)
        if common:
            return min(common)
    return None


@dataclass
class CycleSpace:
    """Incremental GF(2) span of cycle vectors via a reduced pivot table.

    Vectors are bitmasks over a fixed member-id universe; repeated
    independence queries amortize to one elimination pass each.
    """

    member_index: dict[int, int]
    pivots: dict[int, int] = field(default_factory=dict)  # pivot bit -> row

    @staticmethod
    def over(graph: WeightedGraph) -> "CycleSpace":
        index = {mid: i for i, mid in enumerate(graph.member_ids())}
        return CycleSpace(index)

    def _to_bits(self, cycle: CycleVector) -> int:
        bits = 0
        for mid in cycle.members:
            bits |= 1 << self.member_index[mid]
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
