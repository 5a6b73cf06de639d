"""The five cycle-basis algorithms, the greedy selector, and basis matrices.

Each algorithm grows one candidate cycle per graph member (SRT for the
sparsity-oriented variants, SRTM for the conditioning-oriented ones), sorts
the candidates, and greedily keeps independent cycles until the basis holds
b1 of them.  A member's cycle on the whole graph is built once per graph
and shared by every algorithm with its tree kind; so is the list of
spanning-tree fundamental cycles that the baseline and the top-ups read.
Algorithm 5 additionally processes inadmissible (NA) members first, each
with the earlier ones masked, so low-weight members stay out of cycle
overlaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import or_

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
    close_cycle,
    min_cycle_on_member,
)
from framecycles.model import WeightedGraph, cycle_rank

WEIGHT_DESCENDING = "weight-descending"
LENGTH_ASCENDING = "length-ascending"


@dataclass(frozen=True)
class AlgorithmSpec:
    """One of the five generation strategies (tree kind, ordering, NA handling)."""

    id: int
    tree_kind: str
    ordering: str
    na_avoidance: bool = False

    @staticmethod
    def for_id(algorithm_id: int, ordering_override: str | None = None) -> "AlgorithmSpec":
        table = {
            1: (SRT, WEIGHT_DESCENDING, False),
            2: (SRTM, WEIGHT_DESCENDING, False),
            3: (SRT, LENGTH_ASCENDING, False),
            4: (SRTM, LENGTH_ASCENDING, False),
            5: (SRTM, WEIGHT_DESCENDING, True),
        }
        if algorithm_id not in table:
            raise ValueError(f"unknown algorithm id {algorithm_id}")
        kind, ordering, na = table[algorithm_id]
        if ordering_override is not None:
            if algorithm_id != 5:
                raise ValueError("ordering is configurable for algorithm 5 only")
            if ordering_override not in (WEIGHT_DESCENDING, LENGTH_ASCENDING):
                raise ValueError(f"unknown ordering '{ordering_override}'")
            ordering = ordering_override
        return AlgorithmSpec(algorithm_id, kind, ordering, na)


@dataclass
class CycleBasis:
    """b1 independent cycles of a graph, in greedy selection order."""

    cycles: list[CycleVector]
    graph: WeightedGraph
    algorithm: AlgorithmSpec | None = None
    #: (generator, elimination verdict, Betti-growth verdict) per candidate.
    control_log: list[tuple[int, bool, bool]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.cycles)

    def total_length(self) -> int:
        return sum(c.length for c in self.cycles)

    def overlap_members(self) -> set[int]:
        """Members shared by at least two basis cycles."""
        seen: set[int] = set()
        shared: set[int] = set()
        for c in self.cycles:
            shared.update(c.members & seen)
            seen.update(c.members)
        return shared


def _sort_key(ordering: str):
    if ordering == WEIGHT_DESCENDING:
        return lambda c: (-c.weight, c.generator)
    if ordering == LENGTH_ASCENDING:
        return lambda c: (c.length, c.generator)
    raise ValueError(f"unknown ordering '{ordering}'")


def _greedy_select(
    graph: WeightedGraph, candidates: list[CycleVector]
) -> tuple[list[CycleVector], list[tuple[int, bool, bool]]]:
    """Greedy independent selection.

    Gaussian elimination over GF(2) decides acceptance.  The Betti-growth
    check on the union subgraph runs alongside as a cross-check and its
    verdicts are logged.  The two disagree in two cases, so agreement is
    observed, not assumed: a candidate whose fresh members close more than
    one cycle of the union at once is independent but grows b1 by more
    than one; and once such a candidate is accepted, the union's cycle
    space is larger than the span of the selected cycles, so a later
    candidate can lie inside the union (no growth) and still be
    independent.
    """
    target = cycle_rank(graph)
    space = CycleSpace(graph.column)
    union = UnionSubgraph()
    selected: list[CycleVector] = []
    log: list[tuple[int, bool, bool]] = []
    for cand in candidates:
        independent = space.add(cand)
        admissible = admissible_expansion(graph, union, cand)
        log.append((cand.generator, independent, admissible))
        if not independent:
            continue
        union.add(graph, cand.members)
        selected.append(cand)
        if len(selected) == target:
            break
    if len(selected) != target:
        # One minimal cycle per member need not span the cycle space (a
        # member can share its minimal cycle with another member).  Top up
        # deterministically from spanning-tree fundamental cycles.
        for cand in _fundamental_cycles(graph):
            if len(selected) == target:
                break
            if space.add(cand):
                selected.append(cand)
    if len(selected) != target:
        raise RuntimeError("cycle space not spanned")
    return selected, log


def _fundamental_cycles(graph: WeightedGraph) -> list[CycleVector]:
    """Fundamental cycles of an SRT spanning tree, one per chord.

    Built once per graph (``WeightedGraph.fundamental_cycles``); callers
    read the list and do not change it.
    """
    if graph.fundamental_cycles is None:
        root = graph.ground if graph.ground is not None else min(graph.nodes)
        tree = build_srt(graph, root)
        tree_members = {via for _, via in tree.parent.values()}
        graph.fundamental_cycles = [
            close_cycle(graph, e.id, tree.path_members(e.a), tree.path_members(e.b))
            for e in graph.members
            if e.id not in tree_members
        ]
    return graph.fundamental_cycles


def _min_cycle(graph: WeightedGraph, member_id: int, tree_kind: str) -> CycleVector | None:
    """The member's minimal cycle on the whole graph, or None for a bridge.

    Built once per graph (``WeightedGraph.min_cycles``), through this
    module's ``min_cycle_on_member``, so a wrapper put there sees every
    real build.
    """
    memo = graph.min_cycles
    key = (member_id, tree_kind)
    if key not in memo:
        try:
            memo[key] = min_cycle_on_member(graph, member_id, tree_kind)
        except NoCycleThroughMember:
            memo[key] = None
    return memo[key]


def generate_basis(
    graph: WeightedGraph,
    spec: AlgorithmSpec,
    inadmissible: frozenset[int] | None = None,
) -> CycleBasis:
    """Run one of the five algorithms on a connected weighted graph; algorithm
    5 needs its *inadmissible* (NA) members, as ``classify_members`` gives them."""
    if graph.b0 != 1:
        raise ValueError("basis generation requires a connected graph")
    if spec.na_avoidance and inadmissible is None:
        raise ValueError(f"algorithm {spec.id} requires an admissibility partition")

    candidates: list[CycleVector | None] = []
    if spec.na_avoidance:
        na_order = sorted(inadmissible, key=lambda m: (graph.weight(m), m))
        mask = MemberMask(graph)
        for mid in na_order:
            # Keep earlier NA generators out of this cycle where a cycle
            # still exists without them; otherwise drop the mask.
            cycle = None
            if mask.members:
                try:
                    cycle = min_cycle_on_member(graph, mid, spec.tree_kind, mask)
                except NoCycleThroughMember:
                    pass
            if cycle is None:
                cycle = _min_cycle(graph, mid, spec.tree_kind)
            candidates.append(cycle)
            mask.add(mid)
        remaining = [m for m in graph.member_ids() if m not in inadmissible]
    else:
        remaining = graph.member_ids()
    candidates += [_min_cycle(graph, mid, spec.tree_kind) for mid in remaining]

    # A bridge member has no cycle and gives no candidate.
    candidates = [c for c in candidates if c is not None]
    candidates.sort(key=_sort_key(spec.ordering))
    selected, log = _greedy_select(graph, candidates)
    return CycleBasis(selected, graph, spec, log)


def baseline_tree_basis(graph: WeightedGraph) -> CycleBasis:
    """Fundamental cycles of an SRT spanning tree, one per chord.

    The classic spanning-tree construction; cycles tend to be long, which is
    exactly what the generation algorithms are measured against.
    """
    if graph.b0 != 1:
        raise ValueError("baseline basis requires a connected graph")
    cycles = list(_fundamental_cycles(graph))
    if len(cycles) != cycle_rank(graph):
        raise RuntimeError("cycle space not spanned")
    return CycleBasis(cycles, graph, None)


@dataclass
class IncidenceMatrix:
    """Cycle-member incidence C over GF(2), kept by rows: ``columns[i]``
    holds the column indices (into ``member_ids``, the graph's ``column``
    numbering) of cycle i's members.  Row order follows the basis."""

    columns: tuple[tuple[int, ...], ...]
    member_ids: tuple[int, ...]


@dataclass
class AdjacencyMatrix:
    """The nonzero pattern of D = C C^t, with per-row intersection coefficients sigma.

    ``rows[i]`` is cycle i's neighbour set as a bit mask: bit k is set where
    cycles i and k share a member, so bit i is always set.
    """

    rows: tuple[int, ...]
    sigma: tuple[int, ...]
    chi: int

    def pattern(self):
        """D != 0 as a (b1, b1) numpy bool array."""
        import numpy as np

        n = len(self.rows)
        width = (n + 7) // 8
        packed = b"".join(row.to_bytes(width, "little") for row in self.rows)
        bits = np.frombuffer(packed, dtype=np.uint8).reshape(n, width)
        return np.unpackbits(bits, axis=1, count=n, bitorder="little").view(bool)


def incidence_matrix(basis: CycleBasis) -> IncidenceMatrix:
    column = basis.graph.column
    columns = tuple(tuple(map(column.__getitem__, c.members)) for c in basis.cycles)
    return IncidenceMatrix(columns, tuple(column))


def adjacency_matrix(incidence: IncidenceMatrix) -> AdjacencyMatrix:
    """D's pattern as neighbour bit sets, with chi(D) = b1 + 2 sum(sigma) checked.

    Each column of C becomes the bit set of the cycles through its member,
    and a cycle's neighbours are the union of its members' sets: D_ik is
    nonzero exactly where cycles i and k share a member.  No product is
    formed; the work is one union per (cycle, member) pair, twice.
    """
    through = [0] * len(incidence.member_ids)
    for i, columns in enumerate(incidence.columns):
        bit = 1 << i
        for j in columns:
            through[j] |= bit
    rows = tuple(reduce(or_, map(through.__getitem__, columns), 0) for columns in incidence.columns)
    sigma = tuple((row >> (i + 1)).bit_count() for i, row in enumerate(rows))
    chi = sum(row.bit_count() for row in rows)
    if chi != len(sigma) + 2 * sum(sigma):
        raise RuntimeError("cycle adjacency identity violated")
    return AdjacencyMatrix(rows, sigma, chi)
