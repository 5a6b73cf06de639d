"""Frame structures and their weighted graph models.

A frame is a set of nodes, prismatic members with section properties, and
fully fixed supports.  For cycle-basis work the frame is contracted into a
weighted graph: all supported nodes collapse into a single ground node
(equivalent to tying the supports together with rigid fictitious links),
and every member carries a stiffness-derived weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

#: Node id of the merged ground node in contracted graphs.
GROUND = -1

SUM = "sum"
SQRT_SUM = "sqrt-sum"
WEIGHT_VARIANTS = (SUM, SQRT_SUM)


class ModelError(ValueError):
    """Raised for invalid frame models or graph construction failures."""


@dataclass(frozen=True)
class Section:
    """Prismatic cross-section: area A (m^2), inertia I (m^4), modulus E (t/m^2)."""

    A: float
    I: float
    E: float

    def __post_init__(self) -> None:
        if self.A <= 0 or self.I <= 0 or self.E <= 0:
            raise ModelError(f"section properties must be positive, got {self}")


@dataclass(frozen=True)
class FrameNode:
    id: int
    coords: tuple[float, ...]


@dataclass(frozen=True)
class FrameMember:
    id: int
    a: int
    b: int
    section: str


@dataclass(frozen=True)
class Edge:
    """A member of a weighted graph (ids survive contraction unchanged)."""

    id: int
    a: int
    b: int


@dataclass
class StructuralModel:
    """Validated frame model; immutable by convention after construction."""

    nodes: list[FrameNode]
    members: list[FrameMember]
    sections: dict[str, Section]
    supports: list[int]
    ndim: int = 2

    def __post_init__(self) -> None:
        if self.ndim not in (2, 3):
            raise ModelError(f"dimensionality must be 2 or 3, got {self.ndim}")
        seen: set[int] = set()
        for n in self.nodes:
            if n.id in seen:
                raise ModelError(f"duplicate node id {n.id}")
            seen.add(n.id)
            if len(n.coords) != self.ndim:
                raise ModelError(
                    f"node {n.id} has {len(n.coords)} coordinates, expected {self.ndim}"
                )
        node_ids = seen
        self._node_map = {n.id: n for n in self.nodes}
        member_ids: set[int] = set()
        pairs: set[frozenset[int]] = set()
        for m in self.members:
            if m.id in member_ids:
                raise ModelError(f"duplicate member id {m.id}")
            member_ids.add(m.id)
            if m.a == m.b:
                raise ModelError(f"member {m.id} connects node {m.a} to itself")
            for end in (m.a, m.b):
                if end not in node_ids:
                    raise ModelError(f"member {m.id} references missing node {end}")
            pair = frozenset((m.a, m.b))
            if pair in pairs:
                raise ModelError(f"member {m.id} duplicates an existing member (multigraph)")
            pairs.add(pair)
            if m.section not in self.sections:
                raise ModelError(f"member {m.id} references missing section '{m.section}'")
            if self.member_length(m) <= 0:
                raise ModelError(f"member {m.id} has zero length")
        if not self.supports:
            raise ModelError("model has no supports; structure is not grounded")
        for s in self.supports:
            if s not in node_ids:
                raise ModelError(f"support references missing node {s}")
        self._member_map = {m.id: m for m in self.members}

    def node(self, node_id: int) -> FrameNode:
        return self._node_map[node_id]

    def member(self, member_id: int) -> FrameMember:
        return self._member_map[member_id]

    def member_section(self, m: FrameMember) -> Section:
        return self.sections[m.section]

    def member_length(self, m: FrameMember) -> float:
        ca = self._coords(m.a)
        cb = self._coords(m.b)
        return math.dist(ca, cb)

    def _coords(self, node_id: int) -> tuple[float, ...]:
        return self._node_map[node_id].coords


@dataclass
class WeightedGraph:
    """Contracted graph of a frame: ground node, members, positive weights."""

    nodes: tuple[int, ...]
    members: tuple[Edge, ...]
    weights: dict[int, float]
    ground: int | None = None
    b0: int = field(default=0)

    def __post_init__(self) -> None:
        node_set = set(self.nodes)
        for e in self.members:
            if e.a == e.b:
                raise ModelError(f"graph member {e.id} is a self loop")
            if e.a not in node_set or e.b not in node_set:
                raise ModelError(f"graph member {e.id} references missing node")
            if self.weights.get(e.id, 0.0) <= 0:
                raise ModelError(f"graph member {e.id} must have positive weight")
        self.nodes = tuple(sorted(node_set))
        self.b0 = _component_count(self.nodes, self.members)
        # node -> its incident (edge, other-end) pairs, by member id; never mutated
        self.adjacency: dict[int, list[tuple[Edge, int]]] = {n: [] for n in self.nodes}
        for e in self.members:
            self.adjacency[e.a].append((e, e.b))
            self.adjacency[e.b].append((e, e.a))
        for n in self.nodes:
            self.adjacency[n].sort(key=lambda item: item[0].id)
        self._member_map = {e.id: e for e in self.members}

    def incident(self, node: int) -> list[tuple[Edge, int]]:
        """Members incident to *node* as (edge, other-end) pairs, by member id."""
        return self.adjacency[node]

    @cached_property
    def heavy_incident(self) -> dict[int, list[tuple[Edge, int]]]:
        """Per node, ``heavy_first`` of all its incident members."""
        return {n: heavy_first(self.adjacency[n], self.weights) for n in self.nodes}

    @cached_property
    def min_cycles(self) -> dict:
        """Memo of the minimal cycle per (member id, tree kind), filled by ``basis``.

        It lives as long as the graph, so every algorithm run on one graph
        shares each cycle; None marks a member with no cycle (a bridge).
        """
        return {}

    def member(self, member_id: int) -> Edge:
        return self._member_map[member_id]

    def weight(self, member_id: int) -> float:
        return self.weights[member_id]

    def member_ids(self) -> list[int]:
        return sorted(self._member_map)


def heavy_first(
    incident: list[tuple[Edge, int]], weights: dict[int, float]
) -> list[tuple[Edge, int]]:
    """The (edge, other-end) pairs weighing at least their mean, heaviest first.

    The mean is summed in the given order (member-id order for
    ``WeightedGraph.incident``), so it is the same float wherever it is
    recomputed from the same pairs; ties in weight go by member id.
    """
    if not incident:
        return []
    mean = sum(weights[e.id] for e, _ in incident) / len(incident)
    kept = [(e, v) for e, v in incident if weights[e.id] >= mean]
    kept.sort(key=lambda item: (-weights[item[0].id], item[0].id))
    return kept


class DisjointSets:
    """Union-find over node ids; a node never linked is a set of its own.

    Built over a *base*, it extends the base's sets without changing them:
    links made here stay here, so it serves as a throwaway overlay.
    """

    def __init__(self, base: DisjointSets | None = None):
        self._parent: dict[int, int] = {}
        self._base = base

    def find(self, x: int) -> int:
        if self._base is not None:
            x = self._base.find(x)
        parent = self._parent
        while x in parent:
            up = parent[x]
            if up in parent:
                up = parent[x] = parent[up]
            x = up
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of *a* and *b*; False if they were one set already."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self._parent[ra] = rb
        return True


def _component_count(nodes: tuple[int, ...], members: tuple[Edge, ...]) -> int:
    sets = DisjointSets()
    return len(nodes) - sum(sets.union(e.a, e.b) for e in members)


def _stiffness_terms(section: Section, length: float, variant: str) -> tuple[float, float, float]:
    """EA/L, 12EI/L^3 and 4EI/L, or their square roots for the sqrt-sum variant."""
    if length <= 0:
        raise ModelError(f"member length must be positive, got {length}")
    if variant not in WEIGHT_VARIANTS:
        raise ModelError(f"unknown weight variant '{variant}'")
    a1 = section.E * section.A / length
    a4 = 12.0 * section.E * section.I / length**3
    a3 = 4.0 * section.E * section.I / length
    if variant == SUM:
        return a1, a4, a3
    return math.sqrt(a1), math.sqrt(a4), math.sqrt(a3)


def member_weight(section: Section, length: float, variant: str = SUM) -> float:
    """Stiffness-based weight of a planar member.

    The weight is twice the sum of the translational and rotational diagonal
    stiffness terms EA/L, 12EI/L^3 and 4EI/L; the sqrt-sum variant uses their
    square roots instead.
    """
    a1, a4, a3 = _stiffness_terms(section, length, variant)
    return 2.0 * (a1 + a4 + a3)


def member_weight_3d(section: Section, length: float, variant: str = SUM) -> float:
    """Weight of a space-frame member: planar bending terms counted per plane.

    The planar formula is applied with the bending terms doubled (one set per
    bending plane, same I for both).  Space frames get combinatorial treatment
    only, so this is used for cycle generation, not numerics.
    """
    a1, a4, a3 = _stiffness_terms(section, length, variant)
    return 2.0 * (a1 + 2.0 * a4 + 2.0 * a3)


def build_graph(model: StructuralModel, variant: str = SUM) -> WeightedGraph:
    """Contract a frame into its weighted graph model.

    All supported nodes are merged into the single ground node; every member
    becomes a graph member with a stiffness weight.  Raises if the contracted
    graph is not connected (an unsupported part cannot reach the ground).
    """
    supported = set(model.supports)

    def contract(node_id: int) -> int:
        return GROUND if node_id in supported else node_id

    nodes = {GROUND}
    nodes.update(n.id for n in model.nodes if n.id not in supported)
    edges = []
    weights: dict[int, float] = {}
    weigh = member_weight if model.ndim == 2 else member_weight_3d
    for m in model.members:
        a, b = contract(m.a), contract(m.b)
        if a == b:
            raise ModelError(
                f"member {m.id} connects two supported nodes; contracted graph "
                "would not be simple"
            )
        edges.append(Edge(m.id, a, b))
        weights[m.id] = weigh(model.member_section(m), model.member_length(m), variant)
    graph = WeightedGraph(tuple(sorted(nodes)), tuple(edges), weights, ground=GROUND)
    if graph.b0 != 1:
        raise ModelError("disconnected structure: some nodes cannot reach the ground")
    return graph


@dataclass(frozen=True)
class AdmissibilityPartition:
    """Split of the member set into F-admissible (heavy) and inadmissible (NA)."""

    admissible: frozenset[int]
    inadmissible: frozenset[int]
    alpha: int
    mean_weight: float


def classify_members(graph: WeightedGraph, alpha: int = 2) -> AdmissibilityPartition:
    """Partition members by weight against the (1/alpha)-scaled mean weight.

    A member is F-admissible when its weight is at least mean/alpha; the rest
    form the NA set that the basis algorithms keep out of cycle overlaps.
    """
    if not graph.members:
        raise ModelError("graph has no members")
    if alpha < 1:
        raise ModelError(f"alpha must be a positive integer, got {alpha}")
    mean = sum(graph.weights.values()) / len(graph.members)
    threshold = mean / alpha
    admissible = frozenset(e.id for e in graph.members if graph.weight(e.id) >= threshold)
    inadmissible = frozenset(e.id for e in graph.members) - admissible
    return AdmissibilityPartition(admissible, inadmissible, alpha, mean)


def cycle_rank(graph: WeightedGraph) -> int:
    """First Betti number b1 = M - N + b0 of the graph."""
    return len(graph.members) - len(graph.nodes) + graph.b0
