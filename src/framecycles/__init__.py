"""Cycle-basis generation and flexibility-matrix conditioning for skeletal frames."""

from framecycles.model import (
    GROUND,
    ModelError,
    Section,
    StructuralModel,
    WeightedGraph,
    build_graph,
    classify_members,
    cycle_rank,
    member_weight,
)
from framecycles.cycles import (
    CycleVector,
    NoCycleThroughMember,
    RouteTree,
    build_srt,
    min_cycle_on_member,
)
from framecycles.basis import (
    AlgorithmSpec,
    CycleBasis,
    adjacency_matrix,
    baseline_tree_basis,
    generate_basis,
    incidence_matrix,
)

__all__ = [
    "GROUND",
    "AlgorithmSpec",
    "CycleBasis",
    "CycleVector",
    "ModelError",
    "NoCycleThroughMember",
    "RouteTree",
    "Section",
    "StructuralModel",
    "WeightedGraph",
    "adjacency_matrix",
    "baseline_tree_basis",
    "build_graph",
    "build_srt",
    "classify_members",
    "cycle_rank",
    "generate_basis",
    "incidence_matrix",
    "member_weight",
    "min_cycle_on_member",
]
