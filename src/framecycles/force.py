"""Planar force method: the self-stress matrix B1, the unassembled flexibility
Fm, the structure flexibility G = B1' Fm B1, and the loads' particular forces r0.

Member forces are stored as three components per member, referenced at the
member's "a" end in local axes (x from a to b): axial N, shear V, and the
bending moment transmitted through the section at a.  With that reference
the member flexibility is the standard cantilever block, and the forces at
the "b" end are implied by member equilibrium.

Self-equilibrating stress systems come from cycles: cut the cycle's
generator member at its "a" end, apply the three unit bi-actions there
(axial pair, shear pair, moment pair), and carry the resulting wrench
around the closed cycle path by rigid-body transfer.  Cycles may close
through the ground node: the wrench then enters and leaves via support
reactions, which keeps every free node in equilibrium.

Fm is block diagonal, so it is kept as its (M, 3, 3) stack of member
blocks and applied block by block.  B1 is kept as its nonzero (member,
cycle) 3x3 blocks, one per member of each cycle, and is applied block by
block too; no dense 3M x 3b1 array is built.  G is the sum over members m
of B1_m' F_m B1_m, where B1_m holds member m's blocks on the cycles through
m; only cycle pairs that share a member get a block, which is the nonzero
pattern of the cycle adjacency matrix D.  So ``render`` draws this block
pattern from D and builds no G.  ``assemble_g`` factors nothing; the solve
tests G with a Cholesky factorisation and raises RankDeficientBasis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from framecycles.basis import CycleBasis
from framecycles.cycles import CycleVector, build_srt
from framecycles.model import (
    ModelError,
    Section,
    StructuralModel,
    WeightedGraph,
)


class RankDeficientBasis(ValueError):
    """G failed the positive-definiteness check: the statical basis is dependent."""


class UnsupportedModel(ValueError):
    """Numerical force method is implemented for planar frames only."""


def member_flexibility(section: Section, length: float) -> np.ndarray:
    """Cantilever flexibility block for forces referenced at the free "a" end."""
    if length <= 0:
        raise ModelError(f"member length must be positive, got {length}")
    EA = section.E * section.A
    EI = section.E * section.I
    try:
        cube = length**3
    except OverflowError:  # a Python float power raises where numpy gives inf
        cube = math.inf
    return np.array(
        [
            [length / EA, 0.0, 0.0],
            [0.0, cube / (3.0 * EI), length**2 / (2.0 * EI)],
            [0.0, length**2 / (2.0 * EI), length / EI],
        ]
    )


@dataclass(frozen=True)
class _Geometry:
    """Member geometry as arrays, one row per member in id order."""

    row: dict[int, int]  # member id -> row
    ra: np.ndarray  # (M, 2) global coords of the "a" nodes
    rb: np.ndarray
    ex: np.ndarray  # (M, 2) local x axes, a -> b
    ey: np.ndarray


def _geometry(model: StructuralModel) -> _Geometry:
    if model.ndim != 2:
        raise UnsupportedModel("numerical force method unsupported for 3D")
    members = sorted(model.members, key=lambda m: m.id)
    ra = np.array([model.node(m.a).coords for m in members], dtype=float).reshape(-1, 2)
    rb = np.array([model.node(m.b).coords for m in members], dtype=float).reshape(-1, 2)
    ex = (rb - ra) / np.linalg.norm(rb - ra, axis=1)[:, None]
    ey = np.stack((-ex[:, 1], ex[:, 0]), axis=1)
    return _Geometry({m.id: i for i, m in enumerate(members)}, ra, rb, ex, ey)


def _carry(
    geo: _Geometry,
    rows: np.ndarray,
    signs: np.ndarray,
    point: np.ndarray,
    forces: np.ndarray,
    couples: np.ndarray,
) -> np.ndarray:
    """Stored (N, V, section moment at a) of members transmitting unit wrenches.

    Step i of a path is member row ``rows[i]`` traversed with ``signs[i]``
    (+1 along its a -> b orientation); it transmits signs[i] times each
    wrench w: the force ``forces[..., w, :]`` through *point* plus the couple
    ``couples[..., w]``.  Each of the three is shared by the whole path or
    given per step.  The stored moment is the negative of the external
    moment action at a.  Returns shape (steps, 3, wrenches).
    """
    f0, f1 = forces[..., 0], forces[..., 1]
    ex, ey = geo.ex[rows], geo.ey[rows]
    d = point - geo.ra[rows]
    s = signs[:, None]
    n = s * (ex[:, :1] * f0 + ex[:, 1:] * f1)
    v = s * (ey[:, :1] * f0 + ey[:, 1:] * f1)
    m_action = s * (couples + (d[:, :1] * f1 - d[:, 1:] * f0))
    return np.stack((n, v, -m_action), axis=1)


#: Couples of the three unit bi-actions at a cycle cut: axial, shear, moment.
_CUT_COUPLES = np.array([0.0, 0.0, 1.0])
_XYZ = np.arange(3)


def _order_cycle_walk(graph: WeightedGraph, cycle: CycleVector) -> list[tuple[int, int, int]]:
    """Orient a simple cycle as (member id, from-node, to-node) steps.

    The walk starts through the generator from its "a" side.  Only simple
    cycles (every touched node of degree 2) are supported.
    """
    degree: dict[int, list[int]] = {}
    for mid in cycle.members:
        e = graph.member(mid)
        degree.setdefault(e.a, []).append(mid)
        degree.setdefault(e.b, []).append(mid)
    for node, mids in degree.items():
        if len(mids) != 2:
            raise UnsupportedModel(
                f"cycle on generator {cycle.generator} is not a simple cycle "
                f"(node {node} has degree {len(mids)})"
            )
    gen = graph.member(cycle.generator)
    walk = [(gen.id, gen.a, gen.b)]
    used = {gen.id}
    current = gen.b
    while current != gen.a:
        nxt = next(mid for mid in degree[current] if mid not in used)
        e = graph.member(nxt)
        other = e.b if e.a == current else e.a
        walk.append((nxt, current, other))
        used.add(nxt)
        current = other
    return walk


@dataclass(frozen=True)
class B1Blocks:
    """The self-stress matrix B1 as its nonzero 3x3 blocks, sorted by (member row, cycle).

    Block k fills rows 3 rows[k] .. 3 rows[k] + 2 and columns 3 cycles[k] ..
    3 cycles[k] + 2 of the 3M x 3b1 matrix: member rows[k]'s stored
    (N, V, section moment at a), one column per unit wrench of cycle
    cycles[k].  A simple cycle passes a member once, so each (member, cycle)
    pair has at most one block.
    """

    rows: np.ndarray  # (K,) member rows, ascending
    cycles: np.ndarray  # (K,) cycles, ascending within a member
    blocks: np.ndarray  # (K, 3, 3): stored component x unit wrench
    shape: tuple[int, int]

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes + self.cycles.nbytes + self.blocks.nbytes

    def matvec(self, q: np.ndarray) -> np.ndarray:
        """B1 q, block by block."""
        parts = np.einsum("kaw,kw->ka", self.blocks, q.reshape(-1, 3)[self.cycles])
        return _sum_triples(self.rows, parts, self.shape[0] // 3)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """B1' x, block by block."""
        parts = np.einsum("kaw,ka->kw", self.blocks, x.reshape(-1, 3)[self.rows])
        return _sum_triples(self.cycles, parts, self.shape[1] // 3)


def _sum_triples(index: np.ndarray, parts: np.ndarray, n: int) -> np.ndarray:
    """Length-3n vector whose triple i sums the rows of *parts* where index == i."""
    out = np.zeros((n, 3))
    np.add.at(out, index, parts)
    return out.ravel()


def build_b1(model: StructuralModel, basis: CycleBasis) -> B1Blocks:
    """Self-stress matrix: three unit bi-action columns per basis cycle, as blocks."""
    geo = _geometry(model)
    graph = basis.graph
    rows, signs, cycle_of = [], [], []
    for j, cycle in enumerate(basis.cycles):
        for mid, u, _v in _order_cycle_walk(graph, cycle):
            rows.append(geo.row[mid])
            signs.append(1.0 if u == graph.member(mid).a else -1.0)
            cycle_of.append(j)
    rows = np.array(rows, dtype=int)
    cycle_of = np.array(cycle_of, dtype=int)
    cut = np.array([geo.row[c.generator] for c in basis.cycles], dtype=int)[cycle_of]
    # Per step: the generator's axial, shear and zero force, through its "a" end.
    forces = np.stack((geo.ex[cut], geo.ey[cut], np.zeros((len(cut), 2))), axis=1)
    blocks = _carry(geo, rows, np.array(signs), geo.ra[cut], forces, _CUT_COUPLES)
    order = np.lexsort((cycle_of, rows))
    shape = (3 * len(geo.row), 3 * len(basis.cycles))
    return B1Blocks(rows[order], cycle_of[order], blocks[order], shape)


def unassembled_flexibility(model: StructuralModel) -> np.ndarray:
    """Fm as its (M, 3, 3) stack of cantilever blocks, in member-id order.

    A block that overflows, say L/EA for a subnormal EA, is a ModelError.
    """
    if model.ndim != 2:
        raise UnsupportedModel("numerical force method unsupported for 3D")
    members = sorted(model.members, key=lambda m: m.id)
    blocks = [member_flexibility(model.member_section(m), model.member_length(m)) for m in members]
    Fm = np.array(blocks, dtype=float).reshape(-1, 3, 3)
    finite = np.isfinite(Fm).all(axis=(1, 2))
    if not finite.all():
        m = members[int(np.argmin(finite))]
        raise ModelError(f"member {m.id}: flexibility is not finite (section '{m.section}')")
    return Fm


def _apply_flexibility(Fm: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Fm r, block by block, for a vector of stored member-force triples."""
    return np.einsum("mab,mb->ma", Fm, r.reshape(len(Fm), 3)).ravel()


def assemble_g(B1: B1Blocks, Fm: np.ndarray) -> np.ndarray:
    """G = B1' Fm B1 from member blocks, symmetrized and not factored.

    Member m adds B1_m' F_m B1_m on the cycles through it, which are its
    run of blocks in B1.  Members through the same number of cycles are
    summed as one batch.
    """
    if Fm.shape != (B1.shape[0] // 3, 3, 3):
        raise ValueError(f"Fm of shape {Fm.shape} does not match B1 of shape {B1.shape}")
    n = B1.shape[1]
    counts = np.bincount(B1.rows, minlength=len(Fm))
    starts = np.cumsum(counts) - counts
    G = np.zeros((n, n))
    flat = G.reshape(-1)
    for k in np.unique(counts[counts > 0]):
        members = np.flatnonzero(counts == k)
        runs = starts[members][:, None] + np.arange(k)
        cols = (3 * B1.cycles[runs][:, :, None] + _XYZ).reshape(len(members), 3 * k)
        Bm = B1.blocks[runs].transpose(0, 2, 1, 3).reshape(len(members), 3, 3 * k)
        # Two members of a batch can share a cycle pair: add.at sums repeats.
        targets = n * cols[:, :, None] + cols[:, None, :]
        np.add.at(flat, targets.ravel(), (Bm.transpose(0, 2, 1) @ (Fm[members] @ Bm)).ravel())
    G += G.T
    G *= 0.5
    return G


def _check_load_node(node: int, supported: set[int], free: dict[int, object]) -> None:
    """A nodal load must act on one of the *free* nodes, not on a *supported* one."""
    if node in supported:
        raise ModelError(f"load on supported node {node} is rejected")
    if node not in free:
        raise ModelError(f"load on unknown node {node}")


@dataclass
class ForceSolution:
    """Force-method solution for one load case."""

    member_order: list[int]
    q: np.ndarray  # redundants, 3 per cycle
    r: np.ndarray  # member forces, 3 per member
    compatibility_residual: float


def nodal_equilibrium_residual(
    model: StructuralModel, column: np.ndarray, loads: dict[tuple[int, int], float] | None = None
) -> float:
    """Max equilibrium violation over free nodes, relative to the column norm.

    *column* holds stored member-force triples; *loads* maps (node, dof) to
    applied magnitudes that must be balanced by the members.
    """
    geo = _geometry(model)
    supported = set(model.supports)
    residual: dict[int, np.ndarray] = {
        n.id: np.zeros(3) for n in model.nodes if n.id not in supported
    }
    stored = column.reshape(-1, 3)
    for m in model.members:
        i = geo.row[m.id]
        f_a = stored[i, 0] * geo.ex[i] + stored[i, 1] * geo.ey[i]  # action on member at a, global
        m_a = -stored[i, 2]
        f_b = -f_a
        d = geo.rb[i] - geo.ra[i]
        m_b = -m_a + float(d[0] * f_a[1] - d[1] * f_a[0])
        if m.a in residual:
            residual[m.a] += np.array([-f_a[0], -f_a[1], -m_a])
        if m.b in residual:
            residual[m.b] += np.array([-f_b[0], -f_b[1], -m_b])
    for (node, dof), value in (loads or {}).items():
        _check_load_node(node, supported, residual)
        if dof not in (0, 1, 2):
            raise ModelError(f"load on node {node}: dof must be 0, 1 or 2, got {dof!r}")
        residual[node][dof] += value
    worst = max((float(np.max(np.abs(v))) for v in residual.values()), default=0.0)
    scale = float(np.max(np.abs(column))) or 1.0
    return worst / scale


def solve_force_method(
    model: StructuralModel,
    basis: CycleBasis,
    load_case: list[tuple[int, float, float, float]],
) -> ForceSolution:
    """Solve redundants and member forces for nodal loads (node, fx, fy, mz).

    The particular forces r0 carry each load's wrench to ground through the
    members on its node's path in the ground's SRT; off-tree members carry none.
    """
    member_order = sorted(m.id for m in model.members)
    Fm = unassembled_flexibility(model)
    B1 = build_b1(model, basis)
    G = assemble_g(B1, Fm)
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise RankDeficientBasis("rank-deficient statical basis") from exc
    graph = basis.graph
    if graph.ground is None:
        raise ModelError("particular solution requires a grounded graph")
    geo = _geometry(model)
    tree = build_srt(graph, graph.ground)
    supported = {graph.ground, *model.supports}
    rows, signs, points, wrenches = [], [], [], []
    for node, fx, fy, mz in load_case:
        _check_load_node(node, supported, tree.parent)
        current = node
        for mid in tree.path_members(node):
            e = graph.member(mid)
            rows.append(geo.row[mid])
            signs.append(1.0 if current == e.a else -1.0)
            points.append(model.node(node).coords)
            wrenches.append((fx, fy, mz))
            current = e.b if current == e.a else e.a
    rows = np.array(rows, dtype=int)
    wrenches = np.array(wrenches, dtype=float).reshape(-1, 1, 3)
    points = np.array(points, dtype=float).reshape(-1, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        blocks = _carry(geo, rows, np.array(signs), points, wrenches[..., :2], wrenches[..., 2])
        # Loads on one branch of the tree share its members, whose forces add up.
        r0 = _sum_triples(rows, blocks[:, :, 0], len(member_order))
    if not np.isfinite(r0).all():
        raise ModelError("the loads overflow: their particular member forces are not finite")
    rhs = B1.rmatvec(_apply_flexibility(Fm, r0))
    q = -np.linalg.solve(G, rhs)
    r = r0 + B1.matvec(q)
    incompat = B1.rmatvec(_apply_flexibility(Fm, r))
    # Divide both by rhs's largest entry first: a norm squares them, and huge
    # finite entries would square to inf.
    unit = float(np.max(np.abs(rhs), initial=0.0)) or 1.0
    scale = float(np.linalg.norm(rhs / unit)) or 1.0
    return ForceSolution(member_order, q, r, float(np.linalg.norm(incompat / unit)) / scale)
