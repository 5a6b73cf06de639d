"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written with different algorithms than the
code under test: path enumeration instead of route trees, dense bitmask
elimination instead of the incremental pivot table, characteristic-polynomial
root finding instead of eigvalsh, and a displacement (stiffness) solver
instead of the force method.  The exceptions are the library's own earlier
constructions, kept as references for the faster ones that replaced them:
the eager cycle construction (two complete route trees and a lock-step
search that rescans every label per tier), algorithm 5's masked graph copy
(a new graph without the masked members), the dense force-method products
(a 3M x 3M block-diagonal Fm, B1 scattered from its blocks and
G = B1' Fm B1), the per-member, per-wrench B1 builder, the explicitly scaled copies of G behind PN and PDET
and the block-by-block sparsity raster.

Two test fixtures that are not part of the method live here too: the
chopped-arithmetic Gaussian elimination with its ill-conditioned 3x3 demo
system (the small-pivot illustration of acceptance criterion 9), and
``write_load_case``, which writes the load files the package only reads.
"""

from __future__ import annotations

import json
import math
import random
from collections import defaultdict, deque

import numpy as np

from framecycles.frames import FORMAT_VERSION
from framecycles.model import Edge, WeightedGraph


# --- graphs ----------------------------------------------------------------


def random_connected_graph(rng: random.Random, max_members: int) -> WeightedGraph:
    """Random connected simple graph with at most max_members members."""
    n = rng.randint(3, max(3, max_members // 2))
    nodes = list(range(1, n + 1))
    edges = []
    pairs = set()
    order = nodes[:]
    rng.shuffle(order)
    for i in range(1, n):  # random spanning tree first
        a = order[i]
        b = order[rng.randrange(i)]
        edges.append((a, b))
        pairs.add(frozenset((a, b)))
    extra = rng.randint(0, max(0, max_members - len(edges)))
    attempts = 0
    while extra > 0 and attempts < 200:
        attempts += 1
        a, b = rng.sample(nodes, 2)
        if frozenset((a, b)) in pairs:
            continue
        edges.append((a, b))
        pairs.add(frozenset((a, b)))
        extra -= 1
    members = tuple(Edge(i + 1, a, b) for i, (a, b) in enumerate(edges))
    weights = {e.id: rng.uniform(0.5, 100.0) for e in members}
    return WeightedGraph(tuple(nodes), members, weights)


def masked_graph(graph: WeightedGraph, masked, keep: int) -> WeightedGraph:
    """A new graph without the *masked* members, except *keep*."""
    members = tuple(e for e in graph.members if e.id == keep or e.id not in masked)
    weights = {e.id: graph.weights[e.id] for e in members}
    return WeightedGraph(graph.nodes, members, weights, ground=graph.ground)


def _bfs_parents(graph: WeightedGraph, root: int) -> dict[int, tuple[int, int]]:
    parent: dict[int, tuple[int, int]] = {root: (root, 0)}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for edge, v in graph.adjacency[u]:
            if v not in parent:
                parent[v] = (u, edge.id)
                queue.append(v)
    return parent


def horton_minimum_cycle_basis(graph: WeightedGraph) -> list[frozenset[int]]:
    """A minimum-length cycle basis, by Horton's construction (1987).

    For every node v and member (x, y) the candidate is P(v, x) + (x, y) +
    P(y, v), with the paths taken from one breadth-first tree per v; the
    candidates, shortest first, are kept greedily while independent over
    GF(2).  Horton showed that these candidates hold a minimum basis.
    """
    candidates = set()
    for v in graph.nodes:
        parent = _bfs_parents(graph, v)

        def path(node):
            members: set[int] = set()
            while node != v:
                node, via = parent[node]
                members.add(via)
            return members

        for e in graph.members:
            cycle = frozenset({e.id} ^ path(e.a) ^ path(e.b))
            if cycle:  # empty for a member of the tree
                candidates.add(cycle)
    index = {mid: i for i, mid in enumerate(graph.member_ids())}
    rows: dict[int, int] = {}  # leading bit -> reduced row
    basis = []
    for cycle in sorted(candidates, key=lambda c: (len(c), sorted(c))):
        bits = sum(1 << index[mid] for mid in cycle)
        while bits and bits.bit_length() - 1 in rows:
            bits ^= rows[bits.bit_length() - 1]
        if bits:
            rows[bits.bit_length() - 1] = bits
            basis.append(cycle)
    return basis


def shortest_cycle_length_through(graph: WeightedGraph, member_id: int) -> int | None:
    """Length of the shortest cycle through a member, by BFS in graph - member.

    Returns None when the member is a bridge.
    """
    m = graph.member(member_id)
    dist = {m.a: 0}
    queue = deque([m.a])
    while queue:
        u = queue.popleft()
        for edge, v in graph.adjacency[u]:
            if edge.id == member_id or v in dist:
                continue
            dist[v] = dist[u] + 1
            queue.append(v)
    if m.b not in dist:
        return None
    return dist[m.b] + 1


def _reference_srt(graph: WeightedGraph, root: int, forbidden: int):
    """Complete breadth-first route tree: (label, parent) dicts."""
    label = {root: 0}
    parent: dict[int, tuple[int, int]] = {}
    frontier = [root]
    while frontier:
        next_frontier = []
        for u in sorted(frontier):
            for edge, v in graph.adjacency[u]:
                if edge.id == forbidden or v in label:
                    continue
                label[v] = label[u] + 1
                parent[v] = (u, edge.id)
                next_frontier.append(v)
        frontier = next_frontier
    return label, parent


def _reference_srtm(graph: WeightedGraph, root: int, forbidden: int):
    """Complete weight-pruned route tree, averages recomputed at every node."""
    label, parent = _reference_srtm_main(graph, root, forbidden)
    while True:  # attach stranded nodes, rescanning the whole tree each round
        attachable: dict[int, tuple[float, int, int]] = {}
        for u in label:
            for e, v in graph.adjacency[u]:
                if e.id == forbidden or v in label:
                    continue
                key = (-graph.weight(e.id), e.id, u)
                if v not in attachable or key < attachable[v]:
                    attachable[v] = key
        if not attachable:
            break
        for v in sorted(attachable):
            _, eid, u = attachable[v]
            label[v] = label[u] + 1
            parent[v] = (u, eid)
    return label, parent


def _reference_srtm_main(graph: WeightedGraph, root: int, forbidden: int):
    """The weight-pruned tree's main phase, before any stranded node is attached."""
    label = {root: 0}
    parent: dict[int, tuple[int, int]] = {}
    frontier = [root]
    while frontier:
        next_frontier = []
        for u in sorted(frontier):
            incident = [(e, v) for e, v in graph.adjacency[u] if e.id != forbidden]
            if not incident:
                continue
            avg = sum(graph.weight(e.id) for e, _ in incident) / len(incident)
            survivors = [
                (e, v) for e, v in incident if graph.weight(e.id) >= avg and v not in label
            ]
            survivors.sort(key=lambda item: (-graph.weight(item[0].id), item[0].id))
            for e, v in survivors:
                if v in label:
                    continue
                label[v] = label[u] + 1
                parent[v] = (u, e.id)
                next_frontier.append(v)
        frontier = next_frontier
    return label, parent


def _path_members(parent, root: int, node: int) -> list[int]:
    path = []
    while node != root:
        node, via = parent[node]
        path.append(via)
    return path


def reference_min_cycle(graph: WeightedGraph, member_id: int, tree_kind: str):
    """(member set, weight) of the minimal cycle on a member, or None for a bridge.

    Both trees are built in full; the lock-step search then rescans every
    label for each tier.  The member set and the weight are built exactly
    as the library builds them, so even the weight's last bit must agree.
    """
    build = {"SRT": _reference_srt, "SRTM": _reference_srtm}[tree_kind]
    m = graph.member(member_id)
    label_a, parent_a = build(graph, m.a, member_id)
    label_b, parent_b = build(graph, m.b, member_id)
    max_a, max_b = max(label_a.values()), max(label_b.values())
    tier_a = tier_b = 0
    seen_a, seen_b = {m.a}, {m.b}
    while not seen_a & seen_b:
        can_a, can_b = tier_a < max_a, tier_b < max_b
        if not can_a and not can_b:
            return None
        if can_a and (tier_a <= tier_b or not can_b):
            tier_a += 1
            seen_a.update(n for n, lbl in label_a.items() if lbl == tier_a)
        else:
            tier_b += 1
            seen_b.update(n for n, lbl in label_b.items() if lbl == tier_b)
    meet = min(seen_a & seen_b)
    members: set[int] = {member_id}
    members ^= set(_path_members(parent_a, m.a, meet))
    members ^= set(_path_members(parent_b, m.b, meet))
    members = frozenset(members)
    return members, sum(graph.weight(mid) for mid in members)


def gf2_rank(member_sets, universe) -> int:
    """Rank of cycle vectors over GF(2), by plain dense elimination."""
    index = {mid: i for i, mid in enumerate(sorted(universe))}
    rows = []
    for members in member_sets:
        bits = 0
        for mid in members:
            bits |= 1 << index[mid]
        rows.append(bits)
    rank = 0
    for col in range(len(index) - 1, -1, -1):
        pivot = None
        for i, row in enumerate(rows):
            if row >> col & 1:
                pivot = i
                break
        if pivot is None:
            continue
        pivot_row = rows.pop(pivot)
        rows = [row ^ pivot_row if row >> col & 1 else row for row in rows]
        rank += 1
    return rank


def subgraph_b1(graph: WeightedGraph, members) -> int:
    """First Betti number of the subgraph spanned by a member set.

    b1 = members - nodes + components, with components counted by BFS.
    """
    adj: dict[int, list[int]] = defaultdict(list)
    for mid in members:
        e = graph.member(mid)
        adj[e.a].append(e.b)
        adj[e.b].append(e.a)
    components = 0
    seen: set[int] = set()
    for start in adj:
        if start in seen:
            continue
        components += 1
        seen.add(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
    return len(set(members)) - len(adj) + components


def is_simple_cycle(graph: WeightedGraph, members) -> bool:
    """True iff the member set forms one connected cycle with all degrees 2."""
    if not members:
        return False
    degree: dict[int, int] = defaultdict(int)
    adj: dict[int, list[int]] = defaultdict(list)
    for mid in members:
        e = graph.member(mid)
        degree[e.a] += 1
        degree[e.b] += 1
        adj[e.a].append(e.b)
        adj[e.b].append(e.a)
    if any(d != 2 for d in degree.values()):
        return False
    start = next(iter(adj))
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(degree)


# --- eigenvalues -----------------------------------------------------------


def charpoly_extreme_eigs(M: np.ndarray) -> tuple[float, float]:
    """Extreme eigenvalues from the characteristic polynomial.

    Coefficients come from the Faddeev-LeVerrier recursion; roots from the
    companion matrix, polished with Newton steps on the polynomial itself.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    coeffs = [1.0]
    Mk = np.eye(n)
    for k in range(1, n + 1):
        Mk = M @ Mk
        c = -np.trace(Mk) / k
        Mk += c * np.eye(n)
        coeffs.append(c)
    poly = np.array(coeffs)
    deriv = np.polyder(poly)
    roots = np.sort(np.roots(poly).real)
    polished = []
    for r in roots:
        x = r
        for _ in range(50):
            p = np.polyval(poly, x)
            dp = np.polyval(deriv, x)
            if dp == 0:
                break
            step = p / dp
            x -= step
            if abs(step) <= 1e-15 * max(abs(x), 1.0):
                break
        polished.append(x)
    return min(polished), max(polished)


def random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random SPD matrix with well-separated eigenvalues in [0.1, 10]."""
    eigs = np.sort(rng.uniform(0.1, 10.0, size=n))
    while np.min(np.diff(eigs)) < 1e-3:
        eigs = np.sort(rng.uniform(0.1, 10.0, size=n))
    A = rng.normal(size=(n, n))
    Q, _ = np.linalg.qr(A)
    return (Q * eigs) @ Q.T


def reference_determinants(G: np.ndarray) -> tuple[tuple[float, float], tuple[float, float]]:
    """PN and PDET as (determinant, log10 |determinant|), each from its own
    explicitly scaled copy of G: the row-normalized matrix and D^-1/2 G D^-1/2."""
    norms = np.linalg.norm(G, axis=1)
    s = 1.0 / np.sqrt(np.diag(G))
    out = []
    for M in (G / norms[:, None], G * np.outer(s, s)):
        sign, logdet = np.linalg.slogdet(M)
        out.append((float(sign * np.exp(logdet)), float(logdet / np.log(10.0))))
    return out[0], out[1]


# --- planar frame stiffness method ----------------------------------------


def _local_stiffness(EA: float, EI: float, L: float) -> np.ndarray:
    return np.array(
        [
            [EA / L, 0, 0, -EA / L, 0, 0],
            [0, 12 * EI / L**3, 6 * EI / L**2, 0, -12 * EI / L**3, 6 * EI / L**2],
            [0, 6 * EI / L**2, 4 * EI / L, 0, -6 * EI / L**2, 2 * EI / L],
            [-EA / L, 0, 0, EA / L, 0, 0],
            [0, -12 * EI / L**3, -6 * EI / L**2, 0, 12 * EI / L**3, -6 * EI / L**2],
            [0, 6 * EI / L**2, 2 * EI / L, 0, -6 * EI / L**2, 4 * EI / L],
        ]
    )


def _transform(model, member) -> tuple[np.ndarray, float]:
    ra = np.asarray(model.node(member.a).coords, dtype=float)
    rb = np.asarray(model.node(member.b).coords, dtype=float)
    L = float(np.linalg.norm(rb - ra))
    c, s = (rb - ra) / L
    R = np.array([[c, s, 0], [-s, c, 0], [0, 0, 1]])
    T = np.zeros((6, 6))
    T[:3, :3] = R
    T[3:, 3:] = R
    return T, L


def stiffness_member_forces(model, load_case) -> dict[int, np.ndarray]:
    """Member force triples from a displacement-method solve.

    Returns, per member id, the local a-end actions mapped to the force
    method's stored convention: axial, shear, and the section moment at the
    "a" end (the negative of the moment action there).
    """
    idx = {n.id: 3 * i for i, n in enumerate(model.nodes)}
    ndof = 3 * len(model.nodes)
    K = np.zeros((ndof, ndof))
    P = np.zeros(ndof)
    for m in model.members:
        s = model.member_section(m)
        T, L = _transform(model, m)
        k_global = T.T @ _local_stiffness(s.E * s.A, s.E * s.I, L) @ T
        dofs = list(range(idx[m.a], idx[m.a] + 3)) + list(range(idx[m.b], idx[m.b] + 3))
        K[np.ix_(dofs, dofs)] += k_global
    for node, fx, fy, mz in load_case:
        P[idx[node] : idx[node] + 3] += (fx, fy, mz)
    fixed = [d for sup in model.supports for d in range(idx[sup], idx[sup] + 3)]
    free = [d for d in range(ndof) if d not in fixed]
    u = np.zeros(ndof)
    u[free] = np.linalg.solve(K[np.ix_(free, free)], P[free])
    forces = {}
    for m in model.members:
        s = model.member_section(m)
        T, L = _transform(model, m)
        ue = np.concatenate([u[idx[m.a] : idx[m.a] + 3], u[idx[m.b] : idx[m.b] + 3]])
        f_local = _local_stiffness(s.E * s.A, s.E * s.I, L) @ (T @ ue)
        forces[m.id] = np.array([f_local[0], f_local[1], -f_local[2]])
    return forces


# --- dense force-method references ------------------------------------------


def dense_flexibility(model) -> np.ndarray:
    """Block-diagonal 3M x 3M Fm with one cantilever block per member, by id."""
    from framecycles.force import member_flexibility

    member_order = sorted(m.id for m in model.members)
    Fm = np.zeros((3 * len(member_order), 3 * len(member_order)))
    for i, mid in enumerate(member_order):
        m = model.member(mid)
        block = member_flexibility(model.member_section(m), model.member_length(m))
        Fm[3 * i : 3 * i + 3, 3 * i : 3 * i + 3] = block
    return Fm


def dense_b1(B1) -> np.ndarray:
    """The 3M x 3b1 matrix of a ``force.B1Blocks``, scattered one block at a time."""
    dense = np.zeros(B1.shape)
    for row, cycle, block in zip(B1.rows, B1.cycles, B1.blocks):
        dense[3 * row : 3 * row + 3, 3 * cycle : 3 * cycle + 3] = block
    return dense


def dense_g(B1: np.ndarray, Fm_dense: np.ndarray) -> np.ndarray:
    """G = B1' Fm B1 from full dense products."""
    return B1.T @ Fm_dense @ B1


def _cross2(a: np.ndarray, b: np.ndarray) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


def _cycle_walk(graph, cycle) -> list[tuple[int, float]]:
    """(member id, sign) around a simple cycle, from its generator's "a" end.

    The sign is +1 where the walk runs a member from its "a" to its "b" end.
    At each node the walk takes the lowest-id unused member of the set there.
    """
    ends = {mid: (graph.member(mid).a, graph.member(mid).b) for mid in cycle.members}
    start, node = ends[cycle.generator]
    steps = [(cycle.generator, 1.0)]
    unused = set(cycle.members) - {cycle.generator}
    while unused:
        mid = min(m for m in unused if node in ends[m])
        a, b = ends[mid]
        steps.append((mid, 1.0 if node == a else -1.0))
        node = b if node == a else a
        unused.remove(mid)
    if node != start:
        raise ValueError(f"cycle on generator {cycle.generator} does not close")
    return steps


def reference_b1(model, basis) -> np.ndarray:
    """B1 built one member and one unit wrench at a time.

    Each cycle is cut at its generator's "a" end; the three unit wrenches
    there (axial, shear, moment) are carried around the oriented cycle walk
    and resolved into every member's stored (N, V, section moment at a).
    """
    member_order = sorted(m.id for m in model.members)
    rows = {mid: 3 * i for i, mid in enumerate(member_order)}
    geo = {}
    for m in model.members:
        ra = np.asarray(model.node(m.a).coords, dtype=float)
        rb = np.asarray(model.node(m.b).coords, dtype=float)
        ex = (rb - ra) / float(np.linalg.norm(rb - ra))
        geo[m.id] = (ra, ex, np.array([-ex[1], ex[0]]))
    B1 = np.zeros((3 * len(member_order), 3 * len(basis.cycles)))
    for j, cycle in enumerate(basis.cycles):
        cut, gen_ex, gen_ey = geo[cycle.generator]
        wrenches = ((gen_ex, 0.0), (gen_ey, 0.0), (np.zeros(2), 1.0))
        for k, (f, couple) in enumerate(wrenches):
            for mid, sign in _cycle_walk(basis.graph, cycle):
                ra, ex, ey = geo[mid]
                m_action = sign * (couple + _cross2(cut - ra, f))
                B1[rows[mid] : rows[mid] + 3, 3 * j + k] = (
                    sign * float(f @ ex),
                    sign * float(f @ ey),
                    -m_action,
                )
    return B1


def reference_sparsity_pbm(matrix: np.ndarray, block_size: int = 1) -> str:
    """PBM text of the nonzero pattern, one block at a time."""
    M = np.atleast_2d(np.asarray(matrix))
    h, w = M.shape[0] // block_size, M.shape[1] // block_size
    lines = ["P1", f"{w} {h}"]
    for i in range(h):
        bits = []
        for j in range(w):
            block = M[
                i * block_size : (i + 1) * block_size,
                j * block_size : (j + 1) * block_size,
            ]
            bits.append("1" if np.any(block != 0) else "0")
        lines.append(" ".join(bits))
    return "\n".join(lines) + "\n"


# --- chopped decimal arithmetic -------------------------------------------


def chop(value: float, digits: int) -> float:
    """Round to *digits* significant decimal digits, half away from zero."""
    if digits < 1:
        raise ValueError(f"digit budget must be >= 1, got {digits}")
    if value == 0 or not math.isfinite(value):
        return value
    exponent = math.floor(math.log10(abs(value)))
    scale = 10.0 ** (digits - 1 - exponent)
    return math.copysign(math.floor(abs(value) * scale + 0.5), value) / scale


class ChoppedPivotBreakdown(ZeroDivisionError):
    """A pivot chopped to exactly zero during elimination."""


NO_PIVOTING = "none"
ROW_REORDER = "row-reorder"

#: The ill-conditioned 3x3 demo system, first circulated variant.
DEMO_VARIANT_A = (
    [[-0.002, 4.0, 4.0], [-2.0, 2.906, -5.38], [3.0, -4.301, -3.112]],
    [7.998, -4.481, -4.143],
)
#: Second variant (already row-reordered; several entries differ).
DEMO_VARIANT_B = (
    [[3.0, -4.301, -3.112], [-0.0002, 4.0, 4.0], [-2.0, 2.406, -5.386]],
    [-4.413, 7.998, -4.481],
)


def ill_conditioned_demo() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Consistent (A, b, x) for the demo: b is built so x = (-1, 1, 1) exactly.

    The two circulated variants contradict each other (and neither right-hand
    side is consistent with the stated solution), so the shipped system takes
    the destabilizing small leading pivot together with the first variant's
    remaining entries and derives b from the exact solution.  Eliminating
    without pivoting at a 4-digit budget then loses the solution completely,
    while row reordering recovers it.
    """
    A = np.array(DEMO_VARIANT_A[0])
    A[0, 0] = DEMO_VARIANT_B[0][1][0]
    x = np.array([-1.0, 1.0, 1.0])
    return A, A @ x, x


def chopped_gauss_solve(
    A: np.ndarray,
    b: np.ndarray,
    digits: int | None = None,
    pivoting: str = NO_PIVOTING,
) -> np.ndarray:
    """Gaussian elimination with every intermediate chopped to *digits*.

    digits=None disables chopping (full-precision elimination).  Row
    reordering pre-sorts the rows so the largest leading coefficients land
    on the diagonal before elimination starts.
    """
    M = [list(map(float, row)) for row in np.asarray(A, dtype=float)]
    rhs = [float(v) for v in np.asarray(b, dtype=float)]
    n = len(M)
    if any(len(row) != n for row in M) or len(rhs) != n:
        raise ValueError("system must be square with a matching right-hand side")

    if digits is None:
        rnd = lambda x: x
    else:
        rnd = lambda x: chop(x, digits)
    M = [[rnd(v) for v in row] for row in M]
    rhs = [rnd(v) for v in rhs]

    if pivoting == ROW_REORDER:
        order: list[int] = []
        remaining = list(range(n))
        for col in range(n):
            best = max(remaining, key=lambda r: (abs(M[r][col]), -r))
            order.append(best)
            remaining.remove(best)
        M = [M[r] for r in order]
        rhs = [rhs[r] for r in order]
    elif pivoting != NO_PIVOTING:
        raise ValueError(f"unknown pivoting mode '{pivoting}'")

    for k in range(n - 1):
        if M[k][k] == 0:
            raise ChoppedPivotBreakdown("chopped pivot breakdown")
        for i in range(k + 1, n):
            factor = rnd(M[i][k] / M[k][k])
            for j in range(k, n):
                M[i][j] = rnd(M[i][j] - rnd(factor * M[k][j]))
            rhs[i] = rnd(rhs[i] - rnd(factor * rhs[k]))

    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        if M[i][i] == 0:
            raise ChoppedPivotBreakdown("chopped pivot breakdown")
        acc = rhs[i]
        for j in range(i + 1, n):
            acc = rnd(acc - rnd(M[i][j] * x[j]))
        x[i] = rnd(acc / M[i][i])
    return np.array(x)


# --- load files ------------------------------------------------------------


def write_load_case(loads: list[tuple[int, float, float, float]], path) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "loads": [
            {"node": n, "fx": fx, "fy": fy, "mz": mz} for n, fx, fy, mz in loads
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
