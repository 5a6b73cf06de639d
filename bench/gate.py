"""Correctness gate: every command's output is checked by code written here.

The combinatorial checks (cycle count, simplicity, GF(2) rank, chi(D) and the
overlap columns) work from the printed member sets and the frame file alone.
The numeric checks take G and the force solution from the library's public
functions and test them here: G symmetric positive definite, PL/PN/PDET
recomputed from G, the compatibility residual and the nodal equilibrium of
the solved load case.  For the default seed the parsed outputs are also
compared with the stored reference outputs in ``reference/``.

Printed floats carry six significant digits, so comparisons with them use a
relative tolerance of PRINT_RTOL; reference comparisons use REFERENCE_RTOL,
loose enough for BLAS thread-count noise in the last digits.
"""

from __future__ import annotations

import hashlib
import math
import re
from collections import defaultdict

import numpy as np

GROUND = "ground"
PRINT_RTOL = 2e-5
REFERENCE_RTOL = 1e-4
COMPATIBILITY_LIMIT = 1e-8
EQUILIBRIUM_LIMIT = 1e-9
COMBINATORIAL_COLUMNS = ("algorithm", "b1", "XD", "sumL", "overlapL")
NUMERIC_COLUMNS = ("overlapW", "PL", "PN", "PDET", "g")


class FrameFacts:
    """What the gate needs of a frame, computed from the frame document alone."""

    def __init__(self, doc: dict):
        self.ndim = doc.get("dimensionality", 2)
        coords = {n["id"]: n["coords"] for n in doc["nodes"]}
        supported = {s["node"] for s in doc["supports"]}
        self.ends: dict[int, tuple] = {}
        self.weights: dict[int, float] = {}
        for m in doc["members"]:
            a, b = m["a"], m["b"]
            self.ends[m["id"]] = (
                GROUND if a in supported else a,
                GROUND if b in supported else b,
            )
            s = doc["sections"][m["section"]]
            self.weights[m["id"]] = _weight(s, math.dist(coords[a], coords[b]), self.ndim)
        free_nodes = len(coords) - len(supported)
        # Connected contracted graph: b1 = M - (free nodes + ground) + 1.
        self.b1 = len(self.ends) - free_nodes


def _weight(section: dict, length: float, ndim: int) -> float:
    """Stiffness weight 2(EA/L + 12EI/L^3 + 4EI/L), bending counted per plane."""
    ea, ei = section["E"] * section["A"], section["E"] * section["I"]
    planes = 1 if ndim == 2 else 2
    return 2.0 * (ea / length + planes * (12.0 * ei / length**3 + 4.0 * ei / length))


def _close(a: float, b: float, rtol: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), scale)


# --- parsing ----------------------------------------------------------------

_CYCLE = re.compile(
    r"cycle (\d+): generator=(\d+) length=(\d+) weight=(\S+) members=\[([\d,]*)\]$"
)


def parse_cycles(text: str) -> tuple[int, list[dict]]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("b1 = "):
        raise ValueError("missing 'b1 = ' header")
    cycles = []
    for i, line in enumerate(lines[1:], start=1):
        match = _CYCLE.match(line)
        if not match or int(match.group(1)) != i:
            raise ValueError(f"bad cycle line {line!r}")
        members = [int(v) for v in match.group(5).split(",") if v]
        cycles.append(
            {
                "generator": int(match.group(2)),
                "length": int(match.group(3)),
                "weight": float(match.group(4)),
                "members": members,
            }
        )
    return int(lines[0][5:]), cycles


def parse_compare(text: str) -> list[dict]:
    lines = text.splitlines()
    headers = lines[0].split()
    if tuple(headers) != COMBINATORIAL_COLUMNS + NUMERIC_COLUMNS:
        raise ValueError(f"unexpected compare header {lines[0]!r}")
    return [dict(zip(headers, line.split(), strict=True)) for line in lines[1:]]


def parse_condition(text: str) -> dict:
    patterns = {
        "PL": r"^PL = (\S+)$",
        "PN": r"^PN = (\S+) \(log10 (\S+)\)$",
        "PDET": r"^PDET = (\S+) \(log10 (\S+)\)$",
        "XD": r"^X\(D\) = (\d+)$",
        "g": r"^good digits \(p=16\) = (\S+)$",
    }
    out = {}
    for key, pattern in patterns.items():
        match = re.search(pattern, text, re.MULTILINE)
        if not match:
            raise ValueError(f"condition output lacks {key}")
        out[key] = [float(v) for v in match.groups()]
    return out


def parse_force(text: str) -> tuple[dict[int, list[float]], float]:
    lines = text.splitlines()
    if lines[0] != "member  N  V  M" or not lines[-1].startswith("compatibility residual = "):
        raise ValueError("unexpected force output layout")
    forces = {}
    for line in lines[1:-1]:
        mid, *values = line.split()
        forces[int(mid)] = [float(v) for v in values]
    return forces, float(lines[-1].split("= ")[1])


def parse_pbm(text: str) -> list[str]:
    lines = text.splitlines()
    if lines[0] != "P1":
        raise ValueError("not a plain PBM")
    width, height = (int(v) for v in lines[1].split())
    rows = ["".join(line.split()) for line in lines[2:]]
    if len(rows) != height or any(len(r) != width for r in rows):
        raise ValueError("PBM raster does not match its header")
    return rows


# --- independent checks -------------------------------------------------------


def basis_errors(facts: FrameFacts, member_sets: list) -> list[str]:
    """b1 cycles, each simple, with GF(2) rank b1."""
    errors = []
    if len(member_sets) != facts.b1:
        errors.append(f"{len(member_sets)} cycles, expected b1 = {facts.b1}")
    for i, members in enumerate(member_sets, start=1):
        if not _is_simple_cycle(facts, members):
            errors.append(f"cycle {i} is not a simple cycle")
    rank = gf2_rank(member_sets)
    if rank != facts.b1:
        errors.append(f"GF(2) rank {rank}, expected b1 = {facts.b1}")
    return errors


def _is_simple_cycle(facts: FrameFacts, members) -> bool:
    if len(set(members)) != len(members) or len(members) < 3:
        return False
    adjacency = defaultdict(list)
    for mid in members:
        if mid not in facts.ends:
            return False
        a, b = facts.ends[mid]
        adjacency[a].append(b)
        adjacency[b].append(a)
    if any(len(v) != 2 for v in adjacency.values()):
        return False
    start = next(iter(adjacency))
    seen, todo = {start}, [start]
    while todo:
        for v in adjacency[todo.pop()]:
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return len(seen) == len(adjacency)


def gf2_rank(member_sets) -> int:
    """Rank over GF(2), eliminating on the lowest set bit of each row."""
    index = {}
    pivots: dict[int, int] = {}
    for members in member_sets:
        row = 0
        for mid in members:
            row ^= 1 << index.setdefault(mid, len(index))
        while row:
            low = row & -row
            if low not in pivots:
                pivots[low] = row
                break
            row ^= pivots[low]
    return len(pivots)


def adjacency_stats(facts: FrameFacts, member_sets: list) -> dict:
    """Columns of the compare table from the cycle member sets."""
    cycles_of = defaultdict(list)
    for i, members in enumerate(member_sets):
        for mid in members:
            cycles_of[mid].append(i)
    sharing = set()
    for holders in cycles_of.values():
        sharing.update((i, j) for i in holders for j in holders if i < j)
    b1 = len(member_sets)
    shared = [mid for mid, holders in cycles_of.items() if len(holders) > 1]
    return {
        "b1": b1,
        "XD": b1 + 2 * len(sharing),  # chi(D) = b1 + 2 * sum(sigma)
        "sumL": sum(len(m) for m in member_sets),
        "overlapL": len(shared),
        "overlapW": sum(facts.weights[mid] for mid in shared),
    }


def conditioning(G: np.ndarray | None) -> dict:
    """SPD test and PL, PN, PDET of a flexibility matrix, from their definitions."""
    if G is None:
        return {"spd": False}
    scale = float(np.max(np.abs(G)))
    if float(np.max(np.abs(G - G.T))) > 1e-12 * scale:
        return {"spd": False}
    eig = np.linalg.eigvalsh(G)
    if eig[0] <= 0:
        return {"spd": False}
    out = {"spd": True, "PL": math.log10(eig[-1] / eig[0])}
    normalized = G / np.linalg.norm(G, axis=1)[:, None]
    d = 1.0 / np.sqrt(np.diag(G))
    for key, matrix in (("PN", normalized), ("PDET", G * np.outer(d, d))):
        sign, logdet = np.linalg.slogdet(matrix)
        out[key] = sign * math.exp(logdet) if logdet > -745 else 0.0
        out[key + "_log10"] = logdet / math.log(10.0)
    return out


def block_pattern(G: np.ndarray) -> list[str]:
    n = G.shape[0] // 3
    nonzero = (G.reshape(n, 3, n, 3) != 0).any(axis=(1, 3))
    return ["".join("1" if v else "0" for v in row) for row in nonzero]


# --- the library's own results, recomputed after the timed runs ------------


class LibraryResults:
    """Bases, G and force solutions from the library's public functions."""

    def __init__(self, frame_path: str, loads: dict | None):
        from framecycles import frames, model

        self._model = frames.parse_model(frame_path)
        self._graph = model.build_graph(self._model)
        self._loads = loads
        self._bases: dict = {}
        self._g: dict = {}

    def basis(self, algorithm: str):
        if algorithm not in self._bases:
            import framecycles as fc

            if algorithm == "baseline":
                result = fc.baseline_tree_basis(self._graph)
            else:
                spec = fc.AlgorithmSpec.for_id(int(algorithm))
                partition = fc.classify_members(self._graph) if spec.na_avoidance else None
                result = fc.generate_basis(self._graph, spec, partition)
            self._bases[algorithm] = result
        return self._bases[algorithm]

    def adopt(self, algorithm: str, cycles: list[tuple[int, list[int]]]) -> None:
        """Use a basis the CLI printed (and the gate accepted) instead of rebuilding it."""
        import framecycles as fc

        vectors = [fc.CycleVector.from_members(self._graph, frozenset(m), g) for g, m in cycles]
        self._bases[algorithm] = fc.CycleBasis(vectors, self._graph)

    def member_sets(self, algorithm: str) -> list[list[int]]:
        return [sorted(c.members) for c in self.basis(algorithm).cycles]

    def g(self, algorithm: str) -> np.ndarray | None:
        """G as the library assembles it; None when the library rejects it."""
        if algorithm not in self._g:
            from framecycles import force

            B1 = force.build_b1(self._model, self.basis(algorithm))
            Fm = force.unassembled_flexibility(self._model)
            try:
                self._g[algorithm] = force.assemble_g(B1, Fm)
            except force.RankDeficientBasis:
                self._g[algorithm] = None
        return self._g[algorithm]

    def force_solution(self, algorithm: str):
        from framecycles import force

        load_case = [
            (ld["node"], ld["fx"], ld["fy"], ld["mz"]) for ld in self._loads["loads"]
        ]
        solution = force.solve_force_method(self._model, self.basis(algorithm), load_case)
        applied = {}
        for node, fx, fy, mz in load_case:
            for dof, value in enumerate((fx, fy, mz)):
                applied[(node, dof)] = applied.get((node, dof), 0.0) + value
        equilibrium = force.nodal_equilibrium_residual(self._model, solution.r, applied)
        return solution, equilibrium


# --- per-command checks -------------------------------------------------------


class Gate:
    """Checks one workload's command outputs; each check returns (errors, summary).

    The summary is the parsed output that reference comparisons use.  Check
    ``cycles`` outputs first: the bases they print, once accepted, are the
    ones the other commands' outputs are checked against.
    """

    def __init__(self, frame_doc: dict, frame_path: str, loads: dict | None):
        self.facts = FrameFacts(frame_doc)
        self.library = LibraryResults(frame_path, loads)

    def check(self, label: str, stdout: str, output_file: str | None) -> tuple[list[str], dict]:
        kind, _, algorithm = label.partition("-")
        try:
            if kind == "cycles":
                return self._cycles(algorithm, stdout)
            if kind == "compare":
                return self._compare(stdout)
            if kind == "condition":
                return self._condition(algorithm, stdout)
            if kind == "force":
                return self._force(algorithm, stdout)
            if kind == "render":
                return self._render(algorithm, stdout, output_file)
        except (ValueError, IndexError, KeyError) as exc:
            return [f"unreadable output: {exc}"], {}
        raise ValueError(f"no check for command '{label}'")

    def _cycles(self, algorithm: str, stdout: str):
        b1, cycles = parse_cycles(stdout)
        sets = [c["members"] for c in cycles]
        errors = basis_errors(self.facts, sets)
        if b1 != self.facts.b1:
            errors.append(f"printed b1 = {b1}, expected {self.facts.b1}")
        for i, c in enumerate(cycles, start=1):
            if c["length"] != len(c["members"]) or c["generator"] not in c["members"]:
                errors.append(f"cycle {i}: length or generator inconsistent with members")
            weight = sum(self.facts.weights[m] for m in c["members"] if m in self.facts.weights)
            if not _close(c["weight"], weight, PRINT_RTOL):
                errors.append(f"cycle {i}: weight {c['weight']} != {weight:.6g}")
        if not errors:
            self.library.adopt(algorithm, [(c["generator"], c["members"]) for c in cycles])
        return errors, {"cycles": sets}

    def _compare(self, stdout: str):
        rows = parse_compare(stdout)
        errors = []
        algorithms = [r["algorithm"] for r in rows]
        if algorithms != ["1", "2", "3", "4", "5", "baseline"]:
            errors.append(f"rows for algorithms {algorithms}")
        summary = []
        for row in rows:
            alg = row["algorithm"]
            sets = self.library.member_sets(alg)
            errors += [f"algorithm {alg}: {e}" for e in basis_errors(self.facts, sets)]
            stats = adjacency_stats(self.facts, sets)
            for col in COMBINATORIAL_COLUMNS[1:]:
                if int(row[col]) != stats[col]:
                    errors.append(f"algorithm {alg}: {col} = {row[col]}, expected {stats[col]}")
            if not _close(float(row["overlapW"]), stats["overlapW"], PRINT_RTOL):
                errors.append(f"algorithm {alg}: overlapW = {row['overlapW']}")
            if self.facts.ndim == 2:
                cond = conditioning(self.library.g(alg))
                if not cond["spd"]:
                    errors.append(f"algorithm {alg}: G is not SPD")
                    continue
                cond["g"] = 16 - cond["PL"]
                for col in ("PL", "PN", "PDET", "g"):
                    if not _close(float(row[col]), cond[col], PRINT_RTOL, 1e-300):
                        errors.append(f"algorithm {alg}: {col} = {row[col]}, expected {cond[col]:.6g}")
            elif any(row[col] != "-" for col in ("PL", "PN", "PDET", "g")):
                errors.append(f"algorithm {alg}: numeric columns on a space frame")
            summary.append(
                {col: (row[col] if col == "algorithm" or row[col] == "-"
                       else (int(row[col]) if col in COMBINATORIAL_COLUMNS else float(row[col])))
                 for col in COMBINATORIAL_COLUMNS + NUMERIC_COLUMNS}
            )
        return errors, {"rows": summary}

    def _condition(self, algorithm: str, stdout: str):
        parsed = parse_condition(stdout)
        sets = self.library.member_sets(algorithm)
        errors = basis_errors(self.facts, sets)
        xd = adjacency_stats(self.facts, sets)["XD"]
        if parsed["XD"][0] != xd:
            errors.append(f"X(D) = {parsed['XD'][0]:.0f}, expected {xd}")
        cond = conditioning(self.library.g(algorithm))
        if not cond["spd"]:
            return errors + ["G is not SPD"], parsed
        expected = {
            "PL": [cond["PL"]],
            "PN": [cond["PN"], cond["PN_log10"]],
            "PDET": [cond["PDET"], cond["PDET_log10"]],
            "g": [16 - cond["PL"]],
        }
        for key, values in expected.items():
            if not all(_close(p, e, PRINT_RTOL, 1e-300) for p, e in zip(parsed[key], values)):
                errors.append(f"{key} = {parsed[key]}, expected {values}")
        return errors, parsed

    def _force(self, algorithm: str, stdout: str):
        forces, printed_residual = parse_force(stdout)
        solution, equilibrium = self.library.force_solution(algorithm)
        errors = []
        if not conditioning(self.library.g(algorithm))["spd"]:
            errors.append("G is not SPD")
        if not printed_residual <= COMPATIBILITY_LIMIT:
            errors.append(f"printed compatibility residual {printed_residual} > {COMPATIBILITY_LIMIT}")
        if not solution.compatibility_residual <= COMPATIBILITY_LIMIT:
            errors.append(f"compatibility residual {solution.compatibility_residual}")
        if not equilibrium <= EQUILIBRIUM_LIMIT:
            errors.append(f"nodal equilibrium residual {equilibrium} > {EQUILIBRIUM_LIMIT}")
        r = solution.r.reshape(-1, 3)
        scale = float(np.max(np.abs(r)))
        if sorted(forces) != solution.member_order:
            errors.append("force rows do not list every member once")
        else:
            for i, mid in enumerate(solution.member_order):
                if not all(_close(p, e, PRINT_RTOL, scale) for p, e in zip(forces[mid], r[i])):
                    errors.append(f"member {mid}: printed forces {forces[mid]} != {r[i]}")
                    break
        return errors, {"forces": [forces[m] for m in sorted(forces)]}

    def _render(self, algorithm: str, stdout: str, output_file: str | None):
        if output_file is None:
            return ["render wrote no file"], {}
        rows = parse_pbm(output_file)
        errors = []
        G = self.library.g(algorithm)
        if G is None or block_pattern(G) != rows:
            errors.append("block sparsity raster differs from the block pattern of G")
        if not stdout.startswith("wrote "):
            errors.append("render did not report its output")
        digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
        return errors, {"raster_sha256": digest, "nonzero_blocks": "".join(rows).count("1")}


# --- reference comparison -----------------------------------------------------


def reference_errors(label: str, got: dict, ref: dict) -> list[str]:
    """Compare a command's parsed output with the stored reference output."""
    if not got:
        return []  # already failed to parse
    kind = label.partition("-")[0]
    if kind == "force":
        a, b = np.array(got["forces"]), np.array(ref["forces"])
        if a.shape != b.shape:
            return ["force rows differ from the reference"]
        scale = float(np.max(np.abs(b)))
        return [] if np.all(np.abs(a - b) <= REFERENCE_RTOL * scale) else [
            "member forces differ from the reference"
        ]
    return [] if _matches(got, ref) else [f"{kind} output differs from the reference"]


def _matches(got, ref) -> bool:
    if isinstance(ref, dict):
        return isinstance(got, dict) and got.keys() == ref.keys() and all(
            _matches(got[k], ref[k]) for k in ref
        )
    if isinstance(ref, list):
        return isinstance(got, list) and len(got) == len(ref) and all(
            _matches(g, r) for g, r in zip(got, ref)
        )
    if isinstance(ref, float) and isinstance(got, (int, float)):
        return _close(got, ref, REFERENCE_RTOL, 1e-300)
    return got == ref
