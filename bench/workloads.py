"""Benchmark workloads: seeded frame and load files, and the CLI commands run on them.

The frame and load files are written here, from the seed alone, in the
program's JSON format; the program sees only those files.  Every member gets
a light or a heavy section, with exactly half of the members heavy (rounded
down) in a seeded shuffle, so seeds vary the weight pattern but not the mix.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

FORMAT_VERSION = 1
BAY = 3.0
STORY = 3.0
#: Section properties of the paper's test frames (lengths in m, E in t/m^2).
SECTIONS = {
    "light": {"A": 0.00106, "I": 0.00000171, "E": 2.1e7},
    "heavy": {"A": 0.00970, "I": 0.00019610, "E": 2.1e7},
}
ALL_ALGORITHMS = "1,2,3,4,5,baseline"
LOADED_NODES = 10


@dataclass(frozen=True)
class Workload:
    name: str
    #: (stories, spans) for a planar grid, (stories, spans_x, spans_y) for a space frame.
    dims: tuple[int, ...]
    why: str

    @property
    def planar(self) -> bool:
        return len(self.dims) == 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "planar-compare",
            (10, 10),
            "the paper's headline table: route trees, GF(2) selection and the Betti "
            "cross-check dominate; force and metrics take little",
        ),
        Workload(
            "planar-force",
            (15, 15),
            "dense Fm/B1/G, the solve, eigvalsh/slogdet and the block sparsity render "
            "dominate; the densest (baseline) and sparsest (3) D",
        ),
        Workload(
            "space-compare",
            (6, 4, 4),
            "same cycle and basis code on degree-6 nodes; force, metrics and render "
            "do no work, so a force-layer change must not move it",
        ),
    )
}


def _section_labels(rng: random.Random, count: int) -> list[str]:
    labels = ["heavy"] * (count // 2) + ["light"] * (count - count // 2)
    rng.shuffle(labels)
    return labels


def planar_frame(stories: int, spans: int, rng: random.Random) -> dict:
    """Rectangular planar frame with fixed bases, members story by story."""

    def node_id(i: int, level: int) -> int:
        return level * (spans + 1) + i + 1

    nodes = [
        {"id": node_id(i, level), "coords": [i * BAY, level * STORY]}
        for level in range(stories + 1)
        for i in range(spans + 1)
    ]
    ends = []
    for story in range(1, stories + 1):
        ends += [(node_id(i, story - 1), node_id(i, story)) for i in range(spans + 1)]
        ends += [(node_id(i, story), node_id(i + 1, story)) for i in range(spans)]
    supports = [node_id(i, 0) for i in range(spans + 1)]
    return _frame_doc(2, nodes, ends, supports, rng)


def space_frame(stories: int, spans_x: int, spans_y: int, rng: random.Random) -> dict:
    """Rectangular space frame with fixed bases, members story by story."""
    per_level = (spans_x + 1) * (spans_y + 1)

    def node_id(ix: int, iy: int, level: int) -> int:
        return level * per_level + iy * (spans_x + 1) + ix + 1

    nodes = [
        {"id": node_id(ix, iy, level), "coords": [ix * BAY, iy * BAY, level * STORY]}
        for level in range(stories + 1)
        for iy in range(spans_y + 1)
        for ix in range(spans_x + 1)
    ]
    ends = []
    for s in range(1, stories + 1):
        ends += [
            (node_id(ix, iy, s - 1), node_id(ix, iy, s))
            for iy in range(spans_y + 1)
            for ix in range(spans_x + 1)
        ]
        ends += [
            (node_id(ix, iy, s), node_id(ix + 1, iy, s))
            for iy in range(spans_y + 1)
            for ix in range(spans_x)
        ]
        ends += [
            (node_id(ix, iy, s), node_id(ix, iy + 1, s))
            for iy in range(spans_y)
            for ix in range(spans_x + 1)
        ]
    supports = [node_id(ix, iy, 0) for iy in range(spans_y + 1) for ix in range(spans_x + 1)]
    return _frame_doc(3, nodes, ends, supports, rng)


def _frame_doc(ndim, nodes, ends, supports, rng) -> dict:
    labels = _section_labels(rng, len(ends))
    return {
        "format_version": FORMAT_VERSION,
        "dimensionality": ndim,
        "sections": SECTIONS,
        "nodes": nodes,
        "members": [
            {"id": i + 1, "a": a, "b": b, "section": labels[i]}
            for i, (a, b) in enumerate(ends)
        ],
        "supports": [{"node": s, "kind": "fixed"} for s in supports],
    }


def load_case(frame: dict, rng: random.Random) -> dict:
    """Nodal loads (fx, fy, mz) on LOADED_NODES distinct free nodes."""
    supported = {s["node"] for s in frame["supports"]}
    free = [n["id"] for n in frame["nodes"] if n["id"] not in supported]
    loads = []
    for node in sorted(rng.sample(free, min(LOADED_NODES, len(free)))):
        loads.append(
            {
                "node": node,
                "fx": round(rng.uniform(-10.0, 10.0), 3),
                "fy": round(rng.uniform(-10.0, 10.0), 3),
                "mz": round(rng.uniform(-5.0, 5.0), 3),
            }
        )
    return {"format_version": FORMAT_VERSION, "loads": loads}


@dataclass(frozen=True)
class Command:
    label: str
    argv: list[str]  # arguments for framecycles.cli.main
    output: str | None = None  # file the command writes, read back for the gate


@dataclass(frozen=True)
class Inputs:
    frame_path: str
    frame: dict
    loads: dict | None
    commands: list[Command]


def make_inputs(workload: Workload, seed: int, workdir: str) -> Inputs:
    """Write the workload's files for *seed* into *workdir*; list its commands."""
    rng = random.Random(f"{workload.name}:{seed}")
    frame_path = os.path.join(workdir, "frame.json")
    if workload.planar:
        frame = planar_frame(*workload.dims, rng)
    else:
        frame = space_frame(*workload.dims, rng)
    _write_json(frame, frame_path)

    loads = None
    if workload.name == "planar-compare":
        commands = [Command("compare", ["compare", frame_path, "--algorithms", ALL_ALGORITHMS])]
        commands += [
            Command(f"cycles-{k}", ["cycles", frame_path, "--algorithm", str(k)])
            for k in range(1, 6)
        ]
    elif workload.name == "planar-force":
        loads = load_case(frame, rng)
        loads_path = os.path.join(workdir, "loads.json")
        _write_json(loads, loads_path)
        commands = []
        for alg in ("baseline", "3"):
            pbm = os.path.join(workdir, f"sparsity-{alg}.pbm")
            commands += [
                Command(f"condition-{alg}", ["condition", frame_path, "--algorithm", alg]),
                Command(
                    f"force-{alg}",
                    ["force", frame_path, "--loads", loads_path, "--algorithm", alg],
                ),
                Command(
                    f"render-{alg}",
                    ["render", frame_path, "--algorithm", alg, "--block", "--sparsity", pbm],
                    output=pbm,
                ),
            ]
    elif workload.name == "space-compare":
        commands = [Command("compare", ["compare", frame_path, "--algorithms", ALL_ALGORITHMS])]
    else:
        raise ValueError(f"unknown workload '{workload.name}'")
    return Inputs(frame_path, frame, loads, commands)


def _write_json(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
