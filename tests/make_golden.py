"""Write the golden digests that pin every basis the library generates.

    PYTHONPATH=src python3 tests/make_golden.py

For each model of a fixed corpus (planar grids up to 7x7 and space grids up
to 3x3x3, each in every section pattern, and seeded random connected
graphs) the bases of algorithms 1-5 and of the spanning-tree baseline are
reduced to one SHA-256 over canonical JSON: per algorithm the selected
member sets in selection order, the repr of each cycle weight and the
whole ``control_log``.  The digests go to ``golden/bases.json``, which
``test_golden.py`` checks.  Run it only on a commit whose bases are trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

import oracles
from framecycles.basis import AlgorithmSpec, baseline_tree_basis, generate_basis
from framecycles.frames import PATTERNS, generate_grid, generate_grid3d
from framecycles.model import build_graph, classify_members

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "bases.json")

GRID_MAX = 7
GRID3D_MAX = 3
RANDOM_GRAPHS = 300


def corpus():
    """(name, graph) for every model of the corpus, in a fixed order."""
    for pattern in PATTERNS:
        for stories in range(1, GRID_MAX + 1):
            for spans in range(1, GRID_MAX + 1):
                model = generate_grid(stories, spans, pattern=pattern)
                yield f"grid:{stories}x{spans}:{pattern}", build_graph(model)
    for pattern in PATTERNS:
        for stories in range(1, GRID3D_MAX + 1):
            for sx in range(1, GRID3D_MAX + 1):
                for sy in range(1, GRID3D_MAX + 1):
                    model = generate_grid3d(stories, sx, sy, pattern=pattern)
                    yield f"grid3d:{stories}x{sx}x{sy}:{pattern}", build_graph(model)
    for seed in range(RANDOM_GRAPHS):
        rng = random.Random(seed)
        yield f"random:{seed}", oracles.random_connected_graph(rng, 6 + seed % 35)


def _cycles(basis) -> list:
    return [[sorted(c.members), repr(c.weight)] for c in basis.cycles]


def bases_doc(graph) -> dict:
    """Everything the digest covers, as plain JSON values."""
    doc = {}
    for algorithm_id in range(1, 6):
        spec = AlgorithmSpec.for_id(algorithm_id)
        partition = classify_members(graph) if spec.na_avoidance else None
        basis = generate_basis(graph, spec, partition)
        doc[str(algorithm_id)] = {
            "cycles": _cycles(basis),
            "control_log": [list(entry) for entry in basis.control_log],
        }
    doc["baseline"] = {"cycles": _cycles(baseline_tree_basis(graph))}
    return doc


def digest(graph) -> str:
    text = json.dumps(bases_doc(graph), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    digests = {name: digest(graph) for name, graph in corpus()}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump({"models": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {os.path.relpath(GOLDEN)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
