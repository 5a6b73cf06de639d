"""Write the golden digests that pin every basis the library generates.

    PYTHONPATH=src python3 tests/make_golden.py

For each model of a fixed corpus (planar grids up to 7x7 and space grids up
to 3x3x3, each in every section pattern, and seeded random connected
graphs) the bases of algorithms 1-5 and of the spanning-tree baseline are
reduced to one SHA-256 over canonical JSON: per algorithm the selected
member sets in selection order, the repr of each cycle weight and the
whole ``control_log``.  The digests go to ``golden/bases.json``.

For each planar grid of the same corpus, with one fixed load case on its
top-right node, the CLI reports are reduced the same way: the stdout of
``compare`` over every algorithm, and per algorithm the stdout of
``condition`` and ``force`` and the PBM bytes of ``render --block
--sparsity``.  Those digests go to ``golden/reports.json``.  Two parts of
the ``force`` output are rounding noise of the solve, not results: the
compatibility residual (about 1e-16) and member forces far below the
largest one (their error is cond(G) times the unit roundoff of the
largest).  The digest pins the residual as below ``RESIDUAL_LIMIT`` and
forces under ``NOISE_FLOOR`` times the largest as ``~0``; every other
printed digit is pinned as printed.

The CLI outputs that those reports leave out go to ``golden/cli.json``: for
each planar grid the stdout of ``cycles`` per algorithm, the D-sparsity PBM
and the frame SVG of ``render --sparsity --frame`` per algorithm and the
``compare --csv`` file; for each space grid the stdout and stderr of
``compare``; for a few grids the same under ``--weight-variant sqrt-sum``,
``--alpha 3`` and ``--alg5-ordering length-ascending``; and the exit code,
stdout and stderr of a fixed list of rejected command lines, which pins the
order in which each command checks its inputs.

``test_golden.py`` checks all three files.  Run this only on a commit whose
bases and reports are trusted.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

import oracles
from oracles import write_load_case
from framecycles.basis import AlgorithmSpec, baseline_tree_basis, generate_basis
from framecycles.cli import main as cli_main
from framecycles.frames import PATTERNS, generate_grid, generate_grid3d
from framecycles.model import build_graph, classify_members

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN = os.path.join(GOLDEN_DIR, "bases.json")
GOLDEN_REPORTS = os.path.join(GOLDEN_DIR, "reports.json")
GOLDEN_CLI = os.path.join(GOLDEN_DIR, "cli.json")

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
    return _sha256(bases_doc(graph))


REPORT_ALGORITHMS = ("1", "2", "3", "4", "5", "baseline")
NOISE_FLOOR = 1e-6
RESIDUAL_LIMIT = 1e-10
#: Forces (fx, fy, mz) applied to the top-right node of every report model.
REPORT_LOAD = (1.0, -2.0, 0.5)


def report_corpus():
    """(spec, stories, spans) for every planar grid of the corpus."""
    for pattern in PATTERNS:
        for stories in range(1, GRID_MAX + 1):
            for spans in range(1, GRID_MAX + 1):
                yield f"grid:{stories}x{spans}:{pattern}", stories, spans


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(argv)
    if rc != 0:
        raise RuntimeError(f"framecycles {' '.join(argv)} exited {rc}")
    return out.getvalue()


def _pin_force(stdout: str) -> str:
    """The force report with its rounding noise pinned (see the module doc)."""
    header, *rows, residual = stdout.splitlines()
    rows = [line.split("  ") for line in rows]
    scale = max((abs(float(v)) for row in rows for v in row[1:]), default=0.0)
    pinned = [
        "  ".join([row[0]] + [v if abs(float(v)) >= NOISE_FLOOR * scale else "~0" for v in row[1:]])
        for row in rows
    ]
    name, _, value = residual.partition(" = ")
    if name == "compatibility residual" and float(value) <= RESIDUAL_LIMIT:
        residual = f"{name} <= {RESIDUAL_LIMIT}"
    return "\n".join([header, *pinned, residual])


def reports_doc(spec: str, stories: int, spans: int, workdir: str) -> dict:
    """Every report the digest covers for one grid, as plain strings."""
    top_right = (stories + 1) * (spans + 1)
    loads = os.path.join(workdir, "loads.json")
    write_load_case([(top_right, *REPORT_LOAD)], loads)
    pbm = os.path.join(workdir, "sparsity.pbm")
    doc = {"compare": _stdout(["compare", spec, "--algorithms", ",".join(REPORT_ALGORITHMS)])}
    for alg in REPORT_ALGORITHMS:
        doc[f"condition-{alg}"] = _stdout(["condition", spec, "--algorithm", alg])
        doc[f"force-{alg}"] = _pin_force(
            _stdout(["force", spec, "--loads", loads, "--algorithm", alg])
        )
        _stdout(["render", spec, "--algorithm", alg, "--block", "--sparsity", pbm])
        with open(pbm) as fh:
            doc[f"render-{alg}"] = fh.read()
    return doc


def report_digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as workdir:
        return {
            spec: _sha256(reports_doc(spec, stories, spans, workdir))
            for spec, stories, spans in report_corpus()
        }


#: Grids also run under each non-default option, and those options.
VARIANT_GRIDS = ("grid:3x3:checker", "grid:4x5:weak-beams", "grid:6x2:weak-columns")
VARIANT_OPTIONS = (
    ["--weight-variant", "sqrt-sum"],
    ["--alpha", "3"],
    ["--alg5-ordering", "length-ascending"],
)
#: Edge-case command lines, most of them rejected; ``{dir}`` is a scratch directory.
REJECTED = (
    ["compare", "grid:bad", "--algorithms", "1,9"],
    ["compare", "grid:2x2", "--algorithms", ","],
    ["compare", "grid:2x2", "--algorithms", "1,5", "--alg5-ordering", "length-ascending"],
    ["compare", "grid:2x2", "--algorithms", "1,5", "--alpha", "0"],
    ["compare", "grid3d:1x1x1", "--algorithms", "1", "--alg5-ordering", "length-ascending"],
    ["cycles", "grid:bad", "--algorithm", "9"],
    ["cycles", "grid:2x2", "--algorithm", "9"],
    ["cycles", "/nonexistent/frame.json"],
    ["condition", "grid3d:1x1x1", "--algorithm", "9"],
    ["condition", "grid:bad", "--algorithm", "9"],
    ["condition", "grid:2x2", "--algorithm", "9"],
    ["force", "grid:2x2", "--loads", "/nonexistent/loads.json", "--algorithm", "9"],
    ["force", "grid:2x2", "--loads", "{dir}/loads.json", "--algorithm", "9"],
    ["force", "grid3d:1x1x1", "--loads", "{dir}/loads.json"],
    ["render", "grid:1x1"],
    ["render", "grid:1x1", "--algorithm", "9"],
    ["render", "grid:1x1", "--alg5-ordering", "length-ascending"],
    ["render", "grid:bad", "--frame", "{dir}/frame.svg"],
    ["render", "grid3d:1x1x1", "--frame", "{dir}/frame.svg"],
)


def _run(argv: list[str], workdir: str) -> dict:
    """Exit code, stdout and stderr of one command, *workdir* written as {dir}."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_main(argv)
    return {
        "rc": rc,
        "stdout": out.getvalue().replace(workdir, "{dir}"),
        "stderr": err.getvalue().replace(workdir, "{dir}"),
    }


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def planar_cli_doc(spec: str, workdir: str, options: list[str] = ()) -> dict:
    """``cycles``, ``render --sparsity --frame`` and ``compare --csv`` of one grid."""
    pbm = os.path.join(workdir, "sparsity.pbm")
    svg = os.path.join(workdir, "frame.svg")
    csv_path = os.path.join(workdir, "compare.csv")
    compare = ["compare", spec, "--algorithms", ",".join(REPORT_ALGORITHMS), "--csv", csv_path]
    doc = {"compare": _run([*compare, *options], workdir)}
    if doc["compare"]["rc"] == 0:
        doc["compare-csv"] = _read(csv_path)
    for alg in REPORT_ALGORITHMS:
        doc[f"cycles-{alg}"] = _run(["cycles", spec, "--algorithm", alg, *options], workdir)
        render = ["render", spec, "--algorithm", alg, "--sparsity", pbm, "--frame", svg, *options]
        doc[f"render-{alg}"] = _run(render, workdir)
        if doc[f"render-{alg}"]["rc"] == 0:
            doc[f"render-{alg}-pbm"] = _read(pbm)
            doc[f"render-{alg}-svg"] = _read(svg)
    return doc


def cli_digests() -> dict[str, str]:
    digests = {}
    algorithms = ",".join(REPORT_ALGORITHMS)
    with tempfile.TemporaryDirectory() as workdir:
        for spec, _, _ in report_corpus():
            digests[spec] = _sha256(planar_cli_doc(spec, workdir))
        for pattern in PATTERNS:
            for stories in range(1, GRID3D_MAX + 1):
                for sx in range(1, GRID3D_MAX + 1):
                    for sy in range(1, GRID3D_MAX + 1):
                        spec = f"grid3d:{stories}x{sx}x{sy}:{pattern}"
                        doc = _run(["compare", spec, "--algorithms", algorithms], workdir)
                        digests[spec] = _sha256(doc)
        for spec in VARIANT_GRIDS:
            for options in VARIANT_OPTIONS:
                doc = planar_cli_doc(spec, workdir, options)
                doc["compare-5"] = _run(["compare", spec, "--algorithms", "5", *options], workdir)
                digests[" ".join([spec, *options])] = _sha256(doc)
        write_load_case([(4, 1.0, 0.0, 0.0)], os.path.join(workdir, "loads.json"))
        for argv in REJECTED:
            argv = [arg.replace("{dir}", workdir) for arg in argv]
            digests[" ".join(argv).replace(workdir, "{dir}")] = _sha256(_run(argv, workdir))
    return digests


def _sha256(doc: dict) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _write(path: str, digests: dict[str, str]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"models": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {os.path.relpath(path)}")


def main() -> int:
    _write(GOLDEN, {name: digest(graph) for name, graph in corpus()})
    _write(GOLDEN_REPORTS, report_digests())
    _write(GOLDEN_CLI, cli_digests())
    return 0


if __name__ == "__main__":
    sys.exit(main())
