"""Command-line front end: frame generation, algorithm runs, comparison
reports, and sparsity/cycle renderings.

Reports are deterministic byte-for-byte: fixed column layout, floats at six
significant digits, and fully deterministic generation underneath.

The numeric layers (force, metrics, render) and numpy are imported where a
command first computes with them, so ``generate``, ``cycles``, a space-frame
``compare``, ``render --frame`` and an input rejected before that point run
without numpy.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import os
import re
import sys
from dataclasses import dataclass
from functools import cache, cached_property

from framecycles import basis as basis_mod
from framecycles import frames
from framecycles.basis import AlgorithmSpec, CycleBasis, adjacency_matrix, incidence_matrix
from framecycles.model import (
    ModelError,
    StructuralModel,
    build_graph,
    check_alpha,
    check_precision,
    classify_members,
    cycle_rank,
)

ALGORITHM_IDS = (1, 2, 3, 4, 5)
BASELINE = "baseline"
COMPARE_COLUMNS = ("algorithm", "b1", "XD", "sumL", "overlapL", "overlapW", "PL", "PN", "PDET", "g")

#: Generator spec (kind, number of sizes) -> grid generator.
_GENERATORS = {("grid", 2): frames.generate_grid, ("grid3d", 3): frames.generate_grid3d}

#: The force functions that ``bench/tracing.py`` patches on this module by name.
_FORCE_NAMES = frozenset(("build_b1", "assemble_g", "unassembled_flexibility"))


def __getattr__(name: str):
    """``cli.build_b1``, ``cli.assemble_g`` and ``cli.unassembled_flexibility``
    are ``force``'s functions, loaded on first use (PEP 562).  The hook exists
    for the bench tracer, which patches these names here, and goes when the
    tracer stops doing so (ROADMAP item 3)."""
    if name in _FORCE_NAMES:
        from framecycles import force

        return getattr(force, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def load_or_generate(spec: str) -> StructuralModel:
    """Resolve a model argument: a frame file path or a grid generator spec.

    Generator specs: ``grid:STORIESxSPANS[:PATTERN]`` and
    ``grid3d:STORIESxSPANS_XxSPANS_Y[:PATTERN]``.
    """
    if spec.startswith("grid:") or spec.startswith("grid3d:"):
        kind, dims, *rest = spec.split(":")
        generate = _GENERATORS.get((kind, dims.count("x") + 1))
        # Sizes are ASCII digits: int() would also take "1_0", " 2", "+1" and "２".
        if generate is None or len(rest) > 1 or not re.fullmatch(r"[0-9]+(x[0-9]+)*", dims):
            raise ModelError(f"bad generator spec '{spec}'")
        return generate(*map(int, dims.split("x")), pattern=rest[0] if rest else "homogeneous")
    return frames.parse_model(spec)


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    return f"{value:.6g}"


@dataclass
class Analysis:
    """The method's pipeline for one model under one set of options.

    Contracted graph -> cycle basis -> D = C C' -> G = B1' Fm B1.  The
    graph, its inadmissible (NA) members and (planar only) the unassembled
    flexibility Fm are built once, on first use.  Bases, D and G are built
    on request and kept by the caller, so a comparison holds one
    algorithm's basis and matrices at a time.
    """

    model: StructuralModel
    weight_variant: str = "sum"
    alpha: int = 2
    alg5_ordering: str | None = None

    @cached_property
    def graph(self):
        return build_graph(self.model, variant=self.weight_variant)

    @cached_property
    def partition(self):
        return classify_members(self.graph, self.alpha)

    @cached_property
    def flexibility(self):
        from framecycles import force

        return force.unassembled_flexibility(self.model)

    def basis(self, algorithm) -> CycleBasis:
        """The basis of algorithm 1-5 or of the spanning-tree baseline.

        ``alg5_ordering`` applies to algorithm 5 alone.
        """
        graph = self.graph
        if algorithm == BASELINE:
            return basis_mod.baseline_tree_basis(graph)
        algorithm_id = int(algorithm)
        ordering = self.alg5_ordering if algorithm_id == 5 else None
        spec = AlgorithmSpec.for_id(algorithm_id, ordering)
        inadmissible = self.partition if spec.na_avoidance else None
        return basis_mod.generate_basis(graph, spec, inadmissible)

    @staticmethod
    def adjacency(cycle_basis: CycleBasis) -> basis_mod.AdjacencyMatrix:
        return adjacency_matrix(incidence_matrix(cycle_basis))

    def g(self, cycle_basis: CycleBasis):
        from framecycles import force

        return force.assemble_g(force.build_b1(self.model, cycle_basis), self.flexibility)

    def compare(self, algorithms: list, precision: int = 16) -> tuple[str, str]:
        """The algorithms side by side: (table text, CSV text).

        Space frames get '-' placeholders for the numeric metrics.
        """
        rows = [self._compare_row(algorithm, precision) for algorithm in algorithms]
        table_rows = [[str(r[h]) for h in COMPARE_COLUMNS] for r in rows]
        widths = [max(map(len, column)) for column in zip(COMPARE_COLUMNS, *table_rows)]
        lines = [
            "  ".join(v.ljust(widths[i]) for i, v in enumerate(tr)).rstrip()
            for tr in [COMPARE_COLUMNS, *table_rows]
        ]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(COMPARE_COLUMNS)
        writer.writerows(table_rows)
        return "\n".join(lines) + "\n", buf.getvalue()

    def _compare_row(self, algorithm, precision: int) -> dict:
        cycle_basis = self.basis(algorithm)
        overlap = cycle_basis.overlap_members()
        row = {
            "algorithm": str(algorithm),
            "b1": len(cycle_basis),
            "XD": self.adjacency(cycle_basis).chi,
            "sumL": cycle_basis.total_length(),
            "overlapL": len(overlap),
            "overlapW": _fmt(sum(self.graph.weight(m) for m in overlap)),
        }
        if self.model.ndim != 2:
            return {**row, "PL": "-", "PN": "-", "PDET": "-", "g": "-"}
        from framecycles import metrics

        report = metrics.condition_report(self.g(cycle_basis), precision)
        numeric = (report.pl, report.pn, report.pdet, report.good_digits)
        return {**row, **dict(zip(("PL", "PN", "PDET", "g"), map(_fmt, numeric)))}


def _parse_algorithms(raw: str) -> list:
    algorithms = []
    for token in filter(None, (t.strip() for t in raw.split(","))):
        try:
            value = token if token == BASELINE else int(token)
        except ValueError:
            value = None
        if value != BASELINE and value not in ALGORITHM_IDS:
            raise ModelError(f"unknown algorithm '{token}'")
        algorithms.append(value)
    if not algorithms:
        raise ModelError("no algorithms selected")
    return algorithms


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("model", help="frame file or generator spec (grid:3x4[:pattern])")
    parser.add_argument("--weight-variant", choices=("sum", "sqrt-sum"), default="sum")
    parser.add_argument("--alpha", type=int, default=2)
    parser.add_argument(
        "--alg5-ordering",
        choices=(basis_mod.WEIGHT_DESCENDING, basis_mod.LENGTH_ASCENDING),
        default=None,
    )


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first call and kept for the
    process: it holds no per-call state, since each parse makes a fresh
    namespace."""
    parser = argparse.ArgumentParser(
        prog="framecycles",
        description="Cycle bases and flexibility-matrix conditioning for frames",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a grid frame file")
    gen.add_argument("--stories", type=int, required=True)
    gen.add_argument("--spans", type=int, required=True)
    gen.add_argument("--spans-y", type=int, default=None, help="build a 3D grid")
    gen.add_argument("--pattern", choices=frames.PATTERNS, default="homogeneous")
    gen.add_argument("--bay", type=float, default=3.0)
    gen.add_argument("--height", type=float, default=3.0)
    gen.add_argument("-o", "--output", required=True)

    cyc = sub.add_parser("cycles", help="print the cycles of one basis")
    _add_common(cyc)
    cyc.add_argument("--algorithm", default="1")

    frc = sub.add_parser("force", help="solve a load case with the force method")
    _add_common(frc)
    frc.add_argument("--loads", required=True)
    frc.add_argument("--algorithm", default="1")

    cond = sub.add_parser("condition", help="condition report for one basis")
    _add_common(cond)
    cond.add_argument("--algorithm", default="1")
    cond.add_argument("--precision", type=int, default=16)

    cmp_ = sub.add_parser("compare", help="side-by-side algorithm comparison")
    _add_common(cmp_)
    cmp_.add_argument("--algorithms", default="1,2,3,4")
    cmp_.add_argument("--precision", type=int, default=16)
    cmp_.add_argument("--csv", default=None)

    ren = sub.add_parser("render", help="render sparsity pattern and cycle overlay")
    _add_common(ren)
    ren.add_argument("--algorithm", default="1")
    ren.add_argument("--sparsity", default=None, help="output PBM path")
    ren.add_argument("--frame", default=None, help="output SVG path")
    ren.add_argument("--block", action="store_true", help="3x3-block pattern of G, which is D's")

    return parser


def _one_algorithm(raw: str):
    algorithms = _parse_algorithms(raw)
    if len(algorithms) > 1:
        raise ModelError(f"choose one algorithm, got '{raw}'")
    return algorithms[0]


def _analysis(args) -> Analysis:
    check_alpha(args.alpha)
    model = load_or_generate(args.model)
    return Analysis(model, args.weight_variant, args.alpha, args.alg5_ordering)


class _UsageError(ValueError):
    """A command line that parses but asks for nothing: exit 2, as argparse's usage errors."""


def _cmd_generate(args) -> None:
    if args.spans_y is not None:
        model = frames.generate_grid3d(
            args.stories, args.spans, args.spans_y, args.bay, args.height, args.pattern
        )
    else:
        model = frames.generate_grid(
            args.stories, args.spans, args.bay, args.height, args.pattern
        )
    frames.write_model(model, args.output)
    print(f"wrote {args.output}")


def _cmd_cycles(args) -> None:
    analysis = _analysis(args)
    cycle_basis = analysis.basis(_one_algorithm(args.algorithm))
    print(f"b1 = {cycle_rank(analysis.graph)}")
    for i, c in enumerate(cycle_basis.cycles, start=1):
        members = ",".join(str(m) for m in sorted(c.members))
        print(
            f"cycle {i}: generator={c.generator} length={c.length} "
            f"weight={_fmt(c.weight)} members=[{members}]"
        )


def _cmd_force(args) -> None:
    analysis = _analysis(args)
    loads = frames.parse_load_case(args.loads)
    cycle_basis = analysis.basis(_one_algorithm(args.algorithm))
    from framecycles import force

    solution = force.solve_force_method(analysis.model, cycle_basis, loads)
    print("member  N  V  M")
    for i, mid in enumerate(solution.member_order):
        n, v, m = solution.r[3 * i : 3 * i + 3]
        print(f"{mid}  {_fmt(n)}  {_fmt(v)}  {_fmt(m)}")
    print(f"compatibility residual = {_fmt(solution.compatibility_residual)}")


def _cmd_condition(args) -> None:
    check_precision(args.precision)
    analysis = _analysis(args)
    if analysis.model.ndim != 2:
        raise ModelError("condition report requires a planar model")
    cycle_basis = analysis.basis(_one_algorithm(args.algorithm))
    chi = analysis.adjacency(cycle_basis).chi
    from framecycles import metrics

    report = metrics.condition_report(analysis.g(cycle_basis), args.precision)
    print(f"PL = {_fmt(report.pl)}")
    print(f"PN = {_fmt(report.pn)} (log10 {_fmt(report.pn_log10)})")
    print(f"PDET = {_fmt(report.pdet)} (log10 {_fmt(report.pdet_log10)})")
    print(f"X(D) = {chi}")
    print(f"good digits (p={report.precision}) = {_fmt(report.good_digits)}")


def _cmd_compare(args) -> None:
    algorithms = _parse_algorithms(args.algorithms)
    check_precision(args.precision)
    analysis = _analysis(args)
    if analysis.model.ndim != 2:
        print("warning: 3D model, reporting combinatorial columns only", file=sys.stderr)
    table, csv_text = analysis.compare(algorithms, args.precision)
    # The CSV first: a path that cannot be written leaves no table printed.
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(csv_text)
    sys.stdout.write(table)


def _cmd_render(args) -> None:
    from framecycles import render

    analysis = _analysis(args)
    algorithm = _one_algorithm(args.algorithm)
    if not args.sparsity and not args.frame:
        raise _UsageError("choose --sparsity and/or --frame output paths")
    if args.block and analysis.model.ndim != 2:
        raise ModelError("--block requires a planar model")
    if args.frame and analysis.model.ndim != 2:
        raise ModelError("frame rendering is available for planar models only")
    cycle_basis = analysis.basis(algorithm)
    outputs = []
    if args.sparsity:
        pattern = analysis.adjacency(cycle_basis).pattern()
        outputs.append((args.sparsity, lambda path: render.render_sparsity(pattern, path)))
    if args.frame:
        model = analysis.model
        outputs.append((args.frame, lambda path: render.render_frame(model, cycle_basis, path)))
    _write_all(outputs)
    for path, _ in outputs:
        print(f"wrote {path}")


def _write_all(outputs) -> None:
    """Run each (path, write) pair's *write* on a file in a new folder beside
    *path*, and move the files into place only once all are written, so a
    command that fails leaves none of its outputs behind.  Two outputs that
    are one file are an error before any is written."""
    import shutil
    import tempfile

    for i, (path, _) in enumerate(outputs):
        if os.path.realpath(path) in {os.path.realpath(p) for p, _ in outputs[:i]}:
            raise ValueError(f"two outputs go to one file: {path}")
    staged = []
    try:
        for path, write in outputs:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            try:
                folder = tempfile.mkdtemp(dir=os.path.dirname(os.path.abspath(path)))
            except OSError as exc:  # name the output, not the folder
                raise OSError(exc.errno, exc.strerror, path) from None
            staged.append(folder)
            write(os.path.join(folder, "out"))
        for (path, _), folder in zip(outputs, staged):
            os.replace(os.path.join(folder, "out"), path)
    finally:
        for folder in staged:
            shutil.rmtree(folder, ignore_errors=True)


_COMMANDS = {
    "generate": _cmd_generate,
    "cycles": _cmd_cycles,
    "force": _cmd_force,
    "condition": _cmd_condition,
    "compare": _cmd_compare,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # ModelError and _UsageError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _UsageError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
