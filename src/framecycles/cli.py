"""Command-line front end: frame generation, algorithm runs, comparison
reports, and sparsity/cycle renderings.

Reports are deterministic byte-for-byte: fixed column layout, floats at six
significant digits, and fully deterministic generation underneath.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import dataclass, field

from framecycles import basis as basis_mod
from framecycles import frames, metrics, render
from framecycles.basis import AlgorithmSpec, CycleBasis, adjacency_matrix, incidence_matrix
from framecycles.force import assemble_g, build_b1, unassembled_flexibility
from framecycles.model import (
    ModelError,
    StructuralModel,
    build_graph,
    classify_members,
    cycle_rank,
)

ALGORITHM_IDS = (1, 2, 3, 4, 5)
BASELINE = "baseline"


@dataclass
class RunConfig:
    """Inputs for one comparison run."""

    model: str  # frame file path or generator spec ("grid:3x4:weak-beams")
    algorithms: list = field(default_factory=lambda: [1, 2, 3, 4])
    weight_variant: str = "sum"
    alpha: int = 2
    alg5_ordering: str | None = None
    precision: int = 16
    csv_path: str | None = None


def load_or_generate(spec: str) -> StructuralModel:
    """Resolve a model argument: a frame file path or a grid generator spec.

    Generator specs: ``grid:STORIESxSPANS[:PATTERN]`` and
    ``grid3d:STORIESxSPANS_XxSPANS_Y[:PATTERN]``.
    """
    if spec.startswith("grid:") or spec.startswith("grid3d:"):
        kind, dims, *rest = spec.split(":")
        pattern = rest[0] if rest else "homogeneous"
        try:
            sizes = [int(v) for v in dims.split("x")]
        except ValueError:
            raise ModelError(f"bad generator spec '{spec}'") from None
        if kind == "grid" and len(sizes) == 2:
            return frames.generate_grid(sizes[0], sizes[1], pattern=pattern)
        if kind == "grid3d" and len(sizes) == 3:
            return frames.generate_grid3d(sizes[0], sizes[1], sizes[2], pattern=pattern)
        raise ModelError(f"bad generator spec '{spec}'")
    return frames.parse_model(spec)


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    return f"{value:.6g}"


def build_basis(
    model: StructuralModel,
    algorithm,
    weight_variant: str = "sum",
    alpha: int = 2,
    alg5_ordering: str | None = None,
) -> CycleBasis:
    graph = build_graph(model, variant=weight_variant)
    if algorithm == BASELINE:
        return basis_mod.baseline_tree_basis(graph)
    spec = AlgorithmSpec.for_id(int(algorithm), alg5_ordering)
    partition = classify_members(graph, alpha) if spec.na_avoidance else None
    return basis_mod.generate_basis(graph, spec, partition)


def run_compare(config: RunConfig):
    """Run the selected algorithms side by side.

    Returns (table text, csv text, row dicts).  3D models degrade to the
    combinatorial columns with '-' placeholders for the numeric metrics.
    """
    return _compare_model(load_or_generate(config.model), config)


def _compare_model(model: StructuralModel, config: RunConfig):
    if not config.algorithms:
        raise ModelError("no algorithms selected")
    Fm = unassembled_flexibility(model) if model.ndim == 2 else None
    rows = []
    for algorithm in config.algorithms:
        cycle_basis = build_basis(
            model, algorithm, config.weight_variant, config.alpha, config.alg5_ordering
        )
        D = adjacency_matrix(incidence_matrix(cycle_basis))
        row = {
            "algorithm": str(algorithm),
            "b1": len(cycle_basis),
            "XD": D.chi,
            "sumL": cycle_basis.total_length(),
            "overlapL": cycle_basis.overlap_length(),
            "overlapW": _fmt(cycle_basis.overlap_weight()),
        }
        if Fm is not None:
            G = assemble_g(build_b1(model, cycle_basis), Fm)
            report = metrics.condition_report(G, D.D, config.precision)
            row.update(
                PL=_fmt(report.pl),
                PN=_fmt(report.pn),
                PDET=_fmt(report.pdet),
                g=_fmt(report.good_digits),
            )
        else:
            row.update(PL="-", PN="-", PDET="-", g="-")
        rows.append(row)

    headers = ["algorithm", "b1", "XD", "sumL", "overlapL", "overlapW", "PL", "PN", "PDET", "g"]
    table_rows = [[str(r[h]) for h in headers] for r in rows]
    widths = [
        max(len(h), *(len(tr[i]) for tr in table_rows)) for i, h in enumerate(headers)
    ]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for tr in table_rows:
        lines.append("  ".join(v.ljust(widths[i]) for i, v in enumerate(tr)).rstrip())
    table = "\n".join(lines) + "\n"

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for tr in table_rows:
        writer.writerow(tr)
    return table, buf.getvalue(), rows


def _parse_algorithms(raw: str) -> list:
    algorithms = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if token == BASELINE:
            algorithms.append(BASELINE)
        else:
            try:
                value = int(token)
            except ValueError:
                raise ModelError(f"unknown algorithm '{token}'") from None
            if value not in ALGORITHM_IDS:
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


def _build_parser() -> argparse.ArgumentParser:
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
    ren.add_argument("--block", action="store_true", help="3x3-block sparsity view")

    return parser


def _one_algorithm(raw: str):
    return _parse_algorithms(raw)[0]


def _cmd_generate(args) -> int:
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
    return 0


def _cmd_cycles(args) -> int:
    model = load_or_generate(args.model)
    cycle_basis = build_basis(
        model, _one_algorithm(args.algorithm), args.weight_variant, args.alpha, args.alg5_ordering
    )
    graph = cycle_basis.graph
    print(f"b1 = {cycle_rank(graph)}")
    for i, c in enumerate(cycle_basis.cycles, start=1):
        members = ",".join(str(m) for m in sorted(c.members))
        print(
            f"cycle {i}: generator={c.generator} length={c.length} "
            f"weight={_fmt(c.weight)} members=[{members}]"
        )
    return 0


def _cmd_force(args) -> int:
    from framecycles.force import solve_force_method

    model = load_or_generate(args.model)
    loads = frames.parse_load_case(args.loads)
    cycle_basis = build_basis(
        model, _one_algorithm(args.algorithm), args.weight_variant, args.alpha, args.alg5_ordering
    )
    solution = solve_force_method(model, cycle_basis, loads)
    print("member  N  V  M")
    for i, mid in enumerate(solution.member_order):
        n, v, m = solution.r[3 * i : 3 * i + 3]
        print(f"{mid}  {_fmt(n)}  {_fmt(v)}  {_fmt(m)}")
    print(f"compatibility residual = {_fmt(solution.compatibility_residual)}")
    return 0


def _cmd_condition(args) -> int:
    model = load_or_generate(args.model)
    if model.ndim != 2:
        print("error: condition report requires a planar model", file=sys.stderr)
        return 1
    cycle_basis = build_basis(
        model, _one_algorithm(args.algorithm), args.weight_variant, args.alpha, args.alg5_ordering
    )
    D = adjacency_matrix(incidence_matrix(cycle_basis))
    G = assemble_g(build_b1(model, cycle_basis), unassembled_flexibility(model))
    report = metrics.condition_report(G, D.D, args.precision)
    print(f"PL = {_fmt(report.pl)}")
    print(f"PN = {_fmt(report.pn)} (log10 {_fmt(report.pn_log10)})")
    print(f"PDET = {_fmt(report.pdet)} (log10 {_fmt(report.pdet_log10)})")
    print(f"X(D) = {report.xd}")
    print(f"good digits (p={report.precision}) = {_fmt(report.good_digits)}")
    return 0


def _cmd_compare(args) -> int:
    config = RunConfig(
        model=args.model,
        algorithms=_parse_algorithms(args.algorithms),
        weight_variant=args.weight_variant,
        alpha=args.alpha,
        alg5_ordering=args.alg5_ordering,
        precision=args.precision,
        csv_path=args.csv,
    )
    model = load_or_generate(config.model)
    if model.ndim != 2:
        print("warning: 3D model, reporting combinatorial columns only", file=sys.stderr)
    table, csv_text, _rows = _compare_model(model, config)
    sys.stdout.write(table)
    if config.csv_path:
        with open(config.csv_path, "w") as fh:
            fh.write(csv_text)
    return 0


def _cmd_render(args) -> int:
    model = load_or_generate(args.model)
    cycle_basis = build_basis(
        model, _one_algorithm(args.algorithm), args.weight_variant, args.alpha, args.alg5_ordering
    )
    if not args.sparsity and not args.frame:
        print("error: choose --sparsity and/or --frame output paths", file=sys.stderr)
        return 2
    if args.sparsity:
        D = adjacency_matrix(incidence_matrix(cycle_basis))
        if args.block and model.ndim == 2:
            G = assemble_g(build_b1(model, cycle_basis), unassembled_flexibility(model))
            render.render_sparsity(G, args.sparsity, block_size=3)
        else:
            render.render_sparsity(D.D, args.sparsity)
        print(f"wrote {args.sparsity}")
    if args.frame:
        render.render_frame(model, cycle_basis, args.frame)
        print(f"wrote {args.frame}")
    return 0


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
        return _COMMANDS[args.command](args)
    except (ModelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
