"""Self-test of the benchmark on tiny frames (3x3 planar grids, a 2x3x3 space frame).

    python3 bench/selftest.py

Checks that
  1. every metric of BENCHMARK.json is printed, with its unit, for every
     workload, untraced and traced;
  2. count metrics repeat exactly between two traced runs;
  3. the gate counts a failure when fed corrupted outputs (a basis with one
     cycle duplicated, a wrong X(D), a compatibility residual over its limit,
     a pass that prints other output than the first) and none on clean ones;
  4. the benchmark exits non-zero, printing no result, next to no program.
Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import re
import shutil
import subprocess
import sys

import run
import speed
import tracing
import workloads

TINY = {"planar-compare": (3, 3), "planar-force": (3, 3), "space-compare": (2, 3, 3)}
SEED = 5


def benchmark_spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_main(argv: list[str]) -> tuple[list[str], dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    assert code == 0, f"run.main{argv} exited {code}"
    lines = out.getvalue().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_printed_metrics(spec: dict) -> None:
    for name in TINY:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = ["--workload", name, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
            report, result = run_main(argv)
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == expected, (name, trace, set(printed) ^ set(expected))
            for metric, unit in expected.items():
                assert any(
                    line.strip().startswith(f"{metric} = ") and line.endswith(f" {unit}")
                    for line in report
                ), (name, metric)
    print("ok: every metric printed with its unit")


def check_counts_repeat() -> None:
    for name in TINY:
        argv = ["--workload", name, "--seed", str(SEED), "--seconds", "0", "--trace", "1"]
        first, second = (run_main(argv)[1]["metrics"] for _ in range(2))
        counts = [m for m in tracing.PER_LAYER if tracing.is_count(m)]
        differing = [m for m in counts if first[m]["value"] != second[m]["value"]]
        assert not differing, (name, differing)
    print("ok: count metrics repeat exactly")


def _corrupt_cycles(stdout: str) -> str:
    """Give cycle 2 the members of cycle 1."""
    lines = stdout.splitlines(keepends=True)
    members = lines[1][lines[1].index(" members=") :]
    lines[2] = lines[2][: lines[2].index(" members=")] + members
    return "".join(lines)


def _corrupt_xd(stdout: str) -> str:
    """Add 2 to X(D), the third column, of the first row."""
    lines = stdout.splitlines(keepends=True)
    parts = re.split(r"(\s+)", lines[1])  # tokens at even indexes
    parts[4] = str(int(parts[4]) + 2)
    lines[1] = "".join(parts)
    return "".join(lines)


def _corrupt_residual(stdout: str) -> str:
    head, _, _ = stdout.rpartition("compatibility residual = ")
    return head + "compatibility residual = 0.001\n"


def check_gate_counts_failures() -> None:
    cli = run.import_program()
    cases = {
        "planar-compare": [("cycles-1", _corrupt_cycles), ("compare", _corrupt_xd)],
        "planar-force": [("force-3", _corrupt_residual)],
    }
    for name, corruptions in cases.items():
        workload = workloads.WORKLOADS[name]
        with run.workspace(workload, SEED) as workdir:
            inputs = workloads.make_inputs(workload, SEED, workdir)
            _, clean = run.run_pass(inputs.commands, cli.main, speed.Probe())
            verdicts = run.gate_first_pass(workload, inputs, SEED, clean)
            assert run.count_failures([clean, clean], verdicts) == 0, verdicts

            for label, corrupt in corruptions:
                bad = [
                    run.Result(r.label, corrupt(r.stdout), r.output, r.error)
                    if r.label == label else r
                    for r in clean
                ]
                verdicts = run.gate_first_pass(workload, inputs, SEED, bad)
                assert verdicts[label], (name, label, "gate accepted a corrupted output")
                assert run.count_failures([bad], verdicts) == 1, (name, label)
                # The same corruption in a later pass breaks agreement with the first.
                clean_verdicts = run.gate_first_pass(workload, inputs, SEED, clean)
                assert run.count_failures([clean, bad], clean_verdicts) == 1, (name, label)
    print("ok: the gate counts corrupted outputs as failures")


def check_exits_without_program() -> None:
    lone = os.path.join(run.WORK, "lone")
    shutil.rmtree(lone, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, os.path.join(lone, "bench"), ignore=shutil.ignore_patterns("_work"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), lone)
        argv = [sys.executable, "bench/run.py", "--workload", "planar-compare",
                "--seed", "0", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(argv, cwd=lone, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(lone, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(run.WORK)
    assert done.returncode != 0 and not done.stdout.strip(), (done.returncode, done.stdout)
    print("ok: no program, no result, non-zero exit")


def main() -> int:
    spec = benchmark_spec()
    for name, dims in TINY.items():
        workloads.WORKLOADS[name] = dataclasses.replace(workloads.WORKLOADS[name], dims=dims)
    check_printed_metrics(spec)
    check_counts_repeat()
    check_gate_counts_failures()
    check_exits_without_program()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
