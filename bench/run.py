"""framecycles benchmark: one workload, timed end to end or traced layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...   # every workload, one table

The workload's frame (and load) files are generated from the seed; the
commands then run in-process through ``framecycles.cli.main`` in a closed
loop, one caller, each command issued when the previous one returned, with
stdout captured.  Passes over the command list repeat until S seconds have
gone (no pass starts that would likely end after them); every pass must
print exactly what the first printed, and the first pass is checked by the
gate (``gate.py``).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics: report_s (median pass wall time), setup_s (median of
fresh-interpreter imports of the package), peak_rss_mb (after the first
pass) and pass_ratio (commands that passed the gate / commands attempted;
its complement is the fail ratio printed above it).  The two times are
scaled to the machine's reference speed by a probe timed around every
command and import (``speed.py``); the raw wall times are printed above
the JSON line.  With ``--trace 1`` passes alternate between untraced and
traced, and the JSON holds the per-layer metrics of ``tracing.py`` plus
the tracing overhead.

BLAS and OpenMP run on BLAS_THREADS threads, pinned below before numpy loads.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from time import perf_counter  # noqa: E402

import speed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
REFERENCE = os.path.join(HERE, "reference")
DEFAULT_SEED = 0
SETUP_REPEATS = 15
END_TO_END = {
    "report_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}
_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, {src!r})\n"
    "import framecycles.cli\n"
    "sys.stdout.write(repr(time.perf_counter()))\n"
)


class ProgramMissing(RuntimeError):
    """The checkout holds no framecycles sources next to the benchmark."""


def import_program():
    """Import framecycles from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "framecycles", "__init__.py")):
        raise ProgramMissing(f"no framecycles package under {SRC}")
    sys.path.insert(0, SRC)
    import framecycles.cli

    if not os.path.abspath(framecycles.cli.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"framecycles imported from {framecycles.cli.__file__}")
    return framecycles.cli


@dataclass
class Result:
    label: str
    stdout: str
    output: str | None  # content of the file the command wrote
    error: str | None  # raised, exited non-zero
    seconds: float = 0.0  # wall time
    scaled: float = 0.0  # wall time at the probe's reference speed


@contextlib.contextmanager
def workspace(workload, seed: int):
    """A scratch directory under bench/_work for one run's files, removed after."""
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=WORK)
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


def run_pass(commands, main, probe) -> tuple[float, list[Result]]:
    """Issue every command once, in order, with the speed probe run before
    each and after the last; returns (wall seconds of the commands, results)."""
    for cmd in commands:
        if cmd.output and os.path.exists(cmd.output):
            os.remove(cmd.output)
    captured = []
    probes = [probe.seconds()]
    for cmd in commands:
        out, err = io.StringIO(), io.StringIO()
        error = None
        issued = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(cmd.argv)
            if code != 0:
                error = f"exit code {code}: {err.getvalue().strip()}"
        except SystemExit as exc:
            error = f"exit {exc.code}: {err.getvalue().strip()}"
        except Exception:  # a command that raises is counted, not fatal
            error = traceback.format_exc(limit=-3)
        captured.append((cmd, out.getvalue(), error, perf_counter() - issued))
        probes.append(probe.seconds())
    results = []
    for i, (cmd, stdout, error, seconds) in enumerate(captured):
        content = None
        if cmd.output and os.path.exists(cmd.output):
            with open(cmd.output) as fh:
                content = fh.read()
        scaled = speed.scale(seconds, probes[i], probes[i + 1])
        results.append(Result(cmd.label, stdout, content, error, seconds, scaled))
    return sum(r.seconds for r in results), results


def gate_first_pass(workload, inputs, seed: int, results: list[Result]) -> dict[str, list[str]]:
    """Errors per command label for one pass, reference outputs included."""
    import gate

    checker = gate.Gate(inputs.frame, inputs.frame_path, inputs.loads)
    reference = load_reference(workload) if seed == DEFAULT_SEED else None
    verdicts = {}
    for r in sorted(results, key=lambda r: not r.label.startswith("cycles")):
        if r.error:
            verdicts[r.label] = [r.error]
            continue
        errors, summary = checker.check(r.label, r.stdout, r.output)
        if reference is not None:
            errors += gate.reference_errors(r.label, summary, reference[r.label])
        verdicts[r.label] = errors
    return verdicts


def load_reference(workload) -> dict | None:
    """Stored outputs for the default seed, if stored for this workload's size."""
    path = os.path.join(REFERENCE, f"{workload.name}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        doc = json.load(fh)
    return doc["outputs"] if tuple(doc["dims"]) == workload.dims else None


def count_failures(passes: list[list[Result]], verdicts: dict[str, list[str]]) -> int:
    """Commands that raised, exited non-zero, failed the gate, or printed other
    output than the gated first pass."""
    first = {r.label: r for r in passes[0]}
    failed = 0
    for results in passes:
        for r in results:
            same = r.stdout == first[r.label].stdout and r.output == first[r.label].output
            if r.error or verdicts[r.label] or not same:
                failed += 1
    return failed


def measure_setup(probe, repeats: int = SETUP_REPEATS) -> tuple[float, float]:
    """Median time from a fresh interpreter's start to framecycles imported:
    (wall seconds, seconds at the probe's reference speed)."""
    argv = [sys.executable, "-c", _IMPORT_PROBE.format(src=SRC)]
    subprocess.run(argv, check=True, capture_output=True)  # writes bytecode caches
    wall, scaled = [], []
    before = probe.seconds()
    for _ in range(repeats):
        start = perf_counter()
        done = subprocess.run(argv, check=True, capture_output=True, text=True)
        wall.append(float(done.stdout) - start)
        after = probe.seconds()
        scaled.append(speed.scale(wall[-1], before, after))
        before = after
    return statistics.median(wall), statistics.median(scaled)


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result object printed as JSON."""
    import tracing
    import workloads

    cli = import_program()
    probe = speed.Probe()
    setup_wall_s, setup_s = (None, None) if trace else measure_setup(probe)
    with workspace(workload, seed) as workdir:
        inputs = workloads.make_inputs(workload, seed, workdir)
        plain, traced, layer_passes = [], [], []
        peak_rss_mb = None
        deadline = perf_counter() + seconds
        while True:
            tracer = tracing.Tracer() if trace and len(plain) > len(traced) else None
            gc.collect()
            pass_start = perf_counter()
            if tracer is None:
                elapsed, results = run_pass(inputs.commands, cli.main, probe)
                plain.append((elapsed, results))
            else:
                tracer.install()
                try:
                    elapsed, results = run_pass(
                        inputs.commands, tracer.wrap(cli.main, "cli"), probe
                    )
                finally:
                    tracer.uninstall()
                traced.append((elapsed, results))
                layer_passes.append(tracer.pass_metrics())
            if peak_rss_mb is None:
                # Imports plus one pass is what running the commands costs; later
                # passes only add the in-process loop's allocator fragmentation.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # Stop before a pass that would likely end after the deadline.  A trace
            # run needs one traced pass and an untraced one after the cold first.
            now = perf_counter()
            if now + (now - pass_start) > deadline and (
                not trace or (traced and len(plain) > 1)
            ):
                break

        passes = [results for _, results in plain + traced]
        verdicts = gate_first_pass(workload, inputs, seed, passes[0])

    attempted = sum(len(p) for p in passes)
    failed = count_failures(passes, verdicts)
    errors = [f"{label}: {e}" for label, errs in verdicts.items() for e in errs]
    report = [elapsed for elapsed, _ in plain]
    report_scaled = [sum(r.scaled for r in results) for _, results in plain]
    summary = {
        "workload": workload.name,
        "seed": seed,
        "passes": len(report),
        "report_s_min": min(report),
        "report_s_max": max(report),
        "report_wall_s": statistics.median(report),
        "report_s_passes": report_scaled,
        "setup_wall_s": setup_wall_s,
        "probe_s": statistics.median(probe.samples),
        "fail_ratio": failed / attempted,
        "command_s": {
            r.label: statistics.median(p[i].seconds for p in passes)
            for i, r in enumerate(passes[0])
        },
        "env": environment(),
    }
    if trace:
        overhead = statistics.median(e for e, _ in traced) - statistics.median(report[1:])
        metrics, count_errors = tracing.summarize(layer_passes, overhead)
        errors += count_errors
        summary["traced_passes"] = len(traced)
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    else:
        metrics = {
            "report_s": statistics.median(report_scaled),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "pass_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END
    return {
        "summary": summary,
        "errors": errors,
        "result": {
            "correct": failed == 0 and not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def print_report(outcome: dict) -> None:
    s = outcome["summary"]
    result = outcome["result"]
    print(
        f"workload {s['workload']} seed {s['seed']}: {s['passes']} untraced passes"
        + (f", {s['traced_passes']} traced" if "traced_passes" in s else "")
        + f"; pass wall time {s['report_s_min']:.4f}..{s['report_s_max']:.4f} s"
    )
    if s["setup_wall_s"] is not None:
        print(
            f"  unscaled: report wall time median {s['report_wall_s']:.6g} s,"
            f" setup wall time median {s['setup_wall_s']:.6g} s;"
            f" speed probe median {s['probe_s']:.6g} s (reference {speed.REFERENCE_S} s)"
        )
        print("  scaled pass times: " + " ".join(f"{t:.4f}" for t in s["report_s_passes"]))
    print(f"  fail_ratio = {s['fail_ratio']:.6g} ({result['failed']} of {result['attempted']} commands)")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print("  median command s: " + ", ".join(f"{k} {v:.4f}" for k, v in s["command_s"].items()))
    print("  env " + json.dumps(s["env"], sort_keys=True))
    for e in outcome["errors"][:20]:
        print(f"gate: {e}", file=sys.stderr)


def run_all(args) -> dict:
    """Every workload in its own fresh process (peak RSS is per process)."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with code {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            outcome = run_workload(
                workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
            )
            print_report(outcome)
            result = outcome["result"]
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
