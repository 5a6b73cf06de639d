"""Store the reference outputs that default-seed runs are compared with.

    python3 bench/make_reference.py [WORKLOAD ...]

Runs each workload's commands once for the default seed and writes the
parsed outputs to ``reference/<workload>.json``.  Run it only on a commit
whose outputs are trusted; it refuses to store outputs that fail the gate.
"""

from __future__ import annotations

import json
import os
import sys

import run  # first: it pins the BLAS threads before numpy loads

import gate  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def reference_outputs(workload, cli) -> dict:
    with run.workspace(workload, run.DEFAULT_SEED) as workdir:
        inputs = workloads.make_inputs(workload, run.DEFAULT_SEED, workdir)
        _, results = run.run_pass(inputs.commands, cli.main, speed.Probe())
        checker = gate.Gate(inputs.frame, inputs.frame_path, inputs.loads)
        outputs = {}
        for r in results:
            errors, summary = checker.check(r.label, r.stdout, r.output) if not r.error else ([r.error], {})
            if errors:
                raise SystemExit(f"{workload.name} {r.label} fails the gate: {errors[:3]}")
            outputs[r.label] = summary
    return outputs


def main(names: list[str]) -> int:
    cli = run.import_program()
    os.makedirs(run.REFERENCE, exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        doc = {
            "workload": name,
            "seed": run.DEFAULT_SEED,
            "dims": list(workload.dims),
            "outputs": reference_outputs(workload, cli),
        }
        path = os.path.join(run.REFERENCE, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
