"""Spans around the calls into each framecycles module, installed from outside.

Each public function is wrapped where its caller looks it up: a name bound by
``from ... import`` in the calling module is patched in that module, a
module-attribute call (``metrics.condition_report``) in the defining module.
A span's self time is its duration minus the time of the spans it encloses;
the tracer's own bookkeeping after a call is subtracted from the enclosing
span as well, so it lands in no layer.

Counts come from values the library returns (graph sizes, ``control_log``,
``AdjacencyMatrix.chi``, array shapes) and from ``NoCycleThroughMember``
raised, so they repeat exactly from run to run.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

#: Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    "frames.parse_s": ("s", "lower"),
    "model.build_graph_s": ("s", "lower"),
    "model.build_graph_calls": ("count", "lower"),
    "model.members": ("count", "lower"),
    "model.b1": ("count", "lower"),
    "cycles.min_cycle_s": ("s", "lower"),
    "cycles.min_cycle_calls": ("count", "lower"),
    "cycles.bridges": ("count", "lower"),
    "cycles.gf2_s": ("s", "lower"),
    "cycles.betti_s": ("s", "lower"),
    "cycles.betti_calls": ("count", "lower"),
    **{f"basis.alg{k}_s": ("s", "lower") for k in range(1, 6)},
    "basis.baseline_s": ("s", "lower"),
    "basis.self_s": ("s", "lower"),
    "basis.candidate_use_ratio": ("ratio", "higher"),
    "basis.betti_disagreements": ("count", "lower"),
    "basis.topups": ("count", "lower"),
    "basis.cd_s": ("s", "lower"),
    "basis.xd": ("count", "lower"),
    "force.fm_s": ("s", "lower"),
    "force.b1_s": ("s", "lower"),
    "force.g_s": ("s", "lower"),
    "force.solve_s": ("s", "lower"),
    "force.dense_bytes": ("bytes", "lower"),
    "force.g_block_fill": ("ratio", "lower"),
    "metrics.condition_s": ("s", "lower"),
    "render.sparsity_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

#: Self-time metrics and the spans whose self time each one sums.
_SELF_TIME = {
    "frames.parse_s": ("frames",),
    "model.build_graph_s": ("model",),
    "cycles.min_cycle_s": ("cycles.min_cycle",),
    "cycles.gf2_s": ("cycles.gf2",),
    "cycles.betti_s": ("cycles.betti",),
    "basis.self_s": tuple(f"basis.alg{k}" for k in range(1, 6)) + ("basis.baseline",),
    "basis.cd_s": ("basis.cd",),
    "force.fm_s": ("force.fm",),
    "force.b1_s": ("force.b1",),
    "force.g_s": ("force.g",),
    "force.solve_s": ("force.solve",),
    "metrics.condition_s": ("metrics.condition",),
    "render.sparsity_s": ("render.sparsity",),
    "cli.self_s": ("cli",),
}
#: Inclusive-time metrics: the whole span, children included.
_TOTAL_TIME = {f"basis.alg{k}_s": f"basis.alg{k}" for k in range(1, 6)}
_TOTAL_TIME["basis.baseline_s"] = "basis.baseline"


class Tracer:
    """Collects span times and counts for one pass over a workload's commands."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[float] = []  # per open span: time covered by its children
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def wrap(self, fn, name, observe=None):
        """Wrap *fn* in a span; *name* is a string or a function of the call's args.

        *observe(args, result, exc)* runs after the span closes; its time is
        charged to no layer.
        """
        def traced(*args, **kwargs):
            open_spans = self._open
            open_spans.append(0.0)
            start = perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as raised:
                exc = raised
                raise
            finally:
                end = perf_counter()
                children = open_spans.pop()
                span = name if isinstance(name, str) else name(args)
                self.total_s[span] += end - start
                self.self_s[span] += end - start - children
                if observe is not None:
                    observe(args, result, exc)
                if open_spans:
                    open_spans[-1] += perf_counter() - start

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name, observe=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, observe))

    def install(self) -> None:
        """Wrap the public functions of every framecycles layer at their call sites."""
        import framecycles.basis as basis
        import framecycles.cli as cli
        import framecycles.cycles as cycles
        import framecycles.force as force
        import framecycles.frames as frames
        import framecycles.metrics as metrics
        import framecycles.render as render

        self._bridge = cycles.NoCycleThroughMember
        self.patch(frames, "parse_model", "frames")
        self.patch(frames, "parse_load_case", "frames")
        self.patch(cli, "build_graph", "model", self._observe_graph)

        self.patch(basis, "generate_basis", lambda a: f"basis.alg{a[1].id}", self._observe_basis)
        self.patch(basis, "baseline_tree_basis", "basis.baseline")
        self.patch(basis, "min_cycle_on_member", "cycles.min_cycle", self._observe_min_cycle)
        self.patch(cycles.CycleSpace, "is_independent", "cycles.gf2")
        self.patch(cycles.CycleSpace, "add", "cycles.gf2")
        self.patch(basis, "admissible_expansion", "cycles.betti", self._observe_betti)
        self.patch(cli, "incidence_matrix", "basis.cd")
        self.patch(cli, "adjacency_matrix", "basis.cd", self._observe_adjacency)

        for owner in (cli, force):
            self.patch(owner, "unassembled_flexibility", "force.fm", self._observe_array)
            self.patch(owner, "build_b1", "force.b1", self._observe_array)
            self.patch(owner, "assemble_g", "force.g", self._observe_g)
        self.patch(force, "solve_force_method", "force.solve")
        self.patch(metrics, "condition_report", "metrics.condition")
        self.patch(render, "render_sparsity", "render.sparsity")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counts from returned values -------------------------------------------

    def _observe_graph(self, args, graph, exc) -> None:
        if graph is None:
            return
        self.counts["model.build_graph_calls"] += 1
        self.counts["model.members"] = len(graph.members)
        self.counts["model.b1"] = len(graph.members) - len(graph.nodes) + graph.b0

    def _observe_min_cycle(self, args, cycle, exc) -> None:
        self.counts["cycles.min_cycle_calls"] += 1
        if isinstance(exc, self._bridge):
            self.counts["cycles.bridges"] += 1
        elif cycle is not None:
            self.counts["basis.candidates_built"] += 1

    def _observe_betti(self, args, verdict, exc) -> None:
        self.counts["cycles.betti_calls"] += 1

    def _observe_adjacency(self, args, adjacency, exc) -> None:
        if adjacency is not None:
            self.counts["basis.xd"] += adjacency.chi

    def _observe_basis(self, args, basis, exc) -> None:
        if basis is None:
            return
        log = basis.control_log
        accepted = sum(1 for _, independent, _ in log if independent)
        self.counts["basis.candidates_examined"] += len(log)
        self.counts["basis.betti_disagreements"] += sum(1 for _, i, b in log if i != b)
        self.counts["basis.topups"] += len(basis.cycles) - accepted

    def _observe_array(self, args, array, exc) -> None:
        if array is not None:
            self.counts["force.dense_bytes"] += array.nbytes

    def _observe_g(self, args, G, exc) -> None:
        if G is None:
            return
        self.counts["force.dense_bytes"] += G.nbytes
        n = G.shape[0] // 3
        blocks = (G.reshape(n, 3, n, 3) != 0).any(axis=(1, 3))
        self.counts["force.g_blocks_nonzero"] += int(blocks.sum())
        self.counts["force.g_blocks"] += n * n

    # -- results ---------------------------------------------------------------

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass (overhead excluded)."""
        out: dict[str, float] = {}
        for metric, spans in _SELF_TIME.items():
            out[metric] = sum(self.self_s.get(s, 0.0) for s in spans)
        for metric, span in _TOTAL_TIME.items():
            out[metric] = self.total_s.get(span, 0.0)
        c = self.counts
        for metric in (
            "model.build_graph_calls", "model.members", "model.b1",
            "cycles.min_cycle_calls", "cycles.bridges", "cycles.betti_calls",
            "basis.betti_disagreements", "basis.topups", "basis.xd", "force.dense_bytes",
        ):
            out[metric] = c.get(metric, 0)
        built = c.get("basis.candidates_built", 0)
        out["basis.candidate_use_ratio"] = (
            c.get("basis.candidates_examined", 0) / built if built else 0.0
        )
        blocks = c.get("force.g_blocks", 0)
        out["force.g_block_fill"] = c.get("force.g_blocks_nonzero", 0) / blocks if blocks else 0.0
        return out


def is_count(metric: str) -> bool:
    return PER_LAYER[metric][0] != "s"


def summarize(passes: list[dict[str, float]], overhead_s: float) -> tuple[dict, list[str]]:
    """Median times over traced passes; counts must agree between passes."""
    errors = []
    out = {}
    for metric in PER_LAYER:
        if metric == "trace.overhead_s":
            out[metric] = overhead_s
            continue
        values = [p[metric] for p in passes]
        if is_count(metric):
            if len(set(values)) != 1:
                errors.append(f"{metric} differs between passes: {values}")
            out[metric] = values[0]
        else:
            out[metric] = statistics.median(values)
    return out, errors
