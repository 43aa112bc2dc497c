"""Per-layer metrics of a traced run, and the import breakdown.

Conventions for a name ``<layer>.<function>.<statistic>``:

* ``calls``           calls per operation of the workload (a session for
                      ensemble-replay and long-session; one ``run`` plus one
                      ``bench`` command for cli-suite)
* ``ms`` / ``us``     mean inclusive time per call
* ``self_ms`` / ``self_us``  mean self time per call (minus child spans)
* ``calls_per_step`` / ``us_per_step``  per monitor step of the pass

A function the program no longer has, or no longer calls, reads 0.
``moves`` names the end-to-end metric and workload the layer should move.
"""

from __future__ import annotations

import statistics

# name, unit, better, span, statistic, moves
SPAN_METRICS = (
    ("parser.load_document.calls", "count", "lower", "parser.load_document", "calls",
     "ops_per_s (bench command) on cli-suite; nothing elsewhere"),
    ("parser.load_document.ms", "ms", "lower", "parser.load_document", "ms",
     "ops_per_s (bench command) on cli-suite"),
    ("parser.parse_contract.ms", "ms", "lower", "parser.parse_contract", "ms",
     "setup_s on long-session"),
    ("bench.load_suite.ms", "ms", "lower", "bench.load_suite", "ms",
     "ops_per_s (bench command) on cli-suite"),
    ("bench.score_suite.ms", "ms", "lower", "bench.score_suite", "ms",
     "ops_per_s (bench command) on cli-suite"),
    ("bench.aggregate.ms", "ms", "lower", "bench.aggregate", "ms",
     "ops_per_s (bench command) on cli-suite"),
    ("composition.compose_chain.calls", "count", "lower", "composition.compose_chain", "calls",
     "ops_per_s (bench command) on cli-suite"),
    ("composition.compose_chain.ms", "ms", "lower", "composition.compose_chain", "ms",
     "ops_per_s (bench command) on cli-suite"),
    ("model.ExecutionTrace.from_dict.ms", "ms", "lower", "model.ExecutionTrace.from_dict", "ms",
     "ops_per_s (bench command) on cli-suite"),
    ("model.resolve_path.calls_per_step", "count", "lower", "model.resolve_path",
     "calls_per_step", "ops_per_s on long-session, less so on ensemble-replay"),
    ("model.resolve_path.us_per_step", "us", "lower", "model.resolve_path", "us_per_step",
     "ops_per_s on long-session, less so on ensemble-replay"),
    ("expressions.eval_expression.calls_per_step", "count", "lower",
     "expressions.eval_expression", "calls_per_step",
     "ops_per_s on long-session, less so on ensemble-replay"),
    ("expressions.eval_expression.us_per_step", "us", "lower",
     "expressions.eval_expression", "us_per_step",
     "ops_per_s on long-session, less so on ensemble-replay"),
    ("engine.evaluate_step.us", "us", "lower", "engine.evaluate_step", "us",
     "ops_per_s on long-session, less so on ensemble-replay"),
    ("engine.evaluate_step.calls_per_step", "count", "lower", "engine.evaluate_step",
     "calls_per_step", "op_p90_us on long-session (above 1: recovery re-evaluation)"),
    ("engine.evaluate_constraint.calls_per_step", "count", "lower",
     "engine.evaluate_constraint", "calls_per_step",
     "ops_per_s on long-session (finalize), less so on ensemble-replay"),
    ("engine.constraint_timelines.ms", "ms", "lower", "engine.constraint_timelines", "ms",
     "ops_per_s on long-session (finalize), less so on ensemble-replay"),
    ("engine.check_deterministic.ms", "ms", "lower", "engine.check_deterministic", "ms",
     "ops_per_s on long-session (finalize), less so on ensemble-replay"),
    ("engine.classify_outcome.ms", "ms", "lower", "engine.classify_outcome", "ms",
     "ops_per_s on long-session (finalize), less so on ensemble-replay"),
    ("monitor.finalize.self_ms", "ms", "lower", "monitor.SessionMonitor.finalize", "self_ms",
     "ops_per_s on long-session (finalize), less so on ensemble-replay"),
    ("drift.update_drift.us", "us", "lower", "drift.update_drift", "us",
     "ops_per_s on ensemble-replay; no change on long-session"),
    ("drift.jsd.calls", "count", "lower", "drift.jsd", "calls",
     "ops_per_s on ensemble-replay; no change on long-session"),
    ("drift.jsd.us", "us", "lower", "drift.jsd", "us",
     "ops_per_s on ensemble-replay; no change on long-session"),
    ("drift.SessionMetrics.compute.us", "us", "lower", "drift.SessionMetrics.compute", "us",
     "ops_per_s on ensemble-replay; no change on long-session"),
    ("monitor.SessionMonitor.init.us", "us", "lower", "monitor.SessionMonitor.init", "us",
     "ops_per_s on ensemble-replay"),
    ("monitor.pdk_verdict.ms", "ms", "lower", "monitor.pdk_verdict", "ms",
     "ops_per_s on ensemble-replay"),
    ("monitor.step.self_us", "us", "lower", "monitor.SessionMonitor.step", "self_us",
     "ops_per_s and op_p90_us on long-session"),
    ("monitor.SessionReport.to_json.ms", "ms", "lower", "monitor.SessionReport.to_json", "ms",
     "op_p90_us (run command) on cli-suite"),
    ("monitor.recovery.hook_calls", "count", "lower", "harness.hook", "calls",
     "op_p90_us on long-session; zero on ensemble-replay"),
    ("monitor.recovery.hook_ms", "ms", "lower", "harness.hook", "ms",
     "the benchmark's own hook, reported so it can be told apart"),
)

# name, unit, better, moves
OTHER_METRICS = (
    ("monitor.recovery.success_ratio", "ratio", "higher",
     "op_p90_us on long-session; zero on ensemble-replay"),
    ("monitor.step.growth", "ratio", "lower", "ops_per_s on long-session"),
    ("import.total_ms", "ms", "lower", "op_p90_us (run command) on cli-suite; setup_s everywhere"),
    ("import.numpy_ms", "ms", "lower", "op_p90_us (run command) on cli-suite; setup_s everywhere"),
    ("import.yaml_ms", "ms", "lower", "op_p90_us (run command) on cli-suite; setup_s everywhere"),
    ("import.agentcontracts_self_ms", "ms", "lower",
     "op_p90_us (run command) on cli-suite; setup_s everywhere"),
    ("tracing.overhead_frac", "ratio", "lower", "none: traced over untraced time, minus 1"),
)

ALL = tuple((m[0], m[1], m[2]) for m in SPAN_METRICS) + tuple(m[:3] for m in OTHER_METRICS)


def _statistic(kind: str, calls: int, total_ns: int, self_ns: int, ops: int, steps: int) -> float:
    if kind == "calls":
        return calls / ops
    if kind == "calls_per_step":
        return calls / steps
    if kind == "us_per_step":
        return total_ns / steps / 1e3
    if not calls:
        return 0.0
    scale = 1e6 if kind.endswith("ms") else 1e3
    return (self_ns if kind.startswith("self") else total_ns) / calls / scale


def step_growth(recorder) -> float:
    """Mean step time in the last tenth of each session over the first
    tenth (steps grouped by the span that called them)."""
    first = last = 0
    for durations in recorder.durations_by_parent("monitor.SessionMonitor.step").values():
        k = len(durations) // 10
        if k:
            first += sum(durations[:k])
            last += sum(durations[-k:])
    return last / first if first else 0.0


def import_breakdown(stderr: str) -> dict:
    """Parse ``python -X importtime`` output: all imports (self times
    summed), numpy and yaml with everything they pull in, and the
    package's own modules (self times)."""
    total = own = 0
    cumulative: dict = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue   # the header line
        name = fields[2].strip()
        total += self_us
        cumulative.setdefault(name, cumulative_us)
        if name == "agentcontracts" or name.startswith("agentcontracts."):
            own += self_us
    return {"import.total_ms": total / 1e3,
            "import.numpy_ms": cumulative.get("numpy", 0) / 1e3,
            "import.yaml_ms": cumulative.get("yaml", 0) / 1e3,
            "import.agentcontracts_self_ms": own / 1e3}


def layer_metrics(traced, overheads: list, imports: list) -> dict:
    """Every per-layer metric, from the first traced pass, the overhead of
    each traced/untraced pair and the import breakdowns."""
    summary = traced.recorder.summary()
    values = {}
    for name, _, _, span, kind, _ in SPAN_METRICS:
        calls, total_ns, self_ns = summary[span]
        values[name] = _statistic(kind, calls, total_ns, self_ns, traced.ops, traced.steps)
    succeeded, attempted = traced.recovery
    values["monitor.recovery.success_ratio"] = succeeded / attempted if attempted else 0.0
    values["monitor.step.growth"] = step_growth(traced.recorder)
    for key in imports[0]:
        values[key] = statistics.median(b[key] for b in imports)
    values["tracing.overhead_frac"] = statistics.median(overheads)
    units = {name: unit for name, unit, _ in ALL}
    return {name: {"value": values[name], "unit": units[name]} for name, _, _ in ALL}
