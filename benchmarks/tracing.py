"""Traced runs: an in-memory span recorder and wrappers around the
program's public names.

A wrapper is bound where the caller looks the name up: every loaded
``agentcontracts`` module whose namespace holds the original function gets
the wrapper in its place (``agentcontracts.monitor.evaluate_step``,
``agentcontracts.engine.resolve_path``, ...), and methods are wrapped on
their class.  A name the program no longer has is listed as absent, and a
name it no longer calls shows zero calls; neither fails the run.

Spans are kept in flat arrays (name, parent span, operation id, start,
end) and written out once the run ends.  A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

# (span name, module that defines it, attribute; "Class.method" for methods)
TRACED = (
    ("parser.load_document", "agentcontracts.parser", "load_document"),
    ("parser.parse_contract", "agentcontracts.parser", "parse_contract"),
    ("bench.load_suite", "agentcontracts.bench", "load_suite"),
    ("bench.score_suite", "agentcontracts.bench", "score_suite"),
    ("bench.aggregate", "agentcontracts.bench", "aggregate"),
    ("composition.compose_chain", "agentcontracts.composition", "compose_chain"),
    ("model.ExecutionTrace.from_dict", "agentcontracts.model", "ExecutionTrace.from_dict"),
    ("model.resolve_path", "agentcontracts.model", "resolve_path"),
    ("expressions.eval_expression", "agentcontracts.expressions", "eval_expression"),
    ("engine.evaluate_step", "agentcontracts.engine", "evaluate_step"),
    ("engine.evaluate_constraint", "agentcontracts.engine", "evaluate_constraint"),
    ("engine.constraint_timelines", "agentcontracts.engine", "constraint_timelines"),
    ("engine.check_deterministic", "agentcontracts.engine", "check_deterministic"),
    ("engine.classify_outcome", "agentcontracts.engine", "classify_outcome"),
    ("drift.update_drift", "agentcontracts.drift", "update_drift"),
    ("drift.jsd", "agentcontracts.drift", "jsd"),
    ("drift.SessionMetrics.compute", "agentcontracts.drift", "SessionMetrics.compute"),
    ("monitor.SessionMonitor.init", "agentcontracts.monitor", "SessionMonitor.__init__"),
    ("monitor.SessionMonitor.step", "agentcontracts.monitor", "SessionMonitor.step"),
    ("monitor.SessionMonitor.finalize", "agentcontracts.monitor", "SessionMonitor.finalize"),
    ("monitor.run_session", "agentcontracts.monitor", "run_session"),
    ("monitor.pdk_verdict", "agentcontracts.monitor", "pdk_verdict"),
    ("monitor.SessionReport.to_json", "agentcontracts.monitor", "SessionReport.to_json"),
)

# Spans the benchmark opens around its own code.
OP = "harness.op"
HOOK = "harness.hook"
SPAN_NAMES = tuple(name for name, _, _ in TRACED) + (OP, HOOK)


class Recorder:
    """Spans of one traced pass, in call order."""

    def __init__(self):
        self.index = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.names = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [-1]
        self.op = -1

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        name_id = self.index[name]
        names, parents, ops = self.names, self.parents, self.ops
        starts, ends, stack = self.starts, self.ends, self.stack
        clock = time.perf_counter_ns
        recorder = self

        def traced(*args, **kwargs):
            span = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(recorder.op)
            ends.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return traced

    # -- output ----------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,op,name,start_ns,end_ns\n")
            for i in range(len(self.starts)):
                fh.write(f"{i},{self.parents[i]},{self.ops[i]},{SPAN_NAMES[self.names[i]]},"
                         f"{self.starts[i]},{self.ends[i]}\n")

    def load(self, path: str, op: int) -> None:
        """Append the spans of a dump, moved to operation ``op``."""
        base = len(self.starts)
        with open(path, "r", encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                _, parent, _, name, start, end = line.rstrip("\n").split(",")
                parent = int(parent)
                self.names.append(self.index[name])
                self.parents.append(parent + base if parent >= 0 else -1)
                self.ops.append(op)
                self.starts.append(int(start))
                self.ends.append(int(end))

    def summary(self) -> dict:
        """Span name -> (calls, inclusive ns, self ns)."""
        n = len(self.starts)
        child = [0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out = {name: [0, 0, 0] for name in SPAN_NAMES}
        for i in range(n):
            duration = self.ends[i] - self.starts[i]
            row = out[SPAN_NAMES[self.names[i]]]
            row[0] += 1
            row[1] += duration
            row[2] += duration - child[i]
        return out

    def durations_by_parent(self, name: str) -> dict:
        """Parent span -> durations (ns) of its child spans named ``name``,
        in call order."""
        name_id = self.index[name]
        out: dict = {}
        for i in range(len(self.starts)):
            if self.names[i] == name_id:
                out.setdefault(self.parents[i], []).append(self.ends[i] - self.starts[i])
        return out


def install(recorder: Recorder) -> tuple:
    """Wrap every name in ``TRACED``; returns (patches, absent names).
    Undo with :func:`uninstall`."""
    importlib.import_module("agentcontracts")
    importlib.import_module("agentcontracts.cli")
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "agentcontracts"
                                     or name.startswith("agentcontracts."))]
    patches, absent = [], []
    for span, module_name, attr in TRACED:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            absent.append(span)
            continue
        *class_path, name = attr.split(".")
        for part in class_path:
            owner = getattr(owner, part, None)
        if class_path:
            raw = vars(owner).get(name) if isinstance(owner, type) else None
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(recorder.wrap(span, raw.__func__))
            elif callable(raw):
                wrapped = recorder.wrap(span, raw)
            else:
                absent.append(span)
                continue
            setattr(owner, name, wrapped)
            patches.append((owner, name, raw))
            continue
        fn = getattr(owner, name, None)
        if not callable(fn):
            absent.append(span)
            continue
        wrapped = recorder.wrap(span, fn)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)
                    patches.append((module, key, fn))
    return patches, absent


def uninstall(patches: list) -> None:
    for owner, name, original in reversed(patches):
        setattr(owner, name, original)
