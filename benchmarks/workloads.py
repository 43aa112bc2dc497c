"""The three workloads: inputs, the untraced measurement, the traced pass.

One process, one thread, closed loop: each call returns before the next
one starts, and command-line runs are subprocesses started one at a time.
Untraced timings cover the program's calls only; the output checks run
between them.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback

import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ns = time.perf_counter_ns


class Tally:
    """Operations attempted and failed (raised, or failed their check)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"check failed: {what}", file=sys.stderr)

    def error(self, what: str, exc: BaseException) -> None:
        if self.failed < 5:
            traceback.print_exception(exc, file=sys.stderr)
        self.check(False, f"{what} raised {exc!r}")


def percentile(samples: list, q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


class Child:
    """One finished subprocess: exit code, wall time, output."""

    def __init__(self, code: int, wall_s: float, stdout: str, stderr: str):
        self.code = code
        self.wall_s = wall_s
        self.stdout = stdout
        self.stderr = stderr


def run_child(argv: list, out_path: str, timeout: float = 150.0) -> Child:
    """Run ``argv`` from the checkout root and wait for it; output goes
    through files so that nothing blocks on a full pipe."""
    err_path = out_path + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    with open(out_path, "r", encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Child(proc.returncode, wall, stdout, stderr)


def _monitor():
    # Looked up at call time, so a traced pass calls the wrappers.
    return sys.modules["agentcontracts.monitor"]


class TracedPass:
    """What a traced pass leaves for the per-layer metrics."""

    def __init__(self, recorder, ops: int, steps: int, recovery: tuple = (0, 0)):
        self.recorder = recorder
        self.ops = ops
        self.steps = steps
        self.recovery = recovery   # (succeeded, attempted) recovery events


def _trace_pairs(seconds: float, untraced, traced) -> tuple:
    """Alternate untraced and traced passes over the same work until
    ``seconds`` have passed; returns the first traced pass and the
    overhead of each pair."""
    first, overheads = None, []
    deadline = time.perf_counter() + seconds
    while first is None or time.perf_counter() < deadline:
        base = untraced()
        result, cost = traced()
        overheads.append(cost / base - 1.0)
        if first is None:
            first = result
    return first, overheads


def _recovery_counts(reports) -> tuple:
    succeeded = attempted = 0
    for report in reports:
        for event in report.events:
            if event.kind == "recovery_attempted":
                attempted += 1
            elif event.kind == "recovery_succeeded":
                succeeded += 1
    return succeeded, attempted


# ---------------------------------------------------------------------------
# ensemble-replay
# ---------------------------------------------------------------------------

class EnsembleReplay:
    """Many short sessions of the bundled contract through ``run_session``
    (no hook), then one ``pdk_verdict`` over the ensemble.  op = session;
    the rate counts the verdict's time too."""

    name = "ensemble-replay"

    def __init__(self, seed: int, work: str):
        self.plan = inputs.ensemble_sessions(seed)
        self.expected = inputs.expected_pdk(self.plan)

    def probe_args(self, index: int) -> list:
        return []

    def prepare(self, tally: Tally) -> None:
        from agentcontracts import ExecutionTrace, load_contract
        from agentcontracts.assets import asset_path

        self.contract = load_contract(asset_path("contracts", "financial-advisor.yaml"))
        self.traces = [ExecutionTrace.from_dict(s["trace"]) for s in self.plan]
        self.demo = ExecutionTrace.from_dict(
            load_json(asset_path("traces", "financial_advisor_demo.json")))
        self.golden = load_json(asset_path("golden", "financial_advisor_demo_report.json"))

    def _pass(self, tally: Tally, run_session) -> tuple:
        monitor = _monitor()
        times, reports = [], []
        for i, (trace, plan) in enumerate(zip(self.traces, self.plan)):
            start = ns()
            try:
                report = run_session(self.contract, trace)
            except Exception as exc:
                tally.error(f"session {i}", exc)
                reports.append(None)
                continue
            times.append(ns() - start)
            reports.append(report)
            tally.check(sorted(report.detected_violations()) == plan["flagged"]
                        and report.outcome == plan["outcome"],
                        f"session {i}: flagged {sorted(report.detected_violations())} "
                        f"outcome {report.outcome}, planned {plan['flagged']} {plan['outcome']}")
        done = [r for r in reports if r is not None]
        start = ns()
        try:
            verdict = monitor.pdk_verdict(self.contract, done)
        except Exception as exc:
            tally.error("pdk_verdict", exc)
            return times, None, done
        pdk_ns = ns() - start
        e = self.expected
        tally.check(len(done) == len(reports) and verdict.sessions == e["sessions"]
                    and verdict.excluded == e["excluded"]
                    and verdict.hard_counterexamples == e["hard_counterexamples"]
                    and verdict.soft_counterexamples == e["soft_counterexamples"],
                    f"pdk_verdict {verdict.to_dict()} differs from the plan")
        try:
            golden = run_session(self.contract, self.demo).to_dict() == self.golden
        except Exception as exc:
            tally.error("demo session", exc)
        else:
            tally.check(golden, "demo report differs from the golden report")
        return times, pdk_ns, done

    def measure(self, seconds: float, tally: Tally, between) -> dict:
        session_ns, verdict_ns = [], []
        deadline = time.perf_counter() + seconds
        while not verdict_ns or time.perf_counter() < deadline:
            times, pdk, _ = self._pass(tally, _monitor().run_session)
            session_ns += times
            if pdk is not None:
                verdict_ns.append(sum(times) + pdk)
            deadline += between()
        return {
            "ops_per_s": len(session_ns) / (sum(verdict_ns) / 1e9),
            "op_p90_us": percentile(session_ns, 90) / 1e3,
            "op_samples": len(session_ns),
            "peak_rss_mb": peak_rss_mb(),
        }

    def trace(self, seconds: float, tally: Tally) -> tuple:
        def untraced():
            start = ns()
            self._pass(tally, _monitor().run_session)
            return ns() - start

        def traced():
            recorder = tracing.Recorder()
            patches, self.absent = tracing.install(recorder)
            ops = iter(range(len(self.traces) + 1))   # the sessions, then the demo

            def run_session(contract, trace):
                recorder.op = next(ops)
                return _monitor().run_session(contract, trace)

            try:
                start = ns()
                _, _, reports = self._pass(tally, recorder.wrap(tracing.OP, run_session))
                cost = ns() - start
            finally:
                tracing.uninstall(patches)
            steps = sum(t.length for t in self.traces) + self.demo.length
            return TracedPass(recorder, len(self.traces) + 1, steps,
                              _recovery_counts(reports)), cost

        return _trace_pairs(seconds, untraced, traced)


# ---------------------------------------------------------------------------
# long-session
# ---------------------------------------------------------------------------

class LongSession:
    """Long sessions of a ~100-constraint synthetic contract, stepped one
    at a time with a recovery hook, then finalized.  op = step; the rate
    counts monitor construction and ``finalize`` too."""

    name = "long-session"
    TRACED_SESSIONS = 2   # the first sessions of the cycle, in a traced pass

    def __init__(self, seed: int, work: str):
        self.inputs = inputs.LongSessionInputs(seed)
        self.contract_path = os.path.join(work, "long-session.yaml")
        with open(self.contract_path, "w", encoding="utf-8") as fh:
            fh.write(self.inputs.contract_yaml)

    def probe_args(self, index: int) -> list:
        return [self.contract_path]

    def prepare(self, tally: Tally) -> None:
        from agentcontracts import ActionRecord, ExecutionTrace, parse_contract

        self.contract = parse_contract(self.inputs.contract_yaml)
        self.sessions = []
        for plan in self.inputs.sessions:
            fixes = {key: (state, ActionRecord(a["label"], a["payload"]))
                     for key, (state, a) in plan["fixes"].items()}
            self.sessions.append((ExecutionTrace.from_dict(plan["trace"]), fixes, plan))

    @staticmethod
    def _hook(fixes: dict):
        # Corrects the violations the plan marks as fixable; declines the rest.
        def hook(strategy, constraint, state):
            return fixes.get((state["meta"]["t"], constraint.name))
        return hook

    def _session(self, index: int, tally: Tally, recorder=None) -> tuple:
        """Replay one session; returns (step ns list, finalize ns, total ns,
        report)."""
        trace, fixes, plan = self.sessions[index]
        hook = self._hook(fixes)
        if recorder is not None:
            hook = recorder.wrap(tracing.HOOK, hook)
        session_monitor = _monitor().SessionMonitor
        steps = []
        try:
            begin = ns()
            monitor = session_monitor(self.contract, hook=hook, trace_length=trace.length)
            for t in range(trace.length):
                if monitor.terminated:
                    break
                start = ns()
                monitor.step(trace.states[t], trace.actions[t])
                steps.append(ns() - start)
            start = ns()
            report = monitor.finalize(trace)
            end = ns()
        except Exception as exc:
            tally.error(f"session {index}", exc)
            return steps, None, None, None
        detected = sorted(report.detected_violations())
        tally.check(detected == plan["flagged"] and report.outcome == plan["outcome"],
                    f"session {index}: {len(detected)} flagged, outcome {report.outcome}; "
                    f"planned {len(plan['flagged'])} and {plan['outcome']}; differences "
                    f"{sorted(set(detected) ^ set(plan['flagged']))[:5]}")
        return steps, end - start, end - begin, report

    def measure(self, seconds: float, tally: Tally, between) -> dict:
        step_ns, busy = [], 0
        deadline = time.perf_counter() + seconds
        while not busy or time.perf_counter() < deadline:
            for index in range(len(self.sessions)):
                steps, finalize, total, _ = self._session(index, tally)
                if finalize is not None:
                    step_ns += steps
                    busy += total
                deadline += between()
        return {
            "ops_per_s": len(step_ns) / (busy / 1e9),
            "op_p90_us": percentile(step_ns, 90) / 1e3,
            "op_samples": len(step_ns),
            "peak_rss_mb": peak_rss_mb(),
        }

    def trace(self, seconds: float, tally: Tally) -> tuple:
        subset = range(self.TRACED_SESSIONS)

        def untraced():
            start = ns()
            for index in subset:
                self._session(index, tally)
            return ns() - start

        def traced():
            recorder = tracing.Recorder()
            patches, self.absent = tracing.install(recorder)
            reports = []
            try:
                start = ns()
                for index in subset:
                    recorder.op = index
                    session = recorder.wrap(tracing.OP, self._session)
                    reports.append(session(index, tally, recorder)[3])
                cost = ns() - start
                # Set-up path, outside the timed pass: one contract parse.
                recorder.op = len(subset)
                sys.modules["agentcontracts.parser"].parse_contract(self.inputs.contract_yaml)
            finally:
                tracing.uninstall(patches)
            steps = sum(self.sessions[i][0].length for i in subset)
            return TracedPass(recorder, len(subset), steps,
                              _recovery_counts(r for r in reports if r is not None)), cost

        return _trace_pairs(seconds, untraced, traced)


# ---------------------------------------------------------------------------
# cli-suite
# ---------------------------------------------------------------------------

class CliSuite:
    """``agentcontracts.cli run`` on the bundled demo and ``... bench`` on a
    seeded generated suite, each a fresh subprocess with default flags.
    op = command (``run`` for the p90)."""

    name = "cli-suite"
    PATTERN = ("run", "run", "bench")   # one cycle of commands

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work

    def probe_args(self, index: int) -> list:
        # Each set-up probe generates the suite afresh, into its own directory.
        suite = os.path.join(self.work, f"probe-suite-{index}")
        os.makedirs(suite, exist_ok=True)
        with open(os.path.join(suite, "seed"), "w", encoding="utf-8") as fh:
            fh.write(str(self.seed))
        return [suite]

    def prepare(self, tally: Tally) -> None:
        from agentcontracts import generate_suite
        from agentcontracts.assets import asset_path
        from agentcontracts.bench import load_suite, score_suite

        self.suite = os.path.join(self.work, "suite")
        generate_suite(self.suite, seed=self.seed)
        contract = asset_path("contracts", "financial-advisor.yaml")
        trace = asset_path("traces", "financial_advisor_demo.json")
        self.golden = load_json(asset_path("golden", "financial_advisor_demo_report.json"))
        self.cli_args = {"run": ["run", contract, trace], "bench": ["bench", self.suite]}
        # Reference scoring in-process: the suite must pass in full with no
        # false flags, which the command's table output does not show.
        scenarios = load_suite(self.suite)
        scores = score_suite(scenarios)
        self.scenarios = len(scenarios)
        self.steps = len(self.golden["steps"]) + sum(s.trace.length for s in scenarios)
        tally.check(len(scenarios) == 55 and all(s.passed for s in scores)
                    and sum(s.false_flags for s in scores) == 0,
                    f"suite for seed {self.seed}: "
                    f"{sum(s.passed for s in scores)}/{len(scores)} passed, "
                    f"{sum(s.false_flags for s in scores)} false flags")
        self.passed_line = f"{self.scenarios}/{self.scenarios} scenarios passed"
        # Peak RSS of each command, read by the command's own process: a
        # child's ru_maxrss also counts this process's memory, which the
        # child's exec replaced.  These runs also warm the bytecode caches
        # of every module the commands load.
        self.peak_rss = 0.0
        for kind in ("run", "bench"):
            out = os.path.join(self.work, f"{kind}.rss.json")
            argv = [sys.executable, os.path.join(HERE, "probe.py"), "rss", out] \
                + self.cli_args[kind]
            child = run_child(argv, os.path.join(self.work, f"{kind}.out"))
            if not os.path.exists(out):
                tally.check(False, f"cli {kind} under the RSS probe: {child.stderr[-500:]}")
                continue
            self.peak_rss = max(self.peak_rss, load_json(out)["peak_rss_mb"])

    def argv(self, kind: str, spans: str = "") -> list:
        """The command line of ``kind``; with ``spans``, the same command
        under the tracing probe, which writes its spans there."""
        if spans:
            return [sys.executable, os.path.join(HERE, "probe.py"), "cli", spans] \
                + self.cli_args[kind]
        return [sys.executable, "-m", "agentcontracts.cli"] + self.cli_args[kind]

    def _command(self, kind: str, tally: Tally, spans: str = "", check: bool = True) -> Child:
        child = run_child(self.argv(kind, spans), os.path.join(self.work, f"{kind}.out"))
        if not check:
            return child
        if kind == "run":
            try:
                same = json.loads(child.stdout) == self.golden
            except ValueError:
                same = False
            tally.check(child.code == 3 and same,
                        f"cli run: exit {child.code}, report equals golden: {same}; "
                        f"{child.stderr[-500:]}")
        else:
            tally.check(child.code == 0 and self.passed_line in child.stdout,
                        f"cli bench: exit {child.code}; {child.stdout[-300:]}"
                        f"{child.stderr[-500:]}")
        return child

    def measure(self, seconds: float, tally: Tally, between) -> dict:
        walls = {"run": [], "bench": []}
        deadline = time.perf_counter() + seconds
        while not walls["bench"] or time.perf_counter() < deadline:
            for kind in self.PATTERN:
                child = self._command(kind, tally)
                walls[kind].append(child.wall_s)
                deadline += between()
        total = sum(walls["run"]) + sum(walls["bench"])
        return {
            "ops_per_s": (len(walls["run"]) + len(walls["bench"])) / total,
            "op_p90_us": percentile(walls["run"], 90) * 1e6,
            "op_samples": len(walls["run"]),
            "peak_rss_mb": self.peak_rss,
        }

    def trace(self, seconds: float, tally: Tally) -> tuple:
        # The commands install the same wrappers over the same modules.
        patches, self.absent = tracing.install(tracing.Recorder())
        tracing.uninstall(patches)

        def untraced():
            return sum(self._command(kind, tally).wall_s for kind in ("run", "bench"))

        def traced():
            recorder = tracing.Recorder()
            cost = 0.0
            for op, kind in enumerate(("run", "bench")):
                spans = os.path.join(self.work, f"{kind}.spans.csv")
                if os.path.exists(spans):
                    os.remove(spans)
                cost += self._command(kind, tally, spans=spans).wall_s
                if os.path.exists(spans):   # a failed command is already counted
                    recorder.load(spans, op)
            return TracedPass(recorder, 1, self.steps), cost

        return _trace_pairs(seconds, untraced, traced)


WORKLOADS = {w.name: w for w in (EnsembleReplay, LongSession, CliSuite)}
