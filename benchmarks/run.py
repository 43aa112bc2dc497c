"""Benchmark of agentcontracts: end-to-end and per-layer figures.

Run from the root of a source checkout::

    python3 benchmarks/run.py --workload ensemble-replay --seed 1 --seconds 20 --trace 0

Workloads (``--seed`` makes the inputs; the program sees only those):

``ensemble-replay``
    400 short sessions of the bundled financial-advisor contract through
    ``run_session`` with no hook, then ``pdk_verdict`` over the ensemble.
    op = one session; the rate counts the verdict's time too.
``long-session``
    A ~100-constraint synthetic contract (|A| = 50, window 10) and sessions
    of 300-1200 steps stepped one at a time, with a recovery hook that
    corrects some soft violations and declines others, then ``finalize``.
    op = one monitor step; the rate counts ``finalize`` too.
``cli-suite``
    ``python -m agentcontracts.cli run`` on the bundled demo and ``... bench``
    on the seeded generated suite, fresh subprocesses with default flags.
    op = one command (two ``run`` per ``bench``); the p90 is over ``run``.

With ``--trace 0`` the last line of output carries the end-to-end metrics:
``setup_s`` (median of fresh-process set-ups spread over the run: import
plus contract load or suite generation), ``peak_rss_mb``, ``ok_frac``
(operations that neither raised nor failed their output check, over those
attempted), ``ops_per_s`` (operations over the time spent in the
program's calls) and ``op_p90_us``; the stamp line gives the number of
samples behind ``op_p90_us`` and ``setup_s``.
There is no median: on a host whose speed switches between two levels for
seconds at a time, a median jumps between the levels from run to run,
while a rate moves with the share of time spent at each and the p90 stays
on the slower level.  With ``--trace 1`` it carries the per-layer metrics of
``layers.py`` instead, from a traced pass; spans are written under
``.bench_work/traces``.  The line before it stamps the environment.

Not measured: ``generator`` only builds inputs (its cost is inside
cli-suite's ``setup_s``); ``dynamics`` and ``certification`` are off the
session, suite and command paths this benchmark times.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 15
IMPORT_PROBES = 3

METRIC_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac",
                "ops_per_s": "1/s", "op_p90_us": "us"}


def git_commit() -> str:
    """The checkout's commit; "unknown" outside a git repository (git is
    not run then, so it does not search the parent directories)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    import yaml

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "pyyaml": yaml.__version__, "libyaml": bool(yaml.__with_libyaml__),
            "nproc": len(os.sched_getaffinity(0)), "commit": git_commit()}


class SetupProbes:
    """Set-up timed in fresh processes, spread evenly over the measured
    run.  On a shared host the speed switches between levels for seconds
    at a time, so probes taken back to back all land on one level; spread
    out, their median sees the same mix of levels as the run."""

    def __init__(self, workload, work: str, seconds: float):
        self.workload = workload
        self.out = os.path.join(work, "setup.out")
        self.spacing = seconds / SETUP_PROBES
        self.start = time.perf_counter()
        self.spent = 0.0
        self.times = []

    def _probe(self) -> None:
        from workloads import run_child

        argv = [sys.executable, os.path.join(HERE, "probe.py"), "setup",
                self.workload.name] + self.workload.probe_args(len(self.times))
        child = run_child(argv, self.out)
        if child.code != 0:
            raise RuntimeError(f"set-up probe failed: {child.stderr[-2000:]}")
        self.times.append(json.loads(child.stdout)["setup_s"])

    def __call__(self) -> float:
        """Run the probes now due; returns the seconds they took, which the
        caller adds to its deadline."""
        begin = time.perf_counter()
        while len(self.times) < SETUP_PROBES and \
                begin - self.start - self.spent >= len(self.times) * self.spacing:
            self._probe()
        took = time.perf_counter() - begin
        self.spent += took
        return took

    def median(self) -> float:
        while len(self.times) < SETUP_PROBES:
            self._probe()
        return statistics.median(self.times)


def import_breakdowns(workload, work: str) -> list:
    from layers import import_breakdown
    from workloads import run_child

    if workload.name == "cli-suite":
        command = ["-m", "agentcontracts.cli"] + workload.cli_args["run"]
    else:
        command = ["-c", "import agentcontracts"]
    out = []
    for _ in range(IMPORT_PROBES):
        child = run_child([sys.executable, "-X", "importtime"] + command,
                          os.path.join(work, "importtime.out"))
        out.append(import_breakdown(child.stderr))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ensemble-replay", "long-session", "cli-suite"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "agentcontracts", "__init__.py")):
        print(f"error: no agentcontracts sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        # Warm the bytecode caches before anything is timed.
        workloads.run_child([sys.executable, "-c", "import agentcontracts.cli"],
                            os.path.join(work, "warm.out"))

        import agentcontracts
        if os.path.dirname(os.path.abspath(agentcontracts.__file__)) != \
                os.path.join(SRC, "agentcontracts"):
            print(f"error: imported {agentcontracts.__file__}, not the checkout's",
                  file=sys.stderr)
            return 2
        tally = workloads.Tally()
        workload.prepare(tally)
        stamp = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                 "env": environment()}
        if args.trace:
            import layers

            traced, overheads = workload.trace(args.seconds, tally)
            metrics = layers.layer_metrics(traced, overheads, import_breakdowns(workload, work))
            traces = os.path.join(WORK, "traces")
            os.makedirs(traces, exist_ok=True)
            spans = os.path.join(traces, f"{args.workload}-seed{args.seed}.csv")
            traced.recorder.dump(spans)
            stamp["spans"] = os.path.relpath(spans, ROOT)
            stamp["absent"] = workload.absent
        else:
            probes = SetupProbes(workload, work, args.seconds)
            values = workload.measure(args.seconds, tally, probes)
            values["setup_s"] = probes.median()
            stamp["samples"] = {"op_p90_us": values.pop("op_samples"),
                                "setup_s": SETUP_PROBES}
            values["ok_frac"] = 1.0 - tally.failed / max(tally.attempted, 1)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in METRIC_UNITS.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps(stamp))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
