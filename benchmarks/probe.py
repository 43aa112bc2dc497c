"""Child processes of the benchmark (run with ``PYTHONPATH=src``).

``probe.py setup <workload> [path]``
    Time set-up in a fresh interpreter where ``agentcontracts`` is the first
    import to pull in numpy or yaml: the import plus loading the bundled
    contract (ensemble-replay), parsing the synthetic contract at ``path``
    (long-session), or generating the seeded suite into ``path``
    (cli-suite, seed from the directory's ``seed`` file).  Prints
    ``{"setup_s": ...}``.

``probe.py rss <out.json> <cli arguments...>``
    Run the command-line front door and write the peak resident set of
    this process, from ``/proc/self/status``, to ``out.json``.

``probe.py cli <spans.csv> <cli arguments...>``
    Run the command-line front door with the tracing wrappers installed,
    write its spans to ``spans.csv`` and exit with the command's code.
"""

from __future__ import annotations

import json
import os
import sys
import time


def setup(workload: str, path: str = "") -> float:
    if workload == "cli-suite":
        with open(os.path.join(path, "seed"), encoding="utf-8") as fh:
            seed = int(fh.read())
    start = time.perf_counter()
    import agentcontracts

    if workload == "ensemble-replay":
        from agentcontracts.assets import asset_path
        agentcontracts.load_contract(asset_path("contracts", "financial-advisor.yaml"))
    elif workload == "long-session":
        with open(path, "r", encoding="utf-8") as fh:
            agentcontracts.parse_contract(fh.read())
    elif workload == "cli-suite":
        agentcontracts.generate_suite(path, seed=seed)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return time.perf_counter() - start


def cli_rss(out_path: str, argv: list) -> int:
    import agentcontracts.cli

    code = agentcontracts.cli.main(argv)
    sys.stdout.flush()
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"peak_rss_mb": kb / 1024.0}, fh)
    return code


def traced_cli(spans_path: str, argv: list) -> int:
    import tracing

    recorder = tracing.Recorder()
    tracing.install(recorder)
    import agentcontracts.cli

    recorder.op = 0
    op = recorder.wrap(tracing.OP, agentcontracts.cli.main)
    try:
        return op(argv)
    finally:
        sys.stdout.flush()
        recorder.dump(spans_path)


if __name__ == "__main__":
    command, *rest = sys.argv[1:]
    if command == "setup":
        print(json.dumps({"setup_s": setup(*rest)}))
    elif command == "rss":
        sys.exit(cli_rss(rest[0], rest[1:]))
    elif command == "cli":
        sys.exit(traced_cli(rest[0], rest[1:]))
    else:
        raise SystemExit(f"unknown probe {command!r}")
