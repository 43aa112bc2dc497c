"""Command-line front door.

Subcommands: validate, run, drift (simulate|design|fit), compose, certify,
bench.  Exit codes are frozen for CI use:

  0  success / compliant session
  1  validation or check failures (schema issues, failed conditions,
     failed scenarios)
  2  IO, format, or numeric input errors
  3  session outcome soft_violation
  4  session outcome hard_violation

``--format json`` emits machine-readable reports; ABC_COLOR={auto,never}
controls ANSI color in table output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import BadBoundaries, ContractError, DanglingConstraintRef, FormatError, InvalidStep
from .model import ACTIONS, STATES, TRACE_FIELDS, ExecutionTrace, validate_contract
from .monitor import run_session
from .parser import PipelineContract, load_document
from .records import as_dict
from .schema import as_is, mapping, read_json, read_text, sequence
# bench, composition, dynamics, generator and certification are imported by
# the commands that use them: dynamics and generator load numpy, which run and
# bench do not need, and run needs neither bench nor composition.

EXIT_OK = 0
EXIT_ISSUES = 1
EXIT_INPUT = 2
EXIT_SOFT = 3
EXIT_HARD = 4


def _paint(text: str, code: str) -> str:
    if os.environ.get("ABC_COLOR", "auto") == "never" or not sys.stdout.isatty():
        return text
    return f"\033[{code}m{text}\033[0m"


def _emit(payload, fmt: str, render) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(render(payload))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    try:
        contract = load_document(args.contract)
    except ContractError as exc:
        if args.format != "json":
            raise  # main reports it, and exits 1
        span = getattr(exc, "span", None)
        payload = {"contract": args.contract, "valid": False,
                   "issues": [{"element": getattr(exc, "field", None) or "document",
                               "rule": type(exc).__name__,
                               "message": str(exc),
                               "severity": "error",
                               "span": str(span) if span else None}]}
        sys.stderr.write(json.dumps(payload, indent=2) + "\n")
        return EXIT_ISSUES
    issues = ([i for stage in contract.stages for i in validate_contract(stage.contract)]
              if isinstance(contract, PipelineContract) else validate_contract(contract))
    errors = [i for i in issues if i.severity == "error"]
    payload = {"contract": args.contract,
               "issues": [as_dict(i) for i in issues],
               "valid": not errors}
    if args.format == "json":
        stream = sys.stderr if errors else sys.stdout
        stream.write(json.dumps(payload, indent=2) + "\n")
    else:
        for issue in issues:
            print(str(issue), file=sys.stderr if issue.severity == "error" else sys.stdout)
        verdict = "valid" if not errors else "invalid"
        print(f"{args.contract}: {_paint(verdict, '32' if not errors else '31')}")
    return EXIT_OK if not errors else EXIT_ISSUES


# A trace file: a trace, plus the stage boundaries a pipeline contract needs.
_TRACE_FILE = mapping("trace file", {**TRACE_FIELDS, "boundaries": as_is}, ("states", "actions"),
                      lambda boundaries=None, **trace: (ExecutionTrace(**trace), boundaries))


def cmd_run(args) -> int:
    contract = load_document(args.contract)
    trace, boundaries = read_json(args.trace, _TRACE_FILE)
    if isinstance(contract, PipelineContract):
        contract = contract.compose()
    try:
        report = run_session(contract, trace, hook=None, boundaries=boundaries)
    except BadBoundaries as exc:
        raise FormatError(f"{args.trace}: boundaries: {exc}") from None

    output = report.to_json() if args.out or args.format == "json" else None
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(output + "\n")
    print(output if args.format == "json"
          else f"outcome: {report.outcome}  theta: {report.metrics.theta:.4f}")
    return {"compliant": EXIT_OK, "soft_violation": EXIT_SOFT,
            "hard_violation": EXIT_HARD}[report.outcome]


def cmd_drift_simulate(args) -> int:
    from .dynamics import OUParams, save_trajectory, simulate_ou

    params = OUParams(alpha=args.alpha, gamma=args.gamma, sigma=args.sigma, d0=args.d0)
    times, values = simulate_ou(params, horizon=args.horizon, dt=args.dt,
                                seed=args.seed, clamp_zero=args.clamp_zero)
    if args.out:
        save_trajectory(args.out, times, values)
        print(f"wrote {len(values)} samples to {args.out}")
    else:
        for t, v in zip(times, values):
            print(f"{t:.6g},{v:.6g}")
    return EXIT_OK


def cmd_drift_design(args) -> int:
    from .dynamics import (DesignSpec, OUParams, design_gamma_approx, solve_design_gamma,
                           tail_probability)

    spec = DesignSpec(d_max=args.dmax, epsilon=args.epsilon)
    gamma = solve_design_gamma(args.alpha, args.sigma, spec)
    approx = design_gamma_approx(args.alpha, args.sigma, spec)
    eta = args.dmax - args.alpha / gamma
    check = tail_probability(OUParams(args.alpha, gamma, args.sigma), eta) \
        if args.sigma > 0 else 0.0
    payload = {"gamma_min": gamma, "gamma_approx": approx,
               "stationary_mean": args.alpha / gamma, "eta": eta,
               "tail_probability_at_gamma_min": check}
    _emit(payload, args.format,
          lambda p: (f"gamma_min       {p['gamma_min']:.6f}\n"
                     f"gamma_approx    {p['gamma_approx']:.6f}\n"
                     f"stationary mean {p['stationary_mean']:.6f}\n"
                     f"tail prob check {p['tail_probability_at_gamma_min']:.3e}"))
    return EXIT_OK


def cmd_drift_fit(args) -> int:
    from .dynamics import fit_ou, load_trajectory

    times, values = load_trajectory(args.csv)
    payload = as_dict(fit_ou(list(zip(times, values))))
    _emit(payload, args.format,
          lambda p: (f"gamma_hat  {p['gamma_hat']:.6f}\n"
                     f"d_star_hat {p['d_star_hat']:.6f}\n"
                     f"r_squared  {p['r_squared']:.4f}"
                     + ("\n(degenerate: constant trajectory)" if p["degenerate"] else "")))
    return EXIT_OK


def cmd_compose(args) -> int:
    from .composition import ChainSpec, chain_bounds, check_conditions

    pipeline = load_document(args.pipeline)
    if not isinstance(pipeline, PipelineContract):
        print("compose expects a pipeline document", file=sys.stderr)
        return EXIT_INPUT

    witnesses = {"states": (), "actions": ()}
    if args.witnesses:
        for key, reader in (("states", STATES), ("actions", ACTIONS)):
            path = os.path.join(args.witnesses, f"{key}.json")
            if os.path.exists(path):
                witnesses[key] = read_json(path, reader)
    samples, actions = witnesses["states"], witnesses["actions"]

    reports = [check_conditions(a.contract, b.contract, handoff, samples, actions)
               for a, b, handoff in zip(pipeline.stages, pipeline.stages[1:], pipeline.handoffs)]

    bounds = chain_bounds(ChainSpec.from_pipeline(pipeline))
    payload = {
        "pipeline": pipeline.name,
        "handoffs": [r.to_dict() for r in reports],
        "chain_bounds": bounds.to_dict(),
    }

    def render(p) -> str:
        lines = [f"pipeline: {p['pipeline']}"]
        for i, rep in enumerate(p["handoffs"]):
            lines.append(f"handoff {i}:")
            for key in ("C1", "C2", "C3", "C4"):
                entry = rep[key]
                mark = _paint("pass", "32") if entry["passed"] else _paint("FAIL", "31")
                lines.append(f"  {key}: {mark}" + (
                    f"  witnesses: {entry['witnesses']}" if entry["witnesses"] else ""))
        cb = p["chain_bounds"]
        lines.append(f"p_chain >= {cb['p_chain_lower']:.4f}   "
                     f"delta_chain <= {cb['delta_chain_upper']:.4f}   "
                     f"p_frechet >= {cb['p_frechet_lower']:.4f}")
        return "\n".join(lines)

    _emit(payload, args.format, render)
    return EXIT_OK if all(r.all_pass for r in reports) else EXIT_ISSUES


def _observation(doc, value, path: tuple) -> bool:
    if not (type(value) in (bool, int) and value in (0, 1)):
        raise doc.error(path, f"observation must be 0 or 1, got {value!r}")
    return value == 1


def _read_observations(path: str) -> list:
    """Pass/fail observations: a JSON array of true/false/0/1, or one 0 or 1
    per line.  Any other entry is a FormatError naming it."""
    text = read_text(path).strip()
    if text.startswith("["):
        return list(read_json(path, sequence(_observation), text))
    values = [line.strip() for line in text.splitlines() if line.strip()]
    for i, x in enumerate(values):
        if x not in ("0", "1"):
            raise FormatError(f"{path}: observation {i} must be 0 or 1, got {x!r}")
    return [x == "1" for x in values]


def cmd_certify(args) -> int:
    from .certification import CertificationStream, SprtConfig

    cfg = SprtConfig(p0=args.p0, p1=args.p1, alpha_err=args.alpha_err,
                     beta_err=args.beta_err)
    stream = CertificationStream(cfg, window=args.window)
    observations = _read_observations(args.observations)
    for x in observations:
        stream.feed(x)
    payload = {
        "observations": len(observations),
        "decisions": [{"n": n, "decision": d} for n, d in stream.decisions],
        "state": stream.state.to_dict(),
    }
    _emit(payload, args.format, lambda p: "\n".join(
        [f"observations: {p['observations']}"]
        + [f"decision after n={d['n']}: {d['decision']}" for d in p["decisions"]]
        + [f"current: n={p['state']['n']} log_lambda={p['state']['log_lambda']:.4f} "
           f"({p['state']['decision']})"]))
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.generate:
        from .generator import generate_suite

        manifest = generate_suite(args.suite, seed=args.seed)
        print(f"generated {len(manifest['scenarios'])} scenarios in {args.suite}")
        return EXIT_OK
    from .bench import aggregate, load_suite, score_suite

    scores = score_suite(load_suite(args.suite))
    summary = aggregate(scores)
    if args.format == "json":
        print(json.dumps({**summary.to_dict(), "scenarios": [s.to_dict() for s in scores]},
                         indent=2))
    else:
        print(summary.to_table())
        failed = [s for s in scores if not s.passed]
        print(f"\n{len(scores) - len(failed)}/{len(scores)} scenarios passed; "
              f"overall detection accuracy "
              f"{summary.overall['detection_accuracy']:.4f}")
        for s in failed:
            print(_paint(f"FAIL {s.scenario_id}: {'; '.join(s.reasons)}", "31"))
    return EXIT_OK if all(s.passed for s in scores) else EXIT_ISSUES


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agentcontracts",
        description="Behavioral contract toolkit: validate contracts, replay "
                    "sessions, analyze drift dynamics, check composition, "
                    "certify compliance, run benchmarks.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a contract document")
    p.add_argument("contract")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="replay a trace through the session monitor")
    p.add_argument("contract")
    p.add_argument("trace", help="JSON file with states/actions (and boundaries "
                                 "for pipeline contracts)")
    p.add_argument("--out", help="write the session report JSON here")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("drift", help="drift dynamics tools")
    drift_sub = p.add_subparsers(dest="drift_command", required=True)

    ps = drift_sub.add_parser("simulate", help="simulate a drift trajectory")
    ps.add_argument("--alpha", type=float, required=True)
    ps.add_argument("--gamma", type=float, required=True)
    ps.add_argument("--sigma", type=float, required=True)
    ps.add_argument("--d0", type=float, default=0.0)
    ps.add_argument("--horizon", type=float, default=50.0)
    ps.add_argument("--dt", type=float, default=0.01)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--clamp-zero", action="store_true")
    ps.add_argument("--out", help="CSV output path (columns t, D)")
    ps.set_defaults(func=cmd_drift_simulate)

    pd = drift_sub.add_parser("design", help="solve the minimum recovery rate")
    pd.add_argument("--alpha", type=float, required=True)
    pd.add_argument("--sigma", type=float, required=True)
    pd.add_argument("--dmax", type=float, required=True)
    pd.add_argument("--epsilon", type=float, required=True)
    pd.add_argument("--format", choices=("json", "table"), default="table")
    pd.set_defaults(func=cmd_drift_design)

    pf = drift_sub.add_parser("fit", help="fit the mean-reversion model to a CSV trajectory")
    pf.add_argument("csv")
    pf.add_argument("--format", choices=("json", "table"), default="table")
    pf.set_defaults(func=cmd_drift_fit)

    p = sub.add_parser("compose", help="check composition conditions and chain bounds")
    p.add_argument("pipeline")
    p.add_argument("--witnesses", help="directory with states.json / actions.json")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("certify", help="stream observations through the sequential test")
    p.add_argument("observations", help="JSON array or one 0/1 per line")
    p.add_argument("--p0", type=float, default=0.90)
    p.add_argument("--p1", type=float, default=0.95)
    p.add_argument("--alpha-err", type=float, default=0.05)
    p.add_argument("--beta-err", type=float, default=0.05)
    p.add_argument("--window", type=int, default=None,
                   help="experimental sliding-window variant")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("bench", help="score a scenario suite (or generate one)")
    p.add_argument("suite", help="suite directory (with manifest.json)")
    p.add_argument("--generate", action="store_true",
                   help="generate a synthetic suite into the directory")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, PermissionError, ValueError, ArithmeticError,
            FormatError, DanglingConstraintRef, InvalidStep, BadBoundaries) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ContractError as exc:
        span = getattr(exc, "span", None)
        location = f" at {span}" if span else ""
        print(f"error{location}: {exc}", file=sys.stderr)
        return EXIT_ISSUES


if __name__ == "__main__":
    sys.exit(main())
