"""Scenario replay and scoring.

A scenario is one JSON document: a contract reference, a short execution
trace, and ground-truth annotations (expected violations, outcome, and
closed ranges for the session-mean compliance scores).  A suite is a
directory of scenario files plus a ``manifest.json`` listing them.  Both
are read by the one rule of :mod:`~agentcontracts.schema`, from the key
tables ``_SCENARIO`` and ``_MANIFEST``.
Scoring replays the trace through the monitor with no recovery hook (pure
detection) and checks all five dimensions: detection accuracy, compliance
scores, drift, reliability, and outcome classification.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Optional, Sequence

from .drift import mean
from .engine import check_boundaries
from .errors import BadBoundaries, DanglingConstraintRef, FormatError
from .model import TRACE, Contract, ExecutionTrace
from .monitor import run_session
from .parser import PipelineContract, load_document
from .schema import (as_is, bad, entries, integer, mapping, number, one_of, read_json,
                     sequence, string)

__all__ = [
    "Scenario",
    "ScenarioScore",
    "DomainSummary",
    "load_scenario",
    "load_suite",
    "score_scenario",
    "score_suite",
    "aggregate",
]

DIFFICULTIES = ("easy", "medium", "hard")
OUTCOMES = ("compliant", "hard_violation", "soft_violation")


@dataclass(frozen=True)
class Expected:
    """Ground-truth annotations, produced by construction."""

    outcome: str
    violations: tuple = ()
    c_hard_range: tuple = (0.0, 1.0)
    c_soft_range: tuple = (0.0, 1.0)


@dataclass(frozen=True)
class Scenario:
    id: str
    domain: str
    difficulty: str
    contract_path: str
    contract: Contract
    trace: ExecutionTrace
    expected: Expected
    boundaries: tuple = ()
    pipeline: Optional[PipelineContract] = None


@dataclass(frozen=True)
class ScenarioScore:
    scenario_id: str
    domain: str
    difficulty: str
    detection_accuracy: float
    false_flags: int
    c_hard: float
    c_soft: float
    mean_drift: float
    theta: float
    outcome: str
    passed: bool
    reasons: tuple = ()

    def to_dict(self) -> dict:
        """Every field in order, ``scenario_id`` written as ``id``."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {"id": out.pop("scenario_id"), **out, "reasons": list(self.reasons)}


def _interval(doc, v, path: tuple) -> tuple:
    """A closed sub-interval ``[lo, hi]`` of [0, 1]."""
    bounds = sequence(number(0.0, 1.0))(doc, v, path)
    if len(bounds) != 2 or bounds[0] > bounds[1]:
        raise bad(doc, path, f"{path[-1]} must be [lo, hi] with lo <= hi, got {v!r}")
    return bounds


def _violation(doc, v, path: tuple) -> tuple:
    """One expected violation, ``[step, constraint]``."""
    if not (isinstance(v, list) and len(v) == 2):
        raise bad(doc, path, f"an expected violation must be [step, constraint], got {v!r}")
    return integer(0)(doc, v[0], path + (0,)), string(doc, v[1], path + (1,))


def _file(doc, v, path: tuple) -> str:
    """A non-empty path, relative to the document's directory or absolute."""
    if not string(doc, v, path):
        raise bad(doc, path, f"field {path[-1]!r} must be a non-empty path")
    return v


# The key tables of a scenario and of a suite manifest (see
# :mod:`~agentcontracts.schema`); ``boundaries`` are read by check_boundaries.
_SCENARIO = mapping("scenario", {
    "id": string, "domain": string, "difficulty": one_of(DIFFICULTIES), "contract": _file,
    "trace": TRACE, "boundaries": as_is,
    "expected": mapping("expected", {
        "violations": sequence(_violation), "outcome": one_of(OUTCOMES),
        "c_hard_range": _interval, "c_soft_range": _interval}, ("outcome",), Expected),
}, ("id", "domain", "difficulty", "contract", "trace", "expected"))

_MANIFEST = mapping("manifest", {
    "scenarios": entries("scenario entry", {"file": _file, "id": string, "domain": string,
                                            "difficulty": one_of(DIFFICULTIES)}, ("file",)),
    "suite": string, "seed": integer(0),
}, ("scenarios",))


def load_scenario(path: str) -> Scenario:
    """Load one scenario file and cross-validate it against its contract."""
    return _load_scenario(path, {})


def _load_contract(path: str, cache: dict) -> tuple:
    """(document, contract) for a contract file, loaded once per ``cache``;
    a pipeline's contract is its composed chain."""
    key = os.path.abspath(path)
    if key not in cache:
        loaded = load_document(path)
        cache[key] = (loaded, loaded.compose() if isinstance(loaded, PipelineContract) else loaded)
    return cache[key]


def _load_scenario(path: str, cache: dict) -> Scenario:
    doc = read_json(path, _SCENARIO)
    trace, expected = doc["trace"], doc["expected"]
    if trace.length < 1:
        raise FormatError(f"{path}: trace: scenarios require at least one step")

    contract_path = doc["contract"]
    resolved = contract_path if os.path.isabs(contract_path) \
        else os.path.join(os.path.dirname(os.path.abspath(path)), contract_path)
    loaded, contract = _load_contract(resolved, cache)
    pipeline = loaded if isinstance(loaded, PipelineContract) else None
    raw_boundaries = doc.get("boundaries")
    try:
        boundaries = check_boundaries(() if raw_boundaries is None else raw_boundaries,
                                      contract.stages, trace.length)
    except BadBoundaries as exc:
        raise FormatError(f"{path}: boundaries: {exc}") from None

    known = {c.name for c in contract.all_constraints()}
    for i, (step, name) in enumerate(expected.violations):
        where = f"{path}: expected.violations[{i}]"
        if name not in known:
            raise DanglingConstraintRef(f"{where}: unknown constraint {name!r}")
        if step >= trace.length:
            raise FormatError(f"{where}: step {step} outside the trace")
    return Scenario(
        id=doc["id"], domain=doc["domain"], difficulty=doc["difficulty"],
        contract_path=contract_path, contract=contract, trace=trace,
        expected=expected, boundaries=boundaries, pipeline=pipeline,
    )


def load_suite(suite_dir: str) -> list:
    """Load every scenario listed in the suite's manifest.json."""
    manifest_path = os.path.join(suite_dir, "manifest.json")
    listed = read_json(manifest_path, _MANIFEST)["scenarios"]
    if not listed:
        raise FormatError(f"{manifest_path}: scenarios: the manifest lists no scenario")
    # Scenarios share a few contract files: load each one once per call.
    # The cache dies with the call, so a file edited between calls is re-read.
    cache: dict = {}
    return [_load_scenario(os.path.join(suite_dir, entry["file"]), cache)
            for entry in listed]


_RANGE_SLOP = 1e-9


def score_scenario(scenario: Scenario) -> ScenarioScore:
    """Replay with no recovery hook and score all five dimensions."""
    report = run_session(scenario.contract, scenario.trace, hook=None,
                         boundaries=scenario.boundaries)
    detected = set(report.detected_violations())
    expected = set(scenario.expected.violations)
    accuracy = len(detected & expected) / len(expected) if expected else 1.0
    false_flags = len(detected - expected)

    c_hard = report.metrics.mean_c_hard
    c_soft = report.metrics.mean_c_soft
    reasons = []
    if accuracy < 1.0:
        missed = sorted(expected - detected)
        reasons.append(f"missed violations: {missed}")
    if report.outcome != scenario.expected.outcome:
        reasons.append(f"outcome {report.outcome} != expected {scenario.expected.outcome}")
    for name, value, (lo, hi) in (("c_hard", c_hard, scenario.expected.c_hard_range),
                                  ("c_soft", c_soft, scenario.expected.c_soft_range)):
        if not (lo - _RANGE_SLOP <= value <= hi + _RANGE_SLOP):
            reasons.append(f"{name} {value:.4f} outside [{lo}, {hi}]")

    return ScenarioScore(
        scenario_id=scenario.id, domain=scenario.domain, difficulty=scenario.difficulty,
        detection_accuracy=accuracy, false_flags=false_flags,
        c_hard=c_hard, c_soft=c_soft,
        mean_drift=report.metrics.mean_drift, theta=report.metrics.theta,
        outcome=report.outcome, passed=not reasons, reasons=tuple(reasons),
    )


def score_suite(scenarios: Sequence[Scenario]) -> list:
    """Score a suite; result order matches the input order."""
    return [score_scenario(s) for s in scenarios]


@dataclass(frozen=True)
class DomainSummary:
    """Per-domain arithmetic means plus the overall roll-up."""

    rows: tuple
    overall: dict

    def to_dict(self) -> dict:
        return {"domains": [dict(r) for r in self.rows], "overall": dict(self.overall)}

    def to_table(self) -> str:
        header = f"{'Domain':<22}{'N':>4}  {'C_hard':>7}  {'C_soft':>7}  {'D':>7}  {'Theta':>7}"
        return "\n".join([header, "-" * len(header)] + [
            f"{row['domain']:<22}{row['n']:>4}  {row['c_hard']:>7.4f}  "
            f"{row['c_soft']:>7.4f}  {row['mean_drift']:>7.4f}  {row['theta']:>7.4f}"
            for row in self.rows + (self.overall,)])


def aggregate(scores: Sequence[ScenarioScore], by: str = "domain") -> DomainSummary:
    """Arithmetic domain-level means of the score dimensions plus outcome
    counts; the overall row averages across all scenarios."""
    if not scores:
        raise ValueError("no scores to aggregate")
    keys = sorted({getattr(s, by) for s in scores})

    def row(label: str, subset: Sequence[ScenarioScore]) -> dict:
        return {
            "domain": label,
            "n": len(subset),
            "detection_accuracy": mean([s.detection_accuracy for s in subset]),
            "false_flags": int(sum(s.false_flags for s in subset)),
            "c_hard": mean([s.c_hard for s in subset]),
            "c_soft": mean([s.c_soft for s in subset]),
            "mean_drift": mean([s.mean_drift for s in subset]),
            "theta": mean([s.theta for s in subset]),
            "outcomes": {o: sum(s.outcome == o for s in subset) for o in OUTCOMES},
            "passed": sum(1 for s in subset if s.passed),
        }

    rows = tuple(row(k, [s for s in scores if getattr(s, by) == k]) for k in keys)
    return DomainSummary(rows=rows, overall=row("overall", list(scores)))
