"""Scenario replay and scoring.

A scenario is one JSON document: a contract reference, a short execution
trace, and ground-truth annotations (expected violations, outcome, and
closed ranges for the session-mean compliance scores).  A suite is a
directory of scenario files plus a ``manifest.json`` listing them.
Scoring replays the trace through the monitor with no recovery hook (pure
detection) and checks all five dimensions: detection accuracy, compliance
scores, drift, reliability, and outcome classification.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional, Sequence

from .drift import mean
from .engine import check_boundaries
from .errors import BadBoundaries, DanglingConstraintRef, FormatError
from .model import Contract, ExecutionTrace
from .monitor import run_session
from .parser import PipelineContract, load_document

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


@dataclass(frozen=True)
class Expected:
    """Ground-truth annotations, produced by construction."""

    violations: tuple
    outcome: str
    c_hard_range: tuple
    c_soft_range: tuple


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
        return {
            "id": self.scenario_id, "domain": self.domain,
            "difficulty": self.difficulty,
            "detection_accuracy": self.detection_accuracy,
            "false_flags": self.false_flags,
            "c_hard": self.c_hard, "c_soft": self.c_soft,
            "mean_drift": self.mean_drift, "theta": self.theta,
            "outcome": self.outcome, "passed": self.passed,
            "reasons": list(self.reasons),
        }


def _range(raw, what: str) -> tuple:
    if (not isinstance(raw, (list, tuple)) or len(raw) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw)):
        raise FormatError(f"{what} must be [lo, hi]")
    lo, hi = float(raw[0]), float(raw[1])
    if not (0.0 <= lo <= hi <= 1.0):
        raise FormatError(f"{what} must be a sub-interval of [0, 1], got [{lo}, {hi}]")
    return lo, hi


def load_scenario(path: str) -> Scenario:
    """Load one scenario file and cross-validate it against its contract."""
    return _load_scenario(path, {})


def _load_contract(path: str, cache: dict) -> tuple:
    """(document, contract) for a contract file, loaded once per ``cache``;
    a pipeline's contract is its composed chain."""
    key = os.path.abspath(path)
    if key not in cache:
        loaded = load_document(path)
        contract = loaded
        if isinstance(loaded, PipelineContract):
            contract = loaded.compose()
        cache[key] = (loaded, contract)
    return cache[key]


def _load_scenario(path: str, cache: dict) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from None

    if not isinstance(doc, dict):
        raise FormatError(f"{path}: scenario must be a JSON object, got {type(doc).__name__}")
    for key in ("id", "domain", "difficulty", "contract", "trace", "expected"):
        if key not in doc:
            raise FormatError(f"{path}: missing scenario field {key!r}")
    if doc["difficulty"] not in DIFFICULTIES:
        raise FormatError(f"{path}: difficulty must be one of {DIFFICULTIES}")

    try:
        trace = ExecutionTrace.from_dict(doc["trace"])
    except FormatError as exc:
        raise FormatError(f"{path}: bad trace: {exc}") from None
    if trace.length < 1:
        raise FormatError(f"{path}: scenarios require at least one step")

    base_dir = os.path.dirname(os.path.abspath(path))
    contract_path = doc["contract"]
    if not (isinstance(contract_path, str) and contract_path):
        raise FormatError(f"{path}: contract must be a non-empty path string, "
                          f"got {contract_path!r}")
    resolved = contract_path if os.path.isabs(contract_path) \
        else os.path.join(base_dir, contract_path)
    loaded, contract = _load_contract(resolved, cache)
    pipeline = loaded if isinstance(loaded, PipelineContract) else None
    raw_boundaries = doc.get("boundaries")
    try:
        boundaries = check_boundaries(() if raw_boundaries is None else raw_boundaries,
                                      contract.stages, trace.length)
    except BadBoundaries as exc:
        raise FormatError(f"{path}: bad stage boundaries: {exc}") from None

    expected_doc = doc["expected"]
    if not isinstance(expected_doc, dict):
        raise FormatError(f"{path}: expected must be a JSON object, "
                          f"got {type(expected_doc).__name__}")
    violations = expected_doc.get("violations", [])
    if not isinstance(violations, list) or not all(
            isinstance(v, list) and len(v) == 2 and type(v[0]) is int for v in violations):
        raise FormatError(f"{path}: expected violations must be [step, constraint] "
                          f"pairs with integer steps, got {violations!r}")
    violations = tuple((step, str(name)) for step, name in violations)
    known = {c.name for c in contract.all_constraints()}
    for step, name in violations:
        if name not in known:
            raise DanglingConstraintRef(
                f"{path}: expected violation references unknown constraint {name!r}")
        if not (0 <= step < trace.length):
            raise FormatError(f"{path}: expected violation step {step} outside the trace")
    outcome = expected_doc.get("outcome")
    if outcome not in ("compliant", "hard_violation", "soft_violation"):
        raise FormatError(f"{path}: bad expected outcome {outcome!r}")

    expected = Expected(
        violations=violations,
        outcome=outcome,
        c_hard_range=_range(expected_doc.get("c_hard_range", [0, 1]), f"{path}: c_hard_range"),
        c_soft_range=_range(expected_doc.get("c_soft_range", [0, 1]), f"{path}: c_soft_range"),
    )
    return Scenario(
        id=str(doc["id"]), domain=str(doc["domain"]), difficulty=doc["difficulty"],
        contract_path=contract_path, contract=contract, trace=trace,
        expected=expected, boundaries=boundaries, pipeline=pipeline,
    )


def load_suite(suite_dir: str) -> list:
    """Load every scenario listed in the suite's manifest.json."""
    manifest_path = os.path.join(suite_dir, "manifest.json")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{manifest_path}: not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise FormatError(f"{manifest_path}: manifest must be a JSON object, "
                          f"got {type(manifest).__name__}")
    entries = manifest.get("scenarios")
    if not isinstance(entries, list) or not entries:
        raise FormatError(f"{manifest_path}: manifest needs a non-empty 'scenarios' list")
    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict) and isinstance(entry.get("file"), str)
                and entry["file"]):
            raise FormatError(f"{manifest_path}: scenario entry {i} must be an object "
                              f"with a non-empty 'file' string, got {entry!r}")
    # Scenarios share a few contract files: load each one once per call.
    # The cache dies with the call, so a file edited between calls is re-read.
    cache: dict = {}
    return [_load_scenario(os.path.join(suite_dir, entry["file"]), cache)
            for entry in entries]


_RANGE_SLOP = 1e-9


def score_scenario(scenario: Scenario) -> ScenarioScore:
    """Replay with no recovery hook and score all five dimensions."""
    report = run_session(scenario.contract, scenario.trace, hook=None,
                         boundaries=scenario.boundaries)
    detected = set(report.detected_violations())
    expected = set(scenario.expected.violations)
    if expected:
        accuracy = len(detected & expected) / len(expected)
    else:
        accuracy = 1.0
    false_flags = len(detected - expected)

    c_hard = report.metrics.mean_c_hard
    c_soft = report.metrics.mean_c_soft
    reasons = []
    if accuracy < 1.0:
        missed = sorted(expected - detected)
        reasons.append(f"missed violations: {missed}")
    if report.outcome != scenario.expected.outcome:
        reasons.append(f"outcome {report.outcome} != expected {scenario.expected.outcome}")
    lo, hi = scenario.expected.c_hard_range
    if not (lo - _RANGE_SLOP <= c_hard <= hi + _RANGE_SLOP):
        reasons.append(f"c_hard {c_hard:.4f} outside [{lo}, {hi}]")
    lo, hi = scenario.expected.c_soft_range
    if not (lo - _RANGE_SLOP <= c_soft <= hi + _RANGE_SLOP):
        reasons.append(f"c_soft {c_soft:.4f} outside [{lo}, {hi}]")

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
        lines = [header, "-" * len(header)]
        for row in self.rows + (self.overall,):
            lines.append(
                f"{row['domain']:<22}{row['n']:>4}  {row['c_hard']:>7.4f}  "
                f"{row['c_soft']:>7.4f}  {row['mean_drift']:>7.4f}  {row['theta']:>7.4f}")
        return "\n".join(lines)


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
            "outcomes": {
                "compliant": sum(1 for s in subset if s.outcome == "compliant"),
                "hard_violation": sum(1 for s in subset if s.outcome == "hard_violation"),
                "soft_violation": sum(1 for s in subset if s.outcome == "soft_violation"),
            },
            "passed": sum(1 for s in subset if s.passed),
        }

    rows = tuple(row(k, [s for s in scores if getattr(s, by) == k]) for k in keys)
    return DomainSummary(rows=rows, overall=row("overall", list(scores)))
