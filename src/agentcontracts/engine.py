"""Constraint evaluation: per-step scoring and whole-trace satisfaction.

Semantics follow the contract model: invariants are checked on states
(indices 0..T), governance constraints on actions (indices 0..T-1),
preconditions on the initial state only.  A monitor step ``t`` pairs state
``s_t`` with action ``a_t``; the trailing state ``s_T`` receives an
invariant-only evaluation that feeds the deterministic verdict and the
recovery windows.

Missing state fields never pass silently: the constraint's ``on_missing``
policy decides between violate (default), satisfy, and skip, and the
diagnostic is attached to the result either way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from .errors import FieldResolutionError, TypeMismatch, ZeroSeverity
from .expressions import eval_expression
from .model import (
    MISSING,
    ActionRecord,
    Constraint,
    Contract,
    ExecutionTrace,
    StateDict,
    is_number,
    resolve_path,
    value_eq,
)

__all__ = [
    "ConstraintResult",
    "StepEvaluation",
    "ViolationEvent",
    "SatisfactionVerdict",
    "evaluate_constraint",
    "evaluate_step",
    "evaluate_final_state",
    "check_deterministic",
    "classify_outcome",
    "COMPLIANT",
    "HARD_VIOLATION",
    "SOFT_VIOLATION",
]

COMPLIANT = "compliant"
HARD_VIOLATION = "hard_violation"
SOFT_VIOLATION = "soft_violation"


@dataclass(frozen=True)
class ConstraintResult:
    """Outcome of one constraint at one step.

    ``satisfied`` is True/False, or None when the constraint was skipped
    under on_missing=skip (excluded from that step's scores).
    """

    satisfied: Optional[bool]
    detail: Optional[str] = None


@dataclass(frozen=True)
class StepEvaluation:
    """All constraint results at one step plus the compliance scores."""

    step: int
    results: Mapping[str, ConstraintResult]
    c_hard: float
    c_soft: float
    preconditions: Optional[Mapping[str, ConstraintResult]] = None

    def preconditions_ok(self) -> bool:
        if not self.preconditions:
            return True
        return all(r.satisfied is True for r in self.preconditions.values())


@dataclass(frozen=True)
class ViolationEvent:
    """One violation episode: severity magnitude and recovery timing."""

    step: int
    constraint: str
    severity: str
    nu: float
    recovered_at: Optional[int] = None
    delta_t_recovery: Optional[int] = None

    def __post_init__(self):
        if not (0.0 < self.nu <= 1.0):
            raise ZeroSeverity(f"violation severity must be in (0,1], got {self.nu}")
        if self.recovered_at is not None and self.recovered_at < self.step:
            raise ValueError("recovered_at must not precede the violation step")


@dataclass(frozen=True)
class SatisfactionVerdict:
    """Deterministic satisfaction: four conditions and their conjunction."""

    preconditions_ok: bool
    invariants_ok: bool
    governance_ok: bool
    recoverability_ok: bool
    witnesses: Mapping[str, tuple] = field(default_factory=dict)

    @property
    def overall(self) -> bool:
        return (self.preconditions_ok and self.invariants_ok
                and self.governance_ok and self.recoverability_ok)

    def to_dict(self) -> dict:
        return {
            "preconditions_ok": self.preconditions_ok,
            "invariants_ok": self.invariants_ok,
            "governance_ok": self.governance_ok,
            "recoverability_ok": self.recoverability_ok,
            "overall": self.overall,
            "witnesses": {k: [list(w) for w in v] for k, v in self.witnesses.items()},
        }


# ---------------------------------------------------------------------------
# Single-constraint evaluation
# ---------------------------------------------------------------------------

def _strip_prefix(path: str, prefix: str) -> str:
    return path[len(prefix):] if path.startswith(prefix) else path


def _field_value(constraint: Constraint, state: StateDict,
                 action: Optional[ActionRecord], target: str):
    path = constraint.check.field_path
    if target == "action":
        if action is None:
            return MISSING
        return resolve_path(action.view(), _strip_prefix(path, "action."))
    return resolve_path(state, _strip_prefix(path, "state."))


def _apply_operator(op: str, value, operand) -> bool:
    if op == "eq":
        return value_eq(value, operand)
    if op == "ne":
        return not value_eq(value, operand)
    if op in ("lt", "le", "gt", "ge"):
        if not (is_number(value) and is_number(operand)):
            raise TypeMismatch(f"operator {op!r} needs numbers, got "
                               f"{type(value).__name__} vs {type(operand).__name__}")
        a, b = float(value), float(operand)
        return {"lt": a < b, "le": a <= b, "gt": a > b, "ge": a >= b}[op]
    if op in ("in", "not_in"):
        hit = any(value_eq(value, m) for m in operand)
        return hit if op == "in" else not hit
    if op == "matches":
        if not isinstance(value, str):
            raise TypeMismatch(f"'matches' needs a string value, got {type(value).__name__}")
        return re.search(operand, value) is not None
    if op == "range":
        if not is_number(value):
            raise TypeMismatch(f"'range' needs a numeric value, got {type(value).__name__}")
        lo, hi = float(operand[0]), float(operand[1])
        return lo <= float(value) <= hi
    raise TypeMismatch(f"unknown operator {op!r}")


def evaluate_constraint(constraint: Constraint, state: StateDict,
                        action: Optional[ActionRecord],
                        target: str) -> ConstraintResult:
    """Evaluate one constraint against a state/action pair.

    ``target`` is "state" for preconditions and invariants, "action" for
    governance.  Missing fields follow the constraint's on_missing policy;
    type errors always fail closed (violated, with the diagnostic).
    """
    check = constraint.check
    if check.is_expression():
        try:
            ok = eval_expression(check.expression, state, action)
            return ConstraintResult(satisfied=bool(ok))
        except FieldResolutionError as exc:
            return _missing_result(constraint, str(exc))
        except TypeMismatch as exc:
            return ConstraintResult(satisfied=False, detail=f"type mismatch: {exc}")

    value = _field_value(constraint, state, action, target)
    if check.operator == "exists":
        return ConstraintResult(satisfied=value is not MISSING)
    if value is MISSING:
        return _missing_result(constraint, f"field path {check.field_path!r} does not resolve")
    try:
        ok = _apply_operator(check.operator, value, check.operand)
        return ConstraintResult(satisfied=ok)
    except TypeMismatch as exc:
        return ConstraintResult(satisfied=False, detail=f"type mismatch: {exc}")


def _missing_result(constraint: Constraint, diagnostic: str) -> ConstraintResult:
    policy = constraint.on_missing
    if policy == "satisfy":
        return ConstraintResult(satisfied=True, detail=f"{diagnostic} (on_missing=satisfy)")
    if policy == "skip":
        return ConstraintResult(satisfied=None, detail=f"{diagnostic} (on_missing=skip)")
    return ConstraintResult(satisfied=False, detail=f"{diagnostic} (on_missing=violate)")


# ---------------------------------------------------------------------------
# Step evaluation
# ---------------------------------------------------------------------------

def _ratio(results: Mapping[str, ConstraintResult], names: Sequence[str]) -> float:
    satisfied = total = 0
    for name in names:
        r = results[name]
        if r.satisfied is None:
            continue
        total += 1
        if r.satisfied:
            satisfied += 1
    return satisfied / total if total else 1.0


def evaluate_step(contract: Contract, state: StateDict, action: ActionRecord,
                  t: int,
                  active: Optional[Callable[[Constraint], bool]] = None) -> StepEvaluation:
    """Evaluate every invariant (on the state) and governance constraint
    (on the action) at step ``t``.

    Preconditions are evaluated only at t = 0 and reported separately;
    they never enter c_hard / c_soft.  ``active`` optionally restricts the
    constraint set (used for phase-scoped composed contracts); inactive
    constraints are recorded as skipped.
    """
    results: dict = {}
    for con in contract.invariants():
        if active is not None and not active(con):
            results[con.name] = ConstraintResult(satisfied=None, detail="out of phase")
            continue
        results[con.name] = evaluate_constraint(con, state, action, target="state")
    for con in contract.governance():
        if active is not None and not active(con):
            results[con.name] = ConstraintResult(satisfied=None, detail="out of phase")
            continue
        results[con.name] = evaluate_constraint(con, state, action, target="action")

    hard_names = [c.name for c in contract.hard_constraints()]
    soft_names = [c.name for c in contract.soft_constraints()]

    preconditions = None
    if t == 0:
        preconditions = {
            con.name: evaluate_constraint(con, state, None, target="state")
            for con in contract.preconditions
        }

    return StepEvaluation(
        step=t,
        results=results,
        c_hard=_ratio(results, hard_names),
        c_soft=_ratio(results, soft_names),
        preconditions=preconditions,
    )


def evaluate_final_state(contract: Contract, state: StateDict, t: int,
                         active: Optional[Callable[[Constraint], bool]] = None) -> dict:
    """Invariant-only evaluation of the trailing state s_T."""
    out: dict = {}
    for con in contract.invariants():
        if active is not None and not active(con):
            out[con.name] = ConstraintResult(satisfied=None, detail="out of phase")
            continue
        out[con.name] = evaluate_constraint(con, state, None, target="state")
    return out


# ---------------------------------------------------------------------------
# Whole-trace satisfaction
# ---------------------------------------------------------------------------

def scope_active(scope: Optional[str], state_index: int,
                 boundaries: Sequence[int], last_index: int) -> bool:
    """Whether a phase-scoped constraint applies at a state index.

    ``boundaries`` are the handoff state indices of a composed trace.
    Stage j covers the closed range between its surrounding boundaries
    (the boundary state belongs to both adjacent stages: it is the
    upstream terminal state and the downstream initial state).  Handoff
    constraints apply at their boundary state only.  Unscoped constraints
    and governance constraints apply everywhere.
    """
    if scope is None:
        return True
    kind, _, num = scope.partition(":")
    j = int(num)
    if kind == "handoff":
        return state_index == boundaries[j]
    if kind == "stage":
        start = 0 if j == 0 else boundaries[j - 1]
        end = last_index if j >= len(boundaries) else boundaries[j]
        return start <= state_index <= end
    return True


def constraint_timelines(contract: Contract, trace: ExecutionTrace,
                         active=None) -> dict:
    """Per-constraint satisfaction timelines.

    Invariants get one entry per state (0..T); governance constraints one
    per action (0..T-1).  Entries are True/False/None (skipped).
    ``active`` is an optional callable (constraint, index) -> bool used by
    phase-scoped verification.
    """
    timelines: dict = {}
    for con in contract.invariants():
        line = []
        for idx, state in enumerate(trace.states):
            if active is not None and not active(con, idx):
                line.append(None)
                continue
            line.append(evaluate_constraint(con, state, None, target="state").satisfied)
        timelines[con.name] = tuple(line)
    for con in contract.governance():
        line = []
        for idx, action in enumerate(trace.actions):
            if active is not None and not active(con, idx):
                line.append(None)
                continue
            line.append(
                evaluate_constraint(con, trace.states[idx], action, target="action").satisfied)
        timelines[con.name] = tuple(line)
    return timelines


def _recoverable(line: Sequence[Optional[bool]], k: int) -> Optional[int]:
    """First index of an unrecovered violation, or None if all recover
    within k steps (inclusive window [t, t+k] on the constraint's own
    timeline)."""
    last = len(line) - 1
    for t, v in enumerate(line):
        if v is not False:
            continue
        window_end = min(t + k, last)
        if not any(line[u] is True for u in range(t, window_end + 1)):
            return t
    return None


def check_deterministic(contract: Contract, trace: ExecutionTrace,
                        timelines: Optional[dict] = None) -> SatisfactionVerdict:
    """Deterministic contract satisfaction over a whole trace.

    The four conditions: preconditions at s_0; every hard invariant at
    every state; every hard governance constraint at every action; and
    bounded recovery (within the contract's k) for each soft-constraint
    violation.  The verdict is their conjunction: one hard breach is a
    contract breach, while a transient soft violation is acceptable
    exactly when compliance returns within the recovery window.
    """
    if timelines is None:
        timelines = constraint_timelines(contract, trace)
    k = contract.satisfaction.k

    pre_witnesses = tuple(
        (0, con.name) for con in contract.preconditions
        if evaluate_constraint(con, trace.states[0], None, target="state").satisfied is not True
    )

    inv_witnesses = []
    for con in contract.invariants_hard:
        for idx, v in enumerate(timelines[con.name]):
            if v is False:
                inv_witnesses.append((idx, con.name))
    gov_witnesses = []
    for con in contract.governance_hard:
        for idx, v in enumerate(timelines[con.name]):
            if v is False:
                gov_witnesses.append((idx, con.name))

    rec_witnesses = []
    for con in contract.soft_constraints():
        bad = _recoverable(timelines[con.name], k)
        if bad is not None:
            rec_witnesses.append((bad, con.name))

    return SatisfactionVerdict(
        preconditions_ok=not pre_witnesses,
        invariants_ok=not inv_witnesses,
        governance_ok=not gov_witnesses,
        recoverability_ok=not rec_witnesses,
        witnesses={
            "preconditions": tuple(pre_witnesses),
            "invariants": tuple(inv_witnesses),
            "governance": tuple(gov_witnesses),
            "recoverability": tuple(rec_witnesses),
        },
    )


def classify_outcome(contract: Contract, trace: ExecutionTrace,
                     timelines: Optional[dict] = None) -> str:
    """Three-way outcome: hard_violation if any hard constraint fails
    anywhere, soft_violation if only soft constraints fail, compliant
    otherwise.  Whether soft violations recovered in time is reported by
    the deterministic verdict, not by this label."""
    if timelines is None:
        timelines = constraint_timelines(contract, trace)
    hard = {c.name for c in contract.hard_constraints()}
    soft = {c.name for c in contract.soft_constraints()}
    precondition_breach = any(
        evaluate_constraint(con, trace.states[0], None, target="state").satisfied is False
        for con in contract.preconditions
    )
    hard_breach = any(False in timelines[name] for name in hard)
    if hard_breach or precondition_breach:
        return HARD_VIOLATION
    if any(False in timelines[name] for name in soft):
        return SOFT_VIOLATION
    return COMPLIANT
