"""Constraint evaluation: per-step scoring and whole-trace satisfaction.

Semantics follow the contract model: preconditions (on the initial state
only) and invariants (on states, indices 0..T) are over states and never
see the action; governance constraints are on actions (indices 0..T-1).
A monitor step ``t`` pairs state ``s_t`` with action ``a_t``; the trailing
state ``s_T`` receives an invariant-only evaluation.  Every verdict is
derived from these step evaluations, folded into one timeline per
constraint.  A precondition holds only when satisfied: one skipped under
on_missing=skip counts as failed.  Given the stage boundaries of a
composed contract, a phase-scoped constraint outside its stage (see
:func:`scope_active`) is recorded as skipped, "out of phase".

Missing state fields never pass silently: the constraint's ``on_missing``
policy decides between violate (default), satisfy, and skip, and the
diagnostic is attached to the result either way.

A contract's plan, cached on the contract object, validates it once,
compiles each constraint into a closure ``(state, action) ->
ConstraintResult`` (:func:`compile_constraint`: a field path becomes a
walker unrolled for its key count, an operator a test specialised on the
constant operand, see :mod:`~agentcontracts.expressions`) and holds its
tables, so a step does constant work per constraint.  A plan's closures are
the one evaluator: steps, post-recovery re-scoring, the trailing state and
composition's conditions run them; :func:`evaluate_constraint` compiles
a lone constraint for one call.

A passing closure returns the shared ``SATISFIED`` result, so a step
records which results are anything else (``StepEvaluation.non_satisfied``)
and its bookkeeping reads only those: with none, both compliance scores
are 1.0; otherwise the same integer counts as a full pass give the same
ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from .errors import FieldResolutionError, SemanticError, TypeMismatch, ZeroSeverity
from .expressions import compile_evaluator, field_getter, operator_for
from .model import (MISSING, ActionRecord, Constraint, Contract, ExecutionTrace, StateDict,
                    fallback_chain, require_valid)

__all__ = [
    "ConstraintResult",
    "StepEvaluation",
    "ViolationEvent",
    "SatisfactionVerdict",
    "compile_constraint",
    "evaluate_constraint",
    "evaluate_step",
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
    #: Names of the results other than the shared plain pass ``SATISFIED``
    #: (violated, skipped, or satisfied with a diagnostic), in results
    #: order: all the step's bookkeeping needs to read.  Derived from
    #: ``results`` when not given.
    non_satisfied: Optional[tuple] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.non_satisfied is None:
            object.__setattr__(self, "non_satisfied", _non_satisfied(self.results))

    def preconditions_ok(self) -> bool:
        return all(r.satisfied is True for r in (self.preconditions or {}).values())


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
# Constraint compilation: once per contract plan, then a closure per step
# ---------------------------------------------------------------------------

#: Shared detail-free results.
SATISFIED = ConstraintResult(satisfied=True)
VIOLATED = ConstraintResult(satisfied=False)
OUT_OF_PHASE = ConstraintResult(satisfied=None, detail="out of phase")

Evaluator = Callable[[StateDict, Optional[ActionRecord]], ConstraintResult]


def compile_constraint(constraint: Constraint, target: str) -> Evaluator:
    """The constraint as a closure ``(state, action) -> ConstraintResult``.

    ``target`` is "state" for preconditions and invariants, "action" for
    governance: the side a field predicate's bare path reads (see
    :func:`~agentcontracts.expressions.field_key`).  Missing fields follow
    the constraint's on_missing policy; type errors always fail closed
    (violated, with the diagnostic).  An unknown operator or an invalid
    ``matches`` pattern raises SemanticError naming the constraint, in the
    validator's words (only a constraint outside a plan can have one).
    """
    check, policy = constraint.check, constraint.on_missing
    if check.is_expression():
        expression = compile_evaluator(check.expression)

        def evaluate_expression(state, action):
            try:
                return SATISFIED if expression(state, action) else VIOLATED
            except FieldResolutionError as exc:
                return _missing_result(policy, str(exc))
            except TypeMismatch as exc:
                return ConstraintResult(satisfied=False, detail=f"type mismatch: {exc}")

        return evaluate_expression

    get = field_getter(check.field_path, target)
    if check.operator == "exists":
        return lambda state, action: VIOLATED if get(state, action) is MISSING else SATISFIED
    missing = _missing_result(policy, str(FieldResolutionError(check.field_path)))
    try:
        test = operator_for(check.operator, check.operand)
    except SemanticError as exc:
        raise SemanticError(f"{constraint.name}: {exc}") from None

    def evaluate_field(state, action):
        value = get(state, action)
        if value is MISSING:
            return missing
        try:
            return SATISFIED if test(value) else VIOLATED
        except TypeMismatch as exc:
            return ConstraintResult(satisfied=False, detail=f"type mismatch: {exc}")

    return evaluate_field


def _missing_result(policy: str, diagnostic: str) -> ConstraintResult:
    if policy == "satisfy":
        return ConstraintResult(satisfied=True, detail=f"{diagnostic} (on_missing=satisfy)")
    if policy == "skip":
        return ConstraintResult(satisfied=None, detail=f"{diagnostic} (on_missing=skip)")
    return ConstraintResult(satisfied=False, detail=f"{diagnostic} (on_missing=violate)")


def evaluate_constraint(constraint: Constraint, state: StateDict,
                        action: Optional[ActionRecord],
                        target: str) -> ConstraintResult:
    """Evaluate one constraint against a state/action pair, compiled for
    this call alone (see :func:`compile_constraint`)."""
    return compile_constraint(constraint, target)(state, action)


class _Plan:
    """A contract validated (an error issue raises SemanticError, as the
    parser does), then compiled once: ``(name, scope, closure)`` per
    precondition, invariant and governance constraint, the hard and the soft
    names, each scored name's results position and weight (and their total),
    the ``(name, weight)`` pairs of the invariants and of the governance
    constraints that drift's compliance gaps read, and each soft
    constraint's recovery chain, one strategy per attempt."""

    __slots__ = ("preconditions", "invariants", "governance", "hard", "soft",
                 "order", "weights", "total_weight", "gap_weights", "schedules")

    def __init__(self, contract: Contract):
        require_valid(contract)

        def entries(constraints, target):
            return tuple((c.name, c.scope, compile_constraint(c, target)) for c in constraints)

        self.preconditions = entries(contract.preconditions, "state")
        self.invariants = entries(contract.invariants(), "state")
        self.governance = entries(contract.governance(), "action")
        self.hard = frozenset(c.name for c in contract.hard_constraints())
        self.soft = frozenset(c.name for c in contract.soft_constraints())
        scored = contract.invariants() + contract.governance()
        self.order = {c.name: i for i, c in enumerate(scored)}
        self.weights = {c.name: c.weight for c in scored}
        self.total_weight = sum(self.weights.values())
        self.gap_weights = tuple(tuple((c.name, c.weight) for c in constraints)
                                 for constraints in (contract.invariants(), contract.governance()))
        strategies = {s.name: s for s in contract.recovery_strategies}
        self.schedules = tuple(
            (con, tuple(s for s in fallback_chain(strategies, con.recovery)[0]
                        for _ in range(s.max_attempts)))
            for con in contract.soft_constraints())


def _plan(contract: Contract) -> _Plan:
    """The contract's plan, built (and so validated) on first use and cached
    on the contract object."""
    plan = vars(contract).get("_compiled")
    if plan is None:
        plan = vars(contract)["_compiled"] = _Plan(contract)
    return plan


# ---------------------------------------------------------------------------
# Step evaluation
# ---------------------------------------------------------------------------

def _non_satisfied(results: Mapping[str, ConstraintResult]) -> tuple:
    return tuple(name for name, r in results.items() if r is not SATISFIED)


def _ratio(results: Mapping[str, ConstraintResult], non_satisfied: Sequence[str],
           names: frozenset) -> float:
    """Satisfied over scored constraints among ``names``, a skipped one not
    scored (1.0 with none scored); only the non-satisfied results can
    differ from a plain pass."""
    satisfied = total = len(names)
    for name in non_satisfied:
        if name in names:
            r = results[name].satisfied
            if r is None:
                total -= 1
                satisfied -= 1
            elif not r:
                satisfied -= 1
    return satisfied / total if total else 1.0


def _evaluate_into(results: dict, entries: Sequence[tuple], state: StateDict,
                   action: Optional[ActionRecord], t: int, boundaries: Sequence[int]) -> dict:
    if boundaries:
        for name, scope, evaluate in entries:
            results[name] = (evaluate(state, action) if scope_active(scope, t, boundaries)
                             else OUT_OF_PHASE)
    else:
        for name, _, evaluate in entries:
            results[name] = evaluate(state, action)
    return results


def _score_step(contract: Contract, state: StateDict, action: ActionRecord, t: int,
                boundaries: Sequence[int],
                preconditions: Optional[Mapping[str, ConstraintResult]]) -> StepEvaluation:
    """Step ``t`` with the given precondition results, which it does not evaluate."""
    plan = _plan(contract)
    results = _evaluate_into({}, plan.invariants, state, None, t, boundaries)
    _evaluate_into(results, plan.governance, state, action, t, boundaries)
    non_satisfied = _non_satisfied(results)
    return StepEvaluation(step=t, results=results,
                          c_hard=_ratio(results, non_satisfied, plan.hard),
                          c_soft=_ratio(results, non_satisfied, plan.soft),
                          preconditions=preconditions, non_satisfied=non_satisfied)


def evaluate_step(contract: Contract, state: StateDict, action: ActionRecord,
                  t: int, boundaries: Sequence[int] = ()) -> StepEvaluation:
    """Evaluate every invariant (on the state) and governance constraint
    (on the action) at step ``t``.

    Preconditions are evaluated only at t = 0 and reported separately;
    they never enter c_hard / c_soft.  ``boundaries`` are a composed
    contract's stage boundaries: constraints out of phase at ``t`` are
    recorded as skipped.
    """
    preconditions = None
    if t == 0:
        preconditions = _evaluate_into({}, _plan(contract).preconditions, state, None, 0, ())
    return _score_step(contract, state, action, t, boundaries, preconditions)


# ---------------------------------------------------------------------------
# Whole-trace satisfaction
# ---------------------------------------------------------------------------

def scope_active(scope: Optional[str], state_index: int,
                 boundaries: Sequence[int]) -> bool:
    """Whether a phase-scoped constraint applies at a state index: the one
    reader of the scopes composition writes.

    ``boundaries`` are the handoff state indices of a composed trace.
    Stage j covers the closed range between its surrounding boundaries
    (the boundary state belongs to both adjacent stages: it is the
    upstream terminal state and the downstream initial state); the last
    stage runs to the end of the trace.  Handoff constraints apply at
    their boundary state only.  Unscoped constraints (governance, and
    every constraint of a plain contract) apply everywhere.
    """
    if scope is None:
        return True
    kind, _, num = scope.partition(":")
    j = int(num)
    if kind == "handoff":
        return state_index == boundaries[j]
    start = 0 if j == 0 else boundaries[j - 1]
    return start <= state_index and (j >= len(boundaries) or state_index <= boundaries[j])


def initial_preconditions(contract: Contract, steps: Sequence[StepEvaluation],
                          states: Sequence[StateDict]) -> Mapping[str, ConstraintResult]:
    """A session's precondition results: step 0's, or an evaluation of
    ``states[0]`` when no step ran."""
    if steps:
        return steps[0].preconditions
    return _evaluate_into({}, _plan(contract).preconditions, states[0], None, 0, ())


def session_timelines(contract: Contract, preconditions: Mapping[str, ConstraintResult],
                      steps: Sequence[StepEvaluation], states: Sequence[StateDict],
                      boundaries: Sequence[int] = ()) -> dict:
    """Per-constraint timelines (True/False/None entries) folded from the
    evaluations of steps 0..n-1, plus an invariant-only evaluation of the
    trailing state ``states[n]``.  Preconditions get one entry, from the
    given :func:`initial_preconditions`.
    """
    n = len(steps)
    plan = _plan(contract)
    trailing = _evaluate_into({}, plan.invariants, states[n], None, n, boundaries)
    timelines = {name: (r.satisfied,) for name, r in preconditions.items()}
    for name, _, _ in plan.invariants:
        timelines[name] = (tuple(s.results[name].satisfied for s in steps)
                           + (trailing[name].satisfied,))
    for name, _, _ in plan.governance:
        timelines[name] = tuple(s.results[name].satisfied for s in steps)
    return timelines


def constraint_timelines(contract: Contract, trace: ExecutionTrace,
                         boundaries: Sequence[int] = ()) -> dict:
    """Per-constraint timelines of a whole trace, evaluated from scratch with
    the monitor's step evaluation and fold; ``boundaries`` phase-scope a
    composed contract's constraints."""
    steps = [evaluate_step(contract, trace.states[t], trace.actions[t], t, boundaries)
             for t in range(trace.length)]
    return session_timelines(contract, initial_preconditions(contract, steps, trace.states),
                             steps, trace.states, boundaries)


def _recoverable(line: Sequence[Optional[bool]], k: int) -> Optional[int]:
    """First index of an unrecovered violation, or None if all recover
    within k steps (inclusive window [t, t+k] on the constraint's own
    timeline)."""
    for t, v in enumerate(line):
        if v is False and not any(u is True for u in line[t:t + k + 1]):
            return t
    return None


def _precondition_witnesses(contract: Contract, timelines: Mapping) -> tuple:
    """A precondition holds only when satisfied: skipped counts as failed."""
    return tuple((0, con.name) for con in contract.preconditions
                 if timelines[con.name][0] is not True)


def _failures(constraints: Sequence[Constraint], timelines: Mapping) -> tuple:
    return tuple((idx, con.name) for con in constraints
                 for idx, v in enumerate(timelines[con.name]) if v is False)


def check_deterministic(contract: Contract, trace: ExecutionTrace,
                        timelines: Optional[dict] = None) -> SatisfactionVerdict:
    """Deterministic contract satisfaction over a whole trace.

    The four conditions: preconditions at s_0; every hard invariant at
    every state; every hard governance constraint at every action; and
    bounded recovery (within the contract's k) for each soft-constraint
    violation.  The verdict is their conjunction: one hard breach is a
    contract breach, while a transient soft violation is acceptable
    exactly when compliance returns within the recovery window.  Given
    ``timelines`` are read as-is, and ``trace`` is not evaluated.
    """
    if timelines is None:
        timelines = constraint_timelines(contract, trace)
    k = contract.satisfaction.k

    pre_witnesses = _precondition_witnesses(contract, timelines)
    inv_witnesses = _failures(contract.invariants_hard, timelines)
    gov_witnesses = _failures(contract.governance_hard, timelines)
    rec_witnesses = tuple((bad, con.name) for con in contract.soft_constraints()
                          if (bad := _recoverable(timelines[con.name], k)) is not None)

    return SatisfactionVerdict(
        preconditions_ok=not pre_witnesses,
        invariants_ok=not inv_witnesses,
        governance_ok=not gov_witnesses,
        recoverability_ok=not rec_witnesses,
        witnesses={
            "preconditions": pre_witnesses,
            "invariants": inv_witnesses,
            "governance": gov_witnesses,
            "recoverability": rec_witnesses,
        },
    )


def classify_outcome(contract: Contract, trace: ExecutionTrace,
                     timelines: Optional[dict] = None) -> str:
    """Three-way outcome: hard_violation if a precondition does not hold
    or any hard constraint fails anywhere, soft_violation if only soft
    constraints fail, compliant otherwise.  Whether soft violations
    recovered in time is reported by the deterministic verdict, not by
    this label."""
    if timelines is None:
        timelines = constraint_timelines(contract, trace)
    if (_precondition_witnesses(contract, timelines)
            or any(False in timelines[c.name] for c in contract.hard_constraints())):
        return HARD_VIOLATION
    if any(False in timelines[c.name] for c in contract.soft_constraints()):
        return SOFT_VIOLATION
    return COMPLIANT
