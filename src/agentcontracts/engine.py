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

:func:`evaluate_constraint` interprets one constraint directly, with
nothing compiled first: fields read by
:func:`~agentcontracts.expressions.field_value` (through
:func:`~agentcontracts.model.walk_path`), operators from
:data:`~agentcontracts.expressions.OPERATORS`, expressions walked by
:func:`~agentcontracts.expressions.eval_expression`.  It is the one
definition of the semantics.  A contract's plan, cached on the contract
object, validates it once and generates one function per section
(:func:`_generate`) that runs the section's constraints as straight-line
code, so a step does constant work per constraint.  A block inlines the
common value shapes: plain dicts along the path, then a ``str``, a
``bool`` or a plain number (an ``int`` or a ``float`` of magnitude at most
2**53) tested against operands bound once; an expression is inlined node
by node under the same guards.  Any other value (a mapping that is not a
dict, a ``str`` subclass, NaN, a large int, a missing field, a zero
divisor) falls back to :func:`evaluate_constraint`, so results and
diagnostics are the interpreter's whichever path ran, and a plan builds
no per-constraint closure.  No contract text reaches the generated source:
names, keys, operands, patterns, scopes and the constraints themselves are
bound in the functions' namespace under generated identifiers, so no
contract can inject code.  The generated functions run steps,
post-recovery re-scoring, preconditions, the trailing state and
composition's conditions; a scoped block reads :func:`scope_active`, once
per distinct scope per call.

A passing check stores the shared ``SATISFIED`` result, so a step records
which results are anything else (``StepEvaluation.non_satisfied``) as it
goes, and its bookkeeping reads only those: with none, both compliance
scores are 1.0; otherwise the same integer counts as a full pass give the
same ratios.  The session's fold is sparse the same way: each timeline
starts as a list of True and only the non-satisfied entries are written
(:func:`session_timelines`), and the verdicts find the False entries
with ``list.index`` and test each recovery window with ``True in``, both
C scans, exact because entries are only True, False or None.

The records here, as in :mod:`~agentcontracts.drift` and
:mod:`~agentcontracts.monitor`, are slotted frozen dataclasses: immutable,
with no instance ``__dict__``.  The step path builds its four per-step
records (``StepEvaluation`` here, ``DriftSample``, ``MonitorEvent`` and
``StepReport``) positionally, through a function that
:func:`_positional` generates from the class's fields: it sets each slot
through its member descriptor, so no keyword ``__init__`` or frozen
``__setattr__`` runs.  Every other record keeps its checking ``__init__``.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass, field, fields
from itertools import accumulate
from typing import Callable, Mapping, Optional, Sequence

from .errors import BadBoundaries, FieldResolutionError, SemanticError, TypeMismatch, ZeroSeverity
from .expressions import (OPERATORS, SOURCE_GLOBALS, NotInlined, Source, eval_expression,
                          expression_source, field_key, field_value, guarded, predicate_source)
from .model import (FIELD_OPERATORS, MISSING, ActionRecord, Constraint, Contract, ExecutionTrace,
                    StateDict, fallback_chain, require_valid)

__all__ = [
    "ConstraintResult",
    "StepEvaluation",
    "ViolationEvent",
    "SatisfactionVerdict",
    "check_boundaries",
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


@dataclass(frozen=True, slots=True)
class ConstraintResult:
    """Outcome of one constraint at one step.

    ``satisfied`` is True/False, or None when the constraint was skipped
    under on_missing=skip (excluded from that step's scores).
    """

    satisfied: Optional[bool]
    detail: Optional[str] = None


@dataclass(frozen=True, slots=True)
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
            object.__setattr__(self, "non_satisfied", tuple(
                name for name, r in self.results.items() if r is not SATISFIED))

    def preconditions_ok(self) -> bool:
        return all(r.satisfied is True for r in (self.preconditions or {}).values())


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


def _positional(cls) -> Callable:
    """A function ``build(*values)`` making a slotted frozen ``cls`` from
    every field's value, in field order: the object comes from
    ``object.__new__`` and each slot is set through its member descriptor,
    so no keyword ``__init__``, no frozen ``__setattr__`` and no
    ``__post_init__`` runs.  For the records the step path makes."""
    names = [f.name for f in fields(cls)]
    namespace = {"_new": object.__new__, "_cls": cls,
                 **{f"_set_{name}": cls.__dict__[name].__set__ for name in names}}
    source = "".join([f"def build({', '.join(names)}):\n", "    _obj = _new(_cls)\n",
                      *(f"    _set_{name}(_obj, {name})\n" for name in names),
                      "    return _obj\n"])
    exec(compile(source, f"<agentcontracts {cls.__name__}>", "exec"), namespace)
    return namespace["build"]


_step_evaluation = _positional(StepEvaluation)


# ---------------------------------------------------------------------------
# Constraint evaluation: the interpreter, then one generated step per plan
# ---------------------------------------------------------------------------

#: Shared detail-free results.
SATISFIED = ConstraintResult(satisfied=True)
VIOLATED = ConstraintResult(satisfied=False)
OUT_OF_PHASE = ConstraintResult(satisfied=None, detail="out of phase")

def evaluate_constraint(constraint: Constraint, state: StateDict,
                        action: Optional[ActionRecord], target: str) -> ConstraintResult:
    """The constraint's result at a state/action pair, interpreted directly:
    the one definition of its semantics, and the generated blocks' fallback.

    ``target`` is "state" for preconditions and invariants, "action" for
    governance: the side a field predicate's bare path reads (see
    :func:`~agentcontracts.expressions.field_key`).  A field is read by
    :func:`~agentcontracts.expressions.field_value`, an operator is
    ``OPERATORS[op]`` and an expression is walked by
    :func:`~agentcontracts.expressions.eval_expression`.  Missing fields
    follow the constraint's on_missing policy; type errors always fail
    closed (violated, with the diagnostic).  An unknown operator or a
    ``matches`` operand that is not a valid pattern raises SemanticError
    naming the constraint, in the validator's words, before any field is
    read (only a constraint outside a plan can have one).
    """
    check = constraint.check
    if check.is_expression():
        try:
            return SATISFIED if eval_expression(check.expression, state, action) else VIOLATED
        except FieldResolutionError as exc:
            return _missing_result(constraint.on_missing, str(exc))
        except TypeMismatch as exc:
            return ConstraintResult(satisfied=False, detail=f"type mismatch: {exc}")
    op, operand = check.operator, check.operand
    if op == "exists":
        return VIOLATED if field_value(check.field_path, state, action, target) is MISSING \
            else SATISFIED
    _check_operator(constraint.name, op, operand)
    value = field_value(check.field_path, state, action, target)
    if value is MISSING:
        return _missing_result(constraint.on_missing,
                               str(FieldResolutionError(check.field_path)))
    try:
        return SATISFIED if OPERATORS[op](value, operand) else VIOLATED
    except TypeMismatch as exc:
        return ConstraintResult(satisfied=False, detail=f"type mismatch: {exc}")


def _check_operator(name: str, op: str, operand) -> None:
    """Raise SemanticError, in the validator's words, for an operator
    missing from ``OPERATORS`` and for a ``matches`` operand that is not a
    valid pattern."""
    if op not in OPERATORS:
        raise SemanticError(f"{name}: operator {op!r} is not one of {FIELD_OPERATORS}")
    if op == "matches":
        if not isinstance(operand, str):
            raise SemanticError(f"{name}: matches operand must be a string")
        try:
            re.compile(operand)
        except re.error as exc:
            raise SemanticError(f"{name}: invalid regular expression: {exc}") from None


def _missing_result(policy: str, diagnostic: str) -> ConstraintResult:
    if policy == "satisfy":
        return ConstraintResult(satisfied=True, detail=f"{diagnostic} (on_missing=satisfy)")
    if policy == "skip":
        return ConstraintResult(satisfied=None, detail=f"{diagnostic} (on_missing=skip)")
    return ConstraintResult(satisfied=False, detail=f"{diagnostic} (on_missing=violate)")


class _Plan:
    """A contract validated (an error issue raises SemanticError, as the
    parser does), then compiled once: one generated function per section
    (:func:`_generate`) that runs its preconditions, its invariants or its
    governance constraints; the hard and the soft names, each scored
    name's results position and weight (and their total), the ``(name,
    weight)`` pairs of the invariants and of the governance constraints
    that drift's compliance gaps read, and each soft constraint's recovery
    chain with the running totals of its strategies' ``max_attempts``."""

    __slots__ = ("evaluate_preconditions", "evaluate_invariants", "evaluate_governance",
                 "hard", "soft", "order", "weights", "total_weight", "gap_weights", "chains")

    def __init__(self, contract: Contract):
        require_valid(contract)
        self.evaluate_preconditions, self.evaluate_invariants, self.evaluate_governance = \
            _generate(((contract.preconditions, "state"), (contract.invariants(), "state"),
                       (contract.governance(), "action")))
        self.hard = frozenset(c.name for c in contract.hard_constraints())
        self.soft = frozenset(c.name for c in contract.soft_constraints())
        scored = contract.invariants() + contract.governance()
        self.order = {c.name: i for i, c in enumerate(scored)}
        self.weights = {c.name: c.weight for c in scored}
        self.total_weight = sum(self.weights.values())
        self.gap_weights = tuple(tuple((c.name, c.weight) for c in constraints)
                                 for constraints in (contract.invariants(), contract.governance()))
        strategies = {s.name: s for s in contract.recovery_strategies}
        self.chains = []
        for con in contract.soft_constraints():
            chain = fallback_chain(strategies, con.recovery)[0]
            self.chains.append((con, chain, tuple(accumulate(s.max_attempts for s in chain))))


def _generate(sections: Sequence[tuple]) -> tuple:
    """One function per section of ``(constraints, target)``,
    ``run(state, action, t, boundaries, results, non_satisfied)``, from one
    generated source compiled once.  Each constraint is a straight-line
    block: it stores the constraint's result under its name and appends
    the name to ``non_satisfied`` unless the result is the shared
    ``SATISFIED``.  A check is inlined as the source
    :mod:`~agentcontracts.expressions` writes (plain-dict walks, exact type
    guards); a value off that path, and a check it does not inline, calls
    :func:`evaluate_constraint`, the one definition of its semantics.  A
    scoped constraint out of phase at ``t`` (:func:`scope_active`, called
    once per distinct scope per call) is ``OUT_OF_PHASE``.  Every name,
    key, operand, pattern, scope and constraint is bound in the functions'
    namespace under a generated identifier (see
    :class:`~agentcontracts.expressions.Source`), so no contract text
    reaches the source.
    """
    namespace = {"SAT": SATISFIED, "VIO": VIOLATED, "OOP": OUT_OF_PHASE, "M": MISSING,
                 **SOURCE_GLOBALS}
    lines = []
    for i, (constraints, target) in enumerate(sections):
        source, active = Source(namespace), {}
        blocks = [line for c in constraints for line in _block(c, target, source, active)]
        lines.append(f"def _s{i}(state, action, t, boundaries, results, non_satisfied):")
        lines += ["    " + line for line in ["add = non_satisfied.append", *source.header, *blocks]]
    exec(compile("\n".join(lines) + "\n", "<agentcontracts plan>", "exec"), namespace)
    return tuple(namespace[f"_s{i}"] for i in range(len(sections)))


def _block(constraint: Constraint, target: str, source: Source, active: dict) -> list:
    """The source lines of one constraint's block; ``active`` holds the
    local of each scope's test already hoisted into the function."""
    name = source.bind(constraint.name)
    fallback = (f"{source.bind(evaluate_constraint)}({source.bind(constraint)}, state, action,"
                f" {source.bind(target)})")
    check = constraint.check
    try:
        if check.is_expression():
            test = expression_source(check.expression, source)
            lines = [f"try: results[{name}] = r = (SAT if {test} else VIO)",
                     f"except Slow: results[{name}] = r = {fallback}"]
        elif check.operator == "exists":
            guard, last = source.walk(*field_key(check.field_path, target), ", M")
            lines = [f"results[{name}] = r = "
                     f"(VIO if {last} is M else SAT) if {guard} else {fallback}"]
        else:
            guard, last = source.walk(*field_key(check.field_path, target))
            kind, test = predicate_source(check.operator, check.operand, source.bind)
            guard = " and ".join(filter(None, (guard, guarded(kind, last))))
            lines = [f"results[{name}] = r = (SAT if {test} else VIO) if {guard} else {fallback}"]
    except NotInlined:
        lines = [f"results[{name}] = r = {fallback}"]
    lines.append(f"r is SAT or add({name})")
    scope = constraint.scope
    if scope is not None:
        if scope not in active:
            call = f"{source.bind(scope_active)}({source.bind(scope)}, t, boundaries)"
            active[scope] = source.local(call)
        lines = [f"if {active[scope]}:", *("    " + line for line in lines),
                 f"else: results[{name}] = OOP; add({name})"]
    return lines


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


def _score_step(contract: Contract, state: StateDict, action: ActionRecord, t: int,
                boundaries: Sequence[int],
                preconditions: Optional[Mapping[str, ConstraintResult]]) -> StepEvaluation:
    """Step ``t`` with the given precondition results, which it does not evaluate."""
    plan = _plan(contract)
    results, non_satisfied = {}, []
    plan.evaluate_invariants(state, None, t, boundaries, results, non_satisfied)
    plan.evaluate_governance(state, action, t, boundaries, results, non_satisfied)
    non_satisfied = tuple(non_satisfied)
    return _step_evaluation(t, results, _ratio(results, non_satisfied, plan.hard),
                            _ratio(results, non_satisfied, plan.soft), preconditions,
                            non_satisfied)


def _preconditions(contract: Contract, state: StateDict) -> dict:
    results: dict = {}
    _plan(contract).evaluate_preconditions(state, None, 0, (), results, [])
    return results


def evaluate_step(contract: Contract, state: StateDict, action: ActionRecord,
                  t: int, boundaries: Sequence[int] = ()) -> StepEvaluation:
    """Evaluate every invariant (on the state) and governance constraint
    (on the action) at step ``t``.

    Preconditions are evaluated only at t = 0 and reported separately;
    they never enter c_hard / c_soft.  ``boundaries`` are a composed
    contract's stage boundaries: constraints out of phase at ``t`` are
    recorded as skipped.
    """
    preconditions = _preconditions(contract, state) if t == 0 else None
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
    every constraint of a plain contract) apply everywhere, as does every
    constraint given no boundaries (as composition's conditions give).
    """
    if scope is None or not boundaries:
        return True
    kind, _, num = scope.partition(":")
    j = int(num)
    if kind == "handoff":
        return state_index == boundaries[j]
    start = 0 if j == 0 else boundaries[j - 1]
    return start <= state_index and (j >= len(boundaries) or state_index <= boundaries[j])


def check_boundaries(boundaries, n_stages: int, trace_length: Optional[int]) -> tuple:
    """Check the stage boundaries of an ``n_stages``-stage composed
    contract over a trace of ``trace_length`` steps, and return them as a
    tuple of ints.

    There must be one boundary per handoff, each an integer state index in
    ``[0, trace_length]`` (``trace_length`` None: no upper bound),
    strictly increasing.  Raises BadBoundaries.
    """
    if n_stages == 1 and isinstance(boundaries, (tuple, list)) and not boundaries:
        return ()
    try:
        boundaries = tuple(boundaries)
    except TypeError:
        raise BadBoundaries(f"boundaries must be a list of state indices, "
                            f"got {type(boundaries).__name__}") from None
    if any(isinstance(b, bool) or not isinstance(b, numbers.Integral) for b in boundaries):
        raise BadBoundaries(f"boundary indices must be integers, got {list(boundaries)!r}")
    boundaries = tuple(int(b) for b in boundaries)
    if len(boundaries) != n_stages - 1:
        raise BadBoundaries(
            f"{n_stages}-stage contract needs {n_stages - 1} boundaries, got {len(boundaries)}")
    upper = float("inf") if trace_length is None else trace_length
    if any(not (0 <= idx <= upper) for idx in boundaries):
        raise BadBoundaries(f"boundary indices must lie in [0, {upper}]")
    if any(boundaries[i] >= boundaries[i + 1] for i in range(len(boundaries) - 1)):
        raise BadBoundaries("boundary indices must be strictly increasing")
    return boundaries


def initial_preconditions(contract: Contract, steps: Sequence[StepEvaluation],
                          states: Sequence[StateDict]) -> Mapping[str, ConstraintResult]:
    """A session's precondition results: step 0's, or an evaluation of
    ``states[0]`` when no step ran."""
    if steps:
        return steps[0].preconditions
    return _preconditions(contract, states[0])


def session_timelines(contract: Contract, preconditions: Mapping[str, ConstraintResult],
                      steps: Sequence[StepEvaluation], states: Sequence[StateDict],
                      boundaries: Sequence[int] = ()) -> dict:
    """Per-constraint timelines, lists of True/False/None entries, folded
    from the evaluations of steps 0..n-1, plus an invariant-only evaluation
    of the trailing state ``states[n]``.  Preconditions get one entry, from
    the given :func:`initial_preconditions`.

    Every result outside a step's ``non_satisfied`` is the shared
    ``SATISFIED``, so each line starts all True and only those entries are
    patched.
    """
    n = len(steps)
    trailing, trailing_non_satisfied = {}, []
    _plan(contract).evaluate_invariants(states[n], None, n, boundaries, trailing,
                                        trailing_non_satisfied)
    timelines = {name: [r.satisfied] for name, r in preconditions.items()}
    for con in contract.invariants():
        timelines[con.name] = [True] * (n + 1)
    for con in contract.governance():
        timelines[con.name] = [True] * n
    for t, step in enumerate(steps):
        results = step.results
        for name in step.non_satisfied:
            timelines[name][t] = results[name].satisfied
    for name in trailing_non_satisfied:
        timelines[name][n] = trailing[name].satisfied
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


def _false_at(line: Sequence[Optional[bool]]):
    """The indices of a timeline's False entries, in order.  Entries are
    True, False or None, so ``in`` and ``index``, which compare by equality
    in C, find exactly the False ones."""
    if False in line:
        t = line.index(False)
        try:
            while True:
                yield t
                t = line.index(False, t + 1)
        except ValueError:
            return


def _recoverable(line: Sequence[Optional[bool]], k: int) -> Optional[int]:
    """First index of an unrecovered violation, or None if all recover
    within k steps (inclusive window [t, t+k] on the constraint's own
    timeline)."""
    return next((t for t in _false_at(line) if True not in line[t:t + k + 1]), None)


def _precondition_witnesses(contract: Contract, timelines: Mapping) -> tuple:
    """A precondition holds only when satisfied: skipped counts as failed."""
    return tuple((0, con.name) for con in contract.preconditions
                 if timelines[con.name][0] is not True)


def _failures(constraints: Sequence[Constraint], timelines: Mapping) -> tuple:
    return tuple((t, con.name) for con in constraints for t in _false_at(timelines[con.name]))


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
