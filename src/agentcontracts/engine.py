"""Constraint evaluation: per-step scoring and whole-trace satisfaction.

Semantics follow the contract model: preconditions (on the initial state
only) and invariants (on states, indices 0..T) are over states and never
see the action; governance constraints are on actions (indices 0..T-1).
A monitor step ``t`` pairs state ``s_t`` with action ``a_t``; the trailing
state ``s_T`` receives an invariant-only evaluation.  Every verdict is
derived from these step evaluations by one fold (:func:`_fold`).  A
precondition holds only when satisfied: one skipped under
on_missing=skip counts as failed.  Given the stage boundaries of a
composed contract, checked by :func:`check_boundaries` at each entry, a
phase-scoped constraint outside its stage (see :func:`scope_active`) is
recorded as skipped, "out of phase".

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

A step costs work in proportion to its results that are not a plain
pass, beyond evaluating each constraint once.  A passing check yields the
shared ``SATISFIED`` result, and a generated block stores only a result
that is anything else, so a step keeps just those, in the one dict the
blocks filled (``StepEvaluation.stored``); its ``results`` is a read-only
view (:class:`_Results`) over that same dict that answers ``SATISFIED``
for the rest, and a step that stores nothing shares its plan's empty
dict and view.  Everything that reads a step iterates ``stored`` alone:
with nothing stored, both compliance scores are 1.0; otherwise the same
integer counts as a full pass give the same ratios.  The session's fold
is sparse the same way: it keeps each constraint's entries that are
False or None, from the stored results of steps 0..n-1 and of the
trailing state, and derives the deterministic verdict and the outcome
from those alone.

The records here, as in :mod:`~agentcontracts.drift` and
:mod:`~agentcontracts.monitor`, are slotted immutable records made by
:func:`~agentcontracts.records.record` (no instance ``__dict__``;
assigning to one raises FrozenInstanceError), and ``dataclasses.fields``,
``replace`` and ``asdict`` work on them.  The step path builds its four
per-step records (``StepEvaluation`` here, ``DriftSample``, ``MonitorEvent``
and ``StepReport``) with the class's positional builder ``_build``: it sets
each slot through its member descriptor, so no keyword ``__init__`` and no
``__post_init__`` runs.  Every other record keeps its checking ``__init__``.
"""

from __future__ import annotations

import numbers
from collections.abc import Mapping
from typing import Optional, Sequence

from .errors import BadBoundaries, FieldResolutionError, SemanticError, TypeMismatch, ZeroSeverity
from .expressions import (OPERATORS, SOURCE_GLOBALS, NotInlined, Source, eval_expression,
                          expression_source, field_key, field_value, guarded, predicate_source)
from .model import (MISSING, ActionRecord, Constraint, Contract, ExecutionTrace, StateDict,
                    fallback_chain, operator_issue, require_valid, split_scope)
from .records import field, record

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


@record(slots=True)
class ConstraintResult:
    """Outcome of one constraint at one step.

    ``satisfied`` is True/False, or None when the constraint was skipped
    under on_missing=skip (excluded from that step's scores).
    """

    satisfied: Optional[bool]
    detail: Optional[str] = None


@record(slots=True)
class StepEvaluation:
    """All constraint results at one step plus the compliance scores.

    A step the engine evaluates stores only its results other than the
    shared plain pass ``SATISFIED``, in ``stored``; ``results`` is then a
    read-only view (:class:`_Results`) over that dict that answers
    ``SATISFIED`` for every other scored name.  Any mapping may be given
    instead.
    """

    step: int
    results: Mapping[str, ConstraintResult]
    c_hard: float
    c_soft: float
    preconditions: Optional[Mapping[str, ConstraintResult]] = None
    #: The results other than ``SATISFIED`` (violated, skipped, or
    #: satisfied with a diagnostic), name to result in results order: all
    #: that the step's bookkeeping and the session's fold read.  Derived
    #: from ``results`` when not given.
    stored: Optional[Mapping[str, ConstraintResult]] = field(default=None, compare=False,
                                                            repr=False)

    def __post_init__(self):
        if self.stored is None:
            object.__setattr__(self, "stored", {
                name: r for name, r in self.results.items() if r is not SATISFIED})

    def preconditions_ok(self) -> bool:
        return all(r.satisfied is True for r in (self.preconditions or {}).values())


@record(slots=True)
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


@record(slots=True)
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


_step_evaluation = StepEvaluation._build


# ---------------------------------------------------------------------------
# Constraint evaluation: the interpreter, then one generated step per plan
# ---------------------------------------------------------------------------

#: Shared detail-free results.
SATISFIED = ConstraintResult(satisfied=True)
VIOLATED = ConstraintResult(satisfied=False)
OUT_OF_PHASE = ConstraintResult(satisfied=None, detail="out of phase")


class _Results(Mapping):
    """A step's results as a read-only mapping over its plan's scored
    names (``names``, name to results position): the result ``stored``
    for a name, ``SATISFIED`` for every other, in results order.  It
    compares equal to the dict of the same items, either way round, and
    its ``repr`` is that dict's."""

    __slots__ = ("_names", "_stored")

    def __init__(self, names: Mapping[str, int], stored: dict):
        self._names = names
        self._stored = stored

    def __getitem__(self, name: str) -> ConstraintResult:
        r = self._stored.get(name)
        if r is None:
            if name not in self._names:
                raise KeyError(name)
            return SATISFIED
        return r

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name) -> bool:
        return name in self._names

    def __repr__(self) -> str:
        return repr(dict(self.items()))


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
    closed (violated, with the diagnostic).  An operator outside
    ``FIELD_OPERATORS`` (an expression spelling such as ``<`` too) or a
    ``matches`` operand that is not a valid pattern raises SemanticError
    naming the constraint, with the validator's message from
    :func:`~agentcontracts.model.operator_issue`, before any field is read
    (only a constraint outside a plan can have one).
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
    issue = operator_issue(constraint.name, op, operand)
    if issue is not None:
        raise SemanticError(f"{issue.element}: {issue.message}")
    value = field_value(check.field_path, state, action, target)
    if value is MISSING:
        return _missing_result(constraint.on_missing,
                               str(FieldResolutionError(check.field_path)))
    try:
        return SATISFIED if OPERATORS[op](value, operand) else VIOLATED
    except TypeMismatch as exc:
        return ConstraintResult(satisfied=False, detail=f"type mismatch: {exc}")


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
    governance constraints; the hard and the soft names; each scored
    name's results position, and its weight with its part (0 for an
    invariant, 1 for a governance constraint) in results order, which
    drift's compliance gaps read; the total weight, and the gaps' three
    denominators summed in results order; the view of a step that stores
    nothing; and each soft constraint with its flat schedule, one strategy
    per recovery attempt (each strategy's ``max_attempts`` in a row, then
    its fallback's), keyed by name in chain order."""

    __slots__ = ("evaluate_preconditions", "evaluate_invariants", "evaluate_governance",
                 "hard", "soft", "order", "weights", "total_weight", "passing", "gap_totals",
                 "chains")

    def __init__(self, contract: Contract):
        require_valid(contract)
        self.evaluate_preconditions, self.evaluate_invariants, self.evaluate_governance = \
            _generate(((contract.preconditions, "state"), (contract.invariants(), "state"),
                       (contract.governance(), "action")))
        self.hard = frozenset(c.name for c in contract.hard_constraints())
        self.soft = frozenset(c.name for c in contract.soft_constraints())
        scored = contract.invariants() + contract.governance()
        self.order = {c.name: i for i, c in enumerate(scored)}
        self.weights = {c.name: (c.weight, part)
                        for part, section in enumerate((contract.invariants(),
                                                        contract.governance()))
                        for c in section}
        self.total_weight = sum(c.weight for c in scored)
        self.passing = _Results(self.order, {})
        den, dens = 0.0, [0.0, 0.0]
        for weight, part in self.weights.values():
            den += weight
            dens[part] += weight
        self.gap_totals = (den, *dens)
        strategies = {s.name: s for s in contract.recovery_strategies}
        self.chains = {}
        for con in contract.soft_constraints():
            chain = fallback_chain(strategies, con.recovery)[0]
            self.chains[con.name] = (con, tuple(s for s in chain for _ in range(s.max_attempts)))


def _generate(sections: Sequence[tuple]) -> tuple:
    """One function per section of ``(constraints, target)``,
    ``run(state, action, t, boundaries, stored)``, from one generated
    source compiled once.  Each constraint is a straight-line block
    (:func:`_block`) that stores a result only when it is not the shared
    ``SATISFIED``, so ``stored`` receives, in section order, only those.
    A check is inlined as the source :mod:`~agentcontracts.expressions`
    writes (plain-dict walks, exact type guards); a value off that path,
    and a check it does not inline, calls :func:`evaluate_constraint`, the
    one definition of its semantics.  A scoped constraint out of phase at ``t``
    (:func:`scope_active`, called once per distinct scope per call) stores
    ``OUT_OF_PHASE``.  Every name, key, operand, pattern, scope and
    constraint is bound in the functions' namespace under a generated
    identifier (see :class:`~agentcontracts.expressions.Source`), so no
    contract text reaches the source.
    """
    namespace = {"SAT": SATISFIED, "VIO": VIOLATED, "OOP": OUT_OF_PHASE, "M": MISSING,
                 **SOURCE_GLOBALS}
    lines = []
    for i, (constraints, target) in enumerate(sections):
        source = Source(namespace)
        blocks = [line for c in constraints for line in _block(c, target, source)]
        lines.append(f"def _s{i}(state, action, t, boundaries, stored):")
        lines += ["    " + line for line in ["store = stored.__setitem__", *source.header, *blocks]]
    exec(compile("\n".join(lines) + "\n", "<agentcontracts plan>", "exec"), namespace)
    return tuple(namespace[f"_s{i}"] for i in range(len(sections)))


def _block(constraint: Constraint, target: str, source: Source) -> list:
    """The source lines of one constraint's block; its scope's test is a
    local of the function (:meth:`Source.local`), shared by the scope's blocks.

    An inlined check binds no result: under its guard (the field's
    container and type, or no ``Slow`` raised by an expression) the test
    runs as ``test or store(name, VIO)``, so a pass costs the test alone.
    Off the guard, and for a check that is not inlined, the block runs
    ``(r := fallback) is SAT or store(name, r)``."""
    name = source.bind(constraint.name)
    fallback = (f"{source.bind(evaluate_constraint)}({source.bind(constraint)}, state, action,"
                f" {source.bind(target)})")
    check = constraint.check
    slow = f"(r := {fallback}) is SAT or store({name}, r)"
    try:
        if check.is_expression():
            test = expression_source(check.expression, source)
            lines = [f"try: {test} or store({name}, VIO)", f"except Slow: {slow}"]
        else:
            if check.operator == "exists":
                guard, last = source.walk(*field_key(check.field_path, target), ", M")
                test = f"{last} is not M"
            else:
                guard, last = source.walk(*field_key(check.field_path, target))
                kind, test = predicate_source(check.operator, check.operand, source.bind)
                guard = " and ".join(filter(None, (guard, guarded(kind, last))))
            lines = [f"if {guard}: ({test}) or store({name}, VIO)", f"else: {slow}"]
    except NotInlined:
        lines = [slow]
    scope = constraint.scope
    if scope is not None:
        active = source.local(f"{source.bind(scope_active)}({source.bind(scope)}, t, boundaries)")
        lines = [f"if {active}:", *("    " + line for line in lines), f"else: store({name}, OOP)"]
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

def _ratio(stored: Mapping[str, ConstraintResult], names: frozenset) -> float:
    """Satisfied over scored constraints among ``names``, a skipped one not
    scored (1.0 with none scored), from the stored results alone: every
    other result is a plain pass."""
    satisfied = total = len(names)
    for name, r in stored.items():
        if name in names:
            r = r.satisfied
            if r is None:
                total -= 1
                satisfied -= 1
            elif not r:
                satisfied -= 1
    return satisfied / total if total else 1.0


def _score_step(plan: _Plan, state: StateDict, action: ActionRecord, t: int,
                boundaries: Sequence[int],
                preconditions: Optional[Mapping[str, ConstraintResult]]) -> StepEvaluation:
    """Step ``t`` of the plan's contract with the given precondition
    results, which it does not evaluate.  A step that stores nothing
    shares its plan's view and its empty ``stored``."""
    stored: dict = {}
    plan.evaluate_invariants(state, None, t, boundaries, stored)
    plan.evaluate_governance(state, action, t, boundaries, stored)
    if not stored:
        return _step_evaluation(t, plan.passing, 1.0, 1.0, preconditions, plan.passing._stored)
    return _step_evaluation(t, _Results(plan.order, stored), _ratio(stored, plan.hard),
                            _ratio(stored, plan.soft), preconditions, stored)


def _preconditions(contract: Contract, state: StateDict) -> dict:
    """Every precondition's result at ``state``, in contract order."""
    stored: dict = {}
    _plan(contract).evaluate_preconditions(state, None, 0, (), stored)
    return {con.name: stored.get(con.name, SATISFIED) for con in contract.preconditions}


def _trailing(contract: Contract, state: StateDict, n: int, boundaries: Sequence[int]) -> dict:
    """The invariant results stored for the trailing state ``s_n``."""
    stored: dict = {}
    _plan(contract).evaluate_invariants(state, None, n, boundaries, stored)
    return stored


def evaluate_step(contract: Contract, state: StateDict, action: ActionRecord,
                  t: int, boundaries: Sequence[int] = ()) -> StepEvaluation:
    """Evaluate every invariant (on the state) and governance constraint
    (on the action) at step ``t``.

    Preconditions are evaluated only at t = 0 and reported separately;
    they never enter c_hard / c_soft.  ``boundaries`` are a composed
    contract's stage boundaries, read by :func:`check_boundaries` unless
    ``()`` or ``[]`` (every scope binds): constraints out of phase at
    ``t`` are skipped.
    """
    plan = _plan(contract)
    if not isinstance(boundaries, (tuple, list)) or boundaries:
        boundaries = check_boundaries(boundaries, contract.stages, None)
    preconditions = _preconditions(contract, state) if t == 0 else None
    return _score_step(plan, state, action, t, boundaries, preconditions)


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
    kind, j = split_scope(scope)
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


def _unrecovered(marks: Mapping[int, Optional[bool]], length: int, k: int) -> Optional[int]:
    """First index of an unrecovered violation on a timeline of ``length``
    entries, given as its entries that are not True (``marks``, False or
    None by index, in order), or None if every violation recovers: some
    index of its window ``[t, t + k]`` inside the timeline holds True."""
    passing = 0   # the first True entry after the violation at hand
    for t, v in marks.items():
        if v is False:
            passing = max(passing, t + 1)
            while passing in marks:
                passing += 1
            if passing > t + k or passing >= length:
                return t
    return None


def _recoverable(line: Sequence[Optional[bool]], k: int) -> Optional[int]:
    """:func:`_unrecovered` of a whole timeline of True/False/None entries."""
    return _unrecovered({t: v for t, v in enumerate(line) if v is not True}, len(line), k)


def _fold(contract: Contract, preconditions: Mapping[str, ConstraintResult],
          steps: Sequence[StepEvaluation], trailing: Mapping[str, ConstraintResult]) -> tuple:
    """The deterministic verdict and the three-way outcome of a session,
    ``(SatisfactionVerdict, outcome)``, from the results stored by steps
    0..n-1 (``stored``) and for the trailing state (``trailing``, see
    :func:`_trailing`), and the session's precondition results.

    Every other entry of a constraint's timeline is a pass, so each line
    is kept as its entries that are False or None, by index, in order:
    a failure is a False entry, and recovery is read by
    :func:`_unrecovered` (a line is ``n + 1`` long for an invariant, ``n``
    for a governance constraint).
    """
    n = len(steps)
    marks: dict = {}
    for t, step in enumerate(steps):
        for name, r in step.stored.items():
            if r.satisfied is not True:
                marks.setdefault(name, {})[t] = r.satisfied
    for name, r in trailing.items():
        if r.satisfied is not True:
            marks.setdefault(name, {})[n] = r.satisfied

    def failures(constraints: Sequence[Constraint]) -> tuple:
        return tuple((t, con.name) for con in constraints
                     for t, v in marks.get(con.name, {}).items() if v is False)

    pre_witnesses = tuple((0, con.name) for con in contract.preconditions
                          if preconditions[con.name].satisfied is not True)
    inv_witnesses = failures(contract.invariants_hard)
    gov_witnesses = failures(contract.governance_hard)
    soft_lines = ([(con, n + 1) for con in contract.invariants_soft]
                  + [(con, n) for con in contract.governance_soft])
    k = contract.satisfaction.k
    rec_witnesses = tuple((bad, con.name) for con, length in soft_lines
                          if (bad := _unrecovered(marks.get(con.name, {}), length, k))
                          is not None)
    verdict = SatisfactionVerdict(
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
    if pre_witnesses or inv_witnesses or gov_witnesses:
        return verdict, HARD_VIOLATION
    if any(False in marks.get(con.name, {}).values() for con, _ in soft_lines):
        return verdict, SOFT_VIOLATION
    return verdict, COMPLIANT


def _trace_fold(contract: Contract, trace: ExecutionTrace, boundaries: Sequence[int]) -> tuple:
    """:func:`_fold` of a whole trace, its boundaries checked, evaluated afresh."""
    plan, states, n = _plan(contract), trace.states, trace.length
    boundaries = check_boundaries(boundaries, contract.stages, n)
    preconditions = _preconditions(contract, states[0])
    steps = [_score_step(plan, states[t], trace.actions[t], t, boundaries,
                         preconditions if t == 0 else None) for t in range(n)]
    return _fold(contract, preconditions, steps, _trailing(contract, states[n], n, boundaries))


def check_deterministic(contract: Contract, trace: ExecutionTrace,
                        boundaries: Sequence[int] = ()) -> SatisfactionVerdict:
    """Deterministic contract satisfaction over a whole trace.

    The four conditions: preconditions at s_0; every hard invariant at
    every state; every hard governance constraint at every action; and
    bounded recovery (within the contract's k) for each soft-constraint
    violation.  The verdict is their conjunction: one hard breach is a
    contract breach, while a transient soft violation is acceptable
    exactly when compliance returns within the recovery window.
    ``boundaries`` phase-scope a composed contract's constraints; bad or
    missing ones raise BadBoundaries, as in :func:`~agentcontracts.monitor.run_session`.
    """
    return _trace_fold(contract, trace, boundaries)[0]


def classify_outcome(contract: Contract, trace: ExecutionTrace,
                     boundaries: Sequence[int] = ()) -> str:
    """Three-way outcome: hard_violation if a precondition does not hold
    or any hard constraint fails anywhere, soft_violation if only soft
    constraints fail, compliant otherwise.  Whether soft violations
    recovered in time is reported by the deterministic verdict, not by
    this label.  ``boundaries`` as for :func:`check_deterministic`."""
    return _trace_fold(contract, trace, boundaries)[1]
