"""Serial contract composition: composed contracts, the four composition
conditions, probabilistic chain bounds, and phase-scoped trace verification.

A composed contract keeps the upstream preconditions, unions both agents'
invariants (each phase-scoped to its own stage) with the handoff invariant
(scoped to the boundary state), unions governance constraints globally
(they are checked throughout the chain), merges recovery strategies under
a cascade policy, and takes the maximum of the two recovery windows.  It
carries its stage count: every trace entry point over it needs one stage
boundary per handoff, checked by :func:`check_boundaries`.

The semantic conditions (assumption discharge C2, recovery independence
C4) are checked extensionally over supplied witness states; the logical
implication they stand for is undecidable for the expression language, so
witness corpora travel with the benchmark scenarios.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Mapping, Optional, Sequence, Tuple

from .engine import _plan, check_boundaries, check_deterministic
from .errors import InsufficientSamples, TypeMismatch
from .expressions import OPERATORS, field_key, field_value
from .model import (
    MISSING,
    ActionRecord,
    Constraint,
    Contract,
    SatisfactionParams,
    StateDict,
    is_number,
    split_scope,
)
from .records import as_dict, field, record, replace

__all__ = [
    "HandoffSpec",
    "ChainSpec",
    "ChainBounds",
    "ConditionReport",
    "ConditionResult",
    "compose_contracts",
    "compose_chain",
    "handoff_contract",
    "check_conditions",
    "chain_bounds",
    "verify_chain_trace",
    "check_boundaries",
]


@record
class HandoffSpec:
    """Boundary requirements between two chained agents."""

    invariants: tuple = ()
    type_map: Mapping[str, str] = field(default_factory=dict)
    p_h: float = 1.0
    delta_h: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "invariants", tuple(self.invariants))
        object.__setattr__(self, "type_map", dict(self.type_map))
        if not (0.0 <= self.p_h <= 1.0 and 0.0 <= self.delta_h <= 1.0):
            raise ValueError("p_h and delta_h must lie in [0, 1]")


def handoff_contract(invariants: Sequence[Constraint]) -> Contract:
    """Handoff invariants as the contract they are validated and evaluated
    as: each in the section it takes once composed (only a soft one soft)."""
    return Contract(name="handoff",
                    invariants_hard=tuple(c for c in invariants if c.severity != "soft"),
                    invariants_soft=tuple(c for c in invariants if c.severity == "soft"))


@record
class ChainSpec:
    """Per-agent and per-handoff reliability numbers for an N-agent chain."""

    p_agents: tuple
    delta_agents: tuple
    p_handoffs: tuple = ()
    delta_handoffs: tuple = ()
    conditional_independence_assumed: bool = True

    def __post_init__(self):
        for name in ("p_agents", "delta_agents", "p_handoffs", "delta_handoffs"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        n = len(self.p_agents)
        if n < 1 or len(self.delta_agents) != n:
            raise ValueError("need p and delta for every agent")
        if len(self.p_handoffs) != n - 1 or len(self.delta_handoffs) != n - 1:
            raise ValueError(f"a {n}-agent chain has {n - 1} handoffs")

    @classmethod
    def uniform(cls, n: int, p: float, delta: float, p_h: float, delta_h: float,
                conditional_independence_assumed: bool = True) -> "ChainSpec":
        return cls(p_agents=(p,) * n, delta_agents=(delta,) * n,
                   p_handoffs=(p_h,) * (n - 1), delta_handoffs=(delta_h,) * (n - 1),
                   conditional_independence_assumed=conditional_independence_assumed)

    @classmethod
    def from_pipeline(cls, pipeline, conditional_independence_assumed: bool = True) -> "ChainSpec":
        """Read per-agent (p, delta) from stage contracts and handoff
        reliabilities from the pipeline document."""
        return cls(
            p_agents=tuple(s.contract.satisfaction.p for s in pipeline.stages),
            delta_agents=tuple(s.contract.satisfaction.delta for s in pipeline.stages),
            p_handoffs=tuple(h.p_h for h in pipeline.handoffs),
            delta_handoffs=tuple(h.delta_h for h in pipeline.handoffs),
            conditional_independence_assumed=conditional_independence_assumed,
        )


@record
class ChainBounds:
    """End-to-end chain guarantees."""

    p_chain_lower: float
    delta_chain_upper: float
    p_frechet_lower: float
    conditional_independence_assumed: bool = True

    def to_dict(self) -> dict:
        return as_dict(self)


@record
class ConditionResult:
    passed: bool
    witnesses: tuple = ()
    checked: int = 0

    def to_dict(self) -> dict:
        return {**as_dict(self), "witnesses": [list(w) for w in self.witnesses]}


@record
class ConditionReport:
    """Pass/fail plus concrete witnesses for each composition condition."""

    c1_interface: ConditionResult
    c2_assumptions: ConditionResult
    c3_governance: ConditionResult
    c4_recovery: ConditionResult

    @property
    def all_pass(self) -> bool:
        return (self.c1_interface.passed and self.c2_assumptions.passed
                and self.c3_governance.passed and self.c4_recovery.passed)

    def to_dict(self) -> dict:
        return {
            "C1": self.c1_interface.to_dict(),
            "C2": self.c2_assumptions.to_dict(),
            "C3": self.c3_governance.to_dict(),
            "C4": self.c4_recovery.to_dict(),
            "all_pass": self.all_pass,
        }


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def _rename_collisions(groups: Sequence[Tuple[str, list]]) -> dict:
    """groups: (owner prefix, list of named items).  Returns mapping
    id(item) -> new name: a name held in more than one group is prefixed by
    its group's owner, again until it clashes with no other name, and every
    other name is kept."""
    held = Counter(name for _, items in groups for name in {item.name for item in items})
    taken = set(held)
    renames: dict = {}
    for prefix, items in groups:
        chosen: dict = {}
        for item in items:
            if held[item.name] > 1 and item.name not in chosen:
                name = f"{prefix}.{item.name}"
                while name in taken:
                    name = f"{prefix}.{name}"
                taken.add(name)
                chosen[item.name] = name
            renames[id(item)] = chosen.get(item.name, item.name)
    return renames


def compose_contracts(a: Contract, b: Contract, h: HandoffSpec) -> Contract:
    """Compose two agent contracts across a handoff.

    Invariants from each side are phase-scoped; handoff invariants bind at
    the boundary state; governance is a global union (C3 conflicts are
    surfaced by :func:`check_conditions`, not here); the composed recovery
    window is max(k_a, k_b) and the composed (p, delta) are
    :func:`chain_bounds`'s for the two stages.  Duplicate constraint or
    strategy names across the two sides are prefixed by their agent's name
    (again, until no name clashes); every other name is kept.  The result
    spans ``a.stages + b.stages`` stages, ``b``'s scopes offset by
    ``a.stages``.
    """
    n_a = a.stages

    a_cons = list(a.all_constraints())
    b_cons = list(b.all_constraints())
    h_cons = list(h.invariants)
    h_sections = handoff_contract(h_cons)
    renames = _rename_collisions([(a.name, a_cons), (b.name, b_cons),
                                  ("handoff", h_cons)])
    a_strats = list(a.recovery_strategies)
    b_strats = list(b.recovery_strategies)
    strategy_renames = _rename_collisions([(a.name, a_strats), (b.name, b_strats)])
    # Old name -> new name per side.
    a_names = {s.name: strategy_renames[id(s)] for s in a_strats}
    b_names = {s.name: strategy_renames[id(s)] for s in b_strats}

    def rebuild(con: Constraint, names: dict, scope: Optional[str] = None) -> Constraint:
        """``con`` renamed, its recovery following its side's strategy
        renames; governance and preconditions keep no scope."""
        return replace(con, name=renames[id(con)], scope=scope,
                       recovery=names.get(con.recovery, con.recovery))

    def staged(cons: Sequence[Constraint], names: dict, offset: int) -> list:
        """``cons`` rebuilt, each scope moved ``offset`` stages on (no scope: stage 0)."""
        scopes = [("stage", 0) if c.scope is None else split_scope(c.scope) for c in cons]
        return [rebuild(c, names, f"{kind}:{j + offset}") for c, (kind, j) in zip(cons, scopes)]

    handoff = f"handoff:{n_a - 1}"

    def rebuild_strategy(s, names: dict):
        return replace(s, name=strategy_renames[id(s)],
                       fallback=names.get(s.fallback, s.fallback))

    return Contract(
        name=f"{a.name}+{b.name}",
        kind="agent",
        preconditions=tuple(rebuild(c, a_names) for c in a.preconditions),
        invariants_hard=tuple(
            staged(a.invariants_hard, a_names, 0) + staged(b.invariants_hard, b_names, n_a)
            + [rebuild(c, {}, handoff) for c in h_sections.invariants_hard]),
        invariants_soft=tuple(
            staged(a.invariants_soft, a_names, 0) + staged(b.invariants_soft, b_names, n_a)
            + [rebuild(c, {}, handoff) for c in h_sections.invariants_soft]),
        governance_hard=tuple([rebuild(c, a_names) for c in a.governance_hard]
                              + [rebuild(c, b_names) for c in b.governance_hard]),
        governance_soft=tuple([rebuild(c, a_names) for c in a.governance_soft]
                              + [rebuild(c, b_names) for c in b.governance_soft]),
        recovery_strategies=tuple(
            [rebuild_strategy(s, a_names) for s in a_strats]
            + [rebuild_strategy(s, b_names) for s in b_strats]),
        satisfaction=_chain_satisfaction((a, b), (h,)),
        drift_config=a.drift_config,
        reliability_weights=a.reliability_weights,
        stages=n_a + b.stages,
    )


def compose_chain(contracts: Sequence[Contract], handoffs: Sequence[HandoffSpec]) -> Contract:
    """Left-fold pairwise composition over an N-agent chain.  The
    composed (p, delta) are :func:`chain_bounds`'s over every stage: past
    two stages the fold's own products run in another order."""
    if len(contracts) < 1:
        raise ValueError("need at least one contract")
    if len(handoffs) != len(contracts) - 1:
        raise ValueError(f"{len(contracts)} stages need {len(contracts) - 1} handoffs")
    composed = contracts[0]
    for nxt, h in zip(contracts[1:], handoffs):
        composed = compose_contracts(composed, nxt, h)
    if len(contracts) > 2:
        composed = replace(composed, satisfaction=_chain_satisfaction(contracts, handoffs))
    return composed


def _chain_satisfaction(contracts: Sequence[Contract],
                        handoffs: Sequence[HandoffSpec]) -> SatisfactionParams:
    """A chain's composed (p, delta) by :func:`chain_bounds`'s rule, and
    its largest recovery window."""
    bounds = chain_bounds(ChainSpec(
        p_agents=[c.satisfaction.p for c in contracts],
        delta_agents=[c.satisfaction.delta for c in contracts],
        p_handoffs=[h.p_h for h in handoffs], delta_handoffs=[h.delta_h for h in handoffs]))
    return SatisfactionParams(p=bounds.p_chain_lower, delta=bounds.delta_chain_upper,
                              k=max(c.satisfaction.k for c in contracts), T=None)


# ---------------------------------------------------------------------------
# Composition conditions C1-C4
# ---------------------------------------------------------------------------

_KIND_OF_OPERATOR = {
    "lt": "number", "le": "number", "gt": "number", "ge": "number",
    "range": "number", "matches": "string",
}


def _scalar_kind(value) -> Optional[str]:
    if isinstance(value, bool):
        return "boolean"
    if is_number(value):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, (list, tuple)):
        return "list"
    return None


def _expected_kind(b: Contract, path: str) -> Optional[str]:
    """Scalar kind B's preconditions require of an input field (under either
    spelling, see :func:`~agentcontracts.expressions.field_key`), if any."""
    for con in b.preconditions:
        check = con.check
        if check.is_expression() or field_key(check.field_path) != field_key(path):
            continue
        kind = _KIND_OF_OPERATOR.get(check.operator)
        if kind:
            return kind
        if check.operator in ("eq", "ne"):
            return _scalar_kind(check.operand)
        if check.operator in ("in", "not_in") and check.operand:
            return _scalar_kind(check.operand[0])
    return None


def _unsatisfied(run, state: StateDict, action: Optional[ActionRecord] = None) -> dict:
    """Results not satisfied (violated or skipped) by a plan's section
    function ``run`` with no stage boundaries, by name in section order:
    the stored results that do not pass."""
    stored: dict = {}
    run(state, action, 0, (), stored)
    return {name: r for name, r in stored.items() if r.satisfied is not True}


def check_conditions(a: Contract, b: Contract, h: HandoffSpec,
                     samples: Sequence[StateDict],
                     actions: Sequence[ActionRecord] = (),
                     recovery_transform: Optional[Callable[[StateDict], StateDict]] = None,
                     ) -> ConditionReport:
    """Check the four composition conditions over witness corpora.

    C1 (interface compatibility): every upstream path in the handoff type
    map resolves in every sample (read as a state, by the one path rule of
    :func:`~agentcontracts.expressions.field_key`) with the scalar kind B's
    preconditions expect of the mapped input path.  C2 (assumption
    discharge): samples satisfying PostCond_A and the handoff invariant must satisfy P_B.  C3
    (governance consistency): no corpus action (nor symbolically derived
    same-field witness value) is allowed by G_A yet prohibited by G_B.  C4
    (recovery independence): applying A's recovery transform to a sample
    must leave P_B satisfied (identity transform when none is registered).
    A, B and :func:`handoff_contract` evaluate through the generated
    sections of their validated plans (with no stage boundaries, each plan
    into its own results), so an invalid one raises SemanticError before
    any sample is read.
    """
    if not samples:
        raise InsufficientSamples("C2/C4 are semantic checks and need witness states")
    plan_a, plan_b = _plan(a), _plan(b)
    plan_h = _plan(handoff_contract(h.invariants))

    # C1 -- interface compatibility over the type map.
    c1_witnesses = []
    type_map = sorted(h.type_map.items())
    for i, sample in enumerate(samples):
        for upstream, downstream in type_map:
            value = field_value(upstream, sample, None)
            if value is MISSING:
                c1_witnesses.append((i, upstream, "missing in upstream output"))
                continue
            kind = _scalar_kind(value)
            if kind is None:
                c1_witnesses.append((i, upstream, f"unsupported value type {type(value).__name__}"))
                continue
            expected = _expected_kind(b, downstream)
            if expected is not None and kind != expected:
                c1_witnesses.append(
                    (i, upstream, f"kind {kind} incompatible with {downstream} ({expected})"))
    c1 = ConditionResult(passed=not c1_witnesses, witnesses=tuple(c1_witnesses),
                         checked=len(samples) * len(h.type_map))

    # C2 -- assumption discharge on samples passing the antecedent.
    antecedent = (plan_a.evaluate_invariants, plan_h.evaluate_invariants)
    passing = [i for i, sample in enumerate(samples)
               if not any(_unsatisfied(run, sample) for run in antecedent)]
    c2_witnesses = [(i, name) for i in passing
                    for name in _unsatisfied(plan_b.evaluate_preconditions, samples[i])]
    c2 = ConditionResult(passed=not c2_witnesses, witnesses=tuple(c2_witnesses),
                         checked=len(passing))

    # C3 -- governance consistency: corpus pass, then symbolic fast path.
    c3_witnesses = []
    for action in actions:
        allowed_by_a = not _unsatisfied(plan_a.evaluate_governance, {}, action)
        unsatisfied_b = _unsatisfied(plan_b.evaluate_governance, {}, action).values()
        if allowed_by_a and any(r.satisfied is False for r in unsatisfied_b):
            c3_witnesses.append(("action", action.label))
    c3_witnesses.extend(_symbolic_governance_conflicts(a, b))
    c3 = ConditionResult(passed=not c3_witnesses, witnesses=tuple(c3_witnesses),
                         checked=len(actions))

    # C4 -- recovery independence.
    transform = recovery_transform or (lambda s: s)
    c4_witnesses = [(i, name) for i, sample in enumerate(samples)
                    for name in _unsatisfied(plan_b.evaluate_preconditions, transform(sample))]
    c4 = ConditionResult(passed=not c4_witnesses, witnesses=tuple(c4_witnesses),
                         checked=len(samples))

    return ConditionReport(c1_interface=c1, c2_assumptions=c2,
                           c3_governance=c3, c4_recovery=c4)


def _candidate_values(predicate) -> list:
    if predicate.operator == "eq":
        return [predicate.operand]
    if predicate.operator == "in":
        return list(predicate.operand)
    if predicate.operator == "range":
        lo, hi = float(predicate.operand[0]), float(predicate.operand[1])
        return [lo, (lo + hi) / 2.0, hi]
    return []


def _symbolic_governance_conflicts(a: Contract, b: Contract) -> list:
    """Same-field conflicts provable from eq/in/range operand structure:
    a value permitted by all of A's predicates on a field yet rejected by
    one of B's predicates on that field.  Predicates name the same field
    when their paths have one key (``amount`` and ``action.amount`` do);
    ``exists`` holds for every candidate value."""
    def by_field(contract):
        fields: dict = {}
        for con in contract.governance():
            if not con.check.is_expression() and con.check.operator != "exists":
                fields.setdefault(field_key(con.check.field_path, "action"), []).append(con)
        return fields

    a_fields, b_fields = by_field(a), by_field(b)
    witnesses = []
    for ga in a.governance():
        if ga.check.is_expression() or ga.check.operator not in ("eq", "in", "range"):
            continue
        key = field_key(ga.check.field_path, "action")
        same_field_a, b_preds = a_fields[key], b_fields.get(key)
        if not b_preds:
            continue
        for value in _candidate_values(ga.check):
            try:
                if not all(OPERATORS[c.check.operator](value, c.check.operand)
                           for c in same_field_a):
                    continue
                for gb in b_preds:
                    if not OPERATORS[gb.check.operator](value, gb.check.operand):
                        witnesses.append(("value", ga.check.field_path, value, gb.name))
            except TypeMismatch:
                continue  # incomparable operand kinds: leave to the corpus pass
    return list({repr(w): w for w in witnesses}.values())  # unique, in first-seen order


# ---------------------------------------------------------------------------
# Probabilistic chain bounds
# ---------------------------------------------------------------------------

def chain_bounds(spec: ChainSpec) -> ChainBounds:
    """End-to-end bounds for a serial chain.

    Reliability multiplies (product of agent and handoff probabilities);
    deviation adds (sum of per-stage deltas, capped at 1).  The
    Frechet--Hoeffding fold p >= p_left + p_next * p_h - 1 (floored at 0,
    applied left-associatively) is the conservative alternative for
    correlated stages; it is reported alongside and highlighted when
    conditional independence is not assumed.
    """
    p_chain = 1.0
    for p in spec.p_agents:
        p_chain *= p
    for p in spec.p_handoffs:
        p_chain *= p

    delta_chain = min(1.0, sum(spec.delta_agents) + sum(spec.delta_handoffs))

    p_frechet = spec.p_agents[0]
    for p_next, p_h in zip(spec.p_agents[1:], spec.p_handoffs):
        p_frechet = max(0.0, p_frechet + p_next * p_h - 1.0)

    return ChainBounds(
        p_chain_lower=p_chain,
        delta_chain_upper=delta_chain,
        p_frechet_lower=p_frechet,
        conditional_independence_assumed=spec.conditional_independence_assumed,
    )


#: Deterministic satisfaction of a composed contract over a chain trace:
#: :func:`~agentcontracts.engine.check_deterministic` under its composition
#: name, which checks the boundaries and reads them by ``scope_active``.
verify_chain_trace = check_deterministic
