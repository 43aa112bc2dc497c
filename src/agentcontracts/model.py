"""Core domain model: contracts, constraints, traces, and configuration.

All types here are immutable value objects (frozen dataclasses with tuple
fields) and can be shared freely between threads.  Nested state is carried
as plain dicts restricted to JSON-expressible scalars, lists, and maps;
the library never mutates a state dict it is handed.  A trace's JSON wire
shape is read by the key tables ``TRACE`` and ``ACTIONS``, through the one
rule of :mod:`~agentcontracts.schema`.
"""

from __future__ import annotations

import math
import re
from collections import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from .errors import SemanticError
from .schema import JsonDoc, as_is, entries, expect_mapping, mapping, sequence

__all__ = [
    "StateDict",
    "ActionRecord",
    "ExecutionTrace",
    "Predicate",
    "Constraint",
    "RecoveryStrategy",
    "SatisfactionParams",
    "DriftConfig",
    "ReliabilityWeights",
    "Contract",
    "StructuralIssue",
    "validate_contract",
    "satisfaction_issues",
    "require_valid",
    "raise_first_error",
    "fallback_chain",
    "MAX_RECOVERY_ATTEMPTS",
    "OTHER_LABEL",
    "FIELD_OPERATORS",
    "RECOVERY_TYPES",
    "SUGGESTED_CATEGORIES",
]

# State dictionaries are nested string-keyed maps of JSON-style values.
StateDict = Mapping[str, Any]

#: Reserved histogram bucket for action labels outside the configured
#: vocabulary.  Present in both observed and reference supports.
OTHER_LABEL = "__other__"

FIELD_OPERATORS = (
    "eq", "ne", "lt", "le", "gt", "ge",
    "in", "not_in", "matches", "range", "exists",
)

RECOVERY_TYPES = (
    "emit_event",
    "prompt_adjust",
    "re_prompt",
    "reduce_autonomy",
    "escalate_human",
    "terminate_session",
)

#: The governance category taxonomy is open-ended; these five are the
#: documented suggestions.  Anything else parses with a warning.
SUGGESTED_CATEGORIES = (
    "resource management",
    "data protection",
    "action boundaries",
    "escalation",
    "regulatory compliance",
)

ON_MISSING_POLICIES = ("violate", "satisfy", "skip")

#: The most attempts one soft constraint's recovery chain may make: the sum
#: of its strategies' ``max_attempts``.  With ``attempts_per_step=None`` a
#: step runs a whole chain, so this bounds a step's recovery time and events.
MAX_RECOVERY_ATTEMPTS = 100

_WEIGHT_SUM_TOL = 1e-12
_DIST_SUM_TOL = 1e-9


def _fields_only(obj) -> dict:
    """Pickled state of a contract or drift configuration: its fields,
    without the compiled form cached on the object under ``_compiled``
    (closures do not pickle)."""
    return {k: v for k, v in vars(obj).items() if k != "_compiled"}


@dataclass(frozen=True)
class ActionRecord:
    """One agent action: a vocabulary label plus the payload fields
    governance predicates read.  The label must be a non-empty string and
    the payload a mapping; anything else raises ValueError."""

    label: str
    payload: StateDict = field(default_factory=dict)

    def __post_init__(self):
        if not (isinstance(self.label, str) and self.label):
            raise ValueError(f"label must be a non-empty string, got {self.label!r}")
        if not isinstance(self.payload, Mapping):
            raise ValueError(f"payload must be a mapping, got {type(self.payload).__name__}")

    def view(self) -> dict:
        """Mapping governance predicates resolve against (label + payload)."""
        merged = dict(self.payload)
        merged.setdefault("label", self.label)
        return merged


@dataclass(frozen=True)
class ExecutionTrace:
    """Alternating states and actions: states s_0..s_T, actions a_0..a_{T-1}."""

    states: tuple
    actions: tuple

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "actions", tuple(self.actions))
        if len(self.states) != len(self.actions) + 1:
            raise ValueError(
                f"trace needs |states| = |actions| + 1, got "
                f"{len(self.states)} states / {len(self.actions)} actions"
            )
        for i, s in enumerate(self.states):
            if not is_state(s):
                raise ValueError(f"states[{i}] must be a mapping, got {type(s).__name__}")
        for i, a in enumerate(self.actions):
            if not isinstance(a, ActionRecord):
                raise ValueError(f"actions[{i}] must be an ActionRecord, got {type(a).__name__}")

    @property
    def length(self) -> int:
        """Number of steps T (actions)."""
        return len(self.actions)

    @staticmethod
    def from_dict(doc: Mapping) -> "ExecutionTrace":
        """Build a trace from the JSON wire shape, read by ``TRACE``:
        FormatError names the key path of the first element that does not fit."""
        return TRACE(JsonDoc(), doc, ())

    def to_dict(self) -> dict:
        return {
            "states": [dict(s) for s in self.states],
            "actions": [{"label": a.label, "payload": dict(a.payload)} for a in self.actions],
        }


def is_state(value) -> bool:
    """Whether ``value`` can be a state: a mapping (a plain dict is checked
    first, without ``isinstance``)."""
    return type(value) is dict or isinstance(value, Mapping)


#: Readers of the JSON wire shape (see :mod:`~agentcontracts.schema`):
#: states are free-form mappings, and an action's label and payload are
#: checked by ActionRecord alone.
STATES = sequence(lambda doc, value, path: expect_mapping(doc, value, path, "state"))
ACTIONS = entries("action", {"label": as_is, "payload": as_is}, ("label",), ActionRecord)
TRACE_FIELDS = {"states": STATES, "actions": ACTIONS}
TRACE = mapping("trace", TRACE_FIELDS, ("states", "actions"), ExecutionTrace)


@dataclass(frozen=True)
class Predicate:
    """A single check: either a structured (field, operator, operand)
    triple or a compiled sandbox expression.

    Exactly one of ``field_path`` and ``expression`` is set.  ``matches``
    uses search semantics (the pattern may hit anywhere in the string).
    """

    field_path: Optional[str] = None
    operator: Optional[str] = None
    operand: Any = None
    expression: Optional[object] = None  # ExprAst; opaque here
    expression_src: Optional[str] = None

    def is_expression(self) -> bool:
        return self.expression is not None


@dataclass(frozen=True)
class Constraint:
    """A named behavioral constraint.

    ``severity`` is "hard" (zero tolerance) or "soft" (recoverable);
    ``weight`` feeds the weighted compliance gap; ``recovery`` names a
    strategy and is only legal on soft constraints.  ``on_missing``
    decides what an unresolvable field means: violate (default),
    satisfy, or skip (excluded from that step's scores).  ``scope`` is
    set only by composition: "stage:<i>" binds an invariant during stage
    i of the chain, "handoff:<j>" at the boundary state after stage j.
    Plain contracts and governance leave it None (binds everywhere).
    """

    name: str
    check: Predicate
    severity: str = "soft"
    category: Optional[str] = None
    weight: float = 1.0
    recovery: Optional[str] = None
    on_missing: str = "violate"
    scope: Optional[str] = None


@dataclass(frozen=True)
class RecoveryStrategy:
    """A corrective strategy with an attempt budget and optional fallback."""

    name: str
    type: str
    action: Any = None
    max_attempts: int = 3
    fallback: Optional[str] = None


@dataclass(frozen=True)
class SatisfactionParams:
    """(p, delta, k) guarantee parameters, plus optional session length T."""

    p: float = 0.9
    delta: float = 0.1
    k: int = 2
    T: Optional[int] = None


@dataclass(frozen=True)
class DriftConfig:
    """Drift score configuration: component weights, sliding window,
    action vocabulary with its reference distribution, alert thresholds."""

    w_c: float = 0.7
    w_d: float = 0.3
    window: int = 10
    vocabulary: tuple = ()
    reference: Mapping[str, float] = field(default_factory=dict)
    theta1: float = 0.05
    theta2: float = 0.30

    __getstate__ = _fields_only

    def __post_init__(self):
        object.__setattr__(self, "vocabulary", tuple(self.vocabulary))
        object.__setattr__(self, "reference", dict(self.reference))


@dataclass(frozen=True)
class ReliabilityWeights:
    """Weights of the four reliability-index components (sum to 1)."""

    a1: float = 0.4
    a2: float = 0.3
    a3: float = 0.2
    a4: float = 0.1


@dataclass(frozen=True)
class Contract:
    """A full behavioral contract for one agent (or a composed chain).

    ``stages`` is the number of agents a composed chain spans, set only by
    composition; a session over an n-stage contract needs n - 1 stage
    boundaries.
    """

    name: str
    kind: str = "agent"
    preconditions: tuple = ()
    invariants_hard: tuple = ()
    invariants_soft: tuple = ()
    governance_hard: tuple = ()
    governance_soft: tuple = ()
    recovery_strategies: tuple = ()
    satisfaction: SatisfactionParams = field(default_factory=SatisfactionParams)
    drift_config: DriftConfig = field(default_factory=DriftConfig)
    reliability_weights: ReliabilityWeights = field(default_factory=ReliabilityWeights)
    stages: int = 1

    __getstate__ = _fields_only

    def __post_init__(self):
        for f in ("preconditions", "invariants_hard", "invariants_soft",
                  "governance_hard", "governance_soft", "recovery_strategies"):
            object.__setattr__(self, f, tuple(getattr(self, f)))

    # -- convenience views ------------------------------------------------

    def all_constraints(self) -> tuple:
        """Every constraint, preconditions included."""
        return (self.preconditions + self.invariants_hard + self.invariants_soft
                + self.governance_hard + self.governance_soft)

    def invariants(self) -> tuple:
        return self.invariants_hard + self.invariants_soft

    def governance(self) -> tuple:
        return self.governance_hard + self.governance_soft

    def hard_constraints(self) -> tuple:
        return self.invariants_hard + self.governance_hard

    def soft_constraints(self) -> tuple:
        return self.invariants_soft + self.governance_soft


@dataclass(frozen=True)
class StructuralIssue:
    """One validation finding.  ``severity`` is "error" for invariant
    violations and "warning" for advisories (unreferenced strategy,
    unknown governance category)."""

    element: str
    rule: str
    message: str
    severity: str = "error"

    def __str__(self) -> str:
        return f"[{self.severity}] {self.element}: {self.message}"


# ---------------------------------------------------------------------------
# Structural validation
# ---------------------------------------------------------------------------

def _issue(element: str, rule: str, message: str, severity: str = "error") -> StructuralIssue:
    return StructuralIssue(element=element, rule=rule, message=message, severity=severity)


def _validate_predicate(name: str, p: Predicate, out: list) -> None:
    if p.is_expression():
        return
    if p.operator not in FIELD_OPERATORS:
        out.append(_issue(name, "unknown-operator",
                          f"operator {p.operator!r} is not one of {FIELD_OPERATORS}"))
        return
    if p.operator in ("lt", "le", "gt", "ge", "range"):
        # Ordering operands and range bounds must be finite: against NaN, an
        # infinity or an int too large for a float, lt/le/gt/ge fail every
        # evaluation as a type mismatch.
        bounds = p.operand if p.operator == "range" and isinstance(p.operand, (list, tuple)) \
            else (p.operand,)
        bad = [v for v in bounds
               if isinstance(v, (int, float)) and not isinstance(v, bool) and not is_number(v)]
        if bad:
            got = repr(bad[0]) if isinstance(bad[0], float) else "an int too large for a float"
            out.append(_issue(name, "non-finite-operand",
                              f"{p.operator} operand must be finite, got {got}"))
            return
    if p.operator == "range":
        ok = (isinstance(p.operand, (list, tuple)) and len(p.operand) == 2
              and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in p.operand)
              and p.operand[0] <= p.operand[1])
        if not ok:
            out.append(_issue(name, "bad-range-operand",
                              "range operand must be [lo, hi] with lo <= hi"))
    elif p.operator == "matches":
        if not isinstance(p.operand, str):
            out.append(_issue(name, "bad-regex-operand", "matches operand must be a string"))
        else:
            try:
                re.compile(p.operand)
            except re.error as exc:
                out.append(_issue(name, "bad-regex-operand", f"invalid regular expression: {exc}"))
    elif p.operator in ("in", "not_in"):
        if not isinstance(p.operand, (list, tuple)):
            out.append(_issue(name, "bad-membership-operand",
                              f"{p.operator} operand must be a list"))


def _is_count(v: Any, lo: int) -> bool:
    """Whether ``v`` is an int >= ``lo`` (a bool is not an int here)."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= lo


def _scope_fits(scope, stages) -> bool:
    """Whether ``scope`` names a stage (``stage:i``, i < stages) or a
    handoff (``handoff:j``, j < stages - 1) of a ``stages``-stage contract."""
    match = isinstance(scope, str) and re.fullmatch(r"(stage|handoff):([0-9]+)", scope)
    if not match or not isinstance(stages, int):
        return False
    return int(match[2]) < (stages if match[1] == "stage" else stages - 1)


def fallback_chain(strategies: Mapping[str, RecoveryStrategy], start: Optional[str]) -> tuple:
    """``(chain, cyclic)``: the strategies reached from ``start`` by following
    ``fallback`` links, in order.  The walk stops at a name ``strategies``
    does not define (``cyclic`` False) or before the first repeated name
    (``cyclic`` True).
    """
    chain: list = []
    seen: set = set()
    name = start
    while name in strategies:
        if name in seen:
            return tuple(chain), True
        seen.add(name)
        chain.append(strategies[name])
        name = strategies[name].fallback
    return tuple(chain), False


def validate_contract(c: Contract) -> list:
    """Check every structural invariant of the contract.

    Returns a deterministic list of :class:`StructuralIssue`, sorted by
    element name then rule.  Empty iff all invariants hold (warnings such
    as an unreferenced strategy do not count against validity but are
    included with severity "warning").
    """
    issues: list = []

    if c.kind not in ("agent", "pipeline"):
        issues.append(_issue(c.name, "bad-kind", f"kind must be agent or pipeline, got {c.kind!r}"))
    if not _is_count(c.stages, 1):
        issues.append(_issue(c.name, "bad-stage-count",
                             f"stages must be an integer >= 1, got {c.stages!r}"))

    # Constraint-level rules.
    names_seen: dict = {}
    strategy_names = {s.name: s for s in c.recovery_strategies}
    preconditions = set(map(id, c.preconditions))
    for con in c.all_constraints():
        if con.name in names_seen:
            issues.append(_issue(con.name, "duplicate-name",
                                 "constraint names must be unique within a contract"))
        names_seen[con.name] = True
        if not (is_number(con.weight) and con.weight > 0):
            issues.append(_issue(con.name, "nonpositive-weight",
                                 "weight must be a finite number > 0"))
        if con.severity not in ("hard", "soft"):
            issues.append(_issue(con.name, "bad-severity",
                                 f"severity must be hard or soft, got {con.severity!r}"))
        if con.scope is not None and not _scope_fits(con.scope, c.stages):
            issues.append(_issue(con.name, "bad-scope",
                                 f"scope must be stage:<i> with i < {c.stages} or "
                                 f"handoff:<j> with j < {c.stages - 1}, got {con.scope!r}"))
        # Preconditions are hard by section, whatever their severity.
        if con.recovery is not None and (con.severity == "hard" or id(con) in preconditions):
            issues.append(_issue(con.name, "hard-with-recovery",
                                 "hard constraints carry no recovery reference"))
        if con.recovery is not None and con.recovery not in strategy_names:
            issues.append(_issue(con.name, "unresolved-recovery-reference",
                                 f"recovery strategy {con.recovery!r} is not defined"))
        if con.on_missing not in ON_MISSING_POLICIES:
            issues.append(_issue(con.name, "bad-on-missing",
                                 f"on_missing must be one of {ON_MISSING_POLICIES}"))
        if con.category is not None and con.category not in SUGGESTED_CATEGORIES:
            issues.append(_issue(con.name, "unknown-category",
                                 f"category {con.category!r} is outside the suggested taxonomy",
                                 severity="warning"))
        _validate_predicate(con.name, con.check, issues)

    # A hard or soft section decides how its constraints are scored and
    # recovered, so a constraint's severity must agree with its section.
    for section, constraints in (("hard", c.hard_constraints()), ("soft", c.soft_constraints())):
        for con in constraints:
            if con.severity in ("hard", "soft") and con.severity != section:
                issues.append(_issue(con.name, "severity-section-mismatch",
                                     f"a {con.severity} constraint in a {section} section"))

    # Preconditions and invariants are over states; only governance sees the action.
    from .expressions import field_paths  # expressions imports this module
    for con in c.preconditions + c.invariants():
        p = con.check
        paths = field_paths(p.expression) if p.is_expression() else (p.field_path,)
        if any(isinstance(path, str) and path.split(".")[0] == "action" for path in paths):
            issues.append(_issue(con.name, "state-constraint-reads-action",
                                 "preconditions and invariants cannot reference action"))

    # Recovery strategies.
    referenced = {con.recovery for con in c.all_constraints() if con.recovery}
    strategies_seen: set = set()
    for s in c.recovery_strategies:
        if s.name in strategies_seen:
            issues.append(_issue(s.name, "duplicate-strategy-name",
                                 "strategy names must be unique within a contract"))
        strategies_seen.add(s.name)
        if s.type not in RECOVERY_TYPES:
            issues.append(_issue(s.name, "bad-strategy-type",
                                 f"type must be one of {RECOVERY_TYPES}, got {s.type!r}"))
        if not _is_count(s.max_attempts, 1):
            issues.append(_issue(s.name, "bad-max-attempts", "max_attempts must be >= 1"))
        if s.fallback is not None and s.fallback not in strategy_names:
            issues.append(_issue(s.name, "unresolved-fallback-reference",
                                 f"fallback strategy {s.fallback!r} is not defined"))
        else:
            chain, cyclic = fallback_chain(strategy_names, s.name)
            if cyclic:
                names = " -> ".join([x.name for x in chain] + [chain[-1].fallback])
                issues.append(_issue(s.name, "cyclic-fallback-chain",
                                     f"fallback chain must be acyclic: {names}"))
        if s.name not in referenced:
            issues.append(_issue(s.name, "unreferenced-strategy",
                                 "strategy is not referenced by any constraint",
                                 severity="warning"))
    for con in c.soft_constraints():
        total = sum(s.max_attempts for s in fallback_chain(strategy_names, con.recovery)[0]
                    if _is_count(s.max_attempts, 1))
        if total > MAX_RECOVERY_ATTEMPTS:
            issues.append(_issue(con.name, "recovery-budget-too-large",
                                 f"its recovery chain allows {total} attempts, "
                                 f"more than {MAX_RECOVERY_ATTEMPTS}"))
    # Chains reaching via fallback count as referenced, so demote those warnings.
    reachable = {s.name for ref in referenced for s in fallback_chain(strategy_names, ref)[0]}
    issues = [i for i in issues
              if not (i.rule == "unreferenced-strategy" and i.element in reachable)]

    issues += satisfaction_issues(c.satisfaction)

    # Drift configuration.  Each rule is written so that NaN fails it.
    dc = c.drift_config
    if not (dc.w_c >= 0 and dc.w_d >= 0 and abs(dc.w_c + dc.w_d - 1.0) <= _WEIGHT_SUM_TOL):
        issues.append(_issue("drift", "bad-component-weights",
                             f"w_c + w_d must equal 1 with w_c, w_d >= 0, got ({dc.w_c}, {dc.w_d})"))
    if not _is_count(dc.window, 1):
        issues.append(_issue("drift", "bad-window", f"window must be >= 1, got {dc.window!r}"))
    if not (0.0 <= dc.theta1 <= 1.0 and 0.0 <= dc.theta2 <= 1.0 and dc.theta1 < dc.theta2):
        issues.append(_issue("drift", "bad-thresholds",
                             f"need 0 <= theta1 < theta2 <= 1, got ({dc.theta1}, {dc.theta2})"))
    if dc.vocabulary:
        if len(set(dc.vocabulary)) != len(dc.vocabulary):
            issues.append(_issue("drift", "duplicate-vocabulary", "vocabulary labels must be unique"))
        if OTHER_LABEL in dc.vocabulary:
            issues.append(_issue("drift", "reserved-label",
                                 f"{OTHER_LABEL} is reserved for out-of-vocabulary actions"))
        extra = set(dc.reference) - set(dc.vocabulary) - {OTHER_LABEL}
        if extra:
            issues.append(_issue("drift", "reference-outside-vocabulary",
                                 f"reference mass on labels outside vocabulary: {sorted(extra)}"))
        masses = [dc.reference.get(v, 0.0) for v in dc.vocabulary]
        total = sum(masses)
        if not (all(m >= 0 for m in masses) and abs(total - 1.0) <= _DIST_SUM_TOL):
            issues.append(_issue("drift", "reference-not-normalized",
                                 f"reference must be a distribution over the vocabulary (sums to {total})"))

    # Reliability weights.
    rw = c.reliability_weights
    ws = (rw.a1, rw.a2, rw.a3, rw.a4)
    if not (all(w >= 0 for w in ws) and abs(sum(ws) - 1.0) <= _WEIGHT_SUM_TOL):
        issues.append(_issue("reliability", "bad-weights",
                             f"a1..a4 must be non-negative and sum to 1, got {ws}"))

    issues.sort(key=lambda i: (i.element, i.rule))
    return issues


def satisfaction_issues(sp: SatisfactionParams) -> list:
    """The rules of :func:`validate_contract` for ``(p, delta, k, T)``, which
    the params given to ``pdk_verdict`` meet too."""
    issues = []
    if not (0.0 <= sp.p <= 1.0):
        issues.append(_issue("satisfaction", "p-out-of-range", f"p must be in [0,1], got {sp.p}"))
    if not (0.0 <= sp.delta <= 1.0):
        issues.append(_issue("satisfaction", "delta-out-of-range",
                             f"delta must be in [0,1], got {sp.delta}"))
    if not _is_count(sp.k, 0):
        issues.append(_issue("satisfaction", "bad-recovery-window",
                             f"k must be a non-negative integer, got {sp.k!r}"))
    if sp.T is not None and not _is_count(sp.T, 0):
        issues.append(_issue("satisfaction", "bad-session-length",
                             f"T must be a non-negative integer, got {sp.T!r}"))
    return issues


def require_valid(c: Contract, span_of: Callable[[str], Any] = lambda element: None) -> None:
    """Raise SemanticError when :func:`validate_contract` finds an error in
    ``c`` (see :func:`raise_first_error`)."""
    raise_first_error(validate_contract(c), span_of)


def raise_first_error(issues: list, span_of: Callable[[str], Any] = lambda element: None) -> None:
    """Raise SemanticError for the first error of ``issues``:
    ``"{element}: {message} (+N more issues)"``, located by
    ``span_of(element)``."""
    errors = [i for i in issues if i.severity == "error"]
    if errors:
        more = f" (+{len(errors) - 1} more issues)" if len(errors) > 1 else ""
        raise SemanticError(f"{errors[0].element}: {errors[0].message}{more}",
                            span=span_of(errors[0].element))


def walk_path(cur: Any, parts) -> Any:
    """The value at pre-split key ``parts`` below ``cur``, or MISSING.  A
    plain dict takes the fast path; any other mapping is recognised by
    isinstance."""
    for part in parts:
        if type(cur) is dict:
            cur = cur.get(part, MISSING)
        elif isinstance(cur, abc.Mapping) and part in cur:
            cur = cur[part]
        else:
            return MISSING
    return cur


class _Missing:
    __slots__ = ()

    def __repr__(self):  # pragma: no cover
        return "<missing>"


MISSING = _Missing()


def is_number(v: Any) -> bool:
    """A finite int or float, not a bool.  An int too large for a float is
    not a number: ordering it fails closed and equality compares it exactly."""
    if type(v) is float:
        return math.isfinite(v)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def value_eq(a: Any, b: Any) -> bool:
    """The one equality of the contract language (field ``eq``/``ne``/``in``
    and expression ``==``/``!=``/``in``): numbers compare numerically and
    exactly (Python's ``==`` compares an int with a float exactly),
    booleans only against booleans, at every depth of lists, tuples and
    mappings."""
    if type(a) is str or type(b) is str:  # no rule below applies to a string
        return a == b
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a is b
    if isinstance(a, list) and isinstance(b, list) or isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(value_eq, a, b))
    if isinstance(a, abc.Mapping) and isinstance(b, abc.Mapping):
        return len(a) == len(b) and all(k in b and value_eq(v, b[k]) for k, v in a.items())
    return a == b
