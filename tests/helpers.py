"""Shared test utilities: randomized instance generators and independent
brute-force oracles.

The oracle code here deliberately re-implements predicate and satisfaction
semantics with plain loops and dict access so that engine tests check two
independent code paths against each other.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from agentcontracts.composition import HandoffSpec
from agentcontracts.model import (
    ActionRecord,
    Constraint,
    Contract,
    ExecutionTrace,
    Predicate,
    RecoveryStrategy,
    SatisfactionParams,
)

class Text(str):
    """A str subclass: never takes a ``type(v) is str`` fast path."""


class Bag(Mapping):
    """A mapping that is not a dict."""

    def __init__(self, data):
        self._data = dict(data)

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)


STATE_FIELDS = ("metrics.quality", "metrics.safety", "flags.ok", "score")
ACTION_FIELDS = ("cost", "latency")
LABELS = ("alpha", "beta", "gamma")


def random_contract(rng: np.random.Generator, max_constraints: int = 6) -> Contract:
    """A random small contract over the shared field universe."""
    n = int(rng.integers(1, max_constraints + 1))
    preconditions, inv_hard, inv_soft, gov_hard, gov_soft = [], [], [], [], []
    for i in range(n):
        kind = rng.choice(["pre", "inv_hard", "inv_soft", "gov_hard", "gov_soft"])
        if kind.startswith("gov"):
            field = str(rng.choice(ACTION_FIELDS))
        else:
            field = str(rng.choice(STATE_FIELDS))
        if field == "flags.ok":
            predicate = Predicate(field_path=field, operator="eq", operand=bool(rng.integers(2)))
        else:
            op = str(rng.choice(["ge", "le", "lt", "gt", "eq", "range"]))
            threshold = float(rng.integers(0, 5))
            operand = [threshold, threshold + float(rng.integers(1, 4))] if op == "range" \
                else threshold
            predicate = Predicate(field_path=field, operator=op, operand=operand)
        severity = "soft" if kind in ("inv_soft", "gov_soft") else "hard"
        con = Constraint(name=f"c{i}", check=predicate, severity=severity,
                         weight=float(rng.integers(1, 4)))
        {"pre": preconditions, "inv_hard": inv_hard, "inv_soft": inv_soft,
         "gov_hard": gov_hard, "gov_soft": gov_soft}[kind].append(con)
    return Contract(
        name="random",
        preconditions=tuple(preconditions),
        invariants_hard=tuple(inv_hard),
        invariants_soft=tuple(inv_soft),
        governance_hard=tuple(gov_hard),
        governance_soft=tuple(gov_soft),
        satisfaction=SatisfactionParams(p=0.9, delta=0.2, k=int(rng.integers(0, 4))),
    )


def random_state(rng: np.random.Generator) -> dict:
    return {
        "metrics": {"quality": float(rng.integers(0, 6)),
                    "safety": float(rng.integers(0, 6))},
        "flags": {"ok": bool(rng.integers(2))},
        "score": float(rng.integers(0, 6)),
    }


def random_action(rng: np.random.Generator) -> ActionRecord:
    return ActionRecord(
        label=str(rng.choice(LABELS)),
        payload={"cost": float(rng.integers(0, 6)), "latency": float(rng.integers(0, 6))},
    )


def random_trace(rng: np.random.Generator, max_steps: int = 8) -> ExecutionTrace:
    steps = int(rng.integers(1, max_steps + 1))
    return ExecutionTrace(
        states=tuple(random_state(rng) for _ in range(steps + 1)),
        actions=tuple(random_action(rng) for _ in range(steps)),
    )


def _first_action(doc: dict, action) -> dict:
    return dict(doc, actions=[action] + doc["actions"][1:])


#: (id, malformed copy of a trace document with at least one action): one
#: for each shape ExecutionTrace.from_dict rejects.
BAD_TRACE_SHAPES = [
    ("document-is-a-list", lambda d: [d]),
    ("states-not-a-list", lambda d: dict(d, states="ab")),
    ("actions-not-a-list", lambda d: dict(d, actions={"label": "go"})),
    ("one-state-too-few", lambda d: dict(d, states=d["states"][:-1])),
    ("state-not-a-mapping", lambda d: dict(d, states=[5] + d["states"][1:])),
    ("action-not-a-mapping", lambda d: _first_action(d, "go")),
    ("action-without-label", lambda d: _first_action(d, {"payload": {}})),
    ("label-not-a-string", lambda d: _first_action(d, {"label": 5})),
    ("empty-label", lambda d: _first_action(d, {"label": ""})),
    ("payload-not-a-mapping", lambda d: _first_action(d, {"label": "go", "payload": [1]})),
]

# Scenario documents a scenario loader must reject with a FormatError.
BAD_SCENARIO_SHAPES = [
    ("document-not-a-mapping", lambda d: 5),
    ("contract-not-a-string", lambda d: dict(d, contract=5)),
    ("expected-not-a-mapping", lambda d: dict(d, expected=5)),
    ("boolean-in-c_hard_range", lambda d: dict(d, expected=dict(d["expected"],
                                                                c_hard_range=[True, 1]))),
    ("boolean-in-c_soft_range", lambda d: dict(d, expected=dict(d["expected"],
                                                                c_soft_range=[0, True]))),
]

# Suite manifests of the wrong shape, each rejected by load_suite with a
# FormatError naming the manifest: (id, manifest document, expected message part).
BAD_MANIFESTS = [
    ("manifest-not-a-mapping", [1], "manifest must be a mapping, got sequence"),
    ("entry-not-a-mapping", {"scenarios": [5]},
     "scenarios[0]: scenario entry must be a mapping, got number"),
    ("entry-without-file", {"scenarios": [{"name": "x"}]}, "scenarios[0].name: unknown key"),
    ("entry-with-only-an-id", {"scenarios": [{"id": "x"}]},
     "scenarios[0]: missing required field 'file'"),
    ("no-scenarios", {"scenarios": []}, "scenarios: the manifest lists no scenario"),
    ("unknown-top-level-key", {"scenarios": [{"file": "a.json"}], "seeed": 7},
     "manifest.json: seeed: unknown key"),
]


# ---------------------------------------------------------------------------
# Brute-force deterministic-satisfaction oracle
# ---------------------------------------------------------------------------

def _oracle_lookup(mapping, path):
    node = mapping
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None, False
        node = node[part]
    return node, True


def _oracle_predicate(con: Constraint, mapping: dict) -> bool:
    value, found = _oracle_lookup(mapping, con.check.field_path)
    if con.check.operator == "exists":
        return found
    if not found:
        # Generated contracts all use the default fail-closed policy.
        return False
    op, operand = con.check.operator, con.check.operand
    if op == "eq":
        return value == operand
    if op == "ne":
        return value != operand
    if op == "ge":
        return value >= operand
    if op == "le":
        return value <= operand
    if op == "gt":
        return value > operand
    if op == "lt":
        return value < operand
    if op == "range":
        return operand[0] <= value <= operand[1]
    if op == "in":
        return value in operand
    if op == "not_in":
        return value not in operand
    raise AssertionError(f"oracle cannot handle operator {op}")


def oracle_deterministic(contract: Contract, trace: ExecutionTrace) -> dict:
    """Naive enumeration of every (constraint, index) pair."""
    states = list(trace.states)
    action_views = [dict(a.payload, label=a.label) for a in trace.actions]

    pre_ok = all(_oracle_predicate(p, states[0]) for p in contract.preconditions)
    inv_ok = all(_oracle_predicate(c, s)
                 for c in contract.invariants_hard for s in states)
    gov_ok = all(_oracle_predicate(c, v)
                 for c in contract.governance_hard for v in action_views)

    k = contract.satisfaction.k
    rec_ok = True
    for con in contract.invariants_soft:
        line = [_oracle_predicate(con, s) for s in states]
        rec_ok = rec_ok and _oracle_window_ok(line, k)
    for con in contract.governance_soft:
        line = [_oracle_predicate(con, v) for v in action_views]
        rec_ok = rec_ok and _oracle_window_ok(line, k)

    return {
        "preconditions_ok": pre_ok,
        "invariants_ok": inv_ok,
        "governance_ok": gov_ok,
        "recoverability_ok": rec_ok,
        "overall": pre_ok and inv_ok and gov_ok and rec_ok,
    }


def _oracle_window_ok(line, k):
    last = len(line) - 1
    for t, ok in enumerate(line):
        if ok:
            continue
        if not any(line[u] for u in range(t, min(t + k, last) + 1)):
            return False
    return True


def oracle_outcome(contract: Contract, trace: ExecutionTrace) -> str:
    states = list(trace.states)
    action_views = [dict(a.payload, label=a.label) for a in trace.actions]
    hard_breach = (
        any(not _oracle_predicate(p, states[0]) for p in contract.preconditions)
        or any(not _oracle_predicate(c, s)
               for c in contract.invariants_hard for s in states)
        or any(not _oracle_predicate(c, v)
               for c in contract.governance_hard for v in action_views))
    if hard_breach:
        return "hard_violation"
    soft_breach = (
        any(not _oracle_predicate(c, s)
            for c in contract.invariants_soft for s in states)
        or any(not _oracle_predicate(c, v)
               for c in contract.governance_soft for v in action_views))
    return "soft_violation" if soft_breach else "compliant"


# ---------------------------------------------------------------------------
# Random chain instances for the compositionality suite
# ---------------------------------------------------------------------------

def _threshold_constraint(name, field, lo, hi, severity="hard", recovery=None):
    return Constraint(name=name, severity=severity, recovery=recovery,
                      check=Predicate(field_path=field, operator="range",
                                      operand=[lo, hi]))


def random_chain_instance(rng: np.random.Generator, fault: str = "none") -> dict:
    """A two-agent chain with trace and witnesses, valid by construction.

    ``fault`` injects exactly one condition violation: "c1" drops a mapped
    field from the witness outputs, "c2" narrows B's precondition below
    the handoff guarantee, "c3" lets A permit a label B prohibits, "c4"
    returns a recovery transform that breaks B's precondition.
    """
    labels_b = ["alpha", "beta", "gamma", "delta"]
    labels_a = sorted(rng.choice(labels_b, size=2, replace=False))
    if fault == "c3":
        labels_a = sorted(set(labels_a) | {"omega"})  # permitted by A, banned by B

    handoff_lo, handoff_hi = 1.0, 3.0
    pre_lo, pre_hi = (1.5, 2.5) if fault == "c2" else (0.0, 4.0)

    a = Contract(
        name="upstream",
        invariants_hard=(
            _threshold_constraint("a-quality", "work.quality", 1.0, 5.0),),
        invariants_soft=(
            _threshold_constraint("a-style", "work.style", 1.0, 5.0,
                                  severity="soft", recovery="a-fix"),),
        governance_hard=(
            Constraint(name="a-allowed-labels", severity="hard",
                       check=Predicate(field_path="label", operator="in",
                                       operand=list(labels_a))),),
        recovery_strategies=(
            RecoveryStrategy(name="a-fix", type="re_prompt", max_attempts=2),),
        satisfaction=SatisfactionParams(p=0.95, delta=0.1, k=int(rng.integers(1, 4))),
    )
    b = Contract(
        name="downstream",
        preconditions=(
            _threshold_constraint("b-input-ready", "handoff.value", pre_lo, pre_hi),),
        invariants_hard=(
            _threshold_constraint("b-consistency", "result.consistency", 1.0, 5.0),),
        governance_hard=(
            Constraint(name="b-allowed-labels", severity="hard",
                       check=Predicate(field_path="label", operator="in",
                                       operand=list(labels_b))),),
        satisfaction=SatisfactionParams(p=0.95, delta=0.1, k=int(rng.integers(1, 4))),
    )
    handoff = HandoffSpec(
        invariants=(
            _threshold_constraint("handoff-value-ok", "handoff.value",
                                  handoff_lo, handoff_hi),),
        type_map={"handoff.value": "handoff.value"},
        p_h=0.98, delta_h=0.01,
    )

    def full_state(handoff_value: float) -> dict:
        return {
            "work": {"quality": float(rng.uniform(1.5, 4.5)),
                     "style": float(rng.uniform(1.5, 4.5))},
            "result": {"consistency": float(rng.uniform(1.5, 4.5))},
            "handoff": {"value": handoff_value},
        }

    boundary = int(rng.integers(1, 4))
    total = boundary + int(rng.integers(1, 4))
    states = [full_state(float(rng.uniform(handoff_lo, handoff_hi)))
              for _ in range(total + 1)]
    trace_labels = [str(rng.choice(labels_a if fault != "c3" else
                                   sorted(set(labels_a) - {"omega"})))
                    for _ in range(total)]
    actions = [ActionRecord(label=label) for label in trace_labels]
    trace = ExecutionTrace(states=tuple(states), actions=tuple(actions))

    witnesses = [full_state(float(rng.uniform(handoff_lo, handoff_hi)))
                 for _ in range(4)]
    if fault == "c1":
        for w in witnesses:
            del w["handoff"]["value"]
    elif fault == "c2":
        # Inside the handoff guarantee, outside B's narrowed precondition.
        witnesses[0]["handoff"]["value"] = 1.1
    corpus = [ActionRecord(label=label) for label in labels_a]

    if fault == "c4":
        def transform(state):
            broken = {k: dict(v) if isinstance(v, dict) else v for k, v in state.items()}
            broken["handoff"] = {"value": pre_hi + 10.0}
            return broken
    else:
        transform = None

    return {
        "a": a, "b": b, "handoff": handoff,
        "trace": trace, "boundary": boundary,
        "witnesses": witnesses, "corpus": corpus,
        "transform": transform,
    }
