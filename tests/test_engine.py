"""Step evaluation, deterministic satisfaction, and outcome classification."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agentcontracts.engine import (
    check_deterministic,
    classify_outcome,
    evaluate_constraint,
    evaluate_step,
)
from agentcontracts.expressions import OPERATORS, compile_expression, eval_expression
from agentcontracts.model import (
    FIELD_OPERATORS,
    ActionRecord,
    Constraint,
    Contract,
    ExecutionTrace,
    Predicate,
    SatisfactionParams,
)

from helpers import oracle_deterministic, oracle_outcome, random_contract, random_trace


def ge_check(path, threshold):
    return Predicate(field_path=path, operator="ge", operand=threshold)


def hard(name, path, threshold):
    return Constraint(name=name, severity="hard", check=ge_check(path, threshold))


def soft(name, path, threshold, **kw):
    return Constraint(name=name, severity="soft", check=ge_check(path, threshold), **kw)


class TestEvaluateStep:
    def test_three_of_four_hard_gives_075(self):
        contract = Contract(
            name="t",
            invariants_hard=(hard("a", "x.a", 1), hard("b", "x.b", 1),
                             hard("c", "x.c", 1), hard("d", "x.d", 1)),
        )
        state = {"x": {"a": 2, "b": 2, "c": 2, "d": 0}}
        ev = evaluate_step(contract, state, ActionRecord("go"), 0)
        assert ev.c_hard == 0.75
        assert ev.c_soft == 1.0

    def test_all_satisfied_gives_one(self):
        contract = Contract(
            name="t",
            invariants_hard=(hard("a", "x.a", 1),),
            invariants_soft=(soft("s", "x.a", 1),),
        )
        ev = evaluate_step(contract, {"x": {"a": 5}}, ActionRecord("go"), 0)
        assert ev.c_hard == 1.0 and ev.c_soft == 1.0

    def test_zero_soft_constraints_vacuous_one(self):
        # Vacuous-truth convention, consistent with the satisfaction oracle:
        # a contract with no soft constraints is soft-satisfied everywhere.
        contract = Contract(name="t", invariants_hard=(hard("a", "x.a", 1),))
        ev = evaluate_step(contract, {"x": {"a": 5}}, ActionRecord("go"), 0)
        assert ev.c_soft == 1.0
        trace = ExecutionTrace(states=({"x": {"a": 5}}, {"x": {"a": 5}}),
                               actions=(ActionRecord("go"),))
        assert oracle_deterministic(contract, trace)["recoverability_ok"] is True

    def test_preconditions_only_at_step_zero(self):
        contract = Contract(
            name="t",
            preconditions=(hard("pre", "ready", 1),),
            invariants_hard=(hard("a", "x.a", 1),),
        )
        first = evaluate_step(contract, {"ready": 1, "x": {"a": 1}}, ActionRecord("go"), 0)
        later = evaluate_step(contract, {"ready": 1, "x": {"a": 1}}, ActionRecord("go"), 3)
        assert first.preconditions is not None and "pre" in first.preconditions
        assert later.preconditions is None
        assert "pre" not in first.results  # never enters c_hard / c_soft

    def test_every_constraint_appears_exactly_once(self):
        rng = np.random.default_rng(3)
        contract = random_contract(rng)
        ev = evaluate_step(contract, {"metrics": {"quality": 1, "safety": 1},
                                      "flags": {"ok": True}, "score": 1},
                           ActionRecord("alpha", {"cost": 1, "latency": 1}), 0)
        expected = {c.name for c in contract.invariants() + contract.governance()}
        assert set(ev.results) == expected

    def test_governance_reads_action_not_state(self):
        contract = Contract(
            name="t",
            governance_hard=(Constraint(
                name="g", severity="hard",
                check=Predicate(field_path="cost", operator="le", operand=10)),),
        )
        ev = evaluate_step(contract, {"cost": 999}, ActionRecord("go", {"cost": 5}), 0)
        assert ev.results["g"].satisfied is True

    def test_order_independence(self):
        c1 = Contract(name="t", invariants_hard=(hard("a", "x.a", 1), hard("b", "x.b", 1)))
        c2 = Contract(name="t", invariants_hard=(hard("b", "x.b", 1), hard("a", "x.a", 1)))
        state = {"x": {"a": 0, "b": 5}}
        e1 = evaluate_step(c1, state, ActionRecord("go"), 0)
        e2 = evaluate_step(c2, state, ActionRecord("go"), 0)
        assert dict(e1.results) == dict(e2.results)
        assert e1.c_hard == e2.c_hard


class TestMissingFields:
    def make(self, on_missing):
        con = Constraint(name="c", severity="hard", on_missing=on_missing,
                         check=ge_check("gone.field", 1))
        return Contract(name="t", invariants_hard=(con,))

    def test_default_violate(self):
        ev = evaluate_step(self.make("violate"), {}, ActionRecord("go"), 0)
        assert ev.results["c"].satisfied is False
        assert "does not resolve" in ev.results["c"].detail

    def test_satisfy_policy(self):
        ev = evaluate_step(self.make("satisfy"), {}, ActionRecord("go"), 0)
        assert ev.results["c"].satisfied is True
        assert ev.results["c"].detail  # diagnostic still attached

    def test_skip_policy_excluded_from_scores(self):
        ev = evaluate_step(self.make("skip"), {}, ActionRecord("go"), 0)
        assert ev.results["c"].satisfied is None
        assert ev.c_hard == 1.0  # no evaluable hard constraints left

    def test_type_mismatch_always_fails_closed(self):
        contract = self.make("satisfy")
        ev = evaluate_step(contract, {"gone": {"field": "text"}}, ActionRecord("go"), 0)
        assert ev.results["c"].satisfied is False
        assert "type mismatch" in ev.results["c"].detail


class TestOperators:
    @pytest.mark.parametrize("op,operand,value,expected", [
        ("eq", True, True, True),
        ("eq", 1.0, True, False),      # bools never equal numbers
        ("ne", "a", "b", True),
        ("in", ["a", "b"], "a", True),
        ("not_in", ["a"], "b", True),
        ("range", [1, 3], 2, True),
        ("range", [1, 3], 4, False),
        ("matches", "forbidden", "this is forbidden text", True),
        ("matches", "^forbidden", "this is forbidden text", False),
    ])
    def test_field_operators(self, op, operand, value, expected):
        con = Constraint(name="c", severity="hard",
                         check=Predicate(field_path="v", operator=op, operand=operand))
        result = evaluate_constraint(con, {"v": value}, None, target="state")
        assert result.satisfied is expected

    @pytest.mark.parametrize("value,members,expected", [
        (1.0, [True], False), (True, [1.0], False), (0.0, [False], False),
        (False, [0], False), (True, [True], True), (1, [1.0], True),
        (2.0, [1, True], False), (False, [0.0, True], False), (False, [1, False], True),
        ("a", ["a", 1.0], True), (1.0, ["1", 1], True),
    ])
    def test_in_agrees_with_expression_in(self, value, members, expected):
        """The field operators ``in``/``eq`` and the expression ``in``/``==``
        share one equality: numbers compare numerically, booleans never
        equal numbers."""
        state = {"v": value, "xs": members}
        field_in = Constraint(name="c", severity="hard",
                              check=Predicate(field_path="v", operator="in", operand=members))
        expr_in = Constraint(name="c", severity="hard",
                             check=Predicate(expression=compile_expression("v in xs"),
                                             expression_src="v in xs"))
        assert evaluate_constraint(field_in, state, None, "state").satisfied is expected
        assert evaluate_constraint(expr_in, state, None, "state").satisfied is expected
        for m in members:
            eq = Constraint(name="c", severity="hard",
                            check=Predicate(field_path="v", operator="eq", operand=m))
            state = {"v": value, "m": m}
            field_eq = evaluate_constraint(eq, state, None, "state").satisfied
            assert eval_expression(compile_expression("v == m"), state) is field_eq

    def test_exists_operator(self):
        con = Constraint(name="c", severity="hard",
                         check=Predicate(field_path="v.x", operator="exists"))
        assert evaluate_constraint(con, {"v": {"x": 0}}, None, "state").satisfied is True
        assert evaluate_constraint(con, {"v": {}}, None, "state").satisfied is False


# A plain reference for the shared operator semantics, written without the
# library: booleans equal only booleans, ordering needs finite numbers, and
# a string right of ``in`` is a substring test.
MISMATCH = "type mismatch"


def ref_eq(a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        return type(a) is type(b) and a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(ref_eq(x, y) for x, y in zip(a, b))
    return a == b


def ref_order(compare):
    def apply(a, b):
        finite = [type(v) in (int, float) and math.isfinite(v) for v in (a, b)]
        return compare(a, b) if all(finite) else MISMATCH
    return apply


def ref_in(a, b):
    if isinstance(b, str):
        return a in b if isinstance(a, str) else MISMATCH
    if isinstance(b, list):
        return any(ref_eq(a, m) for m in b)
    return MISMATCH


OPERATOR_PAIRS = [
    ("eq", "==", ref_eq),
    ("ne", "!=", lambda a, b: not ref_eq(a, b)),
    ("lt", "<", ref_order(lambda a, b: a < b)),
    ("le", "<=", ref_order(lambda a, b: a <= b)),
    ("gt", ">", ref_order(lambda a, b: a > b)),
    ("ge", ">=", ref_order(lambda a, b: a >= b)),
    ("in", "in", ref_in),
]

# A small shared pool makes equal and cross-type pairs (1 and True, 0.0 and
# -0.0, nan and nan) common; the examples pin the edge cases outright.
POOL = [None, True, False, 0, 1, 0.0, 1.0, -0.0, 1.5, math.nan, math.inf, -math.inf,
        "", "a", "ab", "1"]
SCALARS = st.one_of(st.sampled_from(POOL), st.booleans(), st.integers(-2, 2), st.floats(),
                    st.text(alphabet="ab1", max_size=2))
VALUES = st.one_of(SCALARS, st.lists(st.sampled_from(POOL), max_size=3),
                   st.lists(SCALARS, max_size=3))
EDGE_CASES = [(1, [True]), (True, [1.0]), (0, False), (1, 1.0), (-0.0, 0), (True, True),
              (math.nan, math.nan), (math.inf, math.inf), (1, math.inf), ("a", "ab"),
              (1, "1"), ("1", [1]), ([1], [[True]]), ([True], [1]), (None, [None]),
              (None, None)]


def verdict(result):
    """A constraint result as the reference states it."""
    if result.satisfied is False and (result.detail or "").startswith(MISMATCH):
        return MISMATCH
    return result.satisfied


def _with_examples(cases):
    def decorate(test):
        for value, operand in cases:
            test = example(value=value, operand=operand)(test)
        return test
    return decorate


class TestOneOperatorRule:
    @pytest.mark.parametrize("field_op,expr_op,reference", OPERATOR_PAIRS,
                             ids=[field_op for field_op, _, _ in OPERATOR_PAIRS])
    @given(value=VALUES, operand=VALUES)
    @settings(max_examples=200, deadline=None)
    @_with_examples(EDGE_CASES)
    def test_field_and_expression_operators_agree(self, field_op, expr_op, reference,
                                                  value, operand):
        field = Constraint(name="c", severity="hard", check=Predicate(
            field_path="v", operator=field_op, operand=operand))
        src = f"v {expr_op} w"
        expr = Constraint(name="c", severity="hard", check=Predicate(
            expression=compile_expression(src), expression_src=src))
        expected = reference(value, operand)
        assert verdict(evaluate_constraint(field, {"v": value}, None, "state")) == expected
        assert verdict(evaluate_constraint(
            expr, {"v": value, "w": operand}, None, "state")) == expected

    def test_every_field_operator_has_a_table_entry(self):
        assert set(FIELD_OPERATORS) - set(OPERATORS) == {"exists"}

    def test_governance_state_path_reads_the_state(self):
        con = Constraint(name="budget", severity="hard", check=Predicate(
            field_path="state.budget", operator="le", operand=10))
        action = ActionRecord("spend", {"amount": 3, "state": {"budget": 50}})
        assert evaluate_constraint(con, {"budget": 5}, action, "action").satisfied is True
        assert evaluate_constraint(con, {"budget": 50}, action, "action").satisfied is False

    def test_governance_bare_and_action_paths_read_the_action(self):
        for path in ("amount", "action.amount"):
            con = Constraint(name="cap", severity="hard", check=Predicate(
                field_path=path, operator="le", operand=10))
            state = {"amount": 50, "action": {"amount": 50}}
            assert evaluate_constraint(con, state, ActionRecord("spend", {"amount": 3}),
                                       "action").satisfied is True

    def test_state_side_action_path_reads_the_absent_action(self):
        con = Constraint(name="cap", severity="hard", check=Predicate(
            field_path="action.amount", operator="le", operand=10))
        result = evaluate_constraint(con, {"action": {"amount": 3}}, None, "state")
        assert result.satisfied is False
        assert "does not resolve" in result.detail


class TestDeterministicSatisfaction:
    def recovery_contract(self, k):
        return Contract(
            name="t",
            invariants_soft=(soft("tone", "tone", 1),),
            satisfaction=SatisfactionParams(k=k),
        )

    def trace_with_dip(self):
        # tone fails at t=2, recovers at t=3
        values = [2, 2, 0, 2, 2]
        return ExecutionTrace(
            states=tuple({"tone": v} for v in values),
            actions=tuple(ActionRecord("go") for _ in range(4)))

    def test_recovered_within_window(self):
        verdict = check_deterministic(self.recovery_contract(k=3), self.trace_with_dip())
        assert verdict.recoverability_ok is True
        assert verdict.overall is True

    def test_k_zero_requires_satisfaction_at_violation_step(self):
        verdict = check_deterministic(self.recovery_contract(k=0), self.trace_with_dip())
        assert verdict.recoverability_ok is False
        assert verdict.overall is False

    def test_single_hard_breach_fails_contract(self):
        contract = Contract(name="t", invariants_hard=(hard("h", "x", 1),))
        trace = ExecutionTrace(
            states=({"x": 2}, {"x": 0}, {"x": 2}),
            actions=(ActionRecord("a"), ActionRecord("b")))
        verdict = check_deterministic(contract, trace)
        assert verdict.invariants_ok is False
        assert verdict.overall is False
        assert (1, "h") in verdict.witnesses["invariants"]

    def test_precondition_failure(self):
        contract = Contract(name="t", preconditions=(hard("pre", "ready", 1),))
        trace = ExecutionTrace(states=({"ready": 0}, {"ready": 1}),
                               actions=(ActionRecord("a"),))
        verdict = check_deterministic(contract, trace)
        assert verdict.preconditions_ok is False


class TestClassifyOutcome:
    def test_clean_trace_compliant(self):
        contract = Contract(name="t", invariants_hard=(hard("h", "x", 1),))
        trace = ExecutionTrace(states=({"x": 2}, {"x": 2}), actions=(ActionRecord("a"),))
        assert classify_outcome(contract, trace) == "compliant"

    def test_hard_breach(self):
        contract = Contract(name="t", invariants_hard=(hard("h", "x", 1),))
        trace = ExecutionTrace(states=({"x": 2}, {"x": 0}), actions=(ActionRecord("a"),))
        assert classify_outcome(contract, trace) == "hard_violation"

    def test_recovered_soft_breach(self):
        contract = Contract(name="t", invariants_soft=(soft("s", "x", 1),),
                            satisfaction=SatisfactionParams(k=2))
        trace = ExecutionTrace(states=({"x": 2}, {"x": 0}, {"x": 2}),
                               actions=(ActionRecord("a"), ActionRecord("b")))
        assert classify_outcome(contract, trace) == "soft_violation"


class TestOracleEquivalence:
    def test_engine_matches_brute_force_on_random_corpus(self):
        rng = np.random.default_rng(2024)
        for _ in range(150):
            contract = random_contract(rng)
            trace = random_trace(rng)
            verdict = check_deterministic(contract, trace)
            expected = oracle_deterministic(contract, trace)
            got = {k: getattr(verdict, k) for k in
                   ("preconditions_ok", "invariants_ok", "governance_ok",
                    "recoverability_ok")}
            got["overall"] = verdict.overall
            assert got == expected, (contract, trace)
            assert classify_outcome(contract, trace) == oracle_outcome(contract, trace)


class TestMonotonicity:
    def test_removing_violated_constraint_never_lowers_scores(self):
        rng = np.random.default_rng(55)
        for _ in range(60):
            contract = random_contract(rng)
            state = {"metrics": {"quality": float(rng.integers(0, 6)),
                                 "safety": float(rng.integers(0, 6))},
                     "flags": {"ok": bool(rng.integers(2))},
                     "score": float(rng.integers(0, 6))}
            action = ActionRecord("alpha", {"cost": float(rng.integers(0, 6)),
                                            "latency": float(rng.integers(0, 6))})
            base = evaluate_step(contract, state, action, 0)
            violated = [name for name, r in base.results.items() if r.satisfied is False]
            for name in violated:
                reduced = Contract(
                    name="t",
                    preconditions=contract.preconditions,
                    invariants_hard=tuple(c for c in contract.invariants_hard
                                          if c.name != name),
                    invariants_soft=tuple(c for c in contract.invariants_soft
                                          if c.name != name),
                    governance_hard=tuple(c for c in contract.governance_hard
                                          if c.name != name),
                    governance_soft=tuple(c for c in contract.governance_soft
                                          if c.name != name),
                    satisfaction=contract.satisfaction,
                )
                after = evaluate_step(reduced, state, action, 0)
                assert after.c_hard >= base.c_hard - 1e-12
                assert after.c_soft >= base.c_soft - 1e-12
