"""The compiled constraint evaluator against a plain reference evaluator.

The reference below re-implements field resolution, the operator rules and
the expression language with plain recursion and dict lookups, so the
closures the engine compiles are checked against an independent code path.
"""

import copy
import json
import math
import pickle
import sys
from collections import OrderedDict
from dataclasses import replace
from types import MappingProxyType
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentcontracts import expressions
from agentcontracts.assets import asset_path
from agentcontracts.engine import (ConstraintResult, compile_constraint, evaluate_constraint,
                                   evaluate_step)
from agentcontracts.errors import SemanticError, TypeMismatch
from agentcontracts.expressions import (OPERATORS, Binary, Call, Field, Lit, Unary,
                                        compile_expression, field_getter)
from agentcontracts.model import (
    MISSING,
    ActionRecord,
    Constraint,
    Contract,
    DriftConfig,
    ExecutionTrace,
    Predicate,
    value_eq,
)
from agentcontracts.monitor import SessionMonitor, run_session
from agentcontracts.parser import load_contract

from helpers import ACTION_FIELDS, STATE_FIELDS, random_action, random_contract, random_state

POLICIES = ("violate", "satisfy", "skip")
HUGE = 10 ** 400   # an int no float can hold

# ---------------------------------------------------------------------------
# The reference evaluator
# ---------------------------------------------------------------------------

ABSENT = object()


class Missing(Exception):
    pass


class Mismatch(Exception):
    pass


def ref_lookup(node, keys):
    for key in keys:
        if not isinstance(node, Mapping) or key not in node:
            return ABSENT
        node = node[key]
    return node


def ref_field(path, state, action, bare):
    head, dot, rest = path.partition(".")
    if head == "state" and dot:
        return ref_lookup(state, rest.split("."))
    if head == "action" or bare == "action":
        if action is None:
            return ABSENT
        view = dict(action.payload)
        view.setdefault("label", action.label)
        if head != "action":
            return ref_lookup(view, path.split("."))
        return ref_lookup(view, rest.split(".")) if dot else view
    return ref_lookup(state, path.split("."))


def ref_number(v):
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and -sys.float_info.max <= v <= sys.float_info.max)


def ref_eq(a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        return type(a) is type(b) and a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(ref_eq(x, y) for x, y in zip(a, b))
    return a == b


def ref_numbers(*values):
    if not all(ref_number(v) for v in values):
        raise Mismatch
    return [float(v) for v in values]


COMPARE = {"lt": "<", "le": "<=", "gt": ">", "ge": ">="}


def ref_binary(op, a, b):
    if op in ("==", "eq"):
        return ref_eq(a, b)
    if op in ("!=", "ne"):
        return not ref_eq(a, b)
    x, y = ref_numbers(a, b)
    op = COMPARE.get(op, op)
    if op == "<":
        return x < y
    if op == "<=":
        return x <= y
    if op == ">":
        return x > y
    if op == ">=":
        return x >= y
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "*":
        return x * y
    if y == 0.0:
        raise Mismatch
    return x / y


def ref_bool(v):
    if not isinstance(v, bool):
        raise Mismatch
    return v


def ref_eval(node, state, action):
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Field):
        value = ref_field(node.path, state, action, "state")
        if value is ABSENT:
            raise Missing
        return value
    if isinstance(node, Unary):
        value = ref_eval(node.operand, state, action)
        if node.op == "not":
            return not ref_bool(value)
        return -ref_numbers(value)[0]
    if isinstance(node, Binary):
        if node.op in ("and", "or"):
            left = ref_bool(ref_eval(node.left, state, action))
            if node.op == "and" and not left:
                return False
            if node.op == "or" and left:
                return True
            return ref_bool(ref_eval(node.right, state, action))
        return ref_binary(node.op, ref_eval(node.left, state, action),
                          ref_eval(node.right, state, action))
    assert isinstance(node, Call)
    args = [ref_eval(a, state, action) for a in node.args]
    if node.func == "len":
        if not isinstance(args[0], (list, tuple, str)):
            raise Mismatch
        return float(len(args[0]))
    nums = ref_numbers(*args)
    return abs(nums[0]) if node.func == "abs" else {"min": min, "max": max}[node.func](nums)


def reference(con, state, action, target):
    """(satisfied, kind): kind None, "missing" or "mismatch"."""
    check = con.check
    try:
        if check.is_expression():
            return ref_bool(ref_eval(check.expression, state, action)), None
        value = ref_field(check.field_path, state, action, target)
        if check.operator == "exists":
            return value is not ABSENT, None
        if value is ABSENT:
            raise Missing
        if check.operator == "range":
            x, = ref_numbers(value)
            return check.operand[0] <= x <= check.operand[1], None
        return ref_binary(check.operator, value, check.operand), None
    except Missing:
        return {"violate": False, "satisfy": True, "skip": None}[con.on_missing], "missing"
    except Mismatch:
        return False, "mismatch"


def observed(result):
    detail = result.detail or ""
    kind = ("missing" if "does not resolve" in detail
            else "mismatch" if detail.startswith("type mismatch") else None)
    return result.satisfied, kind


# ---------------------------------------------------------------------------
# Drawn cases: helpers' contracts and states, reshaped
# ---------------------------------------------------------------------------

LEAVES = st.one_of(st.sampled_from([True, False, 0, 1, 3, -1, 2.0, 4.5, 0.0, HUGE, "3",
                                    None, [1], math.inf]),
                   st.integers(-2, 6), st.floats(-1, 6))
# Expressions over the helpers' field universe; governance ones read the action.
STATE_EXPRESSIONS = ("metrics.quality + metrics.safety >= score",
                     "not flags.ok or score < 3",
                     "abs(metrics.quality - state.score) <= 2 and flags.ok == True",
                     "max(metrics.quality, score) / metrics.safety > 1",
                     "score == 1", "score == True", "-score < 0 or len(score) > 0")
ACTION_EXPRESSIONS = ("action.cost <= action.latency", "action.label == \"alpha\"",
                      "action.cost * 2 > score", "action.label != 5")


def reshape(draw, mapping, fields):
    """A copy of ``mapping`` with some of ``fields`` dropped or replaced by
    drawn leaves, and some nested mappings turned into MappingProxyTypes."""
    out = json.loads(json.dumps(mapping))
    for path in fields:
        *parents, leaf = path.split(".")
        node = out
        for key in parents:
            node = node[key]
        change = draw(st.sampled_from(("keep", "drop", "replace")))
        if change == "drop":
            del node[leaf]
        elif change == "replace":
            node[leaf] = draw(LEAVES)
    for key, value in list(out.items()):
        if isinstance(value, dict) and draw(st.booleans()):
            out[key] = MappingProxyType(value)
    return MappingProxyType(out) if draw(st.booleans()) else out


@st.composite
def cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    contract = random_contract(rng)

    def with_policy(cons):
        return tuple(replace(c, on_missing=draw(st.sampled_from(POLICIES))) for c in cons)

    def expressions(prefix, sources):
        picked = draw(st.lists(st.sampled_from(sources), max_size=3))
        return tuple(Constraint(name=f"{prefix}{i}", check=Predicate(
            expression=compile_expression(src), expression_src=src),
            on_missing=draw(st.sampled_from(POLICIES))) for i, src in enumerate(picked))

    label_check = Constraint(name="label-alpha", check=Predicate(
        field_path="label", operator="eq", operand="alpha"))
    contract = replace(
        contract,
        preconditions=with_policy(contract.preconditions),
        invariants_hard=with_policy(contract.invariants_hard),
        invariants_soft=(with_policy(contract.invariants_soft)
                         + expressions("se", STATE_EXPRESSIONS)),
        governance_hard=with_policy(contract.governance_hard),
        governance_soft=(with_policy(contract.governance_soft) + (label_check,)
                         + expressions("ae", ACTION_EXPRESSIONS)))
    state = reshape(draw, random_state(rng), STATE_FIELDS)
    action = random_action(rng)
    payload = dict(reshape(draw, action.payload, ACTION_FIELDS))
    if draw(st.booleans()):
        payload["label"] = draw(st.sampled_from(["alpha", "beta", 5, None]))
    if draw(st.booleans()):
        payload = MappingProxyType(payload)
    return contract, state, ActionRecord(action.label, payload)


class TestCompiledAgainstReference:
    @given(case=cases())
    @settings(max_examples=300, deadline=None)
    def test_every_result_matches_the_reference(self, case):
        contract, state, action = case
        ev = evaluate_step(contract, state, action, 0)
        for con in contract.preconditions:
            assert observed(ev.preconditions[con.name]) == reference(con, state, None, "state"), \
                con
        for con in contract.invariants():
            assert observed(ev.results[con.name]) == reference(con, state, None, "state"), con
        for con in contract.governance():
            assert observed(ev.results[con.name]) == reference(con, state, action, "action"), \
                con

    @pytest.mark.parametrize("src,state", [
        ("a + b > 0", {"a": "x"}),            # both operands evaluated before types
        ("min(a, b, 1) > 0", {"a": "x"}),
        ("a == 1 and b > 0", {"a": 2}),       # and/or stop early
        ("a == 1 or b > 0", {"a": 1}),
        ("a and b", {"a": 1}),
        ("not a", {"a": None}),
        ("a / b > 0", {"a": 1, "b": 0}),
        ("len(a) > 0", {"a": {"k": 1}}),
    ])
    def test_pinned_expressions_match_the_reference(self, src, state):
        for policy in POLICIES:
            con = Constraint(name="e", on_missing=policy, check=Predicate(
                expression=compile_expression(src), expression_src=src))
            ev = evaluate_step(Contract(name="t", invariants_soft=(con,)), state,
                               ActionRecord("go"), 0)
            assert observed(ev.results["e"]) == reference(con, state, None, "state")

    def test_equal_constraints_keep_their_own_verdicts(self):
        # Equal by value (1 == True), so a cache keyed by value would mix them up.
        one = Predicate(field_path="x", operator="eq", operand=1)
        true = Predicate(field_path="x", operator="eq", operand=True)
        assert one == true and compile_expression("x == 1") == compile_expression("x == True")
        expression = lambda src: Predicate(expression=compile_expression(src), expression_src=src)
        contract = Contract(name="t", invariants_hard=(
            Constraint(name="one", severity="hard", check=one),
            Constraint(name="true", severity="hard", check=true),
            Constraint(name="expr-one", severity="hard", check=expression("x == 1")),
            Constraint(name="expr-true", severity="hard", check=expression("x == True"))))
        for x, expected in ((1, True), (True, False)):
            ev = evaluate_step(contract, {"x": x}, ActionRecord("go"), 0)
            assert {name: r.satisfied for name, r in ev.results.items()} == {
                "one": expected, "true": not expected,
                "expr-one": expected, "expr-true": not expected}


class TestHugeInts:
    """A JSON int beyond the float range is not a number: ordering it fails
    closed and equality compares it exactly."""

    @pytest.mark.parametrize("check,satisfied,mismatch", [
        (Predicate(field_path="x", operator="le", operand=100), False, True),
        (Predicate(field_path="x", operator="range", operand=[0, 1]), False, True),
        (Predicate(field_path="x", operator="eq", operand=1.5), False, False),
        (Predicate(field_path="x", operator="ne", operand=1.5), True, False),
        (Predicate(field_path="x", operator="eq", operand=HUGE), True, False),
        (Predicate(field_path="x", operator="in", operand=[1, HUGE]), True, False),
        (Predicate(expression=compile_expression("x <= 100")), False, True),
        (Predicate(expression=compile_expression("x + 1 > 0")), False, True),
        (Predicate(expression=compile_expression("x == 1.5")), False, False),
    ])
    def test_session_over_a_huge_int(self, check, satisfied, mismatch):
        contract = Contract(name="t", invariants_hard=(
            Constraint(name="c", severity="hard", check=check),))
        doc = json.loads('{"states": [{"x": 1%s}, {"x": 0}], "actions": [{"label": "go"}]}'
                         % ("0" * 400))
        report = run_session(contract, ExecutionTrace.from_dict(doc))
        result = report.steps[0].evaluation.results["c"]
        assert result.satisfied is satisfied
        assert (result.detail or "").startswith("type mismatch:") is mismatch


def test_a_range_bound_beyond_floats_fails_closed():
    # A Python-built contract is validated when its plan is built: the
    # bound is rejected before the first step, never evaluated.
    demo = load_contract(asset_path("contracts", "financial-advisor.yaml"))
    with open(asset_path("traces", "financial_advisor_demo.json")) as fh:
        trace = ExecutionTrace.from_dict(json.load(fh))
    bounded = Constraint(name="bounded-tone", severity="hard", check=Predicate(
        field_path="output.tone_score", operator="range", operand=[0, HUGE]))
    contract = replace(demo, invariants_hard=demo.invariants_hard + (bounded,))
    message = r"^bounded-tone: range operand must be finite, got an int too large for a float$"
    with pytest.raises(SemanticError, match=message):
        SessionMonitor(contract)
    with pytest.raises(SemanticError, match=message):
        run_session(contract, trace)


def test_a_lone_matches_needs_a_string_operand():
    # Rejected when compiled, in the validator's bad-regex-operand words,
    # never per evaluation.
    with pytest.raises(SemanticError, match=r"^matches operand must be a string$"):
        expressions.operator_for("matches", 5)
    con = Constraint(name="c", check=Predicate(field_path="x", operator="matches", operand=5))
    with pytest.raises(SemanticError, match=r"^c: matches operand must be a string$"):
        evaluate_constraint(con, {"x": "a"}, None, "state")


class TestValueEqInContainers:
    @pytest.mark.parametrize("a,b,expected", [
        ([True], [1], False), ([[True]], [[1]], False), ((True,), (1,), False),
        ({"k": True}, {"k": 1}, False), ({"k": [1]}, {"k": [1.0]}, True),
        (MappingProxyType({"k": 1}), {"k": 1.0}, True), ([1, 2], [1.0, 2.0], True),
        ([1], (1,), False), ({"a": 1}, {"b": 1}, False), ([1], [1, 1], False),
    ])
    def test_booleans_never_equal_numbers_at_any_depth(self, a, b, expected):
        assert value_eq(a, b) is expected
        assert value_eq(b, a) is expected


def test_a_used_contract_still_pickles_and_copies():
    # The compiled closures cached on a contract and the drift tables cached
    # on its configuration are not part of its state: a copy builds its own
    # on first use.
    contract = Contract(name="t", invariants_hard=(Constraint(
        name="c", severity="hard", check=Predicate(field_path="x", operator="ge", operand=1)),),
        drift_config=DriftConfig(window=3, vocabulary=("go",), reference={"go": 1.0}))
    trace = ExecutionTrace(states=({"x": 2}, {"x": 0}), actions=(ActionRecord("go"),))
    report = run_session(contract, trace)
    assert vars(contract.drift_config)["_compiled"].table
    for copy_ in (pickle.loads(pickle.dumps(contract)), copy.deepcopy(contract)):
        assert copy_ == contract
        assert "_compiled" not in vars(copy_) and "_compiled" not in vars(copy_.drift_config)
        assert run_session(copy_, trace).to_dict() == report.to_dict()


# ---------------------------------------------------------------------------
# Fast paths against their fallbacks
# ---------------------------------------------------------------------------

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


EXACT = 2 ** 53      # every int up to it is exact as a float; EXACT + 1 is not

VALUES = (0, 7, -3, 75, 80, True, False, HUGE, -HUGE, EXACT, -EXACT, EXACT + 1, -EXACT - 1,
          math.nan, math.inf, -math.inf,
          0.0, -0.0, 74.5, 75.0, 80.5, 1e308, -1e308, "ok", "alpha", "", Text("ok"),
          Text("alpha"), [1], ["ok"], [True], {"k": 1}, MappingProxyType({"k": 1}), None)

# (operator, operand): the operands each fast path specialises on, and
# operands it must leave to OPERATORS.
FIELD_CHECKS = (
    ("lt", 75), ("le", 75.0), ("gt", -3), ("ge", 0.0), ("ge", -0.0), ("lt", 1e308),
    ("lt", HUGE), ("le", math.nan), ("gt", math.inf), ("ge", True), ("lt", "ok"),
    ("ge", 0), ("le", EXACT), ("gt", -EXACT), ("lt", EXACT + 1), ("ge", -EXACT - 1),
    ("range", [-EXACT, EXACT]), ("range", [0, EXACT + 1]), ("range", [False, 1]),
    ("range", [0, 80]), ("range", [-3.5, 74.5]), ("range", (0.0, 0.0)), ("range", [0, HUGE]),
    ("range", [math.nan, 1]), ("range", [True, 3]), ("range", ["a", "z"]),
    ("in", ["ok", "alpha"]), ("not_in", ["ok", "alpha"]), ("in", []), ("not_in", ()),
    ("in", ["ok", 7]), ("not_in", [Text("ok")]), ("in", [[1], {"k": 1}]), ("in", "okay"),
    ("not_in", "okay"), ("eq", "ok"), ("ne", "ok"), ("eq", ""), ("eq", Text("ok")),
    ("ne", Text("alpha")), ("eq", 7), ("ne", 7.0), ("eq", True), ("eq", [1]),
    ("eq", HUGE), ("matches", "^o"), ("matches", Text("a")),
)


def unspecialised(op, value, operand):
    """The result the engine gives from ``OPERATORS[op]`` called as is."""
    try:
        return ConstraintResult(satisfied=True if OPERATORS[op](value, operand) else False)
    except TypeMismatch as exc:
        return ConstraintResult(satisfied=False, detail=f"type mismatch: {exc}")


class TestConstantOperandFastPaths:
    @pytest.mark.parametrize("op,operand", FIELD_CHECKS)
    def test_field_predicates_match_the_operator_table(self, op, operand):
        con = Constraint(name="c", check=Predicate(field_path="x", operator=op, operand=operand))
        for value in VALUES:
            got = evaluate_constraint(con, {"x": value}, None, "state")
            assert got == unspecialised(op, value, operand), value
            if op in ("eq", "ne", "lt", "le", "gt", "ge"):
                assert observed(got) == reference(con, {"x": value}, None, "state"), value

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "==", "!=", "in"])
    @pytest.mark.parametrize("literal", ["75", "74.5", "0", "1e308", "\"ok\"", "\"\"",
                                         "True"])
    def test_expression_compares_match_a_field_operand(self, op, literal):
        # ``x OP literal`` takes operator_for; ``x OP y`` with the same value
        # in ``y`` calls OPERATORS directly.
        constant = Constraint(name="c", check=Predicate(
            expression=compile_expression(f"x {op} {literal}")))
        field = Constraint(name="c", check=Predicate(expression=compile_expression(f"x {op} y")))
        y = compile_expression(literal).value
        for value in VALUES:
            got = evaluate_constraint(constant, {"x": value}, None, "state")
            assert got == evaluate_constraint(field, {"x": value, "y": y}, None, "state"), value
            if op != "in":
                assert observed(got) == reference(constant, {"x": value}, None, "state"), value

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_field_versus_field_orderings_match_the_operator_table(self, op):
        # Neither operand is a literal: ints within 2**53 and finite floats
        # are compared directly, every other value goes to OPERATORS.
        con = Constraint(name="c", check=Predicate(expression=compile_expression(f"x {op} y")))
        evaluate = compile_constraint(con, "state")
        for x in VALUES:
            for y in VALUES:
                state = {"x": x, "y": y}
                got = evaluate(state, None)
                assert got == unspecialised(op, x, y), (x, y)
                assert observed(got) == reference(con, state, None, "state"), (x, y)

    @pytest.mark.parametrize("src", ["x * 1.5 >= 0", "x - 2 < 1", "x / 0.5 > 0", "x / 0 > 0",
                                     "x + -1e308 <= 0", "x * y >= 0", "x + y <= 0",
                                     "x / y > 0", "y - x < 1"])
    def test_arithmetic_constraints_match_the_reference(self, src):
        con = Constraint(name="c", check=Predicate(expression=compile_expression(src)))
        for x in VALUES:
            for y in ARITHMETIC_OPERANDS:
                state = {"x": x, "y": y}
                got = evaluate_constraint(con, state, None, "state")
                assert observed(got) == reference(con, state, None, "state"), (x, y)

    @pytest.mark.parametrize("op", ["+", "-", "*", "/"])
    def test_arithmetic_matches_the_plain_rule(self, op):
        # Both operands checked by _require_number, left first, then combined.
        def outcome(compute):
            try:
                return repr(compute())
            except TypeMismatch as exc:
                return f"TypeMismatch: {exc}"

        for a in VALUES:
            for b in ARITHMETIC_OPERANDS:
                plain = outcome(lambda: expressions._ARITHMETIC[op](
                    expressions._require_number(a, op), expressions._require_number(b, op)))
                fields = expressions._closure(Binary(op, Field("x"), Field("y")))
                constant = expressions._closure(Binary(op, Field("x"), Lit(b)))
                assert outcome(lambda: fields({"x": a, "y": b}, None)) == plain, (a, b)
                assert outcome(lambda: constant({"x": a}, None)) == plain, (a, b)


ARITHMETIC_OPERANDS = (1.5, 0.0, -0.0, 3, 0, EXACT, -EXACT - 1, 1e308, -1e308, HUGE, math.inf,
                       math.nan, "1", True, False)


KEYS = ("a", "b", "label", "c")


@st.composite
def nested_paths(draw, mapping_root=False):
    """``(keys, root)``: a key path of 1-5 keys and a root built along it,
    each level a dict, a MappingProxyType, a non-dict Mapping, a dict
    subclass, a mapping without the next key, or a value that is no
    mapping at all."""
    keys = draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=5))
    node = draw(st.sampled_from([1, "v", None, [1], {"z": 1}, 2.5]))
    for depth, key in enumerate(reversed(keys)):
        kinds = ["dict"] * 4 + ["proxy", "bag", "ordered", "no-key"]
        if not (mapping_root and depth == len(keys) - 1):
            kinds += ["list", "text"]
        kind = draw(st.sampled_from(kinds))
        contents = {key: node, "other": 0}
        if kind == "no-key":
            node = {"other": node}
        elif kind == "list":
            node = [contents]
        elif kind == "text":
            node = "a.b"
        else:
            node = {"dict": dict, "proxy": MappingProxyType, "bag": Bag,
                    "ordered": OrderedDict}[kind](contents)
    return keys, node


class TestFieldWalkers:
    @given(case=nested_paths(), prefix=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_state_paths_match_the_reference(self, case, prefix):
        keys, state = case
        path = ("state." if prefix else "") + ".".join(keys)
        got = field_getter(path)(state, None)
        want = ref_field(path, state, None, "state")
        assert got is want or (got is MISSING and want is ABSENT)
        for op, operand in (("exists", None), ("eq", 1)):
            con = Constraint(name="c", check=Predicate(field_path=path, operator=op,
                                                       operand=operand))
            assert observed(evaluate_constraint(con, state, None, "state")) == \
                reference(con, state, None, "state")

    @given(case=nested_paths(mapping_root=True), prefix=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_action_paths_match_the_reference(self, case, prefix):
        keys, payload = case
        path = ("action." if prefix else "") + ".".join(keys)
        action = ActionRecord("go", payload)
        got = field_getter(path, "action")({}, action)
        want = ref_field(path, {}, action, "action")
        assert got is want or (got is MISSING and want is ABSENT)
        con = Constraint(name="c", check=Predicate(field_path=path, operator="exists"))
        assert evaluate_constraint(con, {}, action, "action").satisfied is (want is not ABSENT)
