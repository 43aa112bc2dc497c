"""Sandboxed expression language: grammar whitelist and evaluation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentcontracts.errors import (
    ExprSyntaxError,
    FieldResolutionError,
    ForbiddenConstruct,
    TypeMismatch,
)
from agentcontracts.expressions import (
    Binary,
    Call,
    Field,
    Lit,
    compile_expression,
    eval_expression,
)
from agentcontracts.model import ActionRecord


class TestCompile:
    def test_simple_threshold(self):
        ast = compile_expression("output.confidence >= 0.7")
        assert ast == Binary(">=", Field("output.confidence"), Lit(0.7))

    def test_cross_field_arithmetic(self):
        ast = compile_expression("cost.total <= budget.limit * 1.1")
        assert ast == Binary("<=", Field("cost.total"),
                             Binary("*", Field("budget.limit"), Lit(1.1)))

    def test_dunder_call_forbidden(self):
        with pytest.raises(ForbiddenConstruct):
            compile_expression("__import__('os')")

    @pytest.mark.parametrize("src", [
        "[x for x in y]",
        "lambda x: x",
        "x if y else z",
        "x ** 2",
        "{'a': 1}",
        "f(1)",
        "x.method()",
        "min(1, key=abs)",
        "x | y",
        "b'bytes'",
    ])
    def test_forbidden_constructs(self, src):
        with pytest.raises(ForbiddenConstruct):
            compile_expression(src)

    @pytest.mark.parametrize("src", ["", "   ", "x >", "1 +", "(((("])
    def test_syntax_errors(self, src):
        with pytest.raises(ExprSyntaxError):
            compile_expression(src)

    def test_whitelisted_functions(self):
        assert compile_expression("len(items)") == Call("len", (Field("items"),))
        assert compile_expression("min(a, b)") == Call("min", (Field("a"), Field("b")))

    def test_depth_cap(self):
        deep = "(" * 70 + "x" + ")" * 70
        # Parentheses alone do not nest our AST; build real nesting.
        nested = "x"
        for _ in range(70):
            nested = f"-({nested})"
        with pytest.raises(ForbiddenConstruct):
            compile_expression(nested)
        compile_expression(deep)  # flat after parse: fine

    def test_chained_comparison_desugars(self):
        ast = compile_expression("0 < x < 10")
        assert ast == Binary("and",
                             Binary("<", Lit(0.0), Field("x")),
                             Binary("<", Field("x"), Lit(10.0)))

    @pytest.mark.parametrize("src", ["x < 1" + "0" * 400, "x < 1e400", "x > -1e309",
                                     "abs(x) <= 2e308 * y", "x == " + "9" * 309],
                             ids=["int-10**400", "1e400", "-1e309", "2e308", "int-10**309"])
    def test_a_numeric_literal_must_be_a_finite_float(self, src):
        # Neither an int past the float range nor a float literal that
        # overflows to an infinity has a 64-bit value: refused where it is
        # written, not at every evaluation.
        with pytest.raises(ExprSyntaxError,
                           match=r"^numeric literal is not a finite 64-bit float$"):
            compile_expression(src)

    def test_the_largest_finite_literals_compile(self):
        assert compile_expression("x < 1.7976931348623157e308").right == Lit(1.7976931348623157e308)
        assert compile_expression("x > -" + "9" * 308).right.operand == Lit(float("9" * 308))

    def test_compile_is_deterministic(self):
        src = "a.b + 2 > c or not d"
        assert compile_expression(src) == compile_expression(src)


class TestEval:
    def test_basic_threshold(self):
        ast = compile_expression("x > 1")
        assert eval_expression(ast, {"x": 2}) is True
        assert eval_expression(ast, {"x": 1}) is False

    def test_missing_field_raises(self):
        ast = compile_expression("x > 1")
        with pytest.raises(FieldResolutionError):
            eval_expression(ast, {})

    def test_len_on_list(self):
        ast = compile_expression("len(items) == 3")
        assert eval_expression(ast, {"items": ["a", "b", "c"]}) is True

    def test_action_namespace(self):
        ast = compile_expression("action.amount <= limits.cap * 1.1")
        action = ActionRecord("trade", {"amount": 100})
        assert eval_expression(ast, {"limits": {"cap": 100}}, action) is True
        assert eval_expression(ast, {"limits": {"cap": 50}}, action) is False

    def test_action_label_reference(self):
        ast = compile_expression("action.label == 'trade'")
        assert eval_expression(ast, {}, ActionRecord("trade")) is True

    def test_state_prefix_equivalent_to_bare(self):
        state = {"x": {"y": 5}}
        assert eval_expression(compile_expression("state.x.y == 5"), state) is True
        assert eval_expression(compile_expression("x.y == 5"), state) is True

    def test_action_reference_without_action_raises(self):
        ast = compile_expression("action.amount > 0")
        with pytest.raises(FieldResolutionError):
            eval_expression(ast, {"amount": 5}, None)

    def test_comparison_on_strings_is_type_mismatch(self):
        ast = compile_expression("a < b")
        with pytest.raises(TypeMismatch):
            eval_expression(ast, {"a": "x", "b": "y"})

    def test_boolean_operators_require_bools(self):
        ast = compile_expression("a and b")
        with pytest.raises(TypeMismatch):
            eval_expression(ast, {"a": 1, "b": True})

    def test_short_circuit_skips_missing_field(self):
        ast = compile_expression("a or missing.path")
        assert eval_expression(ast, {"a": True}) is True

    def test_membership(self):
        ast = compile_expression("tool in allowed")
        state = {"tool": "search", "allowed": ["search", "reply"]}
        assert eval_expression(ast, state) is True

    def test_division_by_zero(self):
        ast = compile_expression("a / b > 1")
        with pytest.raises(TypeMismatch):
            eval_expression(ast, {"a": 1, "b": 0})

    def test_non_boolean_result_rejected(self):
        ast = compile_expression("a + b")
        with pytest.raises(TypeMismatch):
            eval_expression(ast, {"a": 1, "b": 2})

    def test_equality_across_numeric_types(self):
        ast = compile_expression("x == 3.0")
        assert eval_expression(ast, {"x": 3}) is True

    def test_bool_not_equal_to_number(self):
        ast = compile_expression("x == 1")
        assert eval_expression(ast, {"x": True}) is False


@given(st.text(min_size=1, max_size=80))
@settings(max_examples=300, deadline=None)
def test_compile_never_crashes(src):
    """Arbitrary input either compiles or raises a library error."""
    try:
        compile_expression(src)
    except (ExprSyntaxError, ForbiddenConstruct):
        pass
