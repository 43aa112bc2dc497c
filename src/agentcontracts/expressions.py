"""Sandboxed expression language for cross-field constraint checks.

Expressions compile to a closed AST of literals, dotted field references,
unary not/neg, the usual arithmetic/comparison/boolean binary operators,
``in``, and four whitelisted functions (len, abs, min, max).  There are no
loops, definitions, attribute access on values, or other calls, so the
language is not Turing-complete by construction.  Compilation is
state-independent.  Evaluation shares two rules with field predicates:
field references resolve by :func:`resolve_field`, and comparisons and
``in`` dispatch through :data:`OPERATORS`.
"""

from __future__ import annotations

import ast as _pyast
import operator
import re
from dataclasses import dataclass
from typing import Any, Optional, Union

from .errors import ExprSyntaxError, FieldResolutionError, ForbiddenConstruct, TypeMismatch
from .model import MISSING, ActionRecord, StateDict, is_number, resolve_path, value_eq

__all__ = ["ExprAst", "Lit", "Field", "Unary", "Binary", "Call", "OPERATORS",
           "compile_expression", "eval_expression", "field_paths", "resolve_field",
           "MAX_DEPTH"]

MAX_DEPTH = 64

WHITELISTED_FUNCTIONS = ("len", "abs", "min", "max")


@dataclass(frozen=True)
class Lit:
    value: Union[float, str, bool]


@dataclass(frozen=True)
class Field:
    path: str


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "ExprAst"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


ExprAst = Union[Lit, Field, Unary, Binary, Call]


_CMP_OPS = {
    _pyast.Lt: "<", _pyast.LtE: "<=", _pyast.Gt: ">", _pyast.GtE: ">=",
    _pyast.Eq: "==", _pyast.NotEq: "!=", _pyast.In: "in",
}
_BIN_OPS = {_pyast.Add: "+", _pyast.Sub: "-", _pyast.Mult: "*", _pyast.Div: "/"}


def _dotted_path(node: _pyast.AST) -> Optional[str]:
    """Recover "a.b.c" from an Attribute chain rooted at a Name."""
    parts = []
    cur = node
    while isinstance(cur, _pyast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, _pyast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


def _convert(node: _pyast.AST, depth: int) -> ExprAst:
    if depth > MAX_DEPTH:
        raise ForbiddenConstruct(f"expression nesting exceeds depth {MAX_DEPTH}")

    if isinstance(node, _pyast.Constant):
        v = node.value
        if isinstance(v, bool) or isinstance(v, str):
            return Lit(v)
        if isinstance(v, (int, float)):
            return Lit(float(v))
        raise ForbiddenConstruct(f"literal of type {type(v).__name__} is not allowed")

    if isinstance(node, _pyast.Name):
        return Field(node.id)

    if isinstance(node, _pyast.Attribute):
        path = _dotted_path(node)
        if path is None:
            raise ForbiddenConstruct("attribute access is only allowed as a dotted field path")
        return Field(path)

    if isinstance(node, _pyast.UnaryOp):
        if isinstance(node.op, _pyast.Not):
            return Unary("not", _convert(node.operand, depth + 1))
        if isinstance(node.op, _pyast.USub):
            return Unary("neg", _convert(node.operand, depth + 1))
        raise ForbiddenConstruct(f"unary operator {type(node.op).__name__} is not allowed")

    if isinstance(node, _pyast.BinOp):
        op = _BIN_OPS.get(type(node.op))
        if op is None:
            raise ForbiddenConstruct(f"operator {type(node.op).__name__} is not allowed")
        return Binary(op, _convert(node.left, depth + 1), _convert(node.right, depth + 1))

    if isinstance(node, _pyast.BoolOp):
        op = "and" if isinstance(node.op, _pyast.And) else "or"
        result = _convert(node.values[0], depth + 1)
        for operand in node.values[1:]:
            result = Binary(op, result, _convert(operand, depth + 1))
        return result

    if isinstance(node, _pyast.Compare):
        # Chained comparisons desugar to an and-chain of pairwise compares.
        left = node.left
        result: Optional[ExprAst] = None
        for op_node, right in zip(node.ops, node.comparators):
            op = _CMP_OPS.get(type(op_node))
            if op is None:
                raise ForbiddenConstruct(f"comparison {type(op_node).__name__} is not allowed")
            pair = Binary(op, _convert(left, depth + 1), _convert(right, depth + 1))
            result = pair if result is None else Binary("and", result, pair)
            left = right
        assert result is not None
        return result

    if isinstance(node, _pyast.Call):
        if not isinstance(node.func, _pyast.Name) or node.func.id not in WHITELISTED_FUNCTIONS:
            raise ForbiddenConstruct(
                f"only {WHITELISTED_FUNCTIONS} may be called"
            )
        if node.keywords:
            raise ForbiddenConstruct("keyword arguments are not allowed")
        args = tuple(_convert(a, depth + 1) for a in node.args)
        if node.func.id in ("len", "abs") and len(args) != 1:
            raise ExprSyntaxError(f"{node.func.id}() takes exactly one argument")
        if node.func.id in ("min", "max") and len(args) < 1:
            raise ExprSyntaxError(f"{node.func.id}() needs at least one argument")
        return Call(node.func.id, args)

    raise ForbiddenConstruct(f"construct {type(node).__name__} is not allowed")


def compile_expression(src: str) -> ExprAst:
    """Compile an expression string into the whitelisted AST.

    Raises ExprSyntaxError for malformed input and ForbiddenConstruct for
    anything outside the grammar (calls, loops, comprehensions, ...).
    """
    if not isinstance(src, str) or not src.strip():
        raise ExprSyntaxError("expression must be a non-empty string")
    try:
        tree = _pyast.parse(src, mode="eval")
    except (SyntaxError, ValueError, MemoryError, RecursionError) as exc:
        raise ExprSyntaxError(f"cannot parse expression: {exc}") from None
    return _convert(tree.body, depth=1)


def field_paths(ast: ExprAst):
    """Every field path the expression references, left to right."""
    if isinstance(ast, Field):
        yield ast.path
    elif isinstance(ast, Unary):
        yield from field_paths(ast.operand)
    elif isinstance(ast, Binary):
        yield from field_paths(ast.left)
        yield from field_paths(ast.right)
    elif isinstance(ast, Call):
        for arg in ast.args:
            yield from field_paths(arg)


# ---------------------------------------------------------------------------
# Evaluation; field paths and operators are shared with field predicates
# ---------------------------------------------------------------------------

def resolve_field(path: str, state: StateDict, action: Optional[ActionRecord],
                  bare: str = "state"):
    """The value at a field path, or MISSING.  ``action``/``action.`` paths
    read the action (label plus payload) and are missing without one;
    ``state.`` paths read the state; any other path reads the ``bare``
    side, "state" or "action" (a field predicate's target)."""
    head, dot, rest = path.partition(".")
    if head == "action":
        if action is None:
            return MISSING
        view = action.view()
        return resolve_path(view, rest) if dot else view
    if head == "state" and dot:
        return resolve_path(state, rest)
    if bare == "action":
        return MISSING if action is None else resolve_path(action.view(), path)
    return resolve_path(state, path)


def _require_number(v: Any, op: str) -> float:
    if not is_number(v):
        raise TypeMismatch(f"operator {op!r} needs numeric operands, got {type(v).__name__}")
    return float(v)


def _require_bool(v: Any, op: str) -> bool:
    if not isinstance(v, bool):
        raise TypeMismatch(f"operator {op!r} needs boolean operands, got {type(v).__name__}")
    return v


def _ordering(op: str, compare):
    return lambda a, b: compare(_require_number(a, op), _require_number(b, op))


def _differ(a, b) -> bool:
    return not value_eq(a, b)


def _member(a, b) -> bool:
    if isinstance(b, str):
        if not isinstance(a, str):
            raise TypeMismatch(f"membership in a string needs a string, got {type(a).__name__}")
        return a in b
    if not isinstance(b, (list, tuple)):
        raise TypeMismatch(f"membership needs a list or string, got {type(b).__name__}")
    return any(value_eq(a, m) for m in b)


def _not_member(a, b) -> bool:
    return not _member(a, b)


def _matches(a, pattern) -> bool:
    if not isinstance(a, str):
        raise TypeMismatch(f"'matches' needs a string value, got {type(a).__name__}")
    return re.search(pattern, a) is not None


def _in_range(a, bounds) -> bool:
    return float(bounds[0]) <= _require_number(a, "range") <= float(bounds[1])


#: The binary predicates of the contract language under both spellings
#: (field operator, expression operator): ``OPERATORS[op](value, operand)``
#: is a bool or raises TypeMismatch.
OPERATORS = {
    "eq": value_eq, "==": value_eq, "ne": _differ, "!=": _differ,
    "lt": _ordering("lt", operator.lt), "<": _ordering("<", operator.lt),
    "le": _ordering("le", operator.le), "<=": _ordering("<=", operator.le),
    "gt": _ordering("gt", operator.gt), ">": _ordering(">", operator.gt),
    "ge": _ordering("ge", operator.ge), ">=": _ordering(">=", operator.ge),
    "in": _member, "not_in": _not_member, "matches": _matches, "range": _in_range,
}

_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _eval(node: ExprAst, state: StateDict, action: Optional[ActionRecord]):
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Field):
        value = resolve_field(node.path, state, action)
        if value is MISSING:
            raise FieldResolutionError(node.path)
        return value
    if isinstance(node, Unary):
        v = _eval(node.operand, state, action)
        if node.op == "not":
            return not _require_bool(v, "not")
        return -_require_number(v, "neg")
    if isinstance(node, Binary):
        op = node.op
        if op in ("and", "or"):
            left = _require_bool(_eval(node.left, state, action), op)
            if op == "and" and not left:
                return False
            if op == "or" and left:
                return True
            return _require_bool(_eval(node.right, state, action), op)
        left = _eval(node.left, state, action)
        right = _eval(node.right, state, action)
        predicate = OPERATORS.get(op)
        if predicate is not None:
            return predicate(left, right)
        a, b = _require_number(left, op), _require_number(right, op)
        if op == "/" and b == 0.0:
            raise TypeMismatch("division by zero")
        return _ARITHMETIC[op](a, b)
    if isinstance(node, Call):
        args = [_eval(a, state, action) for a in node.args]
        if node.func == "len":
            if not isinstance(args[0], (list, tuple, str)):
                raise TypeMismatch("len() needs a list or string")
            return float(len(args[0]))
        if node.func == "abs":
            return abs(_require_number(args[0], "abs"))
        nums = [_require_number(a, node.func) for a in args]
        return min(nums) if node.func == "min" else max(nums)
    raise TypeMismatch(f"unknown node {node!r}")  # pragma: no cover


def eval_expression(ast: ExprAst, state: StateDict,
                    action: Optional[ActionRecord] = None) -> bool:
    """Evaluate a compiled expression to a boolean.

    Field references resolve by :func:`resolve_field`, bare paths against
    the step state.  Raises FieldResolutionError for missing paths and
    TypeMismatch for ill-typed operations; callers apply the constraint's
    fail-closed policy.
    """
    value = _eval(ast, state, action)
    if not isinstance(value, bool):
        raise TypeMismatch(
            f"expression must evaluate to a boolean, got {type(value).__name__}")
    return value
