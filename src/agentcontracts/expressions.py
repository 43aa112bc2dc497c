"""Sandboxed expression language for cross-field constraint checks.

Expressions compile to a closed AST of literals, dotted field references,
unary not/neg, the usual arithmetic/comparison/boolean binary operators,
``in``, and four whitelisted functions (len, abs, min, max).  There are no
loops, definitions, attribute access on values, or other calls, so the
language is not Turing-complete by construction.  Compilation is
state-independent.  :func:`compile_evaluator` turns an AST into nested
closures, which is how expressions are evaluated; there is no AST walker.
Evaluation shares two rules with field predicates: field paths are split
once by :func:`field_key` and read by :func:`field_getter`, and
comparisons and ``in`` dispatch through :data:`OPERATORS`, looked up when
the closure is built.

Closures are specialised when they are built, on what cannot change per
step: :func:`field_getter` returns a walker unrolled for its key count,
with a plain-dict fast path at every depth, and :func:`operator_for`
specialises a predicate on its constant operand (numeric bounds converted
to float once, string lists turned into frozensets).  Arithmetic, and
ordering between two operands that are not literals, take two plain
numbers directly.  Each fast path is taken only on an exact type
(``dict``, ``str``, or a plain number: a finite ``float``, or an ``int``
within 2**53, where ``float()`` and int-to-float comparison are both
exact); any other value falls back to
:func:`~agentcontracts.model.walk_path` from the root or to
``OPERATORS[op]``, so results and TypeMismatch messages do not depend on
which path ran.
"""

from __future__ import annotations

import ast as _pyast
import operator
import re
from dataclasses import dataclass
from math import isfinite
from typing import Any, Callable, Optional, Union

from .errors import (ExprSyntaxError, FieldResolutionError, ForbiddenConstruct, SemanticError,
                     TypeMismatch)
from .model import (FIELD_OPERATORS, MISSING, ActionRecord, StateDict, is_number, value_eq,
                    walk_path)

__all__ = ["ExprAst", "Lit", "Field", "Unary", "Binary", "Call", "OPERATORS",
           "compile_expression", "compile_evaluator", "eval_expression", "field_paths",
           "field_key", "field_getter", "operator_for", "MAX_DEPTH"]

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
# Field paths, shared with field predicates: split once, walked per step
# ---------------------------------------------------------------------------

def field_key(path: str, bare: str = "state") -> tuple:
    """``(side, keys)``: the side a field path reads, "state" or "action",
    and its keys below that side.  ``action``/``action.`` paths read the
    action (label plus payload), ``state.`` paths the state, and any other
    path the ``bare`` side (a field predicate's target).  Two paths with
    one key name the same field."""
    head, dot, rest = path.partition(".")
    if head == "action":
        return "action", tuple(rest.split(".")) if dot else ()
    if head == "state" and dot:
        return "state", tuple(rest.split("."))
    return bare, tuple(path.split("."))


def _walker(keys: tuple) -> Callable[..., Any]:
    """``walk(root, _=None)``: :func:`walk_path` of ``keys`` below ``root``,
    unrolled for up to four keys with a plain-dict fast path at every
    depth; a non-dict or a missing key falls back to :func:`walk_path`
    from the root.  The ignored second argument lets a state-side walker
    serve as a ``get(state, action)``."""
    n = len(keys)
    if n == 1:
        k0, = keys

        def walk(root, _=None):
            if type(root) is dict:
                return root.get(k0, MISSING)
            return walk_path(root, keys)
    elif n == 2:
        k0, k1 = keys

        def walk(root, _=None):
            if type(root) is dict:
                v = root.get(k0)
                if type(v) is dict:
                    return v.get(k1, MISSING)
            return walk_path(root, keys)
    elif n == 3:
        k0, k1, k2 = keys

        def walk(root, _=None):
            if type(root) is dict:
                v = root.get(k0)
                if type(v) is dict:
                    v = v.get(k1)
                    if type(v) is dict:
                        return v.get(k2, MISSING)
            return walk_path(root, keys)
    elif n == 4:
        k0, k1, k2, k3 = keys

        def walk(root, _=None):
            if type(root) is dict:
                v = root.get(k0)
                if type(v) is dict:
                    v = v.get(k1)
                    if type(v) is dict:
                        v = v.get(k2)
                        if type(v) is dict:
                            return v.get(k3, MISSING)
            return walk_path(root, keys)
    else:
        def walk(root, _=None):
            return walk_path(root, keys)
    return walk


def field_getter(path: str,
                 bare: str = "state") -> Callable[[StateDict, Optional[ActionRecord]], Any]:
    """``get(state, action)``: the value at a field path (see
    :func:`field_key`), or MISSING; an action path is missing without an
    action.  The action side reads the payload, whose own ``label`` key
    wins over the action's label, as in :meth:`ActionRecord.view`.  The
    keys below the side are walked by a walker built for their count
    (:func:`_walker`)."""
    side, keys = field_key(path, bare)
    if side == "state":
        return _walker(keys)
    if not keys:
        return lambda state, action: MISSING if action is None else action.view()
    first, rest = keys[0], keys[1:]
    walk = _walker(rest) if rest else None

    def get(state, action):
        if action is None:
            return MISSING
        payload = action.payload
        if first in payload:
            value = payload[first]
        elif first == "label":
            value = action.label
        else:
            return MISSING
        return walk(value) if walk else value

    return get


# ---------------------------------------------------------------------------
# Operators, shared with field predicates
# ---------------------------------------------------------------------------

#: The largest magnitude of an int that a float holds exactly.
_EXACT_INT = 2 ** 53


def _plain(v: Any) -> bool:
    """A finite float, or an int that a float holds exactly: a number that
    ordering and arithmetic may use as is, with the result that converting
    it by :func:`_require_number` gives."""
    if type(v) is float:
        return isfinite(v)
    return type(v) is int and -_EXACT_INT <= v <= _EXACT_INT


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


def _search(search, a) -> bool:
    if not isinstance(a, str):
        raise TypeMismatch(f"'matches' needs a string value, got {type(a).__name__}")
    return search(a) is not None


def _matches(a, pattern) -> bool:
    return _search(lambda s: re.search(pattern, s), a)


def _in_range(a, bounds) -> bool:
    return (_require_number(bounds[0], "range") <= _require_number(a, "range")
            <= _require_number(bounds[1], "range"))


_COMPARE = {"lt": operator.lt, "<": operator.lt, "le": operator.le, "<=": operator.le,
            "gt": operator.gt, ">": operator.gt, "ge": operator.ge, ">=": operator.ge}

#: The binary predicates of the contract language under both spellings
#: (field operator, expression operator): ``OPERATORS[op](value, operand)``
#: is a bool or raises TypeMismatch.
OPERATORS = {
    "eq": value_eq, "==": value_eq, "ne": _differ, "!=": _differ,
    **{op: _ordering(op, compare) for op, compare in _COMPARE.items()},
    "in": _member, "not_in": _not_member, "matches": _matches, "range": _in_range,
}


def operator_for(op: str, operand: Any) -> Callable[[Any], bool]:
    """``test(value)``: ``OPERATORS[op](value, operand)`` specialised on
    its constant operand, once.

    - an ordering against a number, and ``range`` with numeric bounds,
      convert the operand to float once and compare a plain number (see
      :func:`_plain`) directly;
    - ``in``/``not_in`` over a list of strings test a ``str`` value
      against a frozenset of them;
    - ``eq``/``ne`` against a string are ``==``, which is what
      :func:`value_eq` does whenever one side is a string;
    - a ``matches`` pattern is compiled once.

    Each fast path is guarded by an exact type check (and, for numbers,
    :func:`_plain`); every other value goes to ``OPERATORS[op]``, so
    results and TypeMismatch messages are the same as without it.  An
    unknown operator, a ``matches`` operand that is not a string or an
    invalid pattern raises SemanticError, in the validator's words."""
    predicate = OPERATORS.get(op)
    if predicate is None:
        raise SemanticError(f"operator {op!r} is not one of {FIELD_OPERATORS}")
    compare = _COMPARE.get(op)
    if compare is not None and is_number(operand):
        b = float(operand)
        return lambda a: compare(a, b) if _plain(a) else predicate(a, operand)
    if op == "range" and isinstance(operand, (list, tuple)) and len(operand) == 2 \
            and all(map(is_number, operand)):
        lo, hi = float(operand[0]), float(operand[1])
        return lambda a: lo <= a <= hi if _plain(a) else predicate(a, operand)
    if op in ("in", "not_in") and isinstance(operand, (list, tuple)) \
            and all(type(m) is str for m in operand):
        members = frozenset(operand)
        if op == "in":
            return lambda a: a in members if type(a) is str else predicate(a, operand)
        return lambda a: a not in members if type(a) is str else predicate(a, operand)
    if op == "matches":
        if not isinstance(operand, str):
            raise SemanticError("matches operand must be a string")
        try:
            search = re.compile(operand).search
        except re.error as exc:
            raise SemanticError(f"invalid regular expression: {exc}") from None
        return lambda a: _search(search, a)
    if type(operand) is str:
        if op in ("eq", "=="):
            return lambda a: a == operand
        if op in ("ne", "!="):
            return lambda a: not a == operand
    return lambda a: predicate(a, operand)


# ---------------------------------------------------------------------------
# Evaluation: an expression compiles to nested closures
# ---------------------------------------------------------------------------

def _divide(a: float, b: float) -> float:
    if b == 0.0:
        raise TypeMismatch("division by zero")
    return a / b


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}


def _closure(node: ExprAst):
    """``value(state, action)`` of one AST node.  Operands are evaluated
    left to right, all before their types are checked, except that
    and/or stop early."""
    if isinstance(node, Lit):
        constant = node.value
        return lambda state, action: constant
    if isinstance(node, Field):
        get, path = field_getter(node.path), node.path

        def field(state, action):
            value = get(state, action)
            if value is MISSING:
                raise FieldResolutionError(path)
            return value

        return field
    if isinstance(node, Unary):
        inner = _closure(node.operand)
        if node.op == "not":
            return lambda state, action: not _require_bool(inner(state, action), "not")
        return lambda state, action: -_require_number(inner(state, action), "neg")
    if isinstance(node, Binary):
        op = node.op
        left, right = _closure(node.left), _closure(node.right)
        if op == "and":
            return lambda state, action: (_require_bool(left(state, action), op)
                                          and _require_bool(right(state, action), op))
        if op == "or":
            return lambda state, action: (_require_bool(left(state, action), op)
                                          or _require_bool(right(state, action), op))
        if op in OPERATORS:
            if isinstance(node.right, Lit):
                test = operator_for(op, node.right.value)
                return lambda state, action: test(left(state, action))
            predicate = OPERATORS[op]
            compare = _COMPARE.get(op)
            if compare is None:
                return lambda state, action: predicate(left(state, action),
                                                       right(state, action))

            def order(state, action):
                a, b = left(state, action), right(state, action)
                return compare(a, b) if _plain(a) and _plain(b) else predicate(a, b)

            return order
        arithmetic = _ARITHMETIC[op]

        def combine(state, action):
            a, b = left(state, action), right(state, action)
            if _plain(a) and _plain(b):
                return arithmetic(float(a), float(b))
            return arithmetic(_require_number(a, op), _require_number(b, op))

        return combine
    if isinstance(node, Call):
        func = node.func
        args = tuple(_closure(a) for a in node.args)
        if func == "len":
            def length(state, action):
                value = args[0](state, action)
                if not isinstance(value, (list, tuple, str)):
                    raise TypeMismatch("len() needs a list or string")
                return float(len(value))
            return length
        if func == "abs":
            return lambda state, action: abs(_require_number(args[0](state, action), "abs"))
        pick = min if func == "min" else max

        def extreme(state, action):
            values = [arg(state, action) for arg in args]
            return pick([_require_number(v, func) for v in values])

        return extreme
    raise TypeMismatch(f"unknown node {node!r}")  # pragma: no cover


def compile_evaluator(ast: ExprAst) -> Callable[[StateDict, Optional[ActionRecord]], bool]:
    """The expression as a closure ``(state, action) -> bool``.

    Field references resolve by :func:`field_getter`, bare paths against
    the step state.  The closure raises FieldResolutionError for missing
    paths and TypeMismatch for ill-typed operations; callers apply the
    constraint's fail-closed policy.
    """
    value = _closure(ast)

    def evaluate(state, action):
        result = value(state, action)
        if not isinstance(result, bool):
            raise TypeMismatch(
                f"expression must evaluate to a boolean, got {type(result).__name__}")
        return result

    return evaluate


def eval_expression(ast: ExprAst, state: StateDict,
                    action: Optional[ActionRecord] = None) -> bool:
    """Evaluate an expression once, by its compiled closure (see
    :func:`compile_evaluator`, which repeated evaluation should hold on
    to)."""
    return compile_evaluator(ast)(state, action)
