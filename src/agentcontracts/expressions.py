"""Sandboxed expression language for cross-field constraint checks.

Expressions compile to a closed AST of literals, dotted field references,
unary not/neg, the usual arithmetic/comparison/boolean binary operators,
``in``, and four whitelisted functions (len, abs, min, max).  There are no
loops, definitions, attribute access on values, or other calls, so the
language is not Turing-complete by construction.  Compilation is
state-independent.  :func:`eval_expression` walks the AST directly, with
nothing built first: that walk is the reference semantics.  It shares two
rules with field predicates: a field path is split by :func:`field_key`
and read by :func:`field_value` (through
:func:`~agentcontracts.model.walk_path`), and comparisons and ``in``
dispatch through :data:`OPERATORS`.

Speed comes from a contract's generated step (see
:mod:`~agentcontracts.engine`), whose source the last section writes: a
field predicate or an expression inlined with exact type guards at every
node (a plain ``dict`` at every depth of a path, ``str``, ``bool``, or a
plain number: an ``int`` or a ``float`` of magnitude at most 2**53, where
``float()`` and int-to-float comparison are both exact; each type is
bounded by constants of its own type, so that CPython compares it on its
specialised path, see :func:`guarded`).  Operands are still evaluated
left to right, and and/or still stop early.  Any other
value, a missing field and a zero divisor leave the inlined code for the
interpreter (:func:`~agentcontracts.engine.evaluate_constraint`), so
results and TypeMismatch messages do not depend on which path ran.  The
source names only fixed identifiers and the generated names that ``bind``
returns for keys, operands and patterns, so no contract text reaches it.
"""

from __future__ import annotations

import ast as _pyast
import operator
import re
from math import isfinite
from types import MappingProxyType
from typing import Any, Optional, Union

from .errors import ExprSyntaxError, FieldResolutionError, ForbiddenConstruct, TypeMismatch
from .model import MISSING, ActionRecord, StateDict, is_number, value_eq, walk_path
from .records import record

__all__ = ["ExprAst", "Lit", "Field", "Unary", "Binary", "Call", "OPERATORS",
           "compile_expression", "eval_expression", "field_paths", "field_key", "field_value",
           "MAX_DEPTH"]

MAX_DEPTH = 64

WHITELISTED_FUNCTIONS = ("len", "abs", "min", "max")


@record
class Lit:
    value: Union[float, str, bool]


@record
class Field:
    path: str


@record
class Unary:
    op: str
    operand: "ExprAst"


@record
class Binary:
    op: str
    left: "ExprAst"
    right: "ExprAst"


@record
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
            # An int past the float range, and a float that overflows to
            # an infinity, would fail every ordering as a type mismatch.
            try:
                if isfinite(value := float(v)):
                    return Lit(value)
            except OverflowError:
                pass
            raise ExprSyntaxError("numeric literal is not a finite 64-bit float")
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


def field_value(path: str, state: StateDict, action: Optional[ActionRecord],
                bare: str = "state") -> Any:
    """The value at a field path (see :func:`field_key`), walked by
    :func:`walk_path`, or MISSING; an action path is missing without an
    action.  The action side reads the payload, whose own ``label`` key
    wins over the action's label, as in :meth:`ActionRecord.view`."""
    side, keys = field_key(path, bare)
    if side == "state":
        return walk_path(state, keys)
    if action is None:
        return MISSING
    if not keys:
        return action.view()
    payload, first = action.payload, keys[0]
    if first in payload:
        return walk_path(payload[first], keys[1:])
    if first == "label":
        return walk_path(action.label, keys[1:])
    return MISSING


# ---------------------------------------------------------------------------
# Operators, shared with field predicates
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Evaluation: a plain walk of the AST
# ---------------------------------------------------------------------------

def _divide(a: float, b: float) -> float:
    if b == 0.0:
        raise TypeMismatch("division by zero")
    return a / b


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}


def _evaluate(node: ExprAst, state: StateDict, action: Optional[ActionRecord]) -> Any:
    """The value of one AST node.  Operands are evaluated left to right,
    all before their types are checked, except that and/or stop early."""
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Field):
        value = field_value(node.path, state, action)
        if value is MISSING:
            raise FieldResolutionError(node.path)
        return value
    if isinstance(node, Unary):
        value = _evaluate(node.operand, state, action)
        if node.op == "not":
            return not _require_bool(value, "not")
        return -_require_number(value, "neg")
    if isinstance(node, Binary):
        op = node.op
        left = _evaluate(node.left, state, action)
        if op in ("and", "or"):
            if _require_bool(left, op) is (op == "or"):
                return left
            return _require_bool(_evaluate(node.right, state, action), op)
        right = _evaluate(node.right, state, action)
        if op in OPERATORS:
            return OPERATORS[op](left, right)
        return _ARITHMETIC[op](_require_number(left, op), _require_number(right, op))
    if isinstance(node, Call):
        values = [_evaluate(arg, state, action) for arg in node.args]
        if node.func == "len":
            if not isinstance(values[0], (list, tuple, str)):
                raise TypeMismatch("len() needs a list or string")
            return float(len(values[0]))
        if node.func == "abs":
            return abs(_require_number(values[0], "abs"))
        pick = min if node.func == "min" else max
        return pick([_require_number(v, node.func) for v in values])
    raise TypeMismatch(f"unknown node {node!r}")  # pragma: no cover


def eval_expression(ast: ExprAst, state: StateDict,
                    action: Optional[ActionRecord] = None) -> bool:
    """Evaluate an expression against a state (and action), walking its AST.

    Field references resolve by :func:`field_value`, bare paths against
    the state.  Raises FieldResolutionError for a missing path and
    TypeMismatch for an ill-typed operation or a result that is not a
    bool; callers apply the constraint's fail-closed policy.
    """
    result = _evaluate(ast, state, action)
    if not isinstance(result, bool):
        raise TypeMismatch(f"expression must evaluate to a boolean, got {type(result).__name__}")
    return result


# ---------------------------------------------------------------------------
# Inline source: the checks a contract's generated step makes without a call
# ---------------------------------------------------------------------------

#: The largest magnitude of an int that a float holds exactly.
_EXACT_INT = 2 ** 53

# The operator tokens the source may hold, looked up so that an operator
# reaches the source as one of these constants, never as contract text.
_ORDER_SOURCE = {"lt": "<", "<": "<", "le": "<=", "<=": "<=",
                 "gt": ">", ">": ">", "ge": ">=", ">=": ">="}
_ARITHMETIC_SOURCE = {"+": "+", "-": "-", "*": "*", "/": "/"}

#: The kinds :func:`guarded` tests, by the exact type of a value.
_KINDS = {str: "str", bool: "bool", int: "num", float: "num"}


class NotInlined(Exception):
    """A check the generated step leaves to the interpreter."""


class Slow(Exception):
    """Raised, as the class and never as a shared instance, by generated
    expression code on a value off its inlined path."""


def slow():
    raise Slow


#: The namespace names inline source may use besides ``bind``'s, and
#: ``v`` and ``k``, the two scratch locals (a value and its type).
SOURCE_GLOBALS = {"LO": -_EXACT_INT, "HI": _EXACT_INT,
                  "FLO": -float(_EXACT_INT), "FHI": float(_EXACT_INT),
                  "NODICT": MappingProxyType({}), "isfinite": isfinite, "slow": slow,
                  "Slow": Slow}

_ROOTS = {"state": "state if type(state) is dict else NODICT",
          "action": "action.payload if action is not None and type(action.payload) is dict"
                    " else NODICT"}


class Source:
    """The names one generated function's source may use.

    Besides :data:`SOURCE_GLOBALS` and the scratch locals ``v`` and ``k``,
    the source reads the function's ``state`` and ``action``.  Everything taken from
    a contract (keys, operands, patterns) is bound by :meth:`bind` under a
    generated identifier, so no contract text reaches the source.  What
    several checks share is computed once per call into a local that
    :meth:`local` declares in ``header``: the state, the action's payload
    and the value at each key prefix of a path, each the plain dict it is
    or else ``NODICT``, an empty mapping, so a key read below it is None.
    A value is bound once, so :meth:`local` shares a local by its text.
    """

    def __init__(self, namespace: dict):
        self.namespace = namespace
        self.header: list = []
        self._locals: dict = {}
        self._bound: dict = {}

    def bind(self, value: Any) -> str:
        """The identifier bound to ``value``: a string is matched by value,
        anything else by identity (never by ``==``: ``True == 1 == 1.0``)."""
        key = value if type(value) is str else id(value)
        name = self._bound.get(key)
        if name is None:
            name = self._bound[key] = f"_c{len(self.namespace)}"
            self.namespace[name] = value
        return name

    def local(self, value: str) -> str:
        """A local holding the source ``value``, set once at the top of
        the function."""
        name = self._locals.get(value)
        if name is None:
            name = self._locals[value] = f"w{len(self._locals)}"
            self.header.append(f"{name} = {value}")
        return name

    def _at(self, side: str, keys: tuple) -> str:
        """The local holding the plain dict at ``keys`` below a side, or
        ``NODICT``."""
        if not keys:
            return self.local(_ROOTS[side])
        return self.local(f"v if type(v := {self._at(side, keys[:-1])}.get({self.bind(keys[-1])}))"
                          f" is dict else NODICT")

    def walk(self, side: str, keys: tuple, default: str = "") -> tuple:
        """``(test, last)``: ``last`` reads the last of ``keys`` below a
        side from the local holding its container, so it is None when the
        keys above do not lead through plain dicts.  ``default``, source
        placed after the key, is what a missing last key reads; a lone
        ``label`` key of the action defaults to the action's label.  With a
        default, ``test`` is the source testing that the container is a
        plain dict, which must hold before ``last`` is read, so that a
        default never answers for a container that is not; else None."""
        if not keys:
            raise NotInlined
        container = self._at(side, keys[:-1])
        if side == "action" and keys == ("label",):
            default = ", action.label"
        test = f"{container} is not NODICT" if default else None
        return test, f"{container}.get({self.bind(keys[-1])}{default})"


def guarded(kind: str, source: str) -> str:
    """Source binding ``source`` to ``v`` and testing its exact type:
    "num" is a plain number (an int or a float of magnitude at most 2**53,
    which ordering and arithmetic use as is; NaN and the infinities fail
    the bound), "str" and "bool" exactly that type.

    A number's type is read once into ``k`` and each type is compared with
    bounds of its own type, ``FLO``/``FHI`` for a float and ``LO``/``HI``
    for an int: CPython's specialised compare covers float with float and
    int with int, not a mix.  Both pairs are ±2**53 exactly, so the values
    that pass are those of one bound for both."""
    if kind == "num":
        return (f"((k := type(v := {source})) is float and FLO <= v <= FHI"
                f" or k is int and LO <= v <= HI)")
    return f"type(v := {source}) is {kind}"


def predicate_source(op: str, operand: Any, bind) -> tuple:
    """``(kind, test)``: ``OPERATORS[op](v, operand)`` as a test of ``v``
    for a value of ``kind`` (see :func:`guarded`), for an ordering or
    ``range`` against numbers, ``in``/``not_in`` over strings, ``matches``,
    and ``eq``/``ne`` against a string, a bool or a number (where
    :func:`~agentcontracts.model.value_eq` is ``==`` or ``is``)."""
    order = _ORDER_SOURCE.get(op)
    if order is not None and is_number(operand):
        return "num", f"v {order} {bind(float(operand))}"
    if op == "range" and isinstance(operand, (list, tuple)) and len(operand) == 2 \
            and all(map(is_number, operand)):
        return "num", f"{bind(float(operand[0]))} <= v <= {bind(float(operand[1]))}"
    if op in ("in", "not_in") and isinstance(operand, (list, tuple)) \
            and all(type(m) is str for m in operand):
        return "str", f"v {'in' if op == 'in' else 'not in'} {bind(frozenset(operand))}"
    if op == "matches" and type(operand) is str:
        return "str", f"{bind(re.compile(operand).search)}(v) is not None"
    kind = _KINDS.get(type(operand))
    if op in ("eq", "ne", "==", "!=") and kind is not None:
        negate = op in ("ne", "!=")
        if kind == "bool":
            return kind, f"v {'is not' if negate else 'is'} {bind(operand)}"
        return kind, f"v {'!=' if negate else '=='} {bind(operand)}"
    raise NotInlined


#: The deepest expression inlined: each level nests at most four brackets
#: in the source, and the parser allows 200.
_MAX_INLINED_DEPTH = 40


def expression_source(ast: ExprAst, source: Source) -> str:
    """The expression as one source expression of a bool, its operands
    left to right and ``and``/``or`` short-circuiting as the interpreter does.
    Every operand is tested by :func:`guarded` for the kind its operator
    takes; any other value, a missing field, a non-finite intermediate and
    a zero divisor call ``slow()``, so the interpreter decides."""
    if _depth(ast) > _MAX_INLINED_DEPTH:
        raise NotInlined
    return _boolean(ast, source)


def _depth(node: ExprAst) -> int:
    if isinstance(node, Unary):
        return 1 + _depth(node.operand)
    if isinstance(node, Binary):
        return 1 + max(_depth(node.left), _depth(node.right))
    if isinstance(node, Call):
        return 1 + max(map(_depth, node.args), default=0)
    return 1


def _field(node: Field, source: Source) -> str:
    test, last = source.walk(*field_key(node.path))
    return f"({last} if {test} else None)" if test else last


def _number(node: ExprAst, source: Source) -> tuple:
    """``(source, is_float)``: a plain number; ``is_float`` when it is
    always a float, so that arithmetic with it converts as the interpreter's
    ``float()`` does."""
    if isinstance(node, Lit):
        value = node.value
        if type(value) is float and is_number(value):
            return source.bind(value), True
        if type(value) is int and -_EXACT_INT <= value <= _EXACT_INT:
            return source.bind(value), False
        raise NotInlined
    if isinstance(node, Field):
        return f"(v if {guarded('num', _field(node, source))} else slow())", False
    if isinstance(node, Unary) and node.op != "not":
        return f"(-{_float(node.operand, source)})", True
    if isinstance(node, Binary) and node.op in _ARITHMETIC:
        left, left_float = _number(node.left, source)
        right, right_float = _number(node.right, source)
        if not (left_float or right_float):
            left = f"float({left})"
        if node.op == "/":
            right = f"(v if (v := {right}) else slow())"
        return (f"(v if isfinite(v := {left} {_ARITHMETIC_SOURCE[node.op]} {right})"
                f" else slow())"), True
    if isinstance(node, Call) and node.args:
        if node.func == "len" and len(node.args) == 1:
            return (f"(len(v) if type(v := {_value(node.args[0], source)}) is str"
                    f" or type(v) is list else slow())"), False
        if node.func == "abs" and len(node.args) == 1:
            return f"abs({_float(node.args[0], source)})", True
        if node.func not in ("len", "abs"):
            args = [_float(arg, source) for arg in node.args]
            pick = "min" if node.func == "min" else "max"
            return (f"{pick}({', '.join(args)})" if len(args) > 1 else args[0]), True
    raise NotInlined


def _float(node: ExprAst, source: Source) -> str:
    text, is_float = _number(node, source)
    return text if is_float else f"float({text})"


def _value(node: ExprAst, source: Source) -> str:
    """A field's value unchecked (None when it does not resolve through
    plain dicts), or a string literal."""
    if isinstance(node, Field):
        return _field(node, source)
    if isinstance(node, Lit) and type(node.value) is str:
        return source.bind(node.value)
    raise NotInlined


def _string(node: ExprAst, source: Source) -> str:
    if isinstance(node, Field):
        return f"(v if {guarded('str', _field(node, source))} else slow())"
    return _value(node, source)


def _kind(node: ExprAst) -> Optional[str]:
    """The kind a node's value always has; None for a field."""
    if isinstance(node, Lit):
        return _KINDS.get(type(node.value), "other")
    if isinstance(node, Unary):
        return "bool" if node.op == "not" else "num"
    if isinstance(node, Binary):
        return "num" if node.op in _ARITHMETIC else "bool"
    if isinstance(node, Call):
        return "num"
    return None


def _boolean(node: ExprAst, source: Source) -> str:
    if isinstance(node, Lit):
        if type(node.value) is bool:
            return source.bind(node.value)
        raise NotInlined
    if isinstance(node, Field):
        return f"(v if {guarded('bool', _field(node, source))} else slow())"
    if isinstance(node, Unary) and node.op == "not":
        return f"(not {_boolean(node.operand, source)})"
    if not isinstance(node, Binary):
        raise NotInlined
    op = node.op
    if op in ("and", "or"):
        return (f"({_boolean(node.left, source)} {'and' if op == 'and' else 'or'}"
                f" {_boolean(node.right, source)})")
    if op in _ORDER_SOURCE:
        return (f"({_number(node.left, source)[0]} {_ORDER_SOURCE[op]}"
                f" {_number(node.right, source)[0]})")
    if op in ("==", "!="):
        kinds = {_kind(node.left), _kind(node.right)} - {None}
        kind = kinds.pop() if len(kinds) == 1 else None
        operand = {"num": lambda n: _number(n, source)[0], "str": lambda n: _string(n, source),
                   "bool": lambda n: _boolean(n, source)}.get(kind)
        if operand is None:
            raise NotInlined
        if op == "==":
            relation = "is" if kind == "bool" else "=="
        else:
            relation = "is not" if kind == "bool" else "!="
        return f"({operand(node.left)} {relation} {operand(node.right)})"
    if op == "in" and isinstance(node.right, Lit) and type(node.right.value) is str:
        return f"({_string(node.left, source)} in {source.bind(node.right.value)})"
    raise NotInlined
