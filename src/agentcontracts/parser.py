"""Parser for the ContractSpec YAML DSL.

Every mapping is read by the one rule of :mod:`~agentcontracts.schema`,
which reads every JSON input too, from a table of key readers for its kind:
``_AGENT`` and ``_PIPELINE`` and the tables nested in them list every key
of an agent and of a pipeline document.  An unknown key raises SchemaError
spanned at the key, each present value is read once by its key's reader,
and only the keys present reach the model's constructors, which hold every
default.  A pipeline document has its own table, so an agent section in it
is an unknown key.

Diagnostics carry a :class:`~agentcontracts.errors.SourceSpan` whenever the
offending element can be located in the document.  Parsing is pure and
deterministic; arbitrary byte input terminates with DslSyntaxError or a
schema/semantic diagnostic, never a crash.

Each document is read in one pass: PyYAML's composer builds the node tree
from the events of libyaml (``yaml.CSafeLoader``) when PyYAML was built
with it, else of the pure-Python ``yaml.SafeLoader``, and refuses nesting
deeper than ``_MAX_NESTING`` (libyaml's own composer, which recurses on the
C stack, never runs).  A diagnostic's span is read from that tree when the
diagnostic is raised.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from functools import partial
from typing import Any, Callable, Optional, Union

import yaml

from .errors import (
    DslSyntaxError,
    ExprSyntaxError,
    ForbiddenConstruct,
    SchemaError,
    SemanticError,
    SourceSpan,
)
from .expressions import compile_expression
from .model import (
    Constraint,
    Contract,
    DriftConfig,
    Predicate,
    RecoveryStrategy,
    ReliabilityWeights,
    SatisfactionParams,
    require_valid,
)
from .records import as_dict, record
from .schema import (
    as_is,
    bad,
    entries,
    expect_mapping,
    fields,
    integer,
    mapping,
    number,
    sequence,
    string,
    to_float,
)

__all__ = [
    "parse_contract", "parse_document", "parse_pipeline",
    "load_contract", "load_document",
    "contract_to_yaml", "PipelineContract", "PipelineStage",
]

_MAX_NESTING = 128


@record
class PipelineStage:
    """One stage of a pipeline document: a name plus its agent contract."""

    name: str
    contract_path: str
    contract: Contract


@record
class PipelineContract:
    """A pipeline-kind document: ordered stages with handoff specs."""

    name: str
    stages: tuple
    handoffs: tuple
    coordination: str = "cascade"

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        object.__setattr__(self, "handoffs", tuple(self.handoffs))

    def compose(self) -> Contract:
        """The stages' contracts composed by :func:`compose_chain`."""
        from .composition import compose_chain

        return compose_chain([s.contract for s in self.stages], list(self.handoffs))


# ---------------------------------------------------------------------------
# Loading: one composing pass per document; spans read from its node tree
# ---------------------------------------------------------------------------

def _node_span(node) -> SourceSpan:
    mark = node.start_mark
    length = 1
    if hasattr(node, "end_mark") and node.end_mark.line == mark.line:
        length = max(1, node.end_mark.column - mark.column)
    return SourceSpan(line=mark.line + 1, column=mark.column + 1, length=length)


def _key(node) -> Any:
    """A mapping key as the loader constructs it, and so as the schema
    reads it: ``5`` and ``true`` are an int and a bool, not text."""
    if node.tag == "tag:yaml.org,2002:str":
        return node.value
    return yaml.constructor.SafeConstructor().construct_object(node)


class _Doc:
    """A parsed document plus its node tree, read for a span only when a
    diagnostic needs one."""

    def __init__(self, value: Any, node):
        self.value = value
        self.node = node

    def _walk(self, path: tuple) -> tuple:
        """The node at the longest prefix of ``path`` present in the tree,
        and the node naming it: its key when that prefix is all of ``path``
        and ends at a mapping key, else the node itself.  A repeated key
        resolves to its last entry, as the constructor does."""
        node = key = self.node
        for part in path:
            if isinstance(node, yaml.MappingNode):
                pairs = [pair for pair in node.value if _key(pair[0]) == part]
                if not pairs:
                    return node, node
                key, node = pairs[-1]
            elif (isinstance(node, yaml.SequenceNode) and isinstance(part, int)
                  and 0 <= part < len(node.value)):
                key = node = node.value[part]
            else:
                return node, node
        return node, key

    def span(self, path: tuple) -> Optional[SourceSpan]:
        """The span of the value at ``path``, or at its longest prefix present."""
        return self.node and _node_span(self._walk(path)[0])

    def key_span(self, path: tuple) -> Optional[SourceSpan]:
        """The span of the key that ends ``path``, else :meth:`span`."""
        return self.node and _node_span(self._walk(path)[1])

    def error(self, path: tuple, message: str, field: Any) -> SchemaError:
        """The SchemaError on the value at ``path``, spanned at it."""
        return SchemaError(message, span=self.span(path), field=field)

    def unknown_key(self, path: tuple, key: Any, what: str) -> SchemaError:
        """The SchemaError on an unknown ``key``, spanned at the key."""
        return SchemaError(f"unknown key {key!r} in {what}",
                           span=self.key_span(path + (key,)), field=key)


class _BoundedComposer(yaml.composer.Composer):
    """PyYAML's composer over the events of the loader it is mixed into,
    refusing to open a collection past ``_MAX_NESTING`` or to follow an
    alias to a collection enclosing it."""

    def compose_document(self):
        self.anchors, self.nesting = {}, 0
        return super().compose_document()

    def compose_node(self, parent, index):
        if self.check_event(yaml.AliasEvent):
            target = self.anchors.get(self.peek_event().anchor)
            # A collection still being composed (no end mark yet) encloses the alias.
            if target is not None and target.end_mark is None:
                raise DslSyntaxError(f"document nesting exceeds {_MAX_NESTING} levels")
        elif self.check_event(yaml.SequenceStartEvent, yaml.MappingStartEvent):
            if self.nesting == _MAX_NESTING:
                raise DslSyntaxError(f"document nesting exceeds {_MAX_NESTING} levels")
            self.nesting += 1
            node = super().compose_node(parent, index)
            self.nesting -= 1
            return node
        return super().compose_node(parent, index)


def _bounded(base: type) -> type:
    """``base`` (a PyYAML loader class) composing with _BoundedComposer."""
    return type(base.__name__, (_BoundedComposer, base), {"__init__": base.__init__})


# libyaml's parser when PyYAML was built with it; the pure-Python one otherwise.
_Loader = _bounded(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def _load_yaml(text: Union[str, bytes]) -> _Doc:
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DslSyntaxError(f"document is not valid UTF-8: {exc}") from None
    try:
        loader = _Loader(text)
        try:
            node = loader.get_single_node()
            value = None if node is None else loader.construct_document(node)
        finally:
            loader.dispose()
    except yaml.YAMLError as exc:
        span = None
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            span = SourceSpan(line=mark.line + 1, column=mark.column + 1)
        raise DslSyntaxError(f"malformed YAML: {exc}", span=span) from None
    except ValueError as exc:
        # A scalar that resolves to a type it cannot become (2020-13-01 as a
        # timestamp, an integer past the digit limit, an unencodable code point).
        raise DslSyntaxError(f"malformed YAML: {exc}") from None
    except RecursionError:
        raise DslSyntaxError("document nesting exceeds the parser limit") from None
    return _Doc(value, node)


# ---------------------------------------------------------------------------
# Schema: one table of key readers per kind of mapping (the rule: schema.py)
# ---------------------------------------------------------------------------

_REAL, _UNIT, _NONNEGATIVE = number(), number(0.0, 1.0), number(0.0)


def _operand(doc: _Doc, v: Any, path: tuple) -> Any:
    """A check's operand: its numeric literals become 64-bit floats."""
    def scalar(x):
        return x if isinstance(x, bool) or not isinstance(x, (int, float)) else to_float(doc, x, path)
    return [scalar(x) for x in v] if isinstance(v, list) else scalar(v)


def _expression(doc: _Doc, v: Any, path: tuple) -> Predicate:
    src = string(doc, v, path)
    try:
        return Predicate(expression=compile_expression(src), expression_src=src)
    except (ExprSyntaxError, ForbiddenConstruct) as exc:
        raise bad(doc, path, f"bad expression: {exc}") from exc


_FIELD_CHECK = {"field": string, "operator": string, "value": _operand}
_EXPR_CHECK = {"expr": _expression}


def _check(doc: _Doc, raw: Any, path: tuple) -> Predicate:
    """A check, in one of two forms: {field, operator, value} or {expr}."""
    given = expect_mapping(doc, raw, path, "check")
    if ("field" in given) == ("expr" in given):
        raise doc.error(path, "check must contain either {field, operator, value} or {expr}",
                        "check")
    if "expr" in given:
        return fields(doc, given, path, "check", _EXPR_CHECK)["expr"]
    check = fields(doc, given, path, "check", _FIELD_CHECK, ("field", "operator"))
    if "value" not in check and check["operator"] != "exists":
        raise doc.error(path, "check with a field operator needs a 'value' entry "
                              "(operator 'exists' is the exception)", "value")
    operand = {"operand": check["value"]} if "value" in check else {}
    return Predicate(field_path=check["field"], operator=check["operator"], **operand)


def _string_key(doc: _Doc, key: Any, path: tuple) -> str:
    """A key of the mapping at ``path``, read by ``string``; its error is
    spanned at the key."""
    try:
        return string(doc, key, path + (key,))
    except SchemaError as exc:
        exc.span = doc.key_span(path + (key,))
        raise


def _reference(doc: _Doc, v: Any, path: tuple) -> dict:
    if not isinstance(v, Mapping):
        raise bad(doc, path, "drift.reference must be a mapping of label to probability")
    return {_string_key(doc, label, path): _REAL(doc, mass, path + (label,))
            for label, mass in v.items()}


def _type_map(doc: _Doc, v: Any, path: tuple) -> dict:
    if not isinstance(v, Mapping):
        raise bad(doc, path, "type_map must be a mapping of upstream path to downstream path")
    return {_string_key(doc, k, path): string(doc, target, path + (k,))
            for k, target in v.items()}


def _constraints(severity: str) -> Callable:
    return entries("constraint entry",
                   {"name": string, "category": string, "weight": _REAL, "check": _check,
                    "recovery": string, "on_missing": string},
                   ("name", "check"), partial(Constraint, severity=severity))


def _hard_soft(what: str) -> Callable:
    return mapping(what, {"hard": _constraints("hard"), "soft": _constraints("soft")})


_AGENT = {
    "contractspec": string, "kind": string, "name": string,
    "preconditions": _constraints("hard"),
    "invariants": _hard_soft("invariants"),
    "governance": _hard_soft("governance"),
    "recovery": mapping("recovery", {"strategies": entries(
        "strategy entry", {"name": string, "type": string, "action": as_is,
                           "max_attempts": integer(1), "fallback": string},
        ("name", "type"), RecoveryStrategy)}),
    "satisfaction": mapping("satisfaction", {"p": _UNIT, "delta": _UNIT, "k": integer(0),
                                             "T": integer(0)}, build=SatisfactionParams),
    "drift": mapping("drift", {"w_c": _UNIT, "w_d": _UNIT, "window": integer(1),
                               "vocabulary": sequence(string), "reference": _reference,
                               "theta1": _UNIT, "theta2": _UNIT}, build=DriftConfig),
    "reliability": mapping("reliability", {f"a{i}": _NONNEGATIVE for i in range(1, 5)},
                           build=ReliabilityWeights),
}

_PIPELINE = {
    "contractspec": string, "kind": string, "name": string,
    "stages": entries("stage entry", {"name": string, "contract": string},
                      ("name", "contract")),
    "handoffs": entries("handoff entry", {"from": string, "to": string,
                                          "invariants": _constraints("hard"),
                                          "type_map": _type_map, "p_h": _UNIT, "delta_h": _UNIT},
                        ("from", "to")),
    "coordination": string,
}

# The Contract argument of an agent document key, where the two differ; the
# entries of invariants, governance and recovery are `<key>_<entry>` arguments.
_CONTRACT_ARGS = {"drift": "drift_config", "reliability": "reliability_weights"}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def parse_document(text: Union[str, bytes],
                   base_dir: Optional[str] = None) -> Union[Contract, "PipelineContract"]:
    """Parse a DSL document of either kind.

    Agent documents produce a validated :class:`Contract`; pipeline
    documents produce a :class:`PipelineContract` whose stage references
    are resolved relative to ``base_dir``.
    """
    return _parse_loaded(_load_yaml(text), base_dir)


def _parse_loaded(doc: _Doc, base_dir: Optional[str]) -> Union[Contract, "PipelineContract"]:
    if doc.value is None:
        raise SchemaError("document is empty", field="contractspec")
    root = expect_mapping(doc, doc.value, (), "document")
    kind = root.get("kind")
    if kind == "agent":
        return _agent(doc, fields(doc, root, (), "agent document", _AGENT,
                                  ("contractspec", "name")))
    if kind == "pipeline":
        return _pipeline(doc, fields(doc, root, (), "pipeline document", _PIPELINE,
                                     ("contractspec", "name", "stages", "handoffs")), base_dir)
    problem = (f"kind must be 'agent' or 'pipeline', got {kind!r}" if "kind" in root
               else "missing required field 'kind'")
    raise SchemaError(problem, span=doc.span(("kind",)), field="kind")


def parse_contract(text: Union[str, bytes]) -> Contract:
    """Parse an agent-kind document into a Contract.

    The returned contract passes :func:`validate_contract` with no
    error-severity issues; semantic problems raise SemanticError.
    Pipeline documents are rejected up front (before stage resolution).
    """
    doc = _load_yaml(text)
    if isinstance(doc.value, Mapping) and doc.value.get("kind") == "pipeline":
        raise SchemaError("expected an agent contract, got a pipeline document",
                          span=doc.span(("kind",)), field="kind")
    return _parse_loaded(doc, None)


def parse_pipeline(text: Union[str, bytes], base_dir: Optional[str] = None) -> "PipelineContract":
    result = parse_document(text, base_dir=base_dir)
    if not isinstance(result, PipelineContract):
        raise SchemaError("expected a pipeline document, got an agent contract", field="kind")
    return result


def _agent(doc: _Doc, fields: dict) -> Contract:
    args: dict = {}
    for key, value in fields.items():
        if key in ("invariants", "governance", "recovery"):
            args.update((f"{key}_{entry}", v) for entry, v in value.items())
        elif key != "contractspec":
            args[_CONTRACT_ARGS.get(key, key)] = value
    contract = Contract(**args)
    paths = _element_paths(contract)
    require_valid(contract, lambda element: doc.span(paths.get(element, ())))
    return contract


def _element_paths(contract: Contract) -> dict:
    """Document path of each element a StructuralIssue can name: every
    constraint and strategy by name (a duplicate name maps to its last
    entry, the one reported), and the top-level sections."""
    paths = {key: (key,) for key in ("satisfaction", "drift", "reliability")}
    for section, items in ((("preconditions",), contract.preconditions),
                           (("invariants", "hard"), contract.invariants_hard),
                           (("invariants", "soft"), contract.invariants_soft),
                           (("governance", "hard"), contract.governance_hard),
                           (("governance", "soft"), contract.governance_soft),
                           (("recovery", "strategies"), contract.recovery_strategies)):
        for i, item in enumerate(items):
            paths[item.name] = section + (i,)
    return paths


def _pipeline(doc: _Doc, fields: dict, base_dir: Optional[str]) -> "PipelineContract":
    if len(fields["stages"]) < 2:
        raise SchemaError("a pipeline needs at least two stages", span=doc.span(("stages",)),
                          field="stages")
    stages = []
    for i, entry in enumerate(fields["stages"]):
        ref = entry["contract"]
        path = ref if os.path.isabs(ref) or base_dir is None else os.path.join(base_dir, ref)
        try:
            contract = load_contract(path)
        except OSError as exc:
            raise SemanticError(f"stage {entry['name']!r}: cannot load contract {ref!r}: {exc}",
                                span=doc.span(("stages", i))) from None
        stages.append(PipelineStage(name=entry["name"], contract_path=ref, contract=contract))

    names = [s.name for s in stages]
    if len(set(names)) != len(names):
        raise SemanticError("stage names must be unique", span=doc.span(("stages",)))
    if len(fields["handoffs"]) != len(stages) - 1:
        raise SemanticError(
            f"a {len(stages)}-stage pipeline needs {len(stages) - 1} handoffs, "
            f"got {len(fields['handoffs'])}", span=doc.span(("handoffs",)))
    from .composition import HandoffSpec, handoff_contract

    handoffs = []
    for j, entry in enumerate(fields["handoffs"]):
        p = ("handoffs", j)
        src, dst = entry.pop("from"), entry.pop("to")
        if src != names[j] or dst != names[j + 1]:
            raise SemanticError(
                f"handoff {j} must connect {names[j]!r} -> {names[j + 1]!r}, "
                f"got {src!r} -> {dst!r}", span=doc.span(p))
        spec = HandoffSpec(**entry)
        # The contract rules a handoff invariant meets once composed, checked here.
        paths = {con.name: p + ("invariants", i) for i, con in enumerate(spec.invariants)}
        require_valid(handoff_contract(spec.invariants),
                      lambda element: doc.span(paths.get(element, p)))
        handoffs.append(spec)

    del fields["contractspec"], fields["kind"]
    fields.update(stages=tuple(stages), handoffs=tuple(handoffs))
    return PipelineContract(**fields)


def load_document(path: str) -> Union[Contract, PipelineContract]:
    """Load a DSL document from disk (pipeline stage refs resolve relative
    to the document's directory)."""
    with open(path, "rb") as fh:
        text = fh.read()
    return parse_document(text, base_dir=os.path.dirname(os.path.abspath(path)))


def load_contract(path: str) -> Contract:
    result = load_document(path)
    if not isinstance(result, Contract):
        raise SchemaError(f"{path} is a pipeline document, expected an agent contract",
                          field="kind")
    return result


# ---------------------------------------------------------------------------
# Serialization (round-trip support)
# ---------------------------------------------------------------------------

def _check_to_doc(p: Predicate) -> dict:
    if p.is_expression():
        return {"expr": p.expression_src}
    out = {"field": p.field_path, "operator": p.operator}
    if p.operator != "exists" or p.operand is not None:
        out["value"] = list(p.operand) if isinstance(p.operand, (list, tuple)) else p.operand
    return out


def _present(entry: dict) -> dict:
    """``entry`` without its None values."""
    return {key: value for key, value in entry.items() if value is not None}


def _constraint_to_doc(c: Constraint) -> dict:
    return _present({"name": c.name, "category": c.category, "weight": c.weight,
                     "check": _check_to_doc(c.check), "recovery": c.recovery,
                     "on_missing": c.on_missing})


def contract_to_yaml(c: Contract) -> str:
    """Serialize a contract back to the DSL, every field written but a None
    one.  parse_contract on the output reproduces the contract
    field-by-field."""
    def docs(constraints):
        return [_constraint_to_doc(x) for x in constraints]

    dc = c.drift_config
    doc = {
        "contractspec": "1.0", "kind": c.kind, "name": c.name,
        "preconditions": docs(c.preconditions),
        "invariants": {"hard": docs(c.invariants_hard), "soft": docs(c.invariants_soft)},
        "governance": {"hard": docs(c.governance_hard), "soft": docs(c.governance_soft)},
        "recovery": {"strategies": [
            _present(as_dict(s)) for s in c.recovery_strategies]},
        "satisfaction": _present(as_dict(c.satisfaction)),
        "drift": {**as_dict(dc), "vocabulary": list(dc.vocabulary),
                  "reference": dict(dc.reference)},
        "reliability": as_dict(c.reliability_weights),
    }
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)
