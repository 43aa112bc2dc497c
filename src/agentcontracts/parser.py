"""Parser for the ContractSpec YAML DSL.

Top-level document keys: ``contractspec`` (version), ``kind``, ``name``,
``preconditions``, ``invariants.{hard,soft}``, ``governance.{hard,soft}``,
``recovery.strategies``, ``satisfaction.{p,delta,k}``, ``drift.{...}``,
``reliability.{a1..a4}``.  A constraint entry is
``{name, category?, weight?, check: {field, operator, value} | {expr},
recovery?, on_missing?}``.

Diagnostics carry a :class:`~agentcontracts.errors.SourceSpan` whenever the
offending element can be located in the document.  Parsing is pure and
deterministic; arbitrary byte input terminates with DslSyntaxError or a
schema/semantic diagnostic, never a crash.

Each document is composed once, with libyaml (``yaml.CSafeLoader``) when
PyYAML was built with it and with the pure-Python ``yaml.SafeLoader``
otherwise; the value and the span index both come from that one node
tree.  Nesting deeper than ``_MAX_NESTING`` is rejected from a flat pass
over the parser's events before composing, because libyaml's composer
recurses on the C stack.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Union

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

__all__ = [
    "parse_contract", "parse_document", "parse_pipeline",
    "load_contract", "load_document",
    "contract_to_yaml", "PipelineContract", "PipelineStage",
]

_MAX_NESTING = 128

_TOP_KEYS = {"contractspec", "kind", "name", "preconditions", "invariants",
             "governance", "recovery", "satisfaction", "drift", "reliability",
             "stages", "handoffs", "coordination"}
_CONSTRAINT_KEYS = {"name", "category", "weight", "check", "recovery", "on_missing"}
_STRATEGY_KEYS = {"name", "type", "action", "max_attempts", "fallback"}


@dataclass(frozen=True)
class PipelineStage:
    """One stage of a pipeline document: a name plus its agent contract."""

    name: str
    contract_path: str
    contract: Contract


@dataclass(frozen=True)
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
# Span index: map document paths to source positions
# ---------------------------------------------------------------------------

def _index_spans(node, path: tuple, out: dict, done: set, depth: int = 0) -> None:
    """Index ``node``'s subtree under ``path``.  ``done`` holds the ids of
    collections already indexed: an alias to one is not walked again, so
    nested aliases cost linear, not exponential, time.  An alias to an
    enclosing collection recurses until the nesting limit rejects it."""
    if depth > _MAX_NESTING:
        raise DslSyntaxError(f"document nesting exceeds {_MAX_NESTING} levels")
    mark = node.start_mark
    length = 1
    if hasattr(node, "end_mark") and node.end_mark.line == mark.line:
        length = max(1, node.end_mark.column - mark.column)
    out[path] = SourceSpan(line=mark.line + 1, column=mark.column + 1, length=length)
    if id(node) in done:
        return
    if isinstance(node, yaml.MappingNode):
        for key_node, value_node in node.value:
            key = getattr(key_node, "value", None)
            _index_spans(value_node, path + (key,), out, done, depth + 1)
        done.add(id(node))
    elif isinstance(node, yaml.SequenceNode):
        for i, child in enumerate(node.value):
            _index_spans(child, path + (i,), out, done, depth + 1)
        done.add(id(node))


class _Doc:
    """A parsed document plus its span index."""

    def __init__(self, value: Any, spans: dict):
        self.value = value
        self.spans = spans

    def span(self, path: tuple) -> Optional[SourceSpan]:
        while path:
            if path in self.spans:
                return self.spans[path]
            path = path[:-1]
        return self.spans.get(())


# libyaml when PyYAML was built with it; the pure-Python loader otherwise.
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _check_nesting(text: str) -> None:
    """Raise DslSyntaxError once collection nesting exceeds _MAX_NESTING,
    reading events without building nodes."""
    loader = _Loader(text)
    try:
        depth = 0
        while loader.check_event():
            event = loader.get_event()
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
                if depth > _MAX_NESTING:
                    raise DslSyntaxError(f"document nesting exceeds {_MAX_NESTING} levels")
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
    finally:
        loader.dispose()


def _load_yaml(text: Union[str, bytes]) -> _Doc:
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DslSyntaxError(f"document is not valid UTF-8: {exc}") from None
    spans: dict = {}
    try:
        _check_nesting(text)
        loader = _Loader(text)
        try:
            node = loader.get_single_node()
            if node is None:
                return _Doc(None, spans)
            # Constructing first rejects non-scalar keys before they become paths.
            value = loader.construct_document(node)
            _index_spans(node, (), spans, set())
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
    return _Doc(value, spans)


# ---------------------------------------------------------------------------
# Schema helpers
# ---------------------------------------------------------------------------

def _type_name(v: Any) -> str:
    return {dict: "mapping", list: "sequence", str: "string", bool: "boolean",
            int: "number", float: "number", type(None): "null"}.get(type(v), type(v).__name__)


def _expect_mapping(doc: _Doc, value: Any, path: tuple, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise SchemaError(f"{what} must be a mapping, got {_type_name(value)}",
                          span=doc.span(path), field=".".join(map(str, path)) or what)
    return value

def _expect_list(doc: _Doc, value: Any, path: tuple, what: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a sequence, got {_type_name(value)}",
                          span=doc.span(path), field=".".join(map(str, path)) or what)
    return value


def _get_required(doc: _Doc, mapping: Mapping, key: str, path: tuple):
    if key not in mapping:
        raise SchemaError(f"missing required field {key!r}",
                          span=doc.span(path), field=key)
    return mapping[key]


def _get_str(doc: _Doc, mapping: Mapping, key: str, path: tuple,
             required: bool = True, default: Optional[str] = None) -> Optional[str]:
    if key not in mapping:
        if required:
            raise SchemaError(f"missing required field {key!r}", span=doc.span(path), field=key)
        return default
    v = mapping[key]
    if not isinstance(v, str):
        raise SchemaError(f"field {key!r} must be a string, got {_type_name(v)}",
                          span=doc.span(path + (key,)), field=key)
    return v


def _get_number(doc: _Doc, mapping: Mapping, key: str, path: tuple,
                default: Optional[float] = None, lo: Optional[float] = None,
                hi: Optional[float] = None) -> Optional[float]:
    if key not in mapping:
        return default
    v = mapping[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"field {key!r} must be a number, got {_type_name(v)}",
                          span=doc.span(path + (key,)), field=key)
    v = float(v)
    if (lo is not None and v < lo) or (hi is not None and v > hi):
        raise SchemaError(f"{key} out of [{lo},{hi}]: {v}",
                          span=doc.span(path + (key,)), field=key)
    return v


def _get_int(doc: _Doc, mapping: Mapping, key: str, path: tuple,
             default: Optional[int] = None, lo: Optional[int] = None) -> Optional[int]:
    if key not in mapping:
        return default
    v = mapping[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"field {key!r} must be an integer, got {_type_name(v)}",
                          span=doc.span(path + (key,)), field=key)
    if lo is not None and v < lo:
        raise SchemaError(f"{key} must be >= {lo}: {v}",
                          span=doc.span(path + (key,)), field=key)
    return v


def _normalize_scalar(v: Any) -> Any:
    """Numeric literals become 64-bit floats; everything else passes through."""
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, float)):
        return float(v)
    return v


def _parse_check(doc: _Doc, raw: Any, path: tuple) -> Predicate:
    mapping = _expect_mapping(doc, raw, path, "check")
    has_field = "field" in mapping
    has_expr = "expr" in mapping
    if has_field == has_expr:
        raise SchemaError("check must contain either {field, operator, value} or {expr}",
                          span=doc.span(path), field="check")
    if has_expr:
        src = _get_str(doc, mapping, "expr", path)
        try:
            ast = compile_expression(src)
        except (ExprSyntaxError, ForbiddenConstruct) as exc:
            raise SchemaError(f"bad expression: {exc}",
                              span=doc.span(path + ("expr",)), field="expr") from exc
        return Predicate(expression=ast, expression_src=src)
    field_path = _get_str(doc, mapping, "field", path)
    operator = _get_str(doc, mapping, "operator", path)
    operand = mapping.get("value")
    if operator != "exists" and "value" not in mapping:
        raise SchemaError("check with a field operator needs a 'value' entry "
                          "(operator 'exists' is the exception)",
                          span=doc.span(path), field="value")
    if isinstance(operand, list):
        operand = [_normalize_scalar(x) for x in operand]
    else:
        operand = _normalize_scalar(operand)
    return Predicate(field_path=field_path, operator=operator, operand=operand)


def _parse_constraint(doc: _Doc, raw: Any, path: tuple, severity: str) -> Constraint:
    mapping = _expect_mapping(doc, raw, path, "constraint entry")
    unknown = set(mapping) - _CONSTRAINT_KEYS
    if unknown:
        raise SchemaError(f"unknown constraint field(s): {sorted(unknown)}",
                          span=doc.span(path), field=sorted(unknown)[0])
    name = _get_str(doc, mapping, "name", path)
    check = _parse_check(doc, _get_required(doc, mapping, "check", path), path + ("check",))
    weight = _get_number(doc, mapping, "weight", path, default=1.0)
    category = _get_str(doc, mapping, "category", path, required=False)
    recovery = _get_str(doc, mapping, "recovery", path, required=False)
    on_missing = _get_str(doc, mapping, "on_missing", path, required=False, default="violate")
    return Constraint(name=name, check=check, severity=severity, category=category,
                      weight=weight, recovery=recovery, on_missing=on_missing)


def _parse_constraint_section(doc: _Doc, raw: Any, path: tuple, severity: str) -> tuple:
    if raw is None:
        return ()
    items = _expect_list(doc, raw, path, ".".join(map(str, path)))
    return tuple(_parse_constraint(doc, item, path + (i,), severity)
                 for i, item in enumerate(items))


def _parse_strategies(doc: _Doc, raw: Any, path: tuple) -> tuple:
    if raw is None:
        return ()
    mapping = _expect_mapping(doc, raw, path, "recovery")
    items = _expect_list(doc, mapping.get("strategies", []), path + ("strategies",),
                         "recovery.strategies")
    out = []
    for i, item in enumerate(items):
        p = path + ("strategies", i)
        entry = _expect_mapping(doc, item, p, "strategy entry")
        unknown = set(entry) - _STRATEGY_KEYS
        if unknown:
            raise SchemaError(f"unknown strategy field(s): {sorted(unknown)}",
                              span=doc.span(p), field=sorted(unknown)[0])
        out.append(RecoveryStrategy(
            name=_get_str(doc, entry, "name", p),
            type=_get_str(doc, entry, "type", p),
            action=entry.get("action"),
            max_attempts=_get_int(doc, entry, "max_attempts", p, default=3, lo=1),
            fallback=_get_str(doc, entry, "fallback", p, required=False),
        ))
    return tuple(out)


def _parse_satisfaction(doc: _Doc, raw: Any, path: tuple) -> SatisfactionParams:
    if raw is None:
        return SatisfactionParams()
    mapping = _expect_mapping(doc, raw, path, "satisfaction")
    return SatisfactionParams(
        p=_get_number(doc, mapping, "p", path, default=0.9, lo=0.0, hi=1.0),
        delta=_get_number(doc, mapping, "delta", path, default=0.1, lo=0.0, hi=1.0),
        k=_get_int(doc, mapping, "k", path, default=2, lo=0),
        T=_get_int(doc, mapping, "T", path, default=None, lo=0),
    )


def _parse_drift(doc: _Doc, raw: Any, path: tuple) -> DriftConfig:
    if raw is None:
        return DriftConfig()
    mapping = _expect_mapping(doc, raw, path, "drift")
    vocabulary = mapping.get("vocabulary", [])
    if not isinstance(vocabulary, list) or not all(isinstance(v, str) for v in vocabulary):
        raise SchemaError("drift.vocabulary must be a list of strings",
                          span=doc.span(path + ("vocabulary",)), field="vocabulary")
    reference = mapping.get("reference", {})
    if not isinstance(reference, Mapping):
        raise SchemaError("drift.reference must be a mapping of label to probability",
                          span=doc.span(path + ("reference",)), field="reference")
    return DriftConfig(
        w_c=_get_number(doc, mapping, "w_c", path, default=0.7, lo=0.0, hi=1.0),
        w_d=_get_number(doc, mapping, "w_d", path, default=0.3, lo=0.0, hi=1.0),
        window=_get_int(doc, mapping, "window", path, default=10, lo=1),
        vocabulary=tuple(vocabulary),
        reference={str(k): _get_number(doc, reference, k, path + ("reference",))
                   for k in reference},
        theta1=_get_number(doc, mapping, "theta1", path, default=0.05, lo=0.0, hi=1.0),
        theta2=_get_number(doc, mapping, "theta2", path, default=0.30, lo=0.0, hi=1.0),
    )


def _parse_reliability(doc: _Doc, raw: Any, path: tuple) -> ReliabilityWeights:
    if raw is None:
        return ReliabilityWeights()
    mapping = _expect_mapping(doc, raw, path, "reliability")
    return ReliabilityWeights(
        a1=_get_number(doc, mapping, "a1", path, default=0.4, lo=0.0),
        a2=_get_number(doc, mapping, "a2", path, default=0.3, lo=0.0),
        a3=_get_number(doc, mapping, "a3", path, default=0.2, lo=0.0),
        a4=_get_number(doc, mapping, "a4", path, default=0.1, lo=0.0),
    )


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
    root = _expect_mapping(doc, doc.value, (), "document")
    unknown = set(root) - _TOP_KEYS
    if unknown:
        raise SchemaError(f"unknown top-level key(s): {sorted(unknown)}",
                          span=doc.span((sorted(unknown)[0],)), field=sorted(unknown)[0])
    version = _get_required(doc, root, "contractspec", ())
    if not isinstance(version, str):
        raise SchemaError("contractspec version must be a string",
                          span=doc.span(("contractspec",)), field="contractspec")
    kind = _get_str(doc, root, "kind", ())
    if kind == "agent":
        return _parse_agent(doc, root)
    if kind == "pipeline":
        return _parse_pipeline_doc(doc, root, base_dir)
    raise SchemaError(f"kind must be 'agent' or 'pipeline', got {kind!r}",
                      span=doc.span(("kind",)), field="kind")


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


def _parse_agent(doc: _Doc, root: Mapping) -> Contract:
    name = _get_str(doc, root, "name", ())

    invariants = root.get("invariants") or {}
    if invariants and not isinstance(invariants, Mapping):
        raise SchemaError("invariants must be a mapping with hard/soft sections",
                          span=doc.span(("invariants",)), field="invariants")
    governance = root.get("governance") or {}
    if governance and not isinstance(governance, Mapping):
        raise SchemaError("governance must be a mapping with hard/soft sections",
                          span=doc.span(("governance",)), field="governance")

    contract = Contract(
        name=name,
        kind="agent",
        preconditions=_parse_constraint_section(
            doc, root.get("preconditions"), ("preconditions",), "hard"),
        invariants_hard=_parse_constraint_section(
            doc, invariants.get("hard"), ("invariants", "hard"), "hard"),
        invariants_soft=_parse_constraint_section(
            doc, invariants.get("soft"), ("invariants", "soft"), "soft"),
        governance_hard=_parse_constraint_section(
            doc, governance.get("hard"), ("governance", "hard"), "hard"),
        governance_soft=_parse_constraint_section(
            doc, governance.get("soft"), ("governance", "soft"), "soft"),
        recovery_strategies=_parse_strategies(doc, root.get("recovery"), ("recovery",)),
        satisfaction=_parse_satisfaction(doc, root.get("satisfaction"), ("satisfaction",)),
        drift_config=_parse_drift(doc, root.get("drift"), ("drift",)),
        reliability_weights=_parse_reliability(doc, root.get("reliability"), ("reliability",)),
    )

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


def _parse_pipeline_doc(doc: _Doc, root: Mapping,
                        base_dir: Optional[str]) -> "PipelineContract":
    name = _get_str(doc, root, "name", ())
    stages_raw = _expect_list(doc, _get_required(doc, root, "stages", ()), ("stages",), "stages")
    if len(stages_raw) < 2:
        raise SchemaError("a pipeline needs at least two stages", span=doc.span(("stages",)),
                          field="stages")
    stages = []
    for i, raw in enumerate(stages_raw):
        p = ("stages", i)
        entry = _expect_mapping(doc, raw, p, "stage entry")
        stage_name = _get_str(doc, entry, "name", p)
        ref = _get_str(doc, entry, "contract", p)
        path = ref if os.path.isabs(ref) or base_dir is None else os.path.join(base_dir, ref)
        try:
            contract = load_contract(path)
        except OSError as exc:
            raise SemanticError(f"stage {stage_name!r}: cannot load contract {ref!r}: {exc}",
                                span=doc.span(p)) from None
        stages.append(PipelineStage(name=stage_name, contract_path=ref, contract=contract))

    stage_names = [s.name for s in stages]
    if len(set(stage_names)) != len(stage_names):
        raise SemanticError("stage names must be unique", span=doc.span(("stages",)))

    handoffs_raw = root.get("handoffs") or []
    handoffs_raw = _expect_list(doc, handoffs_raw, ("handoffs",), "handoffs")
    if len(handoffs_raw) != len(stages) - 1:
        raise SemanticError(
            f"a {len(stages)}-stage pipeline needs {len(stages) - 1} handoffs, "
            f"got {len(handoffs_raw)}", span=doc.span(("handoffs",)))
    from .composition import HandoffSpec, handoff_contract

    handoffs = []
    for j, raw in enumerate(handoffs_raw):
        p = ("handoffs", j)
        entry = _expect_mapping(doc, raw, p, "handoff entry")
        src = _get_str(doc, entry, "from", p)
        dst = _get_str(doc, entry, "to", p)
        if src != stage_names[j] or dst != stage_names[j + 1]:
            raise SemanticError(
                f"handoff {j} must connect {stage_names[j]!r} -> {stage_names[j + 1]!r}, "
                f"got {src!r} -> {dst!r}", span=doc.span(p))
        type_map_raw = entry.get("type_map", {})
        if not isinstance(type_map_raw, Mapping):
            raise SchemaError("type_map must be a mapping of upstream path to downstream path",
                              span=doc.span(p + ("type_map",)), field="type_map")
        invariants = _parse_constraint_section(doc, entry.get("invariants"),
                                               p + ("invariants",), "hard")
        # The contract rules a handoff invariant meets once composed, checked here.
        paths = {con.name: p + ("invariants", i) for i, con in enumerate(invariants)}
        require_valid(handoff_contract(invariants),
                      lambda element: doc.span(paths.get(element, p)))
        handoffs.append(HandoffSpec(
            invariants=invariants,
            type_map={str(k): str(v) for k, v in type_map_raw.items()},
            p_h=_get_number(doc, entry, "p_h", p, default=1.0, lo=0.0, hi=1.0),
            delta_h=_get_number(doc, entry, "delta_h", p, default=0.0, lo=0.0, hi=1.0),
        ))

    coordination = _get_str(doc, root, "coordination", (), required=False, default="cascade")
    return PipelineContract(name=name, stages=tuple(stages), handoffs=tuple(handoffs),
                            coordination=coordination)


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


def _constraint_to_doc(c: Constraint) -> dict:
    out: dict = {"name": c.name, "check": _check_to_doc(c.check)}
    if c.category is not None:
        out["category"] = c.category
    if c.weight != 1.0:
        out["weight"] = c.weight
    if c.recovery is not None:
        out["recovery"] = c.recovery
    if c.on_missing != "violate":
        out["on_missing"] = c.on_missing
    return out


def contract_to_yaml(c: Contract) -> str:
    """Serialize a contract back to the DSL.  parse_contract on the output
    reproduces the contract field-by-field."""
    doc: dict = {"contractspec": "1.0", "kind": c.kind, "name": c.name}
    if c.preconditions:
        doc["preconditions"] = [_constraint_to_doc(x) for x in c.preconditions]
    invariants = {}
    if c.invariants_hard:
        invariants["hard"] = [_constraint_to_doc(x) for x in c.invariants_hard]
    if c.invariants_soft:
        invariants["soft"] = [_constraint_to_doc(x) for x in c.invariants_soft]
    if invariants:
        doc["invariants"] = invariants
    governance = {}
    if c.governance_hard:
        governance["hard"] = [_constraint_to_doc(x) for x in c.governance_hard]
    if c.governance_soft:
        governance["soft"] = [_constraint_to_doc(x) for x in c.governance_soft]
    if governance:
        doc["governance"] = governance
    if c.recovery_strategies:
        strategies = []
        for s in c.recovery_strategies:
            entry: dict = {"name": s.name, "type": s.type}
            if s.action is not None:
                entry["action"] = s.action
            entry["max_attempts"] = s.max_attempts
            if s.fallback is not None:
                entry["fallback"] = s.fallback
            strategies.append(entry)
        doc["recovery"] = {"strategies": strategies}
    sp = c.satisfaction
    doc["satisfaction"] = {"p": sp.p, "delta": sp.delta, "k": sp.k}
    if sp.T is not None:
        doc["satisfaction"]["T"] = sp.T
    dc = c.drift_config
    doc["drift"] = {"w_c": dc.w_c, "w_d": dc.w_d, "window": dc.window,
                    "vocabulary": list(dc.vocabulary),
                    "reference": dict(dc.reference),
                    "theta1": dc.theta1, "theta2": dc.theta2}
    rw = c.reliability_weights
    doc["reliability"] = {"a1": rw.a1, "a2": rw.a2, "a3": rw.a3, "a4": rw.a4}
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)
