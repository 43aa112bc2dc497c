"""ContractSpec DSL parsing: schema, semantics, spans, round trips, fuzz."""

import glob
import os
import re
import shutil
import subprocess
import sys
import textwrap

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import agentcontracts
from agentcontracts import parser
from agentcontracts.assets import asset_path
from agentcontracts.errors import (
    ContractError,
    DslSyntaxError,
    SchemaError,
    SemanticError,
)
from agentcontracts.model import (
    Constraint,
    Contract,
    DriftConfig,
    Predicate,
    RecoveryStrategy,
    ReliabilityWeights,
    SatisfactionParams,
    validate_contract,
)
from agentcontracts.parser import (
    contract_to_yaml,
    load_contract,
    load_document,
    parse_contract,
    parse_document,
    parse_pipeline,
)

FINANCIAL = asset_path("contracts", "financial-advisor.yaml")


class TestAgentDocuments:
    def test_financial_advisor_structure(self):
        contract = load_contract(FINANCIAL)
        assert contract.kind == "agent"
        assert len(contract.preconditions) == 1
        assert len(contract.invariants_hard) >= 1
        assert len(contract.invariants_soft) >= 1
        assert any(c.recovery for c in contract.invariants_soft)
        assert len(contract.governance_hard) >= 1
        assert validate_contract(contract) == []

    def test_parse_result_validates_clean(self):
        contract = load_contract(FINANCIAL)
        assert [i for i in validate_contract(contract) if i.severity == "error"] == []

    def test_missing_kind(self):
        with pytest.raises(SchemaError) as exc:
            parse_contract('contractspec: "1.0"\nname: x\n')
        assert exc.value.field == "kind"

    def test_satisfaction_p_out_of_range(self):
        doc = 'contractspec: "1.0"\nkind: agent\nname: x\nsatisfaction: {p: 1.3}\n'
        with pytest.raises(SchemaError) as exc:
            parse_contract(doc)
        assert "p out of [0.0,1.0]" in str(exc.value)

    def test_unknown_top_level_key(self):
        doc = 'contractspec: "1.0"\nkind: agent\nname: x\nbogus: 1\n'
        with pytest.raises(SchemaError) as exc:
            parse_contract(doc)
        assert "bogus" in str(exc.value)

    def test_schema_error_carries_span(self):
        doc = textwrap.dedent("""\
            contractspec: "1.0"
            kind: agent
            name: x
            satisfaction:
              p: 2.5
        """)
        with pytest.raises(SchemaError) as exc:
            parse_contract(doc)
        assert exc.value.span is not None
        assert exc.value.span.line == 5

    def test_dangling_recovery_is_semantic_error(self):
        doc = textwrap.dedent("""\
            contractspec: "1.0"
            kind: agent
            name: x
            invariants:
              soft:
                - name: tone
                  check: {field: output.tone, operator: ge, value: 0.5}
                  recovery: fix-tone
        """)
        with pytest.raises(SemanticError) as exc:
            parse_contract(doc)
        assert "fix-tone" in str(exc.value)

    def test_cyclic_fallback_is_semantic_error(self):
        doc = textwrap.dedent("""\
            contractspec: "1.0"
            kind: agent
            name: x
            invariants:
              soft:
                - name: tone
                  check: {field: output.tone, operator: ge, value: 0.5}
                  recovery: a
            recovery:
              strategies:
                - {name: a, type: re_prompt, fallback: b}
                - {name: b, type: re_prompt, fallback: a}
        """)
        with pytest.raises(SemanticError) as exc:
            parse_contract(doc)
        assert "acyclic" in str(exc.value)

    def test_a_recovery_budget_beyond_the_bound_is_refused(self):
        """A chain's attempts are bounded, so ``attempts_per_step=None``
        cannot stall a step: 100 parse, 101 do not, spanned at the
        constraint."""
        def doc(attempts):
            return textwrap.dedent(f"""\
                contractspec: "1.0"
                kind: agent
                name: budget
                invariants:
                  soft:
                    - name: tone
                      check: {{field: tone, operator: ge, value: 1}}
                      recovery: fix
                recovery:
                  strategies:
                    - {{name: fix, type: re_prompt, max_attempts: {attempts - 1}, fallback: up}}
                    - {{name: up, type: emit_event, max_attempts: 1}}
            """)
        assert parse_contract(doc(100)).recovery_strategies[0].max_attempts == 99
        with pytest.raises(SemanticError, match=r"^tone: its recovery chain allows 101 "
                                                r"attempts, more than 100$") as exc:
            parse_contract(doc(101))
        assert exc.value.span.line == 6

    @pytest.mark.parametrize("section,check", [
        ("invariants:\n  hard:\n", '{expr: "action.amount < 10"}'),
        ("invariants:\n  soft:\n", '{expr: "len(action.items) > 0"}'),
        ("preconditions:\n", "{field: action.amount, operator: lt, value: 10}"),
    ])
    def test_state_constraint_reading_action_is_semantic_error(self, section, check):
        doc = ('contractspec: "1.0"\nkind: agent\nname: x\n' + section
               + f"  - name: amt\n    check: {check}\n")
        with pytest.raises(SemanticError, match="amt: preconditions and invariants"):
            parse_contract(doc)

    # A semantic error points at the constraint or strategy it names.
    @pytest.mark.parametrize("body,line", [
        pytest.param("""\
            invariants:
              hard:
                - name: safe
                  check: {field: safety, operator: ge, value: 1}
                - name: amt
                  check: {expr: "action.amount < 10"}
        """, 8, id="state-constraint-reads-action"),
        pytest.param("""\
            invariants:
              soft:
                - name: tone
                  check: {field: output.tone, operator: ge, value: 0.5}
                  recovery: fix-tone
        """, 6, id="dangling-recovery"),
        pytest.param("""\
            invariants:
              soft:
                - name: tone
                  check: {field: output.tone, operator: ge, value: 0.5}
                  recovery: a
            recovery:
              strategies:
                - {name: a, type: re_prompt, fallback: b}
                - {name: b, type: re_prompt, fallback: a}
        """, 11, id="cyclic-fallback"),
    ])
    def test_semantic_error_carries_the_elements_span(self, body, line):
        doc = 'contractspec: "1.0"\nkind: agent\nname: x\n' + textwrap.dedent(body)
        with pytest.raises(SemanticError) as exc:
            parse_contract(doc)
        assert exc.value.span is not None
        assert exc.value.span.line == line

    @pytest.mark.parametrize("value", ["[1]", "{b: 1}", "true", "x", "null"])
    def test_drift_reference_value_must_be_a_number(self, value):
        doc = ('contractspec: "1.0"\nkind: agent\nname: x\ndrift:\n'
               f"  vocabulary: [a]\n  reference: {{a: {value}}}\n")
        with pytest.raises(SchemaError) as exc:
            parse_contract(doc)
        assert exc.value.span is not None
        assert (exc.value.span.line, exc.value.span.column) == (6, 18)

    @pytest.mark.parametrize("key", ["1", "true", "2.5", "null"])
    def test_drift_reference_label_must_be_a_string(self, key):
        # A label YAML does not construct as a string is refused, spanned at
        # the key, so "1" and 1 never name the same label.
        doc = ('contractspec: "1.0"\nkind: agent\nname: x\ndrift:\n'
               f'  vocabulary: ["1", a]\n  reference:\n    a: 0.5\n    {key}: 0.5\n')
        with pytest.raises(SchemaError, match=r"must be a string, got") as exc:
            parse_contract(doc)
        assert (exc.value.span.line, exc.value.span.column) == (8, 5)

    def test_check_requires_exactly_one_form(self):
        doc = textwrap.dedent("""\
            contractspec: "1.0"
            kind: agent
            name: x
            preconditions:
              - name: p
                check: {field: a, operator: eq, value: 1, expr: "a == 1"}
        """)
        with pytest.raises(SchemaError):
            parse_contract(doc)

    def test_forbidden_expression_is_schema_error(self):
        doc = textwrap.dedent("""\
            contractspec: "1.0"
            kind: agent
            name: x
            preconditions:
              - name: p
                check: {expr: "__import__('os')"}
        """)
        with pytest.raises(SchemaError) as exc:
            parse_contract(doc)
        assert exc.value.field == "expr"

    @pytest.mark.parametrize("literal", ["1" + "0" * 400, "1e400"], ids=["int-10**400", "1e400"])
    def test_a_non_finite_expression_literal_is_schema_error(self, literal):
        doc = ('contractspec: "1.0"\nkind: agent\nname: x\npreconditions:\n'
               f'  - name: p\n    check: {{expr: "x < {literal}"}}\n')
        with pytest.raises(SchemaError, match=r"^bad expression: numeric literal is not a "
                                              r"finite 64-bit float$") as exc:
            parse_contract(doc)
        assert exc.value.field == "expr"
        assert exc.value.span.line == 6

    def test_numeric_operands_become_floats(self):
        doc = textwrap.dedent("""\
            contractspec: "1.0"
            kind: agent
            name: x
            preconditions:
              - name: p
                check: {field: a, operator: range, value: [1, 5]}
        """)
        contract = parse_contract(doc)
        assert contract.preconditions[0].check.operand == [1.0, 5.0]

    def test_malformed_yaml_is_syntax_error_with_span(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse_contract("kind: [unclosed\n  - x: {")
        assert exc.value.span is not None

    def test_determinism(self):
        text = open(FINANCIAL, "rb").read()
        assert parse_contract(text) == parse_contract(text)

    def test_round_trip_field_by_field(self):
        contract = load_contract(FINANCIAL)
        assert parse_contract(contract_to_yaml(contract)) == contract

    def test_round_trip_randomized_contracts(self):
        import numpy as np
        from helpers import random_contract
        rng = np.random.default_rng(404)
        for _ in range(60):
            contract = random_contract(rng)
            assert parse_contract(contract_to_yaml(contract)) == contract


HEADER = 'contractspec: "1.0"\nkind: agent\nname: x\n'
UNKNOWN = "zz_unknown"
FREE_FORM = ("reference", "type_map")   # mappings whose keys the document names


def mapping_paths(value, path=()):
    """The path of every schema mapping in a loaded document."""
    if isinstance(value, dict):
        yield path
        for key, child in value.items():
            if key not in FREE_FORM:
                yield from mapping_paths(child, path + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from mapping_paths(child, path + (i,))


def with_unknown_key(text, path):
    """``text`` dumped again with ``zz_unknown: 1`` in the mapping at
    ``path``, and the line of that key."""
    value = yaml.safe_load(text)
    target = value
    for part in path:
        target = target[part]
    target[UNKNOWN] = 1
    out = yaml.safe_dump(value, sort_keys=False, default_flow_style=False)
    lines = [i for i, line in enumerate(out.splitlines(), 1) if UNKNOWN in line]
    assert len(lines) == 1
    return out, lines[0]


def refused_mapping(error, text, line):
    """The mapping ``error`` names, after checking that it names the
    unknown key and spans it."""
    assert isinstance(error, SchemaError)
    assert error.field == UNKNOWN
    assert (error.span.line, error.span.length) == (line, len(UNKNOWN))
    assert text.splitlines()[line - 1][error.span.column - 1:].startswith(UNKNOWN + ":")
    return re.fullmatch(f"unknown key '{UNKNOWN}' in (.+)", str(error))[1]


class TestSchemaTable:
    """Every mapping is read by one rule: an unknown key is refused, and a
    key left out takes the model's default."""

    AGENT_MAPPINGS = {"agent document", "invariants", "governance", "recovery",
                      "strategy entry", "constraint entry", "check", "satisfaction", "drift",
                      "reliability"}

    def test_every_mapping_of_the_bundled_contract_refuses_an_unknown_key(self):
        text = open(FINANCIAL).read()
        refused = set()
        for path in mapping_paths(yaml.safe_load(text)):
            doc, line = with_unknown_key(text, path)
            with pytest.raises(SchemaError) as exc:
                parse_contract(doc)
            refused.add(refused_mapping(exc.value, doc, line))
        assert refused == self.AGENT_MAPPINGS

    def test_every_mapping_of_a_loan_pipeline_refuses_an_unknown_key(self, suite_dir, tmp_path):
        work = tmp_path / "contracts"
        shutil.copytree(os.path.join(suite_dir, "contracts"), work)
        pipeline = str(work / "loan-pipeline.yaml")
        refused = set()
        for name in ("loan-pipeline.yaml", "loan-intake.yaml", "loan-analysis.yaml",
                     "loan-decision.yaml"):
            text = (work / name).read_text()
            for path in mapping_paths(yaml.safe_load(text)):
                doc, line = with_unknown_key(text, path)
                (work / name).write_text(doc)
                with pytest.raises(SchemaError) as exc:
                    load_document(pipeline)
                refused.add(refused_mapping(exc.value, doc, line))
            (work / name).write_text(text)
        load_document(pipeline)
        assert refused == (self.AGENT_MAPPINGS - {"reliability"}) | {
            "pipeline document", "stage entry", "handoff entry"}

    @pytest.mark.parametrize("sections", [
        "",
        "satisfaction: {}\ndrift: {}\nreliability: {}\nrecovery: {}\n",
        "satisfaction:\ndrift:\nreliability:\nrecovery:\ninvariants:\ngovernance:\n",
    ], ids=["absent", "empty", "null"])
    def test_a_minimal_document_takes_the_models_defaults(self, sections):
        contract = parse_contract(HEADER + sections + textwrap.dedent("""\
            preconditions:
              - name: ready
                check: {field: ready, operator: exists}
        """))
        ready = Constraint(name="ready", severity="hard",
                           check=Predicate(field_path="ready", operator="exists"))
        assert contract == Contract(name="x", preconditions=(ready,))
        assert contract.satisfaction == SatisfactionParams()
        assert contract.drift_config == DriftConfig()
        assert contract.reliability_weights == ReliabilityWeights()

    def test_entries_take_the_models_defaults(self):
        contract = parse_contract(HEADER + textwrap.dedent("""\
            invariants:
              soft:
                - name: tone
                  check: {expr: "tone > 0"}
                  recovery: fix
            recovery:
              strategies:
                - {name: fix, type: re_prompt}
        """))
        tone, = contract.invariants_soft
        assert tone == Constraint(name="tone", severity="soft", check=tone.check, recovery="fix")
        assert (tone.weight, tone.category, tone.on_missing) == (1.0, None, "violate")
        assert contract.recovery_strategies == (RecoveryStrategy(name="fix", type="re_prompt"),)
        assert contract.recovery_strategies[0].max_attempts == 3

    # Each of these parsed at the parent, the typo silently dropped.
    @pytest.mark.parametrize("section,key,line", [
        ("invariants:\n  hard: []\n  sfot:\n    - name: tone\n"
         "      check: {field: tone, operator: ge, value: 1}\n", "sfot", 6),
        ("governance: {hrd: [{name: g, check: {field: label, operator: exists}}]}\n",
         "hrd", 4),
        ("drift: {windw: 3}\n", "windw", 4),
        ("satisfaction: {p: 0.9, detla: 0.5}\n", "detla", 4),
    ], ids=["invariants", "governance", "drift", "satisfaction"])
    def test_a_misspelt_key_is_refused(self, section, key, line):
        with pytest.raises(SchemaError) as exc:
            parse_contract(HEADER + section)
        assert exc.value.field == key
        assert f"unknown key {key!r}" in str(exc.value)
        assert exc.value.span.line == line

    # The parent spanned each of these at 1:1, matching keys by their text.
    @pytest.mark.parametrize("key", ["5", "true"])
    @pytest.mark.parametrize("section,line,column", [
        ("{key}: x\n", 4, 1),
        ("invariants:\n  hard: []\n  {key}: x\n", 6, 3),
    ], ids=["top-level", "invariants"])
    def test_an_unknown_non_string_key_is_spanned_at_itself(self, key, section, line, column):
        with pytest.raises(SchemaError) as exc:
            parse_contract(HEADER + section.format(key=key))
        assert exc.value.field == yaml.safe_load(key)
        span = exc.value.span
        assert (span.line, span.column, span.length) == (line, column, len(key))

    @pytest.mark.parametrize("section", [
        "drift: {w_c: .nan}\n", "reliability: {a1: .nan}\n", "satisfaction: {p: .nan}\n",
        "drift: {vocabulary: [a, b], reference: {a: .nan, b: 1.0}}\n",
        "preconditions:\n  - {name: r, weight: .nan, check: {field: r, operator: exists}}\n",
    ], ids=["w_c", "a1", "p", "reference", "weight"])
    def test_a_nan_number_is_out_of_every_range(self, section):
        with pytest.raises(SchemaError, match=r"out of \[.*\]: nan$"):
            parse_contract(HEADER + section)

    # The parent crashed on each of these with a bare OverflowError or TypeError.
    @pytest.mark.parametrize("section,field", [
        ("satisfaction: {p: " + "9" * 400 + "}\n", "p"),
        ("preconditions:\n  - name: r\n    check: {field: r, operator: eq, value: "
         + "9" * 400 + "}\n", "value"),
        ("bogus: 1\n1: 2\n", "bogus"),
    ], ids=["huge-number", "huge-operand", "mixed-unknown-keys"])
    def test_a_malformed_value_is_a_schema_error(self, section, field):
        with pytest.raises(SchemaError) as exc:
            parse_contract(HEADER + section)
        assert exc.value.field == field

    def test_an_expression_check_takes_no_operand(self):
        with pytest.raises(SchemaError, match=r"^unknown key 'value' in check$"):
            parse_contract(HEADER + "preconditions:\n  - name: r\n"
                           "    check: {expr: \"r == 1\", value: 3}\n")


class TestPipelineDocuments:
    @pytest.fixture()
    def pipeline_dir(self, tmp_path):
        stage = textwrap.dedent("""\
            contractspec: "1.0"
            kind: agent
            name: {name}
            invariants:
              hard:
                - name: {name}-ok
                  check: {{field: data.ok, operator: eq, value: true}}
            satisfaction: {{p: 0.95, delta: 0.02, k: 1}}
        """)
        (tmp_path / "a.yaml").write_text(stage.format(name="stage-a"))
        (tmp_path / "b.yaml").write_text(stage.format(name="stage-b"))
        (tmp_path / "pipe.yaml").write_text(textwrap.dedent("""\
            contractspec: "1.0"
            kind: pipeline
            name: demo-pipe
            stages:
              - {name: first, contract: a.yaml}
              - {name: second, contract: b.yaml}
            handoffs:
              - from: first
                to: second
                p_h: 0.98
                delta_h: 0.01
                invariants:
                  - name: handoff-ok
                    check: {field: data.value, operator: range, value: [0, 1]}
                type_map: {data.value: data.value}
        """))
        return tmp_path

    def test_pipeline_resolves_relative_stage_paths(self, pipeline_dir):
        pipeline = load_document(str(pipeline_dir / "pipe.yaml"))
        assert pipeline.name == "demo-pipe"
        assert [s.contract.name for s in pipeline.stages] == ["stage-a", "stage-b"]
        assert pipeline.handoffs[0].p_h == 0.98
        assert pipeline.handoffs[0].type_map == {"data.value": "data.value"}

    @pytest.mark.parametrize("type_map,column", [("{5: data.value}", 16),
                                                 ("{data.value: 5}", 28),
                                                 ("{data.value: [a]}", 28),
                                                 ("{true: data.value}", 16)])
    def test_type_map_paths_must_be_strings(self, pipeline_dir, type_map, column):
        # Both sides are paths, so strings: each is refused where it is
        # written, a key at the key.
        text = (pipeline_dir / "pipe.yaml").read_text().replace(
            "{data.value: data.value}", type_map)
        with pytest.raises(SchemaError, match=r"must be a string, got") as exc:
            parse_pipeline(text, base_dir=str(pipeline_dir))
        assert (exc.value.span.line, exc.value.span.column) == (15, column)

    def test_handoff_stage_names_must_chain(self, pipeline_dir):
        text = (pipeline_dir / "pipe.yaml").read_text().replace("to: second", "to: third")
        with pytest.raises(SemanticError):
            parse_pipeline(text, base_dir=str(pipeline_dir))

    def test_missing_stage_contract(self, pipeline_dir):
        os.remove(pipeline_dir / "b.yaml")
        with pytest.raises(SemanticError):
            load_document(str(pipeline_dir / "pipe.yaml"))

    def test_a_pipeline_document_has_no_agent_sections(self, pipeline_dir):
        # The parent parsed this and never composed the section.
        text = (pipeline_dir / "pipe.yaml").read_text() + textwrap.dedent("""\
            governance:
              hard:
                - name: g
                  check: {field: label, operator: exists}
        """)
        with pytest.raises(SchemaError, match="^unknown key 'governance' in pipeline document$"):
            parse_pipeline(text, base_dir=str(pipeline_dir))

    def test_parse_contract_rejects_pipeline(self, pipeline_dir):
        with pytest.raises(SchemaError):
            parse_contract((pipeline_dir / "pipe.yaml").read_text())


LOADERS = [pytest.param(getattr(yaml, "CSafeLoader", None), id="libyaml",
                        marks=pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                                                 reason="PyYAML built without libyaml")),
           pytest.param(yaml.SafeLoader, id="pure-python")]

# Flow and block documents nested 10**5 deep: libyaml's composer would
# recurse on the C stack and crash the interpreter.
_DEEP_DOCUMENT_SCRIPT = """
import sys, yaml
from agentcontracts import parser
from agentcontracts.errors import DslSyntaxError
parser._Loader = getattr(yaml, sys.argv[1])
n = 10 ** 5
for text in ("[" * n + "]" * n, "- " * n + "x"):
    try:
        parser.parse_document(text)
    except DslSyntaxError:
        print("DslSyntaxError")
"""


class TestLoaders:
    """libyaml and the pure-Python fallback must load documents alike."""

    @staticmethod
    def load_both(text):
        docs = []
        for loader in (yaml.CSafeLoader, yaml.SafeLoader):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(parser, "_Loader", loader)
                docs.append(parser._load_yaml(text))
        return docs

    @pytest.mark.parametrize("loader", LOADERS)
    def test_deep_nesting_is_syntax_error_not_crash(self, loader):
        src_dir = os.path.dirname(os.path.dirname(agentcontracts.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        child = subprocess.run([sys.executable, "-c", _DEEP_DOCUMENT_SCRIPT, loader.__name__],
                               capture_output=True, text=True, env=env, timeout=120)
        assert child.returncode == 0, child.stderr[-2000:]
        assert child.stdout.split() == ["DslSyntaxError", "DslSyntaxError"]

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
    def test_same_value_and_spans_on_every_contract(self, suite_dir):
        paths = sorted(glob.glob(os.path.join(os.path.dirname(FINANCIAL), "*.yaml"))
                       + glob.glob(os.path.join(suite_dir, "contracts", "*.yaml")))
        assert len(paths) >= 10
        for path in paths:
            with open(path, "rb") as fh:
                fast, slow = self.load_both(fh.read())
            assert fast.value == slow.value, path
            assert fast.spans == slow.spans, path
            assert len(fast.spans) > 10

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
        | st.text(max_size=8),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=6), children, max_size=4),
        max_leaves=20))
    @settings(max_examples=100, deadline=None)
    def test_same_value_and_spans_on_random_documents(self, value):
        for flow in (False, True):
            text = yaml.safe_dump({"root": value}, default_flow_style=flow)
            fast, slow = self.load_both(text)
            assert fast.value == slow.value == {"root": value}
            assert fast.spans == slow.spans

    @pytest.mark.parametrize("loader", LOADERS)
    @pytest.mark.parametrize("text", [
        "kind: [unclosed\n  - x: {", "a: b: c", "key: 'unterminated", "- a\nb: c",
        "a: *undefined", "--- a\n--- b", "? [a]\n: b", "a: !!python/object:os.system x",
    ])
    def test_malformed_yaml_has_span_under_both(self, monkeypatch, loader, text):
        monkeypatch.setattr(parser, "_Loader", loader)
        with pytest.raises(DslSyntaxError) as exc:
            parse_document(text)
        assert exc.value.span is not None

    @pytest.mark.parametrize("loader", LOADERS)
    @pytest.mark.parametrize("text", ["a: 2020-13-01", "a: !!int x", "a: " + "9" * 5000])
    def test_unconstructible_scalar_is_syntax_error(self, monkeypatch, loader, text):
        monkeypatch.setattr(parser, "_Loader", loader)
        with pytest.raises(DslSyntaxError):
            parse_document(text)

    @pytest.mark.parametrize("loader", LOADERS)
    def test_nested_aliases_indexed_once(self, monkeypatch, loader):
        """Five levels of ten aliases name 10**5 paths; each node is indexed once."""
        monkeypatch.setattr(parser, "_Loader", loader)
        lines = ["a0: &a0 [x, x, x, x, x, x, x, x, x, x]"]
        lines += [f"a{i}: &a{i} [" + ", ".join([f"*a{i - 1}"] * 10) + "]" for i in range(1, 6)]
        doc = parser._load_yaml("\n".join(lines))
        assert len(doc.spans) < 100
        with pytest.raises(DslSyntaxError, match="nesting"):
            parse_document("a: &a [b, *a]")

    def test_parse_contract_loads_once(self, monkeypatch):
        calls = []
        real = parser._load_yaml
        monkeypatch.setattr(parser, "_load_yaml", lambda text: calls.append(1) or real(text))
        parse_contract(open(FINANCIAL, "rb").read())
        assert len(calls) == 1


@given(st.binary(max_size=400))
@settings(max_examples=300, deadline=None)
def test_fuzz_terminates_with_library_error(data):
    """Arbitrary bytes: success or a ContractError, never a crash."""
    try:
        parse_document(data)
    except ContractError:
        pass


@given(st.text(max_size=400))
@settings(max_examples=200, deadline=None)
def test_fuzz_text_terminates(data):
    try:
        parse_document(data)
    except ContractError:
        pass
