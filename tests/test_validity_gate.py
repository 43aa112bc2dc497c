"""One validity gate: a contract is validated once, when its compiled plan is
built, so every evaluating path rejects an invalid contract before its
first step, with the parser's SemanticError."""

import ast
import inspect
import textwrap
from collections.abc import Mapping
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentcontracts import model
from agentcontracts.cli import main
from agentcontracts.composition import (HandoffSpec, check_conditions, compose_contracts,
                                        verify_chain_trace)
from agentcontracts.engine import check_deterministic, classify_outcome, evaluate_constraint
from agentcontracts.errors import SemanticError
from agentcontracts.model import (
    ActionRecord,
    Constraint,
    Contract,
    DriftConfig,
    ExecutionTrace,
    Predicate,
    RecoveryStrategy,
    ReliabilityWeights,
    SatisfactionParams,
    validate_contract,
)
from agentcontracts.monitor import SessionMonitor, run_session
from agentcontracts.parser import parse_pipeline

from helpers import random_contract, random_trace
from test_folds import constraint_timelines

HUGE = 10 ** 400   # an int no float can hold


def check(path, operator, value=None):
    return Predicate(field_path=path, operator=operator, operand=value)


def base_contract(**overrides) -> Contract:
    """A valid contract with one hard and one recoverable soft invariant."""
    fields = dict(
        name="base",
        invariants_hard=(Constraint(name="safe", severity="hard", check=check("a", "eq", 1)),),
        invariants_soft=(Constraint(name="tone", severity="soft", recovery="fix",
                                    check=check("b", "ge", 0)),),
        recovery_strategies=(RecoveryStrategy(name="fix", type="re_prompt"),),
    )
    fields.update(overrides)
    return Contract(**fields)


def hard(name, predicate, **kw):
    return Constraint(name=name, severity="hard", check=predicate, **kw)


def with_hard(*constraints, **overrides) -> Contract:
    contract = base_contract(**overrides)
    return replace(contract, invariants_hard=contract.invariants_hard + constraints)


TRACE = ExecutionTrace(states=({"a": 0, "b": 1, "y": "x"}, {"a": 0, "b": 1, "y": "x"}),
                       actions=(ActionRecord("go"),))


def error_rules(contract) -> list:
    return [(i.element, i.rule) for i in validate_contract(contract) if i.severity == "error"]


def assert_rejected_everywhere(contract, message):
    """Every evaluating entry point raises the same SemanticError."""
    for evaluate in (lambda: SessionMonitor(contract),
                     lambda: run_session(contract, TRACE),
                     lambda: constraint_timelines(contract, TRACE),
                     lambda: check_deterministic(contract, TRACE),
                     lambda: classify_outcome(contract, TRACE)):
        with pytest.raises(SemanticError, match=message):
            evaluate()


class TestInvalidContractsAreRejectedBeforeTheFirstStep:
    def test_a_hard_and_a_soft_constraint_sharing_a_name(self):
        # Results keyed by name let the soft result overwrite the hard one,
        # and the session read compliant on states that break the hard one.
        contract = base_contract(
            invariants_hard=(hard("x", check("a", "eq", 1)),),
            invariants_soft=(Constraint(name="x", severity="soft", check=check("b", "eq", 1)),),
            recovery_strategies=())
        assert error_rules(contract) == [("x", "duplicate-name")]
        assert_rejected_everywhere(contract, r"^x: constraint names must be unique")

    def test_a_range_bound_no_float_can_hold(self):
        contract = with_hard(hard("big", check("a", "range", [0, HUGE])))
        assert_rejected_everywhere(
            contract, r"^big: range operand must be finite, got an int too large for a float$")

    def test_an_unknown_operator(self):
        contract = with_hard(hard("odd", check("a", "zz", 1)))
        assert_rejected_everywhere(contract, r"^odd: operator 'zz' is not one of")

    def test_an_invalid_matches_pattern(self):
        contract = with_hard(hard("pat", check("y", "matches", "(")))
        assert_rejected_everywhere(contract, r"^pat: invalid regular expression")

    def test_a_composed_contract_is_checked_too(self):
        upstream = base_contract(name="up")
        downstream = base_contract(name="down")
        bad = HandoffSpec(invariants=(hard("h", check("y", "matches", "(")),))
        composed = compose_contracts(upstream, downstream, bad)
        with pytest.raises(SemanticError, match=r"^h: invalid regular expression"):
            verify_chain_trace(composed, TRACE, [1])
        with pytest.raises(SemanticError, match=r"^h: invalid regular expression"):
            SessionMonitor(composed, boundaries=[1])

    def test_a_handoff_invariant_of_no_known_severity_is_checked_not_dropped(self):
        odd = Constraint(name="h", severity="medium", check=check("a", "exists"))
        composed = compose_contracts(base_contract(name="up"), base_contract(name="down"),
                                     HandoffSpec(invariants=(odd,)))
        with pytest.raises(SemanticError, match=r"^h: severity must be hard or soft"):
            SessionMonitor(composed, boundaries=[1])

    def test_the_message_counts_the_other_errors(self):
        contract = with_hard(hard("odd", check("a", "zz", 1)), hard("pat", check("y", "matches", "(")))
        with pytest.raises(SemanticError, match=r"^odd: .* \(\+1 more issues\)$"):
            SessionMonitor(contract)

    def test_a_valid_contract_is_unaffected(self):
        report = run_session(base_contract(), TRACE)
        assert report.outcome == "hard_violation"


class TestDuplicateStrategyNames:
    """Two strategies named ``fix``: the validator and the monitor used to
    pick different ones, so in one order the validator passed a contract
    the monitor rejected, and in the other rejected one the monitor ran."""

    LOOPING = RecoveryStrategy(name="fix", type="re_prompt", fallback="fix")
    PLAIN = RecoveryStrategy(name="fix", type="emit_event")

    @pytest.mark.parametrize("strategies", [(LOOPING, PLAIN), (PLAIN, LOOPING)],
                             ids=["looping-first", "looping-last"])
    def test_rejected_in_either_order(self, strategies):
        contract = base_contract(recovery_strategies=strategies)
        assert ("fix", "duplicate-strategy-name") in error_rules(contract)
        with pytest.raises(SemanticError, match=r"^fix: "):
            SessionMonitor(contract)


def test_a_soft_constraint_in_a_hard_section_is_rejected():
    # The monitor scores it as hard and never runs its recovery.
    misplaced = Constraint(name="tone", severity="soft", recovery="fix", check=check("b", "ge", 0))
    contract = base_contract(invariants_hard=(misplaced,), invariants_soft=())
    assert error_rules(contract) == [("tone", "severity-section-mismatch")]
    with pytest.raises(SemanticError, match=r"^tone: a soft constraint in a hard section$"):
        SessionMonitor(contract)


def test_a_recovery_reference_on_a_precondition_is_rejected():
    # Preconditions are hard by section: the monitor never recovers one, so a
    # Python-built precondition (soft by default) that names a strategy
    # would have it never run.
    pre = Constraint(name="ready", recovery="fix", check=check("a", "eq", 1))
    contract = base_contract(preconditions=(pre,))
    assert error_rules(contract) == [("ready", "hard-with-recovery")]
    with pytest.raises(SemanticError,
                       match=r"^ready: hard constraints carry no recovery reference$"):
        SessionMonitor(contract)


class TestLoneConstraints:
    """A constraint evaluated outside a contract meets the two rules its
    operator needs, in the validator's words, before any field is read."""

    @pytest.mark.parametrize("predicate", [check("y", "matches", "("), check("y", "zz", 1)],
                             ids=["invalid-pattern", "unknown-operator"])
    def test_evaluate_constraint_rejects_it_when_compiling(self, predicate):
        issue, = validate_contract(Contract(name="t", invariants_hard=(hard("c", predicate),)))
        with pytest.raises(SemanticError) as caught:
            evaluate_constraint(Constraint(name="c", check=predicate), {"y": "a"}, None, "state")
        assert str(caught.value) == f"c: {issue.message}"

    def test_an_expression_spelling_is_refused_as_the_validator_refuses_it(self):
        predicate = check("y", "<", 1)   # the expression spelling of "lt"
        issue, = validate_contract(Contract(name="t", invariants_hard=(hard("c", predicate),)))
        assert issue.rule == "unknown-operator"
        with pytest.raises(SemanticError) as caught:
            evaluate_constraint(Constraint(name="c", check=predicate), {"y": 0}, None, "state")
        assert str(caught.value) == f"c: {issue.message}"

    def test_only_plans_keep_compiled_closures(self):
        handoff = HandoffSpec(invariants=(hard("h", check("a", "exists")),))
        upstream = base_contract(name="up", preconditions=(hard("ready", check("a", "exists")),))
        downstream = base_contract(name="down")
        run_session(upstream, TRACE)
        check_conditions(upstream, downstream, handoff, list(TRACE.states), [ActionRecord("go")])
        assert "_compiled" in vars(upstream) and "_compiled" in vars(downstream)
        for con in upstream.all_constraints() + downstream.all_constraints() + handoff.invariants:
            assert "_compiled" not in vars(con), con.name


class Tripwire(Mapping):
    """A witness sample that fails the test when it is read."""

    def __getitem__(self, key):
        raise AssertionError("a sample was read")

    def __iter__(self):
        raise AssertionError("a sample was read")

    def __len__(self):
        raise AssertionError("a sample was read")


@pytest.mark.parametrize("side", ["upstream", "downstream", "handoff"])
def test_check_conditions_rejects_an_invalid_side_before_reading_a_sample(side):
    bad = hard("pat", check("y", "matches", "("))
    upstream, downstream = base_contract(name="up"), base_contract(name="down")
    handoff = HandoffSpec(invariants=(bad,) if side == "handoff" else (), type_map={"y": "y"})
    if side == "upstream":
        upstream = with_hard(bad, name="up")
    elif side == "downstream":
        downstream = with_hard(bad, name="down")
    with pytest.raises(SemanticError, match=r"^pat: invalid regular expression"):
        check_conditions(upstream, downstream, handoff, [Tripwire()], [ActionRecord("go")])


class TestScopes:
    @pytest.mark.parametrize("scope", ["handoff:3", "handoff:1", "stage:2", "stage:x",
                                       "stage:-1", "phase:0", "stage:"])
    def test_a_scope_outside_the_stages_is_rejected(self, scope):
        contract = with_hard(hard("scoped", check("a", "exists"), scope=scope), stages=2)
        assert error_rules(contract) == [("scoped", "bad-scope")]
        with pytest.raises(SemanticError, match=r"^scoped: scope must be stage:<i> with i < 2"):
            SessionMonitor(contract, boundaries=[1])

    @pytest.mark.parametrize("scope", ["stage:0", "stage:1", "handoff:0"])
    def test_a_scope_inside_the_stages_is_valid(self, scope):
        contract = with_hard(hard("scoped", check("a", "exists"), scope=scope), stages=2)
        assert validate_contract(contract) == []
        SessionMonitor(contract, boundaries=[1])

    def test_a_composed_contract_has_valid_scopes(self):
        handoff = HandoffSpec(invariants=(hard("h", check("a", "exists")),))
        composed = compose_contracts(base_contract(name="up"), base_contract(name="down"),
                                     handoff)
        assert composed.stages == 2
        assert validate_contract(composed) == []


def test_a_cyclic_chain_is_named_in_the_message():
    contract = base_contract(recovery_strategies=(
        RecoveryStrategy(name="fix", type="re_prompt", fallback="again"),
        RecoveryStrategy(name="again", type="escalate_human", fallback="fix")))
    messages = {i.element: i.message for i in validate_contract(contract)}
    assert messages == {"again": "fallback chain must be acyclic: again -> fix -> again",
                        "fix": "fallback chain must be acyclic: fix -> again -> fix"}


@pytest.mark.parametrize("weight", [float("inf"), float("nan"), True])
def test_a_weight_must_be_a_finite_number(weight):
    # An infinite weight made another constraint's violation severity 0,
    # which raised ZeroSeverity from a step.
    contract = with_hard(hard("w", check("a", "exists"), weight=weight))
    assert error_rules(contract) == [("w", "nonpositive-weight")]
    with pytest.raises(SemanticError, match=r"^w: weight must be a finite number > 0$"):
        SessionMonitor(contract)


# ---------------------------------------------------------------------------
# Every error rule of the validator has a Python-built contract the monitor
# rejects
# ---------------------------------------------------------------------------

REJECTED = {
    "bad-kind": base_contract(kind="team"),
    "bad-stage-count": base_contract(stages=0),
    "duplicate-name": with_hard(hard("safe", check("a", "exists"))),
    "nonpositive-weight": with_hard(hard("w", check("a", "exists"), weight=0.0)),
    "bad-severity": with_hard(Constraint(name="m", severity="medium", check=check("a", "exists"))),
    "bad-scope": with_hard(hard("s", check("a", "exists"), scope="handoff:0")),
    "hard-with-recovery": with_hard(hard("r", check("a", "exists"), recovery="fix")),
    "unresolved-recovery-reference": base_contract(recovery_strategies=()),
    "bad-on-missing": with_hard(hard("o", check("a", "exists"), on_missing="ignore")),
    "severity-section-mismatch": with_hard(
        Constraint(name="s", severity="soft", check=check("a", "exists"))),
    "state-constraint-reads-action": with_hard(hard("act", check("action.amount", "lt", 1))),
    "unknown-operator": with_hard(hard("op", check("a", "zz", 1))),
    "non-finite-operand": with_hard(hard("nan", check("a", "lt", float("nan")))),
    "bad-range-operand": with_hard(hard("rng", check("a", "range", [5, 1]))),
    "bad-regex-operand": with_hard(hard("re", check("y", "matches", "("))),
    "bad-membership-operand": with_hard(hard("in", check("a", "in", 1))),
    "duplicate-strategy-name": base_contract(recovery_strategies=(
        RecoveryStrategy(name="fix", type="re_prompt"),
        RecoveryStrategy(name="fix", type="emit_event"))),
    "bad-strategy-type": base_contract(recovery_strategies=(
        RecoveryStrategy(name="fix", type="pray"),)),
    "bad-max-attempts": base_contract(recovery_strategies=(
        RecoveryStrategy(name="fix", type="re_prompt", max_attempts=0),)),
    "recovery-budget-too-large": base_contract(recovery_strategies=(
        RecoveryStrategy(name="fix", type="re_prompt", max_attempts=60, fallback="up"),
        RecoveryStrategy(name="up", type="escalate_human", max_attempts=41))),
    "unresolved-fallback-reference": base_contract(recovery_strategies=(
        RecoveryStrategy(name="fix", type="re_prompt", fallback="gone"),)),
    "cyclic-fallback-chain": base_contract(recovery_strategies=(
        RecoveryStrategy(name="fix", type="re_prompt", fallback="fix"),)),
    "p-out-of-range": base_contract(satisfaction=SatisfactionParams(p=1.5)),
    "delta-out-of-range": base_contract(satisfaction=SatisfactionParams(delta=-0.1)),
    "bad-recovery-window": base_contract(satisfaction=SatisfactionParams(k=-1)),
    "bad-session-length": base_contract(satisfaction=SatisfactionParams(T=-1)),
    "bad-component-weights": base_contract(drift_config=DriftConfig(w_c=0.5, w_d=0.1)),
    "bad-window": base_contract(drift_config=DriftConfig(window=0)),
    "bad-thresholds": base_contract(drift_config=DriftConfig(theta1=0.5, theta2=0.1)),
    "duplicate-vocabulary": base_contract(drift_config=DriftConfig(
        vocabulary=("go", "go"), reference={"go": 1.0})),
    "reserved-label": base_contract(drift_config=DriftConfig(
        vocabulary=("go", model.OTHER_LABEL), reference={"go": 1.0})),
    "reference-outside-vocabulary": base_contract(drift_config=DriftConfig(
        vocabulary=("go",), reference={"go": 1.0, "stop": 0.0})),
    "reference-not-normalized": base_contract(drift_config=DriftConfig(
        vocabulary=("go", "stop"), reference={"go": 0.5, "stop": 0.2})),
    "bad-weights": base_contract(reliability_weights=ReliabilityWeights(a1=0.9)),
}


def validator_rules() -> dict:
    """Rule id -> severity of every ``_issue(element, "rule-id", ...)`` call in
    the source of the validator's module."""
    rules = {}
    for node in ast.walk(ast.parse(inspect.getsource(model))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_issue":
            rule = node.args[1]
            assert isinstance(rule, ast.Constant) and isinstance(rule.value, str), \
                f"line {node.lineno}: a rule id must be a string literal"
            severity = next((k.value.value for k in node.keywords if k.arg == "severity"),
                            "error")
            rules[rule.value] = severity
    return rules


def test_every_error_rule_has_a_rejected_contract():
    errors = {rule for rule, severity in validator_rules().items() if severity == "error"}
    assert errors - set(REJECTED) == set(), "error rules with no rejected contract"
    assert set(REJECTED) - errors == set(), "table rows naming no error rule"


@pytest.mark.parametrize("rule", sorted(REJECTED))
def test_the_monitor_rejects_each_rule(rule):
    contract = REJECTED[rule]
    assert rule in {r for _, r in error_rules(contract)}
    with pytest.raises(SemanticError):
        SessionMonitor(contract)


# ---------------------------------------------------------------------------
# One corruption of a valid random contract is rejected at construction
# ---------------------------------------------------------------------------

def _corrupt(contract: Contract, how: str, rng: np.random.Generator) -> Contract:
    """``contract`` broken by exactly the validator rule ``how``."""
    existing = contract.all_constraints()[int(rng.integers(len(contract.all_constraints())))]
    if how == "duplicate-name":
        return replace(contract, governance_hard=contract.governance_hard
                       + (hard(existing.name, check("cost", "exists")),))
    if how == "non-finite-operand":
        value = [float("nan"), float("inf"), -float("inf"), HUGE][int(rng.integers(4))]
        return replace(contract, governance_hard=contract.governance_hard
                       + (hard("extra", check("cost", "ge", value)),))
    if how == "unknown-operator":
        return replace(contract, governance_hard=contract.governance_hard
                       + (hard("extra", check("cost", "approx", 1.0)),))
    if how == "unresolved-recovery-reference":
        return replace(contract, invariants_soft=contract.invariants_soft + (Constraint(
            name="extra", severity="soft", recovery="nowhere", check=check("score", "exists")),))
    if how == "duplicate-strategy-name":
        fix = RecoveryStrategy(name="fix", type="emit_event")
        return replace(contract, recovery_strategies=(fix, fix), invariants_soft=(
            contract.invariants_soft + (Constraint(name="extra", severity="soft", recovery="fix",
                                                   check=check("score", "exists")),)))
    assert how == "bad-scope"
    scope = ["stage:1", "handoff:0", "stage:x"][int(rng.integers(3))]
    return replace(contract, invariants_hard=contract.invariants_hard
                   + (hard("extra", check("score", "exists"), scope=scope),))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       how=st.sampled_from(["duplicate-name", "non-finite-operand", "unknown-operator",
                            "unresolved-recovery-reference", "duplicate-strategy-name",
                            "bad-scope"]))
def test_one_corruption_is_rejected_when_the_monitor_is_built(seed, how):
    rng = np.random.default_rng(seed)
    contract, trace = random_contract(rng), random_trace(rng)
    assert validate_contract(contract) == []
    corrupted = _corrupt(contract, how, rng)
    assert {r for _, r in error_rules(corrupted)} == {how}
    with pytest.raises(SemanticError):
        SessionMonitor(corrupted)
    with pytest.raises(SemanticError):
        run_session(corrupted, trace)
    # The contract it came from runs a whole session.
    assert len(run_session(contract, trace).steps) == trace.length


# ---------------------------------------------------------------------------
# Pipeline handoff invariants are validated when the document is parsed
# ---------------------------------------------------------------------------

STAGE = textwrap.dedent("""\
    contractspec: "1.0"
    kind: agent
    name: {name}
    invariants:
      hard:
        - name: {name}-ok
          check: {{field: data.ok, operator: eq, value: true}}
""")

PIPELINE = textwrap.dedent("""\
    contractspec: "1.0"
    kind: pipeline
    name: pipe
    stages:
      - {{name: first, contract: a.yaml}}
      - {{name: second, contract: b.yaml}}
    handoffs:
      - from: first
        to: second
        invariants:
          - name: fine
            check: {{field: data.value, operator: exists}}
          - name: handoff-check
            check: {check}
""")

BAD_HANDOFF_CHECKS = [
    pytest.param('{field: y, operator: matches, value: "("}', "invalid regular expression",
                 id="invalid-regex"),
    pytest.param("{field: y, operator: zz, value: 1}", "operator 'zz' is not one of",
                 id="unknown-operator"),
    pytest.param("{field: action.amount, operator: lt, value: 1}",
                 "cannot reference action", id="reads-the-action"),
]


@pytest.fixture()
def stage_dir(tmp_path):
    (tmp_path / "a.yaml").write_text(STAGE.format(name="stage-a"))
    (tmp_path / "b.yaml").write_text(STAGE.format(name="stage-b"))
    return tmp_path


@pytest.mark.parametrize("bad_check, message", BAD_HANDOFF_CHECKS)
def test_a_bad_handoff_invariant_fails_the_parse(stage_dir, bad_check, message):
    with pytest.raises(SemanticError, match=f"^handoff-check: .*{message}") as info:
        parse_pipeline(PIPELINE.format(check=bad_check), base_dir=str(stage_dir))
    # The span points at the offending invariant's entry (line 13).
    assert info.value.span is not None and info.value.span.line == 13


@pytest.mark.parametrize("bad_check, message", BAD_HANDOFF_CHECKS)
def test_cli_validate_rejects_a_bad_handoff_invariant(stage_dir, capsys, bad_check, message):
    pipe = stage_dir / "pipe.yaml"
    pipe.write_text(PIPELINE.format(check=bad_check))
    code = main(["validate", str(pipe)])
    err = capsys.readouterr().err
    assert code == 1
    assert "handoff-check" in err and message in err


def test_a_valid_handoff_invariant_parses(stage_dir):
    text = PIPELINE.format(check="{field: data.value, operator: range, value: [0, 1]}")
    pipeline = parse_pipeline(text, base_dir=str(stage_dir))
    assert [c.name for c in pipeline.handoffs[0].invariants] == ["fine", "handoff-check"]


def test_an_expression_reading_the_action_in_a_handoff_is_rejected(stage_dir):
    text = PIPELINE.format(check='{expr: "action.amount < 1"}')
    with pytest.raises(SemanticError, match="^handoff-check: .*cannot reference action"):
        parse_pipeline(text, base_dir=str(stage_dir))


# ---------------------------------------------------------------------------
# NaN fails every numeric rule, and a bool is no integer
# ---------------------------------------------------------------------------

NAN = float("nan")


class TestNanFailsClosed:
    """Each of these ran at the parent: a NaN drift weight gave every step a
    NaN drift and theta, and a NaN reference mass turned the distributional
    component off."""

    def test_a_nan_drift_weight(self):
        contract = base_contract(drift_config=DriftConfig(w_c=NAN))
        assert error_rules(contract) == [("drift", "bad-component-weights")]
        assert_rejected_everywhere(contract, r"^drift: w_c \+ w_d must equal 1")

    def test_a_nan_reliability_weight(self):
        contract = base_contract(reliability_weights=ReliabilityWeights(a1=NAN))
        assert error_rules(contract) == [("reliability", "bad-weights")]
        assert_rejected_everywhere(contract, r"^reliability: a1..a4 must be non-negative")

    def test_a_nan_reference_mass(self):
        contract = base_contract(drift_config=DriftConfig(
            vocabulary=("go", "stop"), reference={"go": NAN, "stop": 1.0}))
        assert error_rules(contract) == [("drift", "reference-not-normalized")]
        assert_rejected_everywhere(contract, r"^drift: reference must be a distribution")


@pytest.mark.parametrize("contract,rule", [
    (base_contract(satisfaction=SatisfactionParams(k=True)), "bad-recovery-window"),
    (base_contract(satisfaction=SatisfactionParams(T=False)), "bad-session-length"),
    (base_contract(drift_config=DriftConfig(window=True)), "bad-window"),
    (base_contract(recovery_strategies=(
        RecoveryStrategy(name="fix", type="re_prompt", max_attempts=True),)), "bad-max-attempts"),
    (base_contract(stages=True), "bad-stage-count"),
], ids=["k", "T", "window", "max_attempts", "stages"])
def test_a_bool_is_not_an_integer(contract, rule):
    assert rule in {r for _, r in error_rules(contract)}
    with pytest.raises(SemanticError):
        SessionMonitor(contract)
