"""Structural validation and value-object behavior of the core model."""

import pytest

from agentcontracts.errors import FormatError
from agentcontracts.expressions import compile_expression
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
    fallback_chain,
    validate_contract,
)


def field_check(path="output.ok", operator="eq", value=True):
    return Predicate(field_path=path, operator=operator, operand=value)


def minimal_contract(**overrides) -> Contract:
    base = dict(
        name="minimal",
        preconditions=(Constraint(name="ready", check=field_check("session.ready")),),
        invariants_hard=(Constraint(name="safe", severity="hard", check=field_check()),),
        invariants_soft=(
            Constraint(name="tone", severity="soft", recovery="fix",
                       check=field_check("output.tone", "ge", 0.5)),),
        recovery_strategies=(RecoveryStrategy(name="fix", type="re_prompt"),),
    )
    base.update(overrides)
    return Contract(**base)


class TestValidateContract:
    def test_minimal_valid_contract_has_no_issues(self):
        assert validate_contract(minimal_contract()) == []

    @pytest.mark.parametrize("section", ["preconditions", "invariants_hard"])
    @pytest.mark.parametrize("check", [
        field_check("action.amount", "lt", 10),
        field_check("action", "exists", None),
        Predicate(expression=compile_expression("x > 0 and min(1, action.amount) < 10")),
    ])
    def test_state_constraint_must_not_read_the_action(self, section, check):
        con = Constraint(name="reads", severity="hard", check=check)
        issues = validate_contract(minimal_contract(**{section: (con,)}))
        assert [(i.element, i.rule, i.severity) for i in issues] == [
            ("reads", "state-constraint-reads-action", "error")]

    def test_governance_may_read_the_action(self):
        check = Predicate(expression=compile_expression("action.amount < 10"))
        contract = minimal_contract(
            governance_hard=(Constraint(name="amt", severity="hard", check=check),))
        assert validate_contract(contract) == []

    @pytest.mark.parametrize("stages", [0, -1, 1.5])
    def test_stage_count_must_be_positive(self, stages):
        issues = validate_contract(minimal_contract(stages=stages))
        assert [i.rule for i in issues] == ["bad-stage-count"]

    def test_unresolved_recovery_reference(self):
        contract = minimal_contract(recovery_strategies=())
        issues = validate_contract(contract)
        assert [i.rule for i in issues] == ["unresolved-recovery-reference"]
        assert issues[0].element == "tone"

    def test_cyclic_fallback_chain(self):
        contract = minimal_contract(recovery_strategies=(
            RecoveryStrategy(name="fix", type="re_prompt", fallback="other"),
            RecoveryStrategy(name="other", type="escalate_human", fallback="fix"),
        ))
        rules = {i.rule for i in validate_contract(contract)}
        assert "cyclic-fallback-chain" in rules

    def test_fallback_rules_reported_in_order(self):
        contract = minimal_contract(recovery_strategies=(
            RecoveryStrategy(name="fix", type="re_prompt", fallback="loop"),
            RecoveryStrategy(name="loop", type="re_prompt", fallback="back"),
            RecoveryStrategy(name="back", type="re_prompt", fallback="loop"),
            RecoveryStrategy(name="orphan", type="emit_event", fallback="gone"),
        ))
        assert [(i.element, i.rule) for i in validate_contract(contract)] == [
            ("back", "cyclic-fallback-chain"), ("fix", "cyclic-fallback-chain"),
            ("loop", "cyclic-fallback-chain"), ("orphan", "unreferenced-strategy"),
            ("orphan", "unresolved-fallback-reference")]

    def test_fallback_chain_stops_at_an_undefined_name_or_before_a_repeat(self):
        a = RecoveryStrategy(name="A", type="re_prompt", fallback="B")
        b = RecoveryStrategy(name="B", type="re_prompt", fallback="A")
        c = RecoveryStrategy(name="C", type="re_prompt", fallback="missing")
        by_name = {"A": a, "B": b, "C": c}
        assert fallback_chain(by_name, "A") == ((a, b), True)
        assert fallback_chain(by_name, "B") == ((b, a), True)
        assert fallback_chain(by_name, "C") == ((c,), False)
        assert fallback_chain(by_name, None) == ((), False)

    def test_duplicate_constraint_names(self):
        contract = minimal_contract(
            governance_hard=(Constraint(name="safe", severity="hard",
                                        check=field_check("x", "exists", None)),))
        assert any(i.rule == "duplicate-name" for i in validate_contract(contract))

    def test_hard_constraint_with_recovery_rejected(self):
        contract = minimal_contract(
            invariants_hard=(Constraint(name="safe", severity="hard", recovery="fix",
                                        check=field_check()),))
        assert any(i.rule == "hard-with-recovery" for i in validate_contract(contract))

    def test_nonpositive_weight(self):
        contract = minimal_contract(
            governance_hard=(Constraint(name="w", severity="hard", weight=0.0,
                                        check=field_check("x", "exists", None)),))
        assert any(i.rule == "nonpositive-weight" for i in validate_contract(contract))

    def test_bad_range_operand(self):
        contract = minimal_contract(
            governance_hard=(Constraint(name="r", severity="hard",
                                        check=field_check("x", "range", [5, 1])),))
        assert any(i.rule == "bad-range-operand" for i in validate_contract(contract))

    @pytest.mark.parametrize("operator, value", [
        ("lt", float("nan")), ("le", float("inf")), ("gt", float("-inf")), ("ge", 10 ** 400),
        ("range", [0, float("inf")]), ("range", [float("nan"), 1]), ("range", [-10 ** 400, 1]),
    ])
    def test_non_finite_ordering_operand(self, operator, value):
        contract = minimal_contract(
            governance_hard=(Constraint(name="lim", severity="hard",
                                        check=field_check("x", operator, value)),))
        assert [(i.element, i.rule, i.severity) for i in validate_contract(contract)] == [
            ("lim", "non-finite-operand", "error")]

    @pytest.mark.parametrize("operator, value", [
        ("lt", 0), ("le", -1.5), ("gt", 10 ** 300), ("ge", 1e308), ("range", [-1e308, 2]),
        ("eq", float("inf")), ("ne", float("nan")),
    ])
    def test_finite_ordering_operands_and_equality_pass(self, operator, value):
        contract = minimal_contract(
            governance_hard=(Constraint(name="lim", severity="hard",
                                        check=field_check("x", operator, value)),))
        assert validate_contract(contract) == []

    def test_invalid_regex_operand(self):
        contract = minimal_contract(
            governance_hard=(Constraint(name="m", severity="hard",
                                        check=field_check("x", "matches", "([")),))
        assert any(i.rule == "bad-regex-operand" for i in validate_contract(contract))

    def test_drift_weights_must_sum_to_one(self):
        contract = minimal_contract(drift_config=DriftConfig(w_c=0.6, w_d=0.3))
        assert any(i.rule == "bad-component-weights" for i in validate_contract(contract))

    def test_drift_reference_must_normalize(self):
        config = DriftConfig(vocabulary=("a", "b"), reference={"a": 0.9, "b": 0.3})
        contract = minimal_contract(drift_config=config)
        assert any(i.rule == "reference-not-normalized" for i in validate_contract(contract))

    def test_drift_thresholds_ordered(self):
        contract = minimal_contract(drift_config=DriftConfig(theta1=0.5, theta2=0.2))
        assert any(i.rule == "bad-thresholds" for i in validate_contract(contract))

    def test_reliability_weights_sum(self):
        contract = minimal_contract(
            reliability_weights=ReliabilityWeights(a1=0.5, a2=0.5, a3=0.5, a4=0.5))
        assert any(i.rule == "bad-weights" for i in validate_contract(contract))

    def test_satisfaction_ranges(self):
        contract = minimal_contract(satisfaction=SatisfactionParams(p=1.3))
        assert any(i.rule == "p-out-of-range" for i in validate_contract(contract))

    def test_unreferenced_strategy_is_warning_only(self):
        contract = minimal_contract(recovery_strategies=(
            RecoveryStrategy(name="fix", type="re_prompt"),
            RecoveryStrategy(name="spare", type="emit_event"),
        ))
        issues = validate_contract(contract)
        assert all(i.severity == "warning" for i in issues)
        assert any(i.rule == "unreferenced-strategy" and i.element == "spare"
                   for i in issues)

    def test_strategy_reachable_via_fallback_not_warned(self):
        contract = minimal_contract(recovery_strategies=(
            RecoveryStrategy(name="fix", type="re_prompt", fallback="spare"),
            RecoveryStrategy(name="spare", type="escalate_human"),
        ))
        assert validate_contract(contract) == []

    def test_unknown_category_is_warning(self):
        contract = minimal_contract(
            governance_hard=(Constraint(name="g", severity="hard", category="finops",
                                        check=field_check("x", "exists", None)),))
        issues = validate_contract(contract)
        assert [i.severity for i in issues] == ["warning"]

    def test_deterministic_sorted_output(self):
        contract = minimal_contract(
            recovery_strategies=(),
            invariants_soft=(
                Constraint(name="z", severity="soft", recovery="gone",
                           check=field_check()),
                Constraint(name="a", severity="soft", recovery="gone2",
                           check=field_check("other")),
            ))
        first = validate_contract(contract)
        second = validate_contract(contract)
        assert first == second
        assert [i.element for i in first] == sorted(i.element for i in first)


class TestTrace:
    def test_state_action_length_invariant(self):
        with pytest.raises(ValueError):
            ExecutionTrace(states=({},), actions=(ActionRecord("a"),))

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            ExecutionTrace(states=({}, {}), actions=(ActionRecord(""),))

    @pytest.mark.parametrize("label,payload,named", [
        ("", {}, "label"), (None, {}, "label"), (5, {}, "label"), (b"go", {}, "label"),
        ("go", 5, "payload"), ("go", None, "payload"), ("go", [("amount", 1)], "payload")])
    def test_action_record_checks_its_own_shape(self, label, payload, named):
        # A payload that is no mapping once reached the governance checks and
        # crashed there with a bare TypeError.
        with pytest.raises(ValueError, match=f"^{named} must be"):
            ActionRecord(label, payload)

    @pytest.mark.parametrize("action,message", [
        ({"label": ""}, "actions[1].label must be a non-empty string, got ''"),
        ({"payload": {}}, "actions[1].label must be a non-empty string, got None"),
        ({"label": "go", "payload": 5}, "actions[1].payload must be a mapping, got int")])
    def test_wire_actions_name_the_element(self, action, message):
        doc = {"states": [{}, {}, {}], "actions": [{"label": "go"}, action]}
        with pytest.raises(FormatError) as info:
            ExecutionTrace.from_dict(doc)
        assert str(info.value) == message

    def test_trace_actions_must_be_action_records(self):
        with pytest.raises(ValueError, match="ActionRecord"):
            ExecutionTrace(states=({}, {}), actions=({"label": "go"},))

    def test_trace_states_must_be_mappings(self):
        # A state that is no mapping was once scored with every field
        # missing, and the session reported a hard violation.
        with pytest.raises(ValueError, match=r"^states\[0\] must be a mapping, got int$"):
            ExecutionTrace(states=(5, 6), actions=(ActionRecord("respond"),))
        with pytest.raises(ValueError, match=r"^states\[1\] must be a mapping, got list$"):
            ExecutionTrace(states=({}, []), actions=(ActionRecord("respond"),))

    def test_round_trip_dict(self):
        trace = ExecutionTrace(
            states=({"x": 1}, {"x": 2}),
            actions=(ActionRecord("go", {"cost": 3}),))
        assert ExecutionTrace.from_dict(trace.to_dict()) == trace

    def test_action_view_exposes_label_and_payload(self):
        action = ActionRecord("go", {"cost": 3})
        assert action.view() == {"cost": 3, "label": "go"}
        shadowing = ActionRecord("go", {"label": "custom"})
        assert shadowing.view()["label"] == "custom"
