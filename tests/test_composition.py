"""Contract composition: composed structure, conditions C1-C4, chain
bounds, and phase-scoped verification."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentcontracts import composition
from agentcontracts.composition import (
    ChainSpec,
    HandoffSpec,
    chain_bounds,
    check_boundaries,
    check_conditions,
    compose_chain,
    compose_contracts,
    verify_chain_trace,
)
from agentcontracts.engine import evaluate_constraint
from agentcontracts.errors import BadBoundaries, InsufficientSamples
from agentcontracts.model import (
    ActionRecord,
    Constraint,
    Contract,
    ExecutionTrace,
    Predicate,
    RecoveryStrategy,
    SatisfactionParams,
    validate_contract,
)
from agentcontracts.monitor import SessionMonitor, run_session

from helpers import (
    STATE_FIELDS,
    random_action,
    random_chain_instance,
    random_contract,
    random_state,
)


def rng_check(path, lo, hi):
    return Predicate(field_path=path, operator="range", operand=[lo, hi])


def agent(name, k=2, **kw):
    defaults = dict(
        invariants_hard=(Constraint(name=f"{name}-inv", severity="hard",
                                    check=rng_check(f"{name}.v", 0, 10)),),
        satisfaction=SatisfactionParams(k=k),
    )
    defaults.update(kw)
    return Contract(name=name, **defaults)


class TestComposeContracts:
    def test_recovery_window_is_max(self):
        composed = compose_contracts(agent("a", k=3), agent("b", k=5), HandoffSpec())
        assert composed.satisfaction.k == 5

    def test_empty_downstream_contributes_only_handoff(self):
        handoff = HandoffSpec(invariants=(
            Constraint(name="h", severity="hard", check=rng_check("h.v", 0, 1)),))
        empty = Contract(name="b")
        composed = compose_contracts(agent("a"), empty, handoff)
        names = {c.name for c in composed.invariants()}
        assert names == {"a-inv", "h"}

    def test_duplicate_names_prefixed_by_agent(self):
        a = Contract(name="left", invariants_hard=(
            Constraint(name="shared", severity="hard", check=rng_check("x", 0, 1)),))
        b = Contract(name="right", invariants_hard=(
            Constraint(name="shared", severity="hard", check=rng_check("y", 0, 1)),))
        composed = compose_contracts(a, b, HandoffSpec())
        names = sorted(c.name for c in composed.invariants())
        assert names == ["left.shared", "right.shared"]

    def test_phase_scopes_assigned(self):
        composed = compose_contracts(agent("a"), agent("b"), HandoffSpec(invariants=(
            Constraint(name="h", severity="hard", check=rng_check("h.v", 0, 1)),)))
        scopes = {c.name: c.scope for c in composed.invariants()}
        assert scopes == {"a-inv": "stage:0", "b-inv": "stage:1", "h": "handoff:0"}
        assert composed.stages == 2

    def test_governance_union_is_global(self):
        a = agent("a", governance_hard=(
            Constraint(name="ga", severity="hard", check=rng_check("cost", 0, 5)),))
        b = agent("b", governance_hard=(
            Constraint(name="gb", severity="hard", check=rng_check("cost", 0, 9)),))
        composed = compose_contracts(a, b, HandoffSpec())
        assert {c.name for c in composed.governance_hard} == {"ga", "gb"}
        assert all(c.scope is None for c in composed.governance_hard)

    def test_preconditions_come_from_upstream_only(self):
        a = agent("a", preconditions=(
            Constraint(name="pa", severity="hard", check=rng_check("r", 0, 1)),))
        b = agent("b", preconditions=(
            Constraint(name="pb", severity="hard", check=rng_check("r", 0, 1)),))
        composed = compose_contracts(a, b, HandoffSpec())
        assert [c.name for c in composed.preconditions] == ["pa"]

    def test_probabilistic_params_compose(self):
        a = agent("a", satisfaction=SatisfactionParams(p=0.95, delta=0.02, k=1))
        b = agent("b", satisfaction=SatisfactionParams(p=0.9, delta=0.03, k=2))
        composed = compose_contracts(a, b, HandoffSpec(p_h=0.98, delta_h=0.01))
        assert composed.satisfaction.p == pytest.approx(0.95 * 0.9 * 0.98)
        assert composed.satisfaction.delta == pytest.approx(0.06)

    def test_recovery_strategies_merged_with_rename(self):
        a = agent("a",
                  invariants_soft=(Constraint(name="sa", severity="soft", recovery="fix",
                                              check=rng_check("a.s", 0, 10)),),
                  recovery_strategies=(RecoveryStrategy(name="fix", type="re_prompt"),))
        b = agent("b",
                  invariants_soft=(Constraint(name="sb", severity="soft", recovery="fix",
                                              check=rng_check("b.s", 0, 10)),),
                  recovery_strategies=(RecoveryStrategy(name="fix", type="emit_event"),))
        composed = compose_contracts(a, b, HandoffSpec())
        strategy_names = sorted(s.name for s in composed.recovery_strategies)
        assert strategy_names == ["a.fix", "b.fix"]
        refs = {c.name: c.recovery for c in composed.invariants_soft}
        assert refs == {"sa": "a.fix", "sb": "b.fix"}

    def test_governance_recovery_references_follow_the_rename(self):
        def side(name, strategy_type):
            return agent(name,
                         governance_soft=(Constraint(name=f"{name}-g", severity="soft",
                                                     recovery="fix",
                                                     check=rng_check("cost", 0, 5)),),
                         recovery_strategies=(RecoveryStrategy(name="fix", type=strategy_type),))
        composed = compose_contracts(side("a", "re_prompt"), side("b", "escalate_human"),
                                     HandoffSpec())
        assert [(c.name, c.recovery) for c in composed.governance_soft] == [
            ("a-g", "a.fix"), ("b-g", "b.fix")]
        assert [i for i in validate_contract(composed) if i.severity == "error"] == []

        hook = lambda strategy, con, state: (state, ActionRecord("pay", {"cost": 1}))
        monitor = SessionMonitor(composed, hook=hook, boundaries=[1])
        report = monitor.step({"a": {"v": 5}}, ActionRecord("pay", {"cost": 9}))
        assert [(e.kind, e.payload.get("strategy")) for e in report.events
                if e.kind.startswith("recovery")] == [
            ("recovery_attempted", "a.fix"), ("recovery_succeeded", "a.fix")]

    def test_fallback_references_follow_the_rename(self):
        a = agent("a", recovery_strategies=(
            RecoveryStrategy(name="fix", type="re_prompt", fallback="esc"),
            RecoveryStrategy(name="esc", type="escalate_human", fallback="log"),
            RecoveryStrategy(name="log", type="emit_event")))
        b = agent("b", recovery_strategies=(
            RecoveryStrategy(name="esc", type="escalate_human", fallback="gone"),))
        composed = compose_contracts(a, b, HandoffSpec())
        assert [(s.name, s.fallback) for s in composed.recovery_strategies] == [
            ("fix", "a.esc"), ("a.esc", "log"), ("log", None), ("b.esc", "gone")]

    def test_a_prefixed_name_never_clashes_with_a_kept_one(self):
        # ``a`` holds ``x`` and ``b.x``: prefixing the shared ``x`` by agent
        # alone gave ``a.x``, ``b.x``, ``b.x``.
        a = Contract(name="a", invariants_hard=(
            Constraint(name="x", severity="hard", check=rng_check("p", 0, 1)),
            Constraint(name="b.x", severity="hard", check=rng_check("q", 0, 1))))
        b = Contract(name="b", invariants_hard=(
            Constraint(name="x", severity="hard", check=rng_check("r", 0, 1)),))
        composed = compose_contracts(a, b, HandoffSpec())
        assert [c.name for c in composed.invariants_hard] == ["a.x", "b.x", "b.b.x"]
        assert validate_contract(composed) == []

    def test_a_prefixed_strategy_never_clashes_with_a_kept_one(self):
        def soft(name, recovery, path):
            return Constraint(name=name, severity="soft", recovery=recovery,
                              check=rng_check(path, 0, 1))

        a = Contract(name="a", invariants_soft=(soft("sa", "fix", "p"), soft("sa2", "b.fix", "q")),
                     recovery_strategies=(RecoveryStrategy(name="fix", type="re_prompt"),
                                          RecoveryStrategy(name="b.fix", type="emit_event")))
        b = Contract(name="b", invariants_soft=(soft("sb", "fix", "r"),),
                     recovery_strategies=(RecoveryStrategy(name="fix", type="escalate_human"),))
        composed = compose_contracts(a, b, HandoffSpec())
        assert [(s.name, s.type) for s in composed.recovery_strategies] == [
            ("a.fix", "re_prompt"), ("b.fix", "emit_event"), ("b.b.fix", "escalate_human")]
        assert [(c.name, c.recovery) for c in composed.invariants_soft] == [
            ("sa", "a.fix"), ("sa2", "b.fix"), ("sb", "b.b.fix")]
        assert validate_contract(composed) == []

    def test_three_stage_fold(self):
        composed = compose_chain(
            [agent("a"), agent("b"), agent("c")],
            [HandoffSpec(), HandoffSpec()])
        assert composed.stages == 3
        scopes = {c.name: c.scope for c in composed.invariants()}
        assert scopes["c-inv"] == "stage:2"


class TestCheckConditions:
    def test_clean_instance_passes_all(self):
        rng = np.random.default_rng(41)
        inst = random_chain_instance(rng)
        report = check_conditions(inst["a"], inst["b"], inst["handoff"],
                                  inst["witnesses"], inst["corpus"])
        assert report.all_pass
        assert report.c2_assumptions.checked > 0

    def test_c1_missing_mapped_field(self):
        rng = np.random.default_rng(43)
        inst = random_chain_instance(rng, fault="c1")
        report = check_conditions(inst["a"], inst["b"], inst["handoff"],
                                  inst["witnesses"], inst["corpus"])
        assert report.c1_interface.passed is False
        assert any("missing" in w[2] for w in report.c1_interface.witnesses)

    def test_c1_kind_mismatch(self):
        # Upstream emits a string where downstream preconditions need a number.
        a = agent("up")
        b = agent("down", preconditions=(
            Constraint(name="pre", severity="hard",
                       check=rng_check("handoff.value", 0, 1)),))
        handoff = HandoffSpec(type_map={"handoff.value": "handoff.value"})
        samples = [{"handoff": {"value": "not-a-number"}, "up": {"v": 1}}]
        report = check_conditions(a, b, handoff, samples)
        assert report.c1_interface.passed is False

    def test_c2_assumption_not_discharged(self):
        rng = np.random.default_rng(47)
        inst = random_chain_instance(rng, fault="c2")
        report = check_conditions(inst["a"], inst["b"], inst["handoff"],
                                  inst["witnesses"], inst["corpus"])
        assert report.c2_assumptions.passed is False
        assert report.c2_assumptions.witnesses[0][1] == "b-input-ready"

    def test_c3_conflicting_label_detected_symbolically(self):
        a = agent("up", governance_hard=(
            Constraint(name="a-allows", severity="hard",
                       check=Predicate(field_path="label", operator="in",
                                       operand=["search", "access_demographics"])),))
        b = agent("down", governance_hard=(
            Constraint(name="b-prohibits", severity="hard",
                       check=Predicate(field_path="label", operator="not_in",
                                       operand=["access_demographics"])),))
        report = check_conditions(a, b, HandoffSpec(), [{"up": {"v": 1}}])
        assert report.c3_governance.passed is False
        assert any("access_demographics" in str(w) for w in report.c3_governance.witnesses)

    @pytest.mark.parametrize("b_path", ["amount", "action.amount"])
    def test_c3_one_field_under_two_spellings(self, b_path):
        a = agent("up", governance_hard=(
            Constraint(name="a-exact", severity="hard",
                       check=Predicate(field_path="amount", operator="eq", operand=50)),))
        b = agent("down", governance_hard=(
            Constraint(name="b-cap", severity="hard",
                       check=Predicate(field_path=b_path, operator="le", operand=10)),))
        report = check_conditions(a, b, HandoffSpec(), [{"up": {"v": 1}}])
        assert report.c3_governance.passed is False
        assert report.c3_governance.witnesses == (("value", "amount", 50, "b-cap"),)

    @pytest.mark.parametrize("pre_path", ["amount", "state.amount"])
    @pytest.mark.parametrize("target", ["amount", "state.amount"])
    def test_c1_reads_a_precondition_under_either_spelling(self, pre_path, target):
        b = agent("down", preconditions=(
            Constraint(name="pre", severity="hard",
                       check=Predicate(field_path=pre_path, operator="ge", operand=0)),))
        handoff = HandoffSpec(type_map={"out.amount": target})
        report = check_conditions(agent("up"), b, handoff, [{"out": {"amount": "ten"}}])
        assert report.c1_interface.witnesses == (
            (0, "out.amount", f"kind string incompatible with {target} (number)"),)

    @pytest.mark.parametrize("upstream", ["amount", "state.amount"])
    def test_c1_reads_an_upstream_path_under_either_spelling(self, upstream):
        # Both spellings name one field of the sample; a witness keeps the
        # path as the type map writes it.
        b = agent("down", preconditions=(
            Constraint(name="pre", severity="hard",
                       check=Predicate(field_path="amount", operator="ge", operand=0)),))
        handoff = HandoffSpec(type_map={upstream: "amount"})
        report = check_conditions(agent("up"), b, handoff, [{"amount": 5}, {"amount": "ten"},
                                                            {"other": 1}])
        assert report.c1_interface.witnesses == (
            (1, upstream, "kind string incompatible with amount (number)"),
            (2, upstream, "missing in upstream output"))

    def test_c3_an_exists_predicate_neither_permits_nor_rejects(self):
        def gov(name, operator, operand=None):
            return Constraint(name=name, severity="hard", check=Predicate(
                field_path="amount", operator=operator, operand=operand))

        a = agent("up", governance_hard=(gov("a-exact", "eq", 50), gov("a-present", "exists")))
        b = agent("down", governance_hard=(gov("b-present", "exists"), gov("b-cap", "le", 10)))
        report = check_conditions(a, b, HandoffSpec(), [{"up": {"v": 1}}])
        assert report.c3_governance.witnesses == (("value", "amount", 50, "b-cap"),)

    def test_c3_detected_from_action_corpus(self):
        rng = np.random.default_rng(53)
        inst = random_chain_instance(rng, fault="c3")
        report = check_conditions(inst["a"], inst["b"], inst["handoff"],
                                  inst["witnesses"], inst["corpus"])
        assert report.c3_governance.passed is False

    def test_c4_recovery_side_effect(self):
        rng = np.random.default_rng(59)
        inst = random_chain_instance(rng, fault="c4")
        report = check_conditions(inst["a"], inst["b"], inst["handoff"],
                                  inst["witnesses"], inst["corpus"],
                                  recovery_transform=inst["transform"])
        assert report.c4_recovery.passed is False

    def test_empty_samples_rejected(self):
        with pytest.raises(InsufficientSamples):
            check_conditions(agent("a"), agent("b"), HandoffSpec(), [])


class TestChainBounds:
    def test_broken_telephone_reference(self):
        spec = ChainSpec.uniform(5, p=0.95, delta=0.02, p_h=0.98, delta_h=0.01)
        bounds = chain_bounds(spec)
        assert bounds.p_chain_lower == pytest.approx(0.95 ** 5 * 0.98 ** 4)
        assert bounds.p_chain_lower == pytest.approx(0.714, abs=1e-3)
        assert bounds.delta_chain_upper == pytest.approx(0.14)

    def test_single_agent_unchanged(self):
        bounds = chain_bounds(ChainSpec(p_agents=(0.9,), delta_agents=(0.05,)))
        assert bounds.p_chain_lower == 0.9
        assert bounds.delta_chain_upper == 0.05
        assert bounds.p_frechet_lower == 0.9

    def test_perfect_stage_drops_out(self):
        spec = ChainSpec(p_agents=(1.0, 0.9), delta_agents=(0.0, 0.1),
                         p_handoffs=(1.0,), delta_handoffs=(0.0,))
        assert chain_bounds(spec).p_chain_lower == pytest.approx(0.9)

    def test_delta_capped_at_one(self):
        spec = ChainSpec.uniform(30, p=0.99, delta=0.1, p_h=1.0, delta_h=0.0)
        assert chain_bounds(spec).delta_chain_upper == 1.0

    def test_monotonicity(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            p = rng.uniform(0.5, 1.0, size=n)
            d = rng.uniform(0.0, 0.2, size=n)
            ph = rng.uniform(0.5, 1.0, size=n - 1)
            dh = rng.uniform(0.0, 0.1, size=n - 1)
            base = chain_bounds(ChainSpec(tuple(p), tuple(d), tuple(ph), tuple(dh)))
            i = int(rng.integers(n))
            p_up = p.copy(); p_up[i] = min(1.0, p_up[i] + 0.05)
            up = chain_bounds(ChainSpec(tuple(p_up), tuple(d), tuple(ph), tuple(dh)))
            assert up.p_chain_lower >= base.p_chain_lower
            d_up = d.copy(); d_up[i] = d_up[i] + 0.05
            dup = chain_bounds(ChainSpec(tuple(p), tuple(d_up), tuple(ph), tuple(dh)))
            assert dup.delta_chain_upper >= base.delta_chain_upper

    def test_frechet_never_exceeds_product(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            spec = ChainSpec(
                p_agents=tuple(rng.uniform(0.0, 1.0, size=n)),
                delta_agents=tuple(rng.uniform(0.0, 0.3, size=n)),
                p_handoffs=tuple(rng.uniform(0.0, 1.0, size=n - 1)),
                delta_handoffs=tuple(rng.uniform(0.0, 0.1, size=n - 1)),
                conditional_independence_assumed=False,
            )
            bounds = chain_bounds(spec)
            assert bounds.p_frechet_lower <= bounds.p_chain_lower + 1e-12


class TestVerifyChainTrace:
    def make_pair(self):
        a = agent("a", invariants_soft=(
            Constraint(name="a-soft", severity="soft", recovery="fix",
                       check=rng_check("a.s", 1, 10)),),
            recovery_strategies=(RecoveryStrategy(name="fix", type="re_prompt"),))
        b = agent("b")
        handoff = HandoffSpec(invariants=(
            Constraint(name="h", severity="hard", check=rng_check("h.v", 0, 1)),))
        return compose_contracts(a, b, handoff)

    def clean_state(self, a_soft=5.0):
        return {"a": {"v": 5, "s": a_soft}, "b": {"v": 5}, "h": {"v": 0.5}}

    def test_clean_chain_satisfied(self):
        composed = self.make_pair()
        states = tuple(self.clean_state() for _ in range(5))
        trace = ExecutionTrace(states=states, actions=(ActionRecord("go"),) * 4)
        verdict = verify_chain_trace(composed, trace, boundaries=[2])
        assert verdict.overall is True

    def test_handoff_violation_at_boundary(self):
        composed = self.make_pair()
        states = [self.clean_state() for _ in range(5)]
        states[2] = {"a": {"v": 5, "s": 5}, "b": {"v": 5}, "h": {"v": 9}}
        trace = ExecutionTrace(states=tuple(states), actions=(ActionRecord("go"),) * 4)
        verdict = verify_chain_trace(composed, trace, boundaries=[2])
        assert verdict.invariants_ok is False
        assert (2, "h") in verdict.witnesses["invariants"]

    def test_handoff_field_ignored_off_boundary(self):
        composed = self.make_pair()
        states = [self.clean_state() for _ in range(5)]
        states[0] = {"a": {"v": 5, "s": 5}, "b": {"v": 5}, "h": {"v": 9}}
        trace = ExecutionTrace(states=tuple(states), actions=(ActionRecord("go"),) * 4)
        assert verify_chain_trace(composed, trace, boundaries=[2]).overall is True

    def test_upstream_invariant_not_enforced_downstream(self):
        composed = self.make_pair()
        states = [self.clean_state() for _ in range(5)]
        states[4] = {"a": {"v": 99, "s": 5}, "b": {"v": 5}, "h": {"v": 0.5}}  # after handoff
        trace = ExecutionTrace(states=tuple(states), actions=(ActionRecord("go"),) * 4)
        assert verify_chain_trace(composed, trace, boundaries=[2]).overall is True

    def test_upstream_soft_violation_recovered_within_composed_k(self):
        composed = self.make_pair()
        assert composed.satisfaction.k == 2
        states = [self.clean_state() for _ in range(5)]
        states[1] = self.clean_state(a_soft=0.0)  # dip inside A's phase
        trace = ExecutionTrace(states=tuple(states), actions=(ActionRecord("go"),) * 4)
        verdict = verify_chain_trace(composed, trace, boundaries=[2])
        assert verdict.recoverability_ok is True
        assert verdict.overall is True

    def test_bad_boundaries(self):
        composed = self.make_pair()
        states = tuple(self.clean_state() for _ in range(5))
        trace = ExecutionTrace(states=states, actions=(ActionRecord("go"),) * 4)
        with pytest.raises(BadBoundaries):
            verify_chain_trace(composed, trace, boundaries=[])
        with pytest.raises(BadBoundaries):
            verify_chain_trace(composed, trace, boundaries=[9])

    # One validator guards every entry point that takes stage boundaries.
    BAD_BOUNDARIES = [
        pytest.param([], id="too-few"),
        pytest.param([1, 3], id="too-many"),
        pytest.param([9], id="past-the-trace"),
        pytest.param([-1], id="negative"),
        pytest.param(["x"], id="junk-string"),
        pytest.param([2.0], id="float"),
        pytest.param([True], id="bool"),
        pytest.param(5, id="not-a-list"),
    ]

    @pytest.mark.parametrize("boundaries", BAD_BOUNDARIES)
    def test_check_boundaries_rejects(self, boundaries):
        with pytest.raises(BadBoundaries):
            check_boundaries(boundaries, n_stages=2, trace_length=4)

    def test_check_boundaries_rejects_non_increasing(self):
        with pytest.raises(BadBoundaries):
            check_boundaries([3, 3], n_stages=3, trace_length=4)
        with pytest.raises(BadBoundaries):
            check_boundaries([5, 3], n_stages=3, trace_length=6)
        assert check_boundaries(np.array([1, 3]), n_stages=3, trace_length=4) == (1, 3)

    @pytest.mark.parametrize("boundaries", BAD_BOUNDARIES)
    def test_verify_and_run_session_reject(self, boundaries):
        composed = self.make_pair()
        states = tuple(self.clean_state() for _ in range(5))
        trace = ExecutionTrace(states=states, actions=(ActionRecord("go"),) * 4)
        with pytest.raises(BadBoundaries):
            verify_chain_trace(composed, trace, boundaries=boundaries)
        with pytest.raises(BadBoundaries):
            run_session(composed, trace, boundaries=boundaries)

    def test_run_session_rejects_boundaries_on_short_trace(self):
        composed = compose_chain([agent("a"), agent("b"), agent("c")],
                                 [HandoffSpec(), HandoffSpec()])
        trace = ExecutionTrace(states=({}, {}), actions=(ActionRecord("go"),))
        with pytest.raises(BadBoundaries):
            run_session(composed, trace, boundaries=[5, 3])


class TestCompositionalityProperty:
    def test_valid_instances_compose_and_faults_are_detected(self):
        rng = np.random.default_rng(71)
        from agentcontracts.engine import check_deterministic
        for _ in range(40):
            inst = random_chain_instance(rng)
            a, b, handoff = inst["a"], inst["b"], inst["handoff"]
            boundary, trace = inst["boundary"], inst["trace"]

            sub_a = ExecutionTrace(states=trace.states[:boundary + 1],
                                   actions=trace.actions[:boundary])
            sub_b = ExecutionTrace(states=trace.states[boundary:],
                                   actions=trace.actions[boundary:])
            assert check_deterministic(a, sub_a).overall
            assert check_deterministic(b, sub_b).overall
            report = check_conditions(a, b, handoff, inst["witnesses"], inst["corpus"])
            assert report.all_pass

            composed = compose_contracts(a, b, handoff)
            verdict = verify_chain_trace(composed, trace, boundaries=[boundary])
            assert verdict.overall, verdict.witnesses

        fault_attr = {"c1": "c1_interface", "c2": "c2_assumptions",
                      "c3": "c3_governance", "c4": "c4_recovery"}
        for fault, attr in fault_attr.items():
            for _ in range(10):
                inst = random_chain_instance(rng, fault=fault)
                report = check_conditions(
                    inst["a"], inst["b"], inst["handoff"],
                    inst["witnesses"], inst["corpus"],
                    recovery_transform=inst["transform"])
                assert getattr(report, attr).passed is False, fault


class TestPhaseScoping:
    """Composition carries the stage count; the monitor checks boundaries."""

    @staticmethod
    def governance_only(name):
        return Contract(name=name, governance_hard=(
            Constraint(name=f"{name}-gov", severity="hard", check=rng_check("cost", 0, 9)),))

    def test_governance_only_stage_is_counted(self):
        a, b, c = agent("a"), self.governance_only("b"), agent("c")
        assert compose_chain([a, b], [HandoffSpec()]).stages == 2
        composed = compose_chain([a, b, c], [HandoffSpec(), HandoffSpec()])
        assert composed.stages == 3
        assert {x.name: x.scope for x in composed.invariants()} == {
            "a-inv": "stage:0", "c-inv": "stage:2"}

        # c's invariant fails only inside b's stage (states 2..4).
        states = [{"a": {"v": 5}, "c": {"v": 5}} for _ in range(7)]
        states[3] = {"a": {"v": 5}, "c": {"v": 50}}
        trace = ExecutionTrace(states=tuple(states),
                               actions=(ActionRecord("go", {"cost": 1}),) * 6)
        assert verify_chain_trace(composed, trace, boundaries=[2, 4]).overall is True
        report = run_session(composed, trace, boundaries=[2, 4])
        assert report.verdict.overall is True
        assert report.outcome == "compliant"

    @staticmethod
    def three_stages():
        handoff = lambda j: HandoffSpec(invariants=(
            Constraint(name=f"h{j}", severity="hard", check=rng_check(f"h{j}.v", 0, 1)),))
        return compose_chain([agent("a"), agent("b"), agent("c")], [handoff(0), handoff(1)])

    @pytest.mark.parametrize("boundaries", [
        pytest.param([2], id="too-few"),
        pytest.param([3, 1], id="decreasing"),
        pytest.param(None, id="none"),
    ])
    def test_monitor_and_run_session_check_boundaries(self, boundaries):
        composed = self.three_stages()
        trace = ExecutionTrace(states=({},) * 5, actions=(ActionRecord("go"),) * 4)
        with pytest.raises(BadBoundaries):
            SessionMonitor(composed, boundaries=boundaries, trace_length=4)
        with pytest.raises(BadBoundaries):
            run_session(composed, trace, boundaries=boundaries)

    def test_streaming_monitor_has_no_upper_bound(self):
        composed = self.three_stages()
        assert SessionMonitor(composed, boundaries=[2, 900]).boundaries == (2, 900)
        with pytest.raises(BadBoundaries):
            SessionMonitor(composed, boundaries=[2, 900], trace_length=10)
        with pytest.raises(BadBoundaries):
            SessionMonitor(composed, boundaries=[-1, 2])

    def test_single_stage_contract_takes_no_boundaries(self):
        with pytest.raises(BadBoundaries):
            SessionMonitor(agent("a"), boundaries=[1], trace_length=4)
        assert SessionMonitor(agent("a"), trace_length=4).boundaries == ()


@st.composite
def chains(draw):
    """A 2-3-stage chain of random contracts (some with governance only),
    handoffs with 0-2 invariants, valid boundaries and a 0-6-step trace.
    Every name is made unique up front, so composition renames nothing and
    each invariant's stage is known from its name."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 3))
    contracts, stage_of = [], {}
    for i in range(n):
        contract = random_contract(rng)
        rename = lambda cons: tuple(replace(c, name=f"s{i}.{c.name}") for c in cons)
        contract = replace(
            contract, name=f"s{i}", preconditions=rename(contract.preconditions),
            invariants_hard=rename(contract.invariants_hard),
            invariants_soft=rename(contract.invariants_soft),
            governance_hard=rename(contract.governance_hard),
            governance_soft=rename(contract.governance_soft))
        if draw(st.booleans()):
            contract = replace(contract, invariants_hard=(), invariants_soft=())
        stage_of.update({c.name: ("stage", i) for c in contract.invariants()})
        contracts.append(contract)
    handoffs = []
    for j in range(n - 1):
        invariants = tuple(
            Constraint(name=f"h{j}.{k}", severity=draw(st.sampled_from(["hard", "soft"])),
                       check=Predicate(field_path=draw(st.sampled_from(STATE_FIELDS[:2])),
                                       operator="ge", operand=float(draw(st.integers(0, 5)))))
            for k in range(draw(st.integers(0, 2))))
        stage_of.update({c.name: ("handoff", j) for c in invariants})
        handoffs.append(HandoffSpec(invariants=invariants))
    steps = draw(st.integers(n - 2, 6))
    boundaries = sorted(draw(st.sets(st.integers(0, steps), min_size=n - 1, max_size=n - 1)))
    trace = ExecutionTrace(states=tuple(random_state(rng) for _ in range(steps + 1)),
                           actions=tuple(random_action(rng) for _ in range(steps)))
    return contracts, handoffs, boundaries, trace, stage_of


@given(chains())
@settings(max_examples=200, deadline=None)
def test_phase_scoping_binds_each_invariant_in_its_own_stage(case):
    contracts, handoffs, boundaries, trace, stage_of = case
    composed = compose_chain(contracts, handoffs)
    assert composed.stages == len(contracts)

    verdict = verify_chain_trace(composed, trace, boundaries)
    assert run_session(composed, trace, boundaries=boundaries).verdict == verdict

    # Stage i spans [b_{i-1}, b_i] (the last stage runs to the end of the
    # trace); handoff j binds at b_j only.
    cuts = [0] + list(boundaries) + [trace.length]

    def bound_at(name):
        kind, j = stage_of[name]
        return [boundaries[j]] if kind == "handoff" else range(cuts[j], cuts[j + 1] + 1)

    expected = {(idx, con.name) for con in composed.invariants_hard for idx in bound_at(con.name)
                if evaluate_constraint(con, trace.states[idx], None, "state").satisfied is False}
    assert set(verdict.witnesses["invariants"]) == expected
    for idx, name in verdict.witnesses["recoverability"]:
        if name in stage_of:
            assert idx in bound_at(name)


# ---------------------------------------------------------------------------
# Composition keeps names unique
# ---------------------------------------------------------------------------

NAMES = ("x", "y", "a.x", "b.x", "a.y", "b.b.x", "handoff.x", "random.x", "fix")


@st.composite
def dotted_contracts(draw):
    """A valid random contract under a drawn name, its constraints and 0-2
    strategies renamed from a pool of plain and dotted names; every soft
    constraint recovers through the first strategy."""
    contract = random_contract(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    count = len(contract.all_constraints())
    names = iter(draw(st.lists(st.sampled_from(NAMES), min_size=count, max_size=count,
                               unique=True)))
    strategies = tuple(RecoveryStrategy(name=name, type="re_prompt")
                       for name in draw(st.lists(st.sampled_from(NAMES), max_size=2, unique=True)))
    recovery = strategies[0].name if strategies else None

    def rename(section):
        return tuple(replace(c, name=next(names),
                             recovery=recovery if c.severity == "soft" else None)
                     for c in section)

    return replace(contract, name=draw(st.sampled_from(["a", "b", "random"])),
                   preconditions=rename(contract.preconditions),
                   invariants_hard=rename(contract.invariants_hard),
                   invariants_soft=rename(contract.invariants_soft),
                   governance_hard=rename(contract.governance_hard),
                   governance_soft=rename(contract.governance_soft),
                   recovery_strategies=strategies)


def error_issues(contract):
    return [i for i in validate_contract(contract) if i.severity == "error"]


@given(dotted_contracts(), dotted_contracts(),
       st.lists(st.sampled_from(NAMES), max_size=2, unique=True))
@settings(max_examples=300, deadline=None)
def test_composing_two_valid_contracts_gives_a_valid_one(a, b, handoff_names):
    handoff = HandoffSpec(invariants=tuple(
        Constraint(name=name, severity="hard", check=Predicate(
            field_path=STATE_FIELDS[0], operator="ge", operand=1.0))
        for name in handoff_names))
    assert error_issues(a) == error_issues(b) == []
    composed = compose_contracts(a, b, handoff)
    assert error_issues(composed) == []

    # A name held by one side only is kept.
    sides = (a.all_constraints(), b.all_constraints(), handoff.invariants)
    held = Counter(name for side in sides for name in {c.name for c in side})
    composed_names = {c.name for c in composed.all_constraints()}
    for con in a.all_constraints() + b.invariants() + b.governance() + handoff.invariants:
        assert con.name in composed_names or held[con.name] > 1
    strategy_held = Counter(s.name for side in (a, b)
                            for s in side.recovery_strategies)
    composed_strategies = {s.name for s in composed.recovery_strategies}
    for s in a.recovery_strategies + b.recovery_strategies:
        assert s.name in composed_strategies or strategy_held[s.name] > 1


# ---------------------------------------------------------------------------
# check_conditions against a constraint-by-constraint reference
# ---------------------------------------------------------------------------

def reference_conditions(a, b, h, samples, actions, transform) -> dict:
    """C2-C4 witnesses and ``checked`` counts, each constraint evaluated
    alone by :func:`evaluate_constraint`; C3's symbolic witnesses follow
    its corpus ones."""
    def holds(constraints, state, target="state", action=None):
        return all(evaluate_constraint(c, state, action, target).satisfied is True
                   for c in constraints)

    c2, c2_checked = [], 0
    for i, sample in enumerate(samples):
        if holds(a.invariants(), sample) and holds(h.invariants, sample):
            c2_checked += 1
            c2 += [(i, c.name) for c in b.preconditions if not holds([c], sample)]
    c3 = [("action", action.label) for action in actions
          if holds(a.governance(), {}, "action", action)
          and any(evaluate_constraint(g, {}, action, "action").satisfied is False
                  for g in b.governance())]
    c3 += composition._symbolic_governance_conflicts(a, b)
    c4 = [(i, c.name) for i, sample in enumerate(samples) for c in b.preconditions
          if not holds([c], transform(sample))]
    return {"C2": (tuple(c2), c2_checked), "C3": (tuple(c3), len(actions)),
            "C4": (tuple(c4), len(samples))}


def drawn_policies(constraints, rng) -> tuple:
    """``constraints``, each with an on_missing policy drawn at random."""
    return tuple(replace(c, on_missing=str(rng.choice(["violate", "satisfy", "skip"])))
                 for c in constraints)


def with_missing_policies(contract, rng, cap_name):
    """``contract`` with drawn on_missing policies and a hard governance cap
    on the optional payload field ``amount``."""
    cap = Constraint(name=cap_name, severity="hard", check=Predicate(
        field_path="amount", operator="le", operand=float(rng.integers(0, 6))))
    return replace(contract, preconditions=drawn_policies(contract.preconditions, rng),
                   invariants_hard=drawn_policies(contract.invariants_hard, rng),
                   invariants_soft=drawn_policies(contract.invariants_soft, rng),
                   governance_hard=drawn_policies(contract.governance_hard + (cap,), rng))


@pytest.mark.parametrize("fault", ["none", "c1", "c2", "c3", "c4"])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_check_conditions_matches_the_reference(fault, seed):
    rng = np.random.default_rng(seed)
    inst = random_chain_instance(rng, fault=fault)
    a = with_missing_policies(inst["a"], rng, "a-cap")
    b = with_missing_policies(inst["b"], rng, "b-cap")
    handoff = replace(inst["handoff"], invariants=drawn_policies(inst["handoff"].invariants, rng))
    # The instance's witnesses, its trace states, and copies of the
    # witnesses with values drawn around every threshold (or dropped).
    samples = list(inst["witnesses"]) + list(inst["trace"].states)
    for witness in inst["witnesses"]:
        sample = {k: dict(v) for k, v in witness.items()}
        for part, key in (("work", "quality"), ("work", "style"), ("handoff", "value")):
            if rng.random() < 0.2:
                sample[part].pop(key, None)
            else:
                sample[part][key] = float(rng.uniform(0.0, 6.0))
        samples.append(sample)
    labels = ["alpha", "beta", "gamma", "delta", "omega", "other"]
    actions = list(inst["corpus"]) + [
        ActionRecord(str(rng.choice(labels)),
                     {"amount": float(rng.integers(0, 6))} if rng.random() < 0.5 else {})
        for _ in range(6)]
    transform = inst["transform"] or (lambda state: state)

    report = check_conditions(a, b, handoff, samples, actions,
                              recovery_transform=inst["transform"])
    want = reference_conditions(a, b, handoff, samples, actions, transform)
    got = {"C2": report.c2_assumptions, "C3": report.c3_governance, "C4": report.c4_recovery}
    for key, result in got.items():
        assert (result.witnesses, result.checked) == want[key], key
