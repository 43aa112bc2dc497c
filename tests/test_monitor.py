"""Runtime monitor: enforcement ordering, recovery chains, session reports,
and (p, delta, k) verdicts."""

import json
import time
import tracemalloc
from collections import Counter
from collections.abc import Mapping

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agentcontracts.assets import asset_path
from agentcontracts import engine
from agentcontracts.errors import (BadHookReturn, EmptyEnsemble, ListenerError, RecoveryHookError,
                                  SemanticError, SessionTerminated, TraceTooShort)
from agentcontracts.expressions import compile_expression
from agentcontracts.model import (
    ActionRecord,
    Constraint,
    Contract,
    DriftConfig,
    ExecutionTrace,
    MAX_RECOVERY_ATTEMPTS,
    RECOVERY_TYPES,
    Predicate,
    RecoveryStrategy,
    SatisfactionParams,
)
from agentcontracts.monitor import SessionMonitor, pdk_verdict, run_session
from agentcontracts.parser import load_contract


def ge(path, threshold):
    return Predicate(field_path=path, operator="ge", operand=threshold)


QUIET_DRIFT = DriftConfig(theta1=0.98, theta2=0.99)


def tone_contract(strategies=None, k=2):
    if strategies is None:
        strategies = (RecoveryStrategy(name="fix", type="re_prompt", max_attempts=2),)
    return Contract(
        name="tone-demo",
        invariants_hard=(Constraint(name="safe", severity="hard", check=ge("safety", 1)),),
        invariants_soft=(Constraint(name="tone", severity="soft", recovery="fix",
                                    check=ge("tone", 1)),),
        recovery_strategies=tuple(strategies),
        satisfaction=SatisfactionParams(k=k),
        drift_config=QUIET_DRIFT,
    )


def trace_of(tones, safety=None):
    states = tuple({"tone": t, "safety": 5 if safety is None else safety[i]}
                   for i, t in enumerate(tones))
    return ExecutionTrace(states=states,
                          actions=tuple(ActionRecord("go") for _ in range(len(tones) - 1)))


class TestMonitorStep:
    def test_action_must_be_an_action_record(self):
        # A bare label once raised AttributeError from inside the step.
        monitor = SessionMonitor(tone_contract())
        monitor.step({"tone": 5, "safety": 5}, ActionRecord("go"))
        with pytest.raises(ValueError,
                           match=r"^step 1: action must be an ActionRecord, got str$"):
            monitor.step({}, "respond")
        assert len(monitor.step_reports) == 1
        assert monitor.step({"tone": 5, "safety": 5}, ActionRecord("go")).step == 1

    def test_state_must_be_a_mapping(self):
        # A state that is no mapping was once scored with every field
        # missing: c_hard == c_soft == 0.0, silently.
        monitor = SessionMonitor(tone_contract())
        with pytest.raises(ValueError, match=r"^step 0: state must be a mapping, got int$"):
            monitor.step(5, ActionRecord("respond"))
        assert monitor.step_reports == []
        assert monitor.step({"tone": 5, "safety": 5}, ActionRecord("go")).step == 0

    def test_clean_step_no_events(self):
        monitor = SessionMonitor(tone_contract())
        report = monitor.step({"tone": 5, "safety": 5}, ActionRecord("go"))
        assert report.evaluation.c_hard == 1.0
        assert report.evaluation.c_soft == 1.0
        assert report.events == ()

    def test_hook_corrects_on_first_attempt(self):
        corrections = []

        def hook(strategy, constraint, state):
            corrections.append((strategy.name, constraint.name))
            return ({"tone": 5, "safety": 5}, ActionRecord("go"))

        monitor = SessionMonitor(tone_contract(), hook=hook)
        report = monitor.step({"tone": 0, "safety": 5}, ActionRecord("go"))
        kinds = [e.kind for e in report.events]
        assert kinds == ["violation", "recovery_attempted", "recovery_succeeded"]
        # Pre-recovery scores are what the series record.
        assert report.evaluation.c_soft < 1.0
        assert report.post_recovery is not None
        assert report.post_recovery.c_soft == 1.0
        assert corrections == [("fix", "tone")]

    def test_no_hook_emits_recovery_failed(self):
        monitor = SessionMonitor(tone_contract())
        report = monitor.step({"tone": 0, "safety": 5}, ActionRecord("go"))
        kinds = [e.kind for e in report.events]
        assert kinds == ["violation", "recovery_failed"]
        assert report.events[1].payload["reason"] == "no recovery hook registered"

    def test_hard_violations_never_recovered(self):
        called = []
        hook = lambda s, c, st: called.append(s.name)
        monitor = SessionMonitor(tone_contract(), hook=hook)
        report = monitor.step({"tone": 5, "safety": 0}, ActionRecord("go"))
        assert [e.kind for e in report.events] == ["violation"]
        assert called == []

    def test_fallback_traversal_a_a_b_then_failed(self):
        strategies = (
            RecoveryStrategy(name="A", type="re_prompt", max_attempts=2, fallback="B"),
            RecoveryStrategy(name="B", type="re_prompt", max_attempts=1),
        )
        contract = Contract(
            name="chain",
            invariants_soft=(Constraint(name="tone", severity="soft", recovery="A",
                                        check=ge("tone", 1)),),
            recovery_strategies=strategies,
            drift_config=QUIET_DRIFT,
        )
        hook = lambda s, c, st: None  # attempts happen, never correct
        monitor = SessionMonitor(contract, hook=hook)
        attempted, failed = [], []
        for _ in range(5):
            report = monitor.step({"tone": 0}, ActionRecord("go"))
            attempted += [e.payload["strategy"] for e in report.events
                          if e.kind == "recovery_attempted"]
            failed += [e for e in report.events if e.kind == "recovery_failed"]
        assert attempted == ["A", "A", "B"]
        assert len(failed) == 1
        assert failed[0].payload["reason"] == "attempt budget exhausted"

    def test_full_chain_traversal_within_one_step(self):
        strategies = (
            RecoveryStrategy(name="A", type="re_prompt", max_attempts=2, fallback="B"),
            RecoveryStrategy(name="B", type="re_prompt", max_attempts=1),
        )
        contract = Contract(
            name="chain",
            invariants_soft=(Constraint(name="tone", severity="soft", recovery="A",
                                        check=ge("tone", 1)),),
            recovery_strategies=strategies,
            drift_config=QUIET_DRIFT,
        )
        monitor = SessionMonitor(contract, hook=lambda s, c, st: None,
                                 attempts_per_step=None)
        report = monitor.step({"tone": 0}, ActionRecord("go"))
        attempted = [e.payload["strategy"] for e in report.events
                     if e.kind == "recovery_attempted"]
        assert attempted == ["A", "A", "B"]
        assert any(e.kind == "recovery_failed" for e in report.events)

    @pytest.mark.parametrize("attempts", [0, -1, True, False, 1.0, "1"])
    def test_attempts_per_step_checked_when_built(self, attempts):
        # 0 and -1 once turned recovery off without a word: a violated soft
        # constraint got no attempt and never emitted recovery_failed.
        with pytest.raises(ValueError, match=repr(attempts).replace(".", r"\.")):
            SessionMonitor(tone_contract(), hook=lambda s, c, st: None,
                           attempts_per_step=attempts)
        with pytest.raises(ValueError, match="attempts_per_step"):
            run_session(tone_contract(), trace_of([0, 1]), attempts_per_step=attempts)

    @pytest.mark.parametrize("attempts", [None, 1, 3])
    def test_attempts_per_step_accepts_none_or_a_positive_int(self, attempts):
        monitor = SessionMonitor(tone_contract(), hook=lambda s, c, st: None,
                                 attempts_per_step=attempts)
        report = monitor.step({"tone": 0, "safety": 5}, ActionRecord("go"))
        assert [e.kind for e in report.events].count("recovery_attempted") >= 1

    def test_attempt_counter_resets_on_resatisfaction(self):
        strategies = (RecoveryStrategy(name="A", type="re_prompt", max_attempts=1),)
        contract = Contract(
            name="reset",
            invariants_soft=(Constraint(name="tone", severity="soft", recovery="A",
                                        check=ge("tone", 1)),),
            recovery_strategies=strategies,
            drift_config=QUIET_DRIFT,
        )
        # A hook that declines, then one that fixes the first violation.
        for correction, outcome in ((None, ("recovery_failed", None)),
                                    (({"tone": 5}, ActionRecord("go")),
                                     ("recovery_succeeded", "A"))):
            monitor = SessionMonitor(contract, hook=lambda s, c, st: correction)
            monitor.step({"tone": 0}, ActionRecord("go"))   # attempt A (budget gone)
            monitor.step({"tone": 5}, ActionRecord("go"))   # satisfied: the episode ends
            report = monitor.step({"tone": 0}, ActionRecord("go"))
            recovery = [(e.kind, e.payload.get("strategy")) for e in report.events
                        if e.kind.startswith("recovery")]
            # A new episode: its budget is available again.
            assert recovery == [("recovery_attempted", "A"), outcome]

    def test_terminate_session_strategy(self):
        strategies = (RecoveryStrategy(name="kill", type="terminate_session",
                                       max_attempts=1),)
        contract = Contract(
            name="killer",
            invariants_soft=(Constraint(name="tone", severity="soft", recovery="kill",
                                        check=ge("tone", 1)),),
            recovery_strategies=strategies,
            drift_config=QUIET_DRIFT,
        )
        monitor = SessionMonitor(contract)
        report = monitor.step({"tone": 0}, ActionRecord("go"))
        assert report.terminated is True
        assert any(e.kind == "session_terminated" for e in report.events)
        with pytest.raises(SessionTerminated):
            monitor.step({"tone": 5}, ActionRecord("go"))

    def test_drift_alert_thresholds(self):
        contract = Contract(
            name="alerts",
            invariants_soft=(Constraint(name="tone", severity="soft",
                                        check=ge("tone", 1)),),
            drift_config=DriftConfig(w_c=1.0, w_d=0.0, theta1=0.05, theta2=0.30),
        )
        monitor = SessionMonitor(contract)
        report = monitor.step({"tone": 0}, ActionRecord("go"))  # gap 1.0 > theta2
        assert any(e.kind == "drift_alert_severe" for e in report.events)


def chain_contract(strategies):
    """One soft constraint recovering through ``strategies``, starting at the
    first (with none, it has no recovery)."""
    return Contract(
        name="chain",
        invariants_soft=(Constraint(name="tone", severity="soft",
                                    recovery=strategies[0].name if strategies else None,
                                    check=ge("tone", 1)),),
        recovery_strategies=tuple(strategies),
        drift_config=QUIET_DRIFT,
    )


@st.composite
def recovery_cases(draw):
    n = draw(st.integers(0, 3))
    chain = tuple(RecoveryStrategy(name=f"S{i}", type=draw(st.sampled_from(RECOVERY_TYPES)),
                                   max_attempts=draw(st.integers(1, 3)),
                                   fallback=f"S{i + 1}" if i + 1 < n else None)
                  for i in range(n))
    violated = draw(st.lists(st.booleans(), min_size=1, max_size=10))
    fixes = draw(st.frozensets(st.integers(0, 9), max_size=4))
    return chain, draw(st.sampled_from((1, 2, None))), draw(st.booleans()), violated, fixes


def expected_recovery(chain, attempts_per_step, hooked, violated, fixes):
    """Plain reference for one soft constraint, violated at the steps marked
    in ``violated``, and a hook, if any, that corrects the state on the hook
    calls numbered in ``fixes`` and declines the others: ((step, strategy,
    attempt) of each attempt, terminated, (step, reason) of each
    recovery_failed).  Each violation episode, a run of violated steps that
    ends at a satisfied step or a correction, starts its own attempt count."""
    schedule = [s for s in chain for _ in range(s.max_attempts)]
    per_step = len(schedule) if attempts_per_step is None else attempts_per_step
    attempted, failed = [], []
    terminated, calls = False, 0
    episode = None  # attempts used by the open episode, or None once it failed
    is_open = False
    for t, bad in enumerate(violated):
        if terminated:
            break
        if not bad:
            is_open = False
            continue
        if not is_open:
            is_open, episode = True, 0
        if episode is None:
            continue
        recovered = False
        for _ in range(per_step):
            if episode == len(schedule):
                break
            strategy = schedule[episode]
            if not hooked and strategy.type not in ("emit_event", "terminate_session"):
                failed.append((t, "no recovery hook registered"))
                episode = None
                break
            episode += 1
            attempted.append((t, strategy.name, episode))
            if strategy.type == "terminate_session":
                terminated = True
                break
            if hooked:
                recovered = calls in fixes
                calls += 1
                if recovered:
                    is_open = False
                    break
        if episode == len(schedule) and not recovered:
            failed.append((t, "attempt budget exhausted") if schedule
                          else (t, "no recovery strategy defined"))
            episode = None
    return attempted, terminated, failed


@given(recovery_cases())
@example(((RecoveryStrategy(name="S0", type="re_prompt", max_attempts=1),),
          1, True, [True, False, True], frozenset({0})))
@settings(max_examples=300, deadline=None)
def test_recovery_follows_the_flat_schedule(case):
    chain, attempts_per_step, hooked, violated, fixes = case
    calls = []

    def hook(strategy, constraint, state):
        calls.append(strategy.name)
        return ({"tone": 5}, ActionRecord("go")) if len(calls) - 1 in fixes else None

    monitor = SessionMonitor(chain_contract(chain), hook=hook if hooked else None,
                             attempts_per_step=attempts_per_step)
    for bad in violated:
        if monitor.terminated:
            break
        monitor.step({"tone": 0 if bad else 5}, ActionRecord("go"))
    events = [e for report in monitor.step_reports for e in report.events]
    attempted = [(e.step, e.payload["strategy"], e.payload["attempt"]) for e in events
                 if e.kind == "recovery_attempted"]
    failed = [(e.step, e.payload["reason"]) for e in events if e.kind == "recovery_failed"]
    assert (attempted, monitor.terminated, failed) == \
        expected_recovery(chain, attempts_per_step, hooked, violated, fixes)


def test_a_huge_attempt_budget_is_not_materialised():
    """A budget is capped before its flat schedule is built: the monitor
    of a chain of the largest valid budget builds as fast, and with about
    the same memory peak, as that of a 1-attempt chain, and attempts its
    first strategy first.  A larger budget (10**12) is refused when the
    monitor is built, before any schedule exists."""
    def contract(attempts):
        return tone_contract((
            RecoveryStrategy(name="fix", type="re_prompt", max_attempts=attempts, fallback="up"),
            RecoveryStrategy(name="up", type="escalate_human")))

    def build(attempts):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            monitor = SessionMonitor(contract(attempts), hook=lambda s, c, state: None)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return monitor, elapsed, peak

    with pytest.raises(SemanticError, match=r"^tone: its recovery chain allows 1000000000003 "
                                            r"attempts, more than 100$"):
        SessionMonitor(contract(10 ** 12))
    build(1)
    _, _, small_peak = build(1)
    monitor, elapsed, peak = build(MAX_RECOVERY_ATTEMPTS - 3)
    assert elapsed < 0.25
    assert peak < small_peak + 32 * 1024
    for _ in range(2):
        monitor.step({"tone": 0, "safety": 5}, ActionRecord("go"))
    attempted = [(e.step, e.payload["strategy"], e.payload["attempt"])
                 for report in monitor.step_reports for e in report.events
                 if e.kind == "recovery_attempted"]
    assert attempted == [(0, "fix", 1), (1, "fix", 2)]


class TestRecoveryBoundary:
    def test_cyclic_chain_rejected_when_the_monitor_is_built(self):
        contract = chain_contract((
            RecoveryStrategy(name="A", type="re_prompt", fallback="B"),
            RecoveryStrategy(name="B", type="escalate_human", fallback="A"),
        ))
        with pytest.raises(SemanticError, match=r"^A: .*A -> B -> A"):
            SessionMonitor(contract)

    def test_raising_hook_closes_the_session(self):
        monitor = SessionMonitor(tone_contract(), hook=lambda s, c, state: 1 / 0)
        monitor.step({"tone": 5, "safety": 5}, ActionRecord("go"))
        with pytest.raises(RecoveryHookError) as info:
            monitor.step({"tone": 0, "safety": 5}, ActionRecord("go"))
        for part in ("step 1", "'tone'", "'fix'", "raised ZeroDivisionError"):
            assert part in str(info.value)
        assert isinstance(info.value.__cause__, ZeroDivisionError)
        assert monitor.terminated and len(monitor.step_reports) == 2
        failed = monitor.step_reports[1]
        assert failed.terminated and failed.post_recovery is None
        with pytest.raises(SessionTerminated, match=r"closed by RecoveryHookError .* before step 2"):
            monitor.step({"tone": 5, "safety": 5}, ActionRecord("go"))

    @pytest.mark.parametrize("hook", [
        pytest.param(lambda s, c, state: 1 / 0, id="raises"),
        pytest.param(lambda s, c, state: "fixed", id="bad-return"),
    ])
    def test_views_agree_after_a_failed_hook(self, hook):
        contract, trace = tone_contract(k=0), trace_of([5, 0, 5, 5])
        monitor = SessionMonitor(contract, hook=hook)
        monitor.step(trace.states[0], trace.actions[0])
        with pytest.raises((RecoveryHookError, BadHookReturn)):
            monitor.step(trace.states[1], trace.actions[1])
        report = monitor.finalize(trace)
        assert [s.step for s in report.steps] == [0, 1] and report.excluded_steps == 1
        assert report.c_soft_series == (1.0, 0.0) and report.c_hard_series == (1.0, 1.0)
        # The monitor's events, the deterministic verdict, the outcome and
        # the (p, delta, k) verdict all see the unrecovered dip at step 1.
        seen = ExecutionTrace(states=trace.states[:3], actions=trace.actions[:2])
        assert report.detected_violations() == ((1, "tone"),)
        assert report.verdict == engine.check_deterministic(contract, seen)
        assert report.verdict.witnesses["recoverability"] == ((1, "tone"),)
        assert report.outcome == engine.classify_outcome(contract, seen) == "soft_violation"
        assert pdk_verdict(contract, [report]).soft_counterexamples == (0,)

    @pytest.mark.parametrize("returned,named", [
        pytest.param(({"tone": 5, "safety": 5}, ActionRecord("go"), None),
                     "tuple(dict, ActionRecord, NoneType)", id="three-tuple"),
        pytest.param({"tone": 5, "safety": 5}, "dict", id="bare-state"),
        pytest.param(([1], ActionRecord("go")), "tuple(list, ActionRecord)",
                     id="state-not-a-mapping"),
        pytest.param(({"tone": 1}, "go"), "tuple(dict, str)", id="action-not-a-record"),
    ])
    def test_malformed_hook_return_rejected(self, returned, named):
        monitor = SessionMonitor(tone_contract(), hook=lambda s, c, state: returned)
        monitor.step({"tone": 5, "safety": 5}, ActionRecord("go"))
        with pytest.raises(BadHookReturn) as info:
            monitor.step({"tone": 0, "safety": 5}, ActionRecord("go"))
        for part in ("step 1", "'tone'", "'fix'", named):
            assert part in str(info.value)
        with pytest.raises(SessionTerminated, match=r"closed by BadHookReturn .* before step 2"):
            monitor.step({"tone": 5, "safety": 5}, ActionRecord("go"))

    def test_raising_listener_closes_the_session_after_its_step(self):
        contract, trace = demo()

        def listener(event):
            if event.kind == "violation":
                raise RuntimeError("sink down")

        monitor = SessionMonitor(contract, listeners=[listener])
        monitor.step(trace.states[0], trace.actions[0])
        monitor.step(trace.states[1], trace.actions[1])
        with pytest.raises(ListenerError) as info:
            monitor.step(trace.states[2], trace.actions[2])
        assert str(info.value) == "step 2: listener raised RuntimeError on 'violation' event: sink down"
        assert isinstance(info.value.__cause__, RuntimeError)
        assert monitor.terminated and [s.step for s in monitor.step_reports] == [0, 1, 2]
        failed = monitor.step_reports[2]
        assert failed.terminated and failed.post_recovery is None
        assert [e.kind for e in failed.events] == ["violation"]
        with pytest.raises(SessionTerminated, match=r"closed by ListenerError .* before step 3"):
            monitor.step(trace.states[3], trace.actions[3])
        report = monitor.finalize(trace)
        assert [s.step for s in report.steps] == [0, 1, 2] and report.excluded_steps == 3
        seen = ExecutionTrace(states=trace.states[:4], actions=trace.actions[:3])
        assert report.verdict == engine.check_deterministic(contract, seen)
        assert report.outcome == engine.classify_outcome(contract, seen)
        assert report.detected_violations() == ((2, "professional-tone"),)


def demo():
    contract = load_contract(asset_path("contracts", "financial-advisor.yaml"))
    with open(asset_path("traces", "financial_advisor_demo.json")) as fh:
        return contract, ExecutionTrace.from_dict(json.load(fh))


class TestRunSession:
    def test_empty_trace_precondition_verdict_only(self):
        contract = Contract(name="t", preconditions=(
            Constraint(name="ready", severity="hard", check=ge("ready", 1)),))
        trace = ExecutionTrace(states=({"ready": 1},), actions=())
        report = run_session(contract, trace)
        assert report.steps == ()
        assert report.preconditions_ok is True
        assert report.verdict.preconditions_ok is True

    def test_recovery_never_alters_pre_recovery_series(self):
        contract = tone_contract()
        trace = trace_of([5, 0, 0, 5, 5])
        hook = lambda s, c, st: ({"tone": 5, "safety": 5}, ActionRecord("go"))
        with_hook = run_session(contract, trace, hook=hook)
        without = run_session(contract, trace, hook=None)
        assert with_hook.c_soft_series == without.c_soft_series
        assert with_hook.c_hard_series == without.c_hard_series

    def test_trailing_state_closes_recovery_window(self):
        contract = tone_contract(k=1)
        # Soft dip at the last step, restored only in the trailing state.
        trace = trace_of([5, 5, 0, 5])
        report = run_session(contract, trace)
        assert report.verdict.recoverability_ok is True
        event = [v for v in report.violations if v.constraint == "tone"][0]
        assert event.recovered_at == 3
        assert event.delta_t_recovery == 1

    def test_episodes_closing_together_are_logged_in_results_order(self):
        # "b" opens first, "a" second; both close at step 2, logged as a plain
        # pass over that step's results meets them.
        contract = Contract(name="t", invariants_soft=(
            Constraint(name="a", check=ge("a", 1)), Constraint(name="b", check=ge("b", 1))),
            drift_config=QUIET_DRIFT)
        states = ({"a": 1, "b": 0}, {"a": 0, "b": 0}, {"a": 1, "b": 1}, {"a": 1, "b": 1})
        report = run_session(contract, ExecutionTrace(states=states,
                                                      actions=(ActionRecord("go"),) * 3))
        assert [(v.constraint, v.step, v.recovered_at) for v in report.violations] == [
            ("a", 1, 2), ("b", 0, 2)]

    def test_unrecovered_violation_left_open(self):
        contract = tone_contract(k=1)
        trace = trace_of([5, 0, 0, 0])
        report = run_session(contract, trace)
        assert report.verdict.recoverability_ok is False
        event = [v for v in report.violations if v.constraint == "tone"][0]
        assert event.recovered_at is None
        assert event.delta_t_recovery is None

    def test_termination_truncates_report(self):
        strategies = (RecoveryStrategy(name="kill", type="terminate_session",
                                       max_attempts=1),)
        contract = Contract(
            name="killer",
            invariants_hard=(Constraint(name="safe", severity="hard",
                                        check=ge("safety", 1)),),
            invariants_soft=(Constraint(name="tone", severity="soft", recovery="kill",
                                        check=ge("tone", 1)),),
            recovery_strategies=strategies,
            drift_config=QUIET_DRIFT,
        )
        states = tuple({"tone": 5 if i != 3 else 0, "safety": 5 if i != 3 else 0}
                       for i in range(7))
        trace = ExecutionTrace(states=states,
                               actions=tuple(ActionRecord("go") for _ in range(6)))
        report = run_session(contract, trace)
        assert len(report.steps) == 4          # steps 0..3 then closed
        assert report.excluded_steps == 2
        assert report.outcome == "hard_violation"

    def test_listeners_receive_every_event_in_order(self):
        contract = load_contract(asset_path("contracts", "financial-advisor.yaml"))
        with open(asset_path("traces", "financial_advisor_demo.json")) as fh:
            trace = ExecutionTrace.from_dict(json.load(fh))
        first, second = [], []
        report = run_session(contract, trace, listeners=[first.append, second.append])
        assert len(report.events) > 3
        assert first == second == list(report.events)

    def test_a_recovered_step_reports_its_post_recovery_evaluation(self):
        hook = lambda s, c, state: ({"tone": 5, "safety": 5}, ActionRecord("go"))
        report = run_session(tone_contract(), trace_of([5, 0, 5]), hook=hook)
        step = report.steps[1]
        out = step.to_dict()
        assert out["results"]["tone"]["satisfied"] is False
        assert out["c_soft"] == 0.0
        post = step.post_recovery
        assert out["post_recovery"] == {
            "c_hard": 1.0, "c_soft": 1.0,
            "results": {name: {"satisfied": True, "detail": r.detail}
                        for name, r in post.results.items()}}
        assert set(post.results) == {"safe", "tone"}
        assert report.steps[0].to_dict()["post_recovery"] is None

    def test_drift_series_is_the_steps_drift(self):
        contract = load_contract(asset_path("contracts", "financial-advisor.yaml"))
        with open(asset_path("traces", "financial_advisor_demo.json")) as fh:
            trace = ExecutionTrace.from_dict(json.load(fh))
        report = run_session(contract, trace)
        totals = [step["drift"]["d_total"] for step in report.to_dict()["steps"]]
        assert list(report.drift_series) == totals
        assert len(totals) == trace.length and any(d > 0 for d in totals)

    def test_report_json_round_trip(self):
        contract = tone_contract()
        report = run_session(contract, trace_of([5, 0, 5]))
        payload = json.loads(report.to_json())
        assert payload == report.to_dict()
        assert set(payload) == {"contract", "steps", "events", "violations",
                                "metrics", "verdicts"}

    def test_matches_committed_golden_file(self):
        contract = load_contract(asset_path("contracts", "financial-advisor.yaml"))
        with open(asset_path("traces", "financial_advisor_demo.json")) as fh:
            trace = ExecutionTrace.from_dict(json.load(fh))
        report = run_session(contract, trace)
        with open(asset_path("golden", "financial_advisor_demo_report.json")) as fh:
            golden = json.load(fh)
        assert report.to_dict() == golden

    def test_finalize_rejects_a_trace_shorter_than_the_session(self):
        contract = load_contract(asset_path("contracts", "financial-advisor.yaml"))
        with open(asset_path("traces", "financial_advisor_demo.json")) as fh:
            trace = ExecutionTrace.from_dict(json.load(fh))
        monitor = SessionMonitor(contract)
        for t in range(trace.length):
            monitor.step(trace.states[t], trace.actions[t])
        short = ExecutionTrace(states=trace.states[:3], actions=trace.actions[:2])
        with pytest.raises(TraceTooShort, match=f"ran {trace.length} steps, the trace has 2$"):
            monitor.finalize(short)
        # Nothing was closed: the session still finalizes with its own trace.
        assert monitor.finalize(trace).to_dict() == run_session(contract, trace).to_dict()

    def test_finalize_closes_the_session(self):
        contract, trace = demo()
        monitor = SessionMonitor(contract)
        for t in range(trace.length):
            monitor.step(trace.states[t], trace.actions[t])
        report = monitor.finalize(trace)
        longer = ExecutionTrace(states=trace.states + (trace.states[-1],),
                                actions=trace.actions + (trace.actions[-1],))
        with pytest.raises(SessionTerminated, match=r"closed by finalize before step 6$"):
            monitor.step(longer.states[6], longer.actions[6])
        with pytest.raises(SessionTerminated, match=r"^session already finalized$"):
            monitor.finalize(longer)
        assert len(monitor.step_reports) == 6
        assert report.to_dict() == run_session(contract, trace).to_dict()

    def test_a_zero_step_session_flags_its_preconditions_once(self):
        contract = Contract(name="t", preconditions=(Constraint(
            name="ready", severity="hard",
            check=Predicate(field_path="ready", operator="eq", operand=True)),))
        trace = ExecutionTrace(states=({"ready": False},), actions=())
        monitor = SessionMonitor(contract)
        report = monitor.finalize(trace)
        with pytest.raises(SessionTerminated, match=r"^session already finalized$"):
            monitor.finalize(trace)
        assert report.detected_violations() == ((0, "ready"),)
        assert len(monitor._events) == 1

    def test_a_listener_failing_on_a_zero_step_flag_closes_the_session(self):
        contract = Contract(name="t", preconditions=(Constraint(
            name="ready", severity="hard",
            check=Predicate(field_path="ready", operator="eq", operand=True)),))
        trace = ExecutionTrace(states=({"ready": False},), actions=())
        monitor = SessionMonitor(contract, listeners=[lambda event: 1 / 0])
        with pytest.raises(ListenerError, match=r"^step 0: listener raised ZeroDivisionError "
                                                r"on 'violation' event"):
            monitor.finalize(trace)
        with pytest.raises(SessionTerminated, match=r"closed by ListenerError .* before step 0"):
            monitor.step({"ready": False}, ActionRecord("go"))
        report = monitor.finalize(trace)
        assert report.detected_violations() == ((0, "ready"),) and report.steps == ()


class TestOneEvaluation:
    """The c_hard series, the deterministic verdict, the three-way outcome
    and the (p, delta, k) verdict read one evaluation per constraint per
    index."""

    def test_invariant_reading_the_action_gives_one_answer(self):
        src = "action.amount < 10"
        contract = Contract(name="t", invariants_hard=(Constraint(
            name="amt", severity="hard",
            check=Predicate(expression=compile_expression(src), expression_src=src)),))
        # An invariant is over states: the contract is rejected before any
        # view can read the action.
        trace = ExecutionTrace(states=({}, {}),
                               actions=(ActionRecord("go", {"amount": 1}),))
        message = r"^amt: preconditions and invariants cannot reference action$"
        with pytest.raises(SemanticError, match=message):
            SessionMonitor(contract)
        with pytest.raises(SemanticError, match=message):
            run_session(contract, trace)

    def test_skipped_precondition_does_not_hold(self):
        contract = Contract(name="t", preconditions=(Constraint(
            name="ready", severity="hard", on_missing="skip",
            check=Predicate(field_path="ready", operator="eq", operand=True)),))
        trace = ExecutionTrace(states=({}, {}), actions=(ActionRecord("go"),))
        report = run_session(contract, trace)
        assert report.outcome == "hard_violation"
        assert report.verdict.preconditions_ok is False
        assert report.detected_violations() == ((0, "ready"),)
        assert report.events[0].payload["precondition"] is True
        with pytest.raises(EmptyEnsemble):
            pdk_verdict(contract, [report])

    def test_zero_step_failed_precondition_is_flagged(self):
        contract = Contract(name="t", preconditions=(Constraint(
            name="ready", severity="hard",
            check=Predicate(field_path="ready", operator="eq", operand=True)),))
        report = run_session(contract, ExecutionTrace(states=({"ready": False},), actions=()))
        assert report.outcome == "hard_violation"
        assert report.detected_violations() == ((0, "ready"),)
        assert report.events[0].payload["precondition"] is True

    class Reads(Mapping):
        """A state or payload that logs ``(tag, key)`` for each key read.
        Not a dict, so every constraint reading it falls back to the
        interpreter, which reads its one field once per evaluation."""

        def __init__(self, tag, data, log):
            self._tag, self._data, self._log = tag, dict(data), log

        def __getitem__(self, key):
            self._log.append((self._tag, key))
            return self._data[key]

        def __contains__(self, key):
            return key in self._data

        def __iter__(self):
            return iter(self._data)

        def __len__(self):
            return len(self._data)

    def test_each_constraint_evaluated_once_per_index(self):
        log = []
        contract = Contract(
            name="t",
            preconditions=(Constraint(name="ready", severity="hard", check=ge("ready", 1)),),
            invariants_hard=(Constraint(name="safe", severity="hard", check=ge("safety", 1)),),
            governance_soft=(Constraint(name="cost", check=ge("cost", 1)),),
        )
        states = tuple(self.Reads(("state", i), {"ready": 1, "safety": 5}, log)
                       for i in range(4))
        actions = tuple(ActionRecord("go", self.Reads(("action", i), {"cost": 2}, log))
                        for i in range(3))
        report = run_session(contract, ExecutionTrace(states=states, actions=actions))
        assert report.verdict.overall is True
        # ready (a precondition) at state 0, safe at every state, cost at
        # every action: each once.
        assert set(Counter(log).values()) == {1}
        assert (("state", 0), "ready") in log
        assert Counter(key for _, key in log) == {"ready": 1, "safety": 4, "cost": 3}

    def test_recovery_at_step_zero_does_not_reevaluate_preconditions(self):
        log = []
        contract = Contract(
            name="t",
            preconditions=(Constraint(name="ready", severity="hard", check=ge("ready", 1)),),
            invariants_soft=(Constraint(name="tone", severity="soft", recovery="fix",
                                        check=ge("tone", 1)),),
            recovery_strategies=(RecoveryStrategy(name="fix", type="re_prompt"),),
            drift_config=QUIET_DRIFT,
        )
        trace = ExecutionTrace(states=(self.Reads(0, {"ready": 1, "tone": 0}, log),
                                       self.Reads(1, {"ready": 1, "tone": 5}, log)),
                               actions=(ActionRecord("go"),))
        hook = lambda s, c, st: (self.Reads("hook", {"ready": 0, "tone": 5}, log),
                                 ActionRecord("go"))
        report = run_session(contract, trace, hook=hook)
        assert report.steps[0].post_recovery is not None
        assert [tag for tag, key in log if key == "ready"] == [0]
        assert ("hook", "tone") in log
        assert report.preconditions_ok is True


class TestPdkVerdict:
    def perfect_session(self):
        return run_session(tone_contract(), trace_of([5, 5, 5, 5]))

    def test_all_perfect_holds(self):
        sessions = [self.perfect_session() for _ in range(10)]
        verdict = pdk_verdict(tone_contract(), sessions,
                              SatisfactionParams(p=0.9, delta=0.1, k=2))
        assert verdict.holds is True
        assert verdict.hard_frequency == 1.0
        assert verdict.soft_frequency == 1.0

    def test_eight_of_ten_hard_clean_fails_at_p09(self):
        bad = run_session(tone_contract(), trace_of([5, 5, 5], safety=[5, 0, 5]))
        sessions = [self.perfect_session() for _ in range(8)] + [bad, bad]
        verdict = pdk_verdict(tone_contract(), sessions,
                              SatisfactionParams(p=0.9, delta=0.1, k=2))
        assert verdict.hard_frequency == pytest.approx(0.8)
        assert verdict.holds is False
        assert len(verdict.hard_counterexamples) == 2

    def test_soft_dip_recovering_within_window_counts(self):
        # c_soft dips below 1 - delta at one step and returns at the next.
        session = run_session(tone_contract(), trace_of([5, 5, 0, 5, 5, 5]))
        verdict = pdk_verdict(tone_contract(), [session],
                              SatisfactionParams(p=1.0, delta=0.25, k=1))
        assert verdict.soft_frequency == 1.0
        assert verdict.holds is True

    def test_deterministic_satisfying_session_holds(self):
        # Consistency: a session satisfying the deterministic verdict
        # passes the probabilistic one at any p <= 1.
        session = run_session(tone_contract(), trace_of([5, 0, 5, 5]))
        assert session.verdict.overall is True
        verdict = pdk_verdict(tone_contract(), [session],
                              SatisfactionParams(p=1.0, delta=0.25, k=2))
        assert verdict.holds is True

    def test_precondition_failures_excluded(self):
        contract = Contract(
            name="pre",
            preconditions=(Constraint(name="ready", severity="hard",
                                      check=ge("ready", 1)),),
            invariants_hard=(Constraint(name="safe", severity="hard",
                                        check=ge("safety", 1)),),
        )
        good = ExecutionTrace(states=({"ready": 1, "safety": 5},) * 3,
                              actions=(ActionRecord("go"),) * 2)
        bad = ExecutionTrace(states=({"ready": 0, "safety": 5},) * 3,
                             actions=(ActionRecord("go"),) * 2)
        sessions = [run_session(contract, good), run_session(contract, bad)]
        verdict = pdk_verdict(contract, sessions, SatisfactionParams(p=0.9))
        assert verdict.excluded == 1
        assert verdict.sessions == 1

    @pytest.mark.parametrize("params,message", [
        (SatisfactionParams(k=1.5), "k must be a non-negative integer, got 1.5"),
        (SatisfactionParams(k=-1), "k must be a non-negative integer, got -1"),
        (SatisfactionParams(k=True), "k must be a non-negative integer, got True"),
        (SatisfactionParams(p=2.0), "p must be in [0,1], got 2.0"),
        (SatisfactionParams(delta=float("nan")), "delta must be in [0,1], got nan"),
    ], ids=["fractional-k", "negative-k", "bool-k", "p", "nan-delta"])
    def test_bad_params_are_rejected_in_the_validators_words(self, params, message):
        sessions = [self.perfect_session()]
        with pytest.raises(SemanticError) as info:
            pdk_verdict(tone_contract(), sessions, params)
        assert str(info.value) == f"satisfaction: {message}"

    def test_empty_ensemble(self):
        with pytest.raises(EmptyEnsemble):
            pdk_verdict(tone_contract(), [], SatisfactionParams())
