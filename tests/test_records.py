"""Session records: slotted frozen dataclasses, the positional builders
the step path makes its four per-step records with, and the sparse view a
step's results are read through."""

import copy
import gc
import json
import pickle
import tracemalloc
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentcontracts import drift, engine, monitor
from agentcontracts.assets import asset_path
from agentcontracts.engine import SATISFIED, VIOLATED, ConstraintResult, StepEvaluation
from agentcontracts.drift import DriftSample
from agentcontracts.model import (ActionRecord, Constraint, Contract, DriftConfig, ExecutionTrace,
                                  Predicate)
from agentcontracts.monitor import MonitorEvent, StepReport, pdk_verdict, run_session
from agentcontracts.parser import load_contract

RECORDS = (
    engine.ConstraintResult, engine.StepEvaluation, engine.ViolationEvent,
    engine.SatisfactionVerdict, drift.DriftSample, drift.SessionMetrics,
    monitor.MonitorEvent, monitor.StepReport, monitor.SessionReport, monitor.PdkVerdict,
)


def demo():
    contract = load_contract(asset_path("contracts", "financial-advisor.yaml"))
    with open(asset_path("traces", "financial_advisor_demo.json")) as fh:
        trace = ExecutionTrace.from_dict(json.load(fh))
    return contract, run_session(contract, trace)


def hash_or_error(record):
    """The record's hash, or the type of the error hashing it raises (a
    record holding a dict is unhashable)."""
    try:
        return hash(record)
    except TypeError as exc:
        return type(exc)


def assert_same(built, keyword):
    assert type(built) is type(keyword)
    assert built == keyword and keyword == built
    assert hash_or_error(built) == hash_or_error(keyword)
    assert repr(built) == repr(keyword)
    for f in fields(keyword):
        assert getattr(built, f.name) == getattr(keyword, f.name)


names = st.sampled_from(["a", "b", "c", "d"])
numbers = st.floats(allow_nan=False)
results = st.dictionaries(names, st.one_of(
    st.just(SATISFIED),
    st.builds(ConstraintResult, st.sampled_from([True, False, None]),
              st.one_of(st.none(), st.text(max_size=8)))))


@st.composite
def step_evaluations(draw):
    given_results = draw(results)
    return StepEvaluation(step=draw(st.integers(0, 10 ** 6)), results=given_results,
                          c_hard=draw(numbers), c_soft=draw(numbers),
                          preconditions=draw(st.one_of(st.none(), results)))


def drift_values(draw):
    return (draw(st.integers(0, 10 ** 6)), draw(numbers), draw(numbers), draw(numbers),
            tuple(draw(st.lists(numbers, min_size=4, max_size=4))))


def event_values(draw):
    return (draw(st.sampled_from(["violation", "recovery_failed", "drift_alert_mild"])),
            draw(st.integers(0, 10 ** 6)),
            draw(st.dictionaries(st.sampled_from(["constraint", "nu", "detail"]),
                                 st.one_of(st.none(), st.text(max_size=8), numbers))))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_each_builder_makes_the_keyword_constructed_record(data):
    draw = data.draw
    keyword = draw(step_evaluations())
    built = engine._step_evaluation(keyword.step, keyword.results, keyword.c_hard,
                                    keyword.c_soft, keyword.preconditions,
                                    keyword.stored)
    assert_same(built, keyword)
    assert list(built.stored.items()) == list(keyword.stored.items()) == [
        (name, r) for name, r in keyword.results.items() if r is not SATISFIED]

    values = drift_values(draw)
    sample = drift._drift_sample(*values)
    assert_same(sample, DriftSample(t=values[0], d_compliance=values[1],
                                    d_distributional=values[2], d_total=values[3],
                                    decomposition=values[4]))

    kind, step, payload = event_values(draw)
    event = monitor._monitor_event(kind, step, payload)
    assert_same(event, MonitorEvent(kind=kind, step=step, payload=payload))

    post = draw(st.one_of(st.none(), step_evaluations()))
    terminated = draw(st.booleans())
    report = monitor._step_report(keyword.step, built, sample, (event,), post, terminated)
    assert_same(report, StepReport(step=keyword.step, evaluation=keyword, drift=sample,
                                   events=(event,), post_recovery=post, terminated=terminated))
    assert report.to_dict() == StepReport(step=keyword.step, evaluation=keyword, drift=sample,
                                          events=(event,), post_recovery=post,
                                          terminated=terminated).to_dict()


def demo_records():
    contract, report = demo()
    step = report.steps[0]
    return {
        engine.ConstraintResult: next(iter(step.evaluation.results.values())),
        engine.StepEvaluation: step.evaluation,
        engine.ViolationEvent: report.violations[0],
        engine.SatisfactionVerdict: report.verdict,
        drift.DriftSample: step.drift,
        drift.SessionMetrics: report.metrics,
        monitor.MonitorEvent: report.events[0],
        monitor.StepReport: step,
        monitor.SessionReport: report,
        monitor.PdkVerdict: pdk_verdict(contract, [report]),
    }


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_is_slotted_and_frozen(cls):
    record = demo_records()[cls]
    assert type(record) is cls
    assert cls.__slots__ == tuple(f.name for f in fields(cls))
    assert not hasattr(record, "__dict__")
    first = fields(cls)[0].name
    with pytest.raises(FrozenInstanceError):
        setattr(record, first, getattr(record, first))
    # A name that is not a field is refused the same way, on every Python.
    with pytest.raises(FrozenInstanceError):
        record.extra = 1
    with pytest.raises(FrozenInstanceError):
        del record.extra


def test_the_demo_report_survives_pickle_and_deepcopy():
    _, report = demo()
    for copied in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
        assert copied is not report
        assert copied == report
        assert copied.to_dict() == report.to_dict()
        assert copied.to_json() == report.to_json()
        assert copied.steps[0].evaluation.stored == report.steps[0].evaluation.stored


# ---------------------------------------------------------------------------
# The sparse view of a step's results
# ---------------------------------------------------------------------------

def dense(results) -> dict:
    return {name: results[name] for name in results}


def test_a_step_stores_only_its_non_satisfied_results():
    contract, report = demo()
    views = [r for s in report.steps for r in (s.evaluation, s.post_recovery) if r is not None]
    assert any(view.stored for view in views)
    assert any(not view.stored for view in views)
    for evaluation in views:
        results = evaluation.results
        assert not isinstance(results, dict)
        assert list(results) == [c.name for c in contract.invariants() + contract.governance()]
        assert list(evaluation.stored.items()) == [
            (name, r) for name, r in results.items() if r is not SATISFIED]
        assert type(evaluation.stored) is dict
        assert evaluation.stored is results._stored   # the view shares it, not a copy
    passing = [v for v in views if not v.stored]
    assert all(v.results is passing[0].results for v in passing)   # one shared view per plan
    assert all(v.stored is passing[0].stored for v in passing)     # and one empty mapping


def test_the_view_reads_as_the_dense_dict():
    _, report = demo()
    for step in report.steps:
        view = step.evaluation.results
        plain = dense(view)
        assert view == plain and plain == view
        assert not (view != plain) and not (plain != view)
        assert repr(view) == repr(plain)
        assert len(view) == len(plain) and list(view.items()) == list(plain.items())
        for name in plain:
            assert name in view and view.get(name) is plain[name]
        assert "nope" not in view and view.get("nope") is None
        with pytest.raises(KeyError):
            view["nope"]
        with pytest.raises(TypeError):
            view["x"] = SATISFIED
        assert view != {**plain, next(iter(plain)): VIOLATED}
        assert StepEvaluation(step=step.step, results=plain, c_hard=step.evaluation.c_hard,
                              c_soft=step.evaluation.c_soft,
                              preconditions=step.evaluation.preconditions) == step.evaluation


def test_the_view_survives_pickle_and_deepcopy():
    _, report = demo()
    for step in report.steps:
        view = step.evaluation.results
        for copied in (pickle.loads(pickle.dumps(view)), copy.deepcopy(view)):
            assert copied is not view
            assert copied == view == dense(copied)
            assert repr(copied) == repr(view)


def overhead_contract() -> Contract:
    """test_criterion_11's setting: 100 constraints, |A| = 50, window 10."""
    def checks(prefix, count, path, op, operand):
        severity = "hard" if prefix[1] == "h" else "soft"
        return tuple(Constraint(name=f"{prefix}{i}", severity=severity,
                                check=Predicate(field_path=path(i), operator=op, operand=operand))
                     for i in range(count))
    vocabulary = tuple(f"act{i}" for i in range(50))
    return Contract(
        name="overhead",
        invariants_hard=checks("ih", 40, lambda i: f"m.f{i}", "ge", 0.1),
        invariants_soft=checks("is", 30, lambda i: f"m.f{i + 40}", "ge", 0.1),
        governance_hard=checks("gh", 20, lambda i: f"p{i}", "le", 10.0),
        governance_soft=checks("gs", 10, lambda i: f"p{i + 20}", "le", 10.0),
        drift_config=DriftConfig(window=10, vocabulary=vocabulary,
                                 reference={v: 1.0 / 50 for v in vocabulary}))


def test_a_long_session_retains_little():
    # One 1200-step session with a violation every fifth step: the report
    # keeps each step's stored results only (dense per-step dicts came to
    # about 5 MB).
    contract, steps = overhead_contract(), 1200
    states, actions = [], []
    for t in range(steps + 1):
        state = {"m": {f"f{i}": 1.0 for i in range(70)}}
        payload = {f"p{i}": 1.0 for i in range(30)}
        if t % 5 == 0:
            state["m"][f"f{(t // 5) % 70}"] = 0.0
            payload[f"p{(t // 5) % 30}"] = 50.0
        states.append(state)
        actions.append(ActionRecord(f"act{t % 50}", payload))
    trace = ExecutionTrace(states=tuple(states), actions=tuple(actions[:steps]))
    run_session(contract, ExecutionTrace(states=trace.states[:3], actions=trace.actions[:2]))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = run_session(contract, trace)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(report.steps) == steps and report.outcome == "hard_violation"
    assert sum(bool(s.evaluation.stored) for s in report.steps) == 240
    assert retained <= 1.5 * 2 ** 20, retained
