"""Session records: slotted frozen dataclasses, and the positional builders
the step path makes its four per-step records with."""

import copy
import json
import pickle
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentcontracts import drift, engine, monitor
from agentcontracts.assets import asset_path
from agentcontracts.engine import SATISFIED, ConstraintResult, StepEvaluation
from agentcontracts.drift import DriftSample
from agentcontracts.model import ExecutionTrace
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
                                    keyword.non_satisfied)
    assert_same(built, keyword)
    assert built.non_satisfied == keyword.non_satisfied == tuple(
        name for name, r in keyword.results.items() if r is not SATISFIED)

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
    # No slot to hold a new attribute either (Python 3.11's frozen slotted
    # __setattr__ raises TypeError for a name that is not a field).
    with pytest.raises((AttributeError, TypeError)):
        record.extra = 1


def test_the_demo_report_survives_pickle_and_deepcopy():
    _, report = demo()
    for copied in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
        assert copied is not report
        assert copied == report
        assert copied.to_dict() == report.to_dict()
        assert copied.to_json() == report.to_json()
        assert copied.steps[0].evaluation.non_satisfied == report.steps[0].evaluation.non_satisfied
