"""Differential test of the four views of one session.

``run_session`` derives its c_hard series, deterministic verdict,
three-way outcome and (p, delta, k) standing from the monitor's own step
evaluations.  Here they are checked against ``check_deterministic`` and
``classify_outcome`` recomputed from scratch over the trace the monitor saw,
and against the brute-force oracle where it applies.
"""

import json
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentcontracts.bench import load_scenario
from agentcontracts.composition import verify_chain_trace
from agentcontracts.engine import (OUT_OF_PHASE, SATISFIED, check_deterministic,
                                   classify_outcome, evaluate_step)
from agentcontracts.errors import BadBoundaries, EmptyEnsemble
from agentcontracts.model import ActionRecord, ExecutionTrace, RecoveryStrategy
from agentcontracts.monitor import pdk_verdict, run_session

from helpers import (
    STATE_FIELDS,
    oracle_deterministic,
    oracle_outcome,
    random_action,
    random_contract,
    random_state,
)
from test_compiled import scoped_contract
from test_folds import constraint_timelines

ON_MISSING = ("violate", "satisfy", "skip")


@st.composite
def sessions(draw):
    """A random contract and trace: 0-6 steps, state fields dropped so the
    on_missing policies of preconditions matter, and optionally every soft
    constraint recovering by terminate_session so the session is cut short."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    contract = random_contract(rng)
    steps = draw(st.integers(0, 6))
    states = [random_state(rng) for _ in range(steps + 1)]
    actions = [random_action(rng) for _ in range(steps)]
    for idx, path in draw(st.lists(st.tuples(st.integers(0, steps),
                                             st.sampled_from(STATE_FIELDS)), max_size=4)):
        *parents, leaf = path.split(".")
        node = states[idx]
        for part in parents:
            node = node[part]
        node.pop(leaf, None)

    policies = draw(st.lists(st.sampled_from(ON_MISSING), min_size=len(contract.preconditions),
                             max_size=len(contract.preconditions)))
    contract = replace(contract, preconditions=tuple(
        replace(con, on_missing=policy) for con, policy in zip(contract.preconditions, policies)))
    if draw(st.booleans()):
        stop = lambda cons: tuple(replace(con, recovery="stop") for con in cons)
        contract = replace(
            contract,
            invariants_soft=stop(contract.invariants_soft),
            governance_soft=stop(contract.governance_soft),
            recovery_strategies=(RecoveryStrategy(name="stop", type="terminate_session",
                                                  max_attempts=1),))
    return contract, ExecutionTrace(states=tuple(states), actions=tuple(actions))


@given(sessions())
@settings(max_examples=300, deadline=None)
def test_session_views_agree_with_recomputation(case):
    contract, trace = case
    report = run_session(contract, trace)
    n = len(report.steps)
    seen = ExecutionTrace(states=trace.states[:n + 1], actions=trace.actions[:n])
    assert n == trace.length or any(e.kind == "session_terminated" for e in report.events)

    assert report.verdict == check_deterministic(contract, seen)
    assert report.outcome == classify_outcome(contract, seen)

    # The series covers steps 0..n-1; the trailing state enters only the
    # verdict and the outcome.
    timelines = constraint_timelines(contract, seen)
    hard = contract.hard_constraints()
    for t, c_hard in enumerate(report.c_hard_series):
        assert (c_hard < 1.0) == any(timelines[con.name][t] is False for con in hard)

    # Precondition failures: a violation event at step 0 and exclusion
    # from the ensemble, exactly when the verdict says so.
    flagged = tuple((e.step, e.payload["constraint"]) for e in report.events
                    if e.kind == "violation" and e.payload.get("precondition"))
    assert flagged == report.verdict.witnesses["preconditions"]
    if report.verdict.preconditions_ok:
        hard_clean = all(c == 1.0 for c in report.c_hard_series)
        assert pdk_verdict(contract, [report]).hard_frequency == float(hard_clean)
    else:
        assert report.outcome == "hard_violation"
        with pytest.raises(EmptyEnsemble):
            pdk_verdict(contract, [report])

    # The oracle treats every missing field as a violation.
    if all(con.on_missing == "violate" for con in contract.all_constraints()):
        expected = oracle_deterministic(contract, seen)
        got = {k: getattr(report.verdict, k) for k in
               ("preconditions_ok", "invariants_ok", "governance_ok", "recoverability_ok")}
        got["overall"] = report.verdict.overall
        assert got == expected
        assert report.outcome == oracle_outcome(contract, seen)


# ---------------------------------------------------------------------------
# Stage boundaries: every trace entry point reads a layout the same way
# ---------------------------------------------------------------------------

#: Pinned layouts: decreasing, too few for three stages, too many for
#: either, not integers, and none; then each contract's own layout.
LAYOUTS = [(5, 2), (2,), (2, 4, 6), ("a", 3), ()]


def loan_scenarios(suite_dir):
    """The first scenario of each category of the generated loan pipeline
    (a 3-stage composed contract whose real layout is (2, 4))."""
    manifest = json.load(open(os.path.join(suite_dir, "manifest.json")))
    entries = [e for e in manifest["scenarios"] if e["domain"] == "composition"]
    firsts = {e["id"].rsplit("-", 1)[0]: e for e in reversed(entries)}
    return {category: load_scenario(os.path.join(suite_dir, e["file"]))
            for category, e in firsts.items()}


def scoped_traces():
    """``scoped_contract(2 | 3)`` over a 6-step trace in which y fails at
    states 1 and 5 and x at state 3."""
    states = [{"x": 1, "y": 1} for _ in range(7)]
    states[1]["y"] = states[5]["y"] = states[3]["x"] = 0
    trace = ExecutionTrace(states=tuple(states), actions=(ActionRecord("go"),) * 6)
    return [(scoped_contract(stages), trace, layout)
            for stages, layout in ((2, (2,)), (3, (2, 4)))]


def views(contract, trace, boundaries):
    """Each entry point's reading of the layout: its verdict or outcome,
    or BadBoundaries (any other exception propagates)."""
    def call(view):
        try:
            return view()
        except BadBoundaries:
            return BadBoundaries

    report = call(lambda: run_session(contract, trace, boundaries=boundaries))
    return (call(lambda: check_deterministic(contract, trace, boundaries)),
            call(lambda: verify_chain_trace(contract, trace, boundaries)),
            call(lambda: classify_outcome(contract, trace, boundaries)),
            report if report is BadBoundaries else report.verdict,
            report if report is BadBoundaries else report.outcome)


def check_views_agree(contract, trace, boundaries):
    verdict, chain_verdict, outcome, report_verdict, report_outcome = \
        views(contract, trace, boundaries)
    assert verdict == chain_verdict == report_verdict, boundaries
    assert outcome == report_outcome, boundaries
    assert (verdict is BadBoundaries) == (outcome is BadBoundaries), boundaries
    return verdict, outcome


def test_trace_views_agree_on_every_layout_of_the_loan_pipeline(suite_dir):
    for category, scenario in loan_scenarios(suite_dir).items():
        contract, trace = scenario.contract, scenario.trace
        assert scenario.boundaries == (2, 4)
        for layout in LAYOUTS:
            verdict, _ = check_views_agree(contract, trace, layout)
            assert verdict is BadBoundaries, (category, layout)
        verdict, outcome = check_views_agree(contract, trace, (2, 4))
        assert outcome == scenario.expected.outcome, category
        if category in ("composition-c1-fail", "composition-c2-fail"):
            assert verdict.overall is False


@pytest.mark.parametrize("contract, trace, layout", scoped_traces())
def test_trace_views_agree_on_every_layout_of_a_scoped_contract(contract, trace, layout):
    for boundaries in (*LAYOUTS, layout):
        verdict, outcome = check_views_agree(contract, trace, boundaries)
        assert (verdict is not BadBoundaries) == (boundaries == layout), boundaries
    assert outcome == "hard_violation"


@pytest.mark.parametrize("stages, boundaries", [
    (2, (5, 2)), (2, (2, 4, 6)), (2, ("a", 3)),
    (3, (5, 2)), (3, (2,)), (3, (2, 4, 6)), (3, ("a", 3))])
def test_evaluate_step_refuses_a_bad_layout(stages, boundaries):
    with pytest.raises(BadBoundaries):
        evaluate_step(scoped_contract(stages), {"x": 1, "y": 1}, ActionRecord("go"), 7,
                      boundaries)


def test_evaluate_step_reads_a_numpy_layout_as_check_boundaries_does():
    contract, state, action = scoped_contract(3), {"x": 1, "y": 1}, ActionRecord("go")
    for t in range(7):
        ev = evaluate_step(contract, state, action, t, np.array([2, 4]))
        assert ev == evaluate_step(contract, state, action, t, (2, 4)), t
    assert OUT_OF_PHASE in ev.stored.values()
    with pytest.raises(BadBoundaries, match="needs 2 boundaries, got 0"):
        evaluate_step(contract, state, action, 3, np.array([]))


def test_evaluate_step_sets_no_upper_bound():
    # A streaming monitor's layout may lie past the steps seen so far.
    ev = evaluate_step(scoped_contract(2), {"x": 1, "y": 1}, ActionRecord("go"), 7, (900,))
    assert ev.results["stage:0/x"] is SATISFIED
    assert ev.results["stage:1/x"] is ev.results["handoff:0/x"] is OUT_OF_PHASE
