"""Differential test of the four views of one session.

``run_session`` derives its c_hard series, deterministic verdict,
three-way outcome and (p, delta, k) standing from the monitor's own step
evaluations.  Here they are checked against ``check_deterministic`` and
``classify_outcome`` recomputed from scratch over the trace the monitor saw,
and against the brute-force oracle where it applies.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentcontracts.engine import check_deterministic, classify_outcome
from agentcontracts.errors import EmptyEnsemble
from agentcontracts.model import ExecutionTrace, RecoveryStrategy
from agentcontracts.monitor import pdk_verdict, run_session

from helpers import (
    STATE_FIELDS,
    oracle_deterministic,
    oracle_outcome,
    random_action,
    random_contract,
    random_state,
)
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
