"""Differential tests of the session fold and the verdict scans.

``session_timelines`` writes only each step's non-satisfied entries into
lines that start all True; ``_fold`` derives the verdict and the outcome
from the stored results alone, and ``_recoverable`` reads a line's entries
that are not True.  Each is checked here against plain per-entry loops
kept in this file, on sessions (``helpers.random_session``) whose results
mix every kind a step records: the shared pass and violation, skipped and
satisfied-with-diagnostic results (on_missing over dropped fields), and
out-of-phase results (phase scopes of a composed contract with
boundaries).
"""

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agentcontracts.engine import (COMPLIANT, HARD_VIOLATION, OUT_OF_PHASE, SATISFIED,
                                   SOFT_VIOLATION, VIOLATED, ConstraintResult, StepEvaluation,
                                   _fold, _recoverable, _trailing, evaluate_constraint,
                                   evaluate_step, initial_preconditions, scope_active)
from agentcontracts.model import Constraint, Contract, Predicate, SatisfactionParams

from helpers import random_contract, random_session


def reference_timelines(contract, preconditions, steps, states, boundaries) -> dict:
    """The fold entry by entry: every step's result of every constraint,
    and the trailing state's invariants interpreted one at a time."""
    n = len(steps)
    lines = {name: [r.satisfied] for name, r in preconditions.items()}
    for con in contract.invariants():
        trailing = (evaluate_constraint(con, states[n], None, "state")
                    if scope_active(con.scope, n, boundaries) else OUT_OF_PHASE)
        lines[con.name] = [s.results[con.name].satisfied for s in steps] + [trailing.satisfied]
    for con in contract.governance():
        lines[con.name] = [s.results[con.name].satisfied for s in steps]
    return lines


def session_timelines(contract, preconditions, steps, states, boundaries=()) -> dict:
    """Per-constraint timelines, lists of True/False/None entries, of steps
    0..n-1 plus an invariant-only evaluation of the trailing state
    ``states[n]``; preconditions get one entry, from the given
    ``initial_preconditions``.  The dense view of a session, written from
    the stored results as the fold reads them (no verdict reads it)."""
    n = len(steps)
    timelines = {name: [r.satisfied] for name, r in preconditions.items()}
    for con in contract.invariants():
        timelines[con.name] = [True] * (n + 1)
    for con in contract.governance():
        timelines[con.name] = [True] * n
    for t, step in enumerate(steps):
        for name, r in step.stored.items():
            timelines[name][t] = r.satisfied
    for name, r in _trailing(contract, states[n], n, boundaries).items():
        timelines[name][n] = r.satisfied
    return timelines


def constraint_timelines(contract, trace, boundaries=()) -> dict:
    """Per-constraint timelines of a whole trace, evaluated from scratch with
    the monitor's step evaluation; ``boundaries`` phase-scope a composed
    contract's constraints."""
    steps = [evaluate_step(contract, trace.states[t], trace.actions[t], t, boundaries)
             for t in range(trace.length)]
    return session_timelines(contract, initial_preconditions(contract, steps, trace.states),
                             steps, trace.states, boundaries)


def fold(contract, states, actions, boundaries) -> tuple:
    steps = [evaluate_step(contract, states[t], actions[t], t, boundaries)
             for t in range(len(actions))]
    preconditions = initial_preconditions(contract, steps, states)
    return steps, preconditions, session_timelines(contract, preconditions, steps, states,
                                                   boundaries)


def result_kind(r) -> str:
    if r is SATISFIED:
        return "satisfied"
    if r is VIOLATED:
        return "violated"
    if r is OUT_OF_PHASE:
        return "out of phase"
    return {True: "satisfied with detail", False: "violated with detail",
            None: "skipped"}[r.satisfied]


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_session_timelines_equal_the_reference_fold(seed):
    contract, states, actions, boundaries = random_session(np.random.default_rng(seed))
    steps, preconditions, timelines = fold(contract, states, actions, boundaries)
    expected = reference_timelines(contract, preconditions, steps, states, boundaries)
    assert timelines == expected
    assert list(timelines) == list(expected)


def test_random_sessions_mix_every_result_kind():
    seen = set()
    for seed in range(200):
        contract, states, actions, boundaries = random_session(np.random.default_rng(seed))
        steps, _, _ = fold(contract, states, actions, boundaries)
        seen.update(result_kind(r) for s in steps for r in s.results.values())
    assert seen >= {"satisfied", "violated", "skipped", "satisfied with detail",
                    "out of phase"}


def reference_recoverable(line, k):
    for t, v in enumerate(line):
        if v is False and not any(u is True for u in line[t:t + k + 1]):
            return t
    return None


def reference_failures(constraints, timelines):
    return tuple((idx, con.name) for con in constraints
                 for idx, v in enumerate(timelines[con.name]) if v is False)


lines = st.lists(st.sampled_from((True, False, None)), max_size=40)


@given(line=lines, k=st.integers(0, 5))
@example(line=[], k=0)
@example(line=[False], k=0)
@example(line=[False, None, None, True], k=2)
@example(line=[False, None, None, True], k=3)
@example(line=[True, False, False, None], k=5)
@settings(max_examples=500, deadline=None)
def test_recoverable_equals_the_plain_loop(line, k):
    assert _recoverable(line, k) == reference_recoverable(line, k)
    assert _recoverable(tuple(line), k) == reference_recoverable(line, k)


def line_fold(name: str, line, k: int = 0, severity: str = "hard") -> tuple:
    """``_fold`` of a session of ``len(line)`` steps whose one governance
    constraint ``name`` has ``line`` as its timeline."""
    con = Constraint(name=name, severity=severity,
                     check=Predicate(field_path="cost", operator="le", operand=1.0))
    contract = Contract(name="line", satisfaction=SatisfactionParams(p=0.9, delta=0.2, k=k),
                        **{f"governance_{severity}": (con,)})
    as_result = {True: SATISFIED, False: VIOLATED,
                 None: ConstraintResult(satisfied=None, detail="skipped")}
    steps = [StepEvaluation(step=t, results={name: as_result[v]}, c_hard=1.0, c_soft=1.0,
                            preconditions={} if t == 0 else None)
             for t, v in enumerate(line)]
    return _fold(contract, {}, steps, {})


@given(line=lines, k=st.integers(0, 5))
@example(line=[], k=0)
@example(line=[False], k=0)
@example(line=[False, None, None, True], k=2)
@example(line=[False, None, None, True], k=3)
@example(line=[True, False, False, None], k=5)
@settings(max_examples=500, deadline=None)
def test_the_fold_recovers_as_the_plain_loop(line, k):
    verdict, outcome = line_fold("c", line, k, severity="soft")
    bad = reference_recoverable(line, k)
    assert verdict.witnesses["recoverability"] == (() if bad is None else ((bad, "c"),))
    assert outcome == (SOFT_VIOLATION if False in line else COMPLIANT)


@given(timelines=st.lists(lines, max_size=5))
@example(timelines=[[False, False, True, False], [None, True], [False]])
@settings(max_examples=300, deadline=None)
def test_failures_equal_the_plain_loop(timelines):
    # Lines of different lengths: one session per line, the witnesses of
    # each in turn, as reference_failures lists them constraint by
    # constraint.
    contract = random_contract(np.random.default_rng(0), max_constraints=1)
    constraints = [replace(contract.all_constraints()[0], name=f"c{i}")
                   for i in range(len(timelines))]
    named = {con.name: line for con, line in zip(constraints, timelines)}
    witnesses = tuple(w for con in constraints
                      for w in line_fold(con.name, named[con.name])[0].witnesses["governance"])
    assert witnesses == reference_failures(constraints, named)


def reference_verdict(contract, timelines) -> tuple:
    """The verdict's witnesses and the outcome, scanned entry by entry."""
    k = contract.satisfaction.k
    witnesses = {
        "preconditions": tuple((0, con.name) for con in contract.preconditions
                               if timelines[con.name][0] is not True),
        "invariants": reference_failures(contract.invariants_hard, timelines),
        "governance": reference_failures(contract.governance_hard, timelines),
        "recoverability": tuple(
            (bad, con.name) for con in contract.soft_constraints()
            if (bad := reference_recoverable(timelines[con.name], k)) is not None),
    }
    if (witnesses["preconditions"]
            or any(False in timelines[con.name] for con in contract.hard_constraints())):
        outcome = HARD_VIOLATION
    elif any(False in timelines[con.name] for con in contract.soft_constraints()):
        outcome = SOFT_VIOLATION
    else:
        outcome = COMPLIANT
    return witnesses, outcome


@given(seed=st.integers(0, 2**32 - 1))
@example(seed=0)
@settings(max_examples=300, deadline=None)
def test_the_fold_equals_the_plain_scans(seed):
    contract, states, actions, boundaries = random_session(np.random.default_rng(seed))
    steps = [evaluate_step(contract, states[t], actions[t], t, boundaries)
             for t in range(len(actions))]
    preconditions = initial_preconditions(contract, steps, states)
    n = len(steps)
    verdict, outcome = _fold(contract, preconditions, steps,
                             _trailing(contract, states[n], n, boundaries))
    witnesses, expected = reference_verdict(
        contract, reference_timelines(contract, preconditions, steps, states, boundaries))
    assert dict(verdict.witnesses) == witnesses
    assert verdict.overall == (not any(witnesses.values()))
    assert outcome == expected
