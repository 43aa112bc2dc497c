"""Differential tests of the session fold and the verdict scans.

``session_timelines`` writes only each step's non-satisfied entries into
lines that start all True, and ``_failures`` / ``_recoverable`` scan the
lines with ``list.index`` and ``in``.  Both are checked here against plain
per-entry loops kept in this file, on sessions whose results mix every
kind a step records: the shared pass and violation, skipped and
satisfied-with-diagnostic results (on_missing over dropped fields), and
out-of-phase results (phase scopes of a composed contract with
boundaries).
"""

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agentcontracts.engine import (OUT_OF_PHASE, SATISFIED, VIOLATED, _failures, _recoverable,
                                   evaluate_constraint, evaluate_step, initial_preconditions,
                                   scope_active, session_timelines)

from helpers import ACTION_FIELDS, STATE_FIELDS, random_action, random_contract, random_state

ON_MISSING = ("violate", "satisfy", "skip")


def _drop(mapping: dict, path: str) -> None:
    *parents, leaf = path.split(".")
    for part in parents:
        mapping = mapping[part]
    mapping.pop(leaf, None)


def random_session(rng: np.random.Generator) -> tuple:
    """A contract of 1-3 stages whose constraints carry random on_missing
    policies and phase scopes, a session of 0-10 steps with fields dropped,
    and stage boundaries over it."""
    stages = int(rng.integers(1, 4))
    scopes = [None, *(f"stage:{i}" for i in range(stages)),
              *(f"handoff:{j}" for j in range(stages - 1))]

    def vary(constraints):
        return tuple(replace(con, on_missing=str(rng.choice(ON_MISSING)),
                             scope=scopes[int(rng.integers(len(scopes)))])
                     for con in constraints)

    contract = random_contract(rng, max_constraints=8)
    contract = replace(contract, stages=stages, **{
        section: vary(getattr(contract, section))
        for section in ("preconditions", "invariants_hard", "invariants_soft",
                        "governance_hard", "governance_soft")})
    n = int(rng.integers(max(0, stages - 2), 11))
    states = [random_state(rng) for _ in range(n + 1)]
    actions = [random_action(rng) for _ in range(n)]
    for state in states:
        for path in STATE_FIELDS:
            if rng.random() < 0.15:
                _drop(state, path)
    for action in actions:
        for path in ACTION_FIELDS:
            if rng.random() < 0.15:
                action.payload.pop(path, None)
    boundaries = tuple(sorted(int(b) for b in rng.choice(n + 1, size=stages - 1,
                                                         replace=False)))
    return contract, states, actions, boundaries


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


@given(timelines=st.lists(lines, max_size=5))
@example(timelines=[[False, False, True, False], [None, True], [False]])
@settings(max_examples=300, deadline=None)
def test_failures_equal_the_plain_loop(timelines):
    contract = random_contract(np.random.default_rng(0), max_constraints=1)
    constraints = [replace(contract.all_constraints()[0], name=f"c{i}")
                   for i in range(len(timelines))]
    named = {con.name: line for con, line in zip(constraints, timelines)}
    assert _failures(constraints, named) == reference_failures(constraints, named)
