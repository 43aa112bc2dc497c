"""Per-turn runtime enforcement.

The session monitor evaluates each step in a fixed order: pre-recovery
evaluation (recorded), metric update, event emission, bounded recovery for
violated soft constraints, then a separately recorded post-recovery
re-evaluation.  Compliance series always reflect pre-recovery state; hard
violations are logged, never recovered.

The monitor keeps only per-session state: the contract's plan (see
:mod:`~agentcontracts.engine`) validates the contract when the monitor is
built and holds its tables, among them each soft constraint's chain
flattened into one strategy per attempt: each strategy spends its
``max_attempts`` consecutive attempts before its fallback takes over.  One
attempt is made per step unless ``attempts_per_step=None``, which runs the
whole chain within a single step.  Each violation episode owns its attempt
counter: the counter persists across that episode's steps, and a new
episode, opened when the constraint is violated again after being satisfied,
starts at zero.  An episode emits at most one ``recovery_failed``, after
which it gets no more attempts.  Without a registered hook the monitor is
detection-only: violations of constraints whose strategies need corrective
action emit ``recovery_failed`` immediately.  A hook returns None or a
(state mapping, ActionRecord) pair.  A hook that raises (RecoveryHookError,
chained to the hook's exception) or returns anything else (BadHookReturn)
closes the session: the failing step's report is recorded, without a
post-recovery evaluation, and a later step raises SessionTerminated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Tuple

from .composition import check_boundaries
from .drift import DriftSample, DriftWindow, SessionMetrics, update_drift
from .engine import (
    SatisfactionVerdict,
    StepEvaluation,
    ViolationEvent,
    _plan,
    _recoverable,
    _score_step,
    check_deterministic,
    classify_outcome,
    evaluate_step,
    initial_preconditions,
    session_timelines,
)
from .errors import (BadHookReturn, EmptyEnsemble, RecoveryHookError, SessionTerminated,
                     TraceTooShort)
from .model import (ActionRecord, Constraint, Contract, ExecutionTrace, RecoveryStrategy,
                    SatisfactionParams, StateDict)

__all__ = [
    "MonitorEvent",
    "StepReport",
    "SessionReport",
    "SessionMonitor",
    "RecoveryHook",
    "PdkVerdict",
    "run_session",
    "pdk_verdict",
]

# Hook contract: (strategy, violated constraint, state) -> optional corrected
# (state, action) injected for re-evaluation of the same step.
RecoveryHook = Callable[
    [RecoveryStrategy, Constraint, StateDict],
    Optional[Tuple[StateDict, ActionRecord]],
]

#: Strategy types that execute without a registered hook.
_INTRINSIC_TYPES = ("emit_event", "terminate_session")


def _call_hook(hook: RecoveryHook, t: int, con: Constraint, strategy: RecoveryStrategy,
               state: StateDict):
    """The hook's correction: None or a (state, action) pair.  A hook that
    raises fails with RecoveryHookError, one that returns anything else
    with BadHookReturn."""
    where = (f"step {t}: recovery hook for constraint {con.name!r} "
             f"(strategy {strategy.name!r})")
    try:
        corrected = hook(strategy, con, state)
    except Exception as exc:
        raise RecoveryHookError(f"{where} raised {type(exc).__name__}: {exc}") from exc
    if corrected is None or (
            isinstance(corrected, tuple) and len(corrected) == 2
            and isinstance(corrected[0], Mapping) and isinstance(corrected[1], ActionRecord)):
        return corrected
    returned = type(corrected).__name__
    if isinstance(corrected, tuple):
        returned += "(" + ", ".join(type(v).__name__ for v in corrected) + ")"
    raise BadHookReturn(f"{where} returned {returned}; expected None or a "
                        f"(state mapping, ActionRecord) pair")


@dataclass(frozen=True)
class MonitorEvent:
    kind: str
    step: int
    payload: Mapping = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "step": self.step, "payload": dict(self.payload)}


@dataclass(frozen=True)
class StepReport:
    """Everything observed at one step (pre- and post-recovery)."""

    step: int
    evaluation: StepEvaluation
    drift: DriftSample
    events: tuple
    post_recovery: Optional[StepEvaluation] = None
    terminated: bool = False

    def to_dict(self) -> dict:
        def results_dict(results: Mapping) -> dict:
            return {name: {"satisfied": r.satisfied, "detail": r.detail}
                    for name, r in results.items()}

        out = {
            "step": self.step,
            "c_hard": self.evaluation.c_hard,
            "c_soft": self.evaluation.c_soft,
            "results": results_dict(self.evaluation.results),
            "drift": self.drift.to_dict(),
            "post_recovery": None,
            "terminated": self.terminated,
        }
        if self.evaluation.preconditions is not None:
            out["preconditions"] = results_dict(self.evaluation.preconditions)
        if self.post_recovery is not None:
            out["post_recovery"] = {
                "c_hard": self.post_recovery.c_hard,
                "c_soft": self.post_recovery.c_soft,
                "results": results_dict(self.post_recovery.results),
            }
        return out


@dataclass(frozen=True)
class SessionReport:
    """Session summary: series, logs, metrics, verdicts."""

    contract: str
    steps: tuple
    events: tuple
    violations: tuple
    metrics: SessionMetrics
    verdict: SatisfactionVerdict
    outcome: str
    excluded_steps: int = 0

    @property
    def preconditions_ok(self) -> bool:
        return self.verdict.preconditions_ok

    @property
    def c_hard_series(self) -> tuple:
        return tuple(s.evaluation.c_hard for s in self.steps)

    @property
    def c_soft_series(self) -> tuple:
        return tuple(s.evaluation.c_soft for s in self.steps)

    @property
    def drift_series(self) -> tuple:
        return tuple(s.drift.d_total for s in self.steps)

    def detected_violations(self) -> tuple:
        """(step, constraint) pairs flagged by the monitor (new violation
        episodes plus precondition failures at step 0)."""
        return tuple((e.step, e.payload["constraint"]) for e in self.events
                     if e.kind == "violation")

    def to_dict(self) -> dict:
        return {
            "contract": self.contract,
            "steps": [s.to_dict() for s in self.steps],
            "events": [e.to_dict() for e in self.events],
            "violations": [
                {"step": v.step, "constraint": v.constraint, "severity": v.severity,
                 "nu": v.nu, "recovered_at": v.recovered_at,
                 "delta_t_recovery": v.delta_t_recovery}
                for v in self.violations
            ],
            "metrics": self.metrics.to_dict(),
            "verdicts": {
                "deterministic": self.verdict.to_dict(),
                "outcome": self.outcome,
                "preconditions_ok": self.preconditions_ok,
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)


class _Episode:
    """Mutable bookkeeping for one open violation: the recovery attempts
    it has used, and whether its recovery has failed (after which it gets
    no more attempts)."""

    __slots__ = ("step", "nu", "severity", "used", "failed")

    def __init__(self, step: int, nu: float, severity: str):
        self.step = step
        self.nu = nu
        self.severity = severity
        self.used = 0
        self.failed = False


class SessionMonitor:
    """Stateful per-session enforcement loop (single writer).

    ``boundaries`` are the handoff state indices of a session over a
    composed contract, one per handoff (``contract.stages - 1``): each
    stage's invariants bind only inside its stage, the last stage running
    to the end of the trace, and handoff invariants only at their boundary
    state.  They are checked here, against ``trace_length`` when it is
    given (None, for a stream of unknown length, sets no upper bound);
    bad or missing boundaries raise BadBoundaries.  A contract that
    :func:`~agentcontracts.model.validate_contract` rejects raises
    SemanticError here, when the contract's plan is built.
    """

    def __init__(self, contract: Contract, hook: Optional[RecoveryHook] = None,
                 listeners: Sequence[Callable[[MonitorEvent], None]] = (),
                 attempts_per_step: Optional[int] = 1,
                 boundaries: Optional[Sequence[int]] = None,
                 trace_length: Optional[int] = None):
        self._plan = _plan(contract)
        self.contract = contract
        self.hook = hook
        self.listeners = list(listeners)
        self.attempts_per_step = attempts_per_step
        self.boundaries = check_boundaries(() if boundaries is None else boundaries,
                                           contract.stages, trace_length)

        self._t = 0
        self._closed_by: Optional[str] = None
        self.window = DriftWindow.for_contract(contract)
        self._episodes: dict = {}
        self.step_reports: list = []
        self.violation_events: list = []
        self._events: list = []

    @property
    def terminated(self) -> bool:
        """Whether the session is closed: by a terminate_session strategy,
        or by a recovery hook that raised or returned a bad value."""
        return self._closed_by is not None

    # -- events ------------------------------------------------------------

    def _emit(self, kind: str, step: int, **payload) -> MonitorEvent:
        event = MonitorEvent(kind=kind, step=step, payload=payload)
        self._events.append(event)
        for listener in self.listeners:
            listener(event)
        return event

    # -- the enforcement loop ----------------------------------------------

    def step(self, state: StateDict, action: ActionRecord) -> StepReport:
        """Run one enforcement turn for (s_t, a_t)."""
        if self._closed_by is not None:
            raise SessionTerminated(f"session closed by {self._closed_by} before step {self._t}")
        t = self._t
        self._t += 1
        step_events_start = len(self._events)

        # 1. Pre-recovery evaluation (this is what the series record).
        evaluation = evaluate_step(self.contract, state, action, t, self.boundaries)

        # 2. Metric update.
        drift = update_drift(self.window, self.contract.drift_config, evaluation, action)

        # 3. Event emission.
        if evaluation.preconditions:
            self._flag_preconditions(evaluation.preconditions)

        # Close episodes for constraints back in compliance, then open new
        # ones, each in results order (which orders violation_events).  A
        # new episode needs a violated result, so only the non-satisfied
        # results are read for it.
        results, episodes = evaluation.results, self._episodes
        if episodes:
            closing = [name for name in episodes if results[name].satisfied is True]
            closing.sort(key=self._plan.order.__getitem__)
            for name in closing:
                self._close_episode(name, recovered_at=t)
        newly_violated = [name for name in evaluation.non_satisfied
                          if results[name].satisfied is False and name not in episodes]

        if newly_violated:
            nu = self._severity(newly_violated)
            for name in newly_violated:
                severity = "hard" if name in self._plan.hard else "soft"
                episodes[name] = _Episode(step=t, nu=nu, severity=severity)
                self._emit("violation", t, constraint=name, severity=severity,
                           nu=nu, detail=results[name].detail)

        d = drift.d_total
        cfg = self.contract.drift_config
        if cfg.theta1 < d <= cfg.theta2:
            self._emit("drift_alert_mild", t, drift=d)
        elif d > cfg.theta2:
            self._emit("drift_alert_severe", t, drift=d)

        # 4. Recovery for violated soft constraints (hard ones only logged).
        # The step's report is kept even when recovery raises: a failed
        # hook closes the session after its step.
        post = None
        try:
            post = self._attempt_recovery(t, state, action, evaluation)
        except (RecoveryHookError, BadHookReturn) as exc:
            self._closed_by = f"{type(exc).__name__} ({exc})"
            raise
        finally:
            report = StepReport(
                step=t,
                evaluation=evaluation,
                drift=drift,
                events=tuple(self._events[step_events_start:]),
                post_recovery=post,
                terminated=self.terminated,
            )
            self.step_reports.append(report)
        return report

    def _flag_preconditions(self, preconditions: Mapping) -> None:
        """A step-0 violation event for each precondition that does not hold."""
        for name, r in preconditions.items():
            if r.satisfied is not True:
                self._emit("violation", 0, constraint=name, severity="hard",
                           precondition=True, detail=r.detail)

    def _severity(self, names: Sequence[str]) -> float:
        """Compliance drop attributable to this step's new violations,
        floored at one unit weight."""
        drop = sum(self._plan.weights[n] for n in names)
        return min(1.0, max(drop, 1.0) / self._plan.total_weight)

    def _close_episode(self, name: str, recovered_at: Optional[int] = None) -> None:
        """Log the episode of ``name``; one never recovered has no duration."""
        episode = self._episodes.pop(name)
        self.violation_events.append(ViolationEvent(
            step=episode.step, constraint=name, severity=episode.severity,
            nu=episode.nu, recovered_at=recovered_at,
            delta_t_recovery=None if recovered_at is None else recovered_at - episode.step))

    def _recovery_failed(self, t: int, con: Constraint, episode: _Episode,
                         reason: str, **strategy) -> None:
        episode.failed = True
        self._emit("recovery_failed", t, constraint=con.name, **strategy, reason=reason)

    def _attempt_recovery(self, t: int, state: StateDict, action: ActionRecord,
                          evaluation: StepEvaluation) -> Optional[StepEvaluation]:
        post: Optional[StepEvaluation] = None
        if not self._episodes:
            return post
        current_state, current_action = state, action

        for con, schedule in self._plan.schedules:
            episode = self._episodes.get(con.name)
            if episode is None or episode.failed:
                continue
            if (post or evaluation).results[con.name].satisfied is not False:
                continue

            stop = len(schedule)
            if self.attempts_per_step is not None:
                stop = min(stop, episode.used + self.attempts_per_step)
            recovered = False

            while episode.used < stop:
                strategy = schedule[episode.used]
                if self.hook is None and strategy.type not in _INTRINSIC_TYPES:
                    self._recovery_failed(t, con, episode, "no recovery hook registered",
                                          strategy=strategy.name)
                    break

                episode.used += 1
                self._emit("recovery_attempted", t, constraint=con.name,
                           strategy=strategy.name, attempt=episode.used)
                if strategy.type == "terminate_session":
                    self._closed_by = "terminate_session"
                    self._emit("session_terminated", t, constraint=con.name,
                               strategy=strategy.name)
                    break

                corrected = None
                if self.hook is not None:
                    corrected = _call_hook(self.hook, t, con, strategy, current_state)
                if corrected is not None:
                    current_state, current_action = corrected
                    post = _score_step(self.contract, current_state, current_action,
                                       t, self.boundaries, None)
                    if post.results[con.name].satisfied is True:
                        self._emit("recovery_succeeded", t, constraint=con.name,
                                   strategy=strategy.name)
                        self._close_episode(con.name, recovered_at=t)
                        recovered = True
                        break

            if not recovered and episode.used >= len(schedule):
                self._recovery_failed(t, con, episode, "attempt budget exhausted" if schedule
                                      else "no recovery strategy defined")
            if self.terminated:
                break
        return post

    # -- finalization --------------------------------------------------------

    def finalize(self, trace: ExecutionTrace) -> SessionReport:
        """Close the session and roll up the report.

        Every verdict is derived from the pre-recovery step evaluations and
        one invariant-only evaluation of the trailing state (the end of the
        truncated trace if terminated): pre-recovery behavior exactly.
        When no step ran, the preconditions are evaluated here and each
        one that does not hold is flagged at step 0, as :meth:`step` does.
        A trace of fewer steps than the monitor ran raises TraceTooShort.
        """
        evaluations = [r.evaluation for r in self.step_reports]
        steps_run = len(evaluations)
        if trace.length < steps_run:
            raise TraceTooShort(f"finalize needs the session's trace: the monitor ran "
                                f"{steps_run} steps, the trace has {trace.length}")
        preconditions = initial_preconditions(self.contract, evaluations, trace.states)
        if not steps_run:
            self._flag_preconditions(preconditions)
        timelines = session_timelines(self.contract, preconditions, evaluations,
                                      trace.states, self.boundaries)

        # The trailing state closes recovery windows of a completed session.
        if steps_run == trace.length and steps_run > 0:
            for con in self.contract.invariants():
                if timelines[con.name][-1] is True and con.name in self._episodes:
                    self._close_episode(con.name, recovered_at=steps_run)

        for name in sorted(self._episodes):
            self._close_episode(name)

        verdict = check_deterministic(self.contract, trace, timelines=timelines)
        outcome = classify_outcome(self.contract, trace, timelines=timelines)

        compliance_series = [1.0 - s.drift.d_compliance for s in self.step_reports]
        metrics = SessionMetrics.compute(
            c_hard=[s.evaluation.c_hard for s in self.step_reports],
            c_soft=[s.evaluation.c_soft for s in self.step_reports],
            compliance=compliance_series,
            drift=[s.drift.d_total for s in self.step_reports],
            events=self.violation_events,
            weights=self.contract.reliability_weights,
        )

        return SessionReport(
            contract=self.contract.name,
            steps=tuple(self.step_reports),
            events=tuple(self._events),
            violations=tuple(self.violation_events),
            metrics=metrics,
            verdict=verdict,
            outcome=outcome,
            excluded_steps=trace.length - steps_run,
        )


def run_session(contract: Contract, trace: ExecutionTrace,
                hook: Optional[RecoveryHook] = None,
                listeners: Sequence[Callable[[MonitorEvent], None]] = (),
                attempts_per_step: Optional[int] = 1,
                boundaries: Optional[Sequence[int]] = None) -> SessionReport:
    """Replay a trace through the monitor and return the session report.

    Deterministic given (contract, trace, hook behavior).  An empty trace
    (one state, zero actions) yields a report with the precondition
    verdict only.  ``boundaries`` are checked as by :class:`SessionMonitor`.
    """
    monitor = SessionMonitor(contract, hook=hook, listeners=listeners,
                             attempts_per_step=attempts_per_step,
                             boundaries=boundaries, trace_length=trace.length)
    for t in range(trace.length):
        if monitor.terminated:
            break
        monitor.step(trace.states[t], trace.actions[t])
    return monitor.finalize(trace)


# ---------------------------------------------------------------------------
# (p, delta, k) verdicts over session ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PdkVerdict:
    """Probabilistic satisfaction over an ensemble of sessions."""

    holds: bool
    hard_frequency: float
    soft_frequency: float
    p: float
    delta: float
    k: int
    sessions: int
    excluded: int
    hard_counterexamples: tuple
    soft_counterexamples: tuple

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "hard_frequency": self.hard_frequency,
            "soft_frequency": self.soft_frequency,
            "p": self.p, "delta": self.delta, "k": self.k,
            "sessions": self.sessions,
            "excluded": self.excluded,
            "hard_counterexamples": list(self.hard_counterexamples),
            "soft_counterexamples": list(self.soft_counterexamples),
        }


def pdk_verdict(contract: Contract, sessions: Sequence[SessionReport],
                params: Optional[SatisfactionParams] = None) -> PdkVerdict:
    """Check the (p, delta, k) guarantee over an ensemble of sessions.

    Hard guarantee: the fraction of sessions with C_hard(t) = 1 at every
    step must reach p.  Soft guarantee: the fraction of sessions where
    every dip of C_soft below 1 - delta recovers within k steps must reach
    p.  Sessions whose preconditions failed are excluded from the ensemble
    (their count is reported).
    """
    if params is None:
        params = contract.satisfaction
    if not sessions:
        raise EmptyEnsemble("no sessions supplied")
    usable = [(i, s) for i, s in enumerate(sessions) if s.preconditions_ok]
    excluded = len(sessions) - len(usable)
    if not usable:
        raise EmptyEnsemble("every session failed its preconditions")

    hard_bad = tuple(i for i, s in usable
                     if any(c < 1.0 for c in s.c_hard_series))
    soft_bad = tuple(i for i, s in usable
                     if _recoverable([c >= 1.0 - params.delta for c in s.c_soft_series],
                                     params.k) is not None)
    n = len(usable)
    hard_frequency = (n - len(hard_bad)) / n
    soft_frequency = (n - len(soft_bad)) / n
    return PdkVerdict(
        holds=hard_frequency >= params.p and soft_frequency >= params.p,
        hard_frequency=hard_frequency,
        soft_frequency=soft_frequency,
        p=params.p, delta=params.delta, k=params.k,
        sessions=n, excluded=excluded,
        hard_counterexamples=hard_bad,
        soft_counterexamples=soft_bad,
    )
