"""Behavioral drift score and session-level metrics.

The drift score at a step combines a weighted compliance gap with the
Jensen--Shannon divergence (log base 2) between the observed action
distribution over a sliding window and a calibrated reference
distribution.  Out-of-vocabulary action labels pool into a reserved
``__other__`` bucket carried in both supports; both distributions receive
add-epsilon smoothing (1e-9) before the divergence so KL terms stay
finite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .engine import StepEvaluation, ViolationEvent
from .errors import DimensionMismatch, EmptyInput, NotNormalized, ZeroBaseline
from .model import OTHER_LABEL, ActionRecord, Constraint, DriftConfig, ReliabilityWeights

__all__ = [
    "jsd",
    "DriftWindow",
    "DriftSample",
    "SessionMetrics",
    "update_drift",
    "recovery_effectiveness",
    "stress_resilience",
    "reliability_index",
]

_SMOOTH_EPS = 1e-9
_NORM_TOL = 1e-9


def jsd(p: Sequence[float], q: Sequence[float]) -> float:
    """Jensen--Shannon divergence with log base 2 (bounded by 1).

    Both inputs must be non-negative vectors over the same support
    ordering, each summing to 1 within 1e-9.  Symmetric, zero iff p == q.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise DimensionMismatch(f"supports differ: {p.shape} vs {q.shape}")
    if p.size == 0:
        raise DimensionMismatch("empty distributions")
    if np.any(p < 0) or np.any(q < 0):
        raise NotNormalized("distributions must be non-negative")
    if abs(p.sum() - 1.0) > _NORM_TOL or abs(q.sum() - 1.0) > _NORM_TOL:
        raise NotNormalized(f"distributions must sum to 1 (got {p.sum()}, {q.sum()})")
    m = 0.5 * (p + q)
    return float(_kl2(p, m) / 2.0 + _kl2(q, m) / 2.0)


def _kl2(p: np.ndarray, q: np.ndarray) -> float:
    """KL divergence in bits with the 0 log 0 = 0 convention."""
    mask = p > 0
    return float(np.sum(p[mask] * np.log2(p[mask] / q[mask])))


def _smooth(p: np.ndarray) -> np.ndarray:
    p = p + _SMOOTH_EPS
    return p / p.sum()


@dataclass(frozen=True)
class DriftSample:
    """Drift score at one step with its diagnostic decomposition."""

    t: int
    d_compliance: float
    d_distributional: float
    d_total: float
    decomposition: tuple  # (d_preconditions, d_invariants, d_governance, d_distributional)

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "d_compliance": self.d_compliance,
            "d_distributional": self.d_distributional,
            "d_total": self.d_total,
            "decomposition": list(self.decomposition),
        }


class DriftWindow:
    """Sliding histogram of recent action labels for one session.

    Single-writer: one session feeds one window.  The observed
    distribution always matches a from-scratch recount of the retained
    labels (the incremental update is an optimization, not a semantic).
    """

    def __init__(self, config: DriftConfig,
                 invariants: Iterable[Constraint] = (),
                 governance: Iterable[Constraint] = ()):
        self.config = config
        self.support = tuple(config.vocabulary) + (OTHER_LABEL,)
        self._index = {label: i for i, label in enumerate(self.support)}
        self._labels: deque = deque()
        self._counts = np.zeros(len(self.support), dtype=float)
        ref = np.array([config.reference.get(label, 0.0) for label in self.support], dtype=float)
        if ref.sum() <= 0:
            # No calibrated reference (empty vocabulary): the
            # distributional component is disabled.
            ref = None
        self._reference = ref
        self.invariants = tuple(invariants)
        self.governance = tuple(governance)

    @classmethod
    def for_contract(cls, contract) -> "DriftWindow":
        return cls(contract.drift_config,
                   invariants=contract.invariants(),
                   governance=contract.governance())

    def push(self, label: str) -> None:
        idx = self._index.get(label, self._index[OTHER_LABEL])
        self._labels.append(idx)
        self._counts[idx] += 1
        if len(self._labels) > self.config.window:
            old = self._labels.popleft()
            self._counts[old] -= 1

    def observed(self) -> np.ndarray:
        """Normalized observed distribution over the support (empty window
        yields the zero vector)."""
        total = self._counts.sum()
        if total <= 0:
            return np.zeros_like(self._counts)
        return self._counts / total

    def distributional_drift(self) -> float:
        """Smoothed JSD between observed and reference; 0 with no evidence."""
        if self._reference is None or not self._labels:
            return 0.0
        return jsd(_smooth(self.observed()), _smooth(self._reference))


def _weighted_gap(step: StepEvaluation, constraints: Sequence[Constraint]) -> float:
    """Weighted compliance gap over the given constraints (skipped results
    are excluded from numerator and denominator)."""
    num = den = 0.0
    for con in constraints:
        r = step.results.get(con.name)
        if r is None or r.satisfied is None:
            continue
        den += con.weight
        if not r.satisfied:
            num += con.weight
    return num / den if den > 0 else 0.0


def update_drift(window: DriftWindow, config: DriftConfig, step: StepEvaluation,
                 action: ActionRecord) -> DriftSample:
    """Advance the window with the step's action and compute the drift
    sample: d = w_c * compliance_gap + w_d * JSD(observed || reference).

    The compliance gap runs over the window's invariants + governance
    constraints; preconditions do not enter it -- their status appears only
    in the decomposition's first component (1.0 when a precondition failed
    at t = 0).
    """
    window.push(action.label)

    d_comp = _weighted_gap(step, window.invariants + window.governance)
    d_dist = window.distributional_drift()
    d_total = config.w_c * d_comp + config.w_d * d_dist

    d_pre = 0.0 if step.preconditions_ok() else 1.0

    return DriftSample(
        t=step.step,
        d_compliance=d_comp,
        d_distributional=d_dist,
        d_total=d_total,
        decomposition=(d_pre,
                       _weighted_gap(step, window.invariants),
                       _weighted_gap(step, window.governance),
                       d_dist),
    )


# ---------------------------------------------------------------------------
# Session-level metrics
# ---------------------------------------------------------------------------

def recovery_effectiveness(events: Sequence[ViolationEvent]) -> float:
    """Session recovery effectiveness: mean of delta_t / severity over the
    violation events that carry a recovery duration.  Lower is better; no
    events at all means 0 (the best possible contribution)."""
    samples = [e.delta_t_recovery / e.nu for e in events if e.delta_t_recovery is not None]
    if not samples:
        return 0.0
    return float(np.mean(samples))


def stress_resilience(stressed: Sequence[float], baseline: Sequence[float]) -> float:
    """Ratio of mean compliance under stress to mean baseline compliance.

    May exceed 1 when stress tightens behavior; raises EmptyInput /
    ZeroBaseline on degenerate inputs.
    """
    if len(stressed) == 0 or len(baseline) == 0:
        raise EmptyInput("stress resilience needs non-empty compliance series")
    base = float(np.mean(baseline))
    if base == 0.0:
        raise ZeroBaseline("baseline compliance mean is zero")
    return float(np.mean(stressed)) / base


def reliability_index(mean_compliance: float, mean_drift: float,
                      recovery_e: float, stress_s: float,
                      weights: ReliabilityWeights = ReliabilityWeights()) -> float:
    """Composite reliability: a1*C + a2*(1-D) + a3/(1+E) + a4*S.

    S is clamped to [0,1] inside the composite only, keeping the index in
    [0,1]; callers report the raw ratio separately.
    """
    s = min(1.0, max(0.0, stress_s))
    return (weights.a1 * mean_compliance
            + weights.a2 * (1.0 - mean_drift)
            + weights.a3 * (1.0 / (1.0 + recovery_e))
            + weights.a4 * s)


@dataclass(frozen=True)
class SessionMetrics:
    """Session roll-up consumed by the reliability index."""

    mean_c_hard: float
    mean_c_soft: float
    mean_compliance: float
    mean_drift: float
    recovery_effectiveness: float
    stress_resilience: Optional[float]
    theta: float

    @staticmethod
    def compute(c_hard: Sequence[float], c_soft: Sequence[float],
                compliance: Sequence[float], drift: Sequence[float],
                events: Sequence[ViolationEvent],
                weights: ReliabilityWeights,
                stress: Optional[float] = None) -> "SessionMetrics":
        mean = lambda xs: float(np.mean(xs)) if len(xs) else 1.0
        e = recovery_effectiveness(events)
        c_bar = mean(compliance)
        d_bar = float(np.mean(drift)) if len(drift) else 0.0
        theta = reliability_index(c_bar, d_bar, e, 1.0 if stress is None else stress, weights)
        return SessionMetrics(
            mean_c_hard=mean(c_hard),
            mean_c_soft=mean(c_soft),
            mean_compliance=c_bar,
            mean_drift=d_bar,
            recovery_effectiveness=e,
            stress_resilience=stress,
            theta=theta,
        )

    def to_dict(self) -> dict:
        return {
            "mean_c_hard": self.mean_c_hard,
            "mean_c_soft": self.mean_c_soft,
            "mean_compliance": self.mean_compliance,
            "mean_drift": self.mean_drift,
            "recovery_effectiveness": self.recovery_effectiveness,
            "stress_resilience": self.stress_resilience,
            "theta": self.theta,
        }
