"""Behavioral drift score and session-level metrics.

The drift score at a step combines a weighted compliance gap with the
Jensen--Shannon divergence (log base 2) between the observed action
distribution over a sliding window and a calibrated reference
distribution.  Out-of-vocabulary action labels pool into a reserved
``__other__`` bucket carried in both supports; both distributions receive
add-epsilon smoothing (1e-9) before the divergence so KL terms stay
finite.

The module imports no numpy.  The window keeps its counts in a list; the
divergence runs in plain Python, and its sums and the session means use
:func:`pairwise_sum`, a copy of numpy's pairwise summation, so they equal
numpy's results bit for bit.

A window holds at most ``window`` distinct labels, and every label absent
from it smooths to the same ``eps / norm`` (``norm`` the smoothed total,
of which a session sees only a handful of values).  So the smoothed
reference and, per ``norm``, both KL terms of every absent label are
built once per drift configuration and shared by its windows; a step
computes terms for the labels present only.  Each term comes from the
same float operations on the same inputs as the plain kernel, and both
term lists are summed in support order, so the divergence stays
bit-identical to ``_jsd(_smooth(observed), reference)``.  Steps with no
violated result skip the weighted gaps, whose numerators are then 0.

The divergence depends on the window's count vector alone, and a window
of ``w`` labels over a support of ``n`` can hold only
``comb(w + n, n)`` count vectors.  A configuration whose count times
``n`` (the key length) is at most ``_TABLE_CELLS`` (2**16) keeps a table
from count vector to divergence, next to its other shared state (built
by its first window, never pickled or copied), filled as windows reach
each vector: a step looks its counts up and runs the kernel only on a
miss.  The stored value is the kernel's own result for those counts, so
every drift value stays bit-identical; the table can never outgrow the
gate's count, so it needs no eviction; a configuration past the gate (50
labels with window 10 come to about 4.6e12) keeps none and pays nothing.
The worst case is the smallest support, 2 labels with window 254:
32,640 entries, about 4 MB.  The bundled contract comes to 126 entries
of 5 counts.  Two windows filling one entry at once store the same value,
so concurrent writers are harmless.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable, Mapping, Optional, Sequence

from .engine import StepEvaluation, ViolationEvent, _plan
from .errors import DimensionMismatch, EmptyInput, NotNormalized, ZeroBaseline
from .model import OTHER_LABEL, ActionRecord, Constraint, DriftConfig, ReliabilityWeights

__all__ = [
    "jsd",
    "mean",
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
#: Smoothed totals whose absent-label terms a drift configuration keeps;
#: a window of w labels gives only a handful of distinct totals.
_ABSENT_TERMS_KEPT = 64
#: Bound on a configuration's table of window states: the count vectors
#: its windows can hold times their length.
_TABLE_CELLS = 2 ** 16


def pairwise_sum(xs: Sequence[float]) -> float:
    """Sum of a list of floats, bit-identical to ``numpy.sum`` of it:
    numpy's pairwise summation, started (as numpy's add reduction is) from
    its identity 0.0, so all ``-0.0`` sums to 0.0."""
    return 0.0 + _pairwise(xs, 0, len(xs))


def _pairwise(xs: Sequence[float], lo: int, n: int) -> float:
    # numpy's pairwise_sum: under 8 terms, left to right; up to a block of
    # 128, eight interleaved accumulators combined as a tree, then the rest
    # left to right; a longer run splits at a multiple of 8 near its middle.
    # reduce(add) folds left to right in plain float additions.
    if n < 8:
        return reduce(add, xs[lo:lo + n], -0.0)
    if n <= 128:
        stop = lo + n - n % 8
        r = [reduce(add, xs[lo + j:stop:8]) for j in range(8)]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, xs[stop:lo + n], res)
    half = n // 2
    half -= half % 8
    return _pairwise(xs, lo, half) + _pairwise(xs, lo + half, n - half)


def mean(xs: Sequence[float], empty: float = math.nan) -> float:
    """Mean of a list of floats, bit-identical to ``float(numpy.mean(xs))``;
    ``empty`` (numpy's nan by default) for an empty list."""
    return pairwise_sum(xs) / len(xs) if len(xs) else empty


def jsd(p: Sequence[float], q: Sequence[float]) -> float:
    """Jensen--Shannon divergence with log base 2 (bounded by 1).

    Both inputs must be non-negative vectors over the same support
    ordering, each summing to 1 within 1e-9.  Symmetric, zero iff p == q.
    """
    p, q = _vector(p), _vector(q)
    if len(p) != len(q):
        raise DimensionMismatch(f"supports differ: ({len(p)},) vs ({len(q)},)")
    if not p:
        raise DimensionMismatch("empty distributions")
    # Written so that NaN fails each check: every comparison with NaN is False.
    if not all(v >= 0 for v in p) or not all(v >= 0 for v in q):
        raise NotNormalized("distributions must be non-negative")
    p_sum, q_sum = pairwise_sum(p), pairwise_sum(q)
    if not abs(p_sum - 1.0) <= _NORM_TOL or not abs(q_sum - 1.0) <= _NORM_TOL:
        raise NotNormalized(f"distributions must sum to 1 (got {p_sum}, {q_sum})")
    return _jsd(p, q)


def _vector(p) -> list:
    try:
        return [float(v) for v in p]
    except TypeError:
        raise DimensionMismatch("distributions must be one-dimensional") from None


def _jsd(p: Sequence[float], q: Sequence[float]) -> float:
    """The divergence kernel over two distributions on one support."""
    m = [0.5 * (a + b) for a, b in zip(p, q)]
    return _kl2(p, m) / 2.0 + _kl2(q, m) / 2.0


def _kl2(p: Sequence[float], q: Sequence[float]) -> float:
    """KL divergence in bits with the 0 log 0 = 0 convention."""
    return pairwise_sum([a * math.log2(a / b) for a, b in zip(p, q) if a > 0])


def _kl_terms(p: Sequence[float], q: Sequence[float]) -> tuple:
    """The per-index terms of ``_kl2(p, m)`` and ``_kl2(q, m)``, m the
    midpoint, as :func:`_jsd` forms them, for two strictly positive
    (smoothed) distributions: no term is dropped."""
    m = [0.5 * (a + b) for a, b in zip(p, q)]
    return ([a * math.log2(a / b) for a, b in zip(p, m)],
            [a * math.log2(a / b) for a, b in zip(q, m)])


def _smooth(p: Sequence[float]) -> list:
    p = [v + _SMOOTH_EPS for v in p]
    total = pairwise_sum(p)
    return [v / total for v in p]


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


def _tabled(window, n: int) -> bool:
    """Whether a window of ``window`` labels over a support of ``n`` gets a
    table: ``comb(window + n, n)`` count vectors of length ``n`` fit
    ``_TABLE_CELLS``.  The count is at least ``2 ** min(window, n)``, so it
    is computed only when that is at most 16 (and cheap)."""
    return (type(window) is int and 0 <= min(window, n) <= 16
            and math.comb(window + n, n) * n <= _TABLE_CELLS)


class _Shared:
    """What the windows over one drift configuration share, built by the
    first of them and cached on the configuration object: the support and
    its label index, the smoothed reference (None with no calibrated
    reference, an empty vocabulary, which disables the distributional
    component), the absent-label terms per smoothed total, and the table
    of window states (None past the gate, or with no reference)."""

    __slots__ = ("support", "index", "other", "reference", "absent_terms", "table")

    def __init__(self, config: DriftConfig):
        self.support = tuple(config.vocabulary) + (OTHER_LABEL,)
        self.index = {label: i for i, label in enumerate(self.support)}
        self.other = self.index[OTHER_LABEL]
        ref = [float(config.reference.get(label, 0.0)) for label in self.support]
        self.reference = _smooth(ref) if pairwise_sum(ref) > 0 else None
        self.absent_terms: dict = {}
        tabled = self.reference is not None and _tabled(config.window, len(self.support))
        self.table = {} if tabled else None


class DriftWindow:
    """Sliding histogram of recent action labels for one session.

    Single-writer: one session feeds one window.  The observed
    distribution always matches a from-scratch recount of the retained
    labels (the incremental update is an optimization, not a semantic).
    Everything but the labels and their counts is shared: with the other
    windows over the configuration, and the constraints' weights with the
    contract's plan.
    """

    def __init__(self, config: DriftConfig,
                 invariants: Iterable[Constraint] = (),
                 governance: Iterable[Constraint] = ()):
        shared = vars(config).get("_compiled")
        if shared is None:
            shared = vars(config)["_compiled"] = _Shared(config)
        self.config = config
        self.support = shared.support
        self._index, self._other = shared.index, shared.other
        self._reference, self._absent_terms = shared.reference, shared.absent_terms
        self._table = shared.table
        self._weights = (tuple((c.name, c.weight) for c in invariants),
                         tuple((c.name, c.weight) for c in governance))
        self._labels: deque = deque()
        self._counts = [0] * len(self.support)

    @classmethod
    def for_contract(cls, contract) -> "DriftWindow":
        """A window over the contract's drift configuration that scores its
        invariants and governance constraints by its plan's weights."""
        window = cls(contract.drift_config)
        window._weights = _plan(contract).gap_weights
        return window

    def push(self, label: str) -> None:
        idx = self._index.get(label, self._other)
        self._labels.append(idx)
        self._counts[idx] += 1
        if len(self._labels) > self.config.window:
            old = self._labels.popleft()
            self._counts[old] -= 1

    def observed(self) -> list:
        """Normalized observed distribution over the support (empty window
        yields the zero vector)."""
        total = sum(self._counts)
        if total <= 0:
            return [0.0] * len(self._counts)
        return [c / total for c in self._counts]

    def distributional_drift(self) -> float:
        """Smoothed JSD between observed and reference; 0 with no evidence.

        A configuration with a table (see the module docstring) looks the
        window's counts up in it and computes the divergence only on a miss.
        """
        if self._reference is None or not self._labels:
            return 0.0
        table = self._table
        if table is None:
            return self._divergence()
        key = tuple(self._counts)
        d = table.get(key)
        if d is None:
            d = table[key] = self._divergence()
        return d

    def _divergence(self) -> float:
        """The divergence of a non-empty window, equal bit for bit to
        ``_jsd(_smooth(self.observed()), reference)``: both KL term lists
        are built by the same float operations on the same inputs and
        summed in the same order.  A label absent from the window smooths
        to ``eps / norm``, so its two terms depend only on ``norm``, the
        smoothed total; they are cached per ``norm``, and only the labels
        present are computed afresh."""
        q = self._reference
        counts, total = self._counts, len(self._labels)
        present = set(self._labels)
        p = [_SMOOTH_EPS] * len(q)   # 0 / total + eps for an absent label
        for i in present:
            p[i] = counts[i] / total + _SMOOTH_EPS
        norm = pairwise_sum(p)
        absent = self._absent_terms.get(norm)
        if absent is None:
            if len(self._absent_terms) >= _ABSENT_TERMS_KEPT:
                self._absent_terms.clear()
            absent = self._absent_terms[norm] = _kl_terms([_SMOOTH_EPS / norm] * len(q), q)
        p_terms, q_terms = absent[0][:], absent[1][:]
        for i in present:
            a, b = p[i] / norm, q[i]
            m = 0.5 * (a + b)
            p_terms[i] = a * math.log2(a / m)
            q_terms[i] = b * math.log2(b / m)
        return pairwise_sum(p_terms) / 2.0 + pairwise_sum(q_terms) / 2.0

    def weighted_gaps(self, results: Mapping) -> tuple:
        """Weighted compliance gaps ``(all, invariants, governance)`` in one
        pass over the window's invariants then governance constraints;
        skipped or absent results are excluded from numerator and
        denominator."""
        num = den = 0.0
        parts = []
        for weights in self._weights:
            part_num = part_den = 0.0
            for name, weight in weights:
                r = results.get(name)
                if r is None or r.satisfied is None:
                    continue
                den += weight
                part_den += weight
                if not r.satisfied:
                    num += weight
                    part_num += weight
            parts.append(part_num / part_den if part_den > 0 else 0.0)
        return (num / den if den > 0 else 0.0, parts[0], parts[1])


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

    results = step.results
    if any(results[name].satisfied is False for name in step.non_satisfied):
        d_comp, d_inv, d_gov = window.weighted_gaps(results)
    else:
        d_comp = d_inv = d_gov = 0.0   # no violation: every gap's numerator is 0
    d_dist = window.distributional_drift()
    d_total = config.w_c * d_comp + config.w_d * d_dist

    d_pre = 0.0 if step.preconditions_ok() else 1.0

    return DriftSample(
        t=step.step,
        d_compliance=d_comp,
        d_distributional=d_dist,
        d_total=d_total,
        decomposition=(d_pre, d_inv, d_gov, d_dist),
    )


# ---------------------------------------------------------------------------
# Session-level metrics
# ---------------------------------------------------------------------------

def recovery_effectiveness(events: Sequence[ViolationEvent]) -> float:
    """Session recovery effectiveness: mean of delta_t / severity over the
    violation events that carry a recovery duration.  Lower is better; no
    events at all means 0 (the best possible contribution)."""
    return mean([e.delta_t_recovery / e.nu for e in events if e.delta_t_recovery is not None],
                0.0)


def stress_resilience(stressed: Sequence[float], baseline: Sequence[float]) -> float:
    """Ratio of mean compliance under stress to mean baseline compliance.

    May exceed 1 when stress tightens behavior; raises EmptyInput /
    ZeroBaseline on degenerate inputs.
    """
    if len(stressed) == 0 or len(baseline) == 0:
        raise EmptyInput("stress resilience needs non-empty compliance series")
    base = mean([float(v) for v in baseline])
    if base == 0.0:
        raise ZeroBaseline("baseline compliance mean is zero")
    return mean([float(v) for v in stressed]) / base


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
        e = recovery_effectiveness(events)
        c_bar = mean(compliance, 1.0)
        d_bar = mean(drift, 0.0)
        theta = reliability_index(c_bar, d_bar, e, 1.0 if stress is None else stress, weights)
        return SessionMetrics(
            mean_c_hard=mean(c_hard, 1.0),
            mean_c_soft=mean(c_soft, 1.0),
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
