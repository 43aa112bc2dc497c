"""Behavioral drift score and session-level metrics.

The drift score at a step combines a weighted compliance gap with the
Jensen--Shannon divergence (log base 2) between the observed action
distribution over a sliding window and a calibrated reference
distribution; the gap's weights come only from the contract's plan
(:meth:`DriftWindow.for_contract`).  Out-of-vocabulary action labels pool
into a reserved ``__other__`` bucket carried in both supports; both
distributions receive add-epsilon smoothing (1e-9) before the divergence
so KL terms stay finite.

``DriftSample`` and ``SessionMetrics`` are slotted records (see
:mod:`~agentcontracts.engine`); :func:`update_drift` builds its sample
with the positional ``DriftSample._build``, and skips the precondition
check after step 0.  A step's compliance gaps iterate only its stored
results (``StepEvaluation.stored``), those that are not a plain pass:
the numerators sum their violated weights in results order, over
denominators the plan summed once in the same order, so a step with
nothing stored costs nothing here.  Only a step with a skipped result
sums its denominators afresh, in the same order, without the skipped
names; every gap equals the plain loop's bit for bit.

The module imports no numpy.  The window keeps its counts in a list; the
divergence runs in plain Python, and its sums and the session means use
:func:`pairwise_sum`, a copy of numpy's pairwise summation, so they equal
numpy's results bit for bit.  numpy sums a block of 8 to 128 terms with
eight stride-8 accumulators, each seeded with its first term, combines
them as a fixed tree and adds the rest left to right; a longer list splits
into such blocks.  Each block length gets one straight-line function that
makes exactly these additions on the unpacked terms, generated on first
use (filename ``<agentcontracts sum>``) and kept in ``_BLOCKS``, at most
121 of them, so a block costs its additions alone.  Only plain float
additions run: the builtin ``sum`` compensates float sums from Python
3.12 on, and would differ from numpy.  (Where two different NaNs meet,
the sum is a NaN whose sign no order of additions fixes: the C compiler
may swap the operands of an add.)

A window holds at most ``window`` distinct labels, and every label absent
from it smooths to the same ``eps / norm`` (``norm`` the smoothed total,
of which a session sees only a handful of values).  So the smoothed
reference and, per ``norm``, both KL terms of every absent label are
built once per drift configuration and shared by its windows.  A window
without a table (below) keeps its smoothed counts and both term lists
between reads, and notes the labels whose counts a push moved (at most
two per push, and never more than the support).  A read recomputes only
those labels; only when the window total or ``norm`` changed does it
rebuild every term, from the absent terms and the labels present.  Each
term comes from the same float operations on the same inputs as the
plain kernel, and both term lists are summed in support order, so the
divergence stays bit-identical to ``_jsd(_smooth(observed), reference)``.

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
from functools import reduce
from operator import add
from typing import Mapping, Optional, Sequence

from .engine import StepEvaluation, ViolationEvent, _plan
from .errors import DimensionMismatch, EmptyInput, NotNormalized, ZeroBaseline
from .model import OTHER_LABEL, ActionRecord, DriftConfig, ReliabilityWeights
from .records import as_dict, record

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
#: numpy's pairwise block: the longest run summed without a split.
_BLOCK = 128
#: The generated sum of each block length met so far (8 to ``_BLOCK``).
_BLOCKS: dict = {}


def pairwise_sum(xs: Sequence[float]) -> float:
    """Sum of a list of floats, bit-identical to ``numpy.sum`` of it:
    numpy's pairwise summation, started (as numpy's add reduction is) from
    its identity 0.0, so all ``-0.0`` sums to 0.0."""
    n = len(xs)
    if 8 <= n <= _BLOCK:
        return 0.0 + (_BLOCKS.get(n) or _block_sum(n))(xs)
    return 0.0 + _pairwise(xs, 0, n)


def _pairwise(xs: Sequence[float], lo: int, n: int) -> float:
    # numpy's pairwise_sum: under 8 terms, left to right (reduce(add) folds
    # in plain float additions); up to a block of 128, the block's
    # generated sum; a longer run splits at a multiple of 8 near its middle.
    if n < 8:
        return reduce(add, xs[lo:lo + n], -0.0)
    if n <= _BLOCK:
        return (_BLOCKS.get(n) or _block_sum(n))(xs[lo:lo + n])
    half = n // 2
    half -= half % 8
    return _pairwise(xs, lo, half) + _pairwise(xs, lo + half, n - half)


def _block_sum(n: int):
    """The function summing a block of ``n`` terms (8 <= n <= 128) in
    numpy's order: eight accumulators, the j-th the left fold of terms j,
    j + 8, ... below the last multiple of 8, combined as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, then the
    remaining terms added left to right.  Python's ``+`` associates to the
    left, so the returned expression makes exactly these additions."""
    terms = [f"a{i}" for i in range(n)]
    stop = n - n % 8
    r = ["(" + " + ".join(terms[j:stop:8]) + ")" for j in range(8)]
    tree = f"((({r[0]} + {r[1]}) + ({r[2]} + {r[3]})) + (({r[4]} + {r[5]}) + ({r[6]} + {r[7]})))"
    source = (f"def _sum{n}(xs):\n"
              f"    {', '.join(terms)}, = xs\n"
              f"    return {' + '.join([tree, *terms[stop:]])}\n")
    namespace: dict = {}
    exec(compile(source, "<agentcontracts sum>", "exec"), namespace)
    _BLOCKS[n] = namespace[f"_sum{n}"]
    return _BLOCKS[n]


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
    """The divergence kernel over two distributions on one support,
    clamped at 0: rounding can leave the sum of the two KL terms a few ulps
    below it for nearly equal inputs."""
    m = [0.5 * (a + b) for a, b in zip(p, q)]
    return max(0.0, _kl2(p, m) / 2.0 + _kl2(q, m) / 2.0)


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


@record(slots=True)
class DriftSample:
    """Drift score at one step with its diagnostic decomposition."""

    t: int
    d_compliance: float
    d_distributional: float
    d_total: float
    decomposition: tuple  # (d_preconditions, d_invariants, d_governance, d_distributional)

    def to_dict(self) -> dict:
        return {**as_dict(self), "decomposition": list(self.decomposition)}


_drift_sample = DriftSample._build


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
    Everything but the labels, their counts and an untabled window's
    kernel state is shared: with the other windows over the
    configuration, and the compliance-gap table with the contract's plan,
    which only :meth:`for_contract` reads; :func:`update_drift` refuses any other window.
    """

    def __init__(self, config: DriftConfig):
        shared = vars(config).get("_compiled")
        if shared is None:
            shared = vars(config)["_compiled"] = _Shared(config)
        self.config = config
        self.support = shared.support
        self._index, self._other = shared.index, shared.other
        self._reference, self._absent_terms = shared.reference, shared.absent_terms
        self._table = shared.table
        self._weights: Optional[Mapping] = None
        self._gap_totals = (0.0, 0.0, 0.0)
        self._labels: deque = deque()
        self._counts = [0] * len(self.support)
        # The untabled kernel's state (see _divergence): the labels whose
        # counts changed since the last read, and the window total, the
        # smoothed counts, their total and both KL term lists it read.
        self._moved: set = set()
        self._total = 0
        self._p = self._p_terms = self._q_terms = self._norm = None

    @classmethod
    def for_contract(cls, contract) -> "DriftWindow":
        """A window over the contract's drift configuration that scores its
        invariants and governance constraints by its plan's weights."""
        window = cls(contract.drift_config)
        plan = _plan(contract)
        window._weights, window._gap_totals = plan.weights, plan.gap_totals
        return window

    def push(self, label: str) -> None:
        idx = self._index.get(label, self._other)
        self._labels.append(idx)
        self._counts[idx] += 1
        self._moved.add(idx)
        if len(self._labels) > self.config.window:
            old = self._labels.popleft()
            self._counts[old] -= 1
            self._moved.add(old)

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
        summed in the same order.

        The window keeps its smoothed counts ``p`` and both term lists
        between reads.  A read with the window total of the last one
        recomputes ``p`` only for the labels whose counts moved; if the
        smoothed total ``norm`` is also unchanged, so are the other
        labels' terms, and only the moved labels' terms are recomputed.
        Otherwise every term is rebuilt: a label absent from the window
        smooths to ``eps / norm``, so its two terms depend on ``norm``
        alone and are cached per ``norm``; the labels present are computed
        afresh.  Clamped at 0 as ``_jsd`` is."""
        q, counts, moved = self._reference, self._counts, self._moved
        total = len(self._labels)
        if total != self._total:
            self._total, self._norm = total, None
            p = self._p = [_SMOOTH_EPS] * len(q)   # 0 / total + eps for an absent label
            for i in set(self._labels):
                p[i] = counts[i] / total + _SMOOTH_EPS
        else:
            p = self._p
            for i in moved:
                p[i] = counts[i] / total + _SMOOTH_EPS
        norm = pairwise_sum(p)
        if norm == self._norm:
            p_terms, q_terms, changed = self._p_terms, self._q_terms, moved
        else:
            absent = self._absent_terms.get(norm)
            if absent is None:
                if len(self._absent_terms) >= _ABSENT_TERMS_KEPT:
                    self._absent_terms.clear()
                absent = self._absent_terms[norm] = _kl_terms([_SMOOTH_EPS / norm] * len(q), q)
            p_terms, q_terms = self._p_terms, self._q_terms = absent[0][:], absent[1][:]
            self._norm, changed = norm, set(self._labels)
        for i in changed:
            a, b = p[i] / norm, q[i]
            m = 0.5 * (a + b)
            p_terms[i] = a * math.log2(a / m)
            q_terms[i] = b * math.log2(b / m)
        moved.clear()
        return max(0.0, pairwise_sum(p_terms) / 2.0 + pairwise_sum(q_terms) / 2.0)

    def weighted_gaps(self, step: StepEvaluation) -> tuple:
        """Weighted compliance gaps ``(all, invariants, governance)`` of a
        step over the window's invariants and governance constraints:
        violated weight over scored weight, a skipped result in neither.

        Only the step's ``stored`` results are read: the numerators sum
        their violated weights in results order, and the denominators are
        the plan's sums of every weight in that order.  A step with a skipped
        result sums its denominators afresh, in the same order, without
        the skipped names.  So every gap is the plain loop's, bit for bit.
        """
        weights = self._weights
        num = num_inv = num_gov = 0.0
        skipped = set()
        for name, r in step.stored.items():
            satisfied = r.satisfied
            if satisfied is None:
                skipped.add(name)
            elif not satisfied and name in weights:
                weight, part = weights[name]
                num += weight
                if part:
                    num_gov += weight
                else:
                    num_inv += weight
        den, den_inv, den_gov = self._gap_totals
        if skipped:
            den = den_inv = den_gov = 0.0
            for name, (weight, part) in weights.items():
                if name not in skipped:
                    den += weight
                    if part:
                        den_gov += weight
                    else:
                        den_inv += weight
        return (num / den if den > 0 else 0.0, num_inv / den_inv if den_inv > 0 else 0.0,
                num_gov / den_gov if den_gov > 0 else 0.0)


def update_drift(window: DriftWindow, config: DriftConfig, step: StepEvaluation,
                 action: ActionRecord) -> DriftSample:
    """Advance the window with the step's action and compute the drift
    sample: d = w_c * compliance_gap + w_d * JSD(observed || reference).

    The compliance gap runs over the window's invariants + governance
    constraints; preconditions do not enter it -- their status appears only
    in the decomposition's first component (1.0 when a precondition failed
    at t = 0).  A window not made by :meth:`DriftWindow.for_contract` raises ValueError.
    """
    if window._weights is None:
        raise ValueError("update_drift takes a window made by DriftWindow.for_contract")
    window.push(action.label)
    if step.stored:
        d_comp, d_inv, d_gov = window.weighted_gaps(step)
    else:
        d_comp = d_inv = d_gov = 0.0   # every result a pass: every gap's numerator is 0
    d_dist = window.distributional_drift()
    d_pre = 0.0 if step.preconditions is None or step.preconditions_ok() else 1.0
    return _drift_sample(step.step, d_comp, d_dist, config.w_c * d_comp + config.w_d * d_dist,
                         (d_pre, d_inv, d_gov, d_dist))


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


@record(slots=True)
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
        return as_dict(self)
