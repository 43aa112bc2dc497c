"""Compliance certification numerics.

Closed forms for the compliance-decay bounds, the Hoeffding fixed-sample
baseline, and Wald's sequential probability ratio test for deciding
between two compliance hypotheses.  The SPRT consumes one Bernoulli
observation per certified unit -- by convention one session's
hard-guarantee boolean, configurable to per-step granularity by feeding
step outcomes instead.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from .errors import AlreadyDecided
from .records import record, replace

__all__ = [
    "compliance_no_recovery",
    "compliance_with_recovery",
    "hoeffding_n",
    "kl_bernoulli",
    "SprtConfig",
    "SprtState",
    "sprt_start",
    "sprt_update",
    "sprt_update_batch",
    "sprt_expected_n",
    "CertificationStream",
]

ACCEPT_H1 = "accept_h1"
ACCEPT_H0 = "accept_h0"
CONTINUE = "continue"


def compliance_no_recovery(q: float, T: int) -> float:
    """Probability of sustained compliance over T independent steps with
    per-step compliance probability q: exactly q**T."""
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must lie in (0, 1), got {q}")
    if T < 0:
        raise ValueError("T must be non-negative")
    return q ** T

def compliance_with_recovery(q: float, r: float, T: int) -> float:
    """Union-bound guarantee of recoverable compliance over T steps with
    recovery effectiveness r: max(0, 1 - T(1-q)(1-r)).

    A lower bound, not an exact probability; it linearizes the exponential
    decay of the no-recovery case.
    """
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must lie in (0, 1), got {q}")
    if not (0.0 <= r <= 1.0):
        raise ValueError(f"r must lie in [0, 1], got {r}")
    if T < 0:
        raise ValueError("T must be non-negative")
    return max(0.0, 1.0 - T * (1.0 - q) * (1.0 - r))


def hoeffding_n(epsilon: float, alpha_err: float) -> int:
    """Fixed-sample size certifying a Bernoulli rate within epsilon at
    confidence 1 - alpha_err: ceil(ln(2/alpha) / (2 epsilon^2))."""
    if not (0.0 < epsilon < 1.0) or not (0.0 < alpha_err < 1.0):
        raise ValueError("epsilon and alpha_err must lie in (0, 1)")
    return math.ceil(math.log(2.0 / alpha_err) / (2.0 * epsilon * epsilon))


def kl_bernoulli(p: float, q: float) -> float:
    """KL(Bernoulli(p) || Bernoulli(q)) in nats."""
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        raise ValueError("p and q must lie in (0, 1)")
    return p * math.log(p / q) + (1.0 - p) * math.log((1.0 - p) / (1.0 - q))


@record
class SprtConfig:
    """Hypotheses H0: p <= p0 vs H1: p >= p1 with target error rates."""

    p0: float = 0.90
    p1: float = 0.95
    alpha_err: float = 0.05
    beta_err: float = 0.05

    def __post_init__(self):
        if not (0.0 < self.p0 < self.p1 < 1.0):
            raise ValueError("need 0 < p0 < p1 < 1")
        if not (0.0 < self.alpha_err < 1.0 and 0.0 < self.beta_err < 1.0):
            raise ValueError("error rates must lie in (0, 1)")

    @property
    def upper(self) -> float:
        """Wald acceptance boundary for H1: ln((1 - beta) / alpha)."""
        return math.log((1.0 - self.beta_err) / self.alpha_err)

    @property
    def lower(self) -> float:
        """Wald acceptance boundary for H0: ln(beta / (1 - alpha))."""
        return math.log(self.beta_err / (1.0 - self.alpha_err))

    @property
    def success_increment(self) -> float:
        return math.log(self.p1 / self.p0)

    @property
    def failure_increment(self) -> float:
        return math.log((1.0 - self.p1) / (1.0 - self.p0))


@record
class SprtState:
    """Immutable running state of one sequential test."""

    log_lambda: float
    n: int
    upper: float
    lower: float
    decision: str = CONTINUE

    def to_dict(self) -> dict:
        return {"n": self.n, "log_lambda": self.log_lambda,
                "decision": self.decision,
                "boundaries": {"upper": self.upper, "lower": self.lower}}


def sprt_start(cfg: SprtConfig) -> SprtState:
    return SprtState(log_lambda=0.0, n=0, upper=cfg.upper, lower=cfg.lower)


def sprt_update(state: SprtState, cfg: SprtConfig, x: bool) -> SprtState:
    """Fold one Bernoulli observation into the log-likelihood ratio and
    re-evaluate the Wald boundaries.  Decided states are frozen."""
    if state.decision != CONTINUE:
        raise AlreadyDecided(f"test already decided: {state.decision}")
    log_lambda = state.log_lambda + (cfg.success_increment if x else cfg.failure_increment)
    decision = CONTINUE
    if log_lambda >= state.upper:
        decision = ACCEPT_H1
    elif log_lambda <= state.lower:
        decision = ACCEPT_H0
    return replace(state, log_lambda=log_lambda, n=state.n + 1, decision=decision)


def sprt_update_batch(state: SprtState, cfg: SprtConfig,
                      xs: Iterable[bool]) -> SprtState:
    """Sequential fold over a batch; stops consuming once decided."""
    for x in xs:
        if state.decision != CONTINUE:
            break
        state = sprt_update(state, cfg, x)
    return state


def sprt_expected_n(cfg: SprtConfig, true_p: str = "p1") -> float:
    """Wald's approximation of the expected stopping time.

    Under H1 the mean increment is KL(p1 || p0); under H0 it is
    -KL(p0 || p1).  Degenerate hypothesis gaps (KL below 1e-15) return
    infinity instead of overflowing.
    """
    if true_p not in ("p0", "p1"):
        raise ValueError("true_p must be 'p0' or 'p1'")
    a, b = cfg.alpha_err, cfg.beta_err
    if true_p == "p1":
        numerator = (1.0 - b) * cfg.upper + b * cfg.lower
        mean_increment = kl_bernoulli(cfg.p1, cfg.p0)
    else:
        numerator = a * cfg.upper + (1.0 - a) * cfg.lower
        mean_increment = -kl_bernoulli(cfg.p0, cfg.p1)
    if abs(mean_increment) < 1e-15:
        return math.inf
    return numerator / mean_increment


class CertificationStream:
    """Streaming certification: reset-on-decision SPRT.

    Feeds observations into an SPRT and records each decision, restarting
    the test so monitoring continues indefinitely.  ``window`` switches to
    an experimental sliding-window variant (the statistic is recomputed
    over the last ``window`` observations only), useful under suspected
    non-stationary compliance; its error guarantees are not Wald's.
    """

    def __init__(self, cfg: SprtConfig, window: Optional[int] = None):
        if window is not None and window < 1:
            raise ValueError("window must be >= 1")
        self.cfg = cfg
        self.window = window
        self.state = sprt_start(cfg)
        self.decisions: list = []
        self._history: list = []

    def feed(self, x: bool) -> SprtState:
        if self.window is None:
            self.state = sprt_update(self.state, self.cfg, bool(x))
            if self.state.decision != CONTINUE:
                self.decisions.append((self.state.n, self.state.decision))
                self.state = sprt_start(self.cfg)
            return self.state

        self._history.append(bool(x))
        if len(self._history) > self.window:
            self._history.pop(0)
        successes = sum(self._history)
        n = len(self._history)
        log_lambda = (successes * self.cfg.success_increment
                      + (n - successes) * self.cfg.failure_increment)
        decision = CONTINUE
        if log_lambda >= self.cfg.upper:
            decision = ACCEPT_H1
        elif log_lambda <= self.cfg.lower:
            decision = ACCEPT_H0
        self.state = SprtState(log_lambda=log_lambda, n=n, upper=self.cfg.upper,
                               lower=self.cfg.lower, decision=decision)
        if decision != CONTINUE:
            self.decisions.append((n, decision))
            self._history.clear()
            self.state = sprt_start(self.cfg)
        return self.state
