"""Mean-reverting drift dynamics: simulation, closed forms, design, fitting.

The drift level D(t) follows dD = (alpha - gamma * D) dt + sigma * dW, an
Ornstein--Uhlenbeck process with stationary law N(alpha/gamma,
sigma^2 / (2 gamma)).  One time unit maps to one agent turn when relating
observed per-turn drift trajectories to the model (a convention, not
enforced).

Randomness comes from counter-based Philox generators keyed by
``numpy.random.SeedSequence(seed)``; path ``i`` of a batch uses the
derived key ``(seed, i)``, so identical seeds reproduce identical paths
bit-for-bit and path batches match single-path runs.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple, Union

import numpy as np

from .errors import InvalidStep
from .records import record

__all__ = [
    "OUParams",
    "DesignSpec",
    "OUFit",
    "simulate_ou",
    "simulate_ou_exact",
    "simulate_ou_paths",
    "stationary_stats",
    "tail_probability",
    "mse_at_time",
    "solve_design_gamma",
    "design_gamma_approx",
    "fit_ou",
    "save_trajectory",
    "load_trajectory",
]

Seed = Union[int, Tuple]


@record
class OUParams:
    """Drift dynamics parameters: baseline rate, recovery rate, volatility,
    initial level.  sigma = 0 degenerates to the deterministic relaxation
    (used by the noiseless simulation oracle)."""

    alpha: float
    gamma: float
    sigma: float
    d0: float = 0.0

    def __post_init__(self):
        if not (self.alpha > 0 and self.gamma > 0):
            raise ValueError("alpha and gamma must be positive")
        if self.sigma < 0 or self.d0 < 0:
            raise ValueError("sigma and d0 must be non-negative")

    @property
    def d_star(self) -> float:
        return self.alpha / self.gamma


@record
class DesignSpec:
    """Design targets: maximum tolerable drift and exceedance tolerance."""

    d_max: float
    epsilon: float

    def __post_init__(self):
        if not (0.0 < self.d_max <= 1.0):
            raise ValueError("d_max must be in (0, 1]")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must be in (0, 1)")


@record
class OUFit:
    """Least-squares fit of D(t) = D* + (D0 - D*) exp(-gamma t)."""

    gamma_hat: float
    d_star_hat: float
    r_squared: float
    degenerate: bool = False


def _rng(seed: Seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _grid(horizon: float, dt: float) -> int:
    if dt <= 0:
        raise InvalidStep(f"dt must be positive, got {dt}")
    if horizon < dt:
        raise InvalidStep(f"horizon must be at least one step, got {horizon} < {dt}")
    return int(round(horizon / dt))


def simulate_ou(params: OUParams, horizon: float, dt: float, seed: Seed,
                clamp_zero: bool = False) -> Tuple[np.ndarray, np.ndarray]:
    """Euler--Maruyama path of the drift SDE.

    Returns (times, values) with values[0] = d0 and
    D_{n+1} = D_n + (alpha - gamma D_n) dt + sigma sqrt(dt) xi_n.
    ``clamp_zero`` reflects the path at zero (off by default: the
    non-negativity of drift is a modeling simplification, not part of the
    process).
    """
    n = _grid(horizon, dt)
    xi = _rng(seed).standard_normal(n)
    values = np.empty(n + 1)
    values[0] = params.d0
    a, g, s = params.alpha, params.gamma, params.sigma * math.sqrt(dt)
    d = params.d0
    for i in range(n):
        d = d + (a - g * d) * dt + s * xi[i]
        if clamp_zero and d < 0.0:
            d = -d
        values[i + 1] = d
    return np.arange(n + 1) * dt, values


def simulate_ou_exact(params: OUParams, horizon: float, dt: float,
                      seed: Seed) -> Tuple[np.ndarray, np.ndarray]:
    """Exact AR(1) discretization of the OU transition density.

    D_{n+1} = mu + (D_n - mu) e^{-gamma dt} + s xi_n with
    s^2 = sigma^2 (1 - e^{-2 gamma dt}) / (2 gamma).  Serves as the
    integrator oracle: same seed contract as :func:`simulate_ou`.
    """
    n = _grid(horizon, dt)
    xi = _rng(seed).standard_normal(n)
    mu = params.d_star
    phi = math.exp(-params.gamma * dt)
    s = params.sigma * math.sqrt((1.0 - phi * phi) / (2.0 * params.gamma))
    values = np.empty(n + 1)
    values[0] = params.d0
    d = params.d0
    for i in range(n):
        d = mu + (d - mu) * phi + s * xi[i]
        values[i + 1] = d
    return np.arange(n + 1) * dt, values


def simulate_ou_paths(params: OUParams, horizon: float, dt: float,
                      n_paths: int, seed: int, keep: str = "last",
                      block: int = 1000) -> np.ndarray:
    """Batch of Euler--Maruyama paths; path i uses the derived seed
    (seed, i) and the same float operations in the same order as
    :func:`simulate_ou`, so it equals ``simulate_ou(..., seed=(seed, i))``
    bit for bit.

    ``keep="last"`` returns the final value of each path (shape
    (n_paths,)); ``keep="all"`` returns full trajectories (shape
    (n_paths, n_steps + 1)).
    """
    n = _grid(horizon, dt)
    a, g = params.alpha, params.gamma
    s = params.sigma * math.sqrt(dt)
    if keep == "all":
        out = np.empty((n_paths, n + 1))
    else:
        out = np.empty(n_paths)

    for start in range(0, n_paths, block):
        stop = min(start + block, n_paths)
        noise = np.stack([_rng((seed, i)).standard_normal(n) for i in range(start, stop)])
        d = np.full(stop - start, params.d0)
        if keep == "all":
            out[start:stop, 0] = d
        for step in range(n):
            d = d + (a - g * d) * dt + s * noise[:, step]
            if keep == "all":
                out[start:stop, step + 1] = d
        if keep == "last":
            out[start:stop] = d
    return out


def stationary_stats(params: OUParams) -> Tuple[float, float]:
    """Stationary mean alpha/gamma and variance sigma^2/(2 gamma)."""
    return params.alpha / params.gamma, params.sigma ** 2 / (2.0 * params.gamma)


def tail_probability(params: OUParams, eta: float) -> float:
    """Gaussian concentration bound Pr(D > alpha/gamma + eta) at
    stationarity: exp(-gamma eta^2 / sigma^2)."""
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if params.sigma == 0.0:
        return 0.0
    return math.exp(-params.gamma * eta * eta / (params.sigma ** 2))


def mse_at_time(params: OUParams, t: float) -> float:
    """E[(D(t) - alpha/gamma)^2]: exponential relaxation of the
    mean-square error to the stationary variance at rate 2 gamma."""
    if t < 0:
        raise ValueError("t must be non-negative")
    mu = params.d_star
    stat_var = params.sigma ** 2 / (2.0 * params.gamma)
    decay = math.exp(-2.0 * params.gamma * t)
    return (params.d0 - mu) ** 2 * decay + stat_var * (1.0 - decay)


def solve_design_gamma(alpha: float, sigma: float, spec: DesignSpec) -> float:
    """Minimum recovery rate meeting Pr(D > d_max) <= epsilon at
    stationarity: the larger root of

        d_max^2 g^2 - (2 alpha d_max + sigma^2 ln(1/eps)) g + alpha^2 = 0.

    Always exceeds alpha/d_max (the mean must sit strictly below the
    ceiling to leave tail headroom); the tail bound at the returned gamma
    with eta = d_max - alpha/gamma equals epsilon exactly.
    """
    if alpha <= 0 or sigma < 0:
        raise ValueError("alpha must be positive and sigma non-negative")
    d, eps = spec.d_max, spec.epsilon
    b = 2.0 * alpha * d + sigma ** 2 * math.log(1.0 / eps)
    disc = b * b - 4.0 * alpha ** 2 * d ** 2
    gamma = (b + math.sqrt(max(disc, 0.0))) / (2.0 * d * d)
    if d <= alpha / gamma and sigma > 0:
        raise ArithmeticError(
            f"solved gamma {gamma} leaves no tail headroom (alpha/gamma >= d_max)")
    return gamma


def design_gamma_approx(alpha: float, sigma: float, spec: DesignSpec) -> float:
    """First-order approximation of the design criterion, valid when
    sigma^2 ln(1/eps) << 2 alpha d_max:
    gamma ~ alpha/d_max + sigma sqrt(2 ln(1/eps)) / (2 d_max)."""
    return (alpha / spec.d_max
            + sigma * math.sqrt(2.0 * math.log(1.0 / spec.epsilon)) / (2.0 * spec.d_max))


# ---------------------------------------------------------------------------
# Trajectory fitting
# ---------------------------------------------------------------------------

_GAMMA_GRID = np.logspace(-3, 1, 200)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _fit_sse(gamma: float, times: np.ndarray, values: np.ndarray,
             d0: float) -> Tuple[float, float]:
    """Closed-form least-squares D* for a fixed gamma; returns (sse, d_star)."""
    b = np.exp(-gamma * (times - times[0]))
    w = 1.0 - b
    denominator = float(np.dot(w, w))
    if denominator <= 0.0:
        residual = values - d0 * b
        return float(np.dot(residual, residual)), float(values.mean())
    d_star = float(np.dot(w, values - d0 * b) / denominator)
    residual = values - d0 * b - d_star * w
    return float(np.dot(residual, residual)), d_star


def fit_ou(trajectory: Sequence) -> OUFit:
    """Fit D(t) = D* + (D0 - D*) e^{-gamma t} to an observed trajectory.

    ``trajectory`` is a sequence of (t, D) pairs with strictly increasing
    t (at least 4 points); D0 is anchored at the first sample.  Gamma is
    located on a 200-point log grid over [1e-3, 10] and refined by
    golden-section search.  A constant trajectory cannot identify gamma
    and comes back flagged degenerate with gamma = 0.
    """
    points = np.asarray(list(trajectory), dtype=float)
    if points.ndim != 2 or points.shape[1] != 2 or points.shape[0] < 4:
        raise ValueError("trajectory must be at least 4 (t, D) pairs")
    times, values = points[:, 0], points[:, 1]
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")

    sst = float(np.sum((values - values.mean()) ** 2))
    if sst == 0.0:
        return OUFit(gamma_hat=0.0, d_star_hat=float(values.mean()),
                     r_squared=1.0, degenerate=True)

    d0 = float(values[0])
    sses = [_fit_sse(g, times, values, d0)[0] for g in _GAMMA_GRID]
    best = int(np.argmin(sses))
    lo = _GAMMA_GRID[max(best - 1, 0)]
    hi = _GAMMA_GRID[min(best + 1, len(_GAMMA_GRID) - 1)]

    # Golden-section refinement on [lo, hi].
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = _fit_sse(c, times, values, d0)[0]
    fd = _fit_sse(d, times, values, d0)[0]
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = _fit_sse(c, times, values, d0)[0]
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = _fit_sse(d, times, values, d0)[0]
        if abs(b - a) < 1e-10 * max(1.0, abs(b)):
            break
    gamma = 0.5 * (a + b)
    sse, d_star = _fit_sse(gamma, times, values, d0)
    return OUFit(gamma_hat=gamma, d_star_hat=d_star,
                 r_squared=1.0 - sse / sst, degenerate=False)


# ---------------------------------------------------------------------------
# CSV trajectory exchange
# ---------------------------------------------------------------------------

def save_trajectory(path: str, times: np.ndarray, values: np.ndarray) -> None:
    """Write a trajectory as CSV with columns t, D."""
    data = np.column_stack([np.asarray(times, dtype=float),
                            np.asarray(values, dtype=float)])
    np.savetxt(path, data, delimiter=",", header="t,D", comments="", fmt="%.12g")


def load_trajectory(path: str) -> Tuple[np.ndarray, np.ndarray]:
    """Read a t,D CSV trajectory (header row required)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 2:
        raise ValueError(f"expected two CSV columns (t, D), got {data.shape[1]}")
    return data[:, 0], data[:, 1]
