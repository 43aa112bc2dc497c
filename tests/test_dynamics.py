"""Drift dynamics: simulation, closed forms, design criterion, fitting."""

import math

import numpy as np
import pytest

from agentcontracts.dynamics import (
    DesignSpec,
    OUParams,
    design_gamma_approx,
    fit_ou,
    load_trajectory,
    mse_at_time,
    save_trajectory,
    simulate_ou,
    simulate_ou_exact,
    simulate_ou_paths,
    solve_design_gamma,
    stationary_stats,
    tail_probability,
)
from agentcontracts.errors import InvalidStep

P_REF = OUParams(alpha=0.02, gamma=0.2, sigma=0.05, d0=0.5)


class TestSimulate:
    def test_noiseless_matches_closed_form(self):
        params = OUParams(alpha=0.02, gamma=0.2, sigma=0.0, d0=0.5)
        times, values = simulate_ou(params, horizon=30.0, dt=1e-3, seed=1)
        closed = params.d_star + (params.d0 - params.d_star) * np.exp(-params.gamma * times)
        assert np.max(np.abs(values - closed)) < 1e-3

    def test_equilibrium_start_is_constant(self):
        params = OUParams(alpha=0.1, gamma=0.2, sigma=0.0, d0=0.5)  # alpha = gamma*d0
        _, values = simulate_ou(params, horizon=5.0, dt=0.01, seed=1)
        assert np.allclose(values, 0.5)

    def test_same_seed_identical_path(self):
        a = simulate_ou(P_REF, horizon=2.0, dt=0.01, seed=42)[1]
        b = simulate_ou(P_REF, horizon=2.0, dt=0.01, seed=42)[1]
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        a = simulate_ou(P_REF, horizon=2.0, dt=0.01, seed=42)[1]
        b = simulate_ou(P_REF, horizon=2.0, dt=0.01, seed=43)[1]
        assert not np.array_equal(a, b)

    def test_batch_path_matches_derived_seed(self):
        batch = simulate_ou_paths(P_REF, horizon=1.0, dt=0.01, n_paths=5,
                                  seed=7, keep="all")
        for i in range(5):
            _, single = simulate_ou(P_REF, horizon=1.0, dt=0.01, seed=(7, i))
            assert np.array_equal(batch[i], single)

    def test_long_batch_paths_are_bit_identical(self):
        # The batch once stepped by ``d * (1 - g dt) + a dt + ...``, which
        # drifted from the single path by up to 1.1e-16.
        batch = simulate_ou_paths(P_REF, horizon=20.0, dt=0.01, n_paths=6, seed=3, keep="all")
        finals = simulate_ou_paths(P_REF, horizon=20.0, dt=0.01, n_paths=6, seed=3, block=4)
        for i in range(6):
            _, single = simulate_ou(P_REF, horizon=20.0, dt=0.01, seed=(3, i))
            assert np.array_equal(batch[i], single)
            assert finals[i] == single[-1]

    def test_clamp_zero_reflects(self):
        params = OUParams(alpha=0.001, gamma=0.05, sigma=0.5, d0=0.0)
        _, unclamped = simulate_ou(params, horizon=5.0, dt=0.01, seed=3)
        assert unclamped.min() < 0.0
        _, clamped = simulate_ou(params, horizon=5.0, dt=0.01, seed=3, clamp_zero=True)
        assert clamped.min() >= 0.0

    def test_invalid_step_errors(self):
        with pytest.raises(InvalidStep):
            simulate_ou(P_REF, horizon=1.0, dt=0.0, seed=1)
        with pytest.raises(InvalidStep):
            simulate_ou(P_REF, horizon=0.001, dt=0.01, seed=1)

    def test_exact_sampler_oracle_agrees_on_moments(self):
        # The AR(1) discretization is exact at any dt; use it as the
        # oracle for the Euler integrator's terminal distribution.
        horizon, n = 30.0, 4000
        em = simulate_ou_paths(P_REF, horizon, dt=0.01, n_paths=n, seed=11)
        exact = np.array([simulate_ou_exact(P_REF, horizon, dt=0.5, seed=(13, i))[1][-1]
                          for i in range(n)])
        se = math.sqrt(np.var(exact) / n)
        assert abs(em.mean() - exact.mean()) < 4 * se
        assert abs(em.var() / exact.var() - 1.0) < 0.15


class TestClosedForms:
    def test_stationary_mean(self):
        mean, _ = stationary_stats(OUParams(alpha=0.02, gamma=0.2, sigma=0.05))
        assert mean == pytest.approx(0.1)

    def test_stationary_variance(self):
        _, var = stationary_stats(OUParams(alpha=0.02, gamma=0.2, sigma=0.05))
        assert var == pytest.approx(0.00625)

    def test_doubling_gamma_halves_variance(self):
        _, v1 = stationary_stats(OUParams(alpha=0.02, gamma=0.2, sigma=0.05))
        _, v2 = stationary_stats(OUParams(alpha=0.02, gamma=0.4, sigma=0.05))
        assert v2 == pytest.approx(v1 / 2)

    def test_tail_bound_at_reference_point(self):
        bound = tail_probability(OUParams(alpha=0.02, gamma=0.2, sigma=0.05), eta=0.1)
        assert bound == pytest.approx(math.exp(-0.8), abs=1e-12)
        assert bound == pytest.approx(0.4493, abs=1e-4)

    def test_tail_bound_limits(self):
        params = OUParams(alpha=0.02, gamma=0.2, sigma=0.05)
        assert tail_probability(params, eta=1e-9) == pytest.approx(1.0, abs=1e-6)
        small = tail_probability(params, eta=0.1)
        quadrupled = tail_probability(params, eta=0.4)
        assert math.log(quadrupled) == pytest.approx(16 * math.log(small), rel=1e-9)

    def test_mse_at_zero_and_infinity(self):
        assert mse_at_time(P_REF, 0.0) == pytest.approx((0.5 - 0.1) ** 2)
        assert mse_at_time(P_REF, 1e9) == pytest.approx(0.00625)

    def test_mse_reference_value(self):
        # Independent evaluation of 0.16 e^{-2} + 0.00625 (1 - e^{-2});
        # frozen from direct arithmetic.
        direct = 0.16 * math.exp(-2.0) + 0.00625 * (1.0 - math.exp(-2.0))
        assert direct == pytest.approx(0.0270578, abs=1e-6)
        assert mse_at_time(P_REF, 5.0) == pytest.approx(direct, abs=1e-15)

    def test_mse_matches_monte_carlo(self):
        horizon, dt, n = 5.0, 0.01, 4000
        paths = simulate_ou_paths(P_REF, horizon, dt, n_paths=n, seed=17, keep="all")
        mu = P_REF.d_star
        for t_index in (100, 250, 500):
            t = t_index * dt
            sq = (paths[:, t_index] - mu) ** 2
            se = math.sqrt(np.var(sq) / n)
            assert abs(sq.mean() - mse_at_time(P_REF, t)) < 3 * se + 1e-4


class TestDesignCriterion:
    def bisect_oracle(self, alpha, sigma, d_max, eps):
        """Independent root of exp(-g (d_max - a/g)^2 / s^2) = eps."""
        def excess(gamma):
            eta = d_max - alpha / gamma
            if eta <= 0:
                return 1.0 - eps
            return math.exp(-gamma * eta * eta / sigma ** 2) - eps
        lo, hi = alpha / d_max + 1e-12, 1e6
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if excess(mid) > 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def test_reference_point_against_bisection(self):
        gamma = solve_design_gamma(0.05, 0.1, DesignSpec(d_max=0.25, epsilon=0.05))
        oracle = self.bisect_oracle(0.05, 0.1, 0.25, 0.05)
        assert gamma == pytest.approx(oracle, abs=1e-6)
        assert gamma == pytest.approx(0.8312, abs=1e-4)

    def test_noiseless_limit(self):
        gamma = solve_design_gamma(0.05, 0.0, DesignSpec(d_max=0.25, epsilon=0.05))
        assert gamma == pytest.approx(0.05 / 0.25)

    def test_gamma_exceeds_mean_requirement(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            alpha = float(rng.uniform(0.01, 0.2))
            sigma = float(rng.uniform(0.01, 0.3))
            d_max = float(rng.uniform(0.1, 1.0))
            eps = float(rng.uniform(0.001, 0.2))
            gamma = solve_design_gamma(alpha, sigma, DesignSpec(d_max=d_max, epsilon=eps))
            assert gamma > alpha / d_max

    def test_round_trip_tail_probability(self):
        grid = [
            (0.05, 0.1, 0.25, 0.05), (0.02, 0.05, 0.2, 0.01),
            (0.1, 0.2, 0.5, 0.1), (0.01, 0.02, 0.1, 0.05),
            (0.2, 0.1, 0.8, 0.02),
        ]
        for alpha, sigma, d_max, eps in grid:
            gamma = solve_design_gamma(alpha, sigma, DesignSpec(d_max=d_max, epsilon=eps))
            eta = d_max - alpha / gamma
            bound = tail_probability(OUParams(alpha, gamma, sigma), eta)
            assert bound == pytest.approx(eps, abs=1e-9)

    def test_approximate_criterion_close_in_regime(self):
        # sigma^2 ln(1/eps) << 2 alpha d_max
        exact = solve_design_gamma(0.1, 0.01, DesignSpec(d_max=0.5, epsilon=0.1))
        approx = design_gamma_approx(0.1, 0.01, DesignSpec(d_max=0.5, epsilon=0.1))
        assert approx == pytest.approx(exact, rel=0.05)


class TestFit:
    def test_recovers_noiseless_exponential(self):
        gamma, d_star, d0 = 0.5, 0.1, 0.8
        times = np.linspace(0, 20, 60)
        values = d_star + (d0 - d_star) * np.exp(-gamma * times)
        fit = fit_ou(list(zip(times, values)))
        assert fit.gamma_hat == pytest.approx(0.5, abs=1e-4)
        assert fit.d_star_hat == pytest.approx(0.1, abs=1e-4)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
        assert fit.degenerate is False

    def test_constant_trajectory_degenerate(self):
        fit = fit_ou([(0, 0.3), (1, 0.3), (2, 0.3), (3, 0.3)])
        assert fit.degenerate is True
        assert fit.gamma_hat == 0.0
        assert fit.d_star_hat == pytest.approx(0.3)

    def test_simulated_path_plausible_r_squared(self):
        params = OUParams(alpha=0.02, gamma=0.2, sigma=0.02, d0=0.5)
        times, values = simulate_ou(params, horizon=40.0, dt=0.1, seed=29)
        fit = fit_ou(list(zip(times, values)))
        assert fit.r_squared >= 0.4
        assert 0.05 <= fit.gamma_hat <= 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_ou([(0, 1), (1, 2), (2, 3)])  # too few points
        with pytest.raises(ValueError):
            fit_ou([(0, 1), (0, 2), (1, 3), (2, 4)])  # non-increasing t

    def test_csv_round_trip(self, tmp_path):
        times, values = simulate_ou(P_REF, horizon=1.0, dt=0.1, seed=5)
        path = str(tmp_path / "traj.csv")
        save_trajectory(path, times, values)
        t2, v2 = load_trajectory(path)
        assert np.allclose(times, t2)
        assert np.allclose(values, v2)

    def test_fit_on_noiseless_simulated_output(self):
        params = OUParams(alpha=0.02, gamma=0.2, sigma=0.0, d0=0.5)
        dt = 0.05
        times, values = simulate_ou(params, horizon=40.0, dt=dt, seed=1)
        fit = fit_ou(list(zip(times, values)))
        # The Euler path decays at the discrete-effective rate
        # -ln(1 - gamma dt) / dt, which is what a perfect fit recovers.
        effective = -math.log(1.0 - params.gamma * dt) / dt
        assert fit.r_squared == pytest.approx(1.0, abs=1e-6)
        assert fit.gamma_hat == pytest.approx(effective, abs=1e-4)
        assert fit.d_star_hat == pytest.approx(0.1, abs=1e-3)


class TestParamValidation:
    def test_positivity(self):
        with pytest.raises(ValueError):
            OUParams(alpha=0.0, gamma=0.2, sigma=0.05)
        with pytest.raises(ValueError):
            OUParams(alpha=0.1, gamma=-0.2, sigma=0.05)
        with pytest.raises(ValueError):
            OUParams(alpha=0.1, gamma=0.2, sigma=-0.1)

    def test_design_spec_ranges(self):
        with pytest.raises(ValueError):
            DesignSpec(d_max=0.0, epsilon=0.05)
        with pytest.raises(ValueError):
            DesignSpec(d_max=0.5, epsilon=1.0)
