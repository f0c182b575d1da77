import math

import numpy as np
import pytest

from hrfrontier import (
    HRFrontierError,
    NegativeKernelError,
    NoDownsideError,
    NonPositiveMeanError,
    NotAKernelError,
    ScenarioPayoff,
    gram_from_scenarios,
    kernel_frontier,
    monotone_hansen_ratio,
    monotone_hj_bound,
    monotonized_utility,
    special_portfolios,
    stats,
)
from conftest import random_payoff, random_probs, random_scenario_market

PROBS = (1 / 6, 1 / 2, 1 / 3)
W_VALUES = (-0.01, 0.01, 0.02)
W_IMPROVED = (-0.01, 0.01, 0.11)


def payoff(values, probs=PROBS):
    return ScenarioPayoff.from_arrays(probs, values)


def brute_force_mhr(pay: ScenarioPayoff, n_points: int = 100_001) -> float:
    """Dense cap-grid maximization of the clipped mean/L2 ratio."""
    probs = np.array(pay.probabilities)
    values = np.array(pay.values)
    caps = np.linspace(1e-9, values.max() * 1.001, n_points)
    clipped = np.minimum(values[:, None], caps[None, :])
    means = probs @ clipped
    seconds = probs @ clipped**2
    return float((means / np.sqrt(seconds)).max())


class TestExamplePayoffs:
    def test_optimal_cap_of_improved_payoff(self):
        result = monotone_hansen_ratio(payoff(W_IMPROVED))
        assert result.k_hat == pytest.approx(0.02, abs=1e-12)
        assert result.mhr**2 == pytest.approx(0.5, abs=1e-12)
        assert result.alpha_hat == pytest.approx(50.0, rel=1e-12)
        assert result.truncated
        assert result.attained

    def test_already_efficient_payoff_is_not_truncated(self):
        result = monotone_hansen_ratio(payoff(W_VALUES))
        assert result.mhr == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert not result.truncated
        assert result.k_hat >= max(W_VALUES)
        # Brute force confirms no cap improves the plain ratio.
        assert brute_force_mhr(payoff(W_VALUES)) <= result.mhr + 1e-9

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 7.0, 370.0, 1e3])
    def test_boundary_cap_is_stable_under_rescaling(self, scale):
        # The optimal cap of the base payoff sits exactly on the largest
        # outcome; rounding of the rescaled candidate must not flip the
        # truncation flag.
        pay = payoff(tuple(v * scale for v in W_VALUES))
        result = monotone_hansen_ratio(pay)
        assert not result.truncated
        assert result.mhr == pytest.approx(stats(pay).hansen, abs=1e-12)

    def test_monotone_sharpe_values(self):
        assert monotone_hansen_ratio(payoff(W_IMPROVED)).msr ** 2 == pytest.approx(
            1.0, abs=1e-12
        )
        plain = stats(payoff(W_IMPROVED))
        assert plain.sharpe**2 == pytest.approx(0.64, abs=1e-12)
        assert plain.sharpe**2 < 1.0

    def test_monotone_repairs_the_dominance_failure(self):
        # Statewise better payoff, worse plain ratio - and equal-or-better
        # monotone ratio.
        worse = stats(payoff(W_IMPROVED)).hansen
        better = stats(payoff(W_VALUES)).hansen
        assert worse < better
        assert (
            monotone_hansen_ratio(payoff(W_IMPROVED)).mhr
            >= monotone_hansen_ratio(payoff(W_VALUES)).mhr - 1e-12
        )


class TestSolver:
    def test_two_point_payoffs_never_truncate(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            down = -float(rng.uniform(0.1, 2.0))
            up = float(rng.uniform(0.1, 3.0))
            p_down = float(rng.uniform(0.05, 0.7))
            pay = ScenarioPayoff.from_arrays([p_down, 1 - p_down], [down, up])
            if stats(pay).mean <= 0:
                continue
            result = monotone_hansen_ratio(pay)
            assert not result.truncated
            assert result.mhr == pytest.approx(stats(pay).hansen, abs=1e-12)
            assert brute_force_mhr(pay) <= result.mhr + 1e-9

    def test_matches_brute_force_on_random_payoffs(self):
        rng = np.random.default_rng(62)
        for _ in range(60):
            pay = random_payoff(rng, 12, positive_mean=True, with_downside=True)
            result = monotone_hansen_ratio(pay)
            assert result.mhr == pytest.approx(brute_force_mhr(pay), abs=1e-6)
            assert result.mhr >= stats(pay).hansen - 1e-12

    def test_first_order_condition_holds(self):
        rng = np.random.default_rng(63)
        for _ in range(60):
            pay = random_payoff(rng, 10, positive_mean=True, with_downside=True)
            result = monotone_hansen_ratio(pay)
            alpha = result.alpha_hat
            lhs = math.fsum(p * v for p, v in pay.states if v <= result.k_hat)
            rhs = alpha * math.fsum(
                p * v * v for p, v in pay.states if v <= result.k_hat
            )
            assert abs(lhs - rhs) < 1e-10
            assert alpha * result.k_hat == pytest.approx(1.0, abs=1e-12)

    def test_statewise_dominance_of_the_monotone_ratio(self):
        rng = np.random.default_rng(64)
        for _ in range(50):
            pay = random_payoff(rng, 8, positive_mean=True, with_downside=True)
            bumps = rng.uniform(0.0, 0.5, len(pay.values))
            improved = ScenarioPayoff.from_arrays(
                pay.probabilities, np.array(pay.values) + bumps
            )
            if improved.min_value() >= 0.0:
                continue
            assert (
                monotone_hansen_ratio(improved).mhr
                >= monotone_hansen_ratio(pay).mhr - 1e-10
            )

    def test_scaled_monotonized_utility_matches_ratio(self):
        rng = np.random.default_rng(65)
        for _ in range(25):
            pay = random_payoff(rng, 8, positive_mean=True, with_downside=True)
            result = monotone_hansen_ratio(pay)
            probs = np.array(pay.probabilities)
            values = np.array(pay.values)
            alphas = np.linspace(0.0, 3.0 * result.alpha_hat, 30001)
            scaled = np.minimum(alphas[None, :] * values[:, None], 1.0)
            utilities = probs @ (scaled - 0.5 * scaled**2)
            assert utilities.max() == pytest.approx(
                0.5 * result.mhr**2, abs=1e-8
            )

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(NonPositiveMeanError):
            monotone_hansen_ratio(
                ScenarioPayoff.from_arrays([0.5, 0.5], [-1.0, 0.5])
            )

    def test_no_downside_is_an_error_by_default(self):
        pay = ScenarioPayoff.from_arrays([0.5, 0.5], [0.5, 2.0])
        with pytest.raises(NoDownsideError):
            monotone_hansen_ratio(pay)

    def test_no_downside_flagged_when_allowed(self):
        pay = ScenarioPayoff.from_arrays([0.5, 0.5], [0.5, 2.0])
        result = monotone_hansen_ratio(pay, allow_no_downside=True)
        assert result.mhr == 1.0
        assert result.msr is None
        assert result.k_hat is None and result.alpha_hat is None
        assert not result.attained


class TestMonotonizedUtility:
    @pytest.mark.parametrize(
        "x,expected", [(1.0, 0.5), (2.0, 0.5), (0.5, 0.375), (0.0, 0.0), (-1.0, -1.5)]
    )
    def test_values(self, x, expected):
        assert monotonized_utility(x) == pytest.approx(expected, abs=1e-15)

    def test_flat_beyond_bliss(self):
        assert monotonized_utility(10.0) == monotonized_utility(1.0) == 0.5


def example_market():
    risk_free = ScenarioPayoff.from_arrays(PROBS, (1.0, 1.0, 1.0))
    risky = ScenarioPayoff.from_arrays(PROBS, W_IMPROVED)
    return gram_from_scenarios([risk_free, risky], [1.0, 0.0])


def example_kernel(t: float) -> ScenarioPayoff:
    """Nonnegative kernels of the example market, indexed by t in [0, 1/4]."""
    return ScenarioPayoff.from_arrays(PROBS, (3.0 + 10.0 * t, 1.0 - 4.0 * t, t))


def bound_of_priced_market(probs, kernel_vals, values):
    """Market of the payoff columns of ``values``, priced by ``kernel_vals``,
    and its checked monotone kernel bound; ``(None, None)`` if collinear."""
    basis = [ScenarioPayoff.from_arrays(probs, col) for col in values.T]
    try:
        market = gram_from_scenarios(basis, (probs * kernel_vals) @ values)
    except HRFrontierError:
        return None, None
    report = monotone_hj_bound(market, ScenarioPayoff.from_arrays(probs, kernel_vals))
    assert report.mhr_ok and report.msr_ok
    # The monotone supremum is never below the plain one.
    assert report.sup_mhr_sq >= special_portfolios(market).hr_sq_x - 1e-12
    return market, report


class TestMonotoneKernelBound:
    def test_example_market_variance_floor_is_one(self):
        market = example_market()
        for t in (0.0, 0.1, 0.25):
            report = monotone_hj_bound(market, example_kernel(t))
            assert report.sup_mhr_sq == pytest.approx(0.5, abs=1e-12)
            assert report.sup_msr_sq == pytest.approx(1.0, abs=1e-11)
            assert report.kernel_var_over_mean_sq >= 1.0 - 1e-10
            assert report.mhr_ok and report.msr_ok

    def test_example_bound_is_tight_at_the_extreme_kernel(self):
        report = monotone_hj_bound(example_market(), example_kernel(0.0))
        assert report.kernel_hr_sq == pytest.approx(0.5, abs=1e-12)
        assert report.sup_mhr_sq == pytest.approx(report.mhr_bound, abs=1e-10)
        assert report.kernel_var_over_mean_sq == pytest.approx(1.0, abs=1e-10)

    def test_complete_market_unique_kernel(self):
        probs = (0.6, 0.4)
        first = ScenarioPayoff.from_arrays(probs, (1.0, 0.0))
        second = ScenarioPayoff.from_arrays(probs, (0.0, 1.0))
        market = gram_from_scenarios([first, second], [0.6 * 0.9, 0.4 * 1.1])
        kernel = ScenarioPayoff.from_arrays(probs, (0.9, 1.1))
        report = monotone_hj_bound(market, kernel)
        assert report.mhr_ok and report.msr_ok
        assert report.sup_mhr_sq <= report.mhr_bound + 1e-10

    def test_no_zero_cost_opportunities(self):
        asset = ScenarioPayoff.from_arrays((0.5, 0.5), (1.0, 1.0))
        market = gram_from_scenarios([asset], [1.0])
        kernel = ScenarioPayoff.from_arrays((0.5, 0.5), (1.0, 1.0))
        report = monotone_hj_bound(market, kernel)
        assert report.sup_mhr_sq == 0.0
        assert report.mhr_ok and report.msr_ok

    def test_random_markets_with_positive_kernels(self):
        rng = np.random.default_rng(71)
        for _ in range(6):
            n_states = int(rng.integers(3, 6))
            market = random_scenario_market(rng, n_states, 2)
            # Build a strictly positive kernel: start from the frontier kernel
            # and verify positivity; skip draws where it is not nonnegative.
            from hrfrontier import kernel_frontier

            frontier = kernel_frontier(market)
            if frontier.eta_star is None:
                continue
            kernel = frontier.kernel(frontier.eta_star)
            if min(kernel.values) < 0.0:
                continue
            report = monotone_hj_bound(market, kernel)
            assert report.mhr_ok
            assert report.msr_ok

    def test_sweep_with_multidimensional_zero_cost_sphere(self):
        rng = np.random.default_rng(73)
        from hrfrontier import kernel_frontier

        exercised = 0
        for _ in range(20):
            market = random_scenario_market(rng, 6, 4)
            frontier = kernel_frontier(market)
            if frontier.eta_star is None:
                continue
            kernel = frontier.kernel(frontier.eta_star)
            if min(kernel.values) < 0.0:
                continue
            report = monotone_hj_bound(market, kernel)
            # The monotone supremum is never below the plain one.
            assert report.sup_mhr_sq >= special_portfolios(market).hr_sq_x - 1e-12
            assert report.mhr_ok and report.msr_ok
            exercised += 1
        assert exercised > 0

    def test_exact_supremum_beats_a_numerical_optimizer(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(74)
        truncation_gains = 0
        for _ in range(12):
            n_states = int(rng.integers(6, 20))
            n_assets = int(rng.integers(2, 5))
            probs = random_probs(rng, n_states)
            # A skewed kernel makes the best zero-cost payoffs worth truncating.
            kernel_vals = rng.uniform(0.0, 1.0, n_states) ** 3 * 3.0
            values = np.column_stack(
                [np.ones(n_states), rng.uniform(-0.5, 2.0, (n_states, n_assets - 1))]
            )
            market, report = bound_of_priced_market(probs, kernel_vals, values)
            if market is None:
                continue
            zero_cost = values @ np.linalg.svd(market.prices[None, :])[2][1:].T

            def neg_utility(w):
                return -float(probs @ monotonized_utility(zero_cost @ w))

            def neg_gradient(w):
                return -(probs * np.maximum(1.0 - zero_cost @ w, 0.0)) @ zero_cost

            oracle = optimize.minimize(
                neg_utility, np.zeros(n_assets - 1), jac=neg_gradient, method="BFGS"
            )
            assert report.sup_mhr_sq >= -2.0 * oracle.fun - 1e-12
            if report.sup_mhr_sq > special_portfolios(market).hr_sq_x + 1e-6:
                truncation_gains += 1
        assert truncation_gains > 0

    def test_kernels_that_vanish_on_some_states(self):
        # Zero-cost lotteries that pay only where the kernel is zero put the
        # optimum on the bliss point in several states at once.
        rng = np.random.default_rng(76)
        for _ in range(40):
            n_states = int(rng.integers(3, 9))
            n_priced = int(rng.integers(1, n_states))
            kernel_vals = np.zeros(n_states)
            kernel_vals[:n_priced] = rng.uniform(0.1, 3.0, n_priced)
            lotteries = np.zeros((n_states, int(rng.integers(1, n_states - n_priced + 1))))
            lotteries[n_priced:] = rng.choice([0.0, 0.5, 1.0, 2.0], lotteries[n_priced:].shape)
            risky = rng.uniform(-1.0, 2.0, (n_states, int(rng.integers(0, n_priced + 1))))
            values = np.column_stack([np.ones(n_states), lotteries, risky])
            bound_of_priced_market(random_probs(rng, n_states), kernel_vals, values)

    def test_payoffs_on_a_coarse_grid(self):
        # Ties between states can make full Newton steps cycle between two
        # active sets; the line search has to break the cycle.
        rng = np.random.default_rng(79)
        for _ in range(100):
            n_states = int(rng.integers(4, 12))
            n_assets = int(rng.integers(2, n_states))
            kernel_vals = rng.uniform(0.0, 1.0, n_states) ** 3 * 3.0
            grid = rng.integers(-2, 9, (n_states, n_assets - 1)) / 4
            values = np.column_stack([np.ones(n_states), grid])
            bound_of_priced_market(random_probs(rng, n_states), kernel_vals, values)

    def test_bound_is_deterministic(self):
        rng = np.random.default_rng(75)
        market = random_scenario_market(rng, 12, 4)
        frontier = kernel_frontier(market)
        kernel = frontier.kernel(frontier.eta_star)
        assert monotone_hj_bound(market, kernel) == monotone_hj_bound(market, kernel)

    def test_negative_kernel_rejected(self):
        market = example_market()
        bad = ScenarioPayoff.from_arrays(PROBS, (3.0, 1.1, -0.1))
        with pytest.raises(NegativeKernelError):
            monotone_hj_bound(market, bad)

    def test_mispricing_rejected(self):
        market = example_market()
        bad = ScenarioPayoff.from_arrays(PROBS, (1.0, 1.0, 1.0))
        with pytest.raises(NotAKernelError):
            monotone_hj_bound(market, bad)

    def test_fenchel_bound(self):
        rng = np.random.default_rng(72)
        market = example_market()
        q = np.array(PROBS)
        zero_cost = np.array(W_IMPROVED)
        for t in (0.0, 0.05, 0.2):
            kernel_vals = np.array(example_kernel(t).values)
            lambdas = np.linspace(-5.0, 5.0, 2001)
            penalties = 0.5 * (q @ (1.0 - lambdas[:, None] * kernel_vals[None, :]).T ** 2)
            cap = penalties.min()
            for scale in rng.uniform(-40.0, 80.0, 25):
                w = scale * zero_cost
                utility = float(q @ (np.minimum(w, 1.0) - 0.5 * np.minimum(w, 1.0) ** 2))
                assert utility <= cap + 1e-12
