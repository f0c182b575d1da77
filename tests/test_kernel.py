import numpy as np
import pytest

from hrfrontier import (
    NotAKernelError,
    NotScenarioBackedError,
    ScenarioPayoff,
    StateSpaceMismatchError,
    check_kernel,
    gram_from_scenarios,
    hj_bounds,
    kernel_frontier,
    market_from_json,
    special_portfolios,
    stats,
)
from conftest import lifted_benchmark, random_scenario_market, random_sequence_market

# Exact-rational bound values for the benchmark market.
BENCH_HR_BOUND = 0.6433507208320525
BENCH_VARIANCE_BOUND = 0.5543621350212978
BENCH_HR_SQ_V = 0.01057441681187664

PROBS = (1 / 6, 1 / 2, 1 / 3)
W_IMPROVED = (-0.01, 0.01, 0.11)


def example_market():
    """Unit payoff at price one plus the improved example payoff at zero cost."""
    risk_free = ScenarioPayoff.from_arrays(PROBS, (1.0, 1.0, 1.0))
    risky = ScenarioPayoff.from_arrays(PROBS, W_IMPROVED)
    return gram_from_scenarios([risk_free, risky], [1.0, 0.0])


def complete_market():
    probs = (0.6, 0.4)
    first = ScenarioPayoff.from_arrays(probs, (1.0, 0.0))
    second = ScenarioPayoff.from_arrays(probs, (0.0, 1.0))
    kernel = np.array([0.9, 1.1])
    prices = [0.6 * 0.9, 0.4 * 1.1]
    return gram_from_scenarios([first, second], prices), kernel


class TestKernelFrontier:
    def test_complete_market_has_unique_kernel(self):
        market, _ = complete_market()
        frontier = kernel_frontier(market)
        assert frontier.hr_sq_direction == 0.0
        assert np.abs(np.array(frontier.direction.values)).max() < 1e-12
        assert frontier.eta_star == 0.0
        # The unique kernel attains the ratio bound automatically.
        diag = check_kernel(frontier.kernel(0.0), market)
        assert diag.hr_sq_m == pytest.approx(diag.hr_bound, abs=1e-10)

    def test_lifted_benchmark_residual(self):
        market = lifted_benchmark()
        frontier = kernel_frontier(market)
        assert frontier.hr_sq_direction == pytest.approx(BENCH_HR_SQ_V, rel=1e-9)

    def test_residual_matches_least_squares(self):
        market = lifted_benchmark()
        frontier = kernel_frontier(market)
        q = market.state_probabilities
        values = market.scenario_values
        # Weighted least squares projection of the bliss payoff onto the market.
        sqrt_q = np.sqrt(q)
        coef, *_ = np.linalg.lstsq(
            values * sqrt_q[:, None], np.ones(len(q)) * sqrt_q, rcond=None
        )
        residual = 1.0 - values @ coef
        assert np.abs(residual - np.array(frontier.direction.values)).max() < 1e-10

    def test_single_risk_free_asset_on_two_states(self):
        probs = (0.3, 0.7)
        asset = ScenarioPayoff.from_arrays(probs, (1.0, 1.0))
        market = gram_from_scenarios([asset], [1.0])
        frontier = kernel_frontier(market)
        coef, *_ = np.linalg.lstsq(
            np.sqrt(probs)[:, None] * np.ones((2, 1)),
            np.sqrt(probs) * np.ones(2),
            rcond=None,
        )
        residual = np.ones(2) - np.ones(2) * coef[0]
        assert np.abs(np.array(frontier.direction.values) - residual).max() < 1e-12
        assert frontier.hr_sq_direction == 0.0

    def test_zero_mean_base_leaves_eta_unattained(self):
        probs = (1 / 3, 1 / 3, 1 / 3)
        asset = ScenarioPayoff.from_arrays(probs, (1.0, 0.0, -1.0))
        market = gram_from_scenarios([asset], [1.0])
        frontier = kernel_frontier(market)
        assert frontier.eta_star is None

    def test_eta_is_unattained_exactly_when_the_frontier_says_so(self):
        # mu_y = 6.7e-10 lies below the rounding scale of m.w_y (7.4e-10).
        probs = (0.25,) * 4
        first = ScenarioPayoff.from_arrays(probs, (1.0, 2.0, -1.0, 0.5))
        second = ScenarioPayoff.from_arrays(probs, (1.001, 2.0, -1.0, 0.503))
        market = gram_from_scenarios([first, second], [0.7073896804443, 0.7068237687012])
        assert not special_portfolios(market).max_hr_attained
        assert kernel_frontier(market).eta_star is None

    def test_requires_scenarios(self, benchmark_market):
        with pytest.raises(NotScenarioBackedError):
            kernel_frontier(benchmark_market)

    def test_gram_market_has_no_states(self):
        market = market_from_json({"kind": "gram", "G": [[1.25]], "m": [1.1], "p": [1.0]})
        with pytest.raises(NotScenarioBackedError):
            kernel_frontier(market)


class TestBounds:
    def test_benchmark_bounds(self, benchmark_market):
        report = hj_bounds(benchmark_market)
        assert report.hr_bound == pytest.approx(BENCH_HR_BOUND, rel=1e-12)
        assert report.variance_bound == pytest.approx(BENCH_VARIANCE_BOUND, rel=1e-12)
        assert report.kernel_checks == ()

    def test_variance_bound_consistent_with_ratio_conversion(self, benchmark_market):
        report = hj_bounds(benchmark_market)
        hr_sq_x = special_portfolios(benchmark_market).hr_sq_x
        assert report.variance_bound == pytest.approx(
            hr_sq_x / (1.0 - hr_sq_x), rel=1e-15
        )

    def test_no_zero_cost_opportunity_admits_any_kernel(self):
        asset = ScenarioPayoff.from_arrays((0.5, 0.5), (1.0, 1.0))
        market = gram_from_scenarios([asset], [1.0])
        report = hj_bounds(market)
        assert report.hr_bound == 1.0
        assert report.variance_bound == 0.0

    def test_example_market_variance_bound(self):
        report = hj_bounds(example_market())
        assert report.variance_bound == pytest.approx(0.64, abs=1e-12)


class TestCheckKernel:
    def test_scaled_pricing_portfolio_is_a_kernel(self):
        market = lifted_benchmark()
        sp = special_portfolios(market)
        y_vals = market.scenario_values @ sp.w_y / sp.omega_sq_y
        kernel = ScenarioPayoff.from_arrays(market.state_probabilities, y_vals)
        diag = check_kernel(kernel, market)
        assert diag.pricing_error < 1e-12
        assert diag.hr_sq_m == pytest.approx(sp.hr_sq_y, rel=1e-10)
        assert diag.hr_ok and diag.passed

    def test_optimal_frontier_kernel_attains_equality(self):
        market = lifted_benchmark()
        frontier = kernel_frontier(market)
        diag = check_kernel(frontier.kernel(frontier.eta_star), market)
        assert diag.hr_sq_m == pytest.approx(diag.hr_bound, abs=1e-10)
        assert diag.var_over_mean_sq == pytest.approx(
            diag.variance_bound, abs=1e-8
        )

    def test_zero_mean_kernel_skips_variance_form(self):
        probs = (1 / 3, 1 / 3, 1 / 3)
        asset = ScenarioPayoff.from_arrays(probs, (1.0, 0.0, -1.0))
        market = gram_from_scenarios([asset], [1.0])
        kernel = ScenarioPayoff.from_arrays(probs, (2.0, -1.0, -1.0))
        diag = check_kernel(kernel, market)
        assert diag.var_over_mean_sq is None
        assert diag.variance_ok is None
        assert diag.hr_ok and diag.passed
        assert diag.to_dict()["var_over_mean_sq"] is None

    def test_mispricing_rejected(self):
        market = lifted_benchmark()
        frontier = kernel_frontier(market)
        values = np.array(frontier.kernel(frontier.eta_star).values) + 0.05
        bad = ScenarioPayoff.from_arrays(market.state_probabilities, values)
        with pytest.raises(NotAKernelError):
            check_kernel(bad, market)

    def test_state_space_mismatch(self):
        market = lifted_benchmark()
        kernel = ScenarioPayoff.from_arrays((0.5, 0.5), (1.0, 1.0))
        with pytest.raises(StateSpaceMismatchError):
            check_kernel(kernel, market)

    def test_requires_scenarios(self, benchmark_market):
        kernel = ScenarioPayoff.from_arrays((1.0,), (1.0,))
        with pytest.raises(NotScenarioBackedError):
            check_kernel(kernel, benchmark_market)


class TestRandomKernelSweep:
    def _orthogonal_noise(self, market, rng):
        q = market.state_probabilities
        values = market.scenario_values
        raw = rng.standard_normal(len(q))
        sqrt_q = np.sqrt(q)
        coef, *_ = np.linalg.lstsq(values * sqrt_q[:, None], raw * sqrt_q, rcond=None)
        return raw - values @ coef

    def test_every_valid_kernel_respects_both_bounds(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            market = random_scenario_market(rng, 6, 3)
            frontier = kernel_frontier(market)
            base = np.array(frontier.base.values)
            v_vals = np.array(frontier.direction.values)
            q = market.state_probabilities
            for _ in range(10):
                eta = float(rng.uniform(-3.0, 3.0))
                noise = self._orthogonal_noise(market, rng) * rng.uniform(0.0, 0.5)
                kernel = ScenarioPayoff.from_arrays(q, base + eta * v_vals + noise)
                diag = check_kernel(kernel, market)
                assert diag.hr_sq_m <= diag.hr_bound + 1e-10
                if diag.var_over_mean_sq is not None:
                    assert diag.var_over_mean_sq >= diag.variance_bound - 1e-10

    def test_optimal_eta_attains_equality(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            market = random_scenario_market(rng, 5, 3)
            frontier = kernel_frontier(market)
            if frontier.eta_star is None:
                continue
            diag = check_kernel(frontier.kernel(frontier.eta_star), market)
            assert diag.hr_sq_m == pytest.approx(diag.hr_bound, abs=1e-10)

    def test_optimal_eta_attains_equality_on_sequence_markets(self):
        rng = np.random.default_rng(55)
        for n in (1, 2, 3) * 5:
            market = random_sequence_market(rng, n)
            frontier = kernel_frontier(market)
            diag = check_kernel(frontier.kernel(frontier.eta_star), market)
            hr_sq_x = special_portfolios(market).hr_sq_x
            assert diag.hr_sq_m == pytest.approx(1.0 - hr_sq_x, abs=1e-10)

    def test_optimal_eta_is_the_reciprocal_mean_of_y(self):
        rng = np.random.default_rng(56)
        markets = [random_scenario_market(rng, int(rng.integers(4, 12)), 3) for _ in range(20)]
        markets += [random_sequence_market(rng, n) for n in (1, 2, 3) * 5]
        for market in markets:
            frontier = kernel_frontier(market)
            assert frontier.eta_star == 1.0 / special_portfolios(market).mu_y

    def test_frontier_family_ratio_subadditivity(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            market = random_scenario_market(rng, 5, 2)
            sp = special_portfolios(market)
            frontier = kernel_frontier(market)
            cap = sp.hr_sq_y + frontier.hr_sq_direction
            for eta in np.linspace(-5.0, 5.0, 101):
                ratios = stats(frontier.kernel(float(eta)))
                assert ratios.hansen**2 <= cap + 1e-10

    def test_reciprocal_chain_is_an_identity(self):
        rng = np.random.default_rng(54)
        for _ in range(10):
            market = random_scenario_market(rng, 5, 3)
            frontier = kernel_frontier(market)
            for eta in (0.0, 0.7, -1.3):
                ratios = stats(frontier.kernel(eta))
                if abs(ratios.mean) < 1e-9 or ratios.hansen == 0.0:
                    continue
                lhs = 1.0 / ratios.hansen**2 - 1.0
                rhs = ratios.variance / ratios.mean**2
                assert lhs == pytest.approx(rhs, rel=1e-10)


def test_kernel_payoffs_hold_the_market_probabilities():
    market = random_scenario_market(np.random.default_rng(31), 40, 3)
    q = market.state_probabilities
    frontier = kernel_frontier(market)
    kernels = [frontier.kernel(eta) for eta in (0.0, 1.5)]
    for payoff in (frontier.base, frontier.direction, *kernels):
        assert payoff.probabilities is q
    assert check_kernel(kernels[0], market).passed
