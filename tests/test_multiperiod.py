from fractions import Fraction

import numpy as np
import pytest

import hrfrontier
from hrfrontier import (
    DegeneratePricesError,
    InvalidHorizonError,
    InvalidInputError,
    MultiperiodStats,
    NotPositiveDefiniteError,
    NotScenarioBackedError,
    ScenarioPayoff,
    TreeTooLargeError,
    frontier_coefficients,
    gram_from_scenarios,
    market_from_json,
    multiperiod_frontier,
    product_tree,
    propagate,
    special_portfolios,
    tree_oracle,
)
from conftest import (
    exact_verify_oracle,
    lifted_benchmark,
    random_scenario_market,
    random_sequence_market,
)

# Exact-rational four-period statistics of the benchmark market.
BENCH4_HR_SQ_X = 0.8154962271794837
BENCH4_MU_Y = 0.30380986034320073
BENCH4_OMEGA_SQ_Y = 0.5757088427422385
BENCH4_MU_Z = 1.646632237914963
BENCH4_SIGMA_SQ_Z = 0.07544573250468156
BENCH4_SR_INV_SQ = 0.22624724268639523


def two_state_market():
    probs = (0.55, 0.45)
    up = ScenarioPayoff.from_arrays(probs, (1.3, 0.9))
    flat = ScenarioPayoff.from_arrays(probs, (1.05, 1.05))
    return gram_from_scenarios([up, flat], [1.0, 1.0])


class TestPropagate:
    def test_benchmark_four_periods(self, benchmark_market):
        sp = special_portfolios(benchmark_market)
        stats4 = propagate(sp, 4)
        assert stats4.hr_sq_x == pytest.approx(BENCH4_HR_SQ_X, rel=1e-12)
        assert stats4.mu_y == pytest.approx(BENCH4_MU_Y, rel=1e-12)
        assert stats4.omega_sq_y == pytest.approx(BENCH4_OMEGA_SQ_Y, rel=1e-12)

    def test_one_period_is_the_identity(self, benchmark_market):
        sp = special_portfolios(benchmark_market)
        stats1 = propagate(sp, 1)
        assert stats1.mu_y == sp.mu_y
        assert stats1.omega_sq_y == sp.omega_sq_y
        assert stats1.hr_sq_y == sp.hr_sq_y
        assert stats1.hr_sq_x == sp.hr_sq_x
        assert stats1.slack == sp.slack

    def test_slack_folds_over_periods(self, benchmark_market):
        # 1 - total_n = s + hr_sq_y * (1 - total_(n-1)), in exact rationals
        # from the one-period floats.
        sp = special_portfolios(benchmark_market)
        hr_sq_y, slack = Fraction(sp.hr_sq_y), Fraction(sp.slack)
        exact = Fraction(0)
        for n in range(1, 9):
            exact = slack + hr_sq_y * exact
            stats_n = propagate(sp, n)
            assert stats_n.slack == pytest.approx(float(exact), rel=1e-14)
            total = stats_n.hr_sq_x + stats_n.hr_sq_y + stats_n.slack
            assert total == pytest.approx(1.0, abs=1e-14)

    def test_riskless_ratio_geometric_sum_switches_to_horizon(self):
        market = gram_from_scenarios([ScenarioPayoff.from_arrays([1.0], [1.0])], [1.0])
        sp = special_portfolios(market)
        stats3 = propagate(sp, 3)
        assert stats3.hr_sq_y == 1.0
        assert stats3.hr_sq_x == 0.0

    def test_ratio_budget_grows_with_horizon(self, benchmark_market):
        sp = special_portfolios(benchmark_market)
        values = [propagate(sp, n).hr_sq_x for n in range(1, 9)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_bound_holds_at_every_horizon(self):
        rng = np.random.default_rng(81)
        for _ in range(30):
            market = random_scenario_market(rng, 4, 2)
            sp = special_portfolios(market)
            for n in range(1, 7):
                stats_n = propagate(sp, n)
                assert stats_n.hr_sq_x + stats_n.hr_sq_y <= 1.0 + 1e-10

    @pytest.mark.parametrize("bad", [0, -1, 2.5])
    def test_invalid_horizon(self, benchmark_market, bad):
        sp = special_portfolios(benchmark_market)
        with pytest.raises(InvalidHorizonError):
            propagate(sp, bad)


class TestTreeOracle:
    def test_one_period_equals_the_solver(self):
        market = two_state_market()
        sp = special_portfolios(market)
        oracle = tree_oracle(market, 1)
        assert oracle.mu_y == pytest.approx(sp.mu_y, rel=1e-12)
        assert oracle.omega_sq_y == pytest.approx(sp.omega_sq_y, rel=1e-12)
        assert oracle.hr_sq_x == pytest.approx(sp.hr_sq_x, rel=1e-10, abs=1e-14)

    def test_two_state_two_periods_leafwise(self):
        market = two_state_market()
        sp = special_portfolios(market)
        tree = product_tree(market, 2)
        assert tree.n_leaves == 4
        assert tree.leaf_probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        q = market.state_probabilities
        expected_probs = np.array([q[a] * q[b] for a in range(2) for b in range(2)])
        assert np.abs(tree.leaf_probabilities - expected_probs).max() < 1e-15
        y_one = market.scenario_values @ sp.w_y
        expected = np.array([y_one[a] * y_one[b] for a in range(2) for b in range(2)])
        assert np.abs(tree.y_leaves - expected).max() < 1e-14
        oracle = tree_oracle(market, 2)
        assert oracle.mu_y == pytest.approx(sp.mu_y**2, rel=1e-12)
        assert oracle.omega_sq_y == pytest.approx(sp.omega_sq_y**2, rel=1e-12)

    def test_propagate_matches_oracle_on_two_state_market(self):
        market = two_state_market()
        sp = special_portfolios(market)
        for n in (1, 2, 3):
            closed = propagate(sp, n)
            oracle = tree_oracle(market, n)
            assert oracle.mu_y == pytest.approx(closed.mu_y, abs=1e-10)
            assert oracle.omega_sq_y == pytest.approx(closed.omega_sq_y, abs=1e-10)
            assert oracle.hr_sq_y == pytest.approx(closed.hr_sq_y, abs=1e-10)
            assert oracle.hr_sq_x == pytest.approx(closed.hr_sq_x, abs=1e-10)

    def test_propagate_matches_oracle_on_lifted_benchmark(self):
        market = lifted_benchmark()
        sp = special_portfolios(market)
        closed = propagate(sp, 2)
        oracle = tree_oracle(market, 2)
        assert oracle.hr_sq_x == pytest.approx(closed.hr_sq_x, abs=1e-10)
        assert oracle.mu_y == pytest.approx(closed.mu_y, abs=1e-10)

    def test_propagate_matches_oracle_on_sequence_markets(self):
        rng = np.random.default_rng(84)
        for n in (1, 2, 3) * 3:
            market = random_sequence_market(rng, n)
            closed = propagate(special_portfolios(market), 2)
            oracle = tree_oracle(market, 2)
            for name in ("mu_y", "omega_sq_y", "hr_sq_y", "hr_sq_x", "slack"):
                assert getattr(oracle, name) == pytest.approx(
                    getattr(closed, name), rel=1e-12, abs=1e-12
                ), name

    def test_tree_too_large(self):
        rng = np.random.default_rng(82)
        market = random_scenario_market(rng, 10, 2)
        with pytest.raises(TreeTooLargeError):
            product_tree(market, 6)

    def test_requires_scenarios(self, benchmark_market):
        with pytest.raises(NotScenarioBackedError):
            tree_oracle(benchmark_market, 2)

    def test_invalid_horizon(self):
        with pytest.raises(InvalidHorizonError):
            product_tree(two_state_market(), 0)


class TestMultiperiodFrontier:
    def test_benchmark_four_period_parabolas(self, benchmark_market):
        sp = special_portfolios(benchmark_market)
        coeffs = multiperiod_frontier(propagate(sp, 4))
        assert coeffs.mu_omega.level == pytest.approx(BENCH4_OMEGA_SQ_Y, rel=1e-12)
        assert coeffs.mu_omega.curvature == pytest.approx(
            1.0 / BENCH4_HR_SQ_X, rel=1e-12
        )
        assert coeffs.mu_omega.center == pytest.approx(BENCH4_MU_Y, rel=1e-12)
        assert coeffs.mu_sigma.level == pytest.approx(BENCH4_SIGMA_SQ_Z, rel=1e-11)
        assert coeffs.mu_sigma.curvature == pytest.approx(BENCH4_SR_INV_SQ, rel=1e-11)
        assert coeffs.mu_sigma.center == pytest.approx(BENCH4_MU_Z, rel=1e-12)

    def test_one_period_reduces_to_the_frontier_module(self, benchmark_market):
        sp = special_portfolios(benchmark_market)
        direct = frontier_coefficients(sp)
        via_propagation = multiperiod_frontier(propagate(sp, 1))
        assert via_propagation.mu_omega == direct.mu_omega
        assert via_propagation.mu_sigma == direct.mu_sigma

    def test_vertex_dominates_sampled_dynamic_strategies(self):
        rng = np.random.default_rng(83)
        market = random_scenario_market(rng, 3, 2)
        sp = special_portfolios(market)
        horizon = 3
        coeffs = multiperiod_frontier(propagate(sp, horizon))
        q = market.state_probabilities
        values = market.scenario_values
        leaf_states = [
            (a, b, c) for a in range(3) for b in range(3) for c in range(3)
        ]
        for _ in range(200):
            # Deterministic per-period rebalanced unit-cost strategy.
            weights = rng.uniform(-1.0, 2.0, (horizon, 2))
            weights /= (weights @ market.prices)[:, None]
            returns = values @ weights.T  # state x period
            leaf_payoff = np.array(
                [np.prod([returns[s, t] for t, s in enumerate(path)]) for path in leaf_states]
            )
            leaf_prob = np.array([q[a] * q[b] * q[c] for a, b, c in leaf_states])
            mean = float(leaf_prob @ leaf_payoff)
            variance = float(leaf_prob @ (leaf_payoff - mean) ** 2)
            assert variance >= coeffs.mu_sigma(mean) - 1e-9

    def test_one_rule_for_every_horizon(self):
        assert hrfrontier.multiperiod_frontier is hrfrontier.frontier_coefficients

    @pytest.mark.parametrize(
        "fields",
        [
            {"omega_sq_y": -1.0, "slack": 0.5},  # no second moment below zero
            {"omega_sq_y": 1.0, "slack": -0.1},  # no slack below zero
            {"omega_sq_y": 1.0, "slack": 0.0},  # ratios and slack sum to 0.5, not 1
        ],
    )
    def test_hand_built_stats_outside_the_budget_are_invalid_input(self, fields):
        with pytest.raises(InvalidInputError):
            frontier_coefficients(
                MultiperiodStats(horizon=1, mu_y=0.0, hr_sq_y=0.0, hr_sq_x=0.5, **fields)
            )


def rational_gram_market(rng: np.random.Generator, n: int):
    """A ``gram`` market from up to eight states with rational probabilities,
    quarter-grid payoffs and a positive quarter-grid kernel; its float inputs
    are what the exact oracle solves."""
    n_states = int(rng.integers(n, 9))
    weights = rng.integers(1, 5, n_states)
    q = [Fraction(int(w), int(weights.sum())) for w in weights]
    values = [[Fraction(int(v), 4) for v in row] for row in rng.integers(-4, 9, (n_states, n))]
    kernel = [Fraction(int(k), 4) for k in rng.integers(1, 9, n_states)]
    states = list(zip(q, values, kernel))
    gram = [
        [float(sum(qs * v[i] * v[j] for qs, v, _ in states)) for j in range(n)] for i in range(n)
    ]
    means = [float(sum(qs * v[i] for qs, v, _ in states)) for i in range(n)]
    prices = [float(sum(qs * k * v[i] for qs, v, k in states)) for i in range(n)]
    return {"kind": "gram", "G": gram, "m": means, "p": prices}, (gram, means, prices)


def rational_universe(rng: np.random.Generator, n: int):
    """A ``universe`` market with dyadic means and covariance."""
    factor = rng.integers(-4, 5, (n, n + 1)) / 4
    sigma = (factor @ factor.T + np.eye(n)) / 4
    mu = 1.0 + rng.integers(-4, 9, n) / 8
    exact_mu = [Fraction(m) for m in mu]
    gram = [
        [Fraction(s) + a * b for s, b in zip(row, exact_mu)] for row, a in zip(sigma, exact_mu)
    ]
    spec = {"kind": "universe", "mu": mu.tolist(), "sigma": sigma.tolist()}
    return spec, (gram, exact_mu, [1] * n)


#: Gates on the error of propagate and frontier_coefficients against exact
#: rationals: twice the worst over seeds 0-19 and 85 of this sweep, rounded up
#: to a 1-2-5 step.  Errors are relative, except that hr_sq_x and the slack
#: are shares of the unit budget (they cancel down from it), the curvatures
#: are scaled by 1/hr_sq_x**2, which turns their error back into one of
#: hr_sq_x, and sigma_sq_z is scaled by omega_sq_y (it is zero for complete
#: markets).
EXACT_GATES = {
    "mu_y": 1e-12,
    "omega_sq_y": 1e-12,
    "hr_sq_y": 2e-12,
    "hr_sq_x": 1e-12,
    "slack": 5e-13,
    "omega_curvature": 1e-12,
    "sigma_curvature": 1e-12,
    "mu_z": 5e-12,
    "sigma_sq_z": 5e-12,
}


def worst_exact_errors(seed: int, n_markets: int = 400) -> dict[str, float]:
    """Worst scaled error of the n-period statistics and parabolas of random
    rational markets (n <= 5, Gram condition <= 1e4) at horizons 1, 2, 3, 5
    and 8."""
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(EXACT_GATES, 0.0)
    markets = 0
    while markets < n_markets:
        n = int(rng.integers(1, 6))
        build = rational_gram_market if rng.integers(2) else rational_universe
        spec, exact_inputs = build(rng, n)
        try:
            market = market_from_json(spec)
        except (DegeneratePricesError, NotPositiveDefiniteError):
            continue  # no prices, or payoffs that are not independent
        if np.linalg.cond(market.gram) > 1e4:
            continue
        markets += 1
        sp = special_portfolios(market)
        for horizon in (1, 2, 3, 5, 8):
            exact = exact_verify_oracle(*exact_inputs, horizon)
            stats_n = propagate(sp, horizon)
            coeffs = frontier_coefficients(stats_n)
            hr_sq_x = exact["multiperiod_hr_sq_x"]
            hr_sq_y = exact["hr_sq_y"] ** horizon
            omega_sq_y = exact["multiperiod_omega_sq_y"]
            pairs = {
                "mu_y": (stats_n.mu_y, exact["multiperiod_mu_y"], None),
                "omega_sq_y": (stats_n.omega_sq_y, omega_sq_y, None),
                "hr_sq_y": (stats_n.hr_sq_y, hr_sq_y, None),
                "hr_sq_x": (stats_n.hr_sq_x, hr_sq_x, 1),
                "slack": (stats_n.slack, 1 - hr_sq_x - hr_sq_y, 1),
            }
            if hr_sq_x < 1e-20:  # zero but for the rounding of the inputs
                assert coeffs.degenerate
            else:
                omega, sigma, inv_sq = coeffs.mu_omega, coeffs.mu_sigma, 1 / hr_sq_x**2
                pairs.update(
                    omega_curvature=(omega.curvature, exact["frontier_omega_curvature"], inv_sq),
                    sigma_curvature=(sigma.curvature, exact["frontier_sigma_curvature"], inv_sq),
                    mu_z=(sigma.center, exact["multiperiod_mu_z"], None),
                    sigma_sq_z=(sigma.level, exact["multiperiod_sigma_sq_z"], omega_sq_y),
                )
                assert omega.level == stats_n.omega_sq_y and omega.center == stats_n.mu_y
            for name, (got, want, scale) in pairs.items():
                scale = abs(want) if scale is None else scale
                error = float(abs(Fraction(got) - want) / scale) if scale else abs(got)
                worst[name] = max(worst[name], error)
    return worst


def test_frontier_at_every_horizon_matches_exact_rationals():
    worst = worst_exact_errors(85)
    print("\nworst error vs exact:", {name: f"{e:.1e}" for name, e in worst.items()})
    assert all(worst[name] <= gate for name, gate in EXACT_GATES.items()), worst
