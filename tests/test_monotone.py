import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hrfrontier import (
    HRFrontierError,
    InvalidInputError,
    NegativeKernelError,
    NoDownsideError,
    NonPositiveMeanError,
    NotAKernelError,
    ScenarioPayoff,
    StateSpaceMismatchError,
    check_kernel,
    gram_from_scenarios,
    kernel_frontier,
    monotone_hansen_ratio,
    monotone_hj_bound,
    monotonized_utility,
    special_portfolios,
    stats,
    tree_oracle,
)
from hrfrontier import monotone
from conftest import (
    random_payoff,
    random_probs,
    random_scenario_market,
    random_sequence_market,
)

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
            q, v = pay.probabilities, pay.values
            kept = v <= result.k_hat
            lhs = math.fsum((q * v)[kept].tolist())
            rhs = alpha * math.fsum((q * v * v)[kept].tolist())
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
            if improved.values.min() >= 0.0:
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

    def test_sequence_markets_with_nonnegative_kernels(self):
        rng = np.random.default_rng(74)
        exercised = 0
        for n in (1, 2, 3) * 5:
            market = random_sequence_market(rng, n)
            frontier = kernel_frontier(market)
            kernel = frontier.kernel(frontier.eta_star)
            if min(kernel.values) < 0.0:
                continue
            report = monotone_hj_bound(market, kernel)
            assert report.mhr_ok and report.msr_ok
            exercised += 1
        assert exercised > 0

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

    def test_kernel_on_other_states_is_a_state_space_mismatch(self):
        # As in check_kernel, whose validation the bound reuses.
        other = ScenarioPayoff.from_arrays((0.5, 0.5), (1.0, 1.0))
        with pytest.raises(StateSpaceMismatchError):
            monotone_hj_bound(example_market(), other)

    def test_complete_market_on_the_ratio_bound_runs_end_to_end(self):
        # Complete, priced by a kernel that is zero on two of three states:
        # hr_sq_x + hr_sq_y = 1 + 1.8e-14 with omega_sq_y = 32, a rounding
        # excess that a feasibility test scaled by omega_sq_y would reject.
        probs = (0.25, 0.25, 0.5)
        values = np.array([[0.75, -0.25, -0.25], [0.25, 0.25, -1.75], [1.75, -0.5, -1.5]])
        kernel = np.array([0.0, 0.0, 0.25])
        basis = [ScenarioPayoff.from_arrays(probs, column) for column in values.T]
        market = gram_from_scenarios(basis, (np.array(probs) * kernel) @ values)
        sp = special_portfolios(market)
        assert sp.omega_sq_y == pytest.approx(32.0, rel=1e-12)
        assert sp.slack == 0.0
        family = kernel_frontier(market)
        assert family.hr_sq_direction == 0.0
        check = check_kernel(family.kernel(family.eta_star), market)
        assert check.passed
        report = monotone_hj_bound(market, ScenarioPayoff.from_arrays(probs, kernel))
        assert report.mhr_ok and report.msr_ok
        assert tree_oracle(market, 3).slack == 0.0

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


def oracle_mhr(probs, values) -> float:
    """Best clipped ratio over every candidate cap: each positive outcome and
    each stationary cap ``E[W^2; W <= l] / E[W; W <= l]``, one of which is
    optimal."""
    q, w = np.asarray(probs), np.asarray(values)
    order = np.argsort(w)
    first, second = np.cumsum(q[order] * w[order]), np.cumsum(q[order] * w[order] ** 2)
    levels = np.unique(w[w > 0.0])
    last = np.searchsorted(w[order], levels, "right") - 1  # of the states <= each level
    useful = first[last] > 0.0
    caps = np.concatenate((levels, second[last][useful] / first[last][useful]))
    best = 0.0
    for chunk in np.array_split(caps, max(1, caps.size // 200)):
        clipped = np.minimum(w[None, :], chunk[:, None])
        best = max(best, float(((clipped @ q) / np.sqrt((clipped * clipped) @ q)).max()))
    return best


def exact_mhr(probs, values) -> tuple[float, float]:
    """``(mhr, cap)`` in exact rational arithmetic, over every positive
    outcome and every stationary cap, one of which is optimal."""
    q, w = [Fraction(p) for p in probs], [Fraction(v) for v in values]

    def ratio_sq(cap):
        clipped = [min(v, cap) for v in w]
        mean = sum(p * c for p, c in zip(q, clipped))
        return (mean * mean / sum(p * c * c for p, c in zip(q, clipped)) if mean > 0 else -1), cap

    candidates = [ratio_sq(v) for v in w if v > 0]
    for lo in sorted({v for v in w if v > 0}):
        kept = [(p, v) for p, v in zip(q, w) if v <= lo]
        mean = sum(p * v for p, v in kept)
        if mean > 0:
            candidates.append(ratio_sq(sum(p * v * v for p, v in kept) / mean))
    best_sq, cap = max(candidates)
    return math.sqrt(best_sq), float(cap)


def engine_payoffs(seed: int, count: int, decades: float = 0.0):
    """Seeded payoffs with a positive mean and some downside; every third one
    on a 1/4 grid (ties and caps on outcomes), a few with up to 3000 states,
    and with ``decades`` the outcomes' magnitudes spread over that many
    powers of ten either way."""
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        sizes = [2, 3, 5, 8, 12, 32, 200] if made % 50 else [1400, 3000]
        n_states = int(rng.choice(sizes))
        if made % 3 == 0:
            values = rng.integers(-4, 9, n_states) / 4
        else:
            values = rng.uniform(-1.0, 2.0, n_states)
        values = values * 10.0 ** rng.uniform(-decades, decades, n_states)
        probs = random_probs(rng, n_states)
        if values.min() < 0.0 and probs @ values > 0.0:
            made += 1
            yield ScenarioPayoff.from_arrays(probs, values)


def line_search_draws(seed: int, count: int):
    """Seeded ``(q, x, dx)`` of 3 to 19 states, each outcome and step of its
    own magnitude between 1e-3 and 1e3."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_states = int(rng.integers(3, 20))
        x = rng.uniform(-1.0, 2.0, n_states) * 10.0 ** rng.uniform(-3, 3, n_states)
        dx = rng.standard_normal(n_states) * 10.0 ** rng.uniform(-3, 3, n_states)
        yield random_probs(rng, n_states), x, dx


def exact_line_max(q, x, dx) -> Fraction:
    """Maximizer over ``t`` in [0, 1] of ``E[u(x + t dx)]`` in exact rational
    arithmetic: the first kink, or 1, where the slope is nonpositive bounds
    the segment whose stationary point, clipped at 0, is the optimum."""
    states = [(Fraction(p), 1 - Fraction(v), Fraction(d)) for p, v, d in zip(q, x, dx)]

    def slope(t):
        return sum(p * d * max(s - t * d, 0) for p, s, d in states)

    kinks = sorted({s / d for _, s, d in states if d != 0 and 0 < s / d < 1})
    start = Fraction(0)
    for end in [*kinks, Fraction(1)]:
        if slope(end) <= 0:
            mid = (start + end) / 2
            kept = [(p, s, d) for p, s, d in states if s > mid * d]
            lin = sum(p * d * s for p, s, d in kept)
            return lin / sum(p * d * d for p, s, d in kept) if lin > 0 else Fraction(0)
        start = end
    return Fraction(1)


#: Probabilities and outcomes at the ends of the float range, with the
#: results of the segment scan this solver replaced.
EDGE_PROBS = (0.2, 0.3, 0.5)
EDGE_CASES = [
    ((-1.0, 1e-300, 2.0), (0.5393598899705937, 0.6405126152203486, 2.75, False)),
    ((-1.0, 5e-324, 2.0), (0.5393598899705937, 0.6405126152203486, 2.75, False)),
    ((-1e-200, 1.0, 2.0), (0.894427190999916, 2.000000000000001, 1.0, True)),
    ((-1.0, 1e-12, 1e12), (0.7071067811862647, 0.9999999999992001, 1e12, False)),
    ((-1e-300, 1.0, 1e-320), (0.5477225575051662, 0.6546536707079772, 1.0, False)),
    ((-1e-200, 1e-320, 2.0), (0.7071067811865475, 0.9999999999999999, 2.0, False)),
]


class TestTruncationEngine:
    def test_matches_the_exact_oracle(self):
        worst = 0.0
        for pay in engine_payoffs(81, 510):
            result = monotone_hansen_ratio(pay)
            worst = max(worst, abs(result.mhr - oracle_mhr(pay.probabilities, pay.values)))
        assert worst <= 1e-14

    def test_matches_the_exact_oracle_across_300_decades(self):
        # Caps up to 300 decades below the largest gain: each probe of the
        # bisection sums its sign test in units of the gain it probes.
        for pay in engine_payoffs(86, 300, decades=150.0):
            result = monotone_hansen_ratio(pay)
            assert result.mhr == pytest.approx(oracle_mhr(pay.probabilities, pay.values), abs=1e-14)

    @pytest.mark.parametrize("values,expected", EDGE_CASES)
    def test_outcomes_at_the_ends_of_the_float_range(self, values, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = monotone_hansen_ratio(ScenarioPayoff.from_arrays(EDGE_PROBS, values))
        assert (result.mhr, result.msr, result.k_hat, result.truncated) == expected

    def test_optimum_far_below_the_largest_gain(self):
        # The cap sits 170 decades below the largest gain.
        pay = ScenarioPayoff.from_arrays((0.3, 0.3, 0.2, 0.2), (-1e-60, 1e-50, 1e-45, 1e120))
        result = monotone_hansen_ratio(pay)
        assert result.k_hat == pytest.approx(1e-50, rel=1e-9) and result.truncated
        assert result.mhr == pytest.approx(oracle_mhr(pay.probabilities, pay.values), abs=1e-14)

    def test_a_cap_whose_kept_moments_underflow(self):
        # The cap sits near 1e-300 under a gain of 1: the kept states' second
        # moment (~1e-601) underflows, so only rescaled moments find the cap.
        probs = [0.12, 0.12, 0.12, 0.12, 0.06, 0.40, 0.06]
        values = [2e-300, 2e-300, -4.8e-301, 0.0, 1.5e-300, 3.4e-301, 1.0]
        result = monotone_hansen_ratio(ScenarioPayoff.from_arrays(probs, values))
        mhr, cap = exact_mhr(probs, values)
        assert result.mhr == pytest.approx(mhr, rel=1e-15)
        assert result.k_hat == pytest.approx(cap, rel=1e-15)

    @pytest.mark.parametrize(
        "probs, values",
        [
            (
                [0.1142331358822508, 0.14192734938342075, 0.15941426311413412,
                 0.18417768902093762, 0.07766378162794436, 0.32258378097131235],
                [1.5068485388408072e-230, 1.4574765395188439e-199, 1.3792104030960165e-128,
                 -3.346655303683262e-282, 9.189851619157907e+126, 5.0672675621452925e+104],
            ),
            (
                [0.20882068174204832, 0.07965951188497093, 0.19811909760073068,
                 0.08146456816427917, 0.19606897068091309, 0.2358671699270578],
                [-2.3776844284568866e-221, 2.5343043124147557e-164, 1.024089435229632e-120,
                 4.494707395402095e-278, 5.009059214701738e+108, 9.763413680303606e-126],
            ),
        ],
        ids=["cap-on-the-smallest-gain", "loss-that-vanishes-in-units-of-the-largest-gain"],
    )
    def test_outcomes_beyond_the_range_of_one_scale(self, probs, values):
        # Divided by the largest gain, the loss and the smallest gains
        # underflow to zero, so the cap must be placed in units of a gain
        # near it.
        result = monotone_hansen_ratio(ScenarioPayoff.from_arrays(probs, values))
        assert result.mhr == pytest.approx(exact_mhr(probs, values)[0], abs=1e-14)

    def test_a_loss_that_overflows_in_units_of_the_gain(self):
        # The loss is 315 decades beyond the only gain: the sign test sums it
        # to inf, and nothing may warn.
        pay = ScenarioPayoff.from_arrays((1e-320, 1.0), (-1e150, 1e-165))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = monotone_hansen_ratio(pay)
        assert result.mhr == stats(pay).hansen and not result.truncated

    def test_matches_the_exact_oracle_across_600_decades(self):
        rng = np.random.default_rng(86)
        checked = 0
        while checked < 60:
            n = int(rng.integers(2, 16))
            probs = random_probs(rng, n)
            values = rng.choice([-1.0, 1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 150, n)
            pay = ScenarioPayoff.from_arrays(probs, values)
            try:
                result = monotone_hansen_ratio(pay, allow_no_downside=True)
            except (NonPositiveMeanError, InvalidInputError):
                continue
            checked += 1
            if result.attained:
                assert result.mhr == pytest.approx(exact_mhr(probs, values)[0], abs=1e-14)

    def test_bisection_solves_a_few_segments_per_payoff(self, monkeypatch):
        # The bisection places the cap in one segment between two gains; only
        # that segment and its neighbours get their moments summed.
        calls = []
        stationary_cap = monotone._stationary_cap

        def counted(*args):
            calls.append(1)
            return stationary_cap(*args)

        def forbidden(*args):
            raise AssertionError("the monotone ratio ran a line search")

        monkeypatch.setattr(monotone, "_stationary_cap", counted)
        monkeypatch.setattr(monotone, "_line_max", forbidden)
        for pay in engine_payoffs(82, 40):
            calls.clear()
            monotone_hansen_ratio(pay)
            assert 1 <= len(calls) <= 3

    def test_line_search_ignores_the_order_of_the_states(self):
        rng = np.random.default_rng(87)
        for q, x, dx in line_search_draws(87, 400):
            order = rng.permutation(len(q))
            assert monotone._line_max(q[order], x[order], dx[order]) == monotone._line_max(q, x, dx)

    def test_line_search_matches_exact_rationals(self):
        # Gate: twice the worst measured on these draws (4.1e-15), rounded up.
        for q, x, dx in line_search_draws(88, 400):
            t, exact = monotone._line_max(q, x, dx), exact_line_max(q, x, dx)
            assert t == 0.0 if exact == 0 else abs(Fraction(t) - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("scale", [1e-9, 1e-3, 7.0, 1e9])
    def test_scaling_the_payoff_scales_the_cap(self, scale):
        for pay in engine_payoffs(83, 60):
            base = monotone_hansen_ratio(pay)
            scaled = monotone_hansen_ratio(
                ScenarioPayoff.from_arrays(pay.probabilities, np.array(pay.values) * scale)
            )
            assert scaled.mhr == pytest.approx(base.mhr, abs=1e-14)
            assert scaled.truncated == base.truncated
            assert scaled.k_hat == pytest.approx(base.k_hat * scale, rel=1e-14)

    def test_permuting_the_states_changes_nothing(self):
        rng = np.random.default_rng(84)
        for pay in engine_payoffs(84, 60):
            order = rng.permutation(len(pay.values))
            permuted = ScenarioPayoff.from_arrays(pay.probabilities[order], pay.values[order])
            assert monotone_hansen_ratio(permuted) == monotone_hansen_ratio(pay)

    def test_splitting_a_state_changes_nothing(self):
        rng = np.random.default_rng(85)
        for pay in engine_payoffs(85, 60):
            i = int(rng.integers(len(pay.values)))
            q, v = pay.probabilities, pay.values
            split = ScenarioPayoff.from_arrays(
                np.concatenate((q[:i], [q[i] / 2, q[i] / 2], q[i + 1 :])), np.insert(v, i, v[i])
            )
            assert monotone_hansen_ratio(split).mhr == monotone_hansen_ratio(pay).mhr
