import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import hrfrontier.frontier
from hrfrontier import (
    ArbitrageError,
    DegenerateFrontierError,
    FrontierCoefficients,
    GramMarket,
    InvalidInputError,
    Parabola,
    ScenarioPayoff,
    check_hansen_bound,
    check_kernel,
    frontier_coefficients,
    frontier_points,
    gram_from_scenarios,
    hj_bounds,
    kernel_frontier,
    market_from_json,
    multiperiod_frontier,
    propagate,
    special_portfolios,
    stats,
    tree_oracle,
)
from conftest import (
    BENCHMARK_MU,
    BENCHMARK_SIGMA,
    exact_one_period_oracle,
    random_market,
    random_probs,
    random_scenario_market,
    random_sequence_market,
)

# Exact-rational reference statistics of the benchmark market (all digits
# significant).
BENCH_OMEGA_SQ_Y = 0.8710653233303164
BENCH_MU_Y = 0.7424213735185006
BENCH_HR_SQ_Y = 0.6327763040201758
BENCH_HR_SQ_X = 0.3566492791679476
BENCH_TOTAL = 0.9894255831881233
BENCH_MU_Z = 1.153991671227661


class TestBenchmarkMarket:
    def test_y_portfolio(self, benchmark_market):
        sp = special_portfolios(benchmark_market)
        assert sp.omega_sq_y == pytest.approx(BENCH_OMEGA_SQ_Y, rel=1e-12)
        assert sp.mu_y == pytest.approx(BENCH_MU_Y, rel=1e-12)
        assert sp.mu_y / sp.omega_sq_y == pytest.approx(0.8523142336558923, rel=1e-12)

    def test_x_portfolio(self, benchmark_market):
        sp = special_portfolios(benchmark_market)
        assert sp.hr_sq_x == pytest.approx(BENCH_HR_SQ_X, rel=1e-12)

    def test_z_portfolio(self, benchmark_market):
        sp = special_portfolios(benchmark_market)
        assert sp.mu_z == pytest.approx(BENCH_MU_Z, rel=1e-10)

    def test_hansen_bound_report(self, benchmark_market):
        report = check_hansen_bound(special_portfolios(benchmark_market))
        assert report.total == pytest.approx(BENCH_TOTAL, rel=1e-12)
        assert report.slack == pytest.approx(1.0 - BENCH_TOTAL, rel=1e-9)
        assert report.passed


class TestRiskFreeMarket:
    @pytest.fixture
    def market(self):
        return gram_from_scenarios([ScenarioPayoff.from_arrays([1.0], [1.0])], [1.0])

    def test_y_is_the_unit_payoff(self, market):
        sp = special_portfolios(market)
        assert sp.w_y[0] == pytest.approx(1.0, abs=1e-15)
        assert sp.omega_sq_y == pytest.approx(1.0, abs=1e-15)
        assert sp.mu_y == pytest.approx(1.0, abs=1e-15)

    def test_x_is_null(self, market):
        sp = special_portfolios(market)
        assert sp.hr_sq_x == 0.0
        assert abs(sp.w_x[0]) < 1e-15

    def test_z_equals_y(self, market):
        sp = special_portfolios(market)
        assert sp.sigma_sq_z == 0.0
        assert sp.mu_z == pytest.approx(1.0, abs=1e-15)
        assert np.abs(sp.w_z - sp.w_y).max() < 1e-15

    def test_bound_is_tight(self, market):
        report = check_hansen_bound(special_portfolios(market))
        assert report.hr_sq_y == pytest.approx(1.0, abs=1e-15)
        assert report.hr_sq_x == 0.0
        assert abs(report.slack) < 1e-14

    def test_frontier_degenerates(self, market):
        coeffs = frontier_coefficients(special_portfolios(market))
        assert coeffs.degenerate
        with pytest.raises(DegenerateFrontierError):
            frontier_points(coeffs, [1.0])

    def test_coefficients_without_parabolas_are_degenerate(self):
        coeffs = FrontierCoefficients(mu_omega=None, mu_sigma=None)
        assert coeffs.degenerate
        assert coeffs.to_dict() == {"degenerate": True, "mu_omega": None, "mu_sigma": None}


class TestOracles:
    def test_y_matches_line_search(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            market = random_market(rng, 2)
            sp = special_portfolios(market)
            # Brute force on the unit-cost line p.w = 1.
            p = market.prices
            base = p / (p @ p)
            direction = np.array([-p[1], p[0]])
            ts = np.linspace(-5, 5, 200001)
            weights = base[None, :] + ts[:, None] * direction[None, :]
            norms = np.einsum("ij,jk,ik->i", weights, market.gram, weights)
            best = weights[np.argmin(norms)]
            assert np.abs(best - sp.w_y).max() < 1e-3
            assert sp.omega_sq_y <= norms.min() + 1e-12

    def test_x_matches_sphere_grid(self):
        rng = np.random.default_rng(22)
        import scipy.linalg

        for _ in range(10):
            market = random_market(rng, 3)
            sp = special_portfolios(market)
            null = scipy.linalg.null_space(market.prices[None, :])  # 3 x 2
            angles = np.linspace(0.0, math.pi, 20001)
            dirs = null @ np.vstack([np.cos(angles), np.sin(angles)])
            means = market.means @ dirs
            seconds = np.einsum("ji,jk,ki->i", dirs, market.gram, dirs)
            hr_sq = means**2 / seconds
            assert hr_sq.max() <= sp.hr_sq_x + 1e-10
            assert hr_sq.max() == pytest.approx(sp.hr_sq_x, abs=1e-6)

    def test_z_matches_constrained_minimizer(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            market = random_market(rng, 4)
            sp = special_portfolios(market)
            # KKT system for min w'(G - mm')w subject to p'w = 1.
            cov = market.gram - np.outer(market.means, market.means)
            kkt = np.zeros((5, 5))
            kkt[:4, :4] = 2.0 * cov
            kkt[:4, 4] = market.prices
            kkt[4, :4] = market.prices
            solution = np.linalg.solve(kkt, np.array([0, 0, 0, 0, 1.0]))
            w_direct = solution[:4]
            assert np.abs(w_direct - sp.w_z).max() < 1e-8
            assert sp.sigma_sq_z == pytest.approx(
                float(w_direct @ cov @ w_direct), rel=1e-8, abs=1e-12
            )

    def test_proportional_means_give_null_x(self):
        market = GramMarket(
            gram=np.array([[1.3, 0.2], [0.2, 1.1]]),
            means=np.array([0.5, 0.5]),
            prices=np.array([1.0, 1.0]),
        )
        sp = special_portfolios(market)
        assert sp.hr_sq_x == 0.0
        assert np.abs(sp.w_x).max() < 1e-14


def test_small_zero_cost_ratio_keeps_its_digits():
    # Prices from a kernel within 1% of one leave hr_sq_x at 1e-10 to 1e-4,
    # where m.G^-1m - (p.G^-1m)^2/p.G^-1p would cancel most of its digits.
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        n_states = n + int(rng.integers(2, 9))
        probs = random_probs(rng, n_states)
        values = 1.0 + 0.3 * rng.standard_normal((n_states, n))
        kernel = 1.0 + 0.01 * rng.uniform(-1.0, 1.0, n_states)
        basis = [ScenarioPayoff.from_arrays(probs, values[:, i]) for i in range(n)]
        market = gram_from_scenarios(basis, (probs * kernel) @ values)
        exact = exact_one_period_oracle(market.gram, market.means, market.prices)["hr_sq_x"]
        if exact >= 1e-10:
            error = abs(Fraction(special_portfolios(market).hr_sq_x) - exact) / exact
            worst = max(worst, float(error))
    assert worst <= 1e-11


def dyadic_universe(seed, n, rank, ridge, mu_scale, spread):
    """Covariance and means of a universe whose inputs are exact in floats."""
    rng = np.random.default_rng(seed)
    factor = rng.integers(-4, 5, (n, rank))
    sigma = factor @ factor.T / 64 + ridge * np.eye(n)
    return sigma, mu_scale * (1.0 + rng.integers(-4, 9, n) * spread)


# (n, rank, ridge, mu_scale, spread) of each set of dyadic universes.
DYADIC_UNIVERSES = {
    "means-swamp-covariance": (20, 10, 2.0**-6, 30.0, 2.0**-3),
    "near-singular-covariance": (8, 4, 2.0**-30, 1.0, 2.0**-3),
    "means-within-2^-20": (6, 6, 2.0**-6, 1.0, 2.0**-20),
    "means-within-2^-35": (6, 6, 2.0**-6, 1.0, 2.0**-35),
}


@pytest.mark.parametrize(
    ("universes", "gate", "gates"),
    [
        ("means-swamp-covariance", 2e-14, (2e-14, 5e-15, 2e-14, 2e-14)),
        ("near-singular-covariance", 5e-8, (5e-8, 2e-8, 5e-8, 1e-7)),
        ("means-within-2^-20", 5e-15, (1e-14, 1e-15, 1e-14, 5e-15)),
        ("means-within-2^-35", 2e-15, (1e-14, 1e-15, 1e-14, 5e-15)),
    ],
    ids=list(DYADIC_UNIVERSES),
)
def test_universe_ratios_keep_their_digits_on_dyadic_inputs(universes, gate, gates):
    # Dyadic inputs are exact in floats, so the whole error is the solve's.
    # A solve on G's own factor loses the covariance under mu mu^T and errs
    # by up to 3.7e-11 and 3.8e-7 on the first two sets; on the covariance
    # factor the worst is 6.7e-15 and 1.9e-8, and each gate is twice that,
    # rounded up to a 1-2-5 step.  So are the gates of the other sets and
    # the gates of the slack, mu_z, sigma_sq_z and w_x (in that order).
    # The slack as 1 - hr_sq_x - hr_sq_y erred by up to 3.8e-10 and 3.1e-6
    # on the first two sets, and x from uncentered means by 2.3e-5 in
    # hr_sq_x and 2.0e-5 in w_x when the means agree to 2^-35.
    n = DYADIC_UNIVERSES[universes][0]
    worst, worst_of = 0.0, dict.fromkeys(("slack", "mu_z", "sigma_sq_z", "w_x"), 0.0)
    for seed in range(5):
        sigma, mu = dyadic_universe(seed, *DYADIC_UNIVERSES[universes])
        exact_mu = [Fraction(m) for m in mu]
        gram = [
            [Fraction(s) + a * b for s, b in zip(row, exact_mu)]
            for row, a in zip(sigma.tolist(), exact_mu)
        ]
        exact = exact_one_period_oracle(gram, exact_mu, [1] * n)
        sp = special_portfolios(
            market_from_json({"kind": "universe", "mu": mu.tolist(), "sigma": sigma.tolist()})
        )
        for name in ("omega_sq_y", "mu_y", "hr_sq_y", "hr_sq_x"):
            error = abs(Fraction(getattr(sp, name)) - exact[name]) / abs(exact[name])
            worst = max(worst, float(error))
        for name in ("slack", "mu_z", "sigma_sq_z"):
            error = abs(Fraction(getattr(sp, name)) - exact[name]) / abs(exact[name])
            worst_of[name] = max(worst_of[name], float(error))
        error = max(abs(Fraction(w) - e) for w, e in zip(sp.w_x.tolist(), exact["w_x"]))
        worst_of["w_x"] = max(worst_of["w_x"], float(error / max(map(abs, exact["w_x"]))))
    assert worst <= gate
    assert all(w <= g for w, g in zip(worst_of.values(), gates)), worst_of


@pytest.mark.parametrize("universes", list(DYADIC_UNIVERSES))
def test_dyadic_universes_carry_a_positive_slack_at_every_horizon(universes):
    # A universe's slack is 1/(1 + |C^-1 m|^2), not 1 - hr_sq_x - hr_sq_y, so
    # it is positive and the three ratios sum to one to within a few ulps
    # (at most 4 * 2^-53 over these 120 universes).
    worst = 0.0
    for seed in range(30):
        sigma, mu = dyadic_universe(seed, *DYADIC_UNIVERSES[universes])
        sp = special_portfolios(
            market_from_json({"kind": "universe", "mu": mu.tolist(), "sigma": sigma.tolist()})
        )
        assert sp.slack > 0.0
        worst = max(worst, abs(sp.hr_sq_x + sp.hr_sq_y + sp.slack - 1.0))
        for horizon in (1, 4, 12):
            propagate(sp, horizon)  # MultiperiodStats checks the sum to 1e-10
    assert worst <= 1e-15


def test_arbitrage_detected_in_hand_built_market():
    market = GramMarket(
        gram=np.eye(2), means=np.array([0.0, 1.0]), prices=np.array([1.0, 0.0])
    )
    with pytest.raises(ArbitrageError):
        special_portfolios(market)


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "gram", "G": [[1.0, 0.0], [0.0, 1.0]], "m": [0.0, 1.0], "p": [1.0, 0.0]},
        {"kind": "universe", "mu": [1.0, -1.0], "sigma": [[1e-10, 0.0], [0.0, 1e-10]]},
    ],
    ids=["gram", "universe"],
)
def test_a_market_rejected_for_arbitrage_is_never_swept_back(monkeypatch, spec):
    # The back sweep runs after every check, so a rejected market pays only
    # its forward sweep.  A universe's hr_sq_x = d/(1+d) reaches 1 - 1e-10 here.
    sweeps, solve = [], hrfrontier.frontier.triangular_solve

    def counted(tri, rhs, *, lower):
        sweeps.append(lower)
        return solve(tri, rhs, lower=lower)

    monkeypatch.setattr(hrfrontier.frontier, "triangular_solve", counted)
    with pytest.raises(ArbitrageError, match=r"^market admits a \(numerically\) riskless"):
        market_from_json(spec)
    assert sweeps == [True]


def test_verify_universe_z_is_y_plus_mu_z_x_to_the_last_digits(benchmark_market):
    # The back sweep uses the record's mu_z, so w_z = w_y + mu_z w_x mixes no
    # second rounding of mu_z: 1.3e-16 from exact in max norm, where a sweep
    # with Merton's closed-form mu_z gave 2.6e-15.
    exact_mu = [Fraction(m) for m in BENCHMARK_MU]
    gram = [
        [Fraction(s) + a * b for s, b in zip(row, exact_mu)]
        for row, a in zip(BENCHMARK_SIGMA, exact_mu)
    ]
    exact = exact_one_period_oracle(gram, exact_mu, [1] * 3)
    sp = special_portfolios(benchmark_market)
    for name in ("w_y", "w_x", "w_z"):
        error = max(abs(Fraction(w) - e) for w, e in zip(getattr(sp, name).tolist(), exact[name]))
        assert error <= 5e-16 * max(map(abs, exact[name])), name


def test_unattained_maximum_flag():
    market = GramMarket(
        gram=np.eye(2), means=np.array([0.0, 0.5]), prices=np.array([1.0, 0.0])
    )
    sp = special_portfolios(market)
    assert sp.mu_y == pytest.approx(0.0, abs=1e-15)
    assert not sp.max_hr_attained


def test_feasibility_check_agrees_with_the_variance_clamp():
    # Scale the means across the boundary m' G^-1 m = hr_sq_x + hr_sq_y = 1.
    gram = np.diag([1.25, 2.0])
    means = np.array([1.1, 1.0]) / math.sqrt(1.468)
    outcomes = set()
    for scale in np.linspace(1.0 - 1e-11, 1.0 + 1e-11, 201):
        market = GramMarket(gram=gram, means=scale * means, prices=np.ones(2))
        try:
            sp = special_portfolios(market)
        except InvalidInputError:
            outcomes.add("rejected")
            continue
        outcomes.add("solved")
        multiperiod_frontier(propagate(sp, 1))
    assert outcomes == {"rejected", "solved"}


def _cholesky_calls(monkeypatch, arguments: list | None = None) -> list:
    """Shapes of the ``np.linalg.cholesky`` calls; copies of the matrices go
    to ``arguments`` when it is given."""
    calls = []
    cholesky = np.linalg.cholesky

    def counting_cholesky(a):
        calls.append(a.shape)
        if arguments is not None:
            arguments.append(np.array(a))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    return calls


def _statewise_pipeline(market) -> None:
    special_portfolios(market)
    hj_bounds(market)
    family = kernel_frontier(market)
    check_kernel(family.kernel(0.5), market)
    tree_oracle(market, 2)


class TestSingleSolve:
    def test_scenario_pipeline_factorizes_the_gram_once(self, monkeypatch):
        calls = _cholesky_calls(monkeypatch)
        rng = np.random.default_rng(51)
        probs = np.full(4, 0.25)
        values = rng.uniform(-0.5, 2.0, (4, 3))
        basis = [ScenarioPayoff.from_arrays(probs, values[:, i]) for i in range(3)]
        _statewise_pipeline(gram_from_scenarios(basis, (probs * [0.6, 1.2, 0.9, 1.1]) @ values))
        assert calls == [(3, 3)]

    def test_sequence_pipeline_factorizes_the_gram_once(self, monkeypatch):
        calls = _cholesky_calls(monkeypatch)
        _statewise_pipeline(random_sequence_market(np.random.default_rng(52), 2))
        assert calls == [(2, 2)]

    @pytest.mark.parametrize("n", [3, 70])
    def test_universe_pipeline_factorizes_the_covariance_once(self, monkeypatch, n):
        # G = Σ + μμᵀ is solved on Σ's factor; G itself is never factored.
        arguments: list = []
        calls = _cholesky_calls(monkeypatch, arguments)
        rng = np.random.default_rng(53)
        factor = rng.standard_normal((n, n + 2))
        sigma = factor @ factor.T / (n + 2) + 0.05 * np.eye(n)
        data = {"kind": "universe", "mu": rng.uniform(0.5, 1.5, n).tolist(), "sigma": sigma.tolist()}
        market = market_from_json(data)
        sp = special_portfolios(market)
        hj_bounds(market)
        propagate(sp, 3)
        assert calls == [(n, n)]
        assert np.array_equal(arguments[0], sigma)

    def test_memoized_weights_are_read_only(self, benchmark_market):
        sp = special_portfolios(benchmark_market)
        assert special_portfolios(benchmark_market) is sp
        for weights in (sp.w_y, sp.w_x, sp.w_z):
            with pytest.raises(ValueError):
                weights[0] = 0.0

    def test_cli_import_leaves_scipy_out(self):
        import hrfrontier

        src = os.path.dirname(os.path.dirname(hrfrontier.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", "import sys, hrfrontier.cli; print('scipy' in sys.modules)"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"

class TestRandomMarketInvariants:
    def test_structural_identities(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            market = random_market(rng, n)
            sp = special_portfolios(market)
            g, m, p = market.gram, market.means, market.prices
            # Orthogonality of y to the zero-cost subspace.
            assert np.abs(g @ sp.w_y - sp.omega_sq_y * p).max() < 1e-10
            # Residual of x is proportional to prices.
            residual = m - g @ sp.w_x
            lam = (residual @ p) / (p @ p)
            assert np.abs(residual - lam * p).max() < 1e-10
            assert abs(p @ sp.w_x) < 1e-10
            # Mean, second moment, and squared ratio of x coincide.
            omega_sq_x = float(sp.w_x @ g @ sp.w_x)
            assert abs(m @ sp.w_x - omega_sq_x) < 1e-10
            assert abs(sp.hr_sq_x - omega_sq_x) < 1e-10
            # Minimum-variance portfolio identity and bound.
            assert np.array_equal(sp.w_z, sp.w_y + sp.mu_z * sp.w_x)
            assert sp.sigma_sq_z >= 0.0
            assert sp.hr_sq_x + sp.hr_sq_y <= 1.0 + 1e-10
            assert sp.max_hr_attained

    def test_unit_cost_decomposition(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            market = random_market(rng, 4)
            sp = special_portfolios(market)
            w = rng.standard_normal(4)
            w /= market.prices @ w
            zero_cost_part = w - sp.w_y
            assert abs(market.prices @ zero_cost_part) < 1e-9
            assert abs(sp.w_y @ market.gram @ zero_cost_part) < 1e-9

    def test_z_perturbations_increase_variance(self):
        rng = np.random.default_rng(33)
        import scipy.linalg

        for _ in range(25):
            market = random_market(rng, 4)
            sp = special_portfolios(market)
            cov = market.gram - np.outer(market.means, market.means)

            def variance(w):
                return float(w @ cov @ w)

            base = variance(sp.w_z)
            for direction in scipy.linalg.null_space(market.prices[None, :]).T:
                assert variance(sp.w_z + 1e-4 * direction) > base
                assert variance(sp.w_z - 1e-4 * direction) > base

    def test_frontier_portfolios_minimize_second_moment_at_their_mean(self):
        rng = np.random.default_rng(34)
        import scipy.linalg

        for _ in range(25):
            market = random_market(rng, 4)
            sp = special_portfolios(market)
            lam = float(rng.uniform(-2.0, 2.0))
            w_frontier = sp.w_y + lam * sp.w_x
            base = float(w_frontier @ market.gram @ w_frontier)
            # Same cost, same mean, different portfolio.
            null = scipy.linalg.null_space(
                np.vstack([market.prices, market.means])
            )
            for _ in range(10):
                z = null @ rng.standard_normal(null.shape[1])
                w = w_frontier + z
                assert float(w @ market.gram @ w) >= base - 1e-10

    def test_ratio_bound_never_violated_on_sweep(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            market = random_market(rng, int(rng.integers(1, 7)))
            report = check_hansen_bound(special_portfolios(market))
            assert report.passed


class TestScenarioBackedInvariants:
    def test_pricing_rule(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            market = random_scenario_market(rng, 5, 3)
            sp = special_portfolios(market)
            q = market.state_probabilities
            values = market.scenario_values
            y_vals = values @ sp.w_y
            implied = (q * y_vals) @ values / sp.omega_sq_y
            assert np.abs(implied - market.prices).max() < 1e-10

    def test_complementary_ratio_of_bliss_residual(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            market = random_scenario_market(rng, 5, 3)
            sp = special_portfolios(market)
            x_vals = market.scenario_values @ sp.w_x
            residual = ScenarioPayoff.from_arrays(
                market.state_probabilities, 1.0 - x_vals
            )
            ratios = stats(residual)
            assert ratios.hansen**2 == pytest.approx(1.0 - sp.hr_sq_x, abs=1e-10)
            assert ratios.mean == pytest.approx(1.0 - sp.hr_sq_x, abs=1e-10)

    def test_least_upper_bound_attained(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            market = random_scenario_market(rng, 5, 3)
            sp = special_portfolios(market)
            if abs(sp.mu_y) < 1e-6 or sp.hr_sq_x < 1e-10:
                continue
            bound = sp.hr_sq_x + sp.hr_sq_y

            def hr_sq(lam):
                mean = sp.mu_y + lam * sp.hr_sq_x
                second = sp.omega_sq_y + lam * lam * sp.hr_sq_x
                return mean * mean / second

            lam_star = sp.omega_sq_y / sp.mu_y
            grid = np.linspace(lam_star - 10, lam_star + 10, 2001)
            assert max(hr_sq(float(l)) for l in grid) <= bound + 1e-12
            assert hr_sq(lam_star) == pytest.approx(bound, abs=1e-10)


class TestFrontierCurves:
    def test_vertex_matches_special_portfolios(self, benchmark_market):
        sp = special_portfolios(benchmark_market)
        coeffs = frontier_coefficients(sp)
        assert coeffs.mu_sigma.center == sp.mu_z
        assert coeffs.mu_sigma.level == sp.sigma_sq_z
        assert coeffs.mu_omega.center == sp.mu_y
        assert coeffs.mu_omega.level == sp.omega_sq_y
        assert coeffs.mu_sigma.curvature == pytest.approx(
            1.0 / sp.hr_sq_x - 1.0, rel=1e-15
        )

    def test_parabola_squares_correctly_rounded_alone_and_on_a_grid(self):
        # A C pow square of this mean is one ulp off the exact square.
        x = -458.7228991098864
        parabola = Parabola(0.0, 1.0, 0.0)
        exact = float(Fraction(x) ** 2)
        assert parabola(x) == exact
        assert parabola(np.array([0.0, x, 1.0]))[1] == exact

    def test_points_at_the_vertices(self, benchmark_market):
        sp = special_portfolios(benchmark_market)
        coeffs = frontier_coefficients(sp)
        (at_y,) = frontier_points(coeffs, [sp.mu_y])
        assert at_y.omega == pytest.approx(math.sqrt(sp.omega_sq_y), rel=1e-15)
        (at_z,) = frontier_points(coeffs, [sp.mu_z])
        assert at_z.sigma == pytest.approx(math.sqrt(sp.sigma_sq_z), rel=1e-12)

    def test_points_match_direct_formula(self, benchmark_market):
        sp = special_portfolios(benchmark_market)
        coeffs = frontier_coefficients(sp)
        for point in frontier_points(coeffs, [0.3, 1.0, 1.65]):
            omega_sq = sp.omega_sq_y + (point.mu - sp.mu_y) ** 2 / sp.hr_sq_x
            assert point.omega == pytest.approx(math.sqrt(omega_sq), rel=1e-12)
            assert point.omega**2 - point.mu**2 == pytest.approx(
                point.sigma**2, abs=1e-10
            )
