"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values marked as exact fractions are re-derived in-test with
rational arithmetic before use.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from hrfrontier import (
    ScenarioPayoff,
    check_kernel,
    frontier_coefficients,
    frontier_points,
    hr_to_sr,
    kernel_frontier,
    monotone_hansen_ratio,
    multiperiod_frontier,
    propagate,
    special_portfolios,
    sr_to_hr,
    stats,
    tree_oracle,
)
from hrfrontier.benchmark import benchmark_market, verification_report
from conftest import (
    exact_one_period_oracle,
    exact_verify_oracle,
    random_market,
    random_payoff,
    random_scenario_market,
)

# ---------------------------------------------------------------------------
# Frozen benchmark references: printed decimals and exact fractions.
# ---------------------------------------------------------------------------

ONE_PERIOD_DECIMALS = {
    "omega_sq_y": 0.87107,
    "mu_y": 0.74242,
    "mu_y_over_omega_sq_y": 0.85231,
    "hr_sq_y": 0.63278,
    "hr_sq_x": 0.35665,
    "hr_sq_x_plus_hr_sq_y": 0.98943,
}

ONE_PERIOD_FRACTIONS = {
    "omega_sq_y": Fraction(14224270253, 16329740000),
    "mu_y": Fraction(3030887, 4082435),
    "mu_y_over_omega_sq_y": Fraction(12123548000, 14224270253),
    "hr_sq_y": Fraction(7349020805415200, 11613931746061211),
    "hr_sq_x": Fraction(582399, 1632974),
    "hr_sq_x_plus_hr_sq_y": Fraction(28147713781, 28448540506),
}

FOUR_PERIOD_DECIMALS = {
    "hr_sq_x": 0.81550,
    "mu_y": 0.30381,
    "omega_sq_y": 0.57571,
    "mu_z": 1.64663,
    "sigma_sq_z": 0.075446,
    "sr_inv_sq_x": 0.22625,
    "omega_parabola_level": 0.57571,
    "omega_parabola_curvature": 1.22625,
    "omega_parabola_center": 0.30381,
    "sigma_parabola_level": 0.075446,
    "sigma_parabola_curvature": 0.22625,
    "sigma_parabola_center": 1.64663,
}


BENCHMARK_MU_EXACT = [Fraction("1.162"), Fraction("1.246"), Fraction("1.228")]
BENCHMARK_SIGMA_EXACT = [
    [Fraction("0.0146"), Fraction("0.0187"), Fraction("0.0145")],
    [Fraction("0.0187"), Fraction("0.0854"), Fraction("0.0104")],
    [Fraction("0.0145"), Fraction("0.0104"), Fraction("0.0289")],
]
#: The benchmark's Gram matrix, means and prices from its decimal inputs.
BENCHMARK_EXACT = (
    [
        [s + a * b for s, b in zip(row, BENCHMARK_MU_EXACT)]
        for row, a in zip(BENCHMARK_SIGMA_EXACT, BENCHMARK_MU_EXACT)
    ],
    BENCHMARK_MU_EXACT,
    [1, 1, 1],
)


def _report(criterion: str, failures: list[str], detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nCRITERION {criterion}: {status}{suffix}")
    for line in failures:
        print(f"  - {line}")
    assert not failures, f"criterion {criterion}: " + "; ".join(failures)


def test_criterion_1_one_period_benchmark_regression():
    start = time.perf_counter()
    sp = special_portfolios(benchmark_market())
    computed = {
        "omega_sq_y": sp.omega_sq_y,
        "mu_y": sp.mu_y,
        "mu_y_over_omega_sq_y": sp.mu_y / sp.omega_sq_y,
        "hr_sq_y": sp.hr_sq_y,
        "hr_sq_x": sp.hr_sq_x,
        "hr_sq_x_plus_hr_sq_y": sp.hr_sq_x + sp.hr_sq_y,
    }
    elapsed = time.perf_counter() - start

    oracle = exact_one_period_oracle(*BENCHMARK_EXACT)
    failures = []
    worst = 0.0
    for name, value in computed.items():
        if oracle[name] != ONE_PERIOD_FRACTIONS[name]:
            failures.append(f"frozen fraction for {name} disagrees with exact oracle")
        exact = float(ONE_PERIOD_FRACTIONS[name])
        rel_exact = abs(value - exact) / abs(exact)
        worst = max(worst, rel_exact)
        if rel_exact > 1e-12:
            failures.append(f"{name}: rel delta vs exact fraction {rel_exact:.3e} > 1e-12")
        printed = ONE_PERIOD_DECIMALS[name]
        rel_printed = abs(value - printed) / abs(printed)
        if rel_printed > 1e-5:
            failures.append(f"{name}: rel delta vs printed {rel_printed:.3e} > 1e-5")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")
    _report("1", failures, f"max rel delta vs fractions {worst:.2e}, {elapsed:.3f}s")


def test_criterion_2_four_period_benchmark_regression():
    start = time.perf_counter()
    sp = special_portfolios(benchmark_market())
    stats4 = propagate(sp, 4)
    coeffs = multiperiod_frontier(stats4)
    computed = {
        "hr_sq_x": stats4.hr_sq_x,
        "mu_y": stats4.mu_y,
        "omega_sq_y": stats4.omega_sq_y,
        "mu_z": coeffs.mu_sigma.center,
        "sigma_sq_z": coeffs.mu_sigma.level,
        "sr_inv_sq_x": coeffs.mu_sigma.curvature,
        "omega_parabola_level": coeffs.mu_omega.level,
        "omega_parabola_curvature": coeffs.mu_omega.curvature,
        "omega_parabola_center": coeffs.mu_omega.center,
        "sigma_parabola_level": coeffs.mu_sigma.level,
        "sigma_parabola_curvature": coeffs.mu_sigma.curvature,
        "sigma_parabola_center": coeffs.mu_sigma.center,
    }
    elapsed = time.perf_counter() - start

    failures = []
    for name, value in computed.items():
        printed = FOUR_PERIOD_DECIMALS[name]
        rel = abs(value - printed) / abs(printed)
        if rel > 1e-5:
            failures.append(
                f"{name}: computed {value!r} vs printed {printed} "
                f"(rel delta {rel:.3e} > 1e-5)"
            )
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")
    # Known gap: the exact curvature of the (mean, std) parabola is
    # ~0.2262472427, which rounds to the printed 0.22625 but sits 1.22e-5
    # away in relative terms.  The 1e-5 gate cannot be met for that constant
    # by any correct implementation; it is reported honestly here.
    _report("2", failures, f"{elapsed:.3f}s")


def _verify_distances() -> dict[str, float]:
    """Relative distance of each ``verify`` row from its exact value."""
    exact = exact_verify_oracle(*BENCHMARK_EXACT, 4)
    report = verification_report()
    assert len(report["values"]) == len(exact) == 18
    return {
        row["name"]: abs(row["computed"] - float(exact[row["name"]]))
        / abs(float(exact[row["name"]]))
        for row in report["values"]
    }


def test_every_verify_row_is_within_1e13_of_its_exact_value():
    distances = _verify_distances()
    worst = max(distances, key=distances.get)
    print(f"\nworst verify row vs exact: {worst} {distances[worst]:.2e}")
    assert distances[worst] <= 1e-13, distances


def test_every_verify_row_is_within_2e14_of_its_exact_value():
    # The worst row is 5.6e-15 (multiperiod_sr_inv_sq_x, which is also
    # frontier_sigma_curvature), and a solve on G's own factor reaches
    # 5.3e-14.  Rounding the decimal inputs to floats alone
    # moves multiperiod_omega_sq_y 3.5e-15 from its exact value, so no solve
    # of these floats can be held to 1e-15.
    distances = _verify_distances()
    assert max(distances.values()) <= 2e-14, distances


def test_criterion_3_worked_ratio_examples():
    probs = (1 / 6, 1 / 2, 1 / 3)
    base = ScenarioPayoff.from_arrays(probs, (-0.01, 0.01, 0.02))
    improved = ScenarioPayoff.from_arrays(probs, (-0.01, 0.01, 0.11))
    failures = []

    hr_base = stats(base).hansen
    hr_improved = stats(improved).hansen
    if abs(hr_base - 1 / math.sqrt(2)) > 1e-12:
        failures.append(f"plain ratio of base payoff: {hr_base!r} != 1/sqrt(2)")
    if abs(hr_improved - 4 / math.sqrt(41)) > 1e-12:
        failures.append(f"plain ratio of improved payoff: {hr_improved!r} != 4/sqrt(41)")
    if not hr_improved < hr_base:
        failures.append("statewise improvement did not lower the plain ratio")

    result = monotone_hansen_ratio(improved)
    if abs(result.k_hat - 0.02) > 1e-12:
        failures.append(f"optimal cap {result.k_hat!r} != 0.02")
    if abs(result.mhr**2 - 0.5) > 1e-12:
        failures.append(f"monotone ratio squared {result.mhr**2!r} != 1/2")

    sr_sq = stats(improved).sharpe ** 2
    if abs(sr_sq - 0.64) > 1e-12:
        failures.append(f"Sharpe ratio squared {sr_sq!r} != 0.64")
    msr_sq = result.msr**2
    if abs(msr_sq - 1.0) > 1e-12:
        failures.append(f"monotone Sharpe squared {msr_sq!r} != 1")
    _report("3", failures)


def test_criterion_4_propagation_matches_tree_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    failures = []
    markets = 0
    worst = 0.0
    while markets < 50:
        n_states = int(rng.integers(2, 5))
        n_assets = int(rng.integers(2, n_states + 1))
        market = random_scenario_market(rng, n_states, n_assets)
        markets += 1
        sp = special_portfolios(market)
        for horizon in (1, 2, 3):
            closed = propagate(sp, horizon)
            oracle = tree_oracle(market, horizon)
            for field in ("mu_y", "omega_sq_y", "hr_sq_y", "hr_sq_x"):
                delta = abs(getattr(closed, field) - getattr(oracle, field))
                worst = max(worst, delta)
                if delta > 1e-10:
                    failures.append(
                        f"market {markets} horizon {horizon}: {field} "
                        f"delta {delta:.3e} > 1e-10"
                    )
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _report("4", failures, f"{markets} markets, max delta {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_random_market_property_sweep():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    failures = []
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        market = random_market(rng, n)
        sp = special_portfolios(market)
        g, m, p = market.gram, market.means, market.prices
        checked += 1
        if sp.hr_sq_x + sp.hr_sq_y > 1.0 + 1e-10:
            failures.append(f"market {checked}: ratio bound violated")
        if np.abs(g @ sp.w_y - sp.omega_sq_y * p).max() > 1e-9:
            failures.append(f"market {checked}: pricing orthogonality violated")
        residual = m - g @ sp.w_x
        lam = (residual @ p) / (p @ p)
        if np.abs(residual - lam * p).max() > 1e-9:
            failures.append(f"market {checked}: x residual not proportional to prices")
        omega_sq_x = float(sp.w_x @ g @ sp.w_x)
        if abs(m @ sp.w_x - omega_sq_x) > 1e-10 or abs(sp.hr_sq_x - omega_sq_x) > 1e-10:
            failures.append(f"market {checked}: mean/second-moment identity of x broken")
        if not np.array_equal(sp.w_z, sp.w_y + sp.mu_z * sp.w_x):
            failures.append(f"market {checked}: w_z identity broken")
        if sp.sigma_sq_z < 0.0:
            failures.append(f"market {checked}: negative minimum variance")
        coeffs = frontier_coefficients(sp)
        if not coeffs.degenerate:
            for point in frontier_points(
                coeffs, [sp.mu_z, sp.mu_y, sp.mu_z + 0.5]
            ):
                if abs(point.omega**2 - point.mu**2 - point.sigma**2) > 1e-10 * max(
                    1.0, point.omega**2
                ):
                    failures.append(f"market {checked}: frontier point identity broken")
        if failures and len(failures) > 20:
            break
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _report("5", failures, f"{checked} markets, {elapsed:.1f}s")


def test_criterion_6_kernel_bounds_suite():
    rng = np.random.default_rng(106)
    failures = []
    equality_checked = 0
    for trial in range(25):
        market = random_scenario_market(
            rng, int(rng.integers(3, 7)), int(rng.integers(2, 4))
        )
        frontier = kernel_frontier(market)
        q = market.state_probabilities
        base = np.array(frontier.base.values)
        direction = np.array(frontier.direction.values)
        values = market.scenario_values
        sqrt_q = np.sqrt(q)

        kernels = [frontier.kernel(float(eta)) for eta in rng.uniform(-4.0, 4.0, 8)]
        # Extra off-frontier kernels: add noise orthogonal to the market.
        for _ in range(4):
            raw = rng.standard_normal(len(q))
            coef, *_ = np.linalg.lstsq(values * sqrt_q[:, None], raw * sqrt_q, rcond=None)
            noise = raw - values @ coef
            kernels.append(
                ScenarioPayoff.from_arrays(q, base + direction + 0.3 * noise)
            )
        for kernel in kernels:
            diag = check_kernel(kernel, market)
            if diag.hr_sq_m > diag.hr_bound + 1e-10:
                failures.append(f"trial {trial}: kernel ratio above the bound")
            if diag.var_over_mean_sq is not None and (
                diag.var_over_mean_sq < diag.variance_bound - 1e-10
            ):
                failures.append(f"trial {trial}: variance form violated")
        if frontier.eta_star is not None:
            diag = check_kernel(frontier.kernel(frontier.eta_star), market)
            equality_checked += 1
            if abs(diag.hr_sq_m - diag.hr_bound) > 1e-10:
                failures.append(
                    f"trial {trial}: optimal kernel missed equality "
                    f"(gap {abs(diag.hr_sq_m - diag.hr_bound):.3e})"
                )
    if equality_checked == 0:
        failures.append("no equality cases exercised")
    _report("6", failures, f"25 markets, {equality_checked} equality cases")


def test_criterion_7_truncation_solver_vs_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    failures = []
    worst_gap = 0.0
    worst_res = 0.0
    for trial in range(200):
        pay = random_payoff(rng, 12, positive_mean=True, with_downside=True)
        result = monotone_hansen_ratio(pay)
        probs = np.array(pay.probabilities)
        values = np.array(pay.values)
        caps = np.linspace(1e-9, values.max() * 1.001, 100_001)
        clipped = np.minimum(values[:, None], caps[None, :])
        ratios = (probs @ clipped) / np.sqrt(probs @ clipped**2)
        gap = abs(result.mhr - float(ratios.max()))
        worst_gap = max(worst_gap, gap)
        if gap > 1e-6:
            failures.append(f"trial {trial}: solver vs grid gap {gap:.3e} > 1e-6")
        alpha = result.alpha_hat
        included = values <= result.k_hat
        residual = abs(
            float(probs[included] @ values[included])
            - alpha * float(probs[included] @ values[included] ** 2)
        )
        worst_res = max(worst_res, residual)
        if residual > 1e-10:
            failures.append(f"trial {trial}: FOC residual {residual:.3e} > 1e-10")
    elapsed = time.perf_counter() - start
    _report(
        "7",
        failures,
        f"200 payoffs, max gap {worst_gap:.2e}, max FOC residual {worst_res:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_conversion_algebra():
    failures = []
    for hr in np.linspace(-0.999999, 0.999999, 20001):
        hr = float(hr)
        back = sr_to_hr(hr_to_sr(hr))
        if abs(back - hr) > 1e-12:
            failures.append(f"hr round trip failed at {hr!r}")
            break
    for sr in np.linspace(-10.0, 10.0, 20001):
        sr = float(sr)
        back = hr_to_sr(sr_to_hr(sr))
        if abs(back - sr) > 1e-12:
            failures.append(f"sr round trip failed at {sr!r}")
            break
    rng = np.random.default_rng(108)
    for _ in range(300):
        pay = random_payoff(rng, 10)
        ratios = stats(pay)
        if ratios.variance == 0.0 or ratios.variance < 1e-9 * ratios.second_moment:
            continue
        lhs = 1.0 + ratios.sharpe**2
        rhs = 1.0 / (1.0 - ratios.hansen**2)
        if abs(lhs - rhs) > 1e-10 * abs(rhs):
            failures.append(f"sharpe identity broken: {lhs!r} vs {rhs!r}")
    _report("8", failures)
