"""Shared generators for randomized market and payoff tests."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest

from hrfrontier import (
    AssetUniverse,
    GramMarket,
    ScenarioPayoff,
    gram_from_scenarios,
    gram_from_universe,
    market_from_json,
)

BENCHMARK_MU = [1.162, 1.246, 1.228]
BENCHMARK_SIGMA = [
    [0.0146, 0.0187, 0.0145],
    [0.0187, 0.0854, 0.0104],
    [0.0145, 0.0104, 0.0289],
]


@pytest.fixture
def benchmark_market() -> GramMarket:
    universe = AssetUniverse(
        mean_returns=np.array(BENCHMARK_MU), covariance=np.array(BENCHMARK_SIGMA)
    )
    return gram_from_universe(universe)


def random_universe(rng: np.random.Generator, n: int) -> AssetUniverse:
    """Random SPD covariance plus random means; never admits arbitrage."""
    factor = rng.standard_normal((n, n + 2))
    cov = factor @ factor.T / (n + 2) + 0.05 * np.eye(n)
    mu = rng.uniform(0.5, 1.5, n)
    return AssetUniverse(mean_returns=mu, covariance=cov)


def scenario_universe(universe: AssetUniverse) -> GramMarket:
    """Scenario-backed market that matches a universe's moments exactly.

    Lifts the assets onto ``2**ceil(log2(n + 1))`` equally likely states using
    sign patterns with identity covariance, so means and covariances are
    reproduced to machine precision.
    """
    n = universe.n
    hadamard = np.ones((1, 1))
    while hadamard.shape[0] < n + 1:  # Sylvester's construction
        hadamard = np.block([[hadamard, hadamard], [hadamard, -hadamard]])
    n_states = hadamard.shape[0]
    signs = hadamard[1 : n + 1, :]
    lower = np.linalg.cholesky(universe.covariance)
    values = (universe.mean_returns[:, None] + lower @ signs).T
    probs = np.full(n_states, 1.0 / n_states)
    basis = [
        ScenarioPayoff.from_arrays(probs, values[:, i]) for i in range(n)
    ]
    return gram_from_scenarios(basis, np.ones(n))


def lifted_benchmark() -> GramMarket:
    """The benchmark universe lifted onto scenarios by :func:`scenario_universe`."""
    return scenario_universe(
        AssetUniverse(np.array(BENCHMARK_MU), np.array(BENCHMARK_SIGMA))
    )


def random_market(rng: np.random.Generator, n: int) -> GramMarket:
    return gram_from_universe(random_universe(rng, n))


def random_probs(rng: np.random.Generator, n_states: int) -> np.ndarray:
    raw = rng.uniform(0.2, 1.0, n_states)
    probs = raw / raw.sum()
    probs[-1] = 1.0 - math.fsum(probs[:-1])
    return probs


def random_scenario_market(
    rng: np.random.Generator, n_states: int, n_assets: int
) -> GramMarket:
    """Scenario market priced by a strictly positive kernel (no arbitrage)."""
    assert n_assets <= n_states
    for _ in range(50):
        probs = random_probs(rng, n_states)
        values = rng.uniform(-0.5, 2.0, (n_states, n_assets))
        kernel = rng.uniform(0.3, 1.7, n_states)
        prices = (probs * kernel) @ values
        if np.abs(prices).max() < 1e-3:
            continue
        basis = [
            ScenarioPayoff.from_arrays(probs, values[:, i]) for i in range(n_assets)
        ]
        try:
            return gram_from_scenarios(basis, prices)
        except Exception:
            continue
    raise RuntimeError("failed to generate a scenario market")


def random_sequence_market(rng: np.random.Generator, n_elements: int) -> GramMarket:
    """Sequence market with three-state flows at dates 1 and 3 of horizon 4,
    so its atoms include the zero atom of the unlisted dates 2 and 4."""
    flows = [
        {
            "date": date,
            "probabilities": random_probs(rng, 3).tolist(),
            "values": (1.0 + rng.uniform(-0.3, 0.3, (n_elements, 3))).tolist(),
        }
        for date in (1, 3)
    ]
    return market_from_json(
        {
            "kind": "sequence",
            "beta": float(rng.uniform(0.6, 0.95)),
            "horizon": 4,
            "prices": rng.uniform(0.8, 1.2, n_elements).tolist(),
            "flows": flows,
        }
    )


def random_payoff(
    rng: np.random.Generator,
    max_states: int = 12,
    *,
    positive_mean: bool = False,
    with_downside: bool = False,
) -> ScenarioPayoff:
    for _ in range(200):
        n = int(rng.integers(2, max_states + 1))
        probs = random_probs(rng, n)
        values = rng.uniform(-1.0, 1.5, n)
        mean = float(probs @ values)
        if positive_mean and mean <= 1e-3:
            continue
        if with_downside and values.min() >= -1e-3:
            continue
        return ScenarioPayoff.from_arrays(probs, values)
    raise RuntimeError("failed to generate a payoff")


def _exact_solve(gram: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Gauss-Jordan solve of a small nonsingular rational system."""
    n = len(rhs)
    aug = [list(row) + [b] for row, b in zip(gram, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for row in range(n):
            if row != col and aug[row][col] != 0:
                ratio = aug[row][col] / aug[col][col]
                aug[row] = [a - ratio * b for a, b in zip(aug[row], aug[col])]
    return [aug[r][n] / aug[r][r] for r in range(n)]


def exact_one_period_oracle(gram, means, prices) -> dict[str, Fraction]:
    """Exact one-period ratios of a market given by rational ``G``, ``m``, ``p``
    (or anything ``Fraction`` takes exactly: ints, floats, decimal strings),
    keyed by the one-period ``verify`` rows, with the slack ``1 - m.G^-1m``,
    the mean and variance of z, and the weights of y, x and z."""
    gram = [[Fraction(g) for g in row] for row in gram]
    means, prices = [Fraction(m) for m in means], [Fraction(p) for p in prices]
    gi_p, gi_m = _exact_solve(gram, prices), _exact_solve(gram, means)
    p_gi_p = sum(a * b for a, b in zip(prices, gi_p))
    p_gi_m = sum(a * b for a, b in zip(prices, gi_m))
    m_gi_m = sum(a * b for a, b in zip(means, gi_m))
    omega_sq_y = 1 / p_gi_p
    mu_y = p_gi_m / p_gi_p
    hr_sq_x = m_gi_m - p_gi_m**2 / p_gi_p
    slack = 1 - m_gi_m
    mu_z = mu_y / (1 - hr_sq_x)
    w_y = [omega_sq_y * a for a in gi_p]
    w_x = [a - mu_y * b for a, b in zip(gi_m, gi_p)]
    return {
        "omega_sq_y": omega_sq_y,
        "mu_y": mu_y,
        "mu_y_over_omega_sq_y": p_gi_m,
        "hr_sq_y": mu_y * mu_y / omega_sq_y,
        "hr_sq_x": hr_sq_x,
        "hr_sq_x_plus_hr_sq_y": m_gi_m,
        "slack": slack,
        "mu_z": mu_z,
        "sigma_sq_z": omega_sq_y * slack / (1 - hr_sq_x),
        "w_y": w_y,
        "w_x": w_x,
        "w_z": [a + mu_z * b for a, b in zip(w_y, w_x)],
    }


def exact_verify_oracle(gram, means, prices, horizon: int) -> dict[str, Fraction]:
    """Exact value of every ``verify`` row for any small rational market: the
    one-period oracle propagated over ``horizon`` IID periods in closed form."""
    one = exact_one_period_oracle(gram, means, prices)
    for name in ("slack", "mu_z", "sigma_sq_z", "w_y", "w_x", "w_z"):  # not rows
        del one[name]
    mu_y = one["mu_y"] ** horizon
    omega_sq_y = one["omega_sq_y"] ** horizon
    hr_sq_y = one["hr_sq_y"] ** horizon
    hr_sq_x = one["hr_sq_x"] * sum(one["hr_sq_y"] ** t for t in range(horizon))
    mu_z = mu_y / (1 - hr_sq_x)
    sigma_sq_z = omega_sq_y * (1 - hr_sq_y / (1 - hr_sq_x))
    sigma_curvature = 1 / hr_sq_x - 1 if hr_sq_x else None
    return {
        **one,
        "multiperiod_hr_sq_x": hr_sq_x,
        "multiperiod_mu_y": mu_y,
        "multiperiod_omega_sq_y": omega_sq_y,
        "multiperiod_mu_z": mu_z,
        "multiperiod_sigma_sq_z": sigma_sq_z,
        "multiperiod_sr_inv_sq_x": sigma_curvature,
        "frontier_omega_level": omega_sq_y,
        "frontier_omega_curvature": 1 / hr_sq_x if hr_sq_x else None,
        "frontier_omega_center": mu_y,
        "frontier_sigma_level": sigma_sq_z,
        "frontier_sigma_curvature": sigma_curvature,
        "frontier_sigma_center": mu_z,
    }


def traced_peak(call) -> int:
    """Bytes that ``call()`` holds at its peak, as numpy reports its buffers to tracemalloc."""
    call()  # caches and first-call allocations are not the call's own
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
