"""Horizon aggregation of one-period frontier statistics under IID returns.

With IID one-period returns the dynamically rebalanced analogues of the
portfolios y and x have closed-form statistics: the n-period minimum-norm
payoff is the product of per-period payoffs, so its mean and second moment
are the n-th powers, and the leftover ratio budget compounds through a
geometric sum.  A brute-force scenario tree provides an independent oracle
for these formulas on small markets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalInvariantError,
    InvalidHorizonError,
    InvalidInputError,
    NotScenarioBackedError,
    TreeTooLargeError,
)
from .frontier import (
    FrontierCoefficients,
    SpecialPortfolios,
    _parabolas,
    _z_stats,
    special_portfolios,
)
from .market import GramMarket

#: Hard cap on the number of scenario-tree leaves.
LEAF_CAP = 100_000
#: Below this distance from one, the geometric ratio sum switches to its limit.
GEOMETRIC_SWITCH_TOL = 1e-12


@dataclass(frozen=True)
class MultiperiodStats:
    """Frontier statistics of the n-period dynamically rebalanced market."""

    horizon: int
    mu_y: float
    omega_sq_y: float
    hr_sq_y: float
    hr_sq_x: float

    def __post_init__(self) -> None:
        if not isinstance(self.horizon, int) or self.horizon < 1:
            raise InvalidHorizonError(
                "horizon must be an integer >= 1", horizon=self.horizon
            )
        if self.hr_sq_x + self.hr_sq_y > 1.0 + 1e-10:
            raise InternalInvariantError(
                "ratio bound violated at this horizon",
                hr_sq_x=self.hr_sq_x,
                hr_sq_y=self.hr_sq_y,
            )
        if abs(self.hr_sq_y * self.omega_sq_y - self.mu_y**2) > 1e-10 * max(
            1.0, self.omega_sq_y
        ):
            raise InternalInvariantError(
                "inconsistent multiperiod ratio", hr_sq_y=self.hr_sq_y
            )

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "mu_y": self.mu_y,
            "omega_sq_y": self.omega_sq_y,
            "hr_sq_y": self.hr_sq_y,
            "hr_sq_x": self.hr_sq_x,
        }


def _ratio_geometric_sum(hr_sq_y: float, horizon: int) -> float:
    # sum of hr_sq_y**t for t < horizon; closed form is 0/0 at one.
    if 1.0 - hr_sq_y < GEOMETRIC_SWITCH_TOL:
        return float(horizon)
    return (1.0 - hr_sq_y**horizon) / (1.0 - hr_sq_y)


def propagate(one_period: SpecialPortfolios, horizon: int) -> MultiperiodStats:
    """Closed-form n-period statistics from one-period statistics.

    ``mu_y`` and ``omega_sq_y`` are raised to the n-th power; the zero-cost
    ratio compounds as ``hr_sq_x * sum_t hr_sq_y**t``.
    """
    if not isinstance(horizon, int) or horizon < 1:
        raise InvalidHorizonError("horizon must be an integer >= 1", horizon=horizon)
    if one_period.hr_sq_x + one_period.hr_sq_y > 1.0 + 1e-10:
        raise InvalidInputError(
            "one-period statistics violate the ratio bound",
            hr_sq_x=one_period.hr_sq_x,
            hr_sq_y=one_period.hr_sq_y,
        )
    gsum = _ratio_geometric_sum(one_period.hr_sq_y, horizon)
    try:
        mu_y, omega_sq_y = one_period.mu_y**horizon, one_period.omega_sq_y**horizon
    except OverflowError:
        raise InvalidInputError(
            "n-period moments overflow floating point at this horizon", horizon=horizon
        ) from None
    return MultiperiodStats(
        horizon=horizon,
        mu_y=mu_y,
        omega_sq_y=omega_sq_y,
        hr_sq_y=one_period.hr_sq_y**horizon,
        hr_sq_x=gsum * one_period.hr_sq_x,
    )


@dataclass(frozen=True)
class ScenarioTree:
    """Full product tree of an IID one-period scenario market.

    Leaves enumerate state paths; ``y_leaves`` is the per-period
    minimum-norm payoff compounded along the path, ``x_leaves`` the payoff of
    the dynamically rebalanced optimal zero-cost strategy, and ``mix_leaves``
    their numerically convenient combination
    ``x + (mu_y/omega_sq_y)**n * y``.
    """

    horizon: int
    leaf_probabilities: np.ndarray
    y_leaves: np.ndarray
    x_leaves: np.ndarray
    mix_leaves: np.ndarray

    @property
    def n_leaves(self) -> int:
        return self.leaf_probabilities.shape[0]


def product_tree(market: GramMarket, horizon: int) -> ScenarioTree:
    """Enumerate the n-period tree depth-first and fill the leaf arrays."""
    if not market.is_scenario_backed:
        raise NotScenarioBackedError("tree construction needs statewise payoffs")
    if not isinstance(horizon, int) or horizon < 1:
        raise InvalidHorizonError("horizon must be an integer >= 1", horizon=horizon)
    q = market.state_probabilities
    n_states = q.shape[0]
    n_leaves = n_states**horizon
    if n_leaves > LEAF_CAP:
        raise TreeTooLargeError(
            "scenario tree exceeds the leaf cap",
            leaves=n_leaves,
            cap=LEAF_CAP,
        )
    sp = special_portfolios(market)
    values = market.scenario_values
    y_one = values @ sp.w_y
    x_one = values @ sp.w_x
    a1 = sp.mu_y / sp.omega_sq_y
    a_n = a1**horizon

    probs = np.empty(n_leaves)
    y_leaves = np.empty(n_leaves)
    x_leaves = np.empty(n_leaves)
    mix_leaves = np.empty(n_leaves)
    for leaf, path in enumerate(itertools.product(range(n_states), repeat=horizon)):
        prob = 1.0
        suffix = np.empty(horizon + 1)
        suffix[horizon] = 1.0
        for t in range(horizon - 1, -1, -1):
            suffix[t] = suffix[t + 1] * y_one[path[t]]
        for state in path:
            prob *= q[state]
        y_prod = suffix[0]
        # Residual of the dynamic strategy: compound the per-period residuals
        # of the bliss payoff forward with the pricing-portfolio discount.
        residual = math.fsum(
            a1 ** (horizon - 1 - t)
            * (1.0 - x_one[path[t]] - a1 * y_one[path[t]])
            * suffix[t + 1]
            for t in range(horizon)
        )
        probs[leaf] = prob
        y_leaves[leaf] = y_prod
        x_leaves[leaf] = 1.0 - a_n * y_prod - residual
        mix_leaves[leaf] = 1.0 - residual
    return ScenarioTree(
        horizon=horizon,
        leaf_probabilities=probs,
        y_leaves=y_leaves,
        x_leaves=x_leaves,
        mix_leaves=mix_leaves,
    )


def tree_oracle(market: GramMarket, horizon: int) -> MultiperiodStats:
    """Multiperiod statistics computed directly on the product tree.

    Independent of :func:`propagate`: moments are leaf sums, and the
    zero-cost ratio is the mean of the dynamic strategy payoff (which must
    equal its second moment, re-checked here).
    """
    tree = product_tree(market, horizon)
    q = tree.leaf_probabilities
    mu_y = float(q @ tree.y_leaves)
    omega_sq_y = float(q @ (tree.y_leaves**2))
    mu_x = float(q @ tree.x_leaves)
    omega_sq_x = float(q @ (tree.x_leaves**2))
    if abs(omega_sq_x - mu_x) > 1e-9 * max(1.0, abs(mu_x)):
        raise InternalInvariantError(
            "dynamic zero-cost payoff lost the mean == second-moment identity",
            mean=mu_x,
            second_moment=omega_sq_x,
        )
    return MultiperiodStats(
        horizon=horizon,
        mu_y=mu_y,
        omega_sq_y=omega_sq_y,
        hr_sq_y=mu_y * mu_y / omega_sq_y,
        hr_sq_x=max(0.0, mu_x),
    )


def multiperiod_frontier(stats: MultiperiodStats) -> FrontierCoefficients:
    """Frontier parabolas of the n-period market (same machinery as one period)."""
    mu_z, sigma_sq_z = _z_stats(
        stats.mu_y, stats.omega_sq_y, stats.hr_sq_y, stats.hr_sq_x
    )
    return _parabolas(
        stats.mu_y,
        stats.omega_sq_y,
        stats.hr_sq_y,
        stats.hr_sq_x,
        mu_z,
        sigma_sq_z,
    )
