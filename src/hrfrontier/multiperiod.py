"""Horizon aggregation of one-period frontier statistics under IID returns.

With IID one-period returns the dynamically rebalanced analogues of the
portfolios y and x have closed-form statistics: the n-period minimum-norm
payoff is the product of per-period payoffs, so its mean and second moment
are the n-th powers, and the leftover ratio budget compounds through a
geometric sum.  A brute-force scenario tree provides an independent oracle
for these formulas on small markets.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

import numpy as np

from .errors import (
    InternalInvariantError,
    InvalidHorizonError,
    InvalidInputError,
    TreeTooLargeError,
)
from .frontier import SpecialPortfolios, frontier_coefficients, special_portfolios
from .market import GramMarket
from .moments import FrozenValue

#: Hard cap on the number of scenario-tree leaves.
LEAF_CAP = 100_000
#: Below this distance from one, the geometric ratio sum switches to its limit.
GEOMETRIC_SWITCH_TOL = 1e-12


class MultiperiodStats(FrozenValue):
    """Frontier statistics of the n-period dynamically rebalanced market.

    ``slack`` is the n-period ``1 - hr_sq_x - hr_sq_y``, carried rather than
    formed by subtraction (see :class:`SpecialPortfolios`).
    """

    def __init__(
        self,
        horizon: int,
        mu_y: float,
        omega_sq_y: float,
        hr_sq_y: float,
        hr_sq_x: float,
        slack: float,
    ) -> None:
        if not isinstance(horizon, int) or horizon < 1:
            raise InvalidHorizonError("horizon must be an integer >= 1", horizon=horizon)
        if not (omega_sq_y > 0.0 and slack >= 0.0):
            raise InvalidInputError(
                "n-period statistics need omega_sq_y > 0 and slack >= 0",
                omega_sq_y=omega_sq_y,
                slack=slack,
            )
        # A one-period excess over the bound, within rounding, compounds with
        # the horizon; past the bound's own tolerance it is the input's.
        if hr_sq_x + hr_sq_y > 1.0 + 1e-10:
            raise InvalidInputError(
                "n-period statistics violate the ratio bound",
                horizon=horizon,
                hr_sq_x=hr_sq_x,
                hr_sq_y=hr_sq_y,
            )
        if abs(hr_sq_x + hr_sq_y + slack - 1.0) > 1e-10:
            raise InvalidInputError(
                "n-period ratios and slack do not sum to one",
                hr_sq_x=hr_sq_x,
                hr_sq_y=hr_sq_y,
                slack=slack,
            )
        if abs(hr_sq_y * omega_sq_y - mu_y**2) > 1e-10 * max(1.0, omega_sq_y):
            raise InternalInvariantError("inconsistent multiperiod ratio", hr_sq_y=hr_sq_y)
        vars(self).update(
            horizon=horizon,
            mu_y=mu_y,
            omega_sq_y=omega_sq_y,
            hr_sq_y=hr_sq_y,
            hr_sq_x=hr_sq_x,
            slack=slack,
        )

    def to_dict(self) -> dict:
        return dict(vars(self))


def _ratio_geometric_sum(hr_sq_y: float, horizon: int) -> float:
    # sum of hr_sq_y**t for t < horizon; closed form is 0/0 at one.
    if 1.0 - hr_sq_y < GEOMETRIC_SWITCH_TOL:
        return float(horizon)
    return (1.0 - hr_sq_y**horizon) / (1.0 - hr_sq_y)


def propagate(one_period: SpecialPortfolios, horizon: int) -> MultiperiodStats:
    """Closed-form n-period statistics from one-period statistics.

    ``mu_y`` and ``omega_sq_y`` are raised to the n-th power; the zero-cost
    ratio compounds as ``hr_sq_x * sum_t hr_sq_y**t`` and the slack as
    ``slack * sum_t hr_sq_y**t``.
    """
    if not isinstance(horizon, int) or horizon < 1:
        raise InvalidHorizonError("horizon must be an integer >= 1", horizon=horizon)
    try:  # a horizon beyond the float range overflows here too
        gsum = _ratio_geometric_sum(one_period.hr_sq_y, horizon)
        mu_y, omega_sq_y = one_period.mu_y**horizon, one_period.omega_sq_y**horizon
        hr_sq_y = one_period.hr_sq_y**horizon
    except OverflowError:
        raise InvalidInputError(
            "n-period moments overflow floating point at this horizon", horizon=horizon
        ) from None
    if min(omega_sq_y, abs(mu_y) if one_period.mu_y else 1.0) < sys.float_info.min:
        raise InvalidInputError(
            "n-period moments underflow floating point at this horizon", horizon=horizon
        )
    return MultiperiodStats(
        horizon=horizon,
        mu_y=mu_y,
        omega_sq_y=omega_sq_y,
        hr_sq_y=hr_sq_y,
        hr_sq_x=gsum * one_period.hr_sq_x,
        slack=gsum * one_period.slack,
    )


class ScenarioTree(NamedTuple):
    """Full product tree of an IID one-period scenario market.

    Leaves enumerate state paths in lexicographic order (the first period's
    state varies slowest); ``y_leaves`` is the per-period minimum-norm payoff
    compounded along the path and ``x_leaves`` the payoff of the dynamically
    rebalanced optimal zero-cost strategy.
    """

    horizon: int
    leaf_probabilities: np.ndarray
    y_leaves: np.ndarray
    x_leaves: np.ndarray

    @property
    def n_leaves(self) -> int:
        return self.leaf_probabilities.shape[0]


def product_tree(market: GramMarket, horizon: int) -> ScenarioTree:
    """Build the n-period tree's leaf arrays one period at a time.

    A period multiplies the path probabilities by ``q`` and the compounded
    payoff by ``y``; the dynamic zero-cost strategy holds the one-period ``x``
    plus ``a = mu_y/omega_sq_y`` times its payoff so far rolled over through
    ``y``: ``X <- x + a X y`` (no cancellation against 1).
    """
    q, values = market._states("tree construction")
    if not isinstance(horizon, int) or horizon < 1:
        raise InvalidHorizonError("horizon must be an integer >= 1", horizon=horizon)
    n_leaves = q.shape[0] ** horizon
    if n_leaves > LEAF_CAP:
        raise TreeTooLargeError(
            "scenario tree exceeds the leaf cap",
            leaves=n_leaves,
            cap=LEAF_CAP,
        )
    sp = special_portfolios(market)
    y_one = values @ sp.w_y
    x_one = values @ sp.w_x
    a1 = sp.mu_y / sp.omega_sq_y
    probs, y_leaves, x_leaves = q, y_one, x_one
    for _ in range(horizon - 1):
        probs = np.outer(probs, q).ravel()
        # Prepending a first period leaves the path order unchanged.
        y_leaves = np.outer(y_one, y_leaves).ravel()
        x_leaves = (a1 * np.outer(x_leaves, y_one) + x_one).ravel()
    return ScenarioTree(
        horizon=horizon, leaf_probabilities=probs, y_leaves=y_leaves, x_leaves=x_leaves
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
    hr_sq_y, hr_sq_x = mu_y * mu_y / omega_sq_y, max(0.0, mu_x)
    return MultiperiodStats(
        horizon=horizon,
        mu_y=mu_y,
        omega_sq_y=omega_sq_y,
        hr_sq_y=hr_sq_y,
        hr_sq_x=hr_sq_x,
        slack=max(0.0, 1.0 - hr_sq_x - hr_sq_y),
    )


#: The n-period frontier is the one-period parabola rule on the n-period ratios.
multiperiod_frontier = frontier_coefficients
