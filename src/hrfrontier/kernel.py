"""Pricing kernels: the kernel frontier and variance bounds of a market.

Every payoff that prices the spanning set exactly has the form
``y / omega_sq_y + eta * v`` plus a component orthogonal to both, where ``v``
is the residual of the bliss payoff 1 after projecting it onto the market.
The squared mean/L2 ratio of any kernel is capped by ``1 - hr_sq_x``, which
restates the classical variance-over-mean-squared lower bound
``sigma_m^2 / mu_m^2 >= sr_sq_x``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalInvariantError,
    NotAKernelError,
    NotScenarioBackedError,
    StateSpaceMismatchError,
)
from .frontier import special_portfolios
from .market import GramMarket
from .moments import ScenarioPayoff, stats

#: Pricing errors beyond this (relative to the price norm) disqualify a kernel.
PRICING_TOL = 1e-8
#: A residual with second moment below this is treated as identically zero.
ZERO_RESIDUAL_TOL = 1e-20


@dataclass(frozen=True)
class KernelFrontier:
    """One-parameter family of minimum-norm pricing kernels.

    ``kernel(eta) = base + eta * direction`` prices the market for every real
    ``eta``.  ``eta_star`` maximizes the squared mean/L2 ratio of the kernel;
    it is ``None`` when that supremum is only approached as ``|eta|`` grows
    (mean of the base portfolio is zero).
    """

    base: ScenarioPayoff
    direction: ScenarioPayoff
    hr_sq_direction: float
    eta_star: float | None

    def kernel(self, eta: float) -> ScenarioPayoff:
        probs = self.base.probabilities
        values = [
            b + eta * d for b, d in zip(self.base.values, self.direction.values)
        ]
        return ScenarioPayoff.from_arrays(probs, values)


@dataclass(frozen=True)
class KernelCheck:
    """Diagnostics for one candidate kernel against both bounds.

    ``var_over_mean_sq`` and ``variance_ok`` are ``None`` when the kernel has
    zero mean: the variance form of the bound does not apply there.
    """

    hr_sq_m: float
    var_over_mean_sq: float | None
    hr_bound: float
    variance_bound: float
    hr_ok: bool
    variance_ok: bool | None
    pricing_error: float

    @property
    def passed(self) -> bool:
        return self.hr_ok and self.variance_ok is not False

    def to_dict(self) -> dict:
        return {
            "hr_sq_m": self.hr_sq_m,
            "var_over_mean_sq": self.var_over_mean_sq,
            "hr_bound": self.hr_bound,
            "variance_bound": self.variance_bound,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class HJBoundReport:
    """Kernel restrictions implied by the market's zero-cost opportunities."""

    hr_bound: float
    variance_bound: float
    kernel_checks: tuple[KernelCheck, ...] = ()

    def to_dict(self) -> dict:
        return {
            "hr_bound": self.hr_bound,
            "variance_bound": self.variance_bound,
            "kernel_checks": [check.to_dict() for check in self.kernel_checks],
        }


def hj_bounds(market: GramMarket) -> HJBoundReport:
    """Both forms of the kernel bound: ratio cap and variance floor."""
    sp = special_portfolios(market)
    hr_bound = 1.0 - sp.hr_sq_x
    return HJBoundReport(
        hr_bound=hr_bound,
        variance_bound=sp.hr_sq_x / hr_bound,
    )


def _require_scenarios(market: GramMarket, what: str) -> None:
    if not market.is_scenario_backed:
        raise NotScenarioBackedError(
            f"{what} needs statewise payoffs; build the market from scenarios"
        )


def kernel_frontier(market: GramMarket) -> KernelFrontier:
    """Construct the kernel family statewise and verify its identities.

    The direction is ``1 - x - (mu_y / omega_sq_y) * y`` computed per state;
    its squared ratio must equal ``1 - hr_sq_x - hr_sq_y`` and it must be
    orthogonal to every spanning payoff.
    """
    _require_scenarios(market, "kernel construction")
    sp = special_portfolios(market)
    q = market.state_probabilities
    values = market.scenario_values
    y_vals = values @ sp.w_y
    x_vals = values @ sp.w_x
    a1 = sp.mu_y / sp.omega_sq_y
    v_vals = 1.0 - x_vals - a1 * y_vals

    v_mean = float(q @ v_vals)
    v_second = float(q @ (v_vals * v_vals))
    slack = 1.0 - sp.hr_sq_x - sp.hr_sq_y
    if v_second <= ZERO_RESIDUAL_TOL:
        v_vals = np.zeros_like(v_vals)
        hr_sq_v = 0.0
    else:
        hr_sq_v = v_mean * v_mean / v_second
        # The residual of the projection of 1 satisfies mean == second moment.
        if abs(v_second - v_mean) > 1e-10 * max(1.0, v_second):
            raise InternalInvariantError(
                "residual mean and second moment disagree",
                mean=v_mean,
                second_moment=v_second,
            )
    if abs(hr_sq_v - slack) > 1e-10:
        raise InternalInvariantError(
            "residual ratio disagrees with the frontier slack",
            hr_sq_v=hr_sq_v,
            slack=slack,
        )
    orth = (q * v_vals) @ values
    if float(np.abs(orth).max()) > 1e-10 * max(1.0, float(np.abs(values).max())):
        raise InternalInvariantError(
            "residual is not orthogonal to the market",
            max_inner_product=float(np.abs(orth).max()),
        )

    base_vals = y_vals / sp.omega_sq_y
    base = ScenarioPayoff.from_arrays(q, base_vals)
    direction = ScenarioPayoff.from_arrays(q, v_vals)

    if hr_sq_v == 0.0:
        eta_star: float | None = 0.0
    elif abs(sp.mu_y) <= 1e-12 * max(1.0, math.sqrt(sp.omega_sq_y)):
        eta_star = None
    else:
        # Projection coefficient for the best mix of base and direction.
        base_mean = float(q @ base_vals)
        base_second = float(q @ (base_vals * base_vals))
        eta_star = (v_mean / v_second) * (base_second / base_mean)
        # With E[base v] = 0, HR^2(base + eta v) = (a + eta b)^2 / (c + eta^2 f)
        # (means a, b; second moments c, f) peaks exactly at eta = bc/(af).
        cross = float(q @ (base_vals * v_vals))
        if abs(cross) > 1e-10 * max(1.0, math.sqrt(base_second * v_second)):
            raise InternalInvariantError(
                "kernel base is not orthogonal to the direction", inner_product=cross
            )
    return KernelFrontier(
        base=base, direction=direction, hr_sq_direction=hr_sq_v, eta_star=eta_star
    )


def check_kernel(kernel: ScenarioPayoff, market: GramMarket) -> KernelCheck:
    """Validate a candidate kernel and test it against both bounds.

    The kernel must price every spanning payoff to ``PRICING_TOL`` relative
    to the price norm; beyond that it is rejected outright because the bound
    derivations presume exact pricing.
    """
    _require_scenarios(market, "kernel diagnostics")
    assert market.scenario_basis is not None
    if kernel.probabilities != market.scenario_basis[0].probabilities:
        raise StateSpaceMismatchError(
            "kernel is not defined on the market's state space"
        )
    q = market.state_probabilities
    values = market.scenario_values
    m_vals = np.array(kernel.values)
    implied = (q * m_vals) @ values
    pricing_error = float(np.linalg.norm(implied - market.prices))
    price_norm = float(np.linalg.norm(market.prices))
    if pricing_error > PRICING_TOL * price_norm:
        raise NotAKernelError(
            "candidate misprices the spanning payoffs",
            pricing_error=pricing_error,
            tolerance=PRICING_TOL * price_norm,
        )
    sp = special_portfolios(market)
    hr_bound = 1.0 - sp.hr_sq_x
    variance_bound = sp.hr_sq_x / hr_bound
    ratios = stats(kernel)
    hr_sq_m = ratios.hansen * ratios.hansen
    if ratios.mean == 0.0:
        var_over_mean_sq: float | None = None
        variance_ok: bool | None = None
    else:
        var_over_mean_sq = ratios.variance / (ratios.mean * ratios.mean)
        variance_ok = var_over_mean_sq >= variance_bound - 1e-10
    return KernelCheck(
        hr_sq_m=hr_sq_m,
        var_over_mean_sq=var_over_mean_sq,
        hr_bound=hr_bound,
        variance_bound=variance_bound,
        hr_ok=hr_sq_m <= hr_bound + 1e-10,
        variance_ok=variance_ok,
        pricing_error=pricing_error,
    )
