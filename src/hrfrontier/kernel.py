"""Pricing kernels: the kernel frontier and variance bounds of a market.

Every payoff that prices the spanning set exactly has the form
``y / omega_sq_y + eta * v`` plus a component orthogonal to both, where ``v``
is the residual of the bliss payoff 1 after projecting it onto the market.
The squared mean/L2 ratio of any kernel is capped by ``1 - hr_sq_x``, which
restates the classical variance-over-mean-squared lower bound
``sigma_m^2 / mu_m^2 >= sr_sq_x``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    InternalInvariantError,
    NotAKernelError,
    StateSpaceMismatchError,
)
from .frontier import special_portfolios
from .market import GramMarket
from .moments import ScenarioPayoff, stats

#: Pricing errors beyond this (relative to the price norm) disqualify a kernel.
PRICING_TOL = 1e-8
#: A residual with second moment below this is treated as identically zero.
ZERO_RESIDUAL_TOL = 1e-20


class KernelFrontier(NamedTuple):
    """One-parameter family of minimum-norm pricing kernels.

    ``kernel(eta) = base + eta * direction`` prices the market for every real
    ``eta``.  ``eta_star`` maximizes the squared mean/L2 ratio of the kernel;
    it is ``None`` when that supremum is only approached as ``|eta|`` grows,
    that is when ``SpecialPortfolios.max_hr_attained`` is False
    (``|mu_y| <= 1e-12 * max(1, |m| |w_y|)``).
    """

    base: ScenarioPayoff
    direction: ScenarioPayoff
    hr_sq_direction: float
    eta_star: float | None

    def kernel(self, eta: float) -> ScenarioPayoff:
        return ScenarioPayoff(
            self.base.probabilities, self.base.values + eta * self.direction.values
        )


class KernelCheck(NamedTuple):
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


class HJBoundReport(NamedTuple):
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


def kernel_frontier(market: GramMarket) -> KernelFrontier:
    """Construct the kernel family statewise and verify its identities.

    The base is ``y / omega_sq_y`` and the direction the residual
    ``v = 1 - x - (mu_y / omega_sq_y) * y``, both computed per state; the
    residual's squared ratio must equal the frontier slack and it must be
    orthogonal to every spanning payoff.  ``eta_star = 1 / mu_y`` comes from
    the market's solve, not from the states.
    """
    q, values = market._states("kernel construction")
    sp = special_portfolios(market)
    y_vals = values @ sp.w_y
    x_vals = values @ sp.w_x
    a1 = sp.mu_y / sp.omega_sq_y
    v_vals = 1.0 - x_vals - a1 * y_vals

    v_mean = float(q @ v_vals)
    v_second = float(q @ (v_vals * v_vals))
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
    if abs(hr_sq_v - sp.slack) > 1e-10:
        raise InternalInvariantError(
            "residual ratio disagrees with the frontier slack",
            hr_sq_v=hr_sq_v,
            slack=sp.slack,
        )
    orth = (q * v_vals) @ values
    if float(np.abs(orth).max()) > 1e-10 * max(1.0, float(np.abs(values).max())):
        raise InternalInvariantError(
            "residual is not orthogonal to the market",
            max_inner_product=float(np.abs(orth).max()),
        )

    if hr_sq_v == 0.0:
        eta_star: float | None = 0.0
    elif not sp.max_hr_attained:
        eta_star = None
    else:
        # HR^2(base + eta v) = (a + eta b)^2 / (c + eta^2 f), a = mu_y/omega_sq_y,
        # c = 1/omega_sq_y and b = f = slack, peaks at eta = bc/(af) = 1/mu_y.
        eta_star = 1.0 / sp.mu_y
    return KernelFrontier(
        base=ScenarioPayoff.from_arrays(q, y_vals / sp.omega_sq_y),
        direction=ScenarioPayoff.from_arrays(q, v_vals),
        hr_sq_direction=hr_sq_v,
        eta_star=eta_star,
    )


def check_kernel(kernel: ScenarioPayoff, market: GramMarket) -> KernelCheck:
    """Validate a candidate kernel and test it against both bounds of
    :func:`hj_bounds`.

    The kernel must live on the market's states (``StateSpaceMismatchError``)
    and price every spanning payoff to ``PRICING_TOL`` relative to the price
    norm; beyond that it is rejected outright (``NotAKernelError``) because
    the bound derivations presume exact pricing.
    """
    q, values = market._states("kernel diagnostics")
    if kernel.probabilities is not q and not np.array_equal(kernel.probabilities, q):
        raise StateSpaceMismatchError("kernel is not defined on the market's state space")
    implied = (q * kernel.values) @ values
    pricing_error = float(np.linalg.norm(implied - market.prices))
    tolerance = PRICING_TOL * float(np.linalg.norm(market.prices))
    if pricing_error > tolerance:
        raise NotAKernelError(
            "candidate misprices the spanning payoffs",
            pricing_error=pricing_error,
            tolerance=tolerance,
        )
    bounds = hj_bounds(market)
    hr_bound, variance_bound = bounds.hr_bound, bounds.variance_bound
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
