"""Monotone performance ratios via optimal payoff truncation.

The plain mean/L2-norm ratio can fall when a payoff is improved statewise.
Its monotone hull fixes this: discard surplus above a cap ``k`` and take the
best cap.  For discrete payoffs the optimum is found exactly by a segment
scan: between consecutive distinct outcomes the clipped moments are smooth in
``k`` and the stationary point ``k* = E[W^2; W <= k] / E[W; W <= k]`` is
constant, so only finitely many candidates exist.  The optimal cap satisfies
the first-order condition ``E[W; aW <= 1] = a E[W^2; aW <= 1]`` at
``a = 1/k``, which doubles as a built-in verification.

Over a market's zero-cost payoffs ``sup MHR^2 = 2 max E[u(W)]`` for the
monotonized utility ``u``; ``monotone_hj_bound`` solves that concave program
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalInvariantError,
    NegativeKernelError,
    NoDownsideError,
    NonPositiveMeanError,
    NotAKernelError,
    NotScenarioBackedError,
)
from .kernel import PRICING_TOL
from .market import GramMarket
from .moments import ScenarioPayoff, stats

#: Residual of the truncation first-order condition permitted at the optimum.
FOC_TOL = 1e-10
#: Newton steps after which the zero-cost maximization is reported as stuck.
_NEWTON_STEPS = 50
#: States this close above the bliss point still count as below it.
_KINK_TOL = 1e-12


@dataclass(frozen=True)
class MonotoneResult:
    """Monotone ratio of a payoff with the optimal cap.

    ``msr`` is ``None`` when infinite.  For payoffs without downside (allowed
    only on request) the supremum 1 is never attained: ``attained`` is False
    and no cap is reported.
    """

    mhr: float
    msr: float | None
    k_hat: float | None
    alpha_hat: float | None
    truncated: bool
    attained: bool = True

    def to_dict(self) -> dict:
        return {
            "mhr": self.mhr,
            "msr": self.msr,
            "k_hat": self.k_hat,
            "alpha_hat": self.alpha_hat,
            "truncated": self.truncated,
        }


def monotonized_utility(x):
    """Quadratic utility flattened beyond its bliss point at 1 (elementwise)."""
    c = np.minimum(x, 1.0)
    return c - 0.5 * c * c


def _clipped_ratio(probs, values, cap: float) -> float:
    """Mean over L2 norm of the payoff clipped at ``cap``."""
    mean = math.fsum(p * min(v, cap) for p, v in zip(probs, values))
    second = math.fsum(p * min(v, cap) ** 2 for p, v in zip(probs, values))
    return mean / math.sqrt(second)


def _solve_cap(probs, values) -> tuple[float, float]:
    """Return ``(best_ratio, best_cap)`` for a payoff with positive mean and
    strictly negative downside.

    Scans the segments between distinct positive outcomes; within each, the
    candidate cap is the ratio of the clipped second moment to the clipped
    mean, accepted when it lands inside the segment.
    """
    positive = sorted({v for v in values if v > 0.0})
    included = [(p, v) for p, v in zip(probs, values) if v <= 0.0]

    candidates: list[tuple[float, float]] = []  # (ratio, cap)
    for idx in range(len(positive) + 1):
        if idx:
            level = positive[idx - 1]
            included += [(p, v) for p, v in zip(probs, values) if v == level]
        lo = positive[idx - 1] if idx else 0.0
        hi = positive[idx] if idx < len(positive) else math.inf
        clipped_mean = math.fsum(p * v for p, v in included)
        if clipped_mean <= 0.0:
            continue
        clipped_second = math.fsum(p * v * v for p, v in included)
        cap = clipped_second / clipped_mean
        # A root that is mathematically on a segment boundary can round an
        # ulp off it; snap so both segments agree on the same candidate.
        if math.isfinite(hi) and abs(cap - hi) <= 1e-12 * hi:
            cap = hi
        elif lo > 0.0 and abs(cap - lo) <= 1e-12 * lo:
            cap = lo
        if lo <= cap <= hi:
            tail = math.fsum(p for p, v in zip(probs, values) if v > lo)
            mean_at = clipped_mean + cap * tail
            second_at = clipped_second + cap * cap * tail
            candidates.append((mean_at / math.sqrt(second_at), cap))
    if not candidates:
        raise InternalInvariantError(
            "no stationary cap found for the truncation problem"
        )
    best_ratio = max(r for r, _ in candidates)
    best_cap = min(c for r, c in candidates if r == best_ratio)
    return best_ratio, best_cap


def monotone_hansen_ratio(
    payoff: ScenarioPayoff, *, allow_no_downside: bool = False
) -> MonotoneResult:
    """Monotone mean/L2 ratio of a payoff, with the exact optimal cap.

    Requires a strictly positive mean and some strictly negative outcome.  A
    nonnegative payoff has supremum 1, attained only in the limit; pass
    ``allow_no_downside`` to get that reported as a flagged result instead of
    an error.
    """
    ratios = stats(payoff)
    if ratios.mean <= 0.0:
        raise NonPositiveMeanError(
            "monotone ratio needs a strictly positive mean", mean=ratios.mean
        )
    probs = payoff.probabilities
    values = payoff.values
    if min(values) >= 0.0:
        if allow_no_downside:
            return MonotoneResult(
                mhr=1.0,
                msr=None,
                k_hat=None,
                alpha_hat=None,
                truncated=False,
                attained=False,
            )
        raise NoDownsideError(
            "payoff has no downside: the supremum 1 is not attained"
        )

    best_ratio, best_cap = _solve_cap(probs, values)
    alpha_hat = 1.0 / best_cap

    # First-order condition at the reported cap ({alpha*W <= 1} == {W <= cap}).
    foc_mean = math.fsum(p * v for p, v in payoff.states if v <= best_cap)
    foc_second = math.fsum(p * v * v for p, v in payoff.states if v <= best_cap)
    residual = foc_mean - alpha_hat * foc_second
    if abs(residual) > FOC_TOL * max(1.0, abs(foc_mean)):
        raise InternalInvariantError(
            "first-order condition violated at the reported cap",
            residual=residual,
            cap=best_cap,
        )
    if best_ratio < ratios.hansen - 1e-12:
        raise InternalInvariantError(
            "monotone ratio fell below the plain ratio",
            mhr=best_ratio,
            hr=ratios.hansen,
        )
    return MonotoneResult(
        mhr=best_ratio,
        msr=best_ratio / math.sqrt(1.0 - best_ratio * best_ratio),
        k_hat=best_cap,
        alpha_hat=alpha_hat,
        truncated=best_cap < max(values),
    )


@dataclass(frozen=True)
class MonotoneBoundReport:
    """Kernel bound diagnostics under the nonnegativity constraint.

    ``sup_mhr_sq``/``sup_msr_sq`` are the exact suprema of the squared
    monotone ratios over the market's zero-cost payoffs.
    """

    sup_mhr_sq: float
    sup_msr_sq: float
    kernel_hr_sq: float
    kernel_var_over_mean_sq: float
    mhr_bound: float
    mhr_ok: bool
    msr_ok: bool

    def to_dict(self) -> dict:
        return {
            "sup_mhr_sq": self.sup_mhr_sq,
            "sup_msr_sq": self.sup_msr_sq,
            "kernel_hr_sq": self.kernel_hr_sq,
            "kernel_var_over_mean_sq": self.kernel_var_over_mean_sq,
            "mhr_bound": self.mhr_bound,
            "mhr_ok": self.mhr_ok,
            "msr_ok": self.msr_ok,
        }


def _line_max(q: np.ndarray, x: np.ndarray, dx: np.ndarray) -> float:
    """Maximizer over ``t`` in [0, 1] of the concave, piecewise quadratic
    ``E[u(x + t dx)]``, whose slope has a kink where a state crosses 1."""
    slack = 1.0 - x
    below = slack > 0.0
    cross = np.flatnonzero(np.where(below, dx > 0.0, dx < 0.0))
    at = slack[cross] / dx[cross]
    order = np.argsort(at)[: np.count_nonzero(at < 1.0)]
    cross, at = cross[order], at[order]
    q_dx = q * dx
    toggle = np.where(below[cross], -1.0, 1.0) * q_dx[cross]
    # Between the k-th and the next crossing the slope is lin[k] - t * quad[k].
    lin = np.cumsum(np.concatenate(([q_dx[below] @ slack[below]], toggle * slack[cross])))
    quad = np.cumsum(np.concatenate(([q_dx[below] @ dx[below]], toggle * dx[cross])))
    turned = lin - np.append(at, 1.0) * quad <= 0.0
    if not turned.any():
        return 1.0
    k = int(np.argmax(turned))
    return float(lin[k] / quad[k]) if lin[k] > 0.0 else 0.0


def _sup_zero_cost_mhr_sq(q: np.ndarray, zero_cost: np.ndarray) -> float:
    """``sup MHR^2`` of the payoffs ``x = zero_cost @ w``: ``2 max_w E[u(x)]``.

    Active-set Newton from ``w = 0``; ``A`` holds the states below the bliss
    point, plus those within ``_KINK_TOL`` above it so that rounding cannot
    flip a state that sits on the kink at the optimum.  A full step that keeps
    ``A`` is the maximizer; any other step is cut by an exact line search.
    The optimum is certified by its first-order condition and by strong
    duality with the nonnegative kernel ``m = (1 - x)^+``:
    ``2 E[u(x)] = 1 - HR^2(m)``.
    """
    x = np.zeros(zero_cost.shape[0])
    root_q = np.sqrt(q)
    for _ in range(_NEWTON_STEPS):
        active = x < 1.0 + _KINK_TOL
        # (Z_A' diag(q_A) Z_A) s = Z_A' q_A (1 - x_A) in least-squares form;
        # it is singular when few states are active.
        rows = root_q[active, None] * zero_cost[active]
        step = np.linalg.lstsq(rows, root_q[active] * (1.0 - x[active]), rcond=None)[0]
        dx = zero_cost @ step
        if np.array_equal(x + dx < 1.0 + _KINK_TOL, active):
            x = x + dx  # the quadratic model held along the full step
            break
        x = x + _line_max(q, x, dx) * dx
    else:
        raise InternalInvariantError("active-set Newton did not settle")
    sup_sq = 2.0 * float(q @ monotonized_utility(x))
    m_plus = np.maximum(1.0 - x, 0.0)
    foc = float(np.abs((q * m_plus) @ zero_cost).max())
    if foc > FOC_TOL * max(1.0, float(np.abs(zero_cost).max())):
        raise InternalInvariantError(
            "first-order condition violated at the zero-cost optimum", residual=foc
        )
    gap = sup_sq - (1.0 - float(q @ m_plus) ** 2 / float(q @ (m_plus * m_plus)))
    if abs(gap) > 1e-12:
        raise InternalInvariantError("duality gap at the zero-cost optimum", gap=gap)
    return sup_sq


def monotone_hj_bound(market: GramMarket, kernel: ScenarioPayoff) -> MonotoneBoundReport:
    """Check the nonnegative-kernel bounds against the exact zero-cost supremum.

    Maximizes the monotone ratio over the zero-cost subspace exactly and
    verifies ``sup MHR^2 <= 1 - HR^2(kernel)`` and
    ``var(kernel)/mean(kernel)^2 >= sup MSR^2``.
    """
    if not market.is_scenario_backed:
        raise NotScenarioBackedError(
            "monotone kernel bound needs statewise payoffs"
        )
    m_vals = np.array(kernel.values)
    if m_vals.min() < 0.0:
        raise NegativeKernelError(
            "kernel takes negative values", min_value=float(m_vals.min())
        )
    assert market.scenario_basis is not None
    if kernel.probabilities != market.scenario_basis[0].probabilities:
        raise NotAKernelError("kernel is not on the market's state space")
    q = market.state_probabilities
    values = market.scenario_values
    implied = (q * m_vals) @ values
    pricing_error = float(np.linalg.norm(implied - market.prices))
    if pricing_error > PRICING_TOL * float(np.linalg.norm(market.prices)):
        raise NotAKernelError(
            "candidate misprices the spanning payoffs", pricing_error=pricing_error
        )
    kernel_stats = stats(kernel)
    kernel_hr_sq = kernel_stats.hansen**2
    if kernel_stats.mean == 0.0:
        raise NotAKernelError("kernel has zero mean")
    kernel_ratio = kernel_stats.variance / kernel_stats.mean**2

    # Orthonormal basis of the zero-cost subspace {w : p.w = 0}.
    null_basis = np.linalg.svd(market.prices[None, :])[2][1:].T
    best_sq = 0.0  # no zero-cost payoff at all
    if null_basis.shape[1]:
        best_sq = _sup_zero_cost_mhr_sq(q, values @ null_basis)

    sup_msr_sq = best_sq / (1.0 - best_sq) if best_sq < 1.0 else math.inf
    mhr_bound = 1.0 - kernel_hr_sq
    return MonotoneBoundReport(
        sup_mhr_sq=best_sq,
        sup_msr_sq=sup_msr_sq,
        kernel_hr_sq=kernel_hr_sq,
        kernel_var_over_mean_sq=kernel_ratio,
        mhr_bound=mhr_bound,
        mhr_ok=best_sq <= mhr_bound + 1e-10,
        msr_ok=kernel_ratio >= sup_msr_sq - 1e-10,
    )
