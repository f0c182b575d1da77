"""Monotone performance ratios via optimal payoff truncation.

The plain mean/L2-norm ratio can fall when a payoff is improved statewise.
Its monotone hull fixes this: discard surplus above a cap ``k`` and take the
best cap.  For discrete payoffs the optimum is found exactly by a segment
scan: between consecutive distinct outcomes the clipped moments are smooth in
``k`` and the stationary point ``k* = E[W^2; W <= k] / E[W; W <= k]`` is
constant, so only finitely many candidates exist.  The optimal cap satisfies
the first-order condition ``E[W; aW <= 1] = a E[W^2; aW <= 1]`` at
``a = 1/k``, which doubles as a built-in verification.
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


def monotonized_utility(x: float) -> float:
    """Quadratic utility flattened beyond its bliss point at 1."""
    c = min(x, 1.0)
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


def monotone_sharpe_ratio(
    payoff: ScenarioPayoff, *, allow_no_downside: bool = False
) -> float | None:
    """Monotone Sharpe ratio; ``None`` when infinite (no-downside limit)."""
    return monotone_hansen_ratio(payoff, allow_no_downside=allow_no_downside).msr


@dataclass(frozen=True)
class MonotoneBoundReport:
    """Kernel bound diagnostics under the nonnegativity constraint.

    The supremum over zero-cost payoffs is approximated from below by a
    direction sweep, so ``sup_mhr_sq``/``sup_msr_sq`` are lower bounds.
    """

    sup_mhr_sq: float
    sup_msr_sq: float
    kernel_hr_sq: float
    kernel_var_over_mean_sq: float
    mhr_bound: float
    mhr_ok: bool
    msr_ok: bool
    directions_evaluated: int
    directions_skipped: int

    def to_dict(self) -> dict:
        return {
            "sup_mhr_sq": self.sup_mhr_sq,
            "sup_msr_sq": self.sup_msr_sq,
            "kernel_hr_sq": self.kernel_hr_sq,
            "kernel_var_over_mean_sq": self.kernel_var_over_mean_sq,
            "mhr_bound": self.mhr_bound,
            "mhr_ok": self.mhr_ok,
            "msr_ok": self.msr_ok,
            "directions_evaluated": self.directions_evaluated,
            "directions_skipped": self.directions_skipped,
        }


def monotone_hj_bound(
    market: GramMarket,
    kernel: ScenarioPayoff,
    *,
    directions: int = 10_000,
    refine_rounds: int = 3,
    seed: int = 0,
) -> MonotoneBoundReport:
    """Check the nonnegative-kernel bounds against a direction sweep.

    Sweeps unit directions of the zero-cost subspace (plus local refinement
    around the best one), maximizing the monotone ratio, and verifies
    ``sup MHR^2 <= 1 - HR^2(kernel)`` and
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
    zero_cost_vals = values @ null_basis  # state x direction-dim
    dim = null_basis.shape[1]

    probs = tuple(q)
    evaluated = 0
    skipped = 0
    best_sq = 0.0

    def try_direction(direction: np.ndarray) -> None:
        nonlocal evaluated, skipped, best_sq
        payoff_vals = zero_cost_vals @ direction
        scale = float(np.abs(payoff_vals).max())
        if scale <= 0.0:
            skipped += 1
            return
        mean = math.fsum(p * v for p, v in zip(probs, payoff_vals))
        if mean < 0.0:
            payoff_vals = -payoff_vals
            mean = -mean
        if mean <= 1e-14 * scale or payoff_vals.min() >= 0.0:
            skipped += 1
            return
        ratio, _cap = _solve_cap(probs, tuple(float(v) for v in payoff_vals))
        evaluated += 1
        if ratio * ratio > best_sq:
            best_sq = ratio * ratio
            best_direction[:] = direction

    best_direction = np.zeros(dim)
    if dim == 1:
        try_direction(np.array([1.0]))
    elif dim > 1:
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((directions, dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        for row in raw:
            try_direction(row)
        # Shrinking local refinement around the best direction found.
        for round_no in range(refine_rounds):
            if not best_direction.any():
                break
            spread = 0.3 * 0.3**round_no
            local = best_direction[None, :] + spread * rng.standard_normal(
                (max(64, directions // 10), dim)
            )
            local /= np.linalg.norm(local, axis=1, keepdims=True)
            for row in local:
                try_direction(row)

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
        directions_evaluated=evaluated,
        directions_skipped=skipped,
    )
