"""Monotone performance ratios via optimal payoff truncation.

The plain mean/L2-norm ratio can fall when a payoff is improved statewise.
Its monotone hull fixes this: discard surplus above a cap ``k`` and take the
best cap.  With the monotonized utility ``u(x) = x - x^2/2`` capped at its
bliss point ``u(1) = 1/2``, ``MHR^2(W) = 2 max_a E[u(aW)]`` and the best cap
is ``1/a``.  That objective is concave in ``a``: its slope at ``a = 1/k``
has the sign of ``E[W(k - W); W <= k]``, which turns once as ``k`` rises
through the sorted gains.  A bisection over the gains, one exact sign test
per probe, finds the kept states ``{W <= k}`` in O(S log S); the cap
``k = E[W^2; W <= k] / E[W; W <= k]`` and the ratio then come from
exactly rounded sums over them.  The cap satisfies the first-order condition
``E[W; aW <= 1] = a E[W^2; aW <= 1]`` at ``a = 1/k``, which doubles as a
built-in verification.

Over a market's zero-cost payoffs ``sup MHR^2 = 2 max E[u(W)]`` for the same
utility; ``monotone_hj_bound`` solves that concave program exactly with an
active-set Newton method and an exact line search along each step, which
bisects the kinks of the slope in the same way.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalInvariantError,
    NegativeKernelError,
    NoDownsideError,
    NonPositiveMeanError,
)
from .kernel import _require_scenarios, check_kernel
from .market import GramMarket
from .moments import ScenarioPayoff, fsum_rows, hr_to_sr, stats

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


def _stationary_cap(q, w, terms, lo: float, hi: float) -> tuple[float, float] | None:
    """``(ratio, cap)`` of the payoff capped at ``E[W^2; W <= lo] / E[W; W <= lo]``,
    or ``None`` unless that cap lies in ``[lo, hi]``; ``terms`` are the
    statewise ``(q W, q W^2)``."""
    kept = w <= lo
    mean, second = fsum_rows(terms[:, kept])
    unit = 1.0
    if mean > 0.0 and second < sys.float_info.min:
        # The kept states are so small that their second moment underflows:
        # take the moments in units of lo, a power of two, so exactly scaled.
        unit = math.ldexp(1.0, math.frexp(lo)[1])
        lo, hi, kept_w = lo / unit, hi / unit, w[kept] / unit
        with np.errstate(over="ignore"):
            mean, second = fsum_rows(np.array((q[kept] * kept_w, q[kept] * kept_w * kept_w)))
    if mean <= 0.0:
        return None
    cap = second / mean
    # A cap that is mathematically on an end can round an ulp off it; snap it
    # there so that both segments sharing that end agree on it.
    if math.isfinite(hi) and abs(cap - hi) <= 1e-12 * hi:
        cap = hi
    elif lo > 0.0 and abs(cap - lo) <= 1e-12 * lo:
        cap = lo
    if not lo <= cap <= hi:
        return None
    (tail,) = fsum_rows(q[None, ~kept])
    return (mean + cap * tail) / math.sqrt(second + cap * cap * tail), cap * unit


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
    q, w = payoff.probabilities, payoff.values
    if w.min() >= 0.0:
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

    # The slope of E[u(aW)] at a = 1/c has the sign of E[W(c - W); W <= c],
    # which turns nonnegative once as the cap c rises: bisect the gains for
    # the first level where it has.  In units r = W/level, the kept gains add
    # r(1 - r) >= 0 and the losses |r|(1 + |r|) >= 0, so the sign test
    # subtracts nothing, and a loss that overflows still tips it the right way.
    gain_q, gain_w = q[w > 0.0], w[w > 0.0]
    loss_q, loss_w = q[w < 0.0], w[w < 0.0]
    levels = np.sort(gain_w)  # np.unique would import numpy.ma
    levels = levels[np.append(True, levels[1:] != levels[:-1])]

    def turned(level: float) -> bool:
        with np.errstate(over="ignore"):
            r, s = gain_w / level, loss_w / level
            kept = r <= 1.0
            return gain_q[kept] @ (r[kept] * (1.0 - r[kept])) >= loss_q @ (s * (s - 1.0))

    j = bisect.bisect_left(levels, True, key=turned)
    # The cap lies in (levels[j - 1], levels[j]], up to rounding in the sign
    # test; the exact moments decide between that segment and its
    # neighbours.  A cap on a gain is stationary in both segments that share
    # it, and the larger ratio wins.
    ends = np.concatenate(([0.0], levels, [math.inf]))[max(j - 1, 0) : j + 3].tolist()
    terms = q * w
    terms = np.array((terms, terms * w))
    found = [c for lo, hi in zip(ends, ends[1:]) if (c := _stationary_cap(q, w, terms, lo, hi))]
    if not found:
        raise InternalInvariantError("no stationary cap found for the truncation problem")
    best_ratio, best_cap = max(found, key=lambda rc: (rc[0], -rc[1]))
    alpha_hat = 1.0 / best_cap

    # First-order condition at the reported cap ({alpha*W <= 1} == {W <= cap}).
    foc_mean, foc_second = fsum_rows(terms[:, w <= best_cap])
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
        msr=hr_to_sr(best_ratio) if best_ratio < 1.0 else None,
        k_hat=best_cap,
        alpha_hat=alpha_hat,
        truncated=bool(best_cap < w.max()),
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


def _line_max(q: np.ndarray, x: np.ndarray, dx: np.ndarray) -> float:
    """Maximizer over ``t`` in [0, 1] of the concave, piecewise quadratic
    ``E[u(x + t dx)]``, whose slope ``E[dx (1 - x - t dx)^+]`` has a kink
    where a state crosses 1."""
    slack = 1.0 - x
    q_dx = q * dx
    with np.errstate(all="ignore"):  # states that never cross give no kink in (0, 1)
        kinks = slack / dx
    ends = [*sorted(set(kinks[(kinks > 0.0) & (kinks < 1.0)].tolist())), 1.0]

    # Bisect the kinks for the first end where the slope has turned
    # nonpositive, each slope summed afresh and exactly: a state on its kink
    # adds a term of about zero, so it cannot swamp the others.
    def turned(t: float) -> bool:
        (slope,) = fsum_rows((q_dx * np.maximum(slack - t * dx, 0.0))[None])
        return slope <= 0.0

    j = bisect.bisect_left(ends, True, key=turned)
    if j == len(ends):
        return 1.0
    # Within the segment ending there the slope is lin - t * quad, summed
    # over the states below 1 at its midpoint; where it is flat, its start
    # is a maximizer.
    start = ends[j - 1] if j else 0.0
    kept = slack > 0.5 * (start + ends[j]) * dx
    lin, quad = fsum_rows(np.array((q_dx * slack, q_dx * dx))[:, kept])
    return lin / quad if lin > 0.0 else start


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
    m_plus = np.maximum(1.0 - x, 0.0)
    q_m = q * m_plus
    utility, mean, second = fsum_rows(np.array((q * monotonized_utility(x), q_m, q_m * m_plus)))
    sup_sq = 2.0 * utility
    foc = float(np.abs(q_m @ zero_cost).max())
    if foc > FOC_TOL * max(1.0, float(np.abs(zero_cost).max())):
        raise InternalInvariantError(
            "first-order condition violated at the zero-cost optimum", residual=foc
        )
    gap = sup_sq - (1.0 - mean * mean / second)
    if abs(gap) > 1e-12:
        raise InternalInvariantError("duality gap at the zero-cost optimum", gap=gap)
    return sup_sq


def monotone_hj_bound(market: GramMarket, kernel: ScenarioPayoff) -> MonotoneBoundReport:
    """Check the nonnegative-kernel bounds against the exact zero-cost supremum.

    Maximizes the monotone ratio over the zero-cost subspace exactly and
    verifies ``sup MHR^2 <= 1 - HR^2(kernel)`` and
    ``var(kernel)/mean(kernel)^2 >= sup MSR^2``.  The kernel must be
    nonnegative and pass :func:`~hrfrontier.kernel.check_kernel`.
    """
    _require_scenarios(market, "monotone kernel bound")
    if kernel.values.min() < 0.0:
        raise NegativeKernelError(
            "kernel takes negative values", min_value=float(kernel.values.min())
        )
    # A nonnegative kernel other than zero has a positive mean, so both ratios exist.
    check = check_kernel(kernel, market)
    kernel_hr_sq, kernel_ratio = check.hr_sq_m, check.var_over_mean_sq
    q = market.state_probabilities
    values = market.scenario_values

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
