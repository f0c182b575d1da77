"""Special portfolios and the efficient frontier of a market.

Three portfolios pin down the whole frontier:

* ``y``: the unique unit-cost portfolio orthogonal to every zero-cost
  position; it has the smallest second moment among unit-cost portfolios and
  its scaled payoff prices the market.
* ``x``: the zero-cost portfolio with the highest expected quadratic
  utility; equivalently the projection of the bliss payoff 1 onto the
  zero-cost subspace.  Its mean, second moment, and squared mean/L2 ratio
  coincide.
* ``z``: the minimum-variance unit-cost portfolio, ``y + mu_z * x``.

Every efficient unit-cost portfolio is ``y + lambda * x``, which gives the
frontier as a parabola in both (mean, L2-norm) and (mean, std) coordinates.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from ._linalg import check_pivots, spd_factor, triangular_solve
from .errors import (
    ArbitrageError,
    DegenerateFrontierError,
    InternalInvariantError,
    InvalidInputError,
)

if TYPE_CHECKING:
    from .market import GramMarket
    from .multiperiod import MultiperiodStats

#: Solving is refused when the best zero-cost squared ratio reaches 1 - this.
ARBITRAGE_TOL = 1e-10
#: Below this squared ratio the zero-cost side is treated as empty of
#: opportunities and the frontier degenerates to a point per cost level.
DEGENERATE_X_TOL = 1e-14
#: Rounding allowed in the feasibility test of a market factored on G:
#: ``hr_sq_x + hr_sq_y`` may exceed one by this much; the slack is clamped to 0.
VARIANCE_CLAMP_TOL = 1e-12
#: The frontier ratio bound is attained only when the mean of y is nonzero.
MEAN_Y_ZERO_TOL = 1e-12


class SpecialPortfolios(NamedTuple):
    """Weights and summary statistics of the portfolios y, x, and z.

    ``slack`` is the squared ratio left to payoffs outside the market, clamped
    at zero only on markets factored on G (a universe's is positive).  The
    statistics of z are formed from it, never from ``1 - hr_sq_x``.
    """

    w_y: np.ndarray
    w_x: np.ndarray
    w_z: np.ndarray
    mu_y: float
    omega_sq_y: float
    hr_sq_y: float
    hr_sq_x: float
    slack: float
    mu_z: float
    sigma_sq_z: float
    max_hr_attained: bool

    def to_dict(self) -> dict:
        """Every field but ``slack``, in order, with the weights as lists."""
        fields = self._asdict()
        del fields["slack"]
        return {k: v.tolist() if k.startswith("w_") else v for k, v in fields.items()}


class Parabola(NamedTuple):
    """``value(mu) = level + curvature * (mu - center)**2``, for a float or an
    array of means."""

    level: float
    curvature: float
    center: float

    def __call__(self, mu: float | np.ndarray) -> float | np.ndarray:
        d = mu - self.center
        return self.level + self.curvature * (d * d)


class FrontierCoefficients(NamedTuple):
    """Frontier parabolas in (mean, second-moment) and (mean, variance) form.

    ``degenerate`` markets (no zero-cost opportunity) have no parabolas: the
    frontier is the single portfolio y per cost level.
    """

    mu_omega: Parabola | None
    mu_sigma: Parabola | None

    @property
    def degenerate(self) -> bool:
        return self.mu_omega is None

    def to_dict(self) -> dict:
        return {
            "degenerate": self.degenerate,
            "mu_omega": None if self.degenerate else self.mu_omega._asdict(),
            "mu_sigma": None if self.degenerate else self.mu_sigma._asdict(),
        }


class FrontierPoint(NamedTuple):
    mu: float
    omega: float
    sigma: float


class HansenBoundReport(NamedTuple):
    """Sum of the squared ratios of x and y against the hard bound of one."""

    hr_sq_x: float
    hr_sq_y: float
    total: float
    slack: float
    passed: bool


def _z_stats(
    mu_y: float, omega_sq_y: float, hr_sq_y: float, hr_sq_x: float, slack: float
) -> tuple[float, float]:
    """Mean and variance of the minimum-variance unit-cost portfolio.

    With ``1 - hr_sq_x = hr_sq_y + slack``, ``mu_z = mu_y / (1 - hr_sq_x)``
    and ``sigma_sq_z = omega_sq_y * slack / (1 - hr_sq_x)``.
    """
    if hr_sq_x >= 1.0 - ARBITRAGE_TOL:
        raise ArbitrageError(
            "market admits a (numerically) riskless zero-cost profit", hr_sq_x=hr_sq_x
        )
    return mu_y / (hr_sq_y + slack), omega_sq_y * slack / (hr_sq_y + slack)


def special_portfolios(market: GramMarket) -> SpecialPortfolios:
    """Solve all three special portfolios off one factorization.

    This is the market's only solve, in the coordinates of the Cholesky
    factor ``G = L L^T``.  One forward sweep of ``[p | m]`` gives
    ``c = L^-1 p`` and ``b = L^-1 m``, and every ratio is a squared norm:
    ``omega_sq_y = 1/|c|^2``, ``mu_y = (b.c) omega_sq_y`` and
    ``hr_sq_x = |b_x|^2`` for the part ``b_x = b - mu_y c`` of ``b`` across
    ``c``, so no ratio can come out negative.  Last, after every check, one
    back sweep of ``[omega_sq_y c | b_x]`` with ``L^T`` gives ``w_y`` and
    ``w_x``; both sweeps are blocked triangular substitution.  The result is
    memoized on the market, which is frozen with read-only arrays, so the
    memo cannot go stale; its weight arrays are read-only too.  A universe
    market is solved when it is built, on its covariance factor (``_solve``),
    and never factors ``G``.
    """
    memo = market.__dict__.get("_special_portfolios")
    if memo is not None:
        return memo
    return _solve(market, spd_factor(market.gram))


def _solve(
    market: GramMarket, lower: np.ndarray, *, covariance: bool = False
) -> SpecialPortfolios:
    """``special_portfolios`` on ``lower``: the Cholesky factor ``L`` of
    ``G``, or, with ``covariance``, the factor ``C`` of a universe's
    covariance ``G - m m^T`` (prices all one), in Merton's (1972) forms.

    Both kinds test range, arbitrage (``_z_stats``) and feasibility, then sweep back.
    The universe's sweep of ``[1 | m - lam]``, ``lam`` the average mean,
    forms ``b_x = C^-1 m - mu_z c`` from centered means, so it keeps its
    digits when the means are nearly equal.  With ``d = |b_x|^2`` and
    ``t_n = 1 + |C^-1 m|^2 = 1 + d + |c|^2 mu_z^2``: ``hr_sq_x = d/(1+d)``,
    ``mu_y = mu_z/(1+d)``, ``omega_sq_y = t_n/(|c|^2 (1+d))``, and the slack
    ``1/t_n`` is positive, so none subtracts from one.  G's pivots are
    ``(C_jj sqrt(t_j / t_(j-1)))^2`` for ``t_j = 1 + v_1^2 + ... + v_j^2``,
    ``v = C^-1 m`` and ``t_0 = 1`` (Gill, Golub, Murray & Saunders 1974),
    tested as ``spd_factor`` tests a factor's; G itself is never factored.
    """
    lam = float(market.means.sum()) / len(market.means) if covariance else 0.0
    with np.errstate(all="ignore"):  # a solve beyond the float range is rejected below
        forward = triangular_solve(
            lower, np.column_stack((market.prices, market.means - lam)), lower=True
        )
        c, b = forward.T
        if covariance:
            # sqrt(t_j / t_(j-1)) is hypot(1, v_j / sqrt(t_(j-1))), which stays
            # finite (and the pivots with it) when v_j^2 or t_j overflows.
            v = b + lam * c
            t_prev = np.concatenate(([1.0], 1.0 + (v * v).cumsum()[:-1]))
            root_r = np.hypot(1.0, v / np.sqrt(t_prev))
            check_pivots((lower.diagonal() * root_r) ** 2, market.gram)
        c_sq = float(c @ c)
        if 0.0 < c_sq < math.inf:
            inv = 1.0 / c_sq
            shift = float(b @ c) * inv
            b_x = b - shift * c
            d = float(b_x @ b_x)
            if covariance:
                merton_mu_z = shift + lam  # the record's is _z_stats'
                t_n = 1.0 + d + c_sq * merton_mu_z * merton_mu_z
                hr_sq_x, slack = d / (1.0 + d), 1.0 / t_n
                mu_y, omega_sq_y = merton_mu_z / (1.0 + d), t_n * inv / (1.0 + d)
                b_x /= 1.0 + d
            else:
                omega_sq_y, mu_y, hr_sq_x = inv, shift, d
            hr_sq_y = mu_y * mu_y / omega_sq_y
            # Finite ratios leave no inf or NaN in the weights they sum.
            solved = all(map(math.isfinite, (omega_sq_y, hr_sq_y, hr_sq_x)))
        if not (0.0 < c_sq < math.inf and solved):
            raise InvalidInputError("the market's solve leaves the floating-point range")
        if not covariance:
            # hr_sq_x + hr_sq_y <= 1 in any payoff space, but a hand-written
            # Gram matrix can break it.  An excess within the tolerance (on the
            # ratios, whatever the payoffs' scale) is rounding; it is clamped.
            unclamped = 1.0 - hr_sq_x - hr_sq_y
            slack = max(0.0, unclamped)
        # The one arbitrage test: a free lunch is reported before infeasibility.
        mu_z, sigma_sq_z = _z_stats(mu_y, omega_sq_y, hr_sq_y, hr_sq_x, slack)
        if not covariance and unclamped < -VARIANCE_CLAMP_TOL:
            raise InvalidInputError(
                "no payoff space has these moments: hr_sq_x + hr_sq_y exceeds one",
                hr_sq_x=hr_sq_x,
                hr_sq_y=hr_sq_y,
            )
        y_rhs = inv * c - mu_z * b_x if covariance else omega_sq_y * c
        w_y, w_x = triangular_solve(lower.T, np.column_stack((y_rhs, b_x)), lower=False).T
    w_z = w_y + mu_z * w_x
    for weights in (w_y, w_x, w_z):
        weights.flags.writeable = False
    # hypot neither overflows nor underflows where the plain norm would.
    scale = max(1.0, math.hypot(*market.means.tolist()) * math.hypot(*w_y.tolist()))
    memo = SpecialPortfolios(
        w_y=w_y,
        w_x=w_x,
        w_z=w_z,
        mu_y=mu_y,
        omega_sq_y=omega_sq_y,
        hr_sq_y=hr_sq_y,
        hr_sq_x=hr_sq_x,
        slack=slack,
        mu_z=mu_z,
        sigma_sq_z=sigma_sq_z,
        max_hr_attained=abs(mu_y) > MEAN_Y_ZERO_TOL * scale,
    )
    object.__setattr__(market, "_special_portfolios", memo)
    return memo


def frontier_coefficients(stats: SpecialPortfolios | MultiperiodStats) -> FrontierCoefficients:
    """Both frontier parabolas, from the ratios of a market's one period
    (:class:`SpecialPortfolios`) or of its n periods (``MultiperiodStats``);
    degenerate, with no parabolas, when x is the null portfolio."""
    hr_sq_x = stats.hr_sq_x
    if hr_sq_x <= DEGENERATE_X_TOL:
        return FrontierCoefficients(mu_omega=None, mu_sigma=None)
    mu_z, sigma_sq_z = _z_stats(stats.mu_y, stats.omega_sq_y, stats.hr_sq_y, hr_sq_x, stats.slack)
    mu_omega = Parabola(level=stats.omega_sq_y, curvature=1.0 / hr_sq_x, center=stats.mu_y)
    mu_sigma = Parabola(level=sigma_sq_z, curvature=1.0 / hr_sq_x - 1.0, center=mu_z)
    return FrontierCoefficients(mu_omega=mu_omega, mu_sigma=mu_sigma)


def frontier_points(
    coefficients: FrontierCoefficients, mu_grid: Sequence[float]
) -> list[FrontierPoint]:
    """Evaluate both parabolas on a grid of means, as one array expression.

    The pointwise identity ``omega**2 - mu**2 = sigma**2`` is re-checked to
    1e-10; a violation means the coefficients are inconsistent.  A mean whose
    squared norm leaves the floating-point range is invalid input.  Either
    failure is raised for the first such mean of the grid.
    """
    if coefficients.degenerate:
        raise DegenerateFrontierError(
            "degenerate frontier has no parabola to evaluate"
        )
    mu = np.array(mu_grid, dtype=float)
    with np.errstate(all="ignore"):  # overflow is rejected below, point by point
        omega_sq = coefficients.mu_omega(mu)
        sigma_sq = coefficients.mu_sigma(mu)
        mu_sq = mu * mu
        # mu**2 <= omega**2, so an overflowing mu**2 is an overflowing point.
        overflow = ~(np.isfinite(omega_sq) & np.isfinite(sigma_sq) & np.isfinite(mu_sq))
        residual = np.abs(omega_sq - mu_sq - sigma_sq)
        broken = residual > 1e-10 * np.maximum(1.0, np.abs(omega_sq))
    bad = np.flatnonzero(overflow | broken)
    if bad.size:
        i = bad[0]
        context = {
            "mu": float(mu[i]),
            "omega_sq": float(omega_sq[i]),
            "sigma_sq": float(sigma_sq[i]),
        }
        if overflow[i]:
            raise InvalidInputError(
                "frontier point leaves the floating-point range", **context
            )
        raise InternalInvariantError(
            "frontier parabolas violate omega^2 - mu^2 = sigma^2", **context
        )
    return list(
        map(FrontierPoint, mu.tolist(), np.sqrt(omega_sq).tolist(), np.sqrt(sigma_sq).tolist())
    )


def check_hansen_bound(sp: SpecialPortfolios) -> HansenBoundReport:
    """Check ``hr_sq_x + hr_sq_y <= 1``; the slack is the squared ratio left
    to payoffs outside the market, clamped at zero on markets factored on G."""
    total = sp.hr_sq_x + sp.hr_sq_y
    return HansenBoundReport(
        hr_sq_x=sp.hr_sq_x,
        hr_sq_y=sp.hr_sq_y,
        total=total,
        slack=sp.slack,
        passed=total <= 1.0 + 1e-10,
    )
