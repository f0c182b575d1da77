"""Finite market models: spanning payoffs described by a Gram matrix.

A market is summarized by the inner products of its spanning payoffs, the
"mean" functional (inner product with the unit payoff), and a price vector.
The same container covers three constructions: an asset universe given by
mean returns and a covariance matrix, an explicit list of scenario payoffs,
and a discounted sequence space of dated cash flows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping, Sequence

import numpy as np

from ._linalg import spd_factor
from .errors import (
    DegeneratePricesError,
    HRFrontierError,
    InvalidBetaError,
    InvalidHorizonError,
    InvalidInputError,
    NotPositiveDefiniteError,
    StateSpaceMismatchError,
)
from .moments import ScenarioPayoff

#: Solving is refused when the best zero-cost squared ratio reaches 1 - this.
ARBITRAGE_TOL = 1e-10
#: Scenario-backed Gram entries must match direct expectations this closely.
SCENARIO_CONSISTENCY_TOL = 1e-10


def _readonly(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class AssetUniverse:
    """Asset returns summarized by their means and covariance matrix."""

    mean_returns: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        mu = _readonly(np.atleast_1d(self.mean_returns))
        cov = _readonly(np.atleast_2d(self.covariance))
        object.__setattr__(self, "mean_returns", mu)
        object.__setattr__(self, "covariance", cov)
        n = mu.shape[0]
        if n < 1 or mu.ndim != 1:
            raise InvalidInputError("mean returns must be a nonempty vector")
        if cov.shape != (n, n):
            raise InvalidInputError(
                "covariance shape does not match means", shape=list(cov.shape), n=n
            )
        if not (np.isfinite(mu).all() and np.isfinite(cov).all()):
            raise InvalidInputError("mean returns and covariance must be finite")
        scale = max(1.0, float(np.abs(cov).max()))
        if float(np.abs(cov - cov.T).max()) > 1e-12 * scale:
            raise InvalidInputError("covariance matrix is not symmetric")
        spd_factor(cov, name="covariance matrix")

    @property
    def n(self) -> int:
        return self.mean_returns.shape[0]


@dataclass(frozen=True)
class GramMarket:
    """Market description: Gram matrix, mean functional, and prices.

    ``scenario_basis`` is present when the spanning payoffs are explicit
    scenario distributions on one common state space; statewise operations
    (kernel construction, trees) require it.  ``meta`` carries
    builder-specific diagnostics such as truncation errors.
    ``special_portfolios`` memoizes the market's one solve on the instance.
    """

    gram: np.ndarray
    means: np.ndarray
    prices: np.ndarray
    scenario_basis: tuple[ScenarioPayoff, ...] | None = None
    meta: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        gram = _readonly(np.atleast_2d(self.gram))
        means = _readonly(np.atleast_1d(self.means))
        prices = _readonly(np.atleast_1d(self.prices))
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "meta", MappingProxyType(dict(self.meta)))
        n = gram.shape[0]
        if gram.shape != (n, n) or n < 1:
            raise InvalidInputError("gram matrix must be square and nonempty")
        if means.shape != (n,) or prices.shape != (n,):
            raise InvalidInputError(
                "means/prices must match the gram matrix size", n=n
            )
        if not all(np.isfinite(a).all() for a in (gram, means, prices)):
            raise InvalidInputError("gram matrix, means and prices must be finite")
        scale = max(1.0, float(np.abs(gram).max()))
        if float(np.abs(gram - gram.T).max()) > 1e-12 * scale:
            raise InvalidInputError("gram matrix is not symmetric")
        if not np.any(prices):
            raise DegeneratePricesError("all prices are zero; no unit-cost payoff exists")
        if self.scenario_basis is not None:
            basis = tuple(self.scenario_basis)
            object.__setattr__(self, "scenario_basis", basis)
            if len(basis) != n:
                raise InvalidInputError(
                    "scenario basis length does not match gram size",
                    basis=len(basis),
                    n=n,
                )
            ref = basis[0].probabilities
            for payoff in basis[1:]:
                if payoff.probabilities != ref:
                    raise StateSpaceMismatchError(
                        "scenario payoffs do not share one state space"
                    )

    @property
    def n(self) -> int:
        return self.gram.shape[0]

    @property
    def is_scenario_backed(self) -> bool:
        return self.scenario_basis is not None

    @property
    def state_probabilities(self) -> np.ndarray:
        if self.scenario_basis is None:
            raise InvalidInputError("market has no scenario basis")
        return np.array(self.scenario_basis[0].probabilities)

    @property
    def scenario_values(self) -> np.ndarray:
        """State-by-asset payoff matrix of the scenario basis."""
        if self.scenario_basis is None:
            raise InvalidInputError("market has no scenario basis")
        return np.column_stack([np.array(b.values) for b in self.scenario_basis])


def validate_market(market: GramMarket) -> None:
    """Deep validation: positive definiteness, scenario consistency, no free lunch.

    Positive definiteness, the no-free-lunch test (the best squared mean/L2
    ratio at zero cost stays below one) and the feasibility of the moments
    all come from the market's one solve, ``special_portfolios``; scenario
    consistency is reported after the first and before the others.

    Builders call this before returning; hand-rolled ``GramMarket`` instances
    can be checked explicitly.
    """
    from .frontier import special_portfolios  # frontier imports this module

    try:
        special_portfolios(market)
    except NotPositiveDefiniteError:
        raise
    except HRFrontierError:
        _check_scenario_consistency(market)
        raise
    _check_scenario_consistency(market)


def _check_scenario_consistency(market: GramMarket) -> None:
    if market.scenario_basis is None:
        return
    q = market.state_probabilities
    vals = market.scenario_values
    gram_direct = (vals * q[:, None]).T @ vals
    means_direct = q @ vals
    scale = max(1.0, float(np.abs(market.gram).max()))
    if float(np.abs(gram_direct - market.gram).max()) > SCENARIO_CONSISTENCY_TOL * scale:
        raise InvalidInputError(
            "gram matrix disagrees with scenario expectations"
        )
    if float(np.abs(means_direct - market.means).max()) > SCENARIO_CONSISTENCY_TOL * scale:
        raise InvalidInputError(
            "mean vector disagrees with scenario expectations"
        )


def gram_from_universe(universe: AssetUniverse) -> GramMarket:
    """Market of fully priced assets: Gram = covariance + outer(means).

    Prices are all one, so portfolio cost equals the sum of weights.
    """
    gram = universe.covariance + np.outer(universe.mean_returns, universe.mean_returns)
    market = GramMarket(
        gram=gram,
        means=universe.mean_returns,
        prices=np.ones(universe.n),
    )
    validate_market(market)
    return market


def gram_from_scenarios(
    basis: Sequence[ScenarioPayoff], prices: Sequence[float]
) -> GramMarket:
    """Market spanned by explicit scenario payoffs on one state space."""
    basis = tuple(basis)
    if not basis:
        raise InvalidInputError("scenario basis is empty")
    prices_arr = np.asarray(list(prices), dtype=float)
    if prices_arr.shape != (len(basis),):
        raise InvalidInputError(
            "price vector length does not match basis",
            prices=prices_arr.shape[0] if prices_arr.ndim == 1 else -1,
            basis=len(basis),
        )
    ref = basis[0].probabilities
    for payoff in basis[1:]:
        if payoff.probabilities != ref:
            raise StateSpaceMismatchError(
                "scenario payoffs do not share one state space"
            )
    n = len(basis)
    values = [b.values for b in basis]
    gram = np.empty((n, n))
    means = np.empty(n)
    for i in range(n):
        means[i] = math.fsum(p * v for p, v in zip(ref, values[i]))
        for j in range(i, n):
            gram[i, j] = gram[j, i] = math.fsum(
                p * vi * vj for p, vi, vj in zip(ref, values[i], values[j])
            )
    market = GramMarket(gram=gram, means=means, prices=prices_arr, scenario_basis=basis)
    validate_market(market)
    return market


def scenario_universe(universe: AssetUniverse) -> GramMarket:
    """Scenario-backed market that matches a universe's moments exactly.

    Lifts the assets onto ``2**ceil(log2(n + 1))`` equally likely states using
    sign patterns with identity covariance, so means and covariances are
    reproduced to machine precision.  Useful when statewise operations are
    needed but only (means, covariance) are known.
    """
    n = universe.n
    hadamard = np.ones((1, 1))
    while hadamard.shape[0] < n + 1:  # Sylvester's construction
        hadamard = np.block([[hadamard, hadamard], [hadamard, -hadamard]])
    n_states = hadamard.shape[0]
    signs = hadamard[1 : n + 1, :]
    lower = spd_factor(universe.covariance, name="covariance matrix")
    values = (universe.mean_returns[:, None] + lower @ signs).T
    probs = np.full(n_states, 1.0 / n_states)
    basis = [
        ScenarioPayoff.from_arrays(probs, values[:, i]) for i in range(n)
    ]
    return gram_from_scenarios(basis, np.ones(n))


@dataclass(frozen=True)
class DatedFlows:
    """Cash flows of every spanning element at one date, on a shared state space."""

    date: int
    probabilities: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]  # [element][state]

    def __post_init__(self) -> None:
        if not isinstance(self.date, int) or self.date < 1:
            raise InvalidHorizonError("dates are integers starting at 1", date=self.date)
        probs = tuple(float(p) for p in self.probabilities)
        vals = tuple(tuple(float(v) for v in row) for row in self.values)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "values", vals)
        if not probs or any(not 0.0 < p <= 1.0 for p in probs):
            raise InvalidInputError("date probabilities must lie in (0, 1]", date=self.date)
        if abs(math.fsum(probs) - 1.0) > 1e-12:
            raise InvalidInputError("date probabilities do not sum to one", date=self.date)
        if not vals or any(len(row) != len(probs) for row in vals):
            raise InvalidInputError(
                "cash-flow rows must match the number of states", date=self.date
            )
        if not all(math.isfinite(v) for row in vals for v in row):
            raise InvalidInputError("cash flows must be finite", date=self.date)


@dataclass(frozen=True)
class SequenceSpaceSpec:
    """Discounted sequence space of dated random cash flows.

    The inner product of two cash-flow sequences is
    ``beta/(1-beta) * sum_t beta**t E[v_t w_t]`` over dates ``1..horizon``.
    Dates not listed contribute nothing.
    """

    beta: float
    horizon: int
    flows: tuple[DatedFlows, ...]

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < 1.0:
            raise InvalidBetaError("discount parameter must lie in (0, 1)", beta=self.beta)
        if not isinstance(self.horizon, int) or self.horizon < 1:
            raise InvalidHorizonError("horizon must be an integer >= 1", horizon=self.horizon)
        flows = tuple(self.flows)
        object.__setattr__(self, "flows", flows)
        if not flows:
            raise InvalidInputError("sequence spec lists no cash flows")
        n = len(flows[0].values)
        seen: set[int] = set()
        for flow in flows:
            if flow.date > self.horizon:
                raise InvalidInputError(
                    "cash flow dated beyond the horizon", date=flow.date, horizon=self.horizon
                )
            if flow.date in seen:
                raise InvalidInputError("duplicate cash-flow date", date=flow.date)
            seen.add(flow.date)
            if len(flow.values) != n:
                raise InvalidInputError(
                    "inconsistent number of elements across dates", date=flow.date
                )

    @property
    def n_elements(self) -> int:
        return len(self.flows[0].values)


def gram_from_sequence_space(
    spec: SequenceSpaceSpec, prices: Sequence[float]
) -> GramMarket:
    """Market on the discounted sequence space.

    The unit payoff is the constant cash flow 1 at every date up to the
    horizon, rescaled to norm one; the applied scale factor and the geometric
    tail discarded by truncation are reported in ``meta``.
    """
    beta = spec.beta
    n = spec.n_elements
    prices_arr = np.asarray(list(prices), dtype=float)
    if prices_arr.shape != (n,):
        raise InvalidInputError(
            "price vector length does not match spec", n=n
        )
    lead = beta / (1.0 - beta)
    gram = np.zeros((n, n))
    raw_means = np.zeros(n)
    for flow in spec.flows:
        weight = lead * beta**flow.date
        q = flow.probabilities
        for i in range(n):
            raw_means[i] += weight * math.fsum(
                p * v for p, v in zip(q, flow.values[i])
            )
            for j in range(i, n):
                cross = weight * math.fsum(
                    p * vi * vj for p, vi, vj in zip(q, flow.values[i], flow.values[j])
                )
                gram[i, j] += cross
                if j != i:
                    gram[j, i] += cross
    # Norm of the truncated constant unit cash flow.
    raw_unit_norm_sq = lead * beta * (1.0 - beta**spec.horizon) / (1.0 - beta)
    scale = 1.0 / math.sqrt(raw_unit_norm_sq)
    means = raw_means * scale
    market = GramMarket(
        gram=gram,
        means=means,
        prices=prices_arr,
        meta={
            "unit_payoff_scale": scale,
            "truncation_tail": beta ** (spec.horizon + 1) / (1.0 - beta),
        },
    )
    validate_market(market)
    return market


def _float_array(data: Mapping[str, Any], name: str) -> np.ndarray:
    try:
        return np.asarray(data[name], dtype=float)
    except (ValueError, TypeError) as exc:
        raise InvalidInputError(
            "market field is not a numeric array", field=name, error=str(exc)
        ) from None


def market_from_json(source: str | Path | Mapping[str, Any]) -> GramMarket:
    """Load a market from a JSON file or an already-parsed mapping.

    Accepted ``kind`` values: ``universe`` (``mu``, ``sigma``), ``gram``
    (``G``, ``m``, ``p``), and ``sequence`` (``beta``, ``prices``, ``flows``,
    optional ``horizon`` defaulting to 64).
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise InvalidInputError(
                    "market file is not valid JSON", path=str(source), error=str(exc)
                ) from None
    else:
        data = dict(source)
    if not isinstance(data, dict) or "kind" not in data:
        raise InvalidInputError("market JSON needs a 'kind' field")
    kind = data["kind"]
    try:
        if kind == "universe":
            universe = AssetUniverse(
                mean_returns=_float_array(data, "mu"),
                covariance=_float_array(data, "sigma"),
            )
            return gram_from_universe(universe)
        if kind == "gram":
            market = GramMarket(
                gram=_float_array(data, "G"),
                means=_float_array(data, "m"),
                prices=_float_array(data, "p"),
            )
            validate_market(market)
            return market
        if kind == "sequence":
            flows = tuple(
                DatedFlows(
                    date=int(entry["date"]),
                    probabilities=tuple(entry["probabilities"]),
                    values=tuple(tuple(row) for row in entry["values"]),
                )
                for entry in data["flows"]
            )
            spec = SequenceSpaceSpec(
                beta=float(data["beta"]),
                horizon=int(data.get("horizon", 64)),
                flows=flows,
            )
            return gram_from_sequence_space(spec, _float_array(data, "prices"))
    except KeyError as exc:
        raise InvalidInputError(
            "market JSON is missing a required field", kind=kind, field=str(exc)
        ) from None
    raise InvalidInputError("unknown market kind", kind=kind)
