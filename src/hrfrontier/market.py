"""Finite market models: spanning payoffs described by a Gram matrix.

A market is summarized by the inner products of its spanning payoffs, the
"mean" functional (inner product with the unit payoff), and a price vector.
The same container covers three constructions: an asset universe given by
mean returns and a covariance matrix, an explicit list of scenario payoffs,
and a discounted sequence space of dated cash flows.  A sequence market is a
scenario market too: its states are (date, state) atoms, and one constructor
builds both.  Only the two scenario builders attach states: read-only
arrays, and every Gram entry and mean is one exactly rounded sum over them, so
a market's moments and its states cannot disagree.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping, Sequence

import numpy as np

from ._linalg import spd_factor
from .errors import (
    DegeneratePricesError,
    InvalidBetaError,
    InvalidHorizonError,
    InvalidInputError,
    StateSpaceMismatchError,
)
from .frontier import _solve, special_portfolios
from .moments import Frozen, FrozenValue, ScenarioPayoff, check_states, moment_sums, readonly


def _check_symmetric(a: np.ndarray, name: str) -> None:
    """Reject a finite square ``a`` unless ``max|a - aT| <= 1e-12 * max(1, max|a|)``.

    The difference is formed 32 rows at a time, right of the diagonal only
    (``fl(x - y) = -fl(y - x)``), so no temporary outgrows a band.
    """
    tol = 1e-12 * max(1.0, float(a.max()), -float(a.min()))
    for i in range(0, len(a), 32):
        band = a[i : i + 32, i:] - a[i:, i : i + 32].T
        if float(np.abs(band, out=band).max()) > tol:
            raise InvalidInputError(f"{name} is not symmetric")


class AssetUniverse(Frozen):
    """Asset returns summarized by their means and covariance matrix
    (compared and hashed by identity, like a market).  The covariance's
    checked Cholesky factor is kept, read-only, for the market's solve."""

    def __init__(self, mean_returns: np.ndarray, covariance: np.ndarray) -> None:
        mu = readonly(np.atleast_1d(mean_returns))
        cov = readonly(np.atleast_2d(covariance))
        n = mu.shape[0]
        if n < 1 or mu.ndim != 1:
            raise InvalidInputError("mean returns must be a nonempty vector")
        if cov.shape != (n, n):
            raise InvalidInputError(
                "covariance shape does not match means", shape=list(cov.shape), n=n
            )
        if not (np.isfinite(mu).all() and np.isfinite(cov).all()):
            raise InvalidInputError("mean returns and covariance must be finite")
        _check_symmetric(cov, "covariance matrix")
        factor = spd_factor(cov, name="covariance matrix")
        factor.flags.writeable = False
        vars(self).update(mean_returns=mu, covariance=cov, _factor=factor)

    @property
    def n(self) -> int:
        return self.mean_returns.shape[0]


class GramMarket(Frozen):
    """Market description: Gram matrix, mean functional, and prices.

    A market built by ``gram_from_scenarios`` or ``gram_from_sequence_space``
    also holds the states its moments are sums over, as the read-only arrays
    ``state_probabilities`` (one per state) and ``scenario_values`` (one row
    per state, one column per spanning payoff); statewise operations (kernel
    construction, trees) require them.  A hand-built market has none, and
    ``special_portfolios`` is its one deep check.  ``meta`` carries
    builder-specific diagnostics such as truncation errors.
    ``special_portfolios`` memoizes the market's one solve on the instance.
    Markets are compared and hashed by identity, not by their arrays.
    """

    def __init__(
        self,
        gram: np.ndarray,
        means: np.ndarray,
        prices: np.ndarray,
        meta: Mapping[str, float] = MappingProxyType({}),
    ) -> None:
        gram = readonly(np.atleast_2d(gram))
        means = readonly(np.atleast_1d(means))
        prices = readonly(np.atleast_1d(prices))
        vars(self).update(
            gram=gram,
            means=means,
            prices=prices,
            meta=MappingProxyType(dict(meta)),
            state_probabilities=None,
            scenario_values=None,
        )
        n = gram.shape[0]
        if gram.shape != (n, n) or n < 1:
            raise InvalidInputError("gram matrix must be square and nonempty")
        if means.shape != (n,) or prices.shape != (n,):
            raise InvalidInputError(
                "means/prices must match the gram matrix size", n=n
            )
        if not all(np.isfinite(a).all() for a in (gram, means, prices)):
            raise InvalidInputError("gram matrix, means and prices must be finite")
        _check_symmetric(gram, "gram matrix")
        if not np.any(prices):
            raise DegeneratePricesError("all prices are zero; no unit-cost payoff exists")

    @property
    def n(self) -> int:
        return self.gram.shape[0]

    @property
    def is_scenario_backed(self) -> bool:
        return self.state_probabilities is not None


def gram_from_universe(universe: AssetUniverse) -> GramMarket:
    """Market of fully priced assets: Gram = covariance + outer(means).

    Prices are all one, so portfolio cost equals the sum of weights.  Solved
    on the covariance's factor, G is never factored and the slack not clamped.
    """
    with np.errstate(over="ignore"):  # an infinite Gram matrix is rejected below
        gram = np.outer(universe.mean_returns, universe.mean_returns)
        gram += universe.covariance
    gram.flags.writeable = False
    market = GramMarket(
        gram=gram,
        means=universe.mean_returns,
        prices=np.ones(universe.n),
    )
    _solve(market, universe._factor, covariance=True)
    return market


def gram_from_scenarios(
    basis: Sequence[ScenarioPayoff], prices: Sequence[float]
) -> GramMarket:
    """Market spanned by explicit scenario payoffs on one state space."""
    basis = tuple(basis)
    if not basis:
        raise InvalidInputError("scenario basis is empty")
    q = basis[0].probabilities
    probs = [b.probabilities for b in basis if b.probabilities is not q]
    if probs and (any(p.shape != q.shape for p in probs) or (np.array(probs) != q).any()):
        raise StateSpaceMismatchError("scenario payoffs do not share one state space")
    return _scenario_market(q, np.column_stack([b.values for b in basis]), prices, {})


def _scenario_market(
    q: np.ndarray, values: np.ndarray, prices: Sequence[float], meta: Mapping[str, float]
) -> GramMarket:
    """The one constructor of scenario-backed markets: the moments of the
    states' values, the market holding both, then its solve.  The states are
    checked after the market's own checks, which report a value that
    overflowed in a builder's rescaling as a non-finite moment."""
    q, values = readonly(q), readonly(values)
    means, gram = moment_sums(q, values)
    market = GramMarket(gram, means, prices, meta=meta)
    check_states(q, values)
    vars(market).update(state_probabilities=q, scenario_values=values)
    special_portfolios(market)
    return market


class DatedFlows(Frozen):
    """Cash flows of every spanning element at one date, on a shared state space:
    read-only ``probabilities`` and ``values`` (one row per element)."""

    def __init__(self, date: int, probabilities: np.ndarray, values: np.ndarray) -> None:
        if not isinstance(date, int) or date < 1:
            raise InvalidHorizonError("dates are integers starting at 1", date=date)
        try:
            q, vals = readonly(probabilities), readonly(values)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(
                "cash flows must be numeric arrays", date=date, error=str(exc)
            ) from None
        vars(self).update(date=date, probabilities=q, values=vals)
        if q.ndim != 1 or vals.ndim != 2 or not len(vals):
            raise InvalidInputError("cash flows need one row per element", date=date)
        try:
            check_states(q, vals.T)
        except InvalidInputError as exc:
            exc.context["date"] = date
            raise


class SequenceSpaceSpec(FrozenValue):
    """Discounted sequence space of dated random cash flows.

    The inner product of two cash-flow sequences is
    ``beta/(1-beta) * sum_t beta**t E[v_t w_t]`` over dates ``1..horizon``.
    Dates not listed contribute nothing.
    """

    def __init__(self, beta: float, horizon: int, flows: Sequence[DatedFlows]) -> None:
        if not 0.0 < beta < 1.0:
            raise InvalidBetaError("discount parameter must lie in (0, 1)", beta=beta)
        if not isinstance(horizon, int) or horizon < 1:
            raise InvalidHorizonError("horizon must be an integer >= 1", horizon=horizon)
        flows = tuple(flows)
        vars(self).update(beta=beta, horizon=horizon, flows=flows)
        if not flows:
            raise InvalidInputError("sequence spec lists no cash flows")
        n = len(flows[0].values)
        seen: set[int] = set()
        for flow in flows:
            if flow.date > horizon:
                raise InvalidInputError(
                    "cash flow dated beyond the horizon", date=flow.date, horizon=horizon
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
    """Market on the discounted sequence space, as a scenario market.

    The inner product is an expectation over (date, state) atoms: state ``s``
    of date ``t`` has probability ``beta/(1-beta) * beta**t * q_s / M`` and
    values ``sqrt(M) * v``, where ``M`` is the squared norm of the constant
    cash flow 1 at every date up to the horizon.  That flow, rescaled to norm
    one, is the unit payoff 1 on the atoms.  One zero-valued atom carries the
    mass of the dates up to the horizon that are not listed; an atom whose
    probability underflows to zero is dropped.  The applied scale factor
    ``1/sqrt(M)`` and the geometric tail discarded by truncation are reported
    in ``meta``.
    """
    beta = spec.beta
    lead = beta / (1.0 - beta)
    # Norm of the truncated constant unit cash flow.
    raw_unit_norm_sq = lead * beta * (1.0 - beta**spec.horizon) / (1.0 - beta)
    if raw_unit_norm_sq < sys.float_info.min:
        raise InvalidBetaError("discount parameter underflows floating point", beta=beta)
    root = math.sqrt(raw_unit_norm_sq)
    # The date masses in a form that keeps each at most one: a lone date
    # of a one-date horizon gets exactly 1.
    first = (1.0 - beta) / (1.0 - beta**spec.horizon)
    masses = [first * beta ** (flow.date - 1) for flow in spec.flows]
    q = [mass * flow.probabilities for mass, flow in zip(masses, spec.flows)]
    values = [flow.values.T for flow in spec.flows]
    if len(spec.flows) < spec.horizon:
        q.append([1.0 - math.fsum(masses)])
        values.append(np.zeros((1, spec.n_elements)))
    q, values = np.concatenate(q), np.concatenate(values)
    kept = q > 0.0
    with np.errstate(over="ignore"):  # the market rejects infinite values
        values = root * values[kept]
    meta = {
        "unit_payoff_scale": 1.0 / root,
        "truncation_tail": beta ** (spec.horizon + 1) / (1.0 - beta),
    }
    return _scenario_market(q[kept], values, prices, meta)


def _float_array(data: Mapping[str, Any], name: str) -> np.ndarray:
    try:
        return readonly(data[name])
    except (ValueError, TypeError, OverflowError) as exc:
        raise InvalidInputError(
            "market field is not a numeric array", field=name, error=str(exc)
        ) from None


def _whole(value: Any) -> int:
    number = float(value)
    if not number.is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(number)


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
            special_portfolios(market)
            return market
        if kind == "sequence":
            try:
                flows = tuple(
                    DatedFlows(
                        date=_whole(entry["date"]),
                        probabilities=entry["probabilities"],
                        values=entry["values"],
                    )
                    for entry in data["flows"]
                )
                beta, horizon = float(data["beta"]), _whole(data.get("horizon", 64))
            except (TypeError, ValueError, OverflowError) as exc:
                raise InvalidInputError(
                    "malformed sequence market", error=str(exc)
                ) from None
            spec = SequenceSpaceSpec(beta=beta, horizon=horizon, flows=flows)
            return gram_from_sequence_space(spec, _float_array(data, "prices"))
    except KeyError as exc:
        raise InvalidInputError(
            "market JSON is missing a required field", kind=kind, field=str(exc)
        ) from None
    raise InvalidInputError("unknown market kind", kind=kind)
