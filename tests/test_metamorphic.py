"""Metamorphic and exactness tests of scenario markets.

Permuting the states or the assets, merging duplicated states and rescaling
the payoffs or the prices describe the same market, so its ratios and bounds
must not move.  Every Gram entry and mean is one exactly rounded sum, which
makes some of these invariances exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from hrfrontier import (
    GramMarket,
    InvalidInputError,
    ScenarioPayoff,
    gram_from_scenarios,
    market_from_json,
    monotone_hj_bound,
    special_portfolios,
)
from conftest import random_probs

RATIOS = ("hr_sq_x", "hr_sq_y")


def priced(rng: np.random.Generator, n_states: int, n_assets: int):
    """Probabilities, payoffs, a strictly positive kernel and the prices it sets."""
    probs = random_probs(rng, n_states)
    values = rng.uniform(-0.5, 2.0, (n_states, n_assets))
    kernel = rng.uniform(0.3, 1.7, n_states)
    return probs, values, kernel, (probs * kernel) @ values


def market_of(probs, values, prices) -> GramMarket:
    basis = [ScenarioPayoff.from_arrays(probs, column) for column in values.T]
    return gram_from_scenarios(basis, prices)


def bound_of(market: GramMarket, probs, kernel) -> float:
    return monotone_hj_bound(market, ScenarioPayoff.from_arrays(probs, kernel)).sup_mhr_sq


def cases(seed: int, count: int = 25):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_states = int(rng.integers(4, 40))
        yield rng, priced(rng, n_states, int(rng.integers(2, min(5, n_states))))


def test_permuting_the_states_changes_nothing():
    for rng, (probs, values, kernel, prices) in cases(91):
        market = market_of(probs, values, prices)
        order = rng.permutation(len(probs))
        permuted = market_of(probs[order], values[order], prices)
        # Compensated sums do not depend on the order of their terms.
        assert np.array_equal(permuted.gram, market.gram)
        assert np.array_equal(permuted.means, market.means)
        assert special_portfolios(permuted).to_dict() == special_portfolios(market).to_dict()
        assert bound_of(permuted, probs[order], kernel[order]) == pytest.approx(
            bound_of(market, probs, kernel), abs=1e-14
        )


def test_permuting_the_assets_changes_no_ratio():
    for rng, (probs, values, kernel, prices) in cases(92):
        market = market_of(probs, values, prices)
        order = rng.permutation(values.shape[1])
        permuted = market_of(probs, values[:, order], prices[order])
        reordered = market.gram[np.ix_(order, order)]
        assert np.allclose(permuted.gram, reordered, rtol=1e-14, atol=0.0)
        sp, sp_permuted = special_portfolios(market), special_portfolios(permuted)
        for name in RATIOS:
            assert getattr(sp_permuted, name) == pytest.approx(getattr(sp, name), abs=1e-14)
        assert bound_of(permuted, probs, kernel) == pytest.approx(
            bound_of(market, probs, kernel), abs=1e-14
        )


def test_merging_duplicated_states_changes_nothing():
    for rng, (probs, values, kernel, prices) in cases(93):
        # Split some states in two, in random proportions, and append the copies.
        split = rng.choice(len(probs), size=int(rng.integers(1, len(probs))), replace=False)
        share = rng.uniform(0.1, 0.9, len(split))
        split_probs = probs.copy()
        split_probs[split] *= share
        split_probs = np.concatenate((split_probs, probs[split] * (1.0 - share)))
        rows = np.concatenate((np.arange(len(probs)), split))
        duplicated = market_of(split_probs, values[rows], prices)
        market = market_of(probs, values, prices)
        want, got = special_portfolios(market).to_dict(), special_portfolios(duplicated).to_dict()
        for key, value in want.items():
            assert np.allclose(got[key], value, rtol=1e-14, atol=1e-14), key
        assert bound_of(duplicated, split_probs, kernel[rows]) == pytest.approx(
            bound_of(market, probs, kernel), abs=1e-14
        )


@pytest.mark.parametrize("c", [1e-9, 1e9])
@pytest.mark.parametrize("d", [1e-6, 3.0, 1e6])
def test_scaling_the_payoffs_and_the_prices_fixes_the_ratios(c, d):
    # The scaled payoffs span the same space; prices only rescale y.
    for _rng, (probs, values, _kernel, prices) in cases(94):
        sp = special_portfolios(market_of(probs, values, prices))
        scaled = special_portfolios(market_of(probs, values * c, prices * d))
        for name in RATIOS:
            assert getattr(scaled, name) == pytest.approx(getattr(sp, name), abs=1e-14)


@pytest.mark.parametrize("k", range(-14, 15))
def test_the_ratio_bound_does_not_depend_on_the_scale(k):
    # One payoff of second moment c and mean sqrt(hr_sq_y * c) at price one:
    # hr_sq_y = 1.44 breaks hr_sq_x + hr_sq_y <= 1 at every scale c, and
    # hr_sq_y = 0.64 keeps it at every scale.
    c = 10.0**k
    with pytest.raises(InvalidInputError):
        market_from_json({"kind": "gram", "G": [[c]], "m": [math.sqrt(1.44 * c)], "p": [1.0]})
    market = market_from_json({"kind": "gram", "G": [[c]], "m": [math.sqrt(0.64 * c)], "p": [1.0]})
    assert special_portfolios(market).hr_sq_y == pytest.approx(0.64, rel=1e-15)


def test_a_catastrophically_cancelling_cross_moment_is_exact():
    # (q v1) v2 has the terms 1/4, 9e16, 1/4, -9e16 in this order: a running
    # sum loses both quarters to the 9e16, the exact sum is 1/2.  Tiled to
    # 1,024 states, the moments are long enough to be summed by extraction.
    big = 6e8
    for tiles in (1, 256):
        probs = np.full(4 * tiles, 0.25 / tiles)
        values = np.tile([[1.0, 1.0], [big, big], [1.0, 1.0], [big, -big]], (tiles, 1))
        market = market_of(probs, values, probs @ values)
        # Every product here is exact, so the exact moments are sums of them.
        cross = [[(probs * values[:, i]) * values[:, j] for j in range(2)] for i in range(2)]
        exact = [[float(sum(map(Fraction, terms))) for terms in row] for row in cross]
        assert market.gram.tolist() == exact and exact[0][1] == 0.5
        assert market.means.tolist() == [float(sum(map(Fraction, probs * v))) for v in values.T]

