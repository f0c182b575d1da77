"""The blocked triangular sweeps behind ``special_portfolios``.

Up to one block of unknowns each sweep, forward on the Cholesky factor and
back on its transpose, is exactly the full solve of that triangle; beyond
that the two sweeps must stay backward stable and agree with a direct solve
of the Gram matrix.
"""

from __future__ import annotations

import numpy as np
import pytest

import hrfrontier.frontier
from hrfrontier import GramMarket, NotPositiveDefiniteError, gram_from_universe, special_portfolios
from hrfrontier._linalg import SOLVE_BLOCK, spd_factor, triangular_solve
from conftest import random_universe


def full_solve(tri: np.ndarray, rhs: np.ndarray, *, lower: bool) -> np.ndarray:
    return np.linalg.solve(tri, rhs)


@pytest.mark.parametrize("n", [1, 3, 50, 64])
def test_one_block_is_the_two_full_solves_bit_for_bit(monkeypatch, n):
    universe = random_universe(np.random.default_rng(n), n)
    market = gram_from_universe(universe)
    lower = spd_factor(market.gram)
    both = np.column_stack((market.prices, market.means))
    for rhs in (market.prices, market.means, both):
        for tri, is_lower in ((lower, True), (lower.T, False)):
            solved = triangular_solve(tri, rhs, lower=is_lower)
            assert np.array_equal(solved, np.linalg.solve(tri, rhs))
    with monkeypatch.context() as patch:
        patch.setattr(hrfrontier.frontier, "triangular_solve", full_solve)
        reference = special_portfolios(gram_from_universe(universe))
    assert special_portfolios(market).to_dict() == reference.to_dict()


def _direct_special(market: GramMarket) -> dict:
    """y and x straight from ``np.linalg.solve`` on the Gram matrix."""
    gi_p = np.linalg.solve(market.gram, market.prices)
    gi_m = np.linalg.solve(market.gram, market.means)
    p_gi_p = market.prices @ gi_p
    w_y = gi_p / p_gi_p
    mu_y = market.means @ w_y
    w_x = gi_m - (market.prices @ gi_m / p_gi_p) * gi_p
    return {"w_y": w_y, "w_x": w_x, "hr_sq_y": mu_y * mu_y * p_gi_p, "hr_sq_x": market.means @ w_x}


@pytest.mark.parametrize("n", [65, 130, 300])
def test_many_blocks_stay_backward_stable_and_match_a_direct_solve(n):
    market = gram_from_universe(random_universe(np.random.default_rng(1000 + n), n))
    gram, lower = market.gram, spd_factor(market.gram)
    for rhs in (market.prices, market.means):
        w = triangular_solve(lower.T, triangular_solve(lower, rhs, lower=True), lower=False)
        # Normwise backward error: the plain residual ||Gw - b|| / ||b|| of a
        # stable solve scales with the condition number (about 1e-14 at n = 300
        # here, for these blocks and for the two full solves alike).
        residual = np.linalg.norm(gram @ w - rhs)
        assert residual / (np.linalg.norm(gram, 2) * np.linalg.norm(w)) < 1e-15
    sp, direct = special_portfolios(market), _direct_special(market)
    for name in ("w_y", "w_x"):
        weights = getattr(sp, name)
        assert np.abs(weights - direct[name]).max() <= 1e-10 * np.abs(direct[name]).max()
    assert sp.hr_sq_y == pytest.approx(direct["hr_sq_y"], rel=1e-13)
    assert sp.hr_sq_x == pytest.approx(direct["hr_sq_x"], rel=1e-13)


def test_gram_below_the_pivot_floor_is_rejected_beyond_one_block():
    n = 2 * SOLVE_BLOCK + 5
    rng = np.random.default_rng(7)
    values = rng.standard_normal((4 * n, n))
    values[:, -1] = values[:, 0] + 1e-7 * rng.standard_normal(4 * n)
    gram = values.T @ values / (4 * n)
    market = GramMarket(gram=0.5 * (gram + gram.T), means=values.mean(axis=0), prices=np.ones(n))
    with pytest.raises(NotPositiveDefiniteError) as caught:
        special_portfolios(market)
    assert caught.value.message == "gram matrix is numerically singular (pivot below tolerance)"
    assert caught.value.context["min_pivot"] < caught.value.context["pivot_floor"]
