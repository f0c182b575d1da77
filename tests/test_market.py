import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from hrfrontier import (
    ArbitrageError,
    AssetUniverse,
    DatedFlows,
    DegeneratePricesError,
    GramMarket,
    InvalidBetaError,
    InvalidHorizonError,
    InvalidInputError,
    NotPositiveDefiniteError,
    NotScenarioBackedError,
    ScenarioPayoff,
    SequenceSpaceSpec,
    StateSpaceMismatchError,
    check_kernel,
    gram_from_scenarios,
    gram_from_sequence_space,
    gram_from_universe,
    kernel_frontier,
    market_from_json,
    monotone_hj_bound,
    product_tree,
)
from conftest import (
    BENCHMARK_MU,
    BENCHMARK_SIGMA,
    random_probs,
    random_scenario_market,
    random_sequence_market,
    random_universe,
    scenario_universe,
    traced_peak,
)
from hrfrontier.moments import moment_sums


class TestUniverse:
    def test_benchmark_second_moment_entries(self):
        market = gram_from_universe(
            AssetUniverse(np.array(BENCHMARK_MU), np.array(BENCHMARK_SIGMA))
        )
        assert market.gram[0, 0] == pytest.approx(1.364844, abs=1e-12)
        assert market.gram[0, 1] == pytest.approx(1.466552, abs=1e-12)
        assert market.gram[1, 1] == pytest.approx(1.637916, abs=1e-12)
        assert np.array_equal(market.prices, np.ones(3))
        assert np.array_equal(market.means, np.array(BENCHMARK_MU))

    def test_identity_when_means_vanish(self):
        market = gram_from_universe(AssetUniverse(np.zeros(3), np.eye(3)))
        assert np.array_equal(market.gram, np.eye(3))

    def test_single_asset(self):
        market = gram_from_universe(AssetUniverse(np.array([1.1]), np.array([[0.04]])))
        assert market.gram[0, 0] == pytest.approx(1.25, abs=1e-15)
        assert market.means[0] == 1.1
        assert market.prices[0] == 1.0

    def test_covariance_recovered_from_gram(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 4, 6):
            universe = random_universe(rng, n)
            market = gram_from_universe(universe)
            recovered = market.gram - np.outer(market.means, market.means)
            assert np.abs(recovered - universe.covariance).max() < 1e-12

    def test_not_positive_definite(self):
        bad = np.array([[1.0, 0.0], [0.0, -0.5]])
        with pytest.raises(NotPositiveDefiniteError):
            AssetUniverse(np.array([1.0, 1.0]), bad)

    def test_asymmetric_covariance(self):
        bad = np.array([[1.0, 0.2], [0.1, 1.0]])
        with pytest.raises(InvalidInputError):
            AssetUniverse(np.array([1.0, 1.0]), bad)


PROBS = (1 / 6, 1 / 2, 1 / 3)


class TestScenarioGram:
    def test_single_unit_payoff(self):
        market = gram_from_scenarios([ScenarioPayoff.from_arrays([1.0], [1.0])], [1.0])
        assert market.gram[0, 0] == 1.0
        assert market.means[0] == 1.0
        assert market.is_scenario_backed

    def test_two_independent_coins(self):
        # Product space of two fair coins; payoffs depend on one coin each.
        probs = [0.25] * 4
        first = ScenarioPayoff.from_arrays(probs, [1.0, 1.0, -0.5, -0.5])
        second = ScenarioPayoff.from_arrays(probs, [2.0, 0.5, 2.0, 0.5])
        market = gram_from_scenarios([first, second], [1.0, 1.0])
        # Direct expectation oracle.
        expected_cross = 0.25 * (1 * 2 + 1 * 0.5 - 0.5 * 2 - 0.5 * 0.5)
        assert market.gram[0, 1] == pytest.approx(expected_cross, abs=1e-15)
        assert market.gram[0, 0] == pytest.approx(0.25 * (1 + 1 + 0.25 + 0.25), abs=1e-15)
        assert market.means[0] == pytest.approx(0.25, abs=1e-15)
        assert market.means[1] == pytest.approx(1.25, abs=1e-15)

    def test_example_payoff_with_risk_free_asset(self):
        risk_free = ScenarioPayoff.from_arrays(PROBS, [1.0, 1.0, 1.0])
        risky = ScenarioPayoff.from_arrays(PROBS, [-0.01, 0.01, 0.02])
        market = gram_from_scenarios([risk_free, risky], [1.0, 0.0])
        assert market.gram[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert market.gram[0, 1] == pytest.approx(0.01, rel=1e-12)
        assert market.gram[1, 1] == pytest.approx(0.0002, rel=1e-12)
        assert market.means[1] == pytest.approx(0.01, rel=1e-12)

    def test_state_space_mismatch(self):
        a = ScenarioPayoff.from_arrays([0.5, 0.5], [1.0, 2.0])
        b = ScenarioPayoff.from_arrays([0.4, 0.6], [1.0, 2.0])
        with pytest.raises(StateSpaceMismatchError):
            gram_from_scenarios([a, b], [1.0, 1.0])

    def test_redundant_basis_rejected(self):
        a = ScenarioPayoff.from_arrays([0.5, 0.5], [1.0, 2.0])
        b = ScenarioPayoff.from_arrays([0.5, 0.5], [2.0, 4.0])
        with pytest.raises(NotPositiveDefiniteError):
            gram_from_scenarios([a, b], [1.0, 2.0])

    def test_zero_prices_rejected(self):
        a = ScenarioPayoff.from_arrays([0.5, 0.5], [1.0, 2.0])
        with pytest.raises(DegeneratePricesError):
            gram_from_scenarios([a], [0.0])

    def test_free_lunch_rejected(self):
        # The constant payoff at zero cost puts the bliss payoff in M(0).
        free = ScenarioPayoff.from_arrays([0.5, 0.5], [1.0, 1.0])
        other = ScenarioPayoff.from_arrays([0.5, 0.5], [0.5, 2.0])
        with pytest.raises(ArbitrageError):
            gram_from_scenarios([free, other], [0.0, 1.0])

    def test_states_are_not_constructor_arguments(self):
        # Only the scenario builders attach states, so a market's moments
        # and its states cannot disagree.
        good = gram_from_scenarios(
            [
                ScenarioPayoff.from_arrays([0.5, 0.5], [1.0, 2.0]),
                ScenarioPayoff.from_arrays([0.5, 0.5], [1.0, -1.0]),
            ],
            [1.0, 0.1],
        )
        with pytest.raises(TypeError):
            GramMarket(
                gram=good.gram,
                means=good.means,
                prices=good.prices,
                state_probabilities=good.state_probabilities,
                scenario_values=good.scenario_values,
            )


class TestScenarioUniverse:
    @pytest.mark.parametrize("n,expected_states", [(1, 2), (2, 4), (3, 4), (5, 8)])
    def test_moment_matching_is_exact(self, n, expected_states):
        rng = np.random.default_rng(n)
        universe = random_universe(rng, n)
        market = scenario_universe(universe)
        assert market.state_probabilities.shape[0] == expected_states
        reference = gram_from_universe(universe)
        assert np.abs(market.gram - reference.gram).max() < 1e-13
        assert np.abs(market.means - reference.means).max() < 1e-13

    def test_benchmark_lift(self):
        universe = AssetUniverse(np.array(BENCHMARK_MU), np.array(BENCHMARK_SIGMA))
        market = scenario_universe(universe)
        reference = gram_from_universe(universe)
        assert np.abs(market.gram - reference.gram).max() < 1e-14
        q = market.state_probabilities
        vals = market.scenario_values
        assert np.abs((q * vals[:, 0]) @ vals[:, 1] - reference.gram[0, 1]).max() < 1e-14


def constant_unit_flows(horizon: int) -> tuple[DatedFlows, ...]:
    return tuple(
        DatedFlows(date=t, probabilities=(1.0,), values=((1.0,),))
        for t in range(1, horizon + 1)
    )


class TestSequenceSpace:
    def test_unit_cash_flow_has_unit_norm_at_half(self):
        spec = SequenceSpaceSpec(beta=0.5, horizon=64, flows=constant_unit_flows(64))
        market = gram_from_sequence_space(spec, [1.0])
        # At beta = 1/2 the infinite-horizon norm of the constant flow is 1
        # and the 64-period truncation is below float resolution.
        assert market.gram[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert market.meta["unit_payoff_scale"] == pytest.approx(1.0, abs=1e-15)
        assert market.means[0] == pytest.approx(1.0, abs=1e-15)

    def test_date_one_pulse(self):
        flows = (DatedFlows(date=1, probabilities=(1.0,), values=((1.0,),)),)
        spec = SequenceSpaceSpec(beta=0.5, horizon=8, flows=flows)
        market = gram_from_sequence_space(spec, [1.0])
        assert market.gram[0, 0] == pytest.approx(0.5, rel=1e-12)

    def test_truncated_sum_matches_brute_force(self):
        rng = np.random.default_rng(3)
        beta, horizon = 0.7, 12
        n_states, n_elements = 3, 2
        flows = []
        for t in range(1, horizon + 1):
            probs = random_probs(rng, n_states)
            values = rng.uniform(-1.0, 1.0, (n_elements, n_states))
            flows.append(
                DatedFlows(
                    date=t,
                    probabilities=tuple(probs),
                    values=tuple(tuple(row) for row in values),
                )
            )
        spec = SequenceSpaceSpec(beta=beta, horizon=horizon, flows=tuple(flows))
        market = gram_from_sequence_space(spec, [1.0, 0.5])

        lead = beta / (1.0 - beta)
        gram = np.zeros((2, 2))
        raw_means = np.zeros(2)
        for flow in flows:
            q = np.array(flow.probabilities)
            vals = np.array(flow.values)
            gram += lead * beta**flow.date * (vals * q) @ vals.T
            raw_means += lead * beta**flow.date * (vals @ q)
        unit_norm = math.sqrt(lead * beta * (1 - beta**horizon) / (1 - beta))
        assert np.abs(market.gram - gram).max() < 1e-13
        assert np.abs(market.means - raw_means / unit_norm).max() < 1e-13
        # Inner product is symmetric positive definite on the basis.
        assert np.abs(market.gram - market.gram.T).max() == 0.0
        assert np.all(np.linalg.eigvalsh(market.gram) > 0)

    def test_tail_error_reported(self):
        spec = SequenceSpaceSpec(beta=0.5, horizon=8, flows=constant_unit_flows(8))
        market = gram_from_sequence_space(spec, [1.0])
        assert market.meta["truncation_tail"] == pytest.approx(0.5**9 / 0.5, rel=1e-15)

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.2, 1.3])
    def test_invalid_beta(self, beta):
        with pytest.raises(InvalidBetaError):
            SequenceSpaceSpec(beta=beta, horizon=4, flows=constant_unit_flows(4))

    def test_invalid_horizon(self):
        with pytest.raises(InvalidHorizonError):
            SequenceSpaceSpec(beta=0.5, horizon=0, flows=constant_unit_flows(1))

    def test_flow_beyond_horizon(self):
        with pytest.raises(InvalidInputError):
            SequenceSpaceSpec(beta=0.5, horizon=2, flows=constant_unit_flows(3))

    def test_duplicate_dates(self):
        flows = constant_unit_flows(1) * 2
        with pytest.raises(InvalidInputError):
            SequenceSpaceSpec(beta=0.5, horizon=4, flows=flows)


def rational_flows(dates) -> tuple[DatedFlows, ...]:
    """Two elements on two states at each date, all exact binary fractions."""
    return tuple(
        DatedFlows(
            date=t,
            probabilities=(0.25, 0.75),
            values=((0.5 * t, 1.25), (2.0, 0.125 * t)),
        )
        for t in dates
    )


def exact_sequence_moments(spec: SequenceSpaceSpec):
    """``beta/(1-beta) * sum_t beta**t E[v_t w_t]`` and the means, in rationals;
    each mean comes back squared, as the unit payoff's norm is a square root."""
    beta = Fraction(spec.beta)
    lead = beta / (1 - beta)
    unit_norm_sq = sum(lead * beta**t for t in range(1, spec.horizon + 1))
    n = spec.n_elements
    gram = [[Fraction(0)] * n for _ in range(n)]
    raw_means = [Fraction(0)] * n
    for flow in spec.flows:
        weight = lead * beta**flow.date
        q = [Fraction(p) for p in flow.probabilities]
        rows = [[Fraction(v) for v in row] for row in flow.values]
        for i in range(n):
            raw_means[i] += weight * sum(p * v for p, v in zip(q, rows[i]))
            for j in range(n):
                gram[i][j] += weight * sum(p * v * w for p, v, w in zip(q, rows[i], rows[j]))
    return gram, [m * m / unit_norm_sq for m in raw_means], unit_norm_sq


class TestSequenceAtoms:
    @pytest.mark.parametrize("dates, horizon", [((1, 2, 3), 3), ((1, 3), 5)])
    def test_moments_match_exact_rationals(self, dates, horizon):
        spec = SequenceSpaceSpec(beta=0.75, horizon=horizon, flows=rational_flows(dates))
        market = gram_from_sequence_space(spec, [1.0, 0.5])
        gram, means_sq, _ = exact_sequence_moments(spec)
        for i in range(2):
            with localcontext() as ctx:
                ctx.prec = 40
                exact = (Decimal(means_sq[i].numerator) / means_sq[i].denominator).sqrt()
                assert abs(Decimal(market.means[i]) / exact - 1) < Decimal("1e-15")
            for j in range(2):
                assert abs(Fraction(market.gram[i, j]) / gram[i][j] - 1) < 1e-15

    @pytest.mark.parametrize("dates, horizon", [((1, 2, 3), 3), ((1, 3), 5), ((2,), 2)])
    def test_zero_atom_carries_the_unlisted_dates(self, dates, horizon):
        spec = SequenceSpaceSpec(beta=0.75, horizon=horizon, flows=rational_flows(dates))
        market = gram_from_sequence_space(spec, [1.0, 0.5])
        q, values = market.state_probabilities, market.scenario_values
        assert market.is_scenario_backed
        assert abs(math.fsum(q.tolist()) - 1.0) <= 1e-12
        zero = ~values.any(axis=1)
        if len(dates) == horizon:
            assert not zero.any() and len(q) == 2 * len(dates)
        else:
            assert zero.sum() == 1 and len(q) == 2 * len(dates) + 1
            beta = Fraction(spec.beta)
            unlisted = [t for t in range(1, horizon + 1) if t not in dates]
            _, _, unit_norm_sq = exact_sequence_moments(spec)
            mass = sum(beta / (1 - beta) * beta**t for t in unlisted) / unit_norm_sq
            assert abs(Fraction(float(q[zero][0])) / mass - 1) < 1e-15

    def test_underflowed_date_is_dropped(self):
        flows = (
            DatedFlows(date=1, probabilities=(0.5, 0.5), values=((1.0, 2.0),)),
            DatedFlows(date=90, probabilities=(0.5, 0.5), values=((3.0, 4.0),)),
        )
        spec = SequenceSpaceSpec(beta=1e-5, horizon=90, flows=flows)
        market = gram_from_sequence_space(spec, [1.0])
        # Date 90 has probability 1e-445, below the float range: the two
        # atoms of date 1 and the zero atom remain.
        assert len(market.state_probabilities) == 3
        assert np.count_nonzero(market.scenario_values) == 2


def builder_markets():
    """Markets from both scenario builders: statewise-style ones priced by a
    positive kernel, random sequence markets and the sequence markets above."""
    rng = np.random.default_rng(18)
    for _ in range(20):
        n_states = int(rng.integers(1, 40))
        yield random_scenario_market(rng, n_states, int(rng.integers(1, min(n_states, 5) + 1)))
    for n in (1, 2, 3):
        yield random_sequence_market(rng, n)
    for dates, horizon in [((1, 2, 3), 3), ((1, 3), 5), ((2,), 2)]:
        spec = SequenceSpaceSpec(beta=0.75, horizon=horizon, flows=rational_flows(dates))
        yield gram_from_sequence_space(spec, [1.0, 0.5])


def test_builder_moments_are_the_moment_sums_of_the_market_states():
    # Bit for bit: a market's moments have no source but its states.
    for market in builder_markets():
        q, values = market.state_probabilities, market.scenario_values
        means, gram = moment_sums(q, values)
        assert np.array_equal(market.gram, gram) and np.array_equal(market.means, means)
        for states in (q, values):
            with pytest.raises(ValueError):
                states[0] = 0.0


class TestMarketJson:
    def test_universe_kind(self, tmp_path):
        path = tmp_path / "market.json"
        path.write_text(
            '{"kind": "universe", "mu": [1.1], "sigma": [[0.04]]}', encoding="utf-8"
        )
        market = market_from_json(path)
        assert market.gram[0, 0] == pytest.approx(1.25, abs=1e-15)

    def test_gram_kind(self):
        market = market_from_json(
            {"kind": "gram", "G": [[1.25]], "m": [1.1], "p": [1.0]}
        )
        assert market.means[0] == 1.1

    def test_sequence_kind(self):
        market = market_from_json(
            {
                "kind": "sequence",
                "beta": 0.5,
                "horizon": 8,
                "prices": [1.0],
                "flows": [
                    {"date": 1, "probabilities": [1.0], "values": [[1.0]]}
                ],
            }
        )
        assert market.gram[0, 0] == pytest.approx(0.5, rel=1e-12)
        assert market.is_scenario_backed

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            market_from_json({"kind": "nope"})

    def test_missing_field(self):
        with pytest.raises(InvalidInputError):
            market_from_json({"kind": "gram", "G": [[1.0]]})

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(InvalidInputError):
            market_from_json(path)


# A negative payoff on states the market lacks, and a horizon of 0: each
# would raise its own error if the states were not checked first.
BAD_KERNEL = ScenarioPayoff.from_arrays((0.5, 0.5), (-1.0, 1.0))


@pytest.mark.parametrize(
    "what, call",
    [
        ("kernel construction", kernel_frontier),
        ("kernel diagnostics", lambda market: check_kernel(BAD_KERNEL, market)),
        ("tree construction", lambda market: product_tree(market, 0)),
        ("monotone kernel bound", lambda market: monotone_hj_bound(market, BAD_KERNEL)),
    ],
)
def test_a_market_without_states_rejects_statewise_operations_first(benchmark_market, what, call):
    with pytest.raises(NotScenarioBackedError) as caught:
        call(benchmark_market)
    assert caught.value.message == f"{what} needs statewise payoffs; build the market from scenarios"


def test_arrays_are_readonly(benchmark_market):
    with pytest.raises(ValueError):
        benchmark_market.gram[0, 0] = 0.0
    with pytest.raises(ValueError):
        benchmark_market.prices[0] = 2.0
    universe = random_universe(np.random.default_rng(0), 4)
    markets = [
        benchmark_market,
        gram_from_universe(universe),
        market_from_json({"kind": "gram", "G": [[1.25]], "m": [1.1], "p": [1.0]}),
        *builder_markets(),
    ]
    arrays = [universe.mean_returns, universe.covariance]
    for market in markets:
        arrays += [market.gram, market.means, market.prices]
        if market.is_scenario_backed:
            arrays += [market.state_probabilities, market.scenario_values]
    assert not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("kind", ["universe", "gram"])
def test_a_market_read_from_a_mapping_of_writable_arrays_shares_none_of_them(kind):
    mu = np.array(BENCHMARK_MU)
    sigma = np.array(BENCHMARK_SIGMA)
    if kind == "universe":
        data = {"kind": kind, "mu": mu, "sigma": sigma}
    else:
        data = {"kind": kind, "G": sigma + np.outer(mu, mu), "m": mu, "p": np.ones(3)}
    before = {name: a.copy() for name, a in data.items() if name != "kind"}
    market = market_from_json(data)
    for name, a in before.items():
        assert data[name].flags.writeable and np.array_equal(data[name], a)
        for kept in (market.gram, market.means, market.prices):
            assert not np.shares_memory(kept, data[name])


def test_a_universe_market_holds_no_matrix_sized_temporaries():
    # The build peaks at 3.05 n² doubles.  A whole-matrix difference in a
    # symmetry test, Σ + μμᵀ formed beside μμᵀ, or a second copy of an array
    # that is already read-only each lift it past 4.
    n = 300
    rng = np.random.default_rng(0)
    factor = rng.standard_normal((n, n)) / n**0.5
    data = {
        "kind": "universe",
        "mu": rng.uniform(0.5, 1.5, n).tolist(),
        "sigma": (factor @ factor.T + 0.1 * np.eye(n)).tolist(),
    }
    assert traced_peak(lambda: market_from_json(data)) <= 3.5 * n * n * 8


def _rejected_whole(a: np.ndarray) -> bool:
    """The symmetry test as one whole-matrix formula."""
    return float(np.abs(a - a.T).max()) > 1e-12 * max(1.0, float(np.abs(a).max()))


def _largest_accepted(a: np.ndarray, i: int, j: int) -> float:
    """The largest ``a[i, j]`` that :func:`_rejected_whole` accepts, every other entry fixed."""
    b = a.copy()

    def rejects(value: float) -> bool:
        b[i, j] = value
        return _rejected_whole(b)

    value = a[j, i] + 1e-12 * max(1.0, float(np.abs(a).max()))
    while rejects(value):
        value = np.nextafter(value, -math.inf)
    while not rejects(np.nextafter(value, math.inf)):
        value = np.nextafter(value, math.inf)
    return value


@pytest.mark.parametrize("n", [31, 32, 33, 65])
@pytest.mark.parametrize("largest", ["diagonal", "negative", "below_one"])
def test_symmetry_checks_accept_and_reject_as_the_whole_matrix_formula(n, largest):
    # Asymmetric pairs in the last band of 32 rows, on either side of the
    # diagonal, and across the edge between rows 31 and 32 (the last two rows
    # when there is one band), each one ulp inside and one ulp outside the
    # tolerance.  ``largest`` picks the entry that sets the scale.
    rng = np.random.default_rng(n)
    half = rng.uniform(-0.25, 0.25, (n, n))
    a = half + half.T + n * np.eye(n)
    if largest == "negative":
        a[0, 1] = a[1, 0] = -3.0 * n
    elif largest == "below_one":
        a /= 2.0 * n
    edge = (31, 32) if n > 32 else (n - 2, n - 1)
    for i, j in ((n - 1, 1), (1, n - 1), edge):
        inside = a.copy()
        inside[i, j] = _largest_accepted(a, i, j)
        outside = inside.copy()
        outside[i, j] = np.nextafter(inside[i, j], math.inf)
        assert not _rejected_whole(inside) and _rejected_whole(outside)
        GramMarket(inside, np.ones(n), np.ones(n))
        with pytest.raises(InvalidInputError, match="^gram matrix is not symmetric$"):
            GramMarket(outside, np.ones(n), np.ones(n))
        if largest != "negative":  # a covariance must also be positive definite
            AssetUniverse(np.ones(n), inside)
            with pytest.raises(InvalidInputError, match="^covariance matrix is not symmetric$"):
                AssetUniverse(np.ones(n), outside)


def test_markets_compare_and_hash_by_identity(benchmark_market):
    universe = AssetUniverse(
        mean_returns=np.array(BENCHMARK_MU), covariance=np.array(BENCHMARK_SIGMA)
    )
    twin = gram_from_universe(universe)
    assert benchmark_market == benchmark_market and benchmark_market != twin
    assert universe == universe and universe != AssetUniverse(
        mean_returns=np.array(BENCHMARK_MU), covariance=np.array(BENCHMARK_SIGMA)
    )
    assert len({benchmark_market, twin, universe, universe}) == 3
