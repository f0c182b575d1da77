import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrfrontier import (
    AssetUniverse,
    GramMarket,
    HRFrontierError,
    InvalidInputError,
    OutOfRangeError,
    ScenarioPayoff,
    ZeroPayoffError,
    hr_to_sr,
    sr_to_hr,
    stats,
)
from hrfrontier import moments
from hrfrontier.moments import (
    EXTRACT_MIN_TERMS,
    PROBABILITY_SUM_TOL,
    check_states,
    fsum_rows,
    moment_sums,
    readonly,
)
from conftest import random_payoff, traced_peak

# Three-state example payoffs: the second improves the first statewise yet
# has a lower mean/L2 ratio.
PROBS = (1 / 6, 1 / 2, 1 / 3)
W_VALUES = (-0.01, 0.01, 0.02)
W_IMPROVED = (-0.01, 0.01, 0.11)


def payoff(values=W_VALUES, probs=PROBS) -> ScenarioPayoff:
    return ScenarioPayoff.from_arrays(probs, values)


def quadratic_utility(pay: ScenarioPayoff) -> float:
    """Expected quadratic utility ``mean - second_moment / 2``."""
    q, v = pay.probabilities, pay.values
    mean = math.fsum((q * v).tolist())
    second = math.fsum((q * v * v).tolist())
    return mean - 0.5 * second


def optimal_scaled_utility(pay: ScenarioPayoff) -> tuple[float, float]:
    """``(value, scale)`` of the best quadratic utility over all scalings: the
    paper's identity puts it at ``hansen**2 / 2`` for the scale
    ``mean / second_moment``; a zero-mean payoff is left unscaled."""
    ratios = stats(pay)
    if ratios.mean == 0.0:
        return 0.0, 0.0
    return 0.5 * ratios.hansen * ratios.hansen, ratios.mean / ratios.second_moment


class TestScenarioPayoff:
    def test_requires_states(self):
        with pytest.raises(InvalidInputError):
            ScenarioPayoff.from_arrays([], [])

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5, math.nan])
    def test_rejects_bad_probability(self, bad):
        with pytest.raises(InvalidInputError):
            ScenarioPayoff.from_arrays([bad, 1.0 - bad if bad == bad else 0.5], [1.0, 2.0])

    def test_rejects_probability_sum_off_by_more_than_tolerance(self):
        with pytest.raises(InvalidInputError):
            ScenarioPayoff.from_arrays([0.5, 0.5 + 1e-9], [1.0, 2.0])

    def test_renormalize_is_explicit(self):
        probs = [0.5, 0.5 + 1e-9]
        fixed = ScenarioPayoff.from_arrays(
            probs, [1.0, 2.0], renormalize=True, sum_tol=1e-6
        )
        assert math.fsum(fixed.probabilities) == pytest.approx(1.0, abs=1e-15)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "scenario.csv"
        path.write_text("probability,value\n0.25,-1.5\n0.75,2.0\n")
        loaded = ScenarioPayoff.from_csv(path)
        assert loaded.probabilities.tolist() == [0.25, 0.75]
        assert loaded.values.tolist() == [-1.5, 2.0]

    def test_csv_without_header(self, tmp_path):
        path = tmp_path / "scenario.csv"
        path.write_text("0.25,-1.5\n0.75,2.0\n")
        assert ScenarioPayoff.from_csv(path).values.tolist() == [-1.5, 2.0]

    def test_csv_bad_row(self, tmp_path):
        path = tmp_path / "scenario.csv"
        path.write_text("0.25,-1.5\n0.75\n")
        with pytest.raises(InvalidInputError):
            ScenarioPayoff.from_csv(path)


class TestStats:
    def test_three_state_example(self):
        ratios = stats(payoff())
        assert ratios.mean == pytest.approx(0.01, rel=1e-12)
        assert ratios.second_moment == pytest.approx(0.0002, rel=1e-12)
        assert ratios.hansen == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_statewise_improvement_lowers_ratio(self):
        better = stats(payoff(W_IMPROVED))
        assert better.hansen == pytest.approx(4 / math.sqrt(41), abs=1e-12)
        assert better.hansen < stats(payoff()).hansen

    @pytest.mark.parametrize("level", [0.5, 1.0, 3.0])
    def test_risk_free_payoff(self, level):
        ratios = stats(ScenarioPayoff.from_arrays([1.0], [level]))
        assert ratios.hansen == 1.0
        assert ratios.variance == 0.0
        assert ratios.sharpe is None and ratios.sharpe_is_infinite

    def test_risk_free_on_many_states(self):
        ratios = stats(ScenarioPayoff.from_arrays(PROBS, (2.0, 2.0, 2.0)))
        assert ratios.hansen == 1.0
        assert ratios.variance == 0.0

    def test_negative_risk_free(self):
        assert stats(ScenarioPayoff.from_arrays([1.0], [-2.0])).hansen == -1.0

    def test_zero_payoff_rejected(self):
        with pytest.raises(ZeroPayoffError):
            stats(ScenarioPayoff.from_arrays([0.5, 0.5], [0.0, 0.0]))


class TestConversions:
    def test_zero_maps_to_zero(self):
        assert hr_to_sr(0.0) == 0.0
        assert sr_to_hr(0.0) == 0.0

    def test_known_squares(self):
        hr = 4 / math.sqrt(41)
        assert hr_to_sr(hr) ** 2 == pytest.approx(0.64, abs=1e-12)
        assert hr_to_sr(1 / math.sqrt(2)) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert sr_to_hr(0.8) ** 2 == pytest.approx(16 / 41, abs=1e-12)

    def test_round_trip_on_grid(self):
        for sr in np.linspace(-10, 10, 4001):
            assert hr_to_sr(sr_to_hr(float(sr))) == pytest.approx(sr, abs=1e-12)

    @pytest.mark.parametrize("hr", [1.0, -1.0, 1.5, math.inf, math.nan])
    def test_out_of_range(self, hr):
        with pytest.raises(OutOfRangeError):
            hr_to_sr(hr)

    @given(st.floats(-0.999999, 0.999999))
    def test_inverse_pair(self, hr):
        assert sr_to_hr(hr_to_sr(hr)) == pytest.approx(hr, abs=1e-12)

    def test_strictly_increasing(self):
        hrs = np.linspace(-0.99, 0.99, 199)
        srs = [hr_to_sr(float(h)) for h in hrs]
        assert all(a < b for a, b in zip(srs, srs[1:]))


class TestUtility:
    def test_zero_and_bliss(self):
        assert quadratic_utility(ScenarioPayoff.from_arrays([1.0], [0.0])) == 0.0
        assert quadratic_utility(ScenarioPayoff.from_arrays([1.0], [1.0])) == 0.5

    def test_three_state_example(self):
        assert quadratic_utility(payoff()) == pytest.approx(0.0099, rel=1e-12)

    def test_optimal_scaling_risk_free(self):
        value, alpha = optimal_scaled_utility(ScenarioPayoff.from_arrays([1.0], [1.0]))
        assert value == pytest.approx(0.5, abs=1e-15)
        assert alpha == pytest.approx(1.0, abs=1e-15)

    def test_optimal_scaling_example(self):
        value, alpha = optimal_scaled_utility(payoff())
        assert value == pytest.approx(0.25, rel=1e-12)
        assert alpha == pytest.approx(50.0, rel=1e-12)

    def test_zero_mean_is_left_unscaled(self):
        value, alpha = optimal_scaled_utility(
            ScenarioPayoff.from_arrays([0.5, 0.5], [-1.0, 1.0])
        )
        assert (value, alpha) == (0.0, 0.0)

    def test_optimum_beats_dense_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            pay = random_payoff(rng, 8, positive_mean=True)
            probs = np.array(pay.probabilities)
            values = np.array(pay.values)
            best, alpha = optimal_scaled_utility(pay)
            grid = np.linspace(0.0, 2.0 * alpha, 20001)
            utilities = grid * (probs @ values) - 0.5 * grid**2 * (probs @ values**2)
            assert best >= utilities.max() - 1e-12
            assert best - utilities.max() <= 1e-8


def _orthogonal_pair(rng):
    """Two payoffs on a common state space with E[VW] = 0 and a nonzero
    mean for the first."""
    while True:
        n = int(rng.integers(3, 9))
        probs = rng.uniform(0.2, 1.0, n)
        probs /= probs.sum()
        v = rng.uniform(-1.0, 2.0, n)
        raw = rng.uniform(-1.5, 1.5, n)
        w = raw - (probs @ (v * raw)) / (probs @ (v * v)) * v
        if abs(probs @ v) > 0.05 and probs @ (w * w) > 1e-4:
            return probs, v, w


def test_orthogonal_ratio_additivity():
    rng = np.random.default_rng(11)
    for _ in range(40):
        probs, v, w = _orthogonal_pair(rng)
        hr_sq_v = (probs @ v) ** 2 / (probs @ (v * v))
        hr_sq_w = (probs @ w) ** 2 / (probs @ (w * w))
        total = hr_sq_v + hr_sq_w

        def combined(beta):
            mix = v + beta * w
            return (probs @ mix) ** 2 / (probs @ (mix * mix))

        beta_star = ((probs @ w) / (probs @ (w * w))) * (
            (probs @ (v * v)) / (probs @ v)
        )
        grid = np.linspace(beta_star - 5.0, beta_star + 5.0, 4001)
        values = np.array([combined(float(b)) for b in grid])
        assert values.max() <= total + 1e-12
        assert combined(beta_star) == pytest.approx(total, abs=1e-10)


@st.composite
def scenario_payoffs(draw, max_states: int = 8):
    n = draw(st.integers(2, max_states))
    weights = draw(
        st.lists(
            st.floats(0.05, 1.0, allow_nan=False), min_size=n, max_size=n
        )
    )
    total = math.fsum(weights)
    values = draw(
        st.lists(
            st.floats(-50.0, 50.0, allow_nan=False).map(
                lambda v: 0.0 if abs(v) < 1e-6 else v  # keep squares above underflow
            ),
            min_size=n,
            max_size=n,
        )
    )
    if all(v == 0.0 for v in values):
        values[0] = 1.0
    return ScenarioPayoff.from_arrays([w / total for w in weights], values)


@given(scenario_payoffs())
@settings(max_examples=200)
def test_variance_identity(pay):
    ratios = stats(pay)
    assert ratios.variance == pytest.approx(
        ratios.second_moment - ratios.mean**2, rel=1e-10, abs=1e-10 * ratios.second_moment
    )


@given(scenario_payoffs())
@settings(max_examples=200)
def test_ratio_bound_and_risk_free_equality(pay):
    ratios = stats(pay)
    assert ratios.hansen**2 <= 1.0 + 1e-12
    if ratios.variance == 0.0:
        assert ratios.hansen**2 == 1.0
    else:
        assert ratios.hansen**2 < 1.0


@given(scenario_payoffs())
@settings(max_examples=200)
def test_sharpe_identity(pay):
    ratios = stats(pay)
    if ratios.variance < 1e-6 * ratios.second_moment:
        return  # near risk-free: the identity is ill-conditioned in floats
    assert ratios.sharpe is not None
    # HR^2 (1 + SR^2) = SR^2: unlike 1/(1 - HR^2), this form does not amplify
    # rounding by second/variance.
    hr_sq, sr_sq = ratios.hansen**2, ratios.sharpe**2
    assert hr_sq * (1.0 + sr_sq) == pytest.approx(sr_sq, rel=1e-10)


def _row_sums_case(name: str, length: int) -> np.ndarray:
    """Three rows of ``length`` terms of the named kind."""
    rng = np.random.default_rng(length)
    shape = (3, length)
    bits = (length + 1).bit_length()
    limit = 2.0 ** (1023 - bits)  # the largest term extraction may take, exclusive
    if name == "cancelling":
        # Pairs x, -x shuffled among quarters: a running sum loses the quarters.
        k = length // 3
        big = rng.standard_normal((3, k)) * 10.0 ** rng.uniform(10, 20, (3, k))
        terms = np.concatenate((big, -big, np.full((3, length - 2 * k), 0.25)), axis=1)
        return rng.permuted(terms, axis=1)
    if name == "spread":
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
    if name == "near_ties":
        # Exactly 1 + 2**-53 (a tie) plus or minus 2**-106: only the last bit
        # decides the rounding.
        terms = np.zeros(shape)
        terms[:, :3] = [
            [1.0, 2.0**-53, 2.0**-106],
            [-1.0, -(2.0**-53), -(2.0**-106)],
            [1.0, 2.0**-53, -(2.0**-106)],
        ]
        return rng.permuted(terms, axis=1)
    if name == "one_sign":
        # Terms just below one with low bits set: the row sums of the high
        # parts need the full 2**bits >= length + 2 headroom to stay exact.
        signs = np.array([[1.0], [-1.0], [-1.0]])
        return signs * (1.0 - rng.integers(1, 2**20, shape) * 2.0**-53)
    if name == "subnormal":
        return rng.integers(-(2**20), 2**20, shape) * 5e-324
    if name == "signed_zeros":
        terms = rng.choice([0.0, -0.0], shape)
        terms[0] = -0.0
        terms[1, :2] = (-1e-310, 1e-310)
        return terms
    if name == "below_limit":
        terms = rng.uniform(-1.0, 1.0, shape) * limit
        terms[:, 0] = np.nextafter(limit, 0.0) * np.array([1.0, -1.0, 1.0])
        return terms
    if name == "at_limit":
        terms = rng.uniform(-1.0, 1.0, shape) * limit
        terms[1, 0] = -limit
        return terms
    if name == "past_limit":
        terms = rng.uniform(-1.0, 1.0, shape) * limit
        terms[2, 0] = np.nextafter(limit, math.inf)
        return terms
    terms = rng.standard_normal(shape)
    if name == "overflow":
        terms[1, :4] = 2.0**1022
    elif name == "inf":
        terms[0, 3] = -math.inf
    elif name == "inf_minus_inf":
        terms[2, :2] = (math.inf, -math.inf)
    elif name == "nan":
        terms[1, 5] = math.nan
    return terms


#: Cases whose terms are finite and below the extraction limit.
EXTRACTABLE = (
    "cancelling", "spread", "near_ties", "one_sign", "subnormal", "signed_zeros", "below_limit"
)
OTHERS = ("at_limit", "past_limit", "overflow", "inf", "inf_minus_inf", "nan")


@pytest.mark.parametrize("length", [EXTRACT_MIN_TERMS // 3, EXTRACT_MIN_TERMS // 3 + 1])
@pytest.mark.parametrize("name", EXTRACTABLE + OTHERS)
def test_row_sums_are_the_bits_of_one_fsum_per_row(name, length, monkeypatch):
    terms = _row_sums_case(name, length)
    try:
        want = [math.fsum(row) for row in terms.tolist()]
    except (OverflowError, ValueError):
        want = [math.nan] * len(terms)
    # Which engine ran shows in the lists handed to math.fsum: whole rows, or
    # a few partial sums per row.
    fsum, lengths = math.fsum, []
    monkeypatch.setattr(math, "fsum", lambda row: lengths.append(len(row)) or fsum(row))
    before = terms.tobytes()
    got = fsum_rows(terms)
    monkeypatch.undo()
    assert terms.tobytes() == before and terms.flags.writeable
    extracted = terms.size >= EXTRACT_MIN_TERMS and name in EXTRACTABLE
    assert (length in lengths) != extracted
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        if math.isnan(w):
            assert math.isnan(g)
        else:
            assert (g, math.copysign(1.0, g)) == (w, math.copysign(1.0, w))
    if name in ("overflow", "inf_minus_inf"):
        assert all(map(math.isnan, got))


@pytest.mark.parametrize("n", range(1, 13))
def test_moment_sums_are_one_fsum_per_entry(n):
    # Three state counts: every sum below EXTRACT_MIN_TERMS, the second
    # moments at or past it (for n > 1 the means not), and every sum past it.
    pairs = n * (n + 1) // 2
    rng = np.random.default_rng(n)
    for states in (
        (EXTRACT_MIN_TERMS - 1) // pairs, -(-EXTRACT_MIN_TERMS // pairs), -(-EXTRACT_MIN_TERMS // n)
    ):
        q = readonly(rng.dirichlet(np.ones(states)))
        values = readonly(rng.standard_normal((states, n)) * 10.0 ** rng.uniform(-3, 3, n))
        weighted = q[:, None] * values
        want = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                want[i, j] = want[j, i] = math.fsum((weighted[:, i] * values[:, j]).tolist())
        # C order, Fortran order and a transposed view: the same bits.
        for layout in (values, np.asfortranarray(values), np.ascontiguousarray(values.T).T):
            means, gram = moment_sums(q, layout)
            assert np.array_equal(gram, want)
            assert np.array_equal(means, [math.fsum(weighted[:, i].tolist()) for i in range(n)])


def test_readonly_copies_all_but_an_owned_read_only_float_array():
    owned = readonly([1.0, 2.0])
    assert readonly(owned) is owned
    writable, view, ints = np.array([1.0, 2.0]), owned[:1], np.array([1, 2])
    for data in (writable, view, ints):
        out = readonly(data)
        assert out is not data and not out.flags.writeable and out.dtype == float
        assert not np.shares_memory(out, data)
    assert writable.flags.writeable


# Entries that a list of numbers may hold, at the edges of float conversion.
EDGE_ENTRIES = {
    "negative-zero": -0.0, "nan": math.nan, "inf": math.inf, "minus-inf": -math.inf,
    "least-subnormal": 5e-324, "float-max": sys.float_info.max,
    "int-2e53+1": 2**53 + 1, "int-2e63+1": 2**63 + 1, "int-2e64+3": 2**64 + 3,
    "true": True, "false": False, "np-float32": np.float32(0.1),
    "np-float64": np.float64(0.3), "np-int64": np.int64(7),
    "decimal": Decimal("0.1"), "fraction": Fraction(1, 3),
}
EDGE_FORMS = {
    "scalar": lambda x: x,
    "one": lambda x: [x],
    "vector": lambda x: [x, 1.0, x],
    "1x1": lambda x: [[x]],
    "3x3": lambda x: [[x, 1.0, 2.0], [3.0, x, 4.0], [5.0, 6.0, x]],
    "ragged": lambda x: [[x, 1.0], [2.0]],
}
# Forms that the packing refuses: each must meet np.array's own fate.
REFUSED_FORMS = {
    "text": "1.5", "text-entry": ["1.5", 2.0], "none": [None], "none-in-row": [[1.0, None]],
    "tuple": (1.0, 2.0), "tuple-rows": [(1.0, 2.0), (3.0, 4.0)],
    "tuple-second-row": [[1.0, 2.0], (3.0, 4.0)], "ragged": [[1.0, 2.0], [3.0]],
    "nested": [[[1.0]]], "list-entry": [1.0, [2.0]], "number-row": [[1.0], 2.0],
    "empty": [], "empty-row": [[]], "empty-rows": [[], []],
    "huge-int": [10**400], "huge-int-in-row": [[1.0, 10**400]],
}
COERCION_CASES = [
    pytest.param(form(x), id=f"{name}-{shape}")
    for name, x in EDGE_ENTRIES.items()
    for shape, form in EDGE_FORMS.items()
] + [pytest.param(data, id=f"refused-{name}") for name, data in REFUSED_FORMS.items()]


def _coerced(data):
    try:
        return np.array(data, dtype=float)
    except Exception as exc:
        return exc


@pytest.mark.parametrize("data", COERCION_CASES)
def test_readonly_gives_the_bits_or_the_error_of_np_array(data):
    want = _coerced(data)
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as caught:
            readonly(data)
        assert str(caught.value) == str(want)
        return
    out = readonly(data)
    assert out.shape == want.shape and out.tobytes() == want.tobytes()
    assert out.base is None and not out.flags.writeable


# Each array a constructor coerces, built beside well-formed partners of size
# n, with the rank it is kept at.
ARRAY_ARGUMENTS = {
    "universe-means": (np.atleast_1d, lambda x, n: AssetUniverse(x, np.eye(n)).mean_returns),
    "universe-covariance": (np.atleast_2d, lambda x, n: AssetUniverse(np.ones(n), x).covariance),
    "market-gram": (np.atleast_2d, lambda x, n: GramMarket(x, np.ones(n), np.ones(n)).gram),
    "market-means": (np.atleast_1d, lambda x, n: GramMarket(2 * np.eye(n), x, np.ones(n)).means),
    "market-prices": (np.atleast_1d, lambda x, n: GramMarket(2 * np.eye(n), np.ones(n), x).prices),
    "payoff-probabilities": (
        np.atleast_1d, lambda x, n: ScenarioPayoff.from_arrays(x, np.ones(n)).probabilities
    ),
}


# A trace past the float range makes the pivot floor infinite: numpy warns, and
# the covariance is rejected as singular.
TRACE_OVERFLOW = pytest.mark.xfail(strict=True, reason="the pivot floor's trace overflows")
CONSTRUCTOR_CASES = [
    pytest.param(*case.values, id=case.id, marks=TRACE_OVERFLOW) if case.id == "float-max-3x3"
    else case
    for case in COERCION_CASES
]


@pytest.mark.parametrize("data", CONSTRUCTOR_CASES)
def test_constructors_give_the_bits_or_the_error_of_np_array(data):
    want = _coerced(data)
    n = 1 if isinstance(want, Exception) or want.ndim == 0 else want.shape[-1]
    for name, (at_rank, build) in ARRAY_ARGUMENTS.items():
        try:
            got = build(data, n)
        except Exception as exc:
            got = exc
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want), name
        elif not isinstance(got, HRFrontierError):  # a shape or value the type rejects
            kept = at_rank(want)
            assert got.shape == kept.shape and got.tobytes() == kept.tobytes(), name
            assert not got.flags.writeable, name


def test_moment_sums_hold_one_cross_moment_buffer_and_its_extraction_buffer():
    # The products of all pairs, one extraction buffer the same size and the
    # weighted states: 2.19 cross-sizes.  A copy of the products for the
    # extraction lifts it past the budget.
    states, n = 1400, 10
    rng = np.random.default_rng(1)
    q, values = readonly(rng.dirichlet(np.ones(states))), readonly(rng.standard_normal((states, n)))
    cross_bytes = n * (n + 1) // 2 * states * 8
    assert traced_peak(lambda: moment_sums(q, values)) <= 2.5 * cross_bytes


def _check_outcome(q):
    """``(code, message, context)`` of ``check_states``' rejection, or None."""
    try:
        check_states(q, np.zeros(len(q)))
    except InvalidInputError as exc:
        return exc.code, exc.message, exc.context
    return None


def _exactly_rounded_outcome(q):
    """The rule on the exactly rounded sum that ``check_states`` must reproduce."""
    total = math.fsum(q.tolist())
    if abs(total - 1.0) > PROBABILITY_SUM_TOL:
        context = {"total": total, "tolerance": PROBABILITY_SUM_TOL}
        return "invalid_input", "probabilities do not sum to one", context
    return None


@pytest.mark.parametrize("states", [2, 3, 16, 1023, 1024, 1400, 9005, 9006, 12000])
def test_probability_check_decides_as_the_exactly_rounded_sum(states, monkeypatch):
    # Exact sums k = 0..3 ulps either side of both edges 1 -+ PROBABILITY_SUM_TOL:
    # dyadic states whose sum is exactly the target, and states drawn near it.
    rng = np.random.default_rng(states)
    outcomes = set()
    for edge in (1.0 - PROBABILITY_SUM_TOL, 1.0 + PROBABILITY_SUM_TOL):
        for k in range(-3, 4):
            target = edge
            for _ in range(abs(k)):
                target = math.nextafter(target, math.copysign(math.inf, k))
            head = rng.integers(2**38 // states, 2**40 // states, states - 1) * 2.0**-40
            dyadic = rng.permuted(np.append(head, target - math.fsum(head.tolist())))
            assert sum(map(Fraction, dyadic.tolist())) == Fraction(target)
            drawn = rng.dirichlet(np.ones(states)) * target
            for q in (dyadic, drawn):
                outcome = _exactly_rounded_outcome(q)
                assert _check_outcome(q) == outcome
                outcomes.add(outcome is None)
    assert outcomes == {True, False}
    # A float sum of exactly one decides alone while the bound fits in the
    # tolerance, that is up to 9,005 states; past that the exact rule runs.
    head = rng.integers(2**38 // states, 2**40 // states, states - 1) * 2.0**-40
    q = np.append(head, 1.0 - math.fsum(head.tolist()))  # every partial sum exact
    assert float(q.sum()) == 1.0
    calls = []
    monkeypatch.setattr(moments, "fsum_rows", lambda terms: calls.append(1) or fsum_rows(terms))
    assert _check_outcome(q) is None
    assert bool(calls) == (states > 9005)


def test_from_arrays_copies_a_writeable_q_and_keeps_an_owned_read_only_one():
    q = np.array([0.25, 0.75])
    payoff = ScenarioPayoff.from_arrays(q, [1.0, 2.0])
    assert payoff.probabilities is not q and not np.shares_memory(payoff.probabilities, q)
    assert q.flags.writeable and not payoff.probabilities.flags.writeable
    owned = readonly(q)
    assert ScenarioPayoff.from_arrays(owned, [1.0, 2.0]).probabilities is owned
    view = owned[:]
    assert ScenarioPayoff.from_arrays(view, [1.0, 2.0]).probabilities is not view


@pytest.mark.parametrize("shape, extracted", [((65, 16), False), ((1, 1400), True)])
def test_row_length_picks_the_engine_and_both_give_fsum_bits(shape, extracted, monkeypatch):
    # 65 rows of 16 terms hold more than EXTRACT_MIN_TERMS terms, but so many
    # short rows are faster one math.fsum each.
    rng = np.random.default_rng(shape[0])
    terms = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    want = [math.fsum(row) for row in terms.tolist()]
    fsum, lengths = math.fsum, []
    monkeypatch.setattr(math, "fsum", lambda row: lengths.append(len(row)) or fsum(row))
    for forced in (None, True, False):
        if forced is not None:
            monkeypatch.setattr(moments, "_extracts", lambda terms: forced)
        lengths.clear()
        assert fsum_rows(terms) == want
        assert (shape[1] in lengths) != (extracted if forced is None else forced)
