"""Fuzz of the command line over generated market JSON and scenario CSV files,
and of the statewise library entry points over kernel-priced scenario markets.

Every run must end in one of two ways: exit 0 with a JSON report on stdout,
or exit 1 with one strict-JSON error line on stderr.  Exit 2, with the
last-resort ``internal_error`` (an exception the code did not expect) or an
``internal_invariant`` (a broken identity), is a bug on any input.  A library
call likewise returns or raises an ``HRFrontierError`` other than
``InternalInvariantError``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hrfrontier import (
    DatedFlows,
    HRFrontierError,
    InternalInvariantError,
    ScenarioPayoff,
    SequenceSpaceSpec,
    check_kernel,
    gram_from_scenarios,
    gram_from_sequence_space,
    kernel_frontier,
    monotone_hansen_ratio,
    monotone_hj_bound,
    special_portfolios,
    tree_oracle,
)
from hrfrontier.cli import main

FUZZ = settings(
    derandomize=True,
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Scales across the float range, and the values that break solvers.
SCALE = st.sampled_from([1.0, 1e-300, 1e-150, 1e-9, 1e-3, 1e3, 1e9, 1e150, 1e300])
SPECIAL = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, 1e-320, 1e308, -1e308, math.nan, math.inf, -math.inf]
)
NUMBER = st.one_of(
    st.floats(-3.0, 3.0),
    st.builds(lambda x, c: x * c, st.floats(-3.0, 3.0), SCALE),
    SPECIAL,
)


# JSON integers: small, next to 2**53 (where floats stop holding every
# integer), beyond the float range; and booleans.
INTEGER = st.one_of(
    st.integers(-3, 3),
    st.integers(2**53 - 2, 2**53 + 2),
    st.just(10**400),
    st.booleans(),
)


@st.composite
def corrupt(draw, rows):
    """Mostly leave a matrix alone; else drop one entry (a ragged row), or
    replace one by a number from anywhere in the float range or an integer."""
    rows = [list(row) for row in rows]
    mutation = draw(st.integers(0, 10))
    i = draw(st.integers(0, len(rows) - 1))
    if mutation == 8:
        rows[i] = rows[i][:-1]
    elif mutation >= 9:
        entry = NUMBER if mutation == 9 else INTEGER
        rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(entry)
    return rows


@st.composite
def moments(draw, n: int):
    """Means and a covariance matrix (factor times its transpose), scaled by c and c**2."""
    factor = draw(
        st.lists(st.lists(st.floats(-1.0, 1.0), min_size=n + 1, max_size=n + 1), min_size=n, max_size=n)
    )
    c = draw(SCALE)
    mu = [c * m for m in draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n))]
    sigma = [
        [c * c * (math.fsum(a * b for a, b in zip(row_i, row_j)) + 0.05 * (i == j)) for j, row_j in enumerate(factor)]
        for i, row_i in enumerate(factor)
    ]
    return mu, sigma


@st.composite
def universe_market(draw):
    mu, sigma = draw(moments(draw(st.integers(1, 4))))
    mu = draw(corrupt([mu]))[0]
    return {"kind": "universe", "mu": mu, "sigma": draw(corrupt(sigma))}


@st.composite
def gram_market(draw):
    mu, sigma = draw(moments(draw(st.integers(1, 4))))
    gram = [[s + a * b for s, b in zip(row, mu)] for row, a in zip(sigma, mu)]
    prices = draw(st.lists(st.floats(-0.5, 1.5), min_size=len(mu), max_size=len(mu)))
    means, prices = draw(corrupt([mu, [p * draw(SCALE) for p in prices]]))
    return {"kind": "gram", "G": draw(corrupt(gram)), "m": means, "p": prices}


@st.composite
def sequence_market(draw):
    n_states = draw(st.integers(1, 4))
    n = draw(st.integers(1, min(3, n_states)))
    horizon = draw(st.integers(1, 12))
    flows = []
    for date in draw(st.lists(st.integers(1, horizon + 1), min_size=1, max_size=3, unique=True)):
        weights = draw(st.lists(st.floats(0.1, 1.0), min_size=n_states, max_size=n_states))
        total = math.fsum(weights)
        probs = [w / total for w in weights]
        values = draw(
            st.lists(st.lists(st.floats(0.0, 2.0), min_size=n_states, max_size=n_states), min_size=n, max_size=n)
        )
        probs, *values = draw(corrupt([probs, *values]))
        flows.append({"date": date, "probabilities": probs, "values": values})
    beta = draw(st.one_of(st.floats(0.05, 0.95), SPECIAL))
    prices = draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n))
    return {"kind": "sequence", "beta": beta, "horizon": horizon, "prices": prices, "flows": flows}


@st.composite
def complete_sequence_market(draw):
    """One date of a one-date horizon, as many payoffs as states: the
    market spans every payoff, so its ratios sum to one up to rounding."""
    n = draw(st.integers(1, 4))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))
    total = math.fsum(weights)
    values = draw(st.lists(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n), min_size=n, max_size=n))
    flow = {"date": 1, "probabilities": [w / total for w in weights], "values": values}
    beta = draw(st.floats(0.05, 0.95))
    prices = draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n))
    return {"kind": "sequence", "beta": beta, "horizon": 1, "prices": prices, "flows": [flow]}


MARKET = st.one_of(universe_market(), gram_market(), sequence_market())
# Grid bounds near the frontier and out to the edge of the float range.
GRID_BOUND = st.one_of(
    st.floats(-3.0, 3.0),
    st.builds(lambda x, e: x * 10.0**e, st.floats(-1.0, 1.0), st.integers(150, 308)),
)


@st.composite
def grid_argv(draw):
    command = draw(st.sampled_from([["frontier"], ["multiperiod", "--periods", "4"]]))
    lo, hi = sorted([draw(GRID_BOUND), draw(GRID_BOUND)])
    return [*command, f"--grid={lo!r}:{hi!r}:{draw(st.integers(2, 6))}"]


MARKET_ARGV = st.one_of(
    st.sampled_from(
        [
            ["frontier"],
            ["multiperiod", "--periods", "4"],
            ["multiperiod", "--periods", "5000"],
            ["hj"],
        ]
    ),
    grid_argv(),
)


@st.composite
def scenario_csv(draw):
    n_states = draw(st.integers(1, 6))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=n_states, max_size=n_states))
    total = math.fsum(weights)
    scale = draw(SCALE)
    values = draw(st.lists(st.floats(-1.0, 2.0), min_size=n_states, max_size=n_states))
    rows = [[repr(w / total), repr(scale * v)] for w, v in zip(weights, values)]
    if draw(st.booleans()):  # a duplicated state: one row split in two halves
        i = draw(st.integers(0, n_states - 1))
        rows[i][0] = repr(float(rows[i][0]) / 2)
        rows.append(list(rows[i]))
    if n_states > 1 and draw(st.booleans()):  # tied outcomes
        rows[1][1] = rows[0][1]
    mutation = draw(st.integers(0, 9))  # most files stay well formed
    if mutation == 7:
        rows[0].append("1.0")  # ragged row
    elif mutation == 8:
        rows[-1][0] = draw(st.sampled_from(["nan", "inf", "-0.1", "2", "x", ""]))
    elif mutation == 9:
        rows[-1][1] = draw(st.one_of(st.sampled_from(["nan", "inf", "1e400", "x"]), NUMBER.map(repr)))
    header = "probability,value\n" if draw(st.booleans()) else ""
    return header + "".join(",".join(row) + "\n" for row in rows)


CSV_ARGV = st.sampled_from(
    [[], ["--allow-no-downside"], ["--renormalize", "--prob-tol", "1e-6"]]
)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _reject_constant(token):
    raise ValueError(f"{token} is not strict JSON")


def _assert_clean_ending(code: int, out: str, err: str) -> None:
    if code == 0:
        assert err == ""
        json.loads(out, parse_constant=_reject_constant)
        return
    assert code in (1, 2) and out == ""
    lines = err.splitlines()
    assert len(lines) == 1, err
    report = json.loads(lines[0], parse_constant=_reject_constant)
    assert set(report) == {"code", "message", "context"}
    assert report["code"] not in ("internal_error", "internal_invariant"), report


@FUZZ
@given(market=MARKET, argv=MARKET_ARGV)
def test_every_market_file_ends_cleanly(market, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "market.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(market, handle)  # NaN and Infinity tokens included
        if argv[-1].startswith("--grid="):
            argv = [*argv, "--points-csv", os.path.join(tmp, "points.csv")]
        _assert_clean_ending(*_run([argv[0], "--input", path, *argv[1:]]))


@settings(FUZZ, max_examples=300)
@given(market=complete_sequence_market(), periods=st.sampled_from(["2", "3", "4", "8", "50"]))
def test_every_complete_market_ends_cleanly(market, periods):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "market.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(market, handle)
        code, out, err = _run(["multiperiod", "--input", path, "--periods", periods])
        assert code in (0, 1)
        _assert_clean_ending(code, out, err)


@FUZZ
@given(text=scenario_csv(), argv=CSV_ARGV)
def test_every_scenario_csv_ends_cleanly(text, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "payoff.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        _assert_clean_ending(*_run(["mhr", "--input", path, *argv]))


# Values on a grid of quarters, so that outcomes tie across states and payoffs.
QUARTER = st.integers(-8, 8).map(lambda k: k / 4)
# A nonnegative kernel value, zero in some states.
KERNEL_VALUE = st.one_of(st.just(0.0), st.floats(0.0, 2.0))


@st.composite
def states(draw, n_states: int, n: int):
    """Probabilities and one row of quarter-grid values per state; maybe one
    state split into two equally likely duplicates."""
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=n_states, max_size=n_states))
    total = math.fsum(weights)
    q = [w / total for w in weights]
    rows = draw(st.lists(st.lists(QUARTER, min_size=n, max_size=n), min_size=n_states, max_size=n_states))
    if draw(st.booleans()):
        i = draw(st.integers(0, n_states - 1))
        q[i] /= 2
        q.append(q[i])
        rows.append(rows[i])
    return q, rows


def _clean(call):
    """The call's result, or None when it rejects its input as it should."""
    try:
        return call()
    except InternalInvariantError:
        raise
    except HRFrontierError:
        return None


@st.composite
def priced_scenario_market(draw):
    """A market and the nonnegative kernel ``k`` that sets its prices,
    ``prices = (q k) @ V``: explicit scenario payoffs, or a sequence market
    priced on its (date, state) atoms."""
    rng = None
    if draw(st.booleans()):
        if draw(st.integers(0, 3)):
            n_states = draw(st.integers(1, 64))
            q, rows = draw(states(n_states, draw(st.integers(1, min(n_states, 5)))))
            q, values = np.array(q), np.array(rows)
        else:
            # Long enough that the moments are summed by extraction; drawn
            # from a seeded generator, since drawing each of so many states
            # would overrun Hypothesis's data budget.
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            n_states = draw(st.integers(512, 1500))
            q = rng.uniform(0.1, 1.0, n_states)
            q /= math.fsum(q.tolist())
            values = rng.integers(-8, 9, (n_states, draw(st.integers(1, 5)))) / 4

        def build(prices):
            basis = [ScenarioPayoff.from_arrays(q, column) for column in values.T]
            return gram_from_scenarios(basis, prices)
    else:
        n_states = draw(st.integers(1, 8))
        n = draw(st.integers(1, min(n_states, 3)))
        horizon = draw(st.integers(1, 6))
        flows = []
        for date in draw(st.lists(st.integers(1, horizon), min_size=1, max_size=3, unique=True)):
            q, rows = draw(states(n_states, n))
            flows.append(DatedFlows(date=date, probabilities=q, values=np.array(rows).T))
        spec = SequenceSpaceSpec(beta=draw(st.floats(0.05, 0.95)), horizon=horizon, flows=tuple(flows))

        def build(prices):
            return gram_from_sequence_space(spec, prices)

        # The atoms do not depend on the prices; any market on them shows them.
        market = _clean(lambda: build(np.ones(n)))
        if market is None:
            return None
        q, values = market.state_probabilities, market.scenario_values
    if rng is not None:
        kernel = np.where(rng.random(len(q)) < 0.3, 0.0, rng.uniform(0.0, 2.0, len(q)))
    else:
        kernel = np.array(draw(st.lists(KERNEL_VALUE, min_size=len(q), max_size=len(q))))
    return build, q, values, kernel


@FUZZ
@given(case=priced_scenario_market())
def test_statewise_entry_points_end_cleanly(case):
    if case is None:
        return
    build, q, values, kernel = case
    market = _clean(lambda: build((q * kernel) @ values))
    if market is None:
        return
    family = _clean(lambda: kernel_frontier(market))
    if family is not None:
        _clean(lambda: check_kernel(family.kernel(family.eta_star or 0.0), market))
    _clean(lambda: monotone_hj_bound(market, ScenarioPayoff(q, kernel)))
    _clean(lambda: monotone_hansen_ratio(ScenarioPayoff(q, values @ special_portfolios(market).w_x)))
    _clean(lambda: tree_oracle(market, 2))
