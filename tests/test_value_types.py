"""Semantics of the public value types.

Every public type is immutable.  Markets, universes, dated flows and payoffs
compare and hash by identity; records compare by value; the checked types
reject bad arguments when built directly; and every ``to_dict`` keeps its
key order.
"""

import numpy as np
import pytest

from hrfrontier import (
    AssetUniverse,
    DatedFlows,
    FrontierCoefficients,
    FrontierPoint,
    GramMarket,
    HansenBoundReport,
    HJBoundReport,
    InvalidHorizonError,
    InvalidInputError,
    KernelCheck,
    KernelFrontier,
    MonotoneBoundReport,
    MonotoneResult,
    MultiperiodStats,
    Parabola,
    RatioStats,
    ScenarioPayoff,
    ScenarioTree,
    SequenceSpaceSpec,
    SpecialPortfolios,
    check_hansen_bound,
    check_kernel,
    frontier_coefficients,
    frontier_points,
    gram_from_universe,
    hj_bounds,
    kernel_frontier,
    monotone_hansen_ratio,
    product_tree,
    propagate,
    special_portfolios,
    stats,
)

from conftest import BENCHMARK_MU, BENCHMARK_SIGMA, lifted_benchmark


def flows() -> tuple[DatedFlows, ...]:
    return (DatedFlows(date=1, probabilities=(0.5, 0.5), values=((1.0, 2.0),)),)


@pytest.fixture(scope="module")
def instances() -> dict:
    """One instance of every public value type, keyed by the type."""
    market = lifted_benchmark()
    sp = special_portfolios(market)
    coeffs = frontier_coefficients(sp)
    family = kernel_frontier(market)
    payoff = ScenarioPayoff.from_arrays([0.25, 0.25, 0.5], [-0.5, 1.0, 2.0])
    built = [
        AssetUniverse(np.array(BENCHMARK_MU), np.array(BENCHMARK_SIGMA)),
        market,
        payoff,
        flows()[0],
        SequenceSpaceSpec(beta=0.5, horizon=4, flows=flows()),
        sp,
        coeffs,
        coeffs.mu_omega,
        frontier_points(coeffs, [1.0])[0],
        check_hansen_bound(sp),
        family,
        check_kernel(family.kernel(family.eta_star), market),
        hj_bounds(market),
        stats(payoff),
        monotone_hansen_ratio(payoff),
        MonotoneBoundReport(0.1, 0.1, 0.5, 0.2, 0.5, True, True),
        propagate(sp, 3),
        product_tree(market, 2),
    ]
    return {type(value): value for value in built}


PUBLIC_TYPES = [
    AssetUniverse,
    GramMarket,
    ScenarioPayoff,
    DatedFlows,
    SequenceSpaceSpec,
    SpecialPortfolios,
    FrontierCoefficients,
    Parabola,
    FrontierPoint,
    HansenBoundReport,
    KernelFrontier,
    KernelCheck,
    HJBoundReport,
    RatioStats,
    MonotoneResult,
    MonotoneBoundReport,
    MultiperiodStats,
    ScenarioTree,
]


@pytest.mark.parametrize("kind", PUBLIC_TYPES, ids=lambda kind: kind.__name__)
def test_no_attribute_is_set_or_deleted(instances, kind):
    value = instances[kind]
    field = value._fields[0] if hasattr(value, "_fields") else next(iter(vars(value)))
    before = getattr(value, field)
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert getattr(value, field) is before


@pytest.mark.parametrize("kind", [GramMarket, AssetUniverse, DatedFlows, ScenarioPayoff])
def test_identity_types_compare_and_hash_by_identity(instances, kind):
    value = instances[kind]
    fields = {name: v for name, v in vars(value).items() if not name.startswith("_")}
    if kind is GramMarket:
        twin = gram_from_universe(instances[AssetUniverse])
    else:
        twin = kind(**fields)
    assert value == value and value != twin
    assert hash(value) == object.__hash__(value)
    assert len({value, twin, value}) == 2


def test_records_compare_and_hash_by_value(instances):
    market = instances[GramMarket]
    sp = special_portfolios(market)
    payoff = instances[ScenarioPayoff]
    for first, second in [
        (propagate(sp, 3), propagate(sp, 3)),
        (
            SequenceSpaceSpec(0.5, 4, (instances[DatedFlows],)),
            SequenceSpaceSpec(beta=0.5, horizon=4, flows=[instances[DatedFlows]]),
        ),
        (stats(payoff), stats(payoff)),
        (hj_bounds(market), hj_bounds(market)),
        (frontier_coefficients(sp), frontier_coefficients(sp)),
        (monotone_hansen_ratio(payoff), monotone_hansen_ratio(payoff)),
    ]:
        assert first is not second and first == second and hash(first) == hash(second)
    assert propagate(sp, 3) != propagate(sp, 4)
    assert SequenceSpaceSpec(0.5, 4, flows()) != SequenceSpaceSpec(0.5, 4, flows())


def test_to_dict_key_order_is_unchanged(instances):
    assert list(instances[SpecialPortfolios].to_dict()) == [
        "w_y", "w_x", "w_z", "mu_y", "omega_sq_y", "hr_sq_y", "hr_sq_x", "mu_z",
        "sigma_sq_z", "max_hr_attained",
    ]
    assert list(instances[FrontierCoefficients].to_dict()) == ["degenerate", "mu_omega", "mu_sigma"]
    assert list(instances[FrontierCoefficients].to_dict()["mu_sigma"]) == [
        "level", "curvature", "center",
    ]
    assert list(instances[MultiperiodStats].to_dict()) == [
        "horizon", "mu_y", "omega_sq_y", "hr_sq_y", "hr_sq_x", "slack",
    ]
    assert list(instances[KernelCheck].to_dict()) == [
        "hr_sq_m", "var_over_mean_sq", "hr_bound", "variance_bound", "pass",
    ]
    assert list(instances[HJBoundReport].to_dict()) == [
        "hr_bound", "variance_bound", "kernel_checks",
    ]
    assert list(instances[MonotoneResult].to_dict()) == [
        "mhr", "msr", "k_hat", "alpha_hat", "truncated",
    ]


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: AssetUniverse([1.0, np.inf], np.eye(2)), InvalidInputError),
        (lambda: GramMarket(np.ones((2, 3)), [1.0, 1.0], [1.0, 1.0]), InvalidInputError),
        (lambda: ScenarioPayoff([[0.5, 0.5]], [[1.0, 2.0]]), InvalidInputError),
        (lambda: DatedFlows(date=0, probabilities=(1.0,), values=((1.0,),)), InvalidHorizonError),
        (lambda: MultiperiodStats(0, 0.5, 1.0, 0.25, 0.5, 0.25), InvalidHorizonError),
    ],
)
def test_direct_construction_checks_its_arguments(build, error):
    # SequenceSpaceSpec's checks and MultiperiodStats' budget checks have
    # their own tests in test_market.py and test_multiperiod.py.
    with pytest.raises(error):
        build()


def test_repr_names_the_fields_but_not_the_memo(instances):
    text = repr(instances[GramMarket])
    assert text.startswith("GramMarket(gram=array(") and "meta=" in text
    assert "_special_portfolios" not in text
    assert "_factor" not in repr(instances[AssetUniverse])
