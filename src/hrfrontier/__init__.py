"""Mean-variance frontier toolkit built on mean/L2-norm performance ratios.

Covers the special portfolios that span the efficient frontier, both frontier
parameterizations, pricing-kernel bounds (plain and positivity-constrained),
exact monotone ratios of discrete payoffs, and closed-form multiperiod
propagation under IID returns with a scenario-tree oracle.

Names are resolved on first use (PEP 562), so ``import hrfrontier`` loads
neither numpy nor any submodule; a name or a submodule such as
``hrfrontier.frontier`` is imported when it is first read.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "errors": (
        "ArbitrageError", "DegenerateFrontierError", "DegeneratePricesError", "HRFrontierError",
        "InternalInvariantError", "InvalidBetaError", "InvalidHorizonError", "InvalidInputError",
        "NegativeKernelError", "NoDownsideError", "NonPositiveMeanError", "NotAKernelError",
        "NotPositiveDefiniteError", "NotScenarioBackedError", "OutOfRangeError",
        "StateSpaceMismatchError", "TreeTooLargeError", "ZeroPayoffError",
    ),
    "frontier": (
        "FrontierCoefficients", "FrontierPoint", "HansenBoundReport", "Parabola",
        "SpecialPortfolios", "check_hansen_bound", "frontier_coefficients", "frontier_points",
        "special_portfolios",
    ),
    "kernel": (
        "HJBoundReport", "KernelCheck", "KernelFrontier", "check_kernel", "hj_bounds",
        "kernel_frontier",
    ),
    "market": (
        "AssetUniverse", "DatedFlows", "GramMarket", "SequenceSpaceSpec", "gram_from_scenarios",
        "gram_from_sequence_space", "gram_from_universe", "market_from_json",
    ),
    "moments": (
        "RatioStats", "ScenarioPayoff", "hr_to_sr", "sr_to_hr", "stats",
    ),
    "monotone": (
        "MonotoneBoundReport", "MonotoneResult", "monotone_hansen_ratio", "monotone_hj_bound",
        "monotonized_utility",
    ),
    "multiperiod": (
        "MultiperiodStats", "ScenarioTree", "multiperiod_frontier", "product_tree", "propagate",
        "tree_oracle",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "_linalg", "benchmark", "cli"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
