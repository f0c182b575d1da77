"""Exception hierarchy with machine-readable error codes.

Every domain error carries a stable ``code`` string plus free-form context so
the CLI can emit structured error reports.
"""

from __future__ import annotations

from typing import Any


class HRFrontierError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"

    def __init__(self, message: str, **context: Any) -> None:
        super().__init__(message)
        self.message = message
        self.context = context


class InvalidInputError(HRFrontierError):
    """Malformed or inconsistent user input (bad probabilities, shapes, files)."""

    code = "invalid_input"


class ZeroPayoffError(HRFrontierError):
    """The payoff is zero in every state; its ratios are undefined."""

    code = "zero_payoff"


class OutOfRangeError(HRFrontierError):
    """Argument outside the mathematical domain of the operation."""

    code = "out_of_range"


class NotPositiveDefiniteError(HRFrontierError):
    """A second-moment or covariance matrix failed the Cholesky pivot test."""

    code = "not_positive_definite"


class StateSpaceMismatchError(HRFrontierError):
    """Scenario payoffs do not share a common state space."""

    code = "state_space_mismatch"


class InvalidBetaError(HRFrontierError):
    """Discount parameter outside (0, 1)."""

    code = "invalid_beta"


class DegeneratePricesError(HRFrontierError):
    """All prices are zero, so no fully invested portfolio exists."""

    code = "degenerate_prices"


class ArbitrageError(HRFrontierError):
    """A riskless profit at zero cost is (numerically) available."""

    code = "arbitrage_detected"


class DegenerateFrontierError(HRFrontierError):
    """The frontier collapses to a single point; parabolas are undefined."""

    code = "zero_x"


class NotScenarioBackedError(HRFrontierError):
    """Operation needs statewise payoffs but the market has none attached."""

    code = "not_scenario_backed"


class NotAKernelError(HRFrontierError):
    """Candidate kernel misprices the spanning payoffs beyond tolerance."""

    code = "not_a_kernel"


class NegativeKernelError(HRFrontierError):
    """Kernel takes negative values; the monotone bound requires m >= 0."""

    code = "negative_kernel"


class NonPositiveMeanError(HRFrontierError):
    """Monotone ratio requires a payoff with strictly positive mean."""

    code = "non_positive_mean"


class NoDownsideError(HRFrontierError):
    """Payoff is nonnegative in every state; the monotone ratio supremum (= 1)
    is approached but never attained."""

    code = "no_downside"


class InvalidHorizonError(HRFrontierError):
    """Number of periods must be an integer >= 1."""

    code = "invalid_horizon"


class TreeTooLargeError(HRFrontierError):
    """Scenario tree would exceed the hard leaf cap."""

    code = "tree_too_large"


class InternalInvariantError(HRFrontierError):
    """A mathematical identity the implementation guarantees was violated.

    Indicates a bug or catastrophic loss of precision, never bad user input.
    """

    code = "internal_invariant"
