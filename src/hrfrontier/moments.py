"""Moments and performance ratios of discrete scenario payoffs.

A payoff is a finite probability distribution over real outcomes.  Its mean
over L2-norm ("hansen" ratio here) is bounded by 1 in absolute value and hits
1 exactly only for risk-free payoffs; the usual Sharpe ratio is an algebraic
transform of it.  All moment sums use compensated summation (``math.fsum``)
so that exact-decimal inputs reproduce exact-fraction references to ~1e-15.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import InvalidInputError, OutOfRangeError, ZeroPayoffError

#: Probabilities must sum to one within this absolute tolerance.
PROBABILITY_SUM_TOL = 1e-12


def _validate_states(
    states: tuple[tuple[float, float], ...], sum_tol: float = PROBABILITY_SUM_TOL
) -> None:
    if not states:
        raise InvalidInputError("a scenario payoff needs at least one state")
    for i, (prob, value) in enumerate(states):
        if not (math.isfinite(prob) and math.isfinite(value)):
            raise InvalidInputError("non-finite state entry", state=i)
        if not 0.0 < prob <= 1.0:
            raise InvalidInputError(
                "state probability must lie in (0, 1]", state=i, probability=prob
            )
    total = math.fsum(p for p, _ in states)
    if abs(total - 1.0) > sum_tol:
        raise InvalidInputError(
            "probabilities do not sum to one",
            total=total,
            tolerance=sum_tol,
        )


@dataclass(frozen=True)
class ScenarioPayoff:
    """Immutable finite payoff distribution: ``(probability, value)`` pairs."""

    states: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        normalized = tuple((float(p), float(v)) for p, v in self.states)
        object.__setattr__(self, "states", normalized)
        _validate_states(normalized)

    @classmethod
    def from_arrays(
        cls,
        probabilities: Sequence[float] | Iterable[float],
        values: Sequence[float] | Iterable[float],
        *,
        renormalize: bool = False,
        sum_tol: float = PROBABILITY_SUM_TOL,
    ) -> "ScenarioPayoff":
        """Build a payoff from parallel probability and value sequences.

        With ``renormalize`` the probabilities are rescaled to sum to one,
        provided their raw sum is within ``sum_tol`` of one (never silently).
        """
        probs = [float(p) for p in probabilities]
        vals = [float(v) for v in values]
        if len(probs) != len(vals):
            raise InvalidInputError(
                "probability and value lengths differ",
                probabilities=len(probs),
                values=len(vals),
            )
        if renormalize:
            total = math.fsum(probs)
            if not total > 0 or abs(total - 1.0) > sum_tol:
                raise InvalidInputError(
                    "probabilities too far from one to renormalize",
                    total=total,
                    tolerance=sum_tol,
                )
            probs = [p / total for p in probs]
        return cls(tuple(zip(probs, vals)))

    @classmethod
    def from_csv(
        cls,
        path: str | Path,
        *,
        renormalize: bool = False,
        sum_tol: float = PROBABILITY_SUM_TOL,
    ) -> "ScenarioPayoff":
        """Read a two-column ``probability,value`` CSV (header optional)."""
        probs: list[float] = []
        vals: list[float] = []
        with open(path, newline="", encoding="utf-8") as handle:
            for row_no, row in enumerate(csv.reader(handle)):
                cells = [c.strip() for c in row if c.strip() != ""]
                if not cells:
                    continue
                if len(cells) != 2:
                    raise InvalidInputError(
                        "scenario CSV rows need exactly two columns",
                        row=row_no + 1,
                        columns=len(cells),
                    )
                try:
                    prob, value = float(cells[0]), float(cells[1])
                except ValueError:
                    if row_no == 0:
                        continue  # header line
                    raise InvalidInputError(
                        "could not parse scenario CSV row", row=row_no + 1
                    ) from None
                probs.append(prob)
                vals.append(value)
        if not probs:
            raise InvalidInputError("scenario CSV contains no data rows", path=str(path))
        return cls.from_arrays(probs, vals, renormalize=renormalize, sum_tol=sum_tol)

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(p for p, _ in self.states)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.states)

    def min_value(self) -> float:
        return min(v for _, v in self.states)

    def max_value(self) -> float:
        return max(v for _, v in self.states)


@dataclass(frozen=True)
class RatioStats:
    """Moment summary of a payoff.

    ``sharpe`` is ``None`` for a risk-free payoff with nonzero mean: the
    Sharpe ratio is infinite there and callers must branch rather than let an
    IEEE infinity leak into arithmetic.
    """

    mean: float
    second_moment: float
    variance: float
    hansen: float
    sharpe: float | None

    @property
    def sharpe_is_infinite(self) -> bool:
        return self.sharpe is None


def stats(payoff: ScenarioPayoff) -> RatioStats:
    """Exact probability-weighted moments and both performance ratios.

    Raises ZeroPayoffError for the identically-zero payoff (the ratios are
    undefined when the L2 norm vanishes) and InvalidInputError when the
    moments are not normal floating-point numbers.
    """
    vals = payoff.values
    if not any(vals):
        raise ZeroPayoffError("payoff is zero in every state")
    risk_free = min(vals) == max(vals)
    try:
        second = math.fsum(p * v * v for p, v in payoff.states)
        mean = math.fsum(p * v for p, v in payoff.states)
        variance = 0.0 if risk_free else math.fsum(p * (v - mean) ** 2 for p, v in payoff.states)
    except OverflowError:
        second = math.inf
    if not (sys.float_info.min <= second < math.inf and (risk_free or variance > 0.0)):
        raise InvalidInputError("payoff moments overflow or underflow floating point")
    if risk_free:
        # Risk-free: zero variance by definition, ratio exactly +-1.
        return RatioStats(
            mean=mean,
            second_moment=second,
            variance=0.0,
            hansen=math.copysign(1.0, vals[0]),
            sharpe=None,
        )
    hansen = mean / math.sqrt(second)
    sharpe = mean / math.sqrt(variance)
    return RatioStats(
        mean=mean,
        second_moment=second,
        variance=variance,
        hansen=hansen,
        sharpe=sharpe,
    )


def hr_to_sr(hr: float) -> float:
    """Convert a mean/L2-norm ratio in (-1, 1) to the matching Sharpe ratio."""
    if not (math.isfinite(hr) and abs(hr) < 1.0):
        raise OutOfRangeError("ratio must lie strictly inside (-1, 1)", hr=hr)
    return hr / math.sqrt(1.0 - hr * hr)


def sr_to_hr(sr: float) -> float:
    """Inverse of :func:`hr_to_sr`; maps all of R into (-1, 1)."""
    if not math.isfinite(sr):
        raise OutOfRangeError("Sharpe ratio must be finite", sr=sr)
    return sr / math.sqrt(1.0 + sr * sr)
