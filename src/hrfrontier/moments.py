"""Moments and performance ratios of discrete scenario payoffs.

A payoff is a finite probability distribution over real outcomes, held as two
read-only float arrays: the state probabilities ``q`` and the values.  Its
mean over L2-norm ("hansen" ratio here) is bounded by 1 in absolute value and
hits 1 exactly only for risk-free payoffs; the usual Sharpe ratio is an
algebraic transform of it.  Every moment is an exactly rounded sum over the
read-only arrays (one ``math.fsum`` per row for short inputs, error-free
extraction for long ones), so the order of the states does not matter and
exact-decimal inputs reproduce exact-fraction references to ~1e-15.
"""

from __future__ import annotations

import csv
import functools
import math
import struct
import sys
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidInputError, OutOfRangeError, ZeroPayoffError

#: Probabilities must sum to one within this absolute tolerance.
PROBABILITY_SUM_TOL = 1e-12

#: ``fsum_rows`` extracts inputs of at least this many terms unless their
#: rows are short; below it one ``math.fsum`` per row is faster.
EXTRACT_MIN_TERMS = 1024


def readonly(data) -> np.ndarray:
    """``data`` as a read-only float array: itself when it already is one that
    owns its memory, else a copy.  A list of numbers, or of equal-length lists
    of numbers, is packed by :mod:`struct` to the doubles ``np.array`` gives."""
    owned = type(data) is np.ndarray and data.dtype == float and data.base is None
    if owned and not data.flags.writeable:
        return data
    out = _packed(data) if type(data) is list else None
    if out is None:
        out = np.array(data, dtype=float)
    out.flags.writeable = False
    return out


def _packed(data: list) -> np.ndarray | None:
    rows = data if data and type(data[0]) is list else [data]
    width = len(rows[0])
    out = np.empty((len(rows), width) if rows is data else width)
    pack = _row_format(width).pack_into
    try:
        for i, row in enumerate(rows):
            if type(row) is not list:
                return None
            pack(out, 8 * width * i, *row)
    except struct.error:  # a string, None, a sequence or a huge int entry; a ragged row
        return None
    return out


def check_states(q: np.ndarray, values: np.ndarray) -> None:
    """Reject unless ``q`` is a probability vector over the rows of ``values``.

    ``q`` is a vector; ``values`` holds one row per state: a vector for one
    payoff, a matrix for the payoffs that span a market.
    """
    if len(q) != len(values):
        raise InvalidInputError(
            "probability and value lengths differ",
            probabilities=len(q),
            values=len(values),
        )
    if not len(q):
        raise InvalidInputError("a scenario payoff needs at least one state")
    finite = np.isfinite(q) & np.isfinite(values.reshape(len(q), -1)).all(axis=1)
    good = finite & (q > 0.0) & (q <= 1.0)
    if not good.all():
        i = int(np.argmin(good))
        if not finite[i]:
            raise InvalidInputError("non-finite state entry", state=i)
        raise InvalidInputError(
            "state probability must lie in (0, 1]", state=i, probability=float(q[i])
        )
    # Any order of float additions gives sum q_i (1 + d_i), |d_i| <= gamma_(S-1)
    # (Higham 2002, §4.2), so q.sum() is within S * 2**-53 of the exact sum T
    # when T is near one.  Rounding T adds at most 2**-53, the last 2**-53
    # covers the rounding of this test's addition (s - 1 is exact), and so a
    # sum that passes here passes the exactly rounded rule below.
    if abs(float(q.sum()) - 1.0) + (len(q) + 2) * 2.0**-53 <= PROBABILITY_SUM_TOL:
        return
    total = fsum_rows(q[None])[0]
    if abs(total - 1.0) > PROBABILITY_SUM_TOL:
        raise InvalidInputError(
            "probabilities do not sum to one",
            total=total,
            tolerance=PROBABILITY_SUM_TOL,
        )


def moment_sums(q: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means ``E[v_i]`` and second moments ``E[v_i v_j]`` of the columns of ``values``.

    Each entry is one exactly rounded sum (:func:`fsum_rows`) of the products
    ``q*v_i`` or ``(q*v_i)*v_j`` over the states; an entry beyond the float
    range is NaN or infinite.
    """
    n = values.shape[1]
    rows, cols = _upper_triangle(n)
    # The rows of ``cross`` follow ``rows, cols``: asset i's group holds entries
    # (i, i..n-1).  Asset 0's group first holds the values as contiguous rows,
    # one per asset, which every group multiplies; it is overwritten last.
    cross = np.empty((len(rows), len(q)))
    by_asset = cross[:n]
    by_asset[...] = values.T
    weighted = q * by_asset
    with np.errstate(over="ignore"):
        for i in reversed(range(n)):
            start = i * n - i * (i - 1) // 2
            np.multiply(weighted[i], by_asset[i:], out=cross[start : start + n - i])
    means, sums = _fsum_rows(weighted), _fsum_rows(cross)
    gram = np.empty((n, n))
    gram[rows, cols] = sums
    gram[cols, rows] = sums
    return np.array(means), gram


def fsum_rows(terms: np.ndarray) -> list[float]:
    """Exactly rounded sum of each row; NaN for all of them when one leaves
    the float range (or holds both infinities).

    Long inputs of finite terms below ``2**(1023 - bits)``, with
    ``2**bits >= row length + 2``, are summed by error-free extraction (Rump,
    Ogita & Oishi 2008): each pass splits every term at one power of two into
    a high part, whose row sums are exact in any order, and an exact residual
    ``2**(53 - bits)`` times smaller.  One ``math.fsum`` of each row's few
    partial sums then rounds once, so the bits are those of ``math.fsum`` of
    the row, the path all other inputs take.  ``terms`` is left unchanged.
    """
    if _extracts(terms):
        terms = np.array(terms, dtype=float)
    return _fsum_rows(terms)


def _extracts(terms: np.ndarray) -> bool:
    # Extraction costs about four terms more per row than math.fsum (the
    # final sum of the row's partial sums); timed, it wins once the rows
    # hold some 800 terms beyond that, so many short rows stay with math.fsum.
    return terms.size >= EXTRACT_MIN_TERMS and terms.size - 4 * len(terms) >= 800


def _fsum_rows(terms: np.ndarray) -> list[float]:
    """:func:`fsum_rows` of a float array, which long inputs overwrite."""
    if _extracts(terms):
        bits = (terms.shape[1] + 1).bit_length()
        high = np.abs(terms)
        mag = high.max()
        if mag < 2.0 ** (1023 - bits):  # false for NaN and inf
            parts = []
            while mag > 0.0:
                sigma = math.ldexp(1.0, math.frexp(mag)[1] + bits)
                np.add(terms, sigma, out=high)
                high -= sigma
                terms -= high
                parts.append(high.sum(axis=1))
                mag = np.abs(terms, out=high).max()
            return [math.fsum(row) for row in np.reshape(parts, (-1, len(terms))).T.tolist()]
    rows = terms.tolist()
    try:
        return [math.fsum(row) for row in rows]
    except (OverflowError, ValueError):
        return [math.nan] * len(rows)


@functools.lru_cache(maxsize=64)
def _upper_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(n)


@functools.lru_cache(maxsize=64)
def _row_format(width: int) -> struct.Struct:
    return struct.Struct(f"{width}d")


class Frozen:
    """Base of the checked types: ``__init__`` checks its arguments and stores
    the fields in the instance's ``__dict__``, and no attribute is set or
    deleted after that.  Instances compare and hash by identity."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = (f"{k}={v!r}" for k, v in vars(self).items() if not k.startswith("_"))
        return f"{type(self).__name__}({', '.join(fields)})"


class FrozenValue(Frozen):
    """A :class:`Frozen` type compared and hashed by its fields' values."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))


class ScenarioPayoff(Frozen):
    """Immutable finite payoff distribution: read-only ``probabilities`` and
    ``values`` arrays, one entry per state."""

    def __init__(
        self, probabilities: Sequence[float] | np.ndarray, values: Sequence[float] | np.ndarray
    ) -> None:
        q, values = readonly(probabilities), readonly(values)
        vars(self).update(probabilities=q, values=values)
        if q.ndim != 1 or values.ndim != 1:
            raise InvalidInputError("probabilities and values must be vectors")
        check_states(q, values)

    @classmethod
    def from_arrays(
        cls,
        probabilities: Sequence[float] | np.ndarray,
        values: Sequence[float] | np.ndarray,
        *,
        renormalize: bool = False,
        sum_tol: float = PROBABILITY_SUM_TOL,
    ) -> "ScenarioPayoff":
        """Build a payoff from parallel probability and value sequences.

        With ``renormalize`` the probabilities are rescaled to sum to one,
        provided their raw sum is within ``sum_tol`` of one (never silently).
        """
        q = readonly(probabilities)
        if renormalize:
            total = fsum_rows(q.reshape(1, -1))[0]
            if not total > 0 or abs(total - 1.0) > sum_tol:
                raise InvalidInputError(
                    "probabilities too far from one to renormalize",
                    total=total,
                    tolerance=sum_tol,
                )
            q = q / total
        return cls(q, values)

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


class RatioStats(NamedTuple):
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
    q, vals = payoff.probabilities, payoff.values
    if not vals.any():
        raise ZeroPayoffError("payoff is zero in every state")
    risk_free = vals.min() == vals.max()
    with np.errstate(over="ignore"):  # rejected below
        weighted = q * vals
        mean, second = _fsum_rows(np.array((weighted, weighted * vals)))
        dev = vals - mean
        variance = 0.0 if risk_free else fsum_rows((q * (dev * dev))[None])[0]
    if not (sys.float_info.min <= second < math.inf and (risk_free or 0.0 < variance < math.inf)):
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
