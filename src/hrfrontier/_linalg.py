"""Shared dense linear-algebra helpers for small SPD systems."""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefiniteError

# Pivot floor for the Cholesky positive-definiteness test, scaled by trace/n.
SPD_PIVOT_FACTOR = 1e-10


def spd_factor(matrix: np.ndarray, *, name: str = "gram matrix") -> np.ndarray:
    """Lower Cholesky factor of an SPD matrix.

    Raises NotPositiveDefiniteError if the factorization fails or any pivot
    falls below ``1e-10 * trace/n`` (a collinear or indefinite input).
    """
    a = np.asarray(matrix, dtype=float)
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"{name} is not positive definite", size=a.shape[0]
        ) from exc
    pivots = np.diag(lower) ** 2
    floor = SPD_PIVOT_FACTOR * np.trace(a) / a.shape[0]
    if pivots.min() < floor:
        raise NotPositiveDefiniteError(
            f"{name} is numerically singular (pivot below tolerance)",
            min_pivot=float(pivots.min()),
            pivot_floor=float(floor),
        )
    return lower

