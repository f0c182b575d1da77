"""Dense SPD linear algebra: one checked Cholesky factor and its solve.

``spd_factor`` factors a Gram or covariance matrix once; ``cholesky_solve``
applies the inverse through that factor by triangular substitution, so no
system is refactored.  Both need numpy only.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefiniteError

# Pivot floor for the Cholesky positive-definiteness test, scaled by trace/n.
SPD_PIVOT_FACTOR = 1e-10
# Rows per block of the triangular substitution in ``cholesky_solve``.
SOLVE_BLOCK = 64


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



def cholesky_solve(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``G^-1 rhs`` for ``G = lower @ lower.T``: forward, then back substitution.

    Both sweeps run in blocks of ``SOLVE_BLOCK`` rows.  Each block subtracts
    the part already solved with one matmul and then solves its triangular
    diagonal block with ``np.linalg.solve``, so the work is O(n^2) plus one
    small LU per block, where a solve on the whole factor is a full O(n^3)
    LU.  With at most ``SOLVE_BLOCK`` unknowns there is one block, and the
    result is exactly ``solve(lower.T, solve(lower, rhs))``.
    """
    n = lower.shape[0]
    blocks = [slice(i, min(i + SOLVE_BLOCK, n)) for i in range(0, n, SOLVE_BLOCK)]
    x = np.array(rhs, dtype=float)
    for b in blocks:
        x[b] = np.linalg.solve(lower[b, b], x[b] - lower[b, : b.start] @ x[: b.start])
    upper = lower.T
    for b in reversed(blocks):
        x[b] = np.linalg.solve(upper[b, b], x[b] - upper[b, b.stop :] @ x[b.stop :])
    return x
