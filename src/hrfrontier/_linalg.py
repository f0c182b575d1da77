"""Dense SPD linear algebra: one checked Cholesky factor and its sweeps.

``spd_factor`` factors a Gram or covariance matrix once, and ``check_pivots``
is its pivot test, also for pivots found without factoring; ``triangular_solve``
sweeps a triangular factor forward (lower) or back (upper) by substitution,
so no system is refactored.  All need numpy only.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefiniteError

# Pivot floor for the Cholesky positive-definiteness test, scaled by trace/n.
SPD_PIVOT_FACTOR = 1e-10
# Rows per block of the triangular substitution in ``triangular_solve``.
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
    check_pivots(np.diag(lower) ** 2, a, name=name)
    return lower


def check_pivots(pivots: np.ndarray, matrix: np.ndarray, *, name: str = "gram matrix") -> None:
    """Raise NotPositiveDefiniteError unless every Cholesky pivot of
    ``matrix`` (a squared diagonal entry of its factor) reaches
    ``1e-10 * trace/n``; a NaN pivot fails too."""
    with np.errstate(over="ignore"):  # a trace past the float range is inf here
        floor = SPD_PIVOT_FACTOR * matrix.trace() / matrix.shape[0]
    if floor == np.inf:  # so sum the diagonal scaled by 2**-64, which is exact
        floor = SPD_PIVOT_FACTOR * (matrix.diagonal() * 2.0**-64).sum() / matrix.shape[0] * 2.0**64
    low = pivots.min()
    if not low >= floor:
        raise NotPositiveDefiniteError(
            f"{name} is numerically singular (pivot below tolerance)",
            min_pivot=float(low),
            pivot_floor=float(floor),
        )


def triangular_solve(tri: np.ndarray, rhs: np.ndarray, *, lower: bool) -> np.ndarray:
    """``tri^-1 rhs`` for a lower (forward sweep) or upper (back sweep)
    triangular ``tri``; ``rhs`` is a vector or a matrix of columns.

    The sweep runs in blocks of ``SOLVE_BLOCK`` rows.  Each block subtracts
    the part already solved with one matmul and then solves its triangular
    diagonal block with ``np.linalg.solve``, so the work is O(n^2) plus one
    small LU per block, where a solve on the whole factor is a full O(n^3)
    LU.  With at most ``SOLVE_BLOCK`` unknowns there is one block, and the
    result is exactly ``np.linalg.solve(tri, rhs)``.
    """
    n = tri.shape[0]
    if n <= SOLVE_BLOCK:
        return np.linalg.solve(tri, rhs)
    blocks = [slice(i, min(i + SOLVE_BLOCK, n)) for i in range(0, n, SOLVE_BLOCK)]
    x = np.array(rhs, dtype=float)
    for b in blocks if lower else reversed(blocks):
        done = slice(0, b.start) if lower else slice(b.stop, n)
        x[b] = np.linalg.solve(tri[b, b], x[b] - tri[b, done] @ x[done])
    return x
