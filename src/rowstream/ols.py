"""Out-of-core least squares via blockwise normal equations.

Accumulate X'X and X'y a chunk at a time, merge accumulators in sequence
order, then solve once.  Aliased columns are found by a Cholesky pass in
column order that drops column k when its pivot is at most rank_tol times
its own original diagonal: a per-column test, so column scale does not
matter, and the earlier of two collinear columns is kept, as in R's ``lm``.
Coefficients are solved on the kept subsystem; dropped columns are reported
by name with no coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateSystem,
    DimensionMismatch,
    NotPositiveSemidefinite,
    SchemaError,
)
from .matrix import DenseMatrix

__all__ = [
    "DEFAULT_RANK_TOL",
    "NormalEqAccumulator",
    "RegressionFit",
    "accumulate",
    "merge",
    "solve_ne",
]

DEFAULT_RANK_TOL = 1e-7


@dataclass
class NormalEqAccumulator:
    """Running sums for the normal equations: X'X, X'y, and the row count.

    Single-owner: accumulate mutates in place.  Parallel callers keep one
    accumulator per worker and merge afterwards.
    """

    d: int
    xtx: np.ndarray = None
    xty: np.ndarray = None
    n: int = 0

    def __post_init__(self):
        if self.d < 0:
            raise DimensionMismatch("dimension must be non-negative")
        if self.xtx is None:
            self.xtx = np.zeros((self.d, self.d), dtype=np.float64)
        if self.xty is None:
            self.xty = np.zeros(self.d, dtype=np.float64)
        if self.xtx.shape != (self.d, self.d) or self.xty.shape != (self.d,):
            raise DimensionMismatch(
                f"accumulator arrays do not match dimension {self.d}"
            )

    @classmethod
    def zero(cls, d: int) -> "NormalEqAccumulator":
        return cls(d)


def _as_2d(x) -> np.ndarray:
    values = x.values if isinstance(x, DenseMatrix) else np.asarray(x)
    if values.ndim == 1:
        values = values[:, None]
    if values.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got {values.ndim}-D data")
    return np.asarray(values, dtype=np.float64)


def accumulate(acc: NormalEqAccumulator, X, y) -> NormalEqAccumulator:
    """Add one chunk's cross-products to the accumulator (in place).

    ``X`` is n_i x d and ``y`` is n_i x 1 (or a length-n_i vector); both
    DenseMatrix and plain arrays are accepted.  The per-chunk products come
    from a single dense multiply, so the summation order within a chunk is
    fixed and results do not depend on which worker ran the chunk.
    """
    Xv = _as_2d(X)
    yv = _as_2d(y)
    if Xv.shape[1] != acc.d:
        raise DimensionMismatch(f"X has {Xv.shape[1]} columns, accumulator {acc.d}")
    if yv.shape != (Xv.shape[0], 1):
        raise DimensionMismatch(
            f"y shape {yv.shape} does not match X rows {Xv.shape[0]}"
        )
    if Xv.shape[0] == 0:
        return acc
    acc.xtx += Xv.T @ Xv
    acc.xty += (Xv.T @ yv)[:, 0]
    acc.n += Xv.shape[0]
    return acc


def merge(a: NormalEqAccumulator, b: NormalEqAccumulator) -> NormalEqAccumulator:
    """Elementwise sum of two accumulators (a new one; inputs untouched)."""
    if a.d != b.d:
        raise DimensionMismatch(f"cannot merge dimensions {a.d} and {b.d}")
    return NormalEqAccumulator(a.d, a.xtx + b.xtx, a.xty + b.xty, a.n + b.n)


@dataclass
class RegressionFit:
    """Solved coefficients plus the rank bookkeeping behind them: ``kept``
    indexes the kept columns and ``dropped`` names the rest, in column order."""

    coef: dict
    kept: list
    rank: int
    dropped: list
    tolerance: float


def solve_ne(
    acc: NormalEqAccumulator,
    names: Sequence[str],
    rank_tol: float = DEFAULT_RANK_TOL,
) -> RegressionFit:
    """Solve the accumulated normal equations with rank detection.

    ``names`` labels the design columns (length d, no name twice, since
    ``coef`` is keyed by name).  Returns a RegressionFit
    whose ``coef`` maps kept column names to estimates and whose ``dropped``
    lists aliased columns in column order.
    Raises DegenerateSystem for an empty or all-zero design and
    NotPositiveSemidefinite if the cross-products are not a valid X'X.
    """
    d = acc.d
    if len(names) != d:
        raise DimensionMismatch(f"{len(names)} names for {d} columns")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise SchemaError(f"design column name {name!r} repeats")
    if acc.n < 1 or d == 0:
        raise DegenerateSystem("no rows accumulated")
    A = np.array(acc.xtx, dtype=np.float64)
    if not np.isfinite(A).all() or not np.isfinite(acc.xty).all():
        raise DegenerateSystem("non-finite values in accumulated products")
    diag = np.diagonal(A).copy()
    if not diag.max() > 0:
        raise DegenerateSystem("all-zero design")
    kept = []
    for k in range(d):
        pivot = float(A[k, k])
        floor = -1e-10 * diag[k]
        if pivot < floor:
            raise NotPositiveSemidefinite(
                f"pivot {pivot:.6e} of column {k} (floor {floor:.6e})"
            )
        if pivot <= rank_tol * diag[k]:
            continue
        kept.append(k)
        root = math.sqrt(pivot)
        A[k + 1 :, k] /= root
        A[k + 1 :, k + 1 :] -= np.outer(A[k + 1 :, k], A[k + 1 :, k])
    rank = len(kept)
    if rank == 0:
        raise DegenerateSystem(f"rank 0 at tolerance {rank_tol:g}")
    # the factorization's job was rank detection; the coefficients come
    # from solving the kept subsystem of the original xtx
    sub = np.asarray(acc.xtx, dtype=np.float64)[np.ix_(kept, kept)]
    beta = np.linalg.solve(sub, np.asarray(acc.xty, dtype=np.float64)[kept])
    coef = {names[i]: float(beta[p]) for p, i in enumerate(kept)}
    dropped = [names[i] for i in range(d) if i not in kept]
    return RegressionFit(coef, kept, rank, dropped, rank_tol)
