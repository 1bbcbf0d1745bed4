"""Regression slopes as distance-weighted averages of pairwise slopes.

The slope through a pair of observations is (y_i - y_j)/(x_i - x_j);
weighting each pair by its squared horizontal distance (x_i - x_j)^2
and averaging reproduces the least-squares coefficient exactly.  For
multiple regression the same holds after the regressor is linearly
adjusted for all other columns (intercept included), which also centers
it.  The O(n^2) pair enumeration is kept deliberately naive: it is an
independent oracle for the normal-equation solver, not a fast path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, csv_text, numerical_rank, spd_solve
from .exceptions import (
    CoefficientIndexError,
    DomainError,
    SingularSystemError,
    ZeroWeightError,
)

__all__ = [
    "PairwiseSlopeSummary",
    "pairwise_slope_simple",
    "adjust_regressor",
    "pairwise_slope_multiple",
    "pair_table_csv",
]


@dataclass(frozen=True)
class PairwiseSlopeSummary:
    """Weighted-average-of-pairwise-slopes form of one coefficient.

    ``total_weight`` sums (x_i - x_j)^2 over ordered pairs; pairs with
    x_i == x_j carry zero weight, so their undefined slope never enters.
    """

    beta: float
    total_weight: float
    pair_count: int


def pairwise_slope_simple(x, y) -> PairwiseSlopeSummary:
    """sum_{i != j} (x_i - x_j)(y_i - y_j) / sum_{i != j} (x_i - x_j)^2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DomainError("x and y must be one-dimensional and equally long")
    if x.shape[0] < 2:
        raise DomainError("pairwise slopes need at least two observations")
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    weights = dx * dx
    total = float(np.sum(weights))
    if total == 0.0:
        raise ZeroWeightError("all regressor values coincide: total pair weight is 0")
    return PairwiseSlopeSummary(
        beta=float(np.sum(dx * dy)) / total,
        total_weight=total,
        pair_count=int(np.count_nonzero(weights)),
    )


def check_regressor_index(j: int, p: int) -> None:
    """Raise :class:`CoefficientIndexError` unless j names one of p regressors (1..p)."""
    if j == 0:
        raise CoefficientIndexError("column 0 is the intercept; adjust a regressor (j >= 1)")
    if not 1 <= j <= p:
        raise CoefficientIndexError(f"regressor index {j} out of range 1..{p}")


def adjust_regressor(ds: Dataset, j: int) -> np.ndarray:
    """Residualize design column j on all other columns (intercept kept).

    Returns the adjusted column.  With a single regressor this reduces
    to centering.  The design must be of full rank under
    :func:`~leanreg.core.numerical_rank`, as for the OLS fit whose
    coefficient the adjustment reproduces.
    """
    check_regressor_index(j, ds.p)
    x = ds.design
    gram = x.T @ x
    rank, eigs = numerical_rank(gram)
    if rank < x.shape[1]:
        raise SingularSystemError(
            f"design is rank deficient, so column {j} cannot be adjusted for the "
            f"remaining columns (smallest equilibrated eigenvalue {eigs[0]:.3e})",
            min_eigenvalue=float(eigs[0]),
        )
    others = np.delete(x, j, axis=1)
    coef = spd_solve(np.delete(np.delete(gram, j, axis=0), j, axis=1), np.delete(gram[:, j], j))
    return x[:, j] - others @ coef


def pairwise_slope_multiple(ds: Dataset, j: int) -> PairwiseSlopeSummary:
    """Pairwise-slope form of the multiple-regression coefficient beta_j.

    Adjustment centers the column, so the weighted pair average equals
    the coefficient from the full least-squares fit.
    """
    return pairwise_slope_simple(adjust_regressor(ds, j), ds.response)


def pair_table_csv(x, y) -> str:
    """CSV of every contributing ordered pair: i, j, weight, slope.

    Pairs come in row-major order of (i, j); pairs with x_i == x_j,
    the diagonal among them, carry zero weight and are left out.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 0.0)
    i, j = np.nonzero(dx)
    d = dx[i, j]
    return csv_text(["i", "j", "weight", "slope"], [i, j, d * d, (y[i] - y[j]) / d])
