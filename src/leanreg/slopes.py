"""Regression slopes as distance-weighted averages of pairwise slopes.

The slope through a pair of observations is (y_i - y_j)/(x_i - x_j);
weighting each pair by its squared horizontal distance (x_i - x_j)^2
and averaging reproduces the least-squares coefficient exactly.  For
multiple regression the same holds after the regressor is linearly
adjusted for all other columns (intercept included), which also centers
it.  The sums over all n^2 ordered pairs have closed forms in the
centred data, so a summary costs O(n) time and memory; only the pair
table, which lists every pair, is O(n^2) in time and text.  It formats
each unordered pair once and works through a block of rows at a time,
with no n x n array (see :func:`pair_table_csv`).
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from . import core
from .core import Dataset, check_index, csv_text_from_cells, finite_array, float_range_error, in_float_range
from .exceptions import CoefficientIndexError, DomainError, ZeroWeightError
from .fitting import GAUSSIAN, fit_glm

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
    ``pair_count`` counts the ordered pairs with x_i != x_j, the rows of
    :func:`pair_table_csv`.
    """

    beta: float
    total_weight: float
    pair_count: int


def _pair_arrays(x, y) -> tuple[np.ndarray, np.ndarray]:
    """``x`` and ``y`` as equally long float vectors, through :func:`~leanreg.core.finite_array`."""
    x = finite_array(x, "x", (None,))
    return x, finite_array(y, "y", x.shape)


def _scaled_deviations(v: np.ndarray) -> tuple[np.ndarray, int]:
    """``(d, e)`` with ``v - mean(v) = d * 2**e`` and ``|d| < 4``.

    Scaling by a power of two first keeps every step finite, whatever
    the magnitude of ``v``; subtracting ``v[0]`` makes the deviations of
    a constant ``v`` exact zeros.
    """
    e = math.frexp(float(np.max(np.abs(v))))[1]
    s = np.ldexp(v, -e)
    s -= s[0]
    return s - s.mean(), e


def pairwise_slope_simple(x, y) -> PairwiseSlopeSummary:
    """sum_{i != j} (x_i - x_j)(y_i - y_j) / sum_{i != j} (x_i - x_j)^2.

    Both sums are closed forms in O(n): sum_{i,j} (x_i - x_j)(y_i - y_j)
    equals 2n sum_i (x_i - xbar)(y_i - ybar), and the weight is the same
    with y = x.  Of the n^2 ordered pairs, sum_v c_v^2 have tied x,
    where c_v counts the x values equal to v.
    """
    x, y = _pair_arrays(x, y)
    n = x.shape[0]
    if n < 2:
        raise DomainError("pairwise slopes need at least two observations")
    dx, ex = _scaled_deviations(x)
    dy, ey = _scaled_deviations(y)
    sxx, sxy = float(np.sum(dx * dx)), float(np.sum(dx * dy))
    try:
        total = math.ldexp(2.0 * n * sxx, 2 * ex)
        math.ldexp(2.0 * n * sxy, ex + ey)  # nor may the numerator overflow
    except OverflowError:
        raise DomainError("pairwise slopes need finite x and y whose pair sums do not overflow") from None
    if total == 0.0:
        raise ZeroWeightError(
            "total pair weight is 0: the x values coincide or their differences underflow"
        )
    try:
        beta = math.ldexp(sxy / sxx, ey - ex)
    except OverflowError:
        raise float_range_error("the pairwise slope") from None
    ties = np.unique(x, return_counts=True)[1]
    return PairwiseSlopeSummary(
        beta=beta,
        total_weight=total,
        pair_count=n * n - int(ties @ ties),
    )


def check_regressor_index(j: int, p: int) -> None:
    """Raise :class:`CoefficientIndexError` unless j names one of p regressors (1..p)."""
    if j == 0:
        raise CoefficientIndexError("column 0 is the intercept; adjust a regressor (j >= 1)")
    check_index(j, 1, p, "regressor")


def adjust_regressor(ds: Dataset, j: int) -> np.ndarray:
    """Residualize design column j on all other columns (intercept kept).

    Returns the adjusted column.  With a single regressor this reduces
    to centering.  With ``C = (X'X)^-1`` the inverse information of the
    OLS fit whose coefficient the adjustment reproduces, the residual
    is ``X C[:, j] / C[j, j]``: row j of ``C X'`` is the residual over
    its squared norm, which is ``1 / C[j, j]``.  That fit raises
    :class:`SingularSystemError` for a rank-deficient design.
    """
    check_regressor_index(j, ds.p)
    c = fit_glm(ds, GAUSSIAN).information_inverse
    return ds.design @ c[:, j] / c[j, j]


def pairwise_slope_multiple(ds: Dataset, j: int) -> PairwiseSlopeSummary:
    """Pairwise-slope form of the multiple-regression coefficient beta_j.

    Adjustment centers the column, so the weighted pair average equals
    the coefficient from the full least-squares fit.
    """
    return pairwise_slope_simple(adjust_regressor(ds, j), ds.response)


def pair_table_csv(x, y) -> str:
    """CSV of every contributing ordered pair: i, j, weight, slope.

    Pairs come in row-major order of (i, j); pairs with x_i == x_j,
    the diagonal among them, carry zero weight and are left out.  A
    weight or slope past the float range is a :class:`DomainError`.

    Each unordered pair is formatted once.  In IEEE arithmetic
    fl(a - b) = -fl(b - a), so pair (j, i) has the bits of pair (i, j)'s
    weight ``d*d`` and slope ``(y_i - y_j) / d``: row i formats its pairs
    with j > i and takes those with j < i from the rows before it.  The
    one exception is a tie y_i == y_j: its numerator can be +0.0 in both
    orders, which makes the mirrored slope the opposite zero, so a tied
    pair's slope is formatted again.  The formatted upper triangle waits
    in a memory map of 48 bytes per unordered pair, released when the
    last row is done.  The rows go to
    :func:`~leanreg.core.csv_text_from_cells` in blocks of whole rows, about
    ``CSV_BLOCK_ROWS`` lines each, with no n x n array.
    """
    x, y = _pair_arrays(x, y)
    return csv_text_from_cells(["i", "j", "weight", "slope"], _pair_blocks(x, y))


def _pair_blocks(x: np.ndarray, y: np.ndarray):
    """The pair table's formatted cells (i, j, weight, slope), a block of whole i-rows at a time."""
    n = x.shape[0]
    index = np.array([str(k) for k in range(n)], dtype=object)
    # The upper triangle's formatted weights and slopes, row-major: pair
    # (i, j), j > i, at offset[i] + j.  Row i writes its part and reads
    # its mirrors from the rows before it.  The cells are fixed-width
    # bytes (a finite float's repr is at most 24 ASCII characters) in one
    # anonymous memory map, not n^2/2 Python strings or a malloc block,
    # so their pages go back to the system when the rows are done, before
    # the text is joined, whatever the allocator keeps of freed memory.
    offset = np.arange(n) * (2 * n - np.arange(n) - 3) // 2 - 1
    pairs = n * (n - 1) // 2
    cells = np.frombuffer(mmap.mmap(-1, 2 * 24 * pairs or 1), dtype="S24", count=2 * pairs)
    upper_w, upper_s = cells.reshape(2, pairs)
    block = [[], [], [], []]
    for i in range(n):
        js = np.flatnonzero(x != x[i])
        lower, upper = np.split(js, [np.searchsorted(js, i)])
        weight, slope = in_float_range(
            "a pair's weight or slope", lambda: ((d := x[i] - x[upper]) * d, (y[i] - y[upper]) / d)
        )
        weight, slope = list(map(repr, weight.tolist())), list(map(repr, slope.tolist()))
        at = offset[i] + upper
        upper_w[at], upper_s[at] = weight, slope
        mirror = offset[lower] + i
        lower_w = upper_w[mirror].astype(str).tolist()
        lower_s = upper_s[mirror].astype(str).tolist()
        # A tie in y can give +0.0 / d in both orders: the mirror may hold the other zero.
        tied = np.flatnonzero(y[lower] == y[i])
        tie_slopes = (y[i] - y[lower[tied]]) / (x[i] - x[lower[tied]])
        for t, s in zip(tied.tolist(), map(repr, tie_slopes.tolist())):
            lower_s[t] = s
        i_cells, j_cells, w_cells, s_cells = block
        i_cells += [index[i]] * js.shape[0]
        j_cells += index[js].tolist()
        w_cells += lower_w + weight
        s_cells += lower_s + slope
        if len(i_cells) >= core.CSV_BLOCK_ROWS or i == n - 1:
            yield block
            block = [[], [], [], []]
