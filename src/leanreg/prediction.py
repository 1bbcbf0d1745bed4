"""Prediction intervals with an empirically calibrated width multiplier.

Intervals take the nested one-parameter form

    yhat(x) +- K * sigma_hat * (1 + x' (sum X_i X_i')^-1 x)

and K is chosen so the desired fraction of training observations fall
inside their own intervals (to within 1/n, by an order statistic of the
per-observation minimal covering multipliers).  Calibration, not
normal theory, is what makes the coverage hold when the working model
is only an approximation; the fixed normal-theory multiplier is not
robust to misspecification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, DesignMatrix, build_design, spd_solve
from .exceptions import (
    DataError,
    DimensionError,
    DomainError,
    FamilyError,
    FoldError,
    SingularSystemError,
    ZeroScaleError,
)
from .fitting import GAUSSIAN, FitResult, fit_ols
from .rng import substream

__all__ = [
    "PredictionBand",
    "interval",
    "make_band",
    "calibrate_K",
    "cv_calibrate_K",
    "future_coverage",
]


@dataclass(frozen=True)
class PredictionBand:
    """Fitted OLS interval family: coefficients, scale, leverage kernel, K."""

    K: float
    sigma_hat: float
    xtx_inverse: np.ndarray  # (sum x_i x_i')^-1, unnormalized
    beta_hat: np.ndarray
    alpha: float

    def __post_init__(self):
        if self.K < 0:
            raise DomainError("K must be nonnegative")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must be in (0, 1), got {self.alpha}")

    def half_width(self, x: np.ndarray) -> float:
        lev = 1.0 + float(x @ self.xtx_inverse @ x)
        return self.K * self.sigma_hat * lev


def interval(band: PredictionBand, x) -> tuple[float, float]:
    """[lower, upper] at the design point x (leading 1 included)."""
    x = np.asarray(x, dtype=float)
    if x.shape != band.beta_hat.shape:
        raise DimensionError(f"point has shape {x.shape}, expected {band.beta_hat.shape}")
    center = float(x @ band.beta_hat)
    half = band.half_width(x)
    return (center - half, center + half)


def _ols_scale_and_kernel(fit: FitResult):
    x = fit.design.matrix
    n, k = x.shape
    if n <= k:
        raise DomainError("sigma_hat needs n > p+1 observations")
    sigma2 = float(fit.residuals @ fit.residuals) / (n - k)
    return math.sqrt(sigma2), spd_solve(x.T @ x)


def make_band(fit: FitResult, alpha: float, K: float = 0.0) -> PredictionBand:
    """Assemble the interval family for an OLS fit (K to be calibrated)."""
    if fit.family is not GAUSSIAN:
        raise FamilyError(
            "prediction intervals are defined for the OLS working model only, "
            f"not {fit.family.tag!r}"
        )
    sigma_hat, kernel = _ols_scale_and_kernel(fit)
    return PredictionBand(
        K=K,
        sigma_hat=sigma_hat,
        xtx_inverse=kernel,
        beta_hat=fit.beta_hat,
        alpha=alpha,
    )


def _covering_multipliers(y, centers, scales):
    # Smallest K putting each observation inside its own interval.
    return np.abs(y - centers) / scales


def _order_statistic_K(k_values: np.ndarray, alpha: float) -> float:
    """The ceil((1-alpha) n)-th smallest multiplier, tie-adjusted.

    When ties make coverage jump by more than 1/n at the order
    statistic, the smallest multiplier still achieving coverage
    >= 1 - alpha - 1/n is returned instead.
    """
    n = k_values.shape[0]
    k_sorted = np.sort(k_values)
    # covered[i]: the fraction of multipliers <= k_sorted[i].
    covered = np.searchsorted(k_sorted, k_sorted, side="right") / n
    rank = math.ceil((1.0 - alpha) * n)
    rank = min(max(rank, 1), n)
    if covered[rank - 1] > 1.0 - alpha + 1.0 / n:
        return float(k_sorted[np.argmax(covered >= 1.0 - alpha - 1.0 / n)])
    return float(k_sorted[rank - 1])


def calibrate_K(fit: FitResult, ds: Dataset, alpha: float) -> float:
    """Calibrate the multiplier on the training sample.

    Each observation's minimal covering multiplier is
    |y_i - yhat_i| / (sigma_hat * (1 + leverage_i)); the calibrated K
    is their ceil((1-alpha) n)-th smallest value, which pins training
    coverage to 1 - alpha within 1/n.  Defined for OLS fits only.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    band = make_band(fit, alpha)
    if band.sigma_hat == 0.0:
        raise ZeroScaleError(
            "all residuals are zero: every K gives full coverage and "
            "calibration is vacuous"
        )
    x = fit.design.matrix
    levs = 1.0 + np.einsum("ij,jk,ik->i", x, band.xtx_inverse, x)
    k_values = _covering_multipliers(ds.response, fit.fitted, band.sigma_hat * levs)
    return _order_statistic_K(k_values, alpha)


def _fold_assignments(n: int, folds: int, seed: int) -> np.ndarray:
    order = substream(seed).permutation(n)
    assign = np.empty(n, dtype=int)
    for f, chunk in enumerate(np.array_split(order, folds)):
        assign[chunk] = f
    return assign


def cv_calibrate_K(ds: Dataset, alpha: float, folds: int, seed: int) -> float:
    """Cross-validated calibration: pool held-out covering multipliers.

    Each fold's multipliers are computed against the complement fit's
    own scale and leverage kernel; the pooled order statistic replaces
    the training one.  Fold assignment is a deterministic function of
    the seed.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    if folds < 2:
        raise DomainError("cross-validation needs at least 2 folds")
    n = ds.n
    if folds > n:
        raise FoldError(f"{folds} folds for {n} observations")
    assign = _fold_assignments(n, folds, seed)
    dm_full = build_design(ds)
    x_all = dm_full.matrix
    pooled = np.empty(n)
    for f in range(folds):
        held = assign == f
        train = ~held
        if int(np.sum(train)) <= dm_full.ncol:
            raise FoldError(
                f"training fold {f} has {int(np.sum(train))} rows for "
                f"{dm_full.ncol} coefficients"
            )
        try:
            dm_train = DesignMatrix(
                matrix=x_all[train], column_labels=dm_full.column_labels
            )
            fit = fit_ols(dm_train, ds.response[train])
        except (DataError, SingularSystemError) as exc:
            raise FoldError(
                f"training fold {f} does not support a full-rank fit: {exc}"
            ) from None
        sigma_hat, kernel = _ols_scale_and_kernel(fit)
        x_held = x_all[held]
        levs = 1.0 + np.einsum("ij,jk,ik->i", x_held, kernel, x_held)
        centers = x_held @ fit.beta_hat
        if sigma_hat == 0.0:
            # Noiseless training fold: a zero-width kernel covers exactly
            # the points it interpolates (K_i = 0) and no others.
            gaps = np.abs(ds.response[held] - centers)
            pooled[held] = np.where(gaps == 0.0, 0.0, np.inf)
        else:
            pooled[held] = _covering_multipliers(
                ds.response[held], centers, sigma_hat * levs
            )
    return _order_statistic_K(pooled, alpha)


def future_coverage(band: PredictionBand, testset: Dataset) -> float:
    """Fraction of test observations inside their prediction intervals.

    Valid for future data from the same joint law; under a shifted
    regressor law the number is still computed but says nothing about
    the nominal level (a distribution-shift caveat, not an error).
    """
    if testset.p + 1 != band.beta_hat.shape[0]:
        raise DimensionError(
            f"test set has {testset.p} regressors; the band expects "
            f"{band.beta_hat.shape[0] - 1}"
        )
    x = build_design(testset).matrix
    centers = x @ band.beta_hat
    levs = 1.0 + np.einsum("ij,jk,ik->i", x, band.xtx_inverse, x)
    half = band.K * band.sigma_hat * levs
    inside = np.abs(testset.response - centers) <= half
    return float(np.mean(inside))
