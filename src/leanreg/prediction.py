"""Prediction intervals with an empirically calibrated width multiplier.

Intervals take the nested one-parameter form

    yhat(x) +- K * sigma_hat * (1 + x' (sum X_i X_i')^-1 x)

and K is chosen so the desired fraction of training observations fall
inside their own intervals (to within 1/n, by an order statistic of the
per-observation minimal covering multipliers).  Calibration, not
normal theory, is what makes the coverage hold when the working model
is only an approximation; the fixed normal-theory multiplier is not
robust to misspecification.

:meth:`PredictionBand.evaluate` is the formula's one evaluation:
intervals, calibration and coverage all read centers and half widths
from it, for a whole design at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, check_integer, check_level, check_real, finite_array, in_float_range
from .exceptions import (
    DomainError,
    FamilyError,
    FoldError,
    SingularSystemError,
    ZeroScaleError,
)
from .fitting import GAUSSIAN, FitResult, fit_glm
from .rng import substream

__all__ = [
    "PredictionBand",
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

    def __post_init__(self):
        check_real(self.K, "K")
        if self.K < 0:
            raise DomainError("K must be nonnegative")

    def evaluate(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Centers and half widths of the band at the design rows x, shape (m, k).

        Row i's half width is K * sigma_hat * (1 + x_i' xtx_inverse x_i).
        With K = 1 it is sigma_hat * (1 + leverage_i) bit for bit, the
        denominator of row i's covering multiplier.  ``x`` passes
        :func:`~leanreg.core.finite_array`; a center or half width past
        the float range is a :class:`DomainError`.
        """
        x = finite_array(x, "design rows", (None, self.beta_hat.shape[0]))
        return in_float_range("a center or half width of the band", lambda: (
            x @ self.beta_hat,
            self.K * self.sigma_hat * (1.0 + np.einsum("ij,jk,ik->i", x, self.xtx_inverse, x)),
        ))


def make_band(fit: FitResult, K: float) -> PredictionBand:
    """Assemble the interval family for an OLS fit with multiplier K.

    sigma_hat is the residual standard deviation on n - (p+1) degrees
    of freedom, so the fit needs n > p+1 observations.
    """
    if fit.family is not GAUSSIAN:
        raise FamilyError(
            "prediction intervals are defined for the OLS working model only, "
            f"not {fit.family.tag!r}"
        )
    return PredictionBand(
        K=K,
        sigma_hat=math.sqrt(fit.dispersion),
        xtx_inverse=fit.information_inverse,
        beta_hat=fit.beta_hat,
    )


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


def calibrate_K(fit: FitResult, alpha: float) -> float:
    """Calibrate the multiplier on the sample the fit was made on.

    Each observation's minimal covering multiplier is
    |y_i - yhat_i| / (sigma_hat * (1 + leverage_i)); the calibrated K
    is their ceil((1-alpha) n)-th smallest value, which pins training
    coverage to 1 - alpha within 1/n.  The sample is ``fit.data``.
    Defined for OLS fits only.
    """
    check_level(alpha, "alpha")
    band = make_band(fit, K=1.0)
    if band.sigma_hat == 0.0:
        raise ZeroScaleError(
            "all residuals are zero: every K gives full coverage and "
            "calibration is vacuous"
        )
    centers, scales = band.evaluate(fit.data.design)
    return _order_statistic_K(np.abs(fit.data.response - centers) / scales, alpha)


def _fold_assignments(n: int, folds: int, seed: int) -> np.ndarray:
    order = substream(seed).permutation(n)
    assign = np.empty(n, dtype=int)
    for f, chunk in enumerate(np.array_split(order, folds)):
        assign[chunk] = f
    return assign


def cv_calibrate_K(ds: Dataset, alpha: float, folds: int, seed: int) -> float:
    """Cross-validated calibration: pool held-out covering multipliers.

    Each fold's multipliers are computed against the complement fit's
    own band; the pooled order statistic replaces the training one.
    Fold assignment is a deterministic function of the seed.
    """
    check_level(alpha, "alpha")
    check_integer(folds, "folds", 2)
    n = ds.n
    if folds > n:
        raise FoldError(f"{folds} folds for {n} observations")
    assign = _fold_assignments(n, folds, seed)
    pooled = np.empty(n)
    for f in range(folds):
        held = assign == f
        train = ~held
        if int(np.sum(train)) <= ds.p + 1:
            raise FoldError(
                f"training fold {f} has {int(np.sum(train))} rows for "
                f"{ds.p + 1} coefficients"
            )
        fold = Dataset(ds.response[train], ds.regressors[train], ds.names, ds.response_name)
        try:
            fit = fit_glm(fold, GAUSSIAN)
        except SingularSystemError as exc:
            raise FoldError(
                f"training fold {f} does not support a full-rank fit: {exc}"
            ) from None
        band = make_band(fit, K=1.0)
        centers, scales = band.evaluate(ds.design[held])
        gaps = np.abs(ds.response[held] - centers)
        if band.sigma_hat == 0.0:
            # Noiseless training fold: a zero-width band covers exactly
            # the points it interpolates (K_i = 0) and no others.
            pooled[held] = np.where(gaps == 0.0, 0.0, np.inf)
        else:
            pooled[held] = gaps / scales
    return _order_statistic_K(pooled, alpha)


def future_coverage(band: PredictionBand, testset: Dataset) -> float:
    """Fraction of test observations inside their prediction intervals.

    Valid for future data from the same joint law; under a shifted
    regressor law the number is still computed but says nothing about
    the nominal level (a distribution-shift caveat, not an error).
    """
    centers, half = band.evaluate(testset.design)
    return float(np.mean(np.abs(testset.response - centers) <= half))
