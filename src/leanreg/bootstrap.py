"""Pairs (x-y) and residual bootstrap for regression coefficients.

The x-y bootstrap resamples whole observation tuples and is the primary
misspecification-robust inference tool; the residual bootstrap fixes
the design and resamples centered residuals, which bakes in first-order
correctness and homoskedasticity - it is provided as a foil.

Replicate b draws its resampling indices from the dedicated substream
``(seed, b)``.  Replicates are solved together in chunks of
:func:`chunk_size` consecutive replicates from 0, the blocks
:func:`~leanreg.rng.resample_indices` yields, so replicate b's draw
depends only on ``(seed, b)``: not on B, and not on which other
replicates share its chunk.  Reruns with the same seed reproduce every
draw bit-identically.  A GLM refit is the sample's regression
functional at a resampled empirical law, within O(n^-1/2) of the
sample's own, so its Newton iterations start at the two-step estimate:
the one-step map ``b - H^-1 s_r(b)`` (Moulton and Zeger, 1991), with H
the sample's information and s_r the resample's score, applied twice
from the sample fit ``beta_hat`` (Andrews, 2002), a whole chunk at once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .core import Dataset, check_index, check_integer, csv_text, in_float_range
from .exceptions import ExcessiveFailureError, InsufficientDrawsError, LeanRegError
from .fitting import GAUSSIAN, Family, FitResult, check_support, fit_glm, fit_weighted, outer_rows
from .rng import resample_indices

__all__ = [
    "BootstrapDraws",
    "NormalityReport",
    "xy_bootstrap",
    "residual_bootstrap",
    "bootstrap_se",
    "check_se_draws",
    "normality_diagnostic",
]

FAILURE_THRESHOLD = 0.1
MIN_SE_DRAWS = 2
MIN_DIAGNOSTIC_DRAWS = 10
# Bound on a chunk's replicates times observations: it sets the peak
# memory of the stacked solves, and a fixed chunk size keeps every
# matrix product the same shape whatever B is.
CHUNK_ELEMENTS = 2**14


@dataclass(frozen=True)
class BootstrapDraws:
    """Replicate coefficient vectors from one bootstrap run.

    ``draws`` has one row per successful replicate (B - failures rows);
    rerunning with the same seed reproduces it bit-identically.
    """

    draws: np.ndarray
    failures: int
    failure_reasons: dict | None = None
    labels: tuple[str, ...] = ()

    @property
    def b_retained(self) -> int:
        return self.draws.shape[0]

    def to_csv_text(self) -> str:
        return csv_text(["replicate", *self.labels], [range(self.b_retained), *self.draws.T])


def chunk_size(n: int) -> int:
    """Replicates per chunk of a replicate loop over n observations: ``max(1, CHUNK_ELEMENTS // n)``."""
    # int(): CHUNK_ELEMENTS would overflow a narrow numpy n, such as an np.uint8.
    return max(1, CHUNK_ELEMENTS // int(n))


def cell_sums(cells: np.ndarray, m: int, values: np.ndarray | None = None) -> np.ndarray:
    """Per row i of ``cells`` (r, n), i*m + j: each index j's count over 0..m-1, or its sum of ``values``, by one bincount."""
    weights = None if values is None else values.ravel()
    return np.bincount(cells.ravel(), weights, len(cells) * m).reshape(len(cells), m)


def tolerate_failures(results, what: str) -> tuple[list, dict]:
    """Split per-replicate results into the kept ones and failure counts.

    ``results`` holds a value or the typed error each replicate raised,
    in replicate order.  Returns the kept values, in order, and the
    failure count per error type, in the order first seen.  More than
    ``FAILURE_THRESHOLD`` of failures raises an error that names and
    carries those counts.
    """
    kept = [r for r in results if not isinstance(r, Exception)]
    errors = [r for r in results if isinstance(r, Exception)]
    reasons = dict(Counter(type(e).__name__ for e in errors))
    if len(errors) > FAILURE_THRESHOLD * len(results):
        causes = ", ".join(f"{name} {count}" for name, count in reasons.items())
        raise ExcessiveFailureError(
            f"{len(errors)} of {len(results)} {what} failed "
            f"(threshold {FAILURE_THRESHOLD:.0%}): {causes}",
            reasons=reasons,
        )
    return kept, reasons


def _collect(results, ds: Dataset) -> BootstrapDraws:
    """Assemble per-replicate results (a draw or the error it raised), in replicate order."""
    rows, reasons = tolerate_failures(results, "bootstrap replicates")
    draws = np.asarray(rows, dtype=float).reshape(len(rows), ds.p + 1)
    return BootstrapDraws(
        draws=draws,
        failures=len(results) - len(rows),
        failure_reasons=reasons,
        labels=ds.column_labels,
    )


def xy_bootstrap(ds: Dataset, family: Family, B: int, seed: int) -> BootstrapDraws:
    """Resample observation tuples with replacement and refit, B times.

    Replicate b is the sample refitted with weights equal to how often
    each observation was drawn from substream ``(seed, b)``; all
    replicates of a chunk are solved as one stack by
    :func:`~leanreg.fitting.fit_weighted`.  A GLM's refits start two
    fixed-information Newton steps from the sample fit, or at the usual
    start value if that fit fails; OLS refits are solved exactly.  Replicates whose resampled
    design is singular or whose fit fails to converge are excluded and
    counted; more than 10% of them is an error naming the failure
    reasons.  An infeasible base problem (e.g. a singular design that
    every resample inherits) therefore surfaces as an excessive-failure
    error with the cause attached.  A response outside the family's
    support is a ``FamilyError`` before any replicate is fitted.
    """
    check_integer(B, "B", 1)
    check_support(ds.response, family)
    x = ds.design
    y = ds.response
    n = ds.n
    outer = outer_rows(x)
    sample_fit = None
    if not family.closed_form:
        try:
            sample_fit = fit_glm(ds, family)
        except LeanRegError:  # a failed sample fit leaves the refits to start cold
            pass
    size = chunk_size(n)
    results = []
    for idx in resample_indices(seed, B, size, n):
        # Rows past the last replicate are padding: the sample itself.
        w = np.ones((size, n))
        w[: len(idx)] = cell_sums(idx + n * np.arange(len(idx))[:, None], n)
        start = None if sample_fit is None else _two_step_starts(sample_fit, w)
        fits = fit_weighted(x, y, w, family, outer=outer, start=start)
        results.extend(
            beta if error is None else error
            for beta, error in zip(fits.beta[: len(idx)], fits.errors)
        )
    return _collect(results, ds)


def _two_step_starts(fit: FitResult, w: np.ndarray) -> np.ndarray:
    """Two-step starts (m, k) of refits of ``fit``'s sample under weight rows ``w`` (m, n).

    The map ``b + H^-1 sum_i w_i (y_i - mu_i(b)) x_i``, H the sample's
    information, applied twice from ``beta_hat``; or ``beta_hat`` where
    that start is not finite, or where, on a used observation, its mean
    ``inverse_link(x_i'start)`` is not finite (a poisson ``x_i'start``
    past about 709.78) or ``|x_i'start|`` passes the separation bound
    (its first iteration would stop there); every row is ``beta_hat`` if
    the information matrix does not invert.
    """
    x, family, beta_hat = fit.data.design, fit.family, fit.beta_hat
    try:
        inverse = fit.information_inverse
    except LeanRegError:
        return np.tile(beta_hat, (w.shape[0], 1))
    start, residuals = beta_hat, fit.residuals
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2):  # a second step starts Newton about 7x closer; a third saves no step
            start = start + ((w * residuals) @ x) @ inverse
            t = (start @ x.T) * (w > 0)
            mu = family.inverse_link(t)
            residuals = fit.data.response - mu
        usable = np.all(np.isfinite(start), axis=1) & np.all(np.isfinite(mu), axis=1)
        if family.separation_bound is not None:
            usable &= np.max(np.abs(t), axis=1) <= family.separation_bound
    return np.where(usable[:, None], start, beta_hat)


def residual_bootstrap(ds: Dataset, B: int, seed: int) -> BootstrapDraws:
    """Fix the design, resample centered OLS residuals, refit, B times.

    Defined for the gaussian-identity (OLS) working model only; the
    scheme presupposes a correct homoskedastic linear mean, which is
    exactly what makes it a foil rather than a robust tool.  Every
    replicate shares the design, so refit b is the fixed map
    ``(X'X)^-1 X'`` applied to ``y_b``, one matrix product per chunk;
    ``(X'X)^-1`` is the base fit's inverse information.
    """
    check_integer(B, "B", 1)
    base = fit_glm(ds, GAUSSIAN)
    # Residuals already sum to zero with an intercept; recentering is a
    # guard for the general case.
    centered = base.residuals - np.mean(base.residuals)
    n = ds.n
    solver = ds.design @ base.information_inverse
    size = chunk_size(n)
    results = []
    for idx in resample_indices(seed, B, size, n):
        y_b = np.tile(base.fitted, (size, 1))
        y_b[: len(idx)] += centered[idx]
        results.extend((y_b @ solver)[: len(idx)])
    return _collect(results, ds)


def check_se_draws(count: int) -> None:
    """Raise the error :func:`bootstrap_se` gives for ``count`` draws, if they are too few."""
    if count < MIN_SE_DRAWS:
        raise InsufficientDrawsError(
            f"bootstrap SE needs at least {MIN_SE_DRAWS} retained draws, have {count}"
        )


def bootstrap_se(draws: BootstrapDraws) -> np.ndarray:
    """Coordinatewise sample standard deviation of the retained draws.

    One that passes the float range is a :class:`DomainError`.
    """
    check_se_draws(draws.b_retained)
    return in_float_range("a bootstrap standard deviation", lambda: np.std(draws.draws, axis=0, ddof=1))


@dataclass(frozen=True)
class NormalityReport:
    """Bootstrap-draw quantiles paired with normal quantiles for one
    coefficient; qq_correlation near 1 says asymptotic normality is a
    reasonable working assumption."""

    coefficient: int
    sorted_draws: np.ndarray
    theoretical_quantiles: np.ndarray
    qq_correlation: float

    def to_csv_text(self) -> str:
        return csv_text(
            ["theoretical_quantile", "draw"], [self.theoretical_quantiles, self.sorted_draws]
        )


def normality_diagnostic(draws: BootstrapDraws, j: int) -> NormalityReport:
    """Normal-quantile pairing of coefficient j's bootstrap draws.

    Plotting positions are (k - 0.5)/B over the retained draws.
    """
    check_index(j, 0, draws.draws.shape[1] - 1, "coefficient")
    m = draws.b_retained
    if m < MIN_DIAGNOSTIC_DRAWS:
        raise InsufficientDrawsError(
            f"normality diagnostic needs at least {MIN_DIAGNOSTIC_DRAWS} draws, have {m}"
        )
    values = np.sort(draws.draws[:, j])
    positions = (np.arange(1, m + 1) - 0.5) / m
    inv_cdf = NormalDist().inv_cdf
    quantiles = np.array([inv_cdf(q) for q in positions.tolist()])
    with np.errstate(divide="ignore", invalid="ignore"):  # constant draws: NaN
        corr = float(np.corrcoef(values, quantiles)[0, 1])
    return NormalityReport(
        coefficient=j,
        sorted_draws=values,
        theoretical_quantiles=quantiles,
        qq_correlation=corr,
    )
