"""Pairs (x-y) and residual bootstrap for regression coefficients.

The x-y bootstrap resamples whole observation tuples and is the primary
misspecification-robust inference tool; the residual bootstrap fixes
the design and resamples centered residuals, which bakes in first-order
correctness and homoskedasticity - it is provided as a foil.

Replicate b draws its resampling indices from the dedicated substream
``(seed, b)``.  Replicates are solved together in chunks of
``max(1, CHUNK_ELEMENTS // n)``, starting at multiples of the chunk
size, so replicate b's draw depends only on ``(seed, b)``: not on B,
and not on which other replicates share its chunk.  Reruns with the
same seed reproduce every draw bit-identically.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .core import Dataset, csv_text, spd_solve
from .exceptions import (
    CoefficientIndexError,
    DomainError,
    ExcessiveFailureError,
    InsufficientDrawsError,
)
from .fitting import GAUSSIAN, Family, check_support, fit_glm, fit_weighted, outer_rows
from .rng import substreams

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


def _chunks(B: int, n: int):
    """Yield (chunk size, replicate indices) for chunks starting at multiples of the size."""
    size = max(1, CHUNK_ELEMENTS // n)
    for start in range(0, B, size):
        yield size, range(start, min(start + size, B))


def _resamples(seed: int, B: int, n: int):
    """Each replicate's resampling indices, in order: n draws with replacement from substream (seed, b)."""
    return (rng.integers(0, n, size=n) for rng in substreams(seed, count=B))


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


def xy_bootstrap(
    ds: Dataset,
    family: Family,
    B: int,
    seed: int,
) -> BootstrapDraws:
    """Resample observation tuples with replacement and refit, B times.

    Replicate b is the sample refitted with weights equal to how often
    each observation was drawn from substream ``(seed, b)``; all
    replicates of a chunk are solved as one stack by
    :func:`~leanreg.fitting.fit_weighted`.  Replicates whose resampled
    design is singular or whose fit fails to converge are excluded and
    counted; more than 10% of them is an error naming the failure
    reasons.  An infeasible base problem (e.g. a singular design that
    every resample inherits) therefore surfaces as an excessive-failure
    error with the cause attached.  A response outside the family's
    support is a ``FamilyError`` before any replicate is fitted.
    """
    if B < 1:
        raise DomainError("B must be at least 1")
    check_support(ds.response, family)
    x = ds.design
    y = ds.response
    n = ds.n
    outer = outer_rows(x)
    resamples = _resamples(seed, B, n)
    results = []
    for size, reps in _chunks(B, n):
        # Rows past the last replicate are padding: the sample itself.
        w = np.ones((size, n))
        for r, idx in zip(range(len(reps)), resamples):
            w[r] = np.bincount(idx, minlength=n)
        fits = fit_weighted(x, y, w, family, outer=outer)
        results.extend(
            beta if error is None else error
            for beta, error in zip(fits.beta[: len(reps)], fits.errors)
        )
    return _collect(results, ds)


def residual_bootstrap(ds: Dataset, B: int, seed: int) -> BootstrapDraws:
    """Fix the design, resample centered OLS residuals, refit, B times.

    Defined for the gaussian-identity (OLS) working model only; the
    scheme presupposes a correct homoskedastic linear mean, which is
    exactly what makes it a foil rather than a robust tool.  Every
    replicate shares the design, so refit b is the fixed map
    ``(X'X)^-1 X'`` applied to ``y_b``, one matrix product per chunk.
    """
    if B < 1:
        raise DomainError("B must be at least 1")
    base = fit_glm(ds, GAUSSIAN)
    # Residuals already sum to zero with an intercept; recentering is a
    # guard for the general case.
    centered = base.residuals - np.mean(base.residuals)
    x = ds.design
    n = ds.n
    solver = spd_solve(x.T @ x, x.T).T
    resamples = _resamples(seed, B, n)
    results = []
    for size, reps in _chunks(B, n):
        y_b = np.tile(base.fitted, (size, 1))
        for r, idx in zip(range(len(reps)), resamples):
            y_b[r] += centered[idx]
        results.extend((y_b @ solver)[: len(reps)])
    return _collect(results, ds)


def check_se_draws(count: int) -> None:
    """Raise the error :func:`bootstrap_se` gives for ``count`` draws, if they are too few."""
    if count < MIN_SE_DRAWS:
        raise InsufficientDrawsError(
            f"bootstrap SE needs at least {MIN_SE_DRAWS} retained draws, have {count}"
        )


def bootstrap_se(draws: BootstrapDraws) -> np.ndarray:
    """Coordinatewise sample standard deviation of the retained draws."""
    check_se_draws(draws.b_retained)
    return np.std(draws.draws, axis=0, ddof=1)


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
    if not 0 <= j < draws.draws.shape[1]:
        raise CoefficientIndexError(f"coefficient index {j} out of range")
    m = draws.b_retained
    if m < MIN_DIAGNOSTIC_DRAWS:
        raise InsufficientDrawsError(
            f"normality diagnostic needs at least {MIN_DIAGNOSTIC_DRAWS} draws, have {m}"
        )
    values = np.sort(draws.draws[:, j])
    quantiles = ndtri((np.arange(1, m + 1) - 0.5) / m)
    with np.errstate(divide="ignore", invalid="ignore"):  # constant draws: NaN
        corr = float(np.corrcoef(values, quantiles)[0, 1])
    return NormalityReport(
        coefficient=j,
        sorted_draws=values,
        theoretical_quantiles=quantiles,
        qq_correlation=corr,
    )
