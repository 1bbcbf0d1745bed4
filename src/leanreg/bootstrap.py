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

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .core import Dataset, build_design, csv_text, spd_solve
from .exceptions import (
    CoefficientIndexError,
    DomainError,
    ExcessiveFailureError,
    InsufficientDrawsError,
)
from .fitting import Family, fit_ols, fit_weighted, outer_rows
from .rng import substream

__all__ = [
    "BootstrapDraws",
    "NormalityReport",
    "xy_bootstrap",
    "residual_bootstrap",
    "bootstrap_se",
    "normality_diagnostic",
]

FAILURE_THRESHOLD = 0.1
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
    scheme: str  # "xy" | "residual"
    seed: int
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


def _resample(seed: int, b: int, n: int) -> np.ndarray:
    """Resampling indices of replicate b: n draws with replacement from substream (seed, b)."""
    return substream(seed, b).integers(0, n, size=n)


def tolerate_failures(results, what: str) -> tuple[list, dict]:
    """Split per-replicate results into the kept ones and failure counts.

    ``results`` holds a value or the typed error each replicate raised,
    in replicate order.  Returns the kept values, in order, and the
    failure count per error type.  More than ``FAILURE_THRESHOLD`` of
    failures raises an error carrying those counts.
    """
    kept = [r for r in results if not isinstance(r, Exception)]
    errors = [r for r in results if isinstance(r, Exception)]
    reasons: dict[str, int] = {}
    for e in errors:
        key = type(e).__name__
        reasons[key] = reasons.get(key, 0) + 1
    if len(errors) > FAILURE_THRESHOLD * len(results):
        raise ExcessiveFailureError(
            f"{len(errors)} of {len(results)} {what} failed "
            f"(threshold {FAILURE_THRESHOLD:.0%})",
            reasons=reasons,
        )
    return kept, reasons


def _collect(results, scheme, seed, ncol, labels) -> BootstrapDraws:
    """Assemble per-replicate results (a draw or the error it raised), in replicate order."""
    rows, reasons = tolerate_failures(results, "bootstrap replicates")
    draws = np.asarray(rows, dtype=float).reshape(len(rows), ncol)
    return BootstrapDraws(
        draws=draws,
        scheme=scheme,
        seed=seed,
        failures=len(results) - len(rows),
        failure_reasons=reasons,
        labels=labels,
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
    counted; more than 10% of them is an error carrying the failure
    reasons.  An infeasible base problem (e.g. a singular design that
    every resample inherits) therefore surfaces as an excessive-failure
    error with the cause attached.
    """
    if B < 1:
        raise DomainError("B must be at least 1")
    dm = build_design(ds)
    x = dm.matrix
    y = ds.response
    n = ds.n
    outer = outer_rows(x)
    results = []
    for size, reps in _chunks(B, n):
        # Rows past the last replicate are padding: the sample itself.
        w = np.ones((size, n))
        for r, b in enumerate(reps):
            w[r] = np.bincount(_resample(seed, b, n), minlength=n)
        fits = fit_weighted(x, y, w, family, outer=outer)
        results.extend(
            beta if error is None else error
            for beta, error in zip(fits.beta[: len(reps)], fits.errors)
        )
    return _collect(results, "xy", seed, dm.ncol, dm.column_labels)


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
    dm = build_design(ds)
    base = fit_ols(dm, ds.response)
    # Residuals already sum to zero with an intercept; recentering is a
    # guard for the general case.
    centered = base.residuals - np.mean(base.residuals)
    x = dm.matrix
    n = ds.n
    solver = spd_solve(x.T @ x, x.T).T
    results = []
    for size, reps in _chunks(B, n):
        y_b = np.tile(base.fitted, (size, 1))
        for r, b in enumerate(reps):
            y_b[r] += centered[_resample(seed, b, n)]
        results.extend((y_b @ solver)[: len(reps)])
    return _collect(results, "residual", seed, dm.ncol, dm.column_labels)


def bootstrap_se(draws: BootstrapDraws) -> np.ndarray:
    """Coordinatewise sample standard deviation of the retained draws."""
    if draws.b_retained < 2:
        raise InsufficientDrawsError(
            f"bootstrap SE needs at least 2 retained draws, have {draws.b_retained}"
        )
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
    corr = float(np.corrcoef(values, quantiles)[0, 1])
    return NormalityReport(
        coefficient=j,
        sorted_draws=values,
        theoretical_quantiles=quantiles,
        qq_correlation=corr,
    )
