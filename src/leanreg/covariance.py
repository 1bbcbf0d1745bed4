"""Conventional and sandwich covariance estimators, SEs, and p-values.

The conventional estimator trusts the working model (homoskedastic
residual variance for OLS, inverse expected information for GLMs).  The
sandwich estimator ``bread^-1 meat bread^-1`` is consistent for the
sampling covariance of the coefficient estimates under i.i.d. sampling
alone, with no correctness assumption on the working model.  Both are
returned as the finite-sample covariance of beta_hat, i.e. already
divided by n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .core import csv_text, spd_solve_stack
from .exceptions import (
    ColumnError,
    DegreesOfFreedomError,
    DimensionError,
)
from .fitting import Family, FitResult

__all__ = [
    "CoefficientTable",
    "conventional_cov",
    "sandwich_cov",
    "conventional_stack",
    "sandwich_stack",
    "standard_errors",
    "se_and_pvalues",
    "coefficient_table",
    "table_from_published",
    "TABLE_HEADERS",
]

TABLE_HEADERS = ("Coeff", "SE", "p-value", "Boot.SE", "Sand.SE", "Sand-p")
# The table's column fields, which are also its CSV and JSON keys, in
# TABLE_HEADERS order.
_COLUMNS = ("coef", "se_conv", "p_conv", "se_boot", "se_sand", "p_sand")


def _information(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_i v_i x_i x_i' of each design in a stack, the summed Hessian of the family loss."""
    return (np.swapaxes(x, -1, -2) * v[..., None, :]) @ x


def _stack_of_one(fit: FitResult):
    """``(x, v, residuals)`` of one fit as stacks of one, for the stacked estimators."""
    return (
        fit.data.design[None],
        fit.family.variance_fn(fit.fitted)[None],
        fit.residuals[None],
    )


def standard_errors(cov: np.ndarray) -> np.ndarray:
    """Square roots of the diagonal of each covariance in a stack, negatives read as 0."""
    return np.sqrt(np.maximum(np.diagonal(cov, axis1=-2, axis2=-1), 0.0))


def conventional_stack(x, v, residuals, family: Family, rows: np.ndarray):
    """:func:`conventional_cov` of each fit in a stack, selected by ``rows``.

    ``x`` (m, n, k) holds the designs, ``v`` (m, n) the family variance
    at each fitted mean and ``residuals`` (m, n) the residuals.  Returns
    ``(cov, errors)``: row r has the bits ``conventional_cov`` gives for
    that fit alone, or ``errors[r]`` is the typed error it raised.
    Unselected rows have no error and a meaningless ``cov``.
    """
    m, n, k = x.shape
    if family.estimates_dispersion:
        if n <= k:
            return np.zeros((m, k, k)), [
                DegreesOfFreedomError(
                    f"conventional OLS variance needs n > p+1 (n={n}, p+1={k})"
                )
                if selected
                else None
                for selected in rows
            ]
        # One dot product per row, as for a single fit.
        dispersion = (residuals[:, None, :] @ residuals[:, :, None])[:, 0, 0] / (n - k)
    else:
        dispersion = np.ones(m)
    information = _information(x, v)
    inverse, errors = spd_solve_stack(information, None, rows, "expected-information matrix")
    return dispersion[:, None, None] * inverse, errors


def sandwich_stack(x, v, residuals, rows: np.ndarray):
    """:func:`sandwich_cov` of each fit in a stack, as :func:`conventional_stack` for the model-trusting one."""
    n = x.shape[1]
    bread = _information(x, v) / n
    scores = x * residuals[..., None]  # row i is (y_i - mu_i) x_i
    meat = (np.swapaxes(scores, -1, -2) @ scores) / n
    bread_inv, errors = spd_solve_stack(bread, None, rows, "bread matrix")
    cov = bread_inv @ meat @ bread_inv / n
    return (cov + np.swapaxes(cov, -1, -2)) / 2.0, errors


def _one(stacked) -> np.ndarray:
    cov, errors = stacked
    if errors[0] is not None:
        raise errors[0]
    return cov[0]


def conventional_cov(fit: FitResult) -> np.ndarray:
    """Model-trusting (k, k) covariance of beta_hat: phi * (sum v(mu_i) x x')^-1.

    The dispersion phi is SSE/(n-p-1) for OLS (where v = 1) and 1 for a
    GLM, whose covariance is then the inverse expected information.
    """
    return _one(conventional_stack(*_stack_of_one(fit), fit.family, np.ones(1, dtype=bool)))


def sandwich_cov(fit: FitResult) -> np.ndarray:
    """Heteroskedasticity/misspecification-consistent (k, k) covariance.

    (1/n) * bread^-1 meat bread^-1, with bread the mean per-observation
    Hessian of the family loss and meat the mean outer product of
    per-observation scores (mu_i - y_i) x_i; for OLS the score is
    -r_i x_i, so the meat is the residual-weighted second moment.
    """
    return _one(sandwich_stack(*_stack_of_one(fit), np.ones(1, dtype=bool)))


def se_and_pvalues(fit: FitResult, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(se, p)``: SE_j = sqrt(cov_jj); p_j = 2(1 - Phi(|beta_j| / SE_j)).

    A zero SE is degenerate: p is 0 for a nonzero coefficient (the
    degenerate limit) and 1 for a zero coefficient.
    """
    beta = fit.beta_hat
    k = beta.shape[0]
    if np.shape(cov) != (k, k):
        raise DimensionError("covariance dimension does not match coefficients")
    se = standard_errors(cov)
    degenerate = se == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(degenerate, np.where(beta == 0.0, 0.0, np.inf), np.abs(beta) / se)
    return se, 2.0 * ndtr(-z)


@dataclass(frozen=True)
class CoefficientTable:
    """Per-coefficient report, intercept first: the labels and one float
    array per column, in ``TABLE_HEADERS`` order.

    ``se_boot`` is None when there is no bootstrap column; in a
    published table, NaN marks a row without a bootstrap SE.
    """

    labels: tuple[str, ...]
    coef: np.ndarray
    se_conv: np.ndarray
    p_conv: np.ndarray
    se_boot: np.ndarray | None
    se_sand: np.ndarray
    p_sand: np.ndarray

    def _columns(self) -> list[tuple[str, str, np.ndarray]]:
        """``(key, header, values)`` of each column the table has, in table order."""
        return [
            (key, header, getattr(self, key))
            for key, header in zip(_COLUMNS, TABLE_HEADERS)
            if getattr(self, key) is not None
        ]

    def headers(self) -> tuple[str, ...]:
        return tuple(header for _, header, _ in self._columns())

    def to_json_dict(self) -> dict:
        """One object per coefficient, ``se_boot`` last and null where a row has none."""
        columns = {key: values for key, _, values in self._columns() if key != "se_boot"}
        if self.se_boot is not None:
            columns["se_boot"] = np.where(np.isnan(self.se_boot), None, self.se_boot)
        keys = ("label", *columns)
        values = zip(self.labels, *(v.tolist() for v in columns.values()))
        return {"rows": [dict(zip(keys, row)) for row in values]}

    def to_text(self) -> str:
        """Aligned plain-text table, 4 decimal places."""
        columns = [[header, *np.char.mod("%.4f", v)] for _, header, v in self._columns()]
        columns = [np.char.rjust(cells, max(map(len, cells))) for cells in columns]
        label_width = max(map(len, self.labels))
        return "".join(
            label.ljust(label_width) + "  " + "  ".join(cells) + "\n"
            for label, *cells in zip(("", *self.labels), *columns)
        )

    def to_csv_text(self) -> str:
        columns = self._columns()
        return csv_text(
            ["label", *(key for key, _, _ in columns)],
            [self.labels, *(values for _, _, values in columns)],
        )


def coefficient_table(
    fit: FitResult,
    conv: np.ndarray,
    sand: np.ndarray,
    boot_se: np.ndarray | None = None,
) -> CoefficientTable:
    """Assemble the per-coefficient report from one fit's covariances."""
    se_conv, p_conv = se_and_pvalues(fit, conv)
    se_sand, p_sand = se_and_pvalues(fit, sand)
    if boot_se is not None and len(boot_se) != len(se_conv):
        raise DimensionError("bootstrap SE vector does not match the fit")
    return CoefficientTable(
        labels=fit.data.column_labels,
        coef=fit.beta_hat,
        se_conv=se_conv,
        p_conv=p_conv,
        se_boot=None if boot_se is None else np.asarray(boot_se, dtype=float),
        se_sand=se_sand,
        p_sand=p_sand,
    )


def table_from_published(rows: list[dict]) -> CoefficientTable:
    """Build a table from already-published numbers (no fit required).

    Every row needs a label and each column but ``se_boot``; a missing
    or None value is a :class:`ColumnError`, not a NaN.
    """
    columns = {key: [r.get(key) for r in rows] for key in ("label", *_COLUMNS)}
    boot = columns.pop("se_boot")
    missing = sorted(key for key, values in columns.items() if None in values)
    if missing:
        raise ColumnError(f"published row missing columns: {missing}")
    labels = tuple(columns.pop("label"))
    return CoefficientTable(
        labels=labels,
        se_boot=None if all(v is None for v in boot) else np.asarray(boot, dtype=float),
        **{key: np.asarray(values, dtype=float) for key, values in columns.items()},
    )
