"""Conventional and sandwich covariance estimators, SEs, and p-values.

The conventional estimator trusts the working model (homoskedastic
residual variance for OLS, inverse expected information for GLMs).  The
sandwich estimator ``I^-1 (sum_i s_i s_i') I^-1`` is consistent for the
sampling covariance of the coefficient estimates under i.i.d. sampling
alone, with no correctness assumption on the working model.  Both read
the fit's one inverse information matrix ``I^-1``
(:attr:`~leanreg.fitting.FitResult.information_inverse`) and are the
finite-sample covariance of beta_hat, with no 1/n left to divide out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import csv_text, finite_array, in_float_range
from .exceptions import ColumnError, DomainError
from .fitting import FitResult

__all__ = [
    "CoefficientTable",
    "conventional_cov",
    "sandwich_cov",
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


def standard_errors(cov: np.ndarray) -> np.ndarray:
    """Square roots of the diagonal of each covariance in a stack, negatives read as 0."""
    return np.sqrt(np.maximum(np.diagonal(cov, axis1=-2, axis2=-1), 0.0))


def sandwich_stack(inverse: np.ndarray, meat: np.ndarray) -> np.ndarray:
    """:func:`sandwich_cov` of each fit in a stack, row r with the bits of that fit alone.

    ``inverse`` and ``meat`` (m, k, k) are the fits' inverse information
    matrices and score second moments ``sum_i s_i s_i'``.
    """
    cov = inverse @ meat @ inverse
    return (cov + np.swapaxes(cov, -1, -2)) / 2.0


def conventional_cov(fit: FitResult) -> np.ndarray:
    """Model-trusting (k, k) covariance of beta_hat: phi * (sum v(mu_i) x x')^-1.

    The dispersion phi is SSE/(n-p-1) for OLS (where v = 1) and 1 for a
    GLM, whose covariance is then the inverse expected information.
    One past the float range is a :class:`DomainError`.
    """
    phi, inverse = fit.dispersion, fit.information_inverse
    return in_float_range("the conventional covariance", lambda: phi * inverse)


def sandwich_cov(fit: FitResult) -> np.ndarray:
    """Heteroskedasticity/misspecification-consistent (k, k) covariance.

    ``I^-1 (sum_i s_i s_i') I^-1``, with ``I^-1`` the fit's inverse
    information (the inverse summed Hessian of the family loss) and
    ``s_i = (y_i - mu_i) x_i`` the per-observation scores; for OLS the
    middle factor is the residual-weighted second moment.  One past the
    float range is a :class:`DomainError`.
    """
    inverse = fit.information_inverse

    def cov():
        scores = fit.data.design * fit.residuals[:, None]  # row i is (y_i - mu_i) x_i
        return sandwich_stack(inverse[None], (scores.T @ scores)[None])[0]
    return in_float_range("the sandwich covariance", cov)


def se_and_pvalues(fit: FitResult, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(se, p)``: SE_j = sqrt(cov_jj); p_j = 2(1 - Phi(|beta_j| / SE_j)).

    A zero SE is degenerate: p is 0 for a nonzero coefficient (the
    degenerate limit) and 1 for a zero coefficient.  ``cov`` (k, k)
    passes :func:`~leanreg.core.finite_array`; a negative variance is a
    :class:`DomainError`.
    """
    beta = fit.beta_hat
    k = beta.shape[0]
    cov = finite_array(cov, "covariance", (k, k))
    if (np.diagonal(cov) < 0.0).any():
        raise DomainError("covariance has a negative variance")
    se = standard_errors(cov)
    degenerate = se == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(degenerate, np.where(beta == 0.0, 0.0, np.inf), np.abs(beta) / se)
    # erfc(z / sqrt 2) = 2 (1 - Phi(z)), without the cancellation of 1 - Phi.
    return se, np.array([math.erfc(v / math.sqrt(2.0)) for v in z.tolist()])


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
    """Assemble the per-coefficient report from one fit's covariances.

    ``boot_se``, if given, holds one bootstrap SE per coefficient: it
    passes :func:`~leanreg.core.finite_array`, and a negative SE is a
    :class:`DomainError`.
    """
    se_conv, p_conv = se_and_pvalues(fit, conv)
    se_sand, p_sand = se_and_pvalues(fit, sand)
    if boot_se is not None:
        boot_se = finite_array(boot_se, "bootstrap SEs", se_conv.shape)
        if np.any(boot_se < 0):
            raise DomainError("bootstrap SEs must be nonnegative")
    return CoefficientTable(
        labels=fit.data.column_labels,
        coef=fit.beta_hat,
        se_conv=se_conv,
        p_conv=p_conv,
        se_boot=boot_se,
        se_sand=se_sand,
        p_sand=p_sand,
    )


def table_from_published(rows: list[dict]) -> CoefficientTable:
    """Build a table from already-published numbers (no fit required).

    Every row needs a label and each column but ``se_boot``; a missing
    or None value is a :class:`ColumnError`, not a NaN.  Each column
    passes :func:`~leanreg.core.finite_array`; a row without ``se_boot``
    has NaN there.
    """
    columns = {key: [r.get(key) for r in rows] for key in ("label", *_COLUMNS)}
    boot = columns.pop("se_boot")
    missing = sorted(key for key, values in columns.items() if None in values)
    if missing:
        raise ColumnError(f"published row missing columns: {missing}")
    absent = [v is None for v in boot]
    boot = finite_array([0.0 if v is None else v for v in boot], "se_boot", (len(rows),))
    return CoefficientTable(
        labels=tuple(columns.pop("label")),
        se_boot=None if all(absent) else np.where(absent, np.nan, boot),
        **{key: finite_array(values, key, (len(rows),)) for key, values in columns.items()},
    )
