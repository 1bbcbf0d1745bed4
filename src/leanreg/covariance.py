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

import csv
import io
import json
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .core import spd_solve
from .exceptions import (
    ColumnError,
    DegreesOfFreedomError,
    DimensionError,
)
from .fitting import FitResult

__all__ = [
    "CovarianceEstimate",
    "CoefficientRow",
    "CoefficientTable",
    "InferenceSummary",
    "conventional_cov",
    "sandwich_cov",
    "se_and_pvalues",
    "coefficient_table",
    "TABLE_HEADERS",
]

TABLE_HEADERS = ("Coeff", "SE", "p-value", "Boot.SE", "Sand.SE", "Sand-p")


@dataclass(frozen=True)
class CovarianceEstimate:
    """(p+1) x (p+1) covariance of beta_hat plus its method tag."""

    matrix: np.ndarray
    method: str  # conventional | sandwich | bootstrap
    n: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError("covariance matrix must be square")

    def standard_errors(self) -> np.ndarray:
        return np.sqrt(np.maximum(np.diag(self.matrix), 0.0))


def _information(fit: FitResult) -> np.ndarray:
    """sum_i v(mu_i) x_i x_i', the summed Hessian of the family loss."""
    x = fit.design.matrix
    return (x.T * fit.family.variance_fn(fit.fitted)) @ x


def conventional_cov(fit: FitResult) -> CovarianceEstimate:
    """Model-trusting covariance of beta_hat: phi * (sum v(mu_i) x x')^-1.

    The dispersion phi is SSE/(n-p-1) for OLS (where v = 1) and 1 for a
    GLM, whose covariance is then the inverse expected information.
    """
    x = fit.design.matrix
    n, k = x.shape
    dispersion = 1.0
    if fit.family.estimates_dispersion:
        if n <= k:
            raise DegreesOfFreedomError(
                f"conventional OLS variance needs n > p+1 (n={n}, p+1={k})"
            )
        dispersion = float(fit.residuals @ fit.residuals) / (n - k)
    cov = dispersion * spd_solve(_information(fit), what="expected-information matrix")
    return CovarianceEstimate(matrix=cov, method="conventional", n=n)


def sandwich_cov(fit: FitResult) -> CovarianceEstimate:
    """Heteroskedasticity/misspecification-consistent covariance.

    (1/n) * bread^-1 meat bread^-1, with bread the mean per-observation
    Hessian of the family loss and meat the mean outer product of
    per-observation scores (mu_i - y_i) x_i; for OLS the score is
    -r_i x_i, so the meat is the residual-weighted second moment.
    """
    x = fit.design.matrix
    n = x.shape[0]
    bread = _information(fit) / n
    scores = x * fit.residuals[:, None]  # row i is (y_i - mu_i) x_i
    meat = (scores.T @ scores) / n
    bread_inv = spd_solve(bread, what="bread matrix")
    cov = bread_inv @ meat @ bread_inv / n
    cov = (cov + cov.T) / 2.0
    return CovarianceEstimate(matrix=cov, method="sandwich", n=n)


@dataclass(frozen=True)
class InferenceSummary:
    """Per-coefficient standard errors and two-sided normal p-values."""

    se: np.ndarray
    p: np.ndarray
    degenerate: np.ndarray  # True where SE == 0


def se_and_pvalues(fit: FitResult, cov: CovarianceEstimate) -> InferenceSummary:
    """SE_j = sqrt(cov_jj); p_j = 2(1 - Phi(|beta_j| / SE_j)).

    Zero SEs are flagged: p is 0 for a nonzero coefficient (the
    degenerate limit) and 1 for a zero coefficient.
    """
    beta = fit.beta_hat
    if cov.matrix.shape[0] != beta.shape[0]:
        raise DimensionError("covariance dimension does not match coefficients")
    se = cov.standard_errors()
    degenerate = se == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(degenerate, np.where(beta == 0.0, 0.0, np.inf), np.abs(beta) / se)
    p = 2.0 * ndtr(-z)
    return InferenceSummary(se=se, p=p, degenerate=degenerate)


@dataclass(frozen=True)
class CoefficientRow:
    label: str
    coef: float
    se_conv: float
    p_conv: float
    se_sand: float
    p_sand: float
    se_boot: float | None = None


@dataclass(frozen=True)
class CoefficientTable:
    """Per-coefficient report, intercept first, one row per coefficient."""

    rows: tuple[CoefficientRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))

    @property
    def has_boot(self) -> bool:
        return any(r.se_boot is not None for r in self.rows)

    def headers(self) -> tuple[str, ...]:
        if self.has_boot:
            return TABLE_HEADERS
        return tuple(h for h in TABLE_HEADERS if h != "Boot.SE")

    def _row_values(self, r: CoefficientRow) -> list[float]:
        vals = [r.coef, r.se_conv, r.p_conv]
        if self.has_boot:
            vals.append(float("nan") if r.se_boot is None else r.se_boot)
        vals += [r.se_sand, r.p_sand]
        return vals

    def to_json_dict(self) -> dict:
        rows = []
        for r in self.rows:
            d = {
                "label": r.label,
                "coef": r.coef,
                "se_conv": r.se_conv,
                "p_conv": r.p_conv,
                "se_sand": r.se_sand,
                "p_sand": r.p_sand,
            }
            if self.has_boot:
                d["se_boot"] = r.se_boot
            rows.append(d)
        return {"rows": rows}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def to_text(self) -> str:
        """Aligned plain-text table, 4 decimal places."""
        headers = self.headers()
        label_width = max(len(r.label) for r in self.rows)
        cells = [[f"{v:.4f}" for v in self._row_values(r)] for r in self.rows]
        widths = [
            max(len(h), max(len(row[i]) for row in cells))
            for i, h in enumerate(headers)
        ]
        lines = [
            " " * label_width
            + "  "
            + "  ".join(h.rjust(w) for h, w in zip(headers, widths))
        ]
        for r, row in zip(self.rows, cells):
            lines.append(
                r.label.ljust(label_width)
                + "  "
                + "  ".join(c.rjust(w) for c, w in zip(row, widths))
            )
        return "\n".join(lines) + "\n"

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        cols = ["label", "coef", "se_conv", "p_conv"]
        if self.has_boot:
            cols.append("se_boot")
        cols += ["se_sand", "p_sand"]
        writer.writerow(cols)
        for r in self.rows:
            writer.writerow([r.label] + [repr(float(v)) for v in self._row_values(r)])
        return buf.getvalue()


def coefficient_table(
    fit: FitResult,
    conv: CovarianceEstimate,
    sand: CovarianceEstimate,
    boot_se: np.ndarray | None = None,
) -> CoefficientTable:
    """Assemble the per-coefficient report from one fit's estimates."""
    k = fit.beta_hat.shape[0]
    for cov in (conv, sand):
        if cov.matrix.shape[0] != k:
            raise DimensionError("covariance dimension does not match the fit")
    if boot_se is not None and len(boot_se) != k:
        raise DimensionError("bootstrap SE vector does not match the fit")
    conv_inf = se_and_pvalues(fit, conv)
    sand_inf = se_and_pvalues(fit, sand)
    rows = []
    for j, label in enumerate(fit.design.column_labels):
        rows.append(
            CoefficientRow(
                label=label,
                coef=float(fit.beta_hat[j]),
                se_conv=float(conv_inf.se[j]),
                p_conv=float(conv_inf.p[j]),
                se_sand=float(sand_inf.se[j]),
                p_sand=float(sand_inf.p[j]),
                se_boot=None if boot_se is None else float(boot_se[j]),
            )
        )
    return CoefficientTable(rows=tuple(rows))


def table_from_published(rows: list[dict]) -> CoefficientTable:
    """Build a table from already-published numbers (no fit required)."""
    built = []
    for r in rows:
        missing = {"label", "coef", "se_conv", "p_conv", "se_sand", "p_sand"} - set(r)
        if missing:
            raise ColumnError(f"published row missing columns: {sorted(missing)}")
        built.append(
            CoefficientRow(
                label=r["label"],
                coef=r["coef"],
                se_conv=r["se_conv"],
                p_conv=r["p_conv"],
                se_sand=r["se_sand"],
                p_sand=r["p_sand"],
                se_boot=r.get("se_boot"),
            )
        )
    return CoefficientTable(rows=tuple(built))
