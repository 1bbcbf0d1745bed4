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
    "CovarianceEstimate",
    "CoefficientRow",
    "CoefficientTable",
    "InferenceSummary",
    "conventional_cov",
    "sandwich_cov",
    "conventional_stack",
    "sandwich_stack",
    "standard_errors",
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
        return standard_errors(self.matrix)


def _information(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_i v_i x_i x_i' of each design in a stack, the summed Hessian of the family loss."""
    return (np.swapaxes(x, -1, -2) * v[..., None, :]) @ x


def _stack_of_one(fit: FitResult):
    """``(x, v, residuals)`` of one fit as stacks of one, for the stacked estimators."""
    return (
        fit.design.matrix[None],
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


def _one(stacked, method: str, n: int) -> CovarianceEstimate:
    cov, errors = stacked
    if errors[0] is not None:
        raise errors[0]
    return CovarianceEstimate(matrix=cov[0], method=method, n=n)


def conventional_cov(fit: FitResult) -> CovarianceEstimate:
    """Model-trusting covariance of beta_hat: phi * (sum v(mu_i) x x')^-1.

    The dispersion phi is SSE/(n-p-1) for OLS (where v = 1) and 1 for a
    GLM, whose covariance is then the inverse expected information.
    """
    stacked = conventional_stack(*_stack_of_one(fit), fit.family, np.ones(1, dtype=bool))
    return _one(stacked, "conventional", fit.n)


def sandwich_cov(fit: FitResult) -> CovarianceEstimate:
    """Heteroskedasticity/misspecification-consistent covariance.

    (1/n) * bread^-1 meat bread^-1, with bread the mean per-observation
    Hessian of the family loss and meat the mean outer product of
    per-observation scores (mu_i - y_i) x_i; for OLS the score is
    -r_i x_i, so the meat is the residual-weighted second moment.
    """
    return _one(sandwich_stack(*_stack_of_one(fit), np.ones(1, dtype=bool)), "sandwich", fit.n)


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
        cols = ["label", "coef", "se_conv", "p_conv"]
        if self.has_boot:
            cols.append("se_boot")
        cols += ["se_sand", "p_sand"]
        values = np.array([self._row_values(r) for r in self.rows], dtype=float)
        return csv_text(cols, [[r.label for r in self.rows], *values.T])


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
