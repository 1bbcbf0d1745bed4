"""Plug-in estimation of the best-approximation regression functional.

:func:`fit_glm` fits one sample, a :class:`~leanreg.core.Dataset`, on
the design it carries; :func:`fit_weighted` and :func:`fit_ols_stack`
fit stacks of weightings or of samples with the same arithmetic.  OLS
solves the sample normal equations exactly; bernoulli-logit and
poisson-log working models are fitted by Newton iterations (IRLS) on the
sample analog of the population cost function.  The fitted model is a
best approximation of the true response surface; nothing here assumes
the working model is correctly specified.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import expit

from .core import Dataset, numerical_rank, spd_solve_stack
from .exceptions import (
    CoefficientIndexError,
    ConvergenceError,
    DimensionError,
    DomainError,
    FamilyError,
    SeparationError,
    SingularSystemError,
)

__all__ = [
    "Family",
    "GAUSSIAN",
    "BERNOULLI",
    "POISSON",
    "family_by_name",
    "FitResult",
    "fit_ols_stack",
    "fit_glm",
    "fit_weighted",
    "check_support",
    "WeightedFits",
    "outer_rows",
    "predict_mean",
    "exp_coef",
]

# IRLS settings.
MAX_ITER = 50
COEF_TOL = 1e-9          # relative coefficient change
SCORE_TOL = 1e-7         # scaled mean-score norm
MAX_HALVINGS = 10
SEPARATION_BOUND = 30.0  # max_i |x_i'beta| beyond which the logit has saturated
WEIGHT_FLOOR = 1e-10


@dataclass(frozen=True)
class Family:
    """Working-model family: every formula in which working models differ.

    ``inverse_link`` maps the linear predictor to the mean, and
    ``variance_fn`` the mean to the curvature weight of the Newton step
    and both covariances; ``deviance(mu, y)`` is the fitted deviance (the
    SSE for gaussian).  ``closed_form``: the loss is quadratic and the
    normal equations minimize it exactly.  ``estimates_dispersion``: the
    conventional covariance scales by SSE/(n-p-1).  The other fields
    serve the Newton iterations: ``outside_support(y)`` masks responses
    the likelihood cannot take (rejected with ``support_message``);
    ``loss_change(t, mu, delta, y)`` is ``loss(t + delta) - loss(t)``
    given the mean ``mu`` at ``t``; ``start(ybar)`` is the starting
    intercept; ``weight_floor`` and ``separation_bound``, if set, floor
    zero weights of a singular system and cap the largest absolute
    linear predictor ``max_i |x_i'beta|`` of the observations used.
    """

    tag: str
    inverse_link: Callable[[np.ndarray], np.ndarray]
    variance_fn: Callable[[np.ndarray], np.ndarray]
    deviance: Callable[[np.ndarray, np.ndarray], float]
    closed_form: bool = False
    estimates_dispersion: bool = False
    outside_support: Callable[[np.ndarray], np.ndarray] | None = None
    support_message: str = ""
    loss_change: Callable[..., np.ndarray] | None = None
    start: Callable[[np.ndarray], np.ndarray] = np.zeros_like
    weight_floor: float | None = None
    separation_bound: float | None = None

    def __repr__(self):
        return f"Family({self.tag!r})"


def _softplus(t: np.ndarray) -> np.ndarray:
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


# The loss changes are computed from the step ``delta`` itself, not as
# two losses subtracted, so their sign holds even when the change is far
# below the rounding error of the losses: near the optimum a Newton step
# lowers the objective by far less than that, and a difference of
# rounded objectives would accept or halve the step at random.


def _poisson_loss_change(t, mu, delta, y):
    return mu * np.expm1(delta) - delta * y


def _logit_loss_change(t, mu, delta, y):
    # softplus(t + delta) - softplus(t) = log1p(mu * expm1(delta)); for
    # large |delta| the direct difference is accurate and cannot overflow.
    far = np.abs(delta) > 1.0
    if not far.any():
        return np.log1p(mu * np.expm1(delta)) - delta * y
    change = np.log1p(mu * np.expm1(np.clip(delta, -1.0, 1.0)))
    change[far] = _softplus(t[far] + delta[far]) - _softplus(t[far])
    return change - delta * y


def _logit_deviance(mu, y) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(y == 1.0, -np.log(mu), -np.log1p(-mu))
    return float(2.0 * np.sum(terms))


def _poisson_deviance(mu, y) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        ylogy = np.where(y > 0, y * np.log(y / mu), 0.0)
    return float(2.0 * np.sum(ylogy - (y - mu)))


GAUSSIAN = Family(
    "gaussian-identity",
    inverse_link=lambda t: t,
    variance_fn=np.ones_like,
    deviance=lambda mu, y: float((y - mu) @ (y - mu)),
    closed_form=True,
    estimates_dispersion=True,
)
BERNOULLI = Family(
    "bernoulli-logit",
    inverse_link=expit,
    variance_fn=lambda mu: mu * (1.0 - mu),
    deviance=_logit_deviance,
    outside_support=lambda y: ~((y == 0.0) | (y == 1.0)),
    support_message="bernoulli-logit requires a response coded exactly 0/1",
    loss_change=_logit_loss_change,
    weight_floor=WEIGHT_FLOOR,
    separation_bound=SEPARATION_BOUND,
)
POISSON = Family(
    "poisson-log",
    inverse_link=np.exp,
    variance_fn=lambda mu: mu,
    deviance=_poisson_deviance,
    outside_support=lambda y: (y < 0) | (y != np.floor(y)),
    support_message="poisson-log requires nonnegative integer counts",
    loss_change=_poisson_loss_change,
    start=lambda ybar: np.log(ybar + 0.5),
)

_FAMILIES = {
    "gaussian-identity": GAUSSIAN,
    "gaussian": GAUSSIAN,
    "ols": GAUSSIAN,
    "bernoulli-logit": BERNOULLI,
    "bernoulli": BERNOULLI,
    "logit": BERNOULLI,
    "poisson-log": POISSON,
    "poisson": POISSON,
}


def family_by_name(name: str) -> Family:
    try:
        return _FAMILIES[name.lower()]
    except KeyError:
        raise FamilyError(
            f"unknown family {name!r}; expected one of ols|logit|poisson"
        ) from None


@dataclass(frozen=True)
class FitResult:
    """A fitted working model, with the sample it was fitted to.

    ``data`` is retained because every downstream covariance estimator
    reads its design and response.
    """

    family: Family
    beta_hat: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    converged: bool
    iterations: int
    deviance_or_sse: float
    data: Dataset
    score_norm: float = field(default=0.0)

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def p(self) -> int:
        return self.data.p

    def to_json_dict(self) -> dict:
        return {
            "family": self.family.tag,
            "coefficients": {
                label: float(b)
                for label, b in zip(self.data.column_labels, self.beta_hat)
            },
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "deviance_or_sse": float(self.deviance_or_sse),
            "n": self.n,
        }


def _rank_errors(gram: np.ndarray) -> list:
    """Per Gram matrix of a stack: the error of a rank-deficient one, else None."""
    rank, eigs = numerical_rank(gram)
    return [
        None
        if full
        else SingularSystemError(
            "design matrix is rank deficient: smallest equilibrated "
            f"second-moment eigenvalue {eigs[r, 0]:.3e}",
            min_eigenvalue=float(eigs[r, 0]),
        )
        for r, full in enumerate(rank == gram.shape[-1])
    ]


def _ok(errors) -> np.ndarray:
    """Mask of the rows whose error is None."""
    return np.array([e is None for e in errors], dtype=bool)


def _record(errors: list, failed: list) -> np.ndarray:
    """Copy each error of ``failed`` into ``errors``; the mask of the rows without one."""
    ok = _ok(failed)
    for r in np.flatnonzero(~ok):
        errors[r] = failed[r]
    return ok


def fit_ols_stack(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, list]:
    """Solve the normal equations of each design in a stack ``x`` (m, n, k), ``y`` (m, n).

    Returns ``(beta, errors)``.  Row r gets what :func:`fit_glm` does
    for the gaussian family on ``(x[r], y[r])``, bit for bit: the rank
    check of its Gram matrix, the warning when n <= k, and the Cholesky
    solve.  ``errors[r]`` is the typed error that fit raised, and then
    ``beta[r]`` is zero; otherwise ``errors[r]`` is None.
    """
    _, n, k = x.shape
    xt = np.swapaxes(x, -1, -2)
    gram = xt @ x
    errors = _rank_errors(gram)
    if n <= k:
        for _ in range(errors.count(None)):
            warnings.warn(
                f"n={n} observations for {k} coefficients: "
                "variance estimates will be unreliable",
                stacklevel=3,
            )
    xty = (xt @ y[..., None])[..., 0]
    beta, failed = spd_solve_stack(gram, xty, _ok(errors), "normal-equation matrix")
    _record(errors, failed)
    beta[~_ok(errors)] = 0.0
    return beta, errors


def outer_rows(x: np.ndarray) -> np.ndarray:
    """Per-observation outer products: row i is vec(x_i x_i'), shape (n, k*k)."""
    return (x[:, :, None] * x[:, None, :]).reshape(x.shape[0], -1)


@dataclass(frozen=True)
class WeightedFits:
    """One working model fitted under each row of a weight matrix.

    Row r of ``beta`` is the fit under weight row r.  When that fit
    failed, ``errors[r]`` is the typed error a single fit would have
    raised and ``beta[r]`` is meaningless; otherwise ``errors[r]`` is
    None.
    """

    beta: np.ndarray
    errors: tuple
    iterations: np.ndarray
    score_norm: np.ndarray


def fit_weighted(
    x: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    family: Family,
    outer: np.ndarray | None = None,
) -> WeightedFits:
    """Fit the working model once per row of the weight matrix ``w``.

    Row r minimizes ``sum_i w[r, i] * loss(x_i' beta, y_i) / sum_i w[r, i]``.
    All-ones weights give the sample fit; multinomial counts give the
    refit on a resample that repeats observation i ``w[r, i]`` times.
    Every row gets what a single fit gets: the rank check of its
    weighted second-moment matrix, then an exact solve (gaussian) or
    Newton iterations from the usual start value with step halving, the
    logit separation bound and the convergence test of :func:`fit_glm`.
    The responses' support is the caller's to check (:func:`check_support`).

    ``outer`` is :func:`outer_rows` of ``x``, for callers that reuse it.
    Every matrix product and elementwise pass takes all rows, so row r's
    result depends only on ``w[r]``, on r and on the number of rows
    (BLAS may round a row differently at another position or row
    count).  Rows that converge or fail are therefore masked, never
    dropped: they take zero steps until every row has stopped.
    """
    m, n = w.shape
    k = x.shape[1]
    if n != x.shape[0] or y.shape[0] != n:
        raise DimensionError(f"weights for {n} observations, design has {x.shape[0]} rows")
    wsum = np.sum(w, axis=1)
    if np.any(w < 0) or np.any(wsum <= 0):
        raise DomainError("weights must be nonnegative with a positive sum in every row")
    if outer is None:
        outer = outer_rows(x)
    gram = (w @ outer).reshape(m, k, k)
    errors = _rank_errors(gram)
    if family.closed_form:
        beta, failed = spd_solve_stack(gram, (w * y) @ x, _ok(errors), "normal-equation matrix")
        _record(errors, failed)
        return WeightedFits(beta, tuple(errors), np.ones(m, dtype=int), np.zeros(m))

    active = _ok(errors)

    with np.errstate(over="ignore", invalid="ignore"):
        beta, iterations, score_norm = _newton(x, y, w, wsum, outer, family, active, errors)
    return WeightedFits(beta, tuple(errors), iterations, score_norm)


def _newton(x, y, w, wsum, outer, family, active, errors):
    """Newton/IRLS for every active row of ``w``; records failures in ``errors``.

    Every pass takes all m rows.  A row of each product and of each
    elementwise pass depends only on that row, so a stopped row
    reproduces its bits when it is evaluated again.  The mask ``active``
    picks the rows that change: a stopped row gets a zero step and keeps
    its iterate.
    """
    m = w.shape[0]
    k = x.shape[1]
    xt = np.ascontiguousarray(x.T)
    # Unused observations get linear predictor 0: a single fit never
    # evaluates them, so they must not overflow or turn 0 * inf into NaN.
    used = (w > 0).astype(float)

    def linear_predictor(b):
        return (b @ xt) * used

    score_scale = np.maximum(1.0, np.sum(w * np.abs(y), axis=1) / wsum)
    beta = np.zeros((m, k))
    beta[:, 0] = family.start(np.sum(w * y, axis=1) / wsum)
    iterations = np.zeros(m, dtype=int)
    rel_change = np.full(m, np.inf)  # the start value has not converged

    for it in range(MAX_ITER + 1):
        t = linear_predictor(beta)
        mu = family.inverse_link(t)
        # Whether each row's objective is finite (a poisson mean can overflow).
        finite = np.all(np.isfinite(mu), axis=1)
        scores = (w * (mu - y)) @ x  # sum_i w_i (mu_i - y_i) x_i
        score_norm = np.max(np.abs(scores), axis=1) / wsum
        iterations[active] = it
        if family.separation_bound is not None:
            # t is zero on unused observations, so this is the largest
            # |x_i'beta| over the observations the row uses.
            separated = active & (np.max(np.abs(t), axis=1) > family.separation_bound)
            for r in np.flatnonzero(separated):
                errors[r] = SeparationError(
                    "quasi-separation detected: a linear predictor |x_i'beta| "
                    f"exceeded {family.separation_bound} on the logit scale",
                    last_beta=beta[r].copy(),
                    score_norm=float(score_norm[r]),
                    iterations=it,
                )
            active = active & ~separated
        converged = (rel_change < COEF_TOL) & (score_norm <= SCORE_TOL * score_scale)
        active = active & ~converged
        if it == MAX_ITER or not active.any():
            break

        v = family.variance_fn(mu)
        hessian = ((w * v) @ outer).reshape(m, k, k) / wsum[:, None, None]
        grad = scores / wsum[:, None]
        direction, failed = spd_solve_stack(hessian, grad, active, "Newton system")
        retry = ~_ok(failed)
        if family.weight_floor is not None and retry.any():
            # mu saturated to exactly 0/1 on enough points to break the
            # solve; floor those weights just enough to keep the system
            # solvable.  Flooring is deliberately a last resort: an
            # unconditional floor damps divergence so much that the
            # separation bound above would never be reached.
            v = np.where(v <= 0.0, family.weight_floor, v)
            hessian = ((w * v) @ outer).reshape(m, k, k) / wsum[:, None, None]
            floored, failed = spd_solve_stack(hessian, grad, retry, "Newton system")
            rescued = retry & _ok(failed)
            direction[rescued] = floored[rescued]
        active = active & _record(errors, failed)
        direction = np.where(active[:, None], -direction, 0.0)

        # Step halving, row by row: a row keeps its last candidate and
        # its step is halved after every rejection.  A step is accepted
        # when it does not raise the objective, or when the objective at
        # the current iterate is not finite.
        step = np.ones(m)
        candidate = beta.copy()
        pending = active
        for _ in range(MAX_HALVINGS + 1):
            move = step[:, None] * direction
            change = family.loss_change(t, mu, linear_predictor(move), y)
            change = np.sum(w * change, axis=1) / wsum
            candidate[pending] = beta[pending] + move[pending]
            pending = pending & ~((change <= 0.0) | ~finite)
            step[pending] *= 0.5
            if not pending.any():
                break

        rel_change = np.max(np.abs(step[:, None] * direction), axis=1) / np.maximum(
            1.0, np.max(np.abs(candidate), axis=1)
        )
        beta = candidate

    for r in np.flatnonzero(active):
        errors[r] = ConvergenceError(
            f"IRLS did not converge in {MAX_ITER} iterations "
            f"(score norm {score_norm[r]:.3e})",
            last_beta=beta[r].copy(),
            score_norm=float(score_norm[r]),
            iterations=MAX_ITER,
        )
    return beta, iterations, score_norm


def check_support(y: np.ndarray, family: Family) -> None:
    """Raise ``FamilyError`` if a response lies outside the support of ``family``."""
    if family.outside_support is not None and family.outside_support(y).any():
        raise FamilyError(family.support_message)


def fit_glm(ds: Dataset, family: Family) -> FitResult:
    """Fit the working model of ``family`` to the sample: the one single-sample fit.

    A closed-form family solves the normal equations (sum x x') beta =
    sum x y exactly, as :func:`fit_ols_stack` with a stack of one; the
    residuals are orthogonal to every design column.  Other families
    are :func:`fit_weighted` with one all-ones weight row, minimizing the
    sample working-model cost by Newton/IRLS.  Convergence requires
    both a relative coefficient change below ``COEF_TOL`` and a
    mean-score norm ``max_j |sum_i (mu_i - y_i) x_ij| / n`` at or below
    ``SCORE_TOL * max(1, mean|y|)``.  Steps that fail to decrease the
    objective are halved up to ``MAX_HALVINGS`` times.

    Raises
    ------
    FamilyError
        a response lies outside the family's support; checked first.
    SingularSystemError
        the design is rank deficient, or the normal-equation matrix or
        a Newton system is not positive definite.
    SeparationError
        a bernoulli linear predictor ``|x_i'beta|`` diverges past the
        logit saturation bound.
    ConvergenceError
        no convergence within ``MAX_ITER`` iterations; carries the last
        iterate and its score norm.
    """
    x, y = ds.design, ds.response
    check_support(y, family)
    if family.closed_form:
        beta, errors = fit_ols_stack(x[None], y[None])
        iterations, score_norm = 1, 0.0
    else:
        fits = fit_weighted(x, y, np.ones((1, ds.n)), family)
        beta, errors = fits.beta, fits.errors
        iterations, score_norm = int(fits.iterations[0]), float(fits.score_norm[0])
    if errors[0] is not None:
        raise errors[0]
    beta = beta[0]
    mu = family.inverse_link(x @ beta)
    return FitResult(
        family=family,
        beta_hat=beta,
        fitted=mu,
        residuals=y - mu,
        converged=True,
        iterations=iterations,
        deviance_or_sse=family.deviance(mu, y),
        data=ds,
        score_norm=score_norm,
    )


def predict_mean(fit: FitResult, x) -> float:
    """Mean-scale prediction ``inverse_link(beta' x)`` at one point.

    ``x`` must be a (p+1)-vector with the leading 1 included.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != fit.beta_hat.shape:
        raise DimensionError(
            f"point has shape {x.shape}, expected {fit.beta_hat.shape}"
        )
    return float(fit.family.inverse_link(x @ fit.beta_hat))


def exp_coef(fit: FitResult, j: int, delta: float = 1.0) -> float:
    """Multiplicative effect exp(beta_j * delta) of a ``delta`` increment.

    Only meaningful for the log link, where coefficients act as
    multipliers of the mean count.
    """
    if fit.family is not POISSON:
        raise FamilyError(
            f"exponentiated-coefficient multipliers require the poisson-log "
            f"family, not {fit.family.tag!r}"
        )
    if not 0 <= j < fit.beta_hat.shape[0]:
        raise CoefficientIndexError(f"coefficient index {j} out of range")
    return float(np.exp(fit.beta_hat[j] * delta))
