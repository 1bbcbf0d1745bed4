"""Plug-in estimation of the best-approximation regression functional.

:func:`fit_glm` fits one sample, a :class:`~leanreg.core.Dataset`, on
the design it carries; :func:`fit_weighted` fits stacks of weightings
of it with the same arithmetic, and :func:`fit_ols_counts` samples on a
finite support from each point's count and response sum.  A sample's
own OLS fit is the one-row support fit of its rows, each counted once,
so its coefficients and inverse information share one Gram matrix from
:func:`gram`, the one per-row weighted second moment.  OLS solves
the sample normal equations exactly; bernoulli-logit and poisson-log
working models are fitted by Newton iterations (IRLS) on the sample
analog of the population cost function.  The fitted model is a best
approximation of the true response surface; nothing here assumes the
working model is correctly specified.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import Dataset, check_index, check_real, finite_array, in_float_range, numerical_rank, spd_solve_stack
from .exceptions import (
    ConvergenceError,
    DegreesOfFreedomError,
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
    "fit_ols_counts",
    "fit_glm",
    "fit_weighted",
    "gram",
    "dispersion_stack",
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


@dataclass(frozen=True)
class Family:
    """Working-model family: every formula in which working models differ.

    ``inverse_link`` maps the linear predictor to the mean, and
    ``variance_fn`` the mean to the curvature weight of the Newton step
    and both covariances; ``deviance(mu, y)`` is the fitted deviance (the
    SSE for gaussian).  ``closed_form``: the loss is quadratic, the
    normal equations minimize it exactly, and the conventional
    covariance scales by SSE/(n-p-1).  The other fields
    serve the Newton iterations: ``outside_support(y)`` masks responses
    the likelihood cannot take (rejected with ``support_message``);
    ``loss_change(t, mu, delta, y)`` is ``loss(t + delta) - loss(t)``
    given the mean ``mu`` at ``t``; ``start(ybar)`` is the starting
    intercept; ``separation_bound``, if set, caps the largest absolute
    linear predictor ``max_i |x_i'beta|`` of the observations used.
    Every Newton family's variance must satisfy ``v(t+s) <= v(t) e^|s|`` in
    the linear predictor t, as logit and poisson do: short steps skip the
    line search.  No weight needs a floor: within the bernoulli bound every
    weight ``mu(1 - mu)`` is at least 9.3e-14, so none is zero.
    """

    tag: str
    inverse_link: Callable[[np.ndarray], np.ndarray]
    variance_fn: Callable[[np.ndarray], np.ndarray]
    deviance: Callable[[np.ndarray, np.ndarray], float]
    closed_form: bool = False
    outside_support: Callable[[np.ndarray], np.ndarray] | None = None
    support_message: str = ""
    loss_change: Callable[..., np.ndarray] | None = None
    start: Callable[[np.ndarray], np.ndarray] = np.zeros_like
    separation_bound: float | None = None

    def __repr__(self):
        return f"Family({self.tag!r})"


def _expit(t):
    # exp(-t) overflows to inf for t < -709, and 1 / inf is the limit 0.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-t))


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
    # large |delta| the direct difference is accurate and cannot overflow,
    # so it overwrites the first form there, which may overflow to inf.
    far = np.abs(delta) > 1.0
    with np.errstate(over="ignore"):
        change = np.log1p(mu * np.expm1(delta))
    if far.any():
        change[far] = _softplus(t[far] + delta[far]) - _softplus(t[far])
    return change - delta * y


def _sse(mu, y) -> float:
    """Sum of squared residuals: +inf, without a warning, past the float range."""
    with np.errstate(over="ignore"):
        return float((y - mu) @ (y - mu))


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
    deviance=_sse,
    closed_form=True,
)
BERNOULLI = Family(
    "bernoulli-logit",
    inverse_link=_expit,
    variance_fn=lambda mu: mu * (1.0 - mu),
    deviance=_logit_deviance,
    outside_support=lambda y: ~((y == 0.0) | (y == 1.0)),
    support_message="bernoulli-logit requires a response coded exactly 0/1",
    loss_change=_logit_loss_change,
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

# The working models by their CLI name (``--family``).
FAMILIES = {"ols": GAUSSIAN, "logit": BERNOULLI, "poisson": POISSON}


def family_by_name(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise FamilyError(
            f"unknown family {name!r}; expected one of {'|'.join(FAMILIES)}"
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
    iterations: int
    deviance_or_sse: float
    data: Dataset
    score_norm: float = field(default=0.0)

    @property
    def n(self) -> int:
        return self.data.n

    @functools.cached_property
    def information_inverse(self) -> np.ndarray:
        """The fit's inverse information ``(sum_i v(mu_i) x_i x_i')^-1``, formed on first read.

        For OLS it is (X'X)^-1, which :func:`fit_glm` keeps from the normal equations it solved.
        """
        information = gram(self.data.design, self.family.variance_fn(self.fitted)[None])
        return _one(spd_solve_stack(information, None, np.ones(1, dtype=bool), "information matrix"))

    @functools.cached_property
    def dispersion(self) -> float:
        """:func:`dispersion_stack` of this fit, formed on first read; SSE/(n-p-1) for OLS.

        The SSE is ``deviance_or_sse``, +inf past the float range.
        """
        sse = np.array([self.deviance_or_sse])
        return float(_one(dispersion_stack(sse, self.n, self.family, self.beta_hat.shape[0])))

    def to_json_dict(self) -> dict:
        return {
            "family": self.family.tag,
            "coefficients": {
                label: float(b)
                for label, b in zip(self.data.column_labels, self.beta_hat)
            },
            "converged": True,  # a failed fit raises
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


def gram(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per-row Gram matrices ``sum_i c[r, i] x_i x_i'`` (m, k, k) of ``x`` (n, k); row r's bits depend on ``c[r]`` alone."""
    return (x.T * c[:, None, :]) @ x


def fit_ols_counts(x: np.ndarray, counts: np.ndarray, sums: np.ndarray):
    """``(beta, inverse, errors)``: OLS fits of samples on the support ``x`` (m, k), each given by its cells.

    Row r holds support point j ``counts[r, j]`` times with responses
    summing to ``sums[r, j]``, in O(m k^2); a sample is the support of its
    own rows, each counted once.  Each row gets a single fit's rank check,
    n <= k warning and Cholesky solve: ``errors[r]`` is its typed error
    (then ``beta[r]`` is zero) or None, and ``inverse[r]``, the inverse
    Gram matrix, is the fit's inverse information.  Every product is per
    row, so row r's bits depend on its cells alone.
    """
    xtx, xty = gram(x, counts), (x.T @ sums[..., None])[..., 0]
    k, n = x.shape[1], counts.sum(axis=1)
    errors = _rank_errors(xtx)
    for r in np.flatnonzero(_ok(errors) & (n <= k)):
        warnings.warn(
            f"n={n[r]} observations for {k} coefficients: variance estimates will be unreliable",
            stacklevel=3,  # the caller of fit_glm or of coverage_experiment
        )
    beta, failed = spd_solve_stack(xtx, xty, _ok(errors), "normal-equation matrix")
    _record(errors, failed)
    beta[~_ok(errors)] = 0.0
    # Every row left without an error has just passed the same Cholesky test.
    inverse, _ = spd_solve_stack(xtx, None, _ok(errors), "information matrix")
    return beta, inverse, errors


def dispersion_stack(sse: np.ndarray, n: int, family: Family, k: int):
    """``(phi, errors)`` of fits of n observations with k coefficients and SSEs ``sse`` (m,): the one n - k rule.

    phi is SSE/(n-k) for OLS and 1 for a GLM.  OLS with n <= k gives
    each row a :class:`DegreesOfFreedomError`.
    """
    m = len(sse)
    if not family.closed_form:
        return np.ones(m), [None] * m
    if n <= k:
        message = f"the OLS dispersion SSE/(n-p-1) needs n > p+1 (n={n}, p+1={k})"
        return np.zeros(m), [DegreesOfFreedomError(message) for _ in range(m)]
    return sse / (n - k), [None] * m


def _one(stacked):
    """The one row of a stacked ``(values, errors)`` result; raises its error."""
    values, errors = stacked
    if errors[0] is not None:
        raise errors[0]
    return values[0]


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
    start: np.ndarray | None = None,
) -> WeightedFits:
    """Fit the working model once per row of the weight matrix ``w``.

    Row r minimizes ``sum_i w[r, i] * loss(x_i' beta, y_i) / sum_i w[r, i]``.
    All-ones weights give the sample fit; multinomial counts give the
    refit on a resample that repeats observation i ``w[r, i]`` times.
    Every row gets what a single fit gets: the rank check of its
    weighted second-moment matrix, then an exact solve (gaussian) or
    Newton iterations with step halving, the logit separation bound and
    the convergence test of :func:`fit_glm`.  The responses' support is
    the caller's to check (:func:`check_support`).  ``x`` (n, k), ``y``
    (n,), ``w`` (m, n) and ``start`` pass :func:`~leanreg.core.finite_array`;
    a negative weight, or a row without a positive sum, is a :class:`DomainError`.

    ``outer`` is :func:`outer_rows` of ``x``, for callers that reuse it.
    ``start`` is an (m, k) array of one start per row, such as the
    two-step starts of refits on resamples; row r's result depends only
    on its own start.  None starts row r from the usual value,
    ``family.start`` of its weighted mean response as the intercept and
    zero slopes.
    Every matrix product and elementwise pass takes all rows, so row r's
    result depends only on ``w[r]``, on r and on the number of rows
    (BLAS may round a row differently at another position or row
    count).  Rows that converge or fail are therefore masked, never
    dropped: they take zero steps until every row has stopped.
    """
    x = finite_array(x, "x", (None, None))
    n, k = x.shape
    y = finite_array(y, "y", (n,))
    w = finite_array(w, "weights", (None, n))
    m = w.shape[0]
    wsum = np.sum(w, axis=1)
    if np.any(w < 0) or np.any(wsum <= 0):
        raise DomainError("weights must be nonnegative with a positive sum in every row")
    if start is not None:
        start = finite_array(start, "start", (m, k))
    if outer is None:
        outer = outer_rows(x)
    # Here and in _newton, one product with the reused outer rows beats gram()'s
    # per-row form: 34 us against 211 us per 8 x 2000 chunk, k = 7, on 2 vCPUs.
    second_moments = (w @ outer).reshape(m, k, k)
    errors = _rank_errors(second_moments)
    if family.closed_form:
        beta, failed = spd_solve_stack(second_moments, (w * y) @ x, _ok(errors), "normal-equation matrix")
        _record(errors, failed)
        return WeightedFits(beta, tuple(errors), np.ones(m, dtype=int), np.zeros(m))

    active = _ok(errors)

    with np.errstate(over="ignore", invalid="ignore"):
        beta, iterations, score_norm = _newton(x, y, w, wsum, outer, family, active, errors, start)
    return WeightedFits(beta, tuple(errors), iterations, score_norm)


def _newton(x, y, w, wsum, outer, family, active, errors, start):
    """Newton/IRLS for every active row of ``w``; records failures in ``errors``.

    Every pass takes all m rows.  A row of each product and of each
    elementwise pass depends only on that row, so a stopped row
    reproduces its bits when it is evaluated again.  The mask ``active``
    picks the rows that change: a stopped row gets a zero step and keeps
    its iterate.

    Each iteration builds one Hessian and solves it once.  An active
    row has passed the separation check, so its weights are all
    positive (unused observations have t = 0): flooring zero weights
    could not change a Hessian that failed to solve.
    """
    m = w.shape[0]
    k = x.shape[1]
    xt = np.ascontiguousarray(x.T)
    # Unused observations get linear predictor 0: a single fit never
    # evaluates them, so they must not overflow or turn 0 * inf into NaN.
    used = (w > 0).astype(float)
    xmax = np.max(np.abs(x), axis=0)

    def linear_predictor(b):
        return (b @ xt) * used

    score_scale = np.maximum(1.0, np.sum(w * np.abs(y), axis=1) / wsum)
    if start is None:
        beta = np.zeros((m, k))
        beta[:, 0] = family.start(np.sum(w * y, axis=1) / wsum)
    else:
        beta = np.array(start)
    iterations = np.zeros(m, dtype=int)
    rel_change = np.full(m, np.inf)  # the start value has not converged

    for it in range(MAX_ITER + 1):
        t = linear_predictor(beta)
        mu = family.inverse_link(t)
        scores = (w * (mu - y)) @ x  # sum_i w_i (mu_i - y_i) x_i
        score_norm = np.max(np.abs(scores), axis=1) / wsum
        iterations[active] = it
        # A mean past the float range (poisson) is on a used observation with x_i != 0
        # (t = 0 elsewhere), so it leaves the score not finite: only such rows read mu.
        overflowed = active & ~np.isfinite(score_norm)
        if overflowed.any():
            overflowed &= ~np.all(np.isfinite(mu), axis=1)
        for r in np.flatnonzero(overflowed):
            errors[r] = ConvergenceError(
                f"IRLS reached a mean that is not finite at iteration {it}",
                last_beta=beta[r].copy(), score_norm=float(score_norm[r]), iterations=it,
            )
        active = active & ~overflowed
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
        active = active & _record(errors, failed)
        direction = np.where(active[:, None], -direction, 0.0)

        # A step d moves no used linear predictor by more than D = |d| @ xmax,
        # and as v(t+s) <= v(t) e^|s| (see Family) it changes the loss by at
        # most d'Hd ((e^D - 1 - D) / D^2 - 1).  At D <= 1 that is at most
        # (e - 3) d'Hd < 0, so the step is taken whole, without evaluating
        # the loss.  Other steps are halved row by row: a row keeps its last
        # candidate, and its step after h rejections is 2^-h.  A step is
        # accepted when it does not raise the objective.
        step = np.ones(m)
        whole = active & (np.abs(direction) @ xmax <= 1.0)
        candidate = beta.copy()
        candidate[whole] += direction[whole]
        pending = active & ~whole
        for halvings in range(MAX_HALVINGS + 1):
            if not pending.any():
                break
            step[pending] = 0.5**halvings  # a pending row was rejected on every pass so far
            move = step[:, None] * direction
            change = family.loss_change(t, mu, linear_predictor(move), y)
            change = np.sum(w * change, axis=1) / wsum
            candidate[pending] = beta[pending] + move[pending]
            pending = pending & ~(change <= 0.0)

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
    """Raise ``FamilyError`` unless ``family`` is a :class:`Family` whose support holds ``y``."""
    if not isinstance(family, Family):
        raise FamilyError(
            f"family must be a Family, such as family_by_name gives, not {family!r}"
        )
    if family.outside_support is not None and family.outside_support(y).any():
        raise FamilyError(family.support_message)


def fit_glm(ds: Dataset, family: Family) -> FitResult:
    """Fit the working model of ``family`` to the sample: the one single-sample fit.

    A closed-form family solves the normal equations (sum x x') beta =
    sum x y exactly, as the one-row :func:`fit_ols_counts` of the
    sample's rows, on the Gram matrix that gives the fit's
    ``information_inverse``; the residuals are orthogonal to every
    design column.  Other families
    are :func:`fit_weighted` with one all-ones weight row, minimizing the
    sample working-model cost by Newton/IRLS.  Convergence requires
    both a relative coefficient change below ``COEF_TOL`` and a
    mean-score norm ``max_j |sum_i (mu_i - y_i) x_ij| / n`` at or below
    ``SCORE_TOL * max(1, mean|y|)``.  A Newton step d with
    ``|d| @ max_i |x_i| <= 1`` provably lowers the objective and is taken
    whole, without evaluating it; any other step that fails to decrease
    the objective is halved up to ``MAX_HALVINGS`` times.

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
        no convergence within ``MAX_ITER`` iterations, or a mean past the
        float range; carries the last iterate and its score norm.
    """
    x, y = ds.design, ds.response
    check_support(y, family)
    if family.closed_form:
        beta, inverse, errors = fit_ols_counts(x, np.ones((1, ds.n), dtype=int), y[None])
        iterations, score_norm = 1, 0.0
    else:
        fits = fit_weighted(x, y, np.ones((1, ds.n)), family)
        beta, errors = fits.beta, fits.errors
        iterations, score_norm = int(fits.iterations[0]), float(fits.score_norm[0])
    if errors[0] is not None:
        raise errors[0]
    beta = beta[0]
    mu = family.inverse_link(x @ beta)
    fit = FitResult(
        family=family,
        beta_hat=beta,
        fitted=mu,
        residuals=y - mu,
        iterations=iterations,
        deviance_or_sse=family.deviance(mu, y),
        data=ds,
        score_norm=score_norm,
    )
    if family.closed_form:
        # Fill the cached property with the inverse of the fit's own Gram matrix.
        fit.__dict__["information_inverse"] = inverse[0]
    return fit


def predict_mean(fit: FitResult, x) -> float:
    """Mean-scale prediction ``inverse_link(beta' x)`` at one point.

    ``x`` is a (p+1)-vector with the leading 1 included, checked by
    :func:`~leanreg.core.finite_array`.  A mean that is not finite (a
    poisson mean past the float range) is a :class:`DomainError`.
    """
    x = finite_array(x, "point", fit.beta_hat.shape)
    return float(in_float_range("the predicted mean", lambda: fit.family.inverse_link(float(x @ fit.beta_hat))))


def exp_coef(fit: FitResult, j: int, delta: float = 1.0) -> float:
    """Multiplicative effect exp(beta_j * delta) of a ``delta`` increment.

    Only meaningful for the log link, where coefficients act as
    multipliers of the mean count.  A multiplier past the float range
    is a :class:`DomainError`.
    """
    if fit.family is not POISSON:
        raise FamilyError(
            f"exponentiated-coefficient multipliers require the poisson-log "
            f"family, not {fit.family.tag!r}"
        )
    check_index(j, 0, fit.beta_hat.shape[0] - 1, "coefficient")
    check_real(delta, "delta")
    return float(in_float_range(f"exp({fit.beta_hat[j]:.6g} * {delta!r})", lambda: np.exp(fit.beta_hat[j] * delta)))
