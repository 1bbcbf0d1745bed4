"""OLS and IRLS fitting, predictions, and coefficient multipliers."""

import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from leanreg import fitting
from leanreg.core import Dataset
from leanreg.exceptions import (
    CoefficientIndexError,
    ConvergenceError,
    DimensionError,
    DomainError,
    FamilyError,
    SeparationError,
    SingularSystemError,
)
from leanreg.fitting import (
    BERNOULLI,
    GAUSSIAN,
    POISSON,
    exp_coef,
    family_by_name,
    fit_glm,
    fit_ols_counts,
    fit_weighted,
    predict_mean,
)
from leanreg.population import coverage_experiment, make_population, population_beta, sample
from leanreg.covariance import sandwich_cov, standard_errors


def data_from(x, y):
    return Dataset(y, np.reshape(x, (-1, 1)), names=("x",))


class TestFamilies:
    def test_lookup_aliases(self):
        assert family_by_name("ols") is GAUSSIAN
        assert family_by_name("logit") is BERNOULLI
        assert family_by_name("poisson") is POISSON
        with pytest.raises(FamilyError):
            family_by_name("gamma")

    @pytest.mark.parametrize("name", ["gaussian", "Poisson", "bernoulli-logit", "OLS"])
    def test_only_the_three_names(self, name):
        with pytest.raises(FamilyError) as exc_info:
            family_by_name(name)
        assert str(exc_info.value) == (
            f"unknown family {name!r}; expected one of ols|logit|poisson"
        )

    def test_repr_is_the_tag(self):
        assert repr(BERNOULLI) == "Family('bernoulli-logit')"

    @given(st.floats(-fitting.SEPARATION_BOUND, fitting.SEPARATION_BOUND))
    @example(-fitting.SEPARATION_BOUND)
    @example(fitting.SEPARATION_BOUND)
    @settings(deadline=None, derandomize=True)
    def test_logit_weight_positive_within_separation_bound(self, t):
        # Why the Newton system needs no weight floor: a row that passed
        # the separation check has a positive weight at every used point.
        assert BERNOULLI.variance_fn(BERNOULLI.inverse_link(np.array([t])))[0] > 0.0

    @given(st.lists(
        st.tuples(st.floats(-1.0, 1.0), st.floats(-fitting.SEPARATION_BOUND,
                                                  fitting.SEPARATION_BOUND),
                  st.sampled_from([0.0, 1.0])),
        min_size=1, max_size=20,
    ))
    @settings(deadline=None, derandomize=True)
    def test_logit_loss_change_of_small_steps_is_the_closed_form(self, rows):
        # With every |delta| <= 1 no entry takes the far branch: the
        # result is the closed form, bit for bit.
        delta, t, y = (np.array(c) for c in zip(*rows))
        mu = BERNOULLI.inverse_link(t)
        want = np.log1p(mu * np.expm1(delta)) - delta * y
        assert np.array_equal(BERNOULLI.loss_change(t, mu, delta, y), want)

    @given(st.lists(
        st.tuples(st.floats(-1e3, 1e3), st.floats(-fitting.SEPARATION_BOUND,
                                                  fitting.SEPARATION_BOUND),
                  st.sampled_from([0.0, 1.0])),
        min_size=1, max_size=20,
    ))
    @example([(1e3, 30.0, 1.0), (-1e3, -30.0, 0.0), (1.0, 0.0, 1.0), (-1.0, 2.0, 0.0)])
    @example([(np.nextafter(1.0, 2.0), 1.0, 0.0), (710.0, -5.0, 1.0)])
    @settings(deadline=None, derandomize=True)
    def test_logit_loss_change_of_any_step_is_the_clipped_form(self, rows):
        # The far branch overwrites every |delta| > 1 entry, so the
        # unclipped closed form, which may overflow to inf there, leaves
        # the bits of a form that clips delta to [-1, 1] first, warning-free.
        delta, t, y = (np.array(c) for c in zip(*rows))
        mu = BERNOULLI.inverse_link(t)
        far = np.abs(delta) > 1.0
        want = np.log1p(mu * np.expm1(np.clip(delta, -1.0, 1.0)))
        want[far] = fitting._softplus(t[far] + delta[far]) - fitting._softplus(t[far])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = BERNOULLI.loss_change(t, mu, delta, y)
        assert np.array_equal(got, want - delta * y)

    def test_logit_inverse_link_range(self):
        t = np.linspace(-30, 30, 101)
        mu = BERNOULLI.inverse_link(t)
        assert np.all((mu > 0) & (mu < 1))
        assert BERNOULLI.inverse_link(0.0) == 0.5

    def test_poisson_inverse_link(self):
        assert POISSON.inverse_link(0.0) == 1.0
        assert POISSON.inverse_link(np.log(7.0)) == pytest.approx(7.0)


class TestFitOls:
    def test_exact_linear_data(self):
        fit = fit_glm(data_from([0.0, 1.0, 2.0], [1.0, 2.0, 3.0]), GAUSSIAN)
        assert fit.beta_hat == pytest.approx([1.0, 1.0], abs=1e-12)
        assert np.max(np.abs(fit.residuals)) < 1e-12
        assert fit.to_json_dict()["converged"] is True and fit.iterations == 1

    def test_quadratic_three_points(self):
        # Hand-solved normal equations: slope = Cov/Var = (4/3)/(2/3) = 2,
        # intercept = mean(y) - 2 * mean(x) = 5/3 - 2 = -1/3.
        fit = fit_glm(data_from([0.0, 1.0, 2.0], [0.0, 1.0, 4.0]), GAUSSIAN)
        assert fit.beta_hat == pytest.approx([-1.0 / 3.0, 2.0], abs=1e-12)

    def test_intercept_only_is_mean(self):
        ds = Dataset([3.0, 5.0, 10.0], np.empty((3, 0)), names=())
        fit = fit_glm(ds, GAUSSIAN)
        assert fit.beta_hat == pytest.approx([6.0], abs=1e-12)

    def test_rank_deficient_raises_with_eigenvalue(self):
        x = np.array([[2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        ds = Dataset([1.0, 2.0, 3.0], x, names=("a", "b"))
        with pytest.raises(SingularSystemError) as exc_info:
            fit_glm(ds, GAUSSIAN)
        assert exc_info.value.min_eigenvalue is not None

    def test_small_n_warns(self):
        with pytest.warns(UserWarning, match="unreliable") as record:
            fit_glm(data_from([0.0, 1.0], [1.0, 2.0]), GAUSSIAN)
        assert [w.filename for w in record] == [__file__]  # the caller's line

    def test_fit_keeps_its_sample(self):
        ds = data_from([0.0, 1.0, 2.0], [1.0, 2.0, 4.0])
        for family in (GAUSSIAN, POISSON):
            assert fit_glm(ds, family).data is ds

    def test_residual_orthogonality_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(8, 120))
            p = int(rng.integers(0, 4))
            reg = rng.standard_normal((n, p))
            y = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
            ds = Dataset(y, reg, names=tuple(f"x{i}" for i in range(p)))
            fit = fit_glm(ds, GAUSSIAN)
            x = fit.data.design
            scale = max(1.0, float(np.max(np.abs(y))))
            assert np.max(np.abs(x.T @ fit.residuals)) / n <= 1e-10 * scale

    def test_affine_equivariance(self):
        rng = np.random.default_rng(23)
        reg = rng.standard_normal((50, 2))
        y = rng.standard_normal(50)
        ds = Dataset(y, reg, names=("a", "b"))
        fit = fit_glm(ds, GAUSSIAN)
        c = 7.5
        scaled = reg.copy()
        scaled[:, 1] *= c
        fit2 = fit_glm(Dataset(y, scaled, names=("a", "b")), GAUSSIAN)
        assert fit2.beta_hat[2] == pytest.approx(fit.beta_hat[2] / c, rel=1e-10)
        assert np.allclose(fit2.fitted, fit.fitted, rtol=1e-10, atol=1e-12)


class TestOneGramPerFit:
    """An OLS sample fit is the one-row support fit of its own rows, each counted once."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [600, 2000, 20000])
    def test_sample_fit_is_its_own_support_fit(self, n, seed):
        # Non-integer columns of unequal scale, whose Gram entries round.
        rng = np.random.default_rng(seed)
        reg = rng.standard_normal((n, 3)) * [1.0, 10.0, 0.1] + [0.5, -3.0, 0.0]
        ds = Dataset(rng.standard_normal(n) + reg[:, 0] ** 2, reg, names=("a", "b", "c"))
        beta, inverse, errors = fit_ols_counts(ds.design, np.ones((1, n), dtype=int), ds.response[None])
        fit = fit_glm(ds, GAUSSIAN)
        assert errors == [None]
        assert np.array_equal(fit.beta_hat, beta[0])  # bit for bit
        assert np.array_equal(fit.information_inverse, inverse[0])

    def test_information_inverse_reads_the_fits_own_gram(self, monkeypatch):
        # One Gram matrix per OLS fit, its inverse read included.
        calls, gram = [], fitting.gram
        monkeypatch.setattr(fitting, "gram", lambda x, c: calls.append(c.shape) or gram(x, c))
        rng = np.random.default_rng(0)
        reg = rng.standard_normal((200, 2))
        fit = fit_glm(Dataset(reg[:, 0] + rng.standard_normal(200), reg, names=("a", "b")), GAUSSIAN)
        xtx = fit.data.design.T @ fit.data.design
        assert np.allclose(fit.information_inverse @ xtx, np.eye(3), atol=1e-12)
        assert calls == [(1, 200)]

    def test_small_n_warning_points_at_each_caller(self):
        with pytest.warns(UserWarning) as record:
            fit_glm(data_from([0.0, 1.0], [1.0, 2.0]), GAUSSIAN)
            pop = make_population([[-1.0], [1.0]], [0.5, 0.5], [0.0, 1.0], {"kind": "gaussian"})
            coverage_experiment(pop, 2, 1, ["sandwich"], seed=5)  # draws both points
        message = "n=2 observations for 2 coefficients: variance estimates will be unreliable"
        assert [(str(w.message), w.filename) for w in record] == [(message, __file__)] * 2


class TestFitGlm:
    def test_bernoulli_symmetry_gives_zero(self):
        ds = Dataset([0.0, 1.0, 0.0, 1.0], [[-1.0], [-1.0], [1.0], [1.0]], names=("x",))
        fit = fit_glm(ds, BERNOULLI)
        assert fit.beta_hat == pytest.approx([0.0, 0.0], abs=1e-12)
        assert np.all(fit.fitted == 0.5)

    def test_poisson_intercept_only_log_mean(self):
        # Score equation sum(exp(b0) - y_i) = 0  =>  b0 = log(mean(y)).
        ds = Dataset([1.0, 2.0, 3.0], np.empty((3, 0)), names=())
        fit = fit_glm(ds, POISSON)
        assert fit.beta_hat[0] == pytest.approx(np.log(2.0), abs=1e-10)

    def test_separation_detected(self):
        ds = Dataset(
            [0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
            [[-3.0], [-2.0], [-1.0], [1.0], [2.0], [3.0]],
            names=("x",),
        )
        with pytest.raises(SeparationError) as exc_info:
            fit_glm(ds, BERNOULLI)
        assert exc_info.value.last_beta is not None

    def test_bernoulli_support_validation(self):
        ds = Dataset([0.0, 2.0], [[0.0], [1.0]], names=("x",))
        with pytest.raises(FamilyError, match="0/1"):
            fit_glm(ds, BERNOULLI)

    def test_poisson_support_validation(self):
        ds = Dataset([1.5, 2.0], [[0.0], [1.0]], names=("x",))
        with pytest.raises(FamilyError, match="integer"):
            fit_glm(ds, POISSON)

    @pytest.mark.parametrize("family, y", [(BERNOULLI, 2.0), (POISSON, -1.0)])
    def test_support_checked_before_any_fit(self, monkeypatch, family, y):
        # The regressor is constant, so a fit would fail on the rank check.
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted a response outside the support")

        monkeypatch.setattr(fitting, "fit_weighted", no_fit)
        ds = Dataset([0.0, 1.0, y], [[1.0], [1.0], [1.0]], names=("x",))
        with pytest.raises(FamilyError, match=family.support_message):
            fit_glm(ds, family)

    def test_non_convergence_carries_iterate(self, monkeypatch):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(200)
        y = (rng.random(200) < BERNOULLI.inverse_link(0.5 + x)).astype(float)
        ds = Dataset(y, x.reshape(-1, 1), names=("x",))
        monkeypatch.setattr(fitting, "MAX_ITER", 1)
        with pytest.raises(ConvergenceError) as exc_info:
            fit_glm(ds, BERNOULLI)
        assert exc_info.value.last_beta is not None
        assert exc_info.value.score_norm is not None

    def test_gaussian_family_matches_ols(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            reg = rng.standard_normal((60, 3))
            y = rng.standard_normal(60) + reg @ np.array([1.0, -2.0, 0.5])
            ds = Dataset(y, reg, names=("a", "b", "c"))
            beta = np.linalg.lstsq(ds.design, y, rcond=None)[0]
            glm = fit_glm(ds, GAUSSIAN)
            assert np.max(np.abs(glm.beta_hat - beta)) <= 1e-13 * np.max(np.abs(beta))
            assert np.array_equal(glm.fitted, ds.design @ glm.beta_hat)
            assert np.array_equal(glm.residuals, y - ds.design @ glm.beta_hat)
            # The SSE in the fit JSON is the residuals' dot product.
            sse = float(glm.residuals @ glm.residuals)
            assert glm.deviance_or_sse == sse

    def test_singular_newton_system_reports_eigenvalue(self):
        # The poisson fit drives mu at x = 0 and x = 1 to exactly zero, so
        # the Newton system loses rank although the design has full rank.
        ds = data_from([0.0, 1.0, 2.0], [0.0, 0.0, 5.0])
        with pytest.raises(SingularSystemError, match=(
            "^Newton system is not positive definite: smallest equilibrated eigenvalue"
        )) as exc_info:
            fit_glm(ds, POISSON)
        assert exc_info.value.min_eigenvalue is not None

    def test_score_norm_small_at_convergence(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal(300)
        y = np.asarray(rng.poisson(np.exp(0.3 + 0.4 * x)), dtype=float)
        ds = Dataset(y, x.reshape(-1, 1), names=("x",))
        fit = fit_glm(ds, POISSON)
        xm = fit.data.design
        scale = max(1.0, float(np.mean(np.abs(y))))
        assert np.max(np.abs(xm.T @ (fit.fitted - y))) / ds.n <= 1e-7 * scale


class TestFitWeighted:
    def test_rows_fail_independently_with_typed_errors(self):
        # Row 0 leaves out the non-integer response; row 1 uses only
        # x = 0 points, so its regressor is constant; row 2 uses the
        # non-integer response, which is fitted like any other (the
        # callers check the support before any fit).
        x = np.column_stack([np.ones(5), [0.0, 0.0, 1.0, 2.0, 3.0]])
        y = np.array([1.0, 2.0, 2.0, 3.0, 0.5])
        w = np.array([[1.0, 1.0, 1.0, 1.0, 0.0], [2.0, 1.0, 0.0, 0.0, 0.0], [1.0] * 5])
        fits = fit_weighted(x, y, w, POISSON)
        assert fits.errors[0] is None
        assert isinstance(fits.errors[1], SingularSystemError)
        assert fits.errors[2] is None
        single = fit_glm(data_from(x[:4, 1], y[:4]), POISSON)
        assert np.allclose(fits.beta[0], single.beta_hat, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("family", [GAUSSIAN, POISSON], ids=["closed-form", "newton"])
    def test_a_gram_past_the_float_range_fails_its_row_alone(self, family):
        # Weights of 1e300 square the slope of 5e10 past the float range in row 0's Gram
        # matrix; row 1 keeps the bits of row 1 of an all-ones stack, and nothing warns.
        x = np.column_stack([np.ones(6), np.arange(6) * 1e10])
        y = np.array([1.0, 0.0, 2.0, 3.0, 1.0, 4.0])
        fits = fit_weighted(x, y, np.array([[1e300] * 6, [1.0] * 6]), family)
        plain = fit_weighted(x, y, np.ones((2, 6)), family)
        assert type(fits.errors[0]) is DomainError
        assert str(fits.errors[0]) == "a weighted second-moment matrix passes the float range"
        assert repr(fits.errors[1]) == repr(plain.errors[1])
        assert np.array_equal(fits.beta[1], plain.beta[1])
        assert (fits.iterations[1], fits.score_norm[1]) == (plain.iterations[1], plain.score_norm[1])

    def test_malformed_weights_rejected(self):
        x = np.column_stack([np.ones(3), [0.0, 1.0, 2.0]])
        y = np.array([0.0, 1.0, 1.0])
        with pytest.raises(DomainError):
            fit_weighted(x, y, np.array([[1.0, -1.0, 1.0]]), BERNOULLI)
        with pytest.raises(DomainError):
            fit_weighted(x, y, np.zeros((1, 3)), BERNOULLI)
        with pytest.raises(DimensionError):
            fit_weighted(x, y, np.ones((1, 4)), BERNOULLI)

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("family", [GAUSSIAN, POISSON], ids=["closed-form", "newton"])
    def test_non_finite_weights_rejected(self, family, weight):
        # Before the check, NaN gave a SingularSystemError and inf leaked a RuntimeWarning.
        x = np.column_stack([np.ones(3), [0.0, 1.0, 2.0]])
        y = np.array([0.0, 1.0, 1.0])
        w = np.array([[1.0, 1.0, 1.0], [1.0, weight, 1.0]])
        with pytest.raises(DomainError, match=r"^weights must be finite \(no NaN or inf\)$"):
            fit_weighted(x, y, w, family)

    def test_malformed_start_rejected(self):
        x = np.column_stack([np.ones(3), [0.0, 1.0, 2.0]])
        y = np.array([0.0, 1.0, 1.0])
        with pytest.raises(DimensionError, match=r"start has shape \(3,\), expected \(1, 2\)"):
            fit_weighted(x, y, np.ones((1, 3)), BERNOULLI, start=np.zeros(3))
        with pytest.raises(DomainError):
            fit_weighted(x, y, np.ones((1, 3)), BERNOULLI, start=[[0.0, np.nan]])

    @pytest.mark.parametrize("family", [BERNOULLI, POISSON], ids=["logit", "poisson"])
    def test_every_row_starts_from_start(self, family):
        # Started at the sample fit, every row of all-ones weights stops
        # after one Newton step; started cold, after several.
        rng = np.random.default_rng(2)
        u = rng.standard_normal(300)
        mean = family.inverse_link(0.3 + 0.7 * u)
        y = (rng.random(300) < mean) if family is BERNOULLI else rng.poisson(mean)
        fit = fit_glm(data_from(u, y.astype(float)), family)
        x, w = fit.data.design, np.ones((3, 300))
        warm = fit_weighted(x, fit.data.response, w, family, start=np.tile(fit.beta_hat, (3, 1)))
        cold = fit_weighted(x, fit.data.response, w, family)
        assert warm.errors == cold.errors == (None,) * 3
        assert warm.iterations.tolist() == [1] * 3
        assert np.all(cold.iterations == fit.iterations) and fit.iterations > 1
        assert np.allclose(warm.beta, fit.beta_hat, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("family", [BERNOULLI, POISSON], ids=["logit", "poisson"])
    def test_steps_below_the_tolerance_evaluate_no_loss(self, family):
        # Started at the sample fit, every row's one Newton step is below
        # COEF_TOL, so |d| @ max_i |x_i| is far below 1: it is taken whole,
        # with no loss change evaluated.  Started cold, the larger steps
        # are evaluated.
        evaluations = []

        def loss_change(*args):
            evaluations.append(None)
            return family.loss_change(*args)

        counting = replace(family, loss_change=loss_change)
        rng = np.random.default_rng(2)
        u = rng.standard_normal(300)
        mean = family.inverse_link(0.3 + 0.7 * u)
        y = (rng.random(300) < mean) if family is BERNOULLI else rng.poisson(mean)
        fit = fit_glm(data_from(u, y.astype(float)), family)
        x, y, w = fit.data.design, fit.data.response, np.ones((3, 300))
        start = np.tile(fit.beta_hat, (3, 1))
        warm = fit_weighted(x, y, w, counting, start=start)
        assert warm.errors == (None,) * 3 and warm.iterations.tolist() == [1] * 3
        assert evaluations == []
        assert np.array_equal(warm.beta, fit_weighted(x, y, w, family, start=start).beta)
        cold = fit_weighted(x, y, w, counting)
        assert cold.errors == (None,) * 3
        assert 0 < len(evaluations) < fit.iterations

    @pytest.mark.parametrize("start", [1e5, 300.0])
    def test_a_start_whose_mean_overflows_fails_at_once(self, start):
        # exp(x_i'start) passes the float range: no score is finite, so the
        # row fails at iteration 0 instead of taking 50 passes on NaN.
        x = np.column_stack([np.ones(4), np.arange(4.0)])
        fits = fit_weighted(x, np.arange(4.0), np.ones((1, 4)), POISSON, start=np.full((1, 2), start))
        error = fits.errors[0]
        assert type(error) is ConvergenceError
        assert str(error) == "IRLS reached a mean that is not finite at iteration 0"
        assert fits.iterations.tolist() == [0] and error.iterations == 0
        assert error.last_beta.tolist() == [start, start] and not np.isfinite(error.score_norm)

    def test_an_overflowing_row_fails_at_once_beside_converging_rows(self):
        # The means are read only for a row whose score is not finite: here
        # row 1's, whose exp(x_i'start) passes the float range.
        rng = np.random.default_rng(8)
        u = np.linspace(0.0, 3.0, 40)
        x = np.column_stack([np.ones(40), u])
        y = rng.poisson(np.exp(0.2 + 0.5 * u)).astype(float)
        w = np.vstack([np.ones(40), rng.integers(0, 3, 40), rng.integers(0, 2, 40)]).astype(float)
        start = np.tile([0.2, 0.5], (3, 1))
        start[1] = [400.0, 400.0]
        fits = self.assert_rows_independent(x, y, w, POISSON, start)
        assert [type(e).__name__ if e else None for e in fits.errors] == [None, "ConvergenceError", None]
        assert str(fits.errors[1]) == "IRLS reached a mean that is not finite at iteration 0"
        assert fits.iterations[1] == 0 and fits.errors[1].iterations == 0
        assert np.all(fits.iterations[[0, 2]] > 0)

    @pytest.mark.parametrize("ratio, converges", [(1.5, False), (0.5, True)])
    def test_an_exhausted_line_search_tests_the_step_it_took(self, ratio, converges):
        # A loss change that rejects every step exhausts each line search,
        # so every Newton step moves the iterate by 2^-MAX_HALVINGS of its
        # direction.  An intercept-only poisson fit of mean 0.01 is started
        # where that move is ``ratio`` * COEF_TOL relative: at 1.5 the row
        # has not converged (half the move would read 0.75 and stop it),
        # and each later step is as small, so it fails; at 0.5 it stops at
        # once.  Its Hessian is 0.01, so the score test passes either way.
        # The step moves the linear predictor by about 7e-6, which a step
        # takes whole when |d| @ max_i |x_i| <= 1; an unused 101st
        # observation at x = 2^20 raises that bound past 1 without changing
        # a bit of the fit, so the line search still runs.
        rejecting = replace(POISSON, loss_change=lambda t, mu, delta, y: np.ones_like(t))
        y = np.zeros(101)
        y[0] = 1.0
        x = np.ones((101, 1))
        x[100] = 2.0**20
        w = np.ones((1, 101))
        w[0, 100] = 0.0
        beta_hat = np.log(0.01)
        start = beta_hat + ratio * fitting.COEF_TOL * 2**fitting.MAX_HALVINGS * abs(beta_hat)
        fits = fit_weighted(x, y, w, rejecting, start=[[start]])
        if converges:
            assert fits.errors == (None,) and fits.iterations.tolist() == [1]
            direction = np.expm1(beta_hat - start)  # the Newton step at start
            assert fits.beta[0, 0] == pytest.approx(start + direction / 2**fitting.MAX_HALVINGS, abs=1e-15)
        else:
            assert isinstance(fits.errors[0], ConvergenceError)

    @given(
        family=st.sampled_from([f for f in fitting.FAMILIES.values() if not f.closed_form]),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 3),
        offset=st.floats(0.0, 2.5),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_a_step_the_curvature_bound_takes_whole_lowers_the_loss(self, family, seed, k, offset):
        # A Newton step d from beta with D = max_i |x_i'd| over the used
        # observations changes the loss by at most d'Hd ((e^D-1-D)/D^2 - 1)
        # when v(t+s) <= v(t) e^|s|: at most (e - 3) d'Hd wherever
        # |d| @ max_i |x_i| <= 1, since that is at least D.  A family
        # without the curvature property fails the inequality, and the
        # first pass of the fit evaluates the loss exactly when the bound
        # passes 1.  The start lies about ``offset`` from the optimum on
        # the linear-predictor scale.
        rng = np.random.default_rng(seed)
        x = np.column_stack([np.ones(20), rng.standard_normal((20, k - 1))])
        mean = family.inverse_link(x @ rng.normal(0.0, 0.5, k))
        y = ((rng.random(20) < mean) if family is BERNOULLI else rng.poisson(mean)).astype(float)
        w = rng.integers(0, 4, 20).astype(float)
        fit = fit_weighted(x, y, w[None], family)
        assume(fit.errors == (None,))
        beta = fit.beta[0] + offset * rng.standard_normal(k) / np.sqrt(k)
        used = (w > 0).astype(float)
        t = (x @ beta) * used
        mu = family.inverse_link(t)
        hessian = (w * family.variance_fn(mu) * x.T) @ x
        direction = -np.linalg.solve(hessian, (w * (mu - y)) @ x)
        bound = np.abs(direction) @ np.max(np.abs(x), axis=0)
        assume(abs(bound - 1.0) > 1e-9)
        evaluations = []

        def loss_change(*args):
            evaluations.append(None)
            return family.loss_change(*args)

        with mock.patch.object(fitting, "MAX_ITER", 1):
            fit_weighted(x, y, w[None], replace(family, loss_change=loss_change), start=beta[None])
        assert (evaluations == []) == (bound <= 1.0)
        if bound <= 1.0:
            delta = (x @ direction) * used
            change = np.sum(w * family.loss_change(t, mu, delta, y))
            # Each term is formed from parts of at most |delta_i| (e mu_i + y_i + 1).
            allowance = 1e-12 * np.sum(w * np.abs(delta) * (np.e * mu + y + 1.0))
            assert change <= (np.e - 3.0) * (direction @ hessian @ direction) + allowance

    @given(
        family=st.sampled_from([BERNOULLI, POISSON]),
        r=st.integers(0, 3),
        shifts=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
    )
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_a_row_does_not_depend_on_the_other_rows_starts(self, family, r, shifts):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(60)
        mean = family.inverse_link(0.3 + 0.7 * u)
        y = ((rng.random(60) < mean) if family is BERNOULLI else rng.poisson(mean)).astype(float)
        x = np.column_stack([np.ones(60), u])
        w = rng.integers(0, 3, (4, 60)).astype(float)
        start = np.tile([0.3, 0.7], (4, 1))
        moved = start.copy()
        moved[np.arange(4) != r] += np.reshape(shifts, (3, 2))
        fits, other = fit_weighted(x, y, w, family, start=start), fit_weighted(x, y, w, family, start=moved)
        assert np.array_equal(fits.beta[r], other.beta[r])
        assert fits.iterations[r] == other.iterations[r]
        assert np.array_equal(fits.score_norm[r], other.score_norm[r])
        assert type(fits.errors[r]) is type(other.errors[r])

    @staticmethod
    def assert_rows_independent(x, y, w, family, start=None):
        # Row r of the stack has the bits of row r of a same-height stack
        # in which every row is w[r] (and starts at start[r]), whatever the
        # other rows do.  (BLAS may round a row differently at another
        # position, so the row is compared at its own.)
        fits = fit_weighted(x, y, w, family, start=start)
        for r in range(w.shape[0]):
            tiled = None if start is None else np.tile(start[r], (w.shape[0], 1))
            alone = fit_weighted(x, y, np.tile(w[r], (w.shape[0], 1)), family, start=tiled)
            assert np.array_equal(fits.beta[r], alone.beta[r])
            assert fits.iterations[r] == alone.iterations[r]
            assert np.array_equal(fits.score_norm[r], alone.score_norm[r])
            assert type(fits.errors[r]) is type(alone.errors[r])
            assert str(fits.errors[r]) == str(alone.errors[r])
        return fits

    @staticmethod
    def logit_stack():
        """``(x, y, w, start)`` of a logit stack whose rows converge, separate, hit
        ``MAX_ITER = 7``, lie outside the support, are rank deficient or halve steps."""
        # Observations: a logistic sample (30), a separable sample (10),
        # a nearly separated sample (12) and one response outside {0, 1}.
        rng = np.random.default_rng(5)
        u = rng.standard_normal(30)
        y_u = rng.random(30) < BERNOULLI.inverse_link(0.5 + 2.0 * u)
        s = np.linspace(-2.0, 2.0, 10)
        v = np.linspace(-2.0, 2.0, 12)
        y_v = (v > 0) ^ np.isin(np.arange(12), [5, 6])
        x = np.column_stack([np.ones(53), np.concatenate([u, s, v, [0.3]])])
        y = np.concatenate([y_u, s > 0, y_v, [0.5]]).astype(float)
        w = np.zeros((8, 53))
        w[0, :30] = 1.0                         # converges in 6 iterations
        w[1, :30] = rng.integers(0, 3, 30)      # converges in 6
        w[2, :12] = 1.0                         # converges in 7
        w[3, 30:40] = 1.0                       # separates at iteration 7
        w[4, 40:52] = 1.0                       # would converge in 8
        w[5, :30] = w[5, 52] = 1.0              # outside the support, fitted all the same
        w[6, 0] = 2.0                           # rank deficient
        w[7, :30] = 1.0                         # starts far off, halves steps
        # From the cold start beta = 0 the curvature is the largest it gets,
        # so no step from there overshoots: a row halves only from a far start.
        start = np.zeros((8, 2))
        start[7] = [0.0, 5.0]
        return x, y, w, start

    def test_logit_rows_are_bit_independent(self, monkeypatch):
        x, y, w, start = self.logit_stack()
        monkeypatch.setattr(fitting, "MAX_ITER", 7)
        fits = self.assert_rows_independent(x, y, w, BERNOULLI, start)
        assert [type(e).__name__ if e else None for e in fits.errors] == [
            None, None, None, "SeparationError", "ConvergenceError",
            None, "SingularSystemError", None,
        ]
        assert fits.iterations.tolist()[:5] == [6, 6, 7, 7, 7]
        rejected = []

        def loss_change(t, mu, delta, y):
            change = BERNOULLI.loss_change(t, mu, delta, y)
            rejected.append(np.sum(w * change, axis=1) / np.sum(w, axis=1) > 0.0)
            return change

        fit_weighted(x, y, w, replace(BERNOULLI, loss_change=loss_change), start=start)
        assert np.sum(rejected, axis=0).tolist() == [0] * 7 + [2]

    @pytest.mark.parametrize("case", ["logit", "poisson-overflow"])
    def test_a_stopped_row_records_its_iterate_score_norm_and_iterations(self, monkeypatch, case):
        # Each separated, capped or overflowing row's error carries the
        # row's own result, bit for bit, and its exact message.
        if case == "logit":
            x, y, w, start = self.logit_stack()
            monkeypatch.setattr(fitting, "MAX_ITER", 7)
            fits = fit_weighted(x, y, w, BERNOULLI, start=start)
            stopped = {
                3: (SeparationError, 7, "quasi-separation detected: a linear predictor |x_i'beta| "
                                        "exceeded 30.0 on the logit scale"),
                4: (ConvergenceError, 7, "IRLS did not converge in 7 iterations "
                                         f"(score norm {fits.score_norm[4]:.3e})"),
            }
            assert type(fits.errors[6]) is SingularSystemError
            assert str(fits.errors[6]).startswith("design matrix is rank deficient: smallest ")
        else:
            rng = np.random.default_rng(8)
            u = np.linspace(0.0, 3.0, 40)
            x = np.column_stack([np.ones(40), u])
            y = rng.poisson(np.exp(0.2 + 0.5 * u)).astype(float)
            start = np.tile([0.2, 0.5], (3, 1))
            start[1] = [400.0, 400.0]
            fits = fit_weighted(x, y, np.ones((3, 40)), POISSON, start=start)
            stopped = {1: (ConvergenceError, 0, "IRLS reached a mean that is not finite at iteration 0")}
        for r, (error, iterations, message) in stopped.items():
            e = fits.errors[r]
            assert type(e) is error and str(e) == message
            assert e.last_beta.tobytes() == fits.beta[r].tobytes()
            assert np.float64(e.score_norm).tobytes() == fits.score_norm[r].tobytes()
            assert type(e.iterations) is int and e.iterations == fits.iterations[r] == iterations

    def test_poisson_rows_are_bit_independent(self, monkeypatch):
        # Observations: a poisson sample (30), counts exp(8 h) far from
        # the start value (6), zero counts at x = 0 and 1 beside counts at
        # x = 2 (4), and one non-integer count.
        rng = np.random.default_rng(5)
        u = rng.standard_normal(30)
        h = np.linspace(0.0, 5.0, 6)
        x = np.column_stack([np.ones(41), np.concatenate([u, h, [0.0, 1.0, 2.0, 2.0, 0.5]])])
        y = np.concatenate([rng.poisson(np.exp(0.5 + 0.8 * u)), np.floor(np.exp(8.0 * h)),
                            [0.0, 0.0, 5.0, 1.0, 1.5]])
        w = np.zeros((8, 41))
        w[0, :30] = 1.0                         # converges quickly
        w[1, :30] = rng.integers(0, 3, 30)
        w[2, 30:36] = 1.0                       # converges slowly
        w[3, :36] = 1.0                         # halves a step
        w[4, 36:39] = 1.0                       # singular Newton system
        w[5, 36:38], w[5, 39] = 10.0, 1.0       # would diverge slowly
        w[6, :30] = w[6, 40] = 1.0              # outside the support, fitted all the same
        w[7, 0] = 3.0                           # rank deficient
        monkeypatch.setattr(fitting, "MAX_ITER", 40)
        fits = self.assert_rows_independent(x, y, w, POISSON)
        assert [type(e).__name__ if e else None for e in fits.errors] == [
            None, None, None, None, "SingularSystemError", "ConvergenceError",
            None, "SingularSystemError",
        ]
        assert len(set(fits.iterations[:4].tolist())) >= 3


class TestConsistency:
    def test_beta_hat_approaches_population_beta(self):
        # Misspecified mean: quadratic truth fitted with a line.
        pop = make_population(
            [[-2.0], [-1.0], [0.0], [1.0], [2.0]],
            [0.2, 0.2, 0.2, 0.2, 0.2],
            {"kind": "polynomial", "coefficients": [0.5, 1.0, 0.8]},
            {"kind": "gaussian", "sigma": 0.7},
        )
        beta_p = population_beta(pop)
        gaps = []
        for n in (100, 1000, 10000):
            ds = sample(pop, n, seed=404)
            fit = fit_glm(ds, GAUSSIAN)
            gaps.append(float(np.linalg.norm(fit.beta_hat - beta_p)))
        assert gaps[0] > gaps[1] > gaps[2]
        ds = sample(pop, 10000, seed=404)
        fit = fit_glm(ds, GAUSSIAN)
        se = standard_errors(sandwich_cov(fit))
        assert np.all(np.abs(fit.beta_hat - beta_p) <= 5.0 * se)


class TestPredictMean:
    def test_ols_linear_combination(self):
        fit = fit_glm(data_from([0.0, 1.0, 2.0], [1.0, 2.0, 3.0]), GAUSSIAN)
        assert predict_mean(fit, [1.0, 2.0]) == pytest.approx(3.0, abs=1e-12)

    def test_bernoulli_at_zero(self):
        ds = Dataset([0.0, 1.0, 0.0, 1.0], [[-1.0], [-1.0], [1.0], [1.0]], names=("x",))
        fit = fit_glm(ds, BERNOULLI)
        assert predict_mean(fit, [1.0, 5.0]) == pytest.approx(0.5, abs=1e-12)

    def test_poisson_intercept_only(self):
        ds = Dataset([1.0, 2.0, 3.0], np.empty((3, 0)), names=())
        fit = fit_glm(ds, POISSON)
        assert predict_mean(fit, [1.0]) == pytest.approx(2.0, abs=1e-8)

    def test_dimension_mismatch(self):
        fit = fit_glm(data_from([0.0, 1.0, 2.0], [1.0, 2.0, 3.0]), GAUSSIAN)
        with pytest.raises(DimensionError):
            predict_mean(fit, [1.0, 2.0, 3.0])

    def test_poisson_mean_overflow_is_a_domain_error(self):
        fit = fit_glm(data_from([0.0, 1.0, 2.0, 3.0], [2.0, 3.0, 4.0, 6.0]), POISSON)
        with pytest.raises(DomainError, match="^the predicted mean passes the float range$"):
            predict_mean(fit, [1.0, 1e6])

    def test_logit_mean_saturates_silently(self):
        fit = fit_glm(data_from([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 0.0, 1.0, 0.0, 1.0, 1.0]),
                      BERNOULLI)
        x = 1e6 / fit.beta_hat[1]
        assert predict_mean(fit, [1.0, -x]) == 0.0
        assert predict_mean(fit, [1.0, x]) == 1.0


class TestExpCoef:
    @pytest.fixture()
    def poisson_fit(self):
        ds = Dataset([2.0, 3.0, 4.0, 6.0], [[0.0], [1.0], [2.0], [3.0]], names=("x",))
        return fit_glm(ds, POISSON)

    def test_published_multipliers(self, poisson_fit):
        # Published coefficients from a seven-column report; each stated
        # multiplier agrees with exp(coef * delta) to 2 decimal places.
        fit = poisson_fit
        cases = [(-0.0147, 10.0, 0.86), (0.0823, 1.0, 1.08), (-0.0138, 20.0, 0.76)]
        for coef, delta, published in cases:
            beta = fit.beta_hat.copy()
            beta[1] = coef
            patched = replace(fit, beta_hat=beta)
            assert abs(exp_coef(patched, 1, delta) - published) < 0.01

    def test_identity_at_zero_delta(self, poisson_fit):
        assert exp_coef(poisson_fit, 1, 0.0) == 1.0

    def test_family_guard(self):
        fit = fit_glm(data_from([0.0, 1.0, 2.0], [1.0, 2.0, 3.0]), GAUSSIAN)
        with pytest.raises(FamilyError):
            exp_coef(fit, 1, 1.0)

    def test_index_guard(self, poisson_fit):
        with pytest.raises(CoefficientIndexError):
            exp_coef(poisson_fit, 5, 1.0)

    def test_overflow_is_a_domain_error(self, poisson_fit):
        with pytest.raises(DomainError, match=r"^exp\(0\.35918 \* 1000000\.0\) passes the float range$"):
            exp_coef(poisson_fit, 1, 1e6)
