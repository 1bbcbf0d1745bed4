"""OLS and IRLS fitting, predictions, and coefficient multipliers."""

from dataclasses import replace

import numpy as np
import pytest

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
    fit_ols_stack,
    fit_weighted,
    predict_mean,
)
from leanreg.population import make_population, population_beta, sample
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
        assert fit.converged and fit.iterations == 1

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
            beta, errors = fit_ols_stack(ds.design[None], y[None])
            glm = fit_glm(ds, GAUSSIAN)
            assert errors == [None]
            assert np.array_equal(glm.beta_hat, beta[0])
            assert np.array_equal(glm.fitted, ds.design @ beta[0])
            assert np.array_equal(glm.residuals, y - ds.design @ beta[0])
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

    def test_malformed_weights_rejected(self):
        x = np.column_stack([np.ones(3), [0.0, 1.0, 2.0]])
        y = np.array([0.0, 1.0, 1.0])
        with pytest.raises(DomainError):
            fit_weighted(x, y, np.array([[1.0, -1.0, 1.0]]), BERNOULLI)
        with pytest.raises(DomainError):
            fit_weighted(x, y, np.zeros((1, 3)), BERNOULLI)
        with pytest.raises(DimensionError):
            fit_weighted(x, y, np.ones((1, 4)), BERNOULLI)

    @staticmethod
    def assert_rows_independent(x, y, w, family):
        # Row r of the stack has the bits of row r of a same-height stack
        # in which every row is w[r], whatever the other rows do.  (BLAS
        # may round a row differently at another position, so the row
        # is compared at its own.)
        fits = fit_weighted(x, y, w, family)
        for r in range(w.shape[0]):
            alone = fit_weighted(x, y, np.tile(w[r], (w.shape[0], 1)), family)
            assert np.array_equal(fits.beta[r], alone.beta[r])
            assert fits.iterations[r] == alone.iterations[r]
            assert np.array_equal(fits.score_norm[r], alone.score_norm[r])
            assert type(fits.errors[r]) is type(alone.errors[r])
            assert str(fits.errors[r]) == str(alone.errors[r])
        return fits

    def test_logit_rows_are_bit_independent(self, monkeypatch):
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
        w = np.zeros((7, 53))
        w[0, :30] = 1.0                         # converges in 6 iterations
        w[1, :30] = rng.integers(0, 3, 30)      # halves a step
        w[2, :12] = 1.0                         # halves a step, converges in 7
        w[3, 30:40] = 1.0                       # separates at iteration 7
        w[4, 40:52] = 1.0                       # would converge in 8
        w[5, :30] = w[5, 52] = 1.0              # outside the support, fitted all the same
        w[6, 0] = 2.0                           # rank deficient
        monkeypatch.setattr(fitting, "MAX_ITER", 7)
        fits = self.assert_rows_independent(x, y, w, BERNOULLI)
        assert [type(e).__name__ if e else None for e in fits.errors] == [
            None, None, None, "SeparationError", "ConvergenceError",
            None, "SingularSystemError",
        ]
        assert fits.iterations.tolist()[:5] == [6, 6, 7, 7, 7]

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
