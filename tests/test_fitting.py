"""OLS and IRLS fitting, predictions, and coefficient multipliers."""

import numpy as np
import pytest

from leanreg.core import Dataset, DesignMatrix, build_design
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
    FitOptions,
    exp_coef,
    family_by_name,
    fit_dataset,
    fit_glm,
    fit_ols,
    fit_weighted,
    predict_mean,
)
from leanreg.population import make_population, population_beta, sample
from leanreg.covariance import sandwich_cov


def design_from(x):
    x = np.asarray(x, dtype=float)
    ds = Dataset(np.zeros(x.shape[0]), x.reshape(-1, 1), names=("x",))
    return build_design(ds)


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
        dm = design_from([0.0, 1.0, 2.0])
        fit = fit_ols(dm, np.array([1.0, 2.0, 3.0]))
        assert fit.beta_hat == pytest.approx([1.0, 1.0], abs=1e-12)
        assert np.max(np.abs(fit.residuals)) < 1e-12
        assert fit.converged and fit.iterations == 1

    def test_quadratic_three_points(self):
        # Hand-solved normal equations: slope = Cov/Var = (4/3)/(2/3) = 2,
        # intercept = mean(y) - 2 * mean(x) = 5/3 - 2 = -1/3.
        dm = design_from([0.0, 1.0, 2.0])
        fit = fit_ols(dm, np.array([0.0, 1.0, 4.0]))
        assert fit.beta_hat == pytest.approx([-1.0 / 3.0, 2.0], abs=1e-12)

    def test_intercept_only_is_mean(self):
        ds = Dataset([3.0, 5.0, 10.0], np.empty((3, 0)), names=())
        fit = fit_ols(build_design(ds), ds.response)
        assert fit.beta_hat == pytest.approx([6.0], abs=1e-12)

    def test_rank_deficient_raises_with_eigenvalue(self):
        x = np.array([[1.0, 2.0, 2.0], [1.0, 3.0, 3.0], [1.0, 4.0, 4.0]])
        dm = DesignMatrix(x, ("(Intercept)", "a", "b"))
        with pytest.raises(SingularSystemError) as exc_info:
            fit_ols(dm, np.array([1.0, 2.0, 3.0]))
        assert exc_info.value.min_eigenvalue is not None

    def test_small_n_warns(self):
        dm = design_from([0.0, 1.0])
        with pytest.warns(UserWarning, match="unreliable"):
            fit_ols(dm, np.array([1.0, 2.0]))

    def test_residual_orthogonality_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(8, 120))
            p = int(rng.integers(0, 4))
            reg = rng.standard_normal((n, p))
            y = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
            ds = Dataset(y, reg, names=tuple(f"x{i}" for i in range(p)))
            fit = fit_ols(build_design(ds), y)
            x = fit.design.matrix
            scale = max(1.0, float(np.max(np.abs(y))))
            assert np.max(np.abs(x.T @ fit.residuals)) / n <= 1e-10 * scale

    def test_affine_equivariance(self):
        rng = np.random.default_rng(23)
        reg = rng.standard_normal((50, 2))
        y = rng.standard_normal(50)
        ds = Dataset(y, reg, names=("a", "b"))
        fit = fit_ols(build_design(ds), y)
        c = 7.5
        scaled = reg.copy()
        scaled[:, 1] *= c
        fit2 = fit_ols(build_design(Dataset(y, scaled, names=("a", "b"))), y)
        assert fit2.beta_hat[2] == pytest.approx(fit.beta_hat[2] / c, rel=1e-10)
        assert np.allclose(fit2.fitted, fit.fitted, rtol=1e-10, atol=1e-12)


class TestFitGlm:
    def test_bernoulli_symmetry_gives_zero(self):
        ds = Dataset([0.0, 1.0, 0.0, 1.0], [[-1.0], [-1.0], [1.0], [1.0]], names=("x",))
        fit = fit_glm(build_design(ds), ds.response, BERNOULLI)
        assert fit.beta_hat == pytest.approx([0.0, 0.0], abs=1e-12)
        assert np.all(fit.fitted == 0.5)

    def test_poisson_intercept_only_log_mean(self):
        # Score equation sum(exp(b0) - y_i) = 0  =>  b0 = log(mean(y)).
        ds = Dataset([1.0, 2.0, 3.0], np.empty((3, 0)), names=())
        fit = fit_glm(build_design(ds), ds.response, POISSON)
        assert fit.beta_hat[0] == pytest.approx(np.log(2.0), abs=1e-10)

    def test_separation_detected(self):
        ds = Dataset(
            [0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
            [[-3.0], [-2.0], [-1.0], [1.0], [2.0], [3.0]],
            names=("x",),
        )
        with pytest.raises(SeparationError) as exc_info:
            fit_glm(build_design(ds), ds.response, BERNOULLI)
        assert exc_info.value.last_beta is not None

    def test_bernoulli_support_validation(self):
        ds = Dataset([0.0, 2.0], [[0.0], [1.0]], names=("x",))
        with pytest.raises(FamilyError, match="0/1"):
            fit_glm(build_design(ds), ds.response, BERNOULLI)

    def test_poisson_support_validation(self):
        ds = Dataset([1.5, 2.0], [[0.0], [1.0]], names=("x",))
        with pytest.raises(FamilyError, match="integer"):
            fit_glm(build_design(ds), ds.response, POISSON)

    def test_non_convergence_carries_iterate(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(200)
        y = (rng.random(200) < BERNOULLI.inverse_link(0.5 + x)).astype(float)
        ds = Dataset(y, x.reshape(-1, 1), names=("x",))
        with pytest.raises(ConvergenceError) as exc_info:
            fit_glm(build_design(ds), y, BERNOULLI, FitOptions(max_iter=1))
        assert exc_info.value.last_beta is not None
        assert exc_info.value.score_norm is not None

    def test_gaussian_family_matches_ols(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            reg = rng.standard_normal((60, 3))
            y = rng.standard_normal(60) + reg @ np.array([1.0, -2.0, 0.5])
            ds = Dataset(y, reg, names=("a", "b", "c"))
            dm = build_design(ds)
            ols = fit_ols(dm, y)
            glm = fit_glm(dm, y, GAUSSIAN)
            assert np.allclose(glm.beta_hat, ols.beta_hat, rtol=1e-8, atol=1e-12)

    def test_score_norm_small_at_convergence(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal(300)
        y = np.asarray(rng.poisson(np.exp(0.3 + 0.4 * x)), dtype=float)
        ds = Dataset(y, x.reshape(-1, 1), names=("x",))
        fit = fit_glm(build_design(ds), y, POISSON)
        xm = fit.design.matrix
        scale = max(1.0, float(np.mean(np.abs(y))))
        assert np.max(np.abs(xm.T @ (fit.fitted - y))) / ds.n <= 1e-7 * scale


class TestFitWeighted:
    def test_rows_fail_independently_with_typed_errors(self):
        # Row 0 leaves out the non-integer response; row 1 uses only
        # x = 0 points, so its regressor is constant; row 2 uses the
        # non-integer response.
        x = np.column_stack([np.ones(5), [0.0, 0.0, 1.0, 2.0, 3.0]])
        y = np.array([1.0, 2.0, 2.0, 3.0, 0.5])
        w = np.array([[1.0, 1.0, 1.0, 1.0, 0.0], [2.0, 1.0, 0.0, 0.0, 0.0], [1.0] * 5])
        fits = fit_weighted(x, y, w, POISSON)
        assert fits.errors[0] is None
        assert isinstance(fits.errors[1], SingularSystemError)
        assert isinstance(fits.errors[2], FamilyError)
        single = fit_glm(DesignMatrix(x[:4], ("(Intercept)", "x")), y[:4], POISSON)
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
            fit = fit_dataset(ds)
            gaps.append(float(np.linalg.norm(fit.beta_hat - beta_p)))
        assert gaps[0] > gaps[1] > gaps[2]
        ds = sample(pop, 10000, seed=404)
        fit = fit_dataset(ds)
        se = sandwich_cov(fit).standard_errors()
        assert np.all(np.abs(fit.beta_hat - beta_p) <= 5.0 * se)


class TestPredictMean:
    def test_ols_linear_combination(self):
        dm = design_from([0.0, 1.0, 2.0])
        fit = fit_ols(dm, np.array([1.0, 2.0, 3.0]))
        assert predict_mean(fit, [1.0, 2.0]) == pytest.approx(3.0, abs=1e-12)

    def test_bernoulli_at_zero(self):
        ds = Dataset([0.0, 1.0, 0.0, 1.0], [[-1.0], [-1.0], [1.0], [1.0]], names=("x",))
        fit = fit_glm(build_design(ds), ds.response, BERNOULLI)
        assert predict_mean(fit, [1.0, 5.0]) == pytest.approx(0.5, abs=1e-12)

    def test_poisson_intercept_only(self):
        ds = Dataset([1.0, 2.0, 3.0], np.empty((3, 0)), names=())
        fit = fit_glm(build_design(ds), ds.response, POISSON)
        assert predict_mean(fit, [1.0]) == pytest.approx(2.0, abs=1e-8)

    def test_dimension_mismatch(self):
        dm = design_from([0.0, 1.0, 2.0])
        fit = fit_ols(dm, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DimensionError):
            predict_mean(fit, [1.0, 2.0, 3.0])


class TestExpCoef:
    @pytest.fixture()
    def poisson_fit(self):
        ds = Dataset([2.0, 3.0, 4.0, 6.0], [[0.0], [1.0], [2.0], [3.0]], names=("x",))
        return fit_glm(build_design(ds), ds.response, POISSON)

    def test_published_multipliers(self, poisson_fit):
        # Published coefficients from a seven-column report; each stated
        # multiplier agrees with exp(coef * delta) to 2 decimal places.
        fit = poisson_fit
        cases = [(-0.0147, 10.0, 0.86), (0.0823, 1.0, 1.08), (-0.0138, 20.0, 0.76)]
        for coef, delta, published in cases:
            beta = fit.beta_hat.copy()
            beta[1] = coef
            patched = type(fit)(
                family=fit.family,
                beta_hat=beta,
                fitted=fit.fitted,
                residuals=fit.residuals,
                linear_predictor=fit.linear_predictor,
                converged=True,
                iterations=fit.iterations,
                deviance_or_sse=fit.deviance_or_sse,
                design=fit.design,
                y=fit.y,
            )
            assert abs(exp_coef(patched, 1, delta) - published) < 0.01

    def test_identity_at_zero_delta(self, poisson_fit):
        assert exp_coef(poisson_fit, 1, 0.0) == 1.0

    def test_family_guard(self):
        dm = design_from([0.0, 1.0, 2.0])
        fit = fit_ols(dm, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(FamilyError):
            exp_coef(fit, 1, 1.0)

    def test_index_guard(self, poisson_fit):
        with pytest.raises(CoefficientIndexError):
            exp_coef(poisson_fit, 5, 1.0)
