"""Calibrated prediction intervals: order-statistic calibration,
cross-validation, and future coverage."""

import numpy as np
import pytest

from leanreg.core import Dataset
from leanreg.exceptions import DimensionError, DomainError, FamilyError, FoldError, ZeroScaleError
from leanreg.fitting import GAUSSIAN, POISSON, fit_glm
from leanreg.population import (
    make_population,
    normal_quadrature_law,
    sample,
    uniform_grid_law,
)
from leanreg.prediction import (
    calibrate_K,
    cv_calibrate_K,
    future_coverage,
    interval,
    make_band,
)


def quadratic_pop():
    sup, probs = normal_quadrature_law(31)
    return make_population(
        sup, probs,
        {"kind": "polynomial", "coefficients": [0.0, 0.0, 1.0]},
        {"kind": "gaussian", "sigma": 1.0},
    )


def noisy_fixture(n=40, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = 1.0 + 2.0 * x + rng.standard_normal(n)
    ds = Dataset(y, x.reshape(-1, 1), names=("x",))
    return ds, fit_glm(ds, GAUSSIAN)


class TestInterval:
    def test_zero_K_degenerate(self):
        ds, fit = noisy_fixture()
        band = make_band(fit, K=0.0)
        lo, hi = interval(band, [1.0, 0.5])
        yhat = fit.beta_hat[0] + 0.5 * fit.beta_hat[1]
        assert lo == hi == pytest.approx(yhat)

    def test_intercept_only_leverage(self):
        n = 8
        ds = Dataset(np.arange(float(n)), np.empty((n, 0)), names=())
        fit = fit_glm(ds, GAUSSIAN)
        band = make_band(fit, K=1.0)
        lo, hi = interval(band, [1.0])
        half = (hi - lo) / 2.0
        assert half == pytest.approx(band.sigma_hat * (1.0 + 1.0 / n), rel=1e-12)

    def test_nestedness_in_K(self):
        ds, fit = noisy_fixture()
        b1 = make_band(fit, K=1.0)
        b2 = make_band(fit, K=2.0)
        for x in ([1.0, -2.0], [1.0, 0.0], [1.0, 3.0]):
            lo1, hi1 = interval(b1, x)
            lo2, hi2 = interval(b2, x)
            assert lo2 < lo1 < hi1 < hi2

    def test_dimension_mismatch(self):
        ds, fit = noisy_fixture()
        band = make_band(fit, K=1.0)
        with pytest.raises(DimensionError):
            interval(band, [1.0, 2.0, 3.0])


class TestCalibrateK:
    def test_four_point_order_statistic_vs_grid_oracle(self):
        # Intercept-only data with residuals (0.5, -1, -1.5, 2): the
        # covering multipliers are proportional to (0.5, 1, 1.5, 2).
        # Oracle: scan a fine K grid for the smallest K reaching 75%
        # training coverage.
        y = np.array([0.5, -1.0, -1.5, 2.0])
        ds = Dataset(y, np.empty((4, 0)), names=())
        fit = fit_glm(ds, GAUSSIAN)
        sigma = np.sqrt(np.sum(y**2) / 3.0)
        lev = 1.0 + 1.0 / 4.0
        k_values = np.abs(y) / (sigma * lev)

        def coverage_at(k):
            return float(np.mean(k_values <= k))

        grid = np.linspace(0.0, 2.0, 200001)
        oracle = next(k for k in grid if coverage_at(k) >= 0.75)
        k_hat = calibrate_K(fit, alpha=0.25)
        assert k_hat == pytest.approx(1.5 / (sigma * lev), abs=1e-12)
        assert abs(k_hat - oracle) < 1e-4
        band = make_band(fit, K=k_hat)
        assert future_coverage(band, ds) == 0.75

    def test_tiny_alpha_covers_everything(self):
        ds, fit = noisy_fixture(n=25)
        k_hat = calibrate_K(fit, alpha=0.01)  # alpha < 1/n
        band = make_band(fit, K=k_hat)
        assert future_coverage(band, ds) == 1.0

    def test_training_coverage_within_one_over_n(self):
        rng = np.random.default_rng(3)
        for trial in range(25):
            n = int(rng.integers(20, 200))
            alpha = float(rng.uniform(0.02, 0.4))
            x = rng.standard_normal(n)
            y = x**2 + rng.standard_normal(n)
            ds = Dataset(y, x.reshape(-1, 1), names=("x",))
            fit = fit_glm(ds, GAUSSIAN)
            k_hat = calibrate_K(fit, alpha)
            cov = future_coverage(make_band(fit, K=k_hat), ds)
            assert 1.0 - alpha - 1.0 / n <= cov <= 1.0 - alpha + 1.0 / n

    def test_tied_multipliers_fall_back_to_smallest_sufficient(self):
        # All residuals equal in magnitude: any positive K at or above
        # the common multiplier covers everything at once.
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        ds = Dataset(y, np.empty((6, 0)), names=())
        fit = fit_glm(ds, GAUSSIAN)
        k_hat = calibrate_K(fit, alpha=0.5)
        cov = future_coverage(make_band(fit, K=k_hat), ds)
        assert cov == 1.0  # jump: nothing between 0 and full coverage

    def test_zero_residuals_raise(self):
        ds = Dataset([1.0, 2.0, 3.0, 4.0], [[0.0], [1.0], [2.0], [3.0]], ("x",))
        fit = fit_glm(ds, GAUSSIAN)
        if float(fit.residuals @ fit.residuals) == 0.0:
            with pytest.raises(ZeroScaleError):
                calibrate_K(fit, alpha=0.1)
        else:
            pytest.skip("solver left nonzero rounding residuals")

    def test_alpha_domain(self):
        ds, fit = noisy_fixture()
        with pytest.raises(DomainError):
            calibrate_K(fit, alpha=0.0)

    def test_glm_fit_rejected(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(100)
        y = np.asarray(rng.poisson(np.exp(0.5 + 0.3 * x)), dtype=float)
        ds = Dataset(y, x.reshape(-1, 1), names=("x",))
        fit = fit_glm(ds, POISSON)
        with pytest.raises(FamilyError):
            calibrate_K(fit, alpha=0.1)


class TestCvCalibrateK:
    def test_noiseless_constant_data_gives_zero(self):
        ds = Dataset(np.zeros(12), np.empty((12, 0)), names=())
        assert cv_calibrate_K(ds, alpha=0.2, folds=3, seed=5) == 0.0

    def test_leave_one_out_feasible(self):
        rng = np.random.default_rng(9)
        reg = rng.standard_normal((30, 2))
        y = reg @ np.array([1.0, -1.0]) + rng.standard_normal(30)
        ds = Dataset(y, reg, names=("a", "b"))
        k = cv_calibrate_K(ds, alpha=0.1, folds=30, seed=1)
        assert np.isfinite(k) and k > 0

    def test_cv_stochastically_wider_than_training(self):
        pop = quadratic_pop()
        k_train, k_cv = [], []
        for r in range(200):
            ds = sample(pop, 60, seed=1000 + r)
            fit = fit_glm(ds, GAUSSIAN)
            k_train.append(calibrate_K(fit, alpha=0.1))
            k_cv.append(cv_calibrate_K(ds, alpha=0.1, folds=5, seed=r))
        assert np.median(k_cv) >= np.median(k_train)

    def test_fold_too_small(self):
        rng = np.random.default_rng(2)
        reg = rng.standard_normal((6, 2))
        ds = Dataset(rng.standard_normal(6), reg, names=("a", "b"))
        # folds=2 leaves 3-row training folds for 3 coefficients
        with pytest.raises(FoldError):
            cv_calibrate_K(ds, alpha=0.1, folds=2, seed=0)

    def test_fold_count_domain(self):
        ds, _ = noisy_fixture()
        with pytest.raises(DomainError):
            cv_calibrate_K(ds, alpha=0.1, folds=1, seed=0)

    def test_collinear_training_fold_is_fold_error(self):
        # Both off-value rows land in the held fold for this seed, so
        # the complement's regressor column is constant.
        x = np.array([5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 0.0, 0.0])
        ds = Dataset(np.arange(8.0), x.reshape(-1, 1), names=("x",))
        with pytest.raises(FoldError, match="full-rank"):
            cv_calibrate_K(ds, alpha=0.2, folds=2, seed=2)

    def test_deterministic_in_seed(self):
        ds, _ = noisy_fixture(n=50, seed=4)
        a = cv_calibrate_K(ds, alpha=0.1, folds=5, seed=42)
        b = cv_calibrate_K(ds, alpha=0.1, folds=5, seed=42)
        assert a == b


class TestCalibrationBeatsNormalTheory:
    def test_fixed_multiplier_misses_under_heteroskedasticity(self):
        # Multiplicative noise Y = X * eps: the empirically calibrated
        # multiplier holds the nominal level while the normal-theory
        # z-multiplier undercovers by far more than 2 MC standard errors.
        from scipy.special import ndtri

        sup, probs = uniform_grid_law(-np.sqrt(3.0), np.sqrt(3.0), 21)
        pop = make_population(
            sup, probs,
            {"kind": "table", "values": [0.0] * 21},
            {"kind": "gaussian", "sigma": np.abs(sup[:, 0])},
        )
        z = float(ndtri(0.975))
        cal, fixed = [], []
        for s in range(30):
            train = sample(pop, 2000, seed=4000 + s)
            fit = fit_glm(train, GAUSSIAN)
            k_hat = calibrate_K(fit, alpha=0.05)
            test = sample(pop, 2000, seed=14000 + s)
            cal.append(future_coverage(make_band(fit, K=k_hat), test))
            fixed.append(future_coverage(make_band(fit, K=z), test))
        cal, fixed = np.asarray(cal), np.asarray(fixed)
        cal_se = np.std(cal) / np.sqrt(len(cal))
        fixed_se = np.std(fixed) / np.sqrt(len(fixed))
        assert abs(np.mean(cal) - 0.95) <= 2.0 * cal_se
        assert abs(np.mean(fixed) - 0.95) > 2.0 * fixed_se


class TestFutureCoverage:
    def test_fresh_sample_coverage_in_band(self):
        pop = quadratic_pop()
        train = sample(pop, 2000, seed=55)
        fit = fit_glm(train, GAUSSIAN)
        k_hat = calibrate_K(fit, alpha=0.05)
        band = make_band(fit, K=k_hat)
        test = sample(pop, 2000, seed=100055)
        assert 0.93 <= future_coverage(band, test) <= 0.97

    def test_monotone_in_K(self):
        pop = quadratic_pop()
        train = sample(pop, 500, seed=1)
        fit = fit_glm(train, GAUSSIAN)
        test = sample(pop, 500, seed=2)
        covs = [
            future_coverage(make_band(fit, K=k), test)
            for k in (0.0, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a <= b for a, b in zip(covs, covs[1:]))

    def test_shifted_regressor_law_still_reports(self):
        pop = quadratic_pop()
        train = sample(pop, 1000, seed=3)
        fit = fit_glm(train, GAUSSIAN)
        k_hat = calibrate_K(fit, alpha=0.05)
        band = make_band(fit, K=k_hat)
        shifted = make_population(
            pop.points + 2.0, pop.probs,
            {"kind": "polynomial", "coefficients": [0.0, 0.0, 1.0]},
            {"kind": "gaussian", "sigma": 1.0},
        )
        cov = future_coverage(band, sample(shifted, 1000, seed=4))
        assert 0.0 <= cov <= 1.0  # reported, flagged in docs, never an error

    def test_schema_mismatch(self):
        ds, fit = noisy_fixture()
        band = make_band(fit, K=1.0)
        other = Dataset([1.0], [[1.0, 2.0]], names=("a", "b"))
        with pytest.raises(DimensionError):
            future_coverage(band, other)
