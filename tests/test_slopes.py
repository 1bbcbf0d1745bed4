"""Pairwise-slope form of regression coefficients and its identity with OLS."""

import numpy as np
import pytest

from leanreg.core import Dataset
from leanreg.exceptions import (
    CoefficientIndexError,
    SingularSystemError,
    ZeroWeightError,
)
from leanreg.fitting import GAUSSIAN, fit_glm
from leanreg.slopes import (
    adjust_regressor,
    pair_table_csv,
    pairwise_slope_multiple,
    pairwise_slope_simple,
)


class TestPairwiseSimple:
    def test_quadratic_three_points(self):
        # Unordered pairs of y = x^2 at x = 0,1,2:
        # weights (1, 4, 1), slopes (1, 2, 3) -> (1+8+3)/6 = 2,
        # matching the with-intercept OLS slope.
        res = pairwise_slope_simple([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
        assert res.beta == pytest.approx(2.0, abs=1e-12)
        ds = Dataset([0.0, 1.0, 4.0], [[0.0], [1.0], [2.0]], names=("x",))
        ols = fit_glm(ds, GAUSSIAN)
        assert res.beta == pytest.approx(ols.beta_hat[1], abs=1e-12)

    def test_exact_line_constant_slopes(self):
        x = np.array([0.0, 1.0, 3.0, 7.0])
        res = pairwise_slope_simple(x, 3.0 * x + 1.0)
        assert res.beta == pytest.approx(3.0, abs=1e-12)

    def test_tied_x_pair_contributes_zero_weight(self):
        # Only the two pairs with distinct x enter:
        # ((0-1)(0-1) + (0-1)(5-1)) / (1+1) = -1.5.
        res = pairwise_slope_simple([0.0, 0.0, 1.0], [0.0, 5.0, 1.0])
        assert res.beta == pytest.approx(-1.5, abs=1e-12)
        assert res.pair_count == 4  # two unordered pairs, ordered count

    def test_all_x_equal_raises(self):
        with pytest.raises(ZeroWeightError):
            pairwise_slope_simple([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_weight_positivity_and_total(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(20)
        y = rng.standard_normal(20)
        res = pairwise_slope_simple(x, y)
        dx = x[:, None] - x[None, :]
        assert res.total_weight == pytest.approx(float(np.sum(dx * dx)))
        assert res.total_weight > 0

    def test_scale_equivariance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(15)
        y = rng.standard_normal(15)
        base = pairwise_slope_simple(x, y).beta
        scaled = pairwise_slope_simple(5.0 * x, y).beta
        assert scaled == pytest.approx(base / 5.0, rel=1e-12)

    def test_ordered_equals_doubled_unordered(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal(25)
        y = rng.standard_normal(25)
        num = den = 0.0
        for i in range(25):
            for j in range(i + 1, 25):
                dx, dy = x[i] - x[j], y[i] - y[j]
                num += 2.0 * dx * dy
                den += 2.0 * dx * dx
        res = pairwise_slope_simple(x, y)
        assert res.beta == pytest.approx(num / den, rel=1e-12)
        assert res.total_weight == pytest.approx(den, rel=1e-12)


class TestAdjustRegressor:
    def test_single_regressor_is_centering(self):
        ds = Dataset([1.0, 2.0, 3.0], [[2.0], [4.0], [9.0]], names=("x",))
        x_adj = adjust_regressor(ds, 1)
        assert np.allclose(x_adj, ds.regressors[:, 0] - 5.0, atol=1e-12)

    def test_orthogonal_centered_regressors_unchanged(self):
        a = np.array([-1.0, 0.0, 1.0, 0.0])
        b = np.array([0.0, -1.0, 0.0, 1.0])
        ds = Dataset(np.arange(4.0), np.column_stack([a, b]), names=("a", "b"))
        x_adj = adjust_regressor(ds, 1)
        assert np.allclose(x_adj, a, atol=1e-12)

    def test_intercept_index_rejected(self):
        ds = Dataset([1.0, 2.0], [[0.0], [1.0]], names=("x",))
        with pytest.raises(CoefficientIndexError):
            adjust_regressor(ds, 0)
        with pytest.raises(IndexError):
            adjust_regressor(ds, 0)

    def test_collinear_column_raises(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        ds = Dataset(np.arange(4.0), np.column_stack([a, a]), names=("a", "b"))
        with pytest.raises(SingularSystemError):
            adjust_regressor(ds, 2)


class TestPairwiseMultiple:
    def test_identity_with_ols_randomized(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            n = int(rng.integers(10, 120))
            p = int(rng.integers(1, 5))
            reg = rng.standard_normal((n, p)) * rng.uniform(0.5, 4.0, size=p)
            y = rng.standard_normal(n) + reg @ rng.uniform(-2, 2, size=p)
            ds = Dataset(y, reg, names=tuple(f"x{i}" for i in range(p)))
            fit = fit_glm(ds, GAUSSIAN)
            for j in range(1, p + 1):
                res = pairwise_slope_multiple(ds, j)
                assert res.beta == pytest.approx(fit.beta_hat[j], rel=1e-10, abs=1e-10)

    def test_orthogonal_design_reduces_to_simple(self):
        a = np.array([-1.0, 0.0, 1.0, 0.0])
        b = np.array([0.0, -1.0, 0.0, 1.0])
        y = np.array([2.0, -1.0, 0.5, 3.0])
        ds = Dataset(y, np.column_stack([a, b]), names=("a", "b"))
        res_multi = pairwise_slope_multiple(ds, 1)
        res_simple = pairwise_slope_simple(a, y)
        assert res_multi.beta == pytest.approx(res_simple.beta, rel=1e-12)

    def test_confounded_sign_flip(self):
        # Six-point construction where the coefficient of x1 is positive
        # when x1 stands alone but negative once x2 enters: within each
        # x2 group y falls in x1, while the groups shift up with x2.
        x1 = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        x2 = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        y = np.array([0.0, -1.0, -2.0, 7.0, 6.0, 5.0])
        simple = pairwise_slope_simple(x1, y)
        assert simple.beta == pytest.approx(27.5 / 17.5, rel=1e-12)
        assert simple.beta > 0
        ds = Dataset(y, np.column_stack([x1, x2]), names=("x1", "x2"))
        multi = pairwise_slope_multiple(ds, 1)
        assert multi.beta == pytest.approx(-1.0, abs=1e-10)
        fit = fit_glm(ds, GAUSSIAN)
        assert fit.beta_hat[1] == pytest.approx(-1.0, abs=1e-10)
        assert simple.beta * multi.beta < 0


class TestPairTable:
    def test_csv_rows_and_weights(self):
        text = pair_table_csv([0.0, 1.0], [3.0, 5.0])
        lines = text.strip().splitlines()
        assert lines[0] == "i,j,weight,slope"
        assert len(lines) == 3  # two ordered pairs
        _, _, w, s = lines[1].split(",")
        assert float(w) == 1.0 and float(s) == 2.0
