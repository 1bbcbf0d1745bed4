"""Pairwise-slope form of regression coefficients and its identity with OLS."""

import math
import tracemalloc
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from leanreg.core import Dataset, load_csv
from leanreg.exceptions import (
    CoefficientIndexError,
    DataError,
    DimensionError,
    DomainError,
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
from test_memory import peak_rss_bytes


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

    def test_unequal_lengths_rejected(self):
        with pytest.raises(DimensionError, match=r"^y has shape \(2,\), expected \(3,\)$"):
            pairwise_slope_simple([0.0, 1.0, 2.0], [0.0, 1.0])

    def test_one_observation_rejected(self):
        with pytest.raises(DomainError, match="^pairwise slopes need at least two observations$"):
            pairwise_slope_simple([1.0], [2.0])

    @pytest.mark.parametrize(
        "x, y",
        [
            ([1.0, np.nan, 3.0], [1.0, 2.0, 3.0]),
            ([1.0, 2.0, 3.0], [1.0, np.inf, 3.0]),
            ([1.0, 2.0, -np.inf], [1.0, 2.0, 3.0]),
        ],
        ids=["nan x", "inf y", "-inf x"],
    )
    def test_non_finite_input_rejected(self, x, y):
        with pytest.raises(DomainError, match=r"^[xy] must be finite \(no NaN or inf\)$"):
            pairwise_slope_simple(x, y)

    @pytest.mark.parametrize(
        "x, y",
        [([1e200, -1e200, 3.0], [1.0, 2.0, 3.0]), ([0.0, 1.0, 2.0], [1e308, -1e308, 0.0])],
        ids=["weight", "cross product"],
    )
    def test_overflowing_pair_sums_rejected(self, x, y):
        with pytest.raises(DomainError, match="whose pair sums do not overflow$"):
            pairwise_slope_simple(x, y)

    def test_pair_count_matches_pair_table(self):
        # 1e-200 squared underflows to 0, yet 0 != 1e-200: the pair is
        # counted, as it is a row of the pair table.
        x, y = [0.0, 1e-200, 1.0], [0.0, 1.0, 2.0]
        res = pairwise_slope_simple(x, y)
        assert res.pair_count == 6
        assert res.pair_count == len(pair_table_csv(x, y).splitlines()) - 1

    def test_huge_constant_response_has_zero_slope(self):
        # The mean of three 1e308 overflows; the pair differences do not.
        res = pairwise_slope_simple([1.0, 2.0, 3.0], [1e308] * 3)
        assert (res.beta, res.total_weight, res.pair_count) == (0.0, 12.0, 6)

    @pytest.mark.parametrize("c", [0.3, 1 / 3, 123.456])
    def test_constant_response_has_exactly_zero_slope(self, c):
        # The mean of ten copies of c rounds away from c; every pair
        # difference of y is 0.
        x = np.linspace(0.0, 1.0, 10) ** 3
        assert pairwise_slope_simple(x, np.full(10, c)).beta == 0.0

    def test_slope_past_float_range_rejected(self):
        with pytest.raises(DomainError, match="^the pairwise slope passes the float range$"):
            pairwise_slope_simple([0.0, 1e-160], [0.0, 1e300])

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


def exact_adjustment(x: np.ndarray, j: int) -> list[Fraction]:
    """Integer design column j minus its exact least-squares fit on the other columns."""
    cols = [[int(v) for v in c] for c in x.T]
    target, others = cols[j], cols[:j] + cols[j + 1:]
    m = len(others)
    # The normal equations, augmented by their right side, solved by Gauss-Jordan elimination.
    a = [[Fraction(sum(map(int.__mul__, ci, c))) for c in (*others, target)] for ci in others]
    for c in range(m):
        pivot = next(r for r in range(c, m) if a[r][c] != 0)
        a[c], a[pivot] = a[pivot], a[c]
        for r in range(m):
            if r != c:
                f = a[r][c] / a[c][c]
                a[r] = [u - f * w for u, w in zip(a[r], a[c])]
    coef = [a[c][m] / a[c][c] for c in range(m)]
    den = math.lcm(*(q.denominator for q in coef))
    num = [int(q * den) for q in coef]
    return [Fraction(t * den - sum(map(int.__mul__, num, row)), den)
            for t, row in zip(target, zip(*others))]


class TestAdjustRegressor:
    def test_charges_columns_match_exact_rationals(self):
        columns = ["age", "male", "priors", "prior_sentences", "drug_priors", "age_first_charge"]
        path = resources.files("leanreg").joinpath("data", "charges_synthetic.csv")
        ds = load_csv(str(path), "charges", columns)
        assert np.array_equal(ds.design, np.round(ds.design))  # integer data: exact oracle
        for j in range(1, ds.p + 1):
            want = np.array([float(q) for q in exact_adjustment(ds.design, j)])
            error = np.max(np.abs(adjust_regressor(ds, j) - want))
            assert error <= 1e-14 * np.max(np.abs(ds.design[:, j]))

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

    @pytest.mark.parametrize(
        "x, y",
        [([1e200, -1e200], [1.0, 2.0]), ([0.0, 5e-324], [0.0, 1.0]), ([0.0, 1.0], [1e308, -1e308])],
        ids=["weight", "slope of a subnormal gap", "response gap"],
    )
    def test_weight_or_slope_past_float_range_rejected(self, x, y):
        with pytest.raises(DomainError, match="^a pair's weight or slope passes the float range$"):
            pair_table_csv(x, y)

    def test_underflowing_weight_is_kept(self):
        # (1e-200)^2 underflows to 0, a float, not past the range.
        assert pair_table_csv([0.0, 1e-200], [0.0, 1.0]).splitlines()[1] == "0,1,0.0,1e+200"


# Each pairwise-slope function takes x and y through the same checks.
PAIR_FUNCTIONS = [pairwise_slope_simple, pair_table_csv]


@pytest.mark.parametrize("f", PAIR_FUNCTIONS, ids=lambda f: f.__name__)
class TestPairInputs:
    @pytest.mark.parametrize(
        "x, y",
        [(["a", "b"], [1, 2]), ([1.0, 2.0], [None, 1.0]), ([[1.0], [1.0, 2.0]], [1.0, 2.0]),
         ([1 + 2j, 3.0], [1.0, 2.0])],
        ids=["text", "None", "ragged", "complex"],
    )
    def test_non_numeric_input_is_a_data_error(self, f, x, y):
        with pytest.raises(DataError, match="^[xy] must be numeric, not "):
            f(x, y)

    @pytest.mark.parametrize(
        "x, y",
        [([[0.0, 1.0]], [[2.0, 3.0]]), ([0.0, 1.0, 2.0], [0.0, 1.0]), (1.0, 2.0)],
        ids=["2-D", "unequal", "scalars"],
    )
    def test_shape_rejected(self, f, x, y):
        with pytest.raises(DimensionError, match=r"^[xy] has shape \(.*\), expected \((any|3),\)$"):
            f(x, y)

    @pytest.mark.parametrize(
        "x, y", [([np.nan, 1.0], [1.0, 2.0]), ([0.0, 1.0], [1.0, -np.inf])], ids=["nan x", "-inf y"]
    )
    def test_non_finite_input_rejected(self, f, x, y):
        with pytest.raises(DomainError, match=r"^[xy] must be finite \(no NaN or inf\)$"):
            f(x, y)

    def test_integers_and_bools_are_numbers(self, f):
        assert f([0, 1, 3], [True, False, True]) == f([0.0, 1.0, 3.0], [1.0, 0.0, 1.0])


def test_multiple_slope_memory_is_linear_in_n():
    # Dense n x n pair arrays at n = 2000 would take 32 MB each.
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2000, 3))
    ds = Dataset(x @ [1.0, -2.0, 0.5] + rng.standard_normal(2000), x, names=("a", "b", "c"))
    tracemalloc.start()
    try:
        pairwise_slope_multiple(ds, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_pair_table_memory_is_bounded_by_its_text():
    # The text is about 16 MB at n = 600.  Blocks of rows keep no Python
    # string past their block, and the final join needs the blocks' text
    # plus the result: about 2x the text's length.  Object columns over
    # all n^2 pairs, or n x n arrays, take more.  The formatted upper
    # triangle (48 bytes per unordered pair, about half the text) sits in
    # an anonymous memory map, released before the join.  The peak is a
    # child's resident set, so the map counts; the same child without
    # the call gives the footprint of its imports and data (growth 2.2x
    # the text in 4 runs, Linux, numpy 2.4).
    setup = (
        "import numpy as np; from leanreg.slopes import pair_table_csv; "
        "rng = np.random.default_rng(11); x, y = rng.standard_normal(600), rng.standard_normal(600)"
    )
    growth = peak_rss_bytes("-c", setup + "; text = pair_table_csv(x, y)") - peak_rss_bytes("-c", setup)
    rng = np.random.default_rng(11)
    assert growth <= 2.5 * len(pair_table_csv(rng.standard_normal(600), rng.standard_normal(600)))
