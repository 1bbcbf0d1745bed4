"""Conventional and sandwich covariances, p-values, and the report table."""

import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leanreg.cli import main
from leanreg.core import Dataset, spd_solve_stack
from leanreg.covariance import (
    coefficient_table,
    conventional_cov,
    sandwich_cov,
    se_and_pvalues,
    standard_errors,
    table_from_published,
)
from leanreg.exceptions import DegreesOfFreedomError, DimensionError, DomainError, LeanRegError
from leanreg.fitting import BERNOULLI, GAUSSIAN, FitResult, family_by_name, fit_glm
from leanreg.population import (
    make_population,
    normal_quadrature_law,
    sample,
)
from leanreg.prediction import calibrate_K

from population_oracles import population_conventional_av, population_sandwich_av


def ols_fixture(seed=0, n=60, p=2):
    rng = np.random.default_rng(seed)
    reg = rng.standard_normal((n, p))
    y = reg @ np.arange(1.0, p + 1.0) + rng.standard_normal(n)
    ds = Dataset(y, reg, names=tuple(f"x{i}" for i in range(p)))
    return ds, fit_glm(ds, GAUSSIAN)


class TestConventional:
    def test_exact_linear_data_zero_matrix(self):
        ds = Dataset([1.0, 2.0, 3.0, 4.0], [[0.0], [1.0], [2.0], [3.0]], names=("x",))
        fit = fit_glm(ds, GAUSSIAN)
        cov = conventional_cov(fit)
        assert np.max(np.abs(cov)) < 1e-24

    def test_intercept_only_two_points(self):
        # sigma2 = sum r^2 / (n-1) = 2, var(b0) = sigma2 / n = 1.
        ds = Dataset([0.0, 2.0], np.empty((2, 0)), names=())
        fit = fit_glm(ds, GAUSSIAN)
        cov = conventional_cov(fit)
        assert cov[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_dof_error(self):
        ds = Dataset([0.0, 2.0], [[1.0], [2.0]], names=("x",))
        with pytest.warns(UserWarning):
            fit = fit_glm(ds, GAUSSIAN)
        with pytest.raises(DegreesOfFreedomError):
            conventional_cov(fit)

    def test_symmetry_and_nonnegative_diagonal(self):
        _, fit = ols_fixture(3)
        for cov in (conventional_cov(fit), sandwich_cov(fit)):
            m = cov
            assert np.max(np.abs(m - m.T)) <= 1e-12 * max(np.max(np.abs(m)), 1e-300)
            assert np.all(np.diag(m) >= 0)


class TestSandwich:
    def test_two_point_hand_example(self):
        # Hand evaluation of the plug-in sandwich with injected residuals
        # r = (1, -1) on design rows (1, 1), (1, -1): meat = identity,
        # bread = identity, so cov = I/n and the slope variance is 0.5.
        ds = Dataset([1.0, -1.0], [[1.0], [-1.0]], names=("x",))
        fit = FitResult(
            family=GAUSSIAN,
            beta_hat=np.zeros(2),
            fitted=np.zeros(2),
            residuals=np.array([1.0, -1.0]),
            iterations=1,
            deviance_or_sse=2.0,
            data=ds,
        )
        cov = sandwich_cov(fit)
        assert cov[1, 1] == pytest.approx(0.5, abs=1e-12)
        assert cov[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert cov[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_collapse_under_homoskedastic_linear_truth(self):
        pop = make_population(
            [[-1.5], [-0.5], [0.5], [1.5]],
            [0.25] * 4,
            {"kind": "polynomial", "coefficients": [1.0, 2.0]},
            {"kind": "gaussian", "sigma": 1.0},
        )
        ds = sample(pop, 5000, seed=99)
        fit = fit_glm(ds, GAUSSIAN)
        ratio = (
            standard_errors(sandwich_cov(fit))[1]
            / standard_errors(conventional_cov(fit))[1]
        )
        assert 0.9 <= ratio <= 1.1

    def test_quadratic_population_inflation(self):
        # Oracle: with X ~ N(0,1) grid and mu = x^2 + N(0,1) noise, the
        # asymptotic slope-variance ratio is exactly 11/3 (moments
        # E X^4 = 3, E X^6 = 15).
        sup, probs = normal_quadrature_law(31)
        pop = make_population(
            sup, probs,
            {"kind": "polynomial", "coefficients": [0.0, 0.0, 1.0]},
            {"kind": "gaussian", "sigma": 1.0},
        )
        exact = population_sandwich_av(pop)[1, 1] / population_conventional_av(pop)[1, 1]
        assert exact == pytest.approx(11.0 / 3.0, rel=1e-10)
        ds = sample(pop, 5000, seed=7)
        fit = fit_glm(ds, GAUSSIAN)
        ratio = (
            standard_errors(sandwich_cov(fit))[1]
            / standard_errors(conventional_cov(fit))[1]
        )
        assert abs(ratio - np.sqrt(11.0 / 3.0)) < 0.15

    def test_reordering_invariance(self):
        ds, fit = ols_fixture(5)
        cov = sandwich_cov(fit)
        rng = np.random.default_rng(6)
        perm = rng.permutation(ds.n)
        ds2 = Dataset(ds.response[perm], ds.regressors[perm], ds.names)
        cov2 = sandwich_cov(fit_glm(ds2, GAUSSIAN))
        assert np.max(np.abs(cov - cov2)) <= 1e-12 * np.max(np.abs(cov))

    def test_rescaling_transforms_both_estimators(self):
        ds, fit = ols_fixture(8, n=80, p=3)
        c = 4.0
        scaled = ds.regressors.copy()
        scaled[:, 1] *= c
        ds2 = Dataset(ds.response, scaled, ds.names)
        fit2 = fit_glm(ds2, GAUSSIAN)
        j = 2  # design column of the rescaled regressor
        for estimator in (conventional_cov, sandwich_cov):
            m1 = estimator(fit)
            m2 = estimator(fit2)
            assert m2[j, j] == pytest.approx(m1[j, j] / c**2, rel=1e-10)
            assert m2[0, j] == pytest.approx(m1[0, j] / c, rel=1e-10)

    def test_bernoulli_correctly_specified_agreement(self):
        # p(x) exactly logistic: GLM conventional and sandwich agree
        # asymptotically (slope SE ratio near 1 in nearly every seed).
        x_pts = np.linspace(-2.0, 2.0, 9)
        mu = BERNOULLI.inverse_link(0.3 + 0.8 * x_pts)
        pop = make_population(
            x_pts.reshape(-1, 1),
            np.full(9, 1.0 / 9.0),
            {"kind": "table", "values": mu.tolist()},
            {"kind": "bernoulli"},
        )
        hits = 0
        for s in range(50):
            ds = sample(pop, 5000, seed=2100 + s)
            fit = fit_glm(ds, BERNOULLI)
            ratio = (
                standard_errors(sandwich_cov(fit))[1]
                / standard_errors(conventional_cov(fit))[1]
            )
            hits += 0.85 <= ratio <= 1.15
        assert hits >= 45


def inverse_of_one(a: np.ndarray) -> np.ndarray:
    inverse, errors = spd_solve_stack(a[None], None, np.ones(1, dtype=bool), "oracle matrix")
    assert errors == [None]
    return inverse[0]


class TestOneInverseOracles:
    """Both covariances against the formulas they replaced, each of which inverted its own matrix."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(["ols", "logit", "poisson"]),
        n=st.integers(30, 150),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_covariances_match_their_old_formulas(self, family, n, seed):
        rng = np.random.default_rng(seed)
        reg = rng.standard_normal((n, 2))
        eta = 0.3 + 0.5 * reg[:, 0] - 0.4 * reg[:, 1] + 0.3 * reg[:, 0] ** 2
        y = {
            "ols": eta + rng.standard_normal(n) * (1.0 + np.abs(reg[:, 1])),
            "logit": (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float),
            "poisson": rng.poisson(np.exp(eta)).astype(float),
        }[family]
        try:
            fit = fit_glm(Dataset(y, reg, ("a", "b")), family_by_name(family))
        except LeanRegError:
            assume(False)
        x, res = fit.data.design[None], fit.residuals[None]
        v = fit.family.variance_fn(fit.fitted)[None]
        k = x.shape[2]
        information = (np.swapaxes(x, -1, -2) * v[..., None, :]) @ x
        phi = 1.0
        if fit.family.closed_form:
            phi = (res[:, None, :] @ res[:, :, None])[0, 0, 0] / (n - k)
        assert np.array_equal(conventional_cov(fit), phi * inverse_of_one(information[0]))

        bread_inv = inverse_of_one(information[0] / n)
        scores = x[0] * res[0][:, None]
        old = bread_inv @ (scores.T @ scores / n) @ bread_inv / n
        old = (old + old.T) / 2.0
        assert np.max(np.abs(sandwich_cov(fit) - old)) <= 1e-13 * np.max(np.abs(old))

    def test_fit_report_inverts_the_information_once(self, monkeypatch, capsys):
        inversions = []

        def counting(a, b, rows, what):
            if b is None:  # an inverse, not a fit's solve
                inversions.append(what)
            return spd_solve_stack(a, b, rows, what)

        for name, module in list(sys.modules.items()):
            if name.startswith("leanreg.") and hasattr(module, "spd_solve_stack"):
                monkeypatch.setattr(module, "spd_solve_stack", counting)
        argv = ["fit", "--input", "charges_synthetic.csv", "--response", "charges",
                "--regressors", "age,priors", "--family", "poisson", "--boot", "0"]
        assert main(argv) == 0
        assert "Sand.SE" in capsys.readouterr().out
        assert inversions == ["information matrix"]


class TestSeAndPvalues:
    def test_zero_coefficient_gives_p_one(self):
        _, fit = ols_fixture(1)
        cov = np.eye(3) * 0.04
        patched = _with_beta(fit, np.array([0.0, 1.0, -1.0]))
        se, p = se_and_pvalues(patched, cov)
        assert p[0] == pytest.approx(1.0)
        assert se.tolist() == [0.2, 0.2, 0.2]

    def test_z_1_96_gives_p_05(self):
        _, fit = ols_fixture(1)
        cov = np.eye(3)
        patched = _with_beta(fit, np.array([1.959963984540054, 0.0, 0.0]))
        _, p = se_and_pvalues(patched, cov)
        assert p[0] == pytest.approx(0.05, abs=1e-6)

    def test_degenerate_se_flagged(self):
        _, fit = ols_fixture(1)
        cov = np.zeros((3, 3))
        patched = _with_beta(fit, np.array([1.0, 0.0, 2.0]))
        se, p = se_and_pvalues(patched, cov)
        assert (se == 0.0).all()
        assert p[0] == 0.0 and p[2] == 0.0
        assert p[1] == 1.0


def _with_beta(fit, beta):
    return FitResult(
        family=fit.family,
        beta_hat=np.asarray(beta, dtype=float),
        fitted=fit.fitted,
        residuals=fit.residuals,
        iterations=fit.iterations,
        deviance_or_sse=fit.deviance_or_sse,
        data=fit.data,
    )


class TestCoefficientTable:
    def test_exact_linear_table_well_formed(self):
        ds = Dataset([1.0, 2.0, 3.0, 4.0], [[0.0], [1.0], [2.0], [3.0]], names=("x",))
        fit = fit_glm(ds, GAUSSIAN)
        table = coefficient_table(fit, conventional_cov(fit), sandwich_cov(fit))
        assert len(table.labels) == 2
        assert table.labels[0] == "(Intercept)"
        text = table.to_text()
        assert "Coeff" in text and "Sand-p" in text

    def test_two_rows_intercept_first(self):
        _, fit = ols_fixture(2, p=1)
        table = coefficient_table(fit, conventional_cov(fit), sandwich_cov(fit))
        assert table.labels == ("(Intercept)", "x0")

    def test_header_columns_match_report_layout(self):
        _, fit = ols_fixture(2, p=1)
        boot_se = np.array([0.1, 0.2])
        table = coefficient_table(
            fit, conventional_cov(fit), sandwich_cov(fit), boot_se
        )
        header_line = table.to_text().splitlines()[0]
        assert header_line.split() == ["Coeff", "SE", "p-value", "Boot.SE", "Sand.SE", "Sand-p"]

    def test_boot_column_omitted_when_absent(self):
        _, fit = ols_fixture(2, p=1)
        table = coefficient_table(fit, conventional_cov(fit), sandwich_cov(fit))
        assert "Boot.SE" not in table.to_text()
        assert "se_boot" not in table.to_json_dict()["rows"][0]

    def test_bootstrap_se_length_mismatch(self):
        _, fit = ols_fixture(2, p=1)
        with pytest.raises(DimensionError, match=r"^bootstrap SEs has shape \(3,\), expected \(2,\)$"):
            coefficient_table(fit, conventional_cov(fit), sandwich_cov(fit), np.ones(3))

    def test_dimension_mismatch(self):
        _, fit = ols_fixture(2, p=1)
        bad = np.eye(5)
        with pytest.raises(DimensionError):
            coefficient_table(fit, bad, sandwich_cov(fit))

    def test_published_rows_render_and_round_trip(self):
        table = table_from_published(
            [
                {"label": "(Intercept)", "coef": 1.88, "se_conv": 0.02,
                 "p_conv": 0.0, "se_sand": 0.05, "p_sand": 0.0, "se_boot": 0.05},
            ]
        )
        assert table.se_boot is not None
        assert "1.8800" in table.to_text()
        csv_text = table.to_csv_text()
        assert csv_text.splitlines()[0] == "label,coef,se_conv,p_conv,se_boot,se_sand,p_sand"

    def test_published_row_without_boot_se(self):
        row = {"label": "x", "coef": 1.0, "se_conv": 0.1, "p_conv": 0.5, "se_sand": 0.2, "p_sand": 0.6}
        table = table_from_published([{**row, "label": "w", "se_boot": 0.3}, row])
        assert list(table.to_json_dict()["rows"][1].items()) == [*row.items(), ("se_boot", None)]
        assert table.to_text().splitlines()[2].split() == [
            "x", "1.0000", "0.1000", "0.5000", "nan", "0.2000", "0.6000"
        ]
        assert table.to_csv_text().splitlines()[2] == "x,1.0,0.1,0.5,nan,0.2,0.6"


class TestSquaredResidualOverflow:
    # Residuals of about 1e170 square past the float range; the SSE is
    # +inf and the scores' second moment overflows.
    _x = np.arange(12.0)
    DATA = Dataset((1.0 + 0.5 * _x + np.sin(_x)) * 1e170, np.column_stack([_x, np.cos(_x)]),
                   names=("x", "cos_x"))

    @pytest.mark.parametrize(
        "estimate, match",
        [(conventional_cov, "^the conventional covariance passes the float range$"),
         (sandwich_cov, "^the sandwich covariance passes the float range$"),
         (lambda fit: calibrate_K(fit, 0.2), "passes the float range$")],
        ids=["conventional", "sandwich", "calibrate_K"],
    )
    def test_is_a_domain_error_not_a_warning(self, estimate, match):
        fit = fit_glm(self.DATA, GAUSSIAN)
        with pytest.raises(DomainError, match=match):
            estimate(fit)
