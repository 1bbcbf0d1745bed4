"""Pairs and residual bootstrap: determinism, SEs, and diagnostics."""

import warnings
from importlib import resources

import numpy as np
import pytest

from leanreg import bootstrap
from leanreg.bootstrap import (
    CHUNK_ELEMENTS,
    FAILURE_THRESHOLD,
    BootstrapDraws,
    bootstrap_se,
    normality_diagnostic,
    residual_bootstrap,
    tolerate_failures,
    xy_bootstrap,
)
from leanreg.core import Dataset, load_csv
from leanreg.covariance import sandwich_cov, standard_errors
from leanreg.datasets import CHARGES_COLUMNS
from leanreg.exceptions import (
    CoefficientIndexError,
    ConvergenceError,
    ExcessiveFailureError,
    FamilyError,
    InsufficientDrawsError,
    LeanRegError,
    SingularSystemError,
)
from leanreg.fitting import BERNOULLI, GAUSSIAN, POISSON, fit_glm
from leanreg.population import (
    make_population,
    normal_quadrature_law,
    sample,
    uniform_grid_law,
)

from population_oracles import population_conventional_av, population_sandwich_av


def stream(seed: int, *path: int) -> np.random.Generator:
    """Substream (seed, *path), built from numpy's SeedSequence as the oracle."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))


def quadratic_pop():
    sup, probs = normal_quadrature_law(31)
    return make_population(
        sup, probs,
        {"kind": "polynomial", "coefficients": [0.0, 0.0, 1.0]},
        {"kind": "gaussian", "sigma": 1.0},
    )


def linear_pop():
    return make_population(
        [[-1.5], [-0.5], [0.5], [1.5]],
        [0.25] * 4,
        {"kind": "polynomial", "coefficients": [1.0, 2.0]},
        {"kind": "gaussian", "sigma": 1.0},
    )


class TestXyBootstrap:
    def test_exact_linear_data_all_draws_equal(self):
        ds = Dataset([1.0, 2.0, 3.0, 4.0, 5.0], [[0.0], [1.0], [2.0], [3.0], [4.0]], ("x",))
        draws = xy_bootstrap(ds, GAUSSIAN, B=50, seed=1)
        assert draws.failures == 0
        assert np.max(np.abs(draws.draws - np.array([1.0, 1.0]))) < 1e-10

    def test_single_point_excessive_failures(self):
        ds = Dataset([2.0], [[1.0]], names=("x",))
        with pytest.raises(ExcessiveFailureError) as exc_info:
            xy_bootstrap(ds, GAUSSIAN, B=20, seed=0)
        assert exc_info.value.reasons == {"SingularSystemError": 20}
        assert str(exc_info.value) == (
            "20 of 20 bootstrap replicates failed (threshold 10%): SingularSystemError 20"
        )

    def test_failure_message_names_each_cause_in_order_first_seen(self):
        results = [1.0, ConvergenceError("a"), SingularSystemError("b"), ConvergenceError("c")]
        with pytest.raises(ExcessiveFailureError) as exc_info:
            tolerate_failures(results, "things")
        assert str(exc_info.value) == (
            "3 of 4 things failed (threshold 10%): ConvergenceError 2, SingularSystemError 1"
        )

    @pytest.mark.parametrize("family, bad", [(BERNOULLI, 2.0), (POISSON, 0.5)])
    def test_response_outside_support_rejected_before_any_fit(self, monkeypatch, family, bad):
        # One bad response among 500: most resamples would leave it out.
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted a response outside the support")

        monkeypatch.setattr(bootstrap, "fit_weighted", no_fit)
        rng = np.random.default_rng(3)
        y = (rng.random(500) < 0.5).astype(float)
        y[17] = bad
        ds = Dataset(y, rng.standard_normal((500, 1)), names=("x",))
        with pytest.raises(FamilyError, match=family.support_message):
            xy_bootstrap(ds, family, B=200, seed=1)

    def test_bit_identical_rerun(self):
        ds = sample(linear_pop(), 300, seed=5)
        a = xy_bootstrap(ds, GAUSSIAN, B=100, seed=9)
        b = xy_bootstrap(ds, GAUSSIAN, B=100, seed=9)
        assert np.array_equal(a.draws, b.draws)

    def test_replicate_streams_depend_only_on_seed_and_index(self):
        ds = sample(linear_pop(), 200, seed=6)
        short = xy_bootstrap(ds, GAUSSIAN, B=5, seed=33)
        long = xy_bootstrap(ds, GAUSSIAN, B=12, seed=33)
        assert np.array_equal(short.draws, long.draws[:5])

    def test_se_close_to_sandwich_on_misspecified_population(self):
        ds = sample(quadratic_pop(), 1000, seed=17)
        draws = xy_bootstrap(ds, GAUSSIAN, B=1000, seed=88)
        se_boot = bootstrap_se(draws)
        se_sand = standard_errors(sandwich_cov(fit_glm(ds, GAUSSIAN)))
        assert abs(se_boot[1] / se_sand[1] - 1.0) < 0.15

    def test_bernoulli_replicates(self):
        x_pts = np.linspace(-2.0, 2.0, 9)
        mu = BERNOULLI.inverse_link(0.4 * x_pts)
        pop = make_population(
            x_pts.reshape(-1, 1), np.full(9, 1.0 / 9.0),
            {"kind": "table", "values": mu.tolist()}, {"kind": "bernoulli"},
        )
        ds = sample(pop, 400, seed=10)
        draws = xy_bootstrap(ds, BERNOULLI, B=60, seed=3)
        assert draws.b_retained + draws.failures == 60
        assert draws.failures <= 6

    def test_csv_export_shape(self):
        ds = sample(linear_pop(), 50, seed=2)
        draws = xy_bootstrap(ds, GAUSSIAN, B=10, seed=4)
        lines = draws.to_csv_text().strip().splitlines()
        assert lines[0] == "replicate,(Intercept),x1"
        assert len(lines) == 11


def charges(response, regressors):
    path = resources.files("leanreg").joinpath("data", "charges_synthetic.csv")
    return load_csv(str(path), response, list(regressors))


CHARGES_FITS = {
    "ols": (GAUSSIAN, "charges", CHARGES_COLUMNS),
    "logit": (BERNOULLI, "male", [c for c in CHARGES_COLUMNS if c != "male"]),
    "poisson": (POISSON, "charges", CHARGES_COLUMNS),
}


def refit_each_replicate(ds, family, B, seed):
    """Reference engine: refit on x[idx], y[idx] with idx from substream (seed, b).

    Returns each replicate's coefficients, or the error its fit raised.
    """
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tiny resamples warn about dof
        for b in range(B):
            idx = stream(seed, b).integers(0, ds.n, size=ds.n)
            try:
                ds_b = Dataset(ds.response[idx], ds.regressors[idx], ds.names)
                results.append(fit_glm(ds_b, family).beta_hat)
            except LeanRegError as exc:
                results.append(exc)
    return results


def family_sample(family, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    eta = 0.3 + 0.8 * x[:, 0] - 0.4 * x[:, 1]
    if family is BERNOULLI:
        y = (rng.random(n) < BERNOULLI.inverse_link(eta)).astype(float)
    elif family is POISSON:
        y = rng.poisson(np.exp(0.5 * eta)).astype(float)
    else:
        y = eta + x[:, 0] ** 2 + rng.standard_normal(n)
    return Dataset(y, x, ("a", "b"))


def rare_binary_sample(family):
    # Three ones in 40: a resample that misses all of them has a zero
    # column, so about 4% of replicates are singular.
    rng = np.random.default_rng(0)
    u = rng.standard_normal(40)
    z = np.zeros(40)
    z[:3] = 1.0
    if family is POISSON:
        y = rng.poisson(np.exp(0.5 + 0.3 * u + 0.5 * z)).astype(float)
    else:
        y = z + u + rng.standard_normal(40)
    return Dataset(y, np.column_stack([u, z]), ("u", "z"))


def nearly_separated_sample(rare_binary=False):
    # y = 1{x > 0} except three flipped points, each of which overlaps
    # the classes: a resample that misses all three is separated, about
    # 4% of replicates.  Flipping two points next to 0 instead and adding
    # a rare binary regressor makes a resample fail in every typed way:
    # singular, separated, or slow to converge along z.
    x = np.linspace(-2.0, 2.0, 40)
    y = (x > 0).astype(float)
    if not rare_binary:
        y[[10, 15, 29]] = 1.0 - y[[10, 15, 29]]
        return Dataset(y, x.reshape(-1, 1), ("x",))
    y[[18, 21]] = 1.0 - y[[18, 21]]
    z = np.zeros(40)
    z[[3, 30, 35]] = 1.0
    return Dataset(y, np.column_stack([x, z]), ("x", "z"))


FAILURE_CASES = {
    "rare_binary_ols": lambda: (rare_binary_sample(GAUSSIAN), GAUSSIAN),
    "rare_binary_poisson": lambda: (rare_binary_sample(POISSON), POISSON),
    "nearly_separated_logit": lambda: (nearly_separated_sample(), BERNOULLI),
    "rare_binary_nearly_separated_logit": lambda: (nearly_separated_sample(True), BERNOULLI),
}


class TestStackedEngine:
    @pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI, POISSON], ids=["ols", "logit", "poisson"])
    def test_replicate_draw_independent_of_B_and_chunking(self, family):
        ds = family_sample(family, 200, seed=8)
        c = max(1, CHUNK_ELEMENTS // ds.n)
        sizes = (5, 12, c - 1, c, c + 1, 2 * c + 3)
        longest = xy_bootstrap(ds, family, B=sizes[-1], seed=21)
        assert longest.failures == 0
        for B in sizes[:-1]:
            draws = xy_bootstrap(ds, family, B=B, seed=21)
            assert draws.failures == 0
            assert np.array_equal(draws.draws, longest.draws[:B])

    @pytest.mark.parametrize("name", ["ols", "logit", "poisson"])
    def test_draws_match_per_replicate_refits(self, name):
        family, response, regressors = CHARGES_FITS[name]
        ds = charges(response, regressors)
        draws = xy_bootstrap(ds, family, B=40, seed=1)
        reference = np.array(refit_each_replicate(ds, family, 40, 1))
        assert draws.failures == 0
        scale = np.max(np.abs(reference), axis=0)
        assert np.all(np.abs(draws.draws - reference) <= 1e-8 * scale)

    def test_residual_draws_match_per_replicate_refits(self):
        ds = charges("charges", CHARGES_COLUMNS)
        draws = residual_bootstrap(ds, B=40, seed=1)
        base = fit_glm(ds, GAUSSIAN)
        centered = base.residuals - np.mean(base.residuals)
        y_b = [base.fitted + centered[stream(1, b).integers(0, ds.n, size=ds.n)] for b in range(40)]
        reference = np.array([
            fit_glm(Dataset(y, ds.regressors, ds.names), GAUSSIAN).beta_hat for y in y_b
        ])
        scale = np.max(np.abs(reference), axis=0)
        assert np.all(np.abs(draws.draws - reference) <= 1e-12 * scale)

    @pytest.mark.parametrize("case", sorted(FAILURE_CASES))
    def test_failures_counted_as_per_replicate_refits(self, case):
        ds, family = FAILURE_CASES[case]()
        reference = refit_each_replicate(ds, family, 200, 3)
        expected: dict[str, int] = {}
        for r in reference:
            if isinstance(r, Exception):
                expected[type(r).__name__] = expected.get(type(r).__name__, 0) + 1
        assert expected  # the case does exercise failures
        if sum(expected.values()) > FAILURE_THRESHOLD * 200:
            with pytest.raises(ExcessiveFailureError) as exc_info:
                xy_bootstrap(ds, family, B=200, seed=3)
            assert exc_info.value.reasons == expected
            return
        draws = xy_bootstrap(ds, family, B=200, seed=3)
        assert draws.failures == sum(expected.values())
        assert draws.failure_reasons == expected
        kept = np.array([r for r in reference if not isinstance(r, Exception)])
        scale = np.max(np.abs(kept), axis=0)
        assert np.all(np.abs(draws.draws - kept) <= 1e-8 * scale)


class TestResidualBootstrap:
    def test_exact_linear_draws_identical(self):
        ds = Dataset([1.0, 2.0, 3.0, 4.0], [[0.0], [1.0], [2.0], [3.0]], ("x",))
        draws = residual_bootstrap(ds, B=30, seed=5)
        assert np.max(np.abs(draws.draws - np.array([1.0, 1.0]))) < 1e-10

    def test_matches_xy_under_correct_specification(self):
        ds = sample(linear_pop(), 1000, seed=23)
        se_resid = bootstrap_se(residual_bootstrap(ds, B=1000, seed=7))
        se_xy = bootstrap_se(xy_bootstrap(ds, GAUSSIAN, B=1000, seed=8))
        assert abs(se_resid[1] / se_xy[1] - 1.0) < 0.15

    def test_heteroskedastic_foil_tracks_pooled_not_sandwich(self):
        # Y = X * eps with a centered regressor law: the exact slope
        # variance ratio sandwich/pooled is E[X^4]/E[X^2]^2 (about 1.8),
        # so the residual bootstrap, which equalizes residuals across
        # the design, understates the sandwich SE by far more than 20%
        # while staying close to the pooled (conventional) SE.
        sup, probs = uniform_grid_law(-np.sqrt(3.0), np.sqrt(3.0), 21)
        pop = make_population(
            sup, probs,
            {"kind": "table", "values": [0.0] * 21},
            {"kind": "gaussian", "sigma": np.abs(sup[:, 0])},
        )
        exact_ratio = np.sqrt(
            population_sandwich_av(pop)[1, 1] / population_conventional_av(pop)[1, 1]
        )
        assert exact_ratio > 1.25
        n = 2000
        ds = sample(pop, n, seed=31)
        se_resid = bootstrap_se(residual_bootstrap(ds, B=1000, seed=12))
        se_sand = standard_errors(sandwich_cov(fit_glm(ds, GAUSSIAN)))
        assert abs(se_resid[1] / se_sand[1] - 1.0) > 0.20
        pooled_se = np.sqrt(population_conventional_av(pop)[1, 1] / n)
        assert abs(se_resid[1] / pooled_se - 1.0) < 0.15

    def test_heteroskedastic_u13_gap_is_small(self):
        # On Y = X * eps with X ~ Uniform(1,3) the pooled and sandwich
        # slope variances nearly coincide (exact SE ratio ~1.033), so no
        # large residual-vs-sandwich gap exists to demonstrate there.
        sup, probs = uniform_grid_law(1.0, 3.0, 21)
        pop = make_population(
            sup, probs,
            {"kind": "table", "values": [0.0] * 21},
            {"kind": "gaussian", "sigma": sup[:, 0]},
        )
        exact_ratio = np.sqrt(
            population_sandwich_av(pop)[1, 1] / population_conventional_av(pop)[1, 1]
        )
        assert abs(exact_ratio - 1.0) < 0.05


class TestConvergenceAcrossSampleSizes:
    def test_se_agreement_at_every_design_point(self):
        # The systematic bootstrap-vs-sandwich difference is O(1/n) and
        # sits below the B=1000 replicate-noise floor already at n=500,
        # so the observable convergence statement is agreement within
        # that floor at every n, with no detectable signed bias.
        pop = quadratic_pop()
        for n in (500, 2000, 8000):
            gaps = []
            for r in range(50):
                ds = sample(pop, n, seed=100000 * n + r)
                se_b = bootstrap_se(
                    xy_bootstrap(ds, GAUSSIAN, 1000, seed=7 * n + r)
                )[1]
                se_s = standard_errors(sandwich_cov(fit_glm(ds, GAUSSIAN)))[1]
                gaps.append(se_b / se_s - 1.0)
            gaps = np.asarray(gaps)
            assert np.median(np.abs(gaps)) < 0.05
            se_mean = np.std(gaps) / np.sqrt(len(gaps))
            assert abs(np.mean(gaps)) <= 2.5 * se_mean


class TestBootstrapSe:
    def test_identical_draws_zero_se(self):
        draws = BootstrapDraws(np.ones((20, 2)), "xy", 0, 0)
        assert np.all(bootstrap_se(draws) == 0.0)

    def test_two_draw_sd(self):
        draws = BootstrapDraws(np.array([[0.0, 0.0], [0.0, 2.0]]), "xy", 0, 0)
        assert bootstrap_se(draws)[1] == pytest.approx(np.sqrt(2.0))

    def test_insufficient_draws(self):
        draws = BootstrapDraws(np.ones((1, 2)), "xy", 0, 0)
        with pytest.raises(InsufficientDrawsError):
            bootstrap_se(draws)


class TestNormalityDiagnostic:
    def test_self_paired_quantiles_correlate_exactly(self):
        from scipy.special import ndtri

        m = 200
        q = ndtri((np.arange(1, m + 1) - 0.5) / m)
        draws = BootstrapDraws(q.reshape(-1, 1), "xy", 0, 0)
        rep = normality_diagnostic(draws, 0)
        assert rep.qq_correlation == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(rep.theoretical_quantiles, q)

    def test_skewed_two_point_mass_low_correlation(self):
        values = np.concatenate([np.zeros(95), np.ones(5)])
        draws = BootstrapDraws(values.reshape(-1, 1), "xy", 0, 0)
        rep = normality_diagnostic(draws, 0)
        assert rep.qq_correlation < 0.95

    def test_well_behaved_slope_draws_high_correlation(self):
        ds = sample(linear_pop(), 400, seed=2)
        draws = xy_bootstrap(ds, GAUSSIAN, B=1000, seed=15)
        rep = normality_diagnostic(draws, 1)
        assert rep.qq_correlation > 0.995

    def test_insufficient_draws(self):
        draws = BootstrapDraws(np.ones((5, 1)), "xy", 0, 0)
        with pytest.raises(InsufficientDrawsError):
            normality_diagnostic(draws, 0)

    def test_constant_draws_nan_without_warning(self):
        # The suite turns warnings into errors, so a leaked RuntimeWarning fails here.
        draws = BootstrapDraws(np.full((20, 1), 3.0), "xy", 0, 0)
        assert np.isnan(normality_diagnostic(draws, 0).qq_correlation)

    def test_index_out_of_range(self):
        draws = BootstrapDraws(np.ones((20, 2)), "xy", 0, 0)
        with pytest.raises(CoefficientIndexError):
            normality_diagnostic(draws, 2)

    def test_csv_export(self):
        values = np.linspace(-1, 1, 12)
        draws = BootstrapDraws(values.reshape(-1, 1), "xy", 0, 0)
        rep = normality_diagnostic(draws, 0)
        lines = rep.to_csv_text().strip().splitlines()
        assert lines[0] == "theoretical_quantile,draw"
        assert len(lines) == 13
