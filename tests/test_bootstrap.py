"""Pairs and residual bootstrap: determinism, SEs, and diagnostics."""

import contextlib
import dataclasses
import warnings
from collections import Counter
from importlib import resources
from statistics import NormalDist

import numpy as np
import pytest
from scipy.special import ndtri

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
from leanreg.exceptions import (
    CoefficientIndexError,
    ConvergenceError,
    DomainError,
    ExcessiveFailureError,
    FamilyError,
    InsufficientDrawsError,
    LeanRegError,
    SeparationError,
    SingularSystemError,
)
from leanreg.fitting import BERNOULLI, GAUSSIAN, POISSON, fit_glm
from leanreg.population import (
    make_population,
    normal_quadrature_law,
    sample,
    uniform_grid_law,
)

from charges_recipe import CHARGES_COLUMNS
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
        # GLM refits start at the sample fit, the reference's cold.
        assert np.all(np.abs(draws.draws - reference) <= 1e-12 * scale)

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


def spy_fit_weighted(monkeypatch):
    """Record ``(w, start, result)`` of every ``fit_weighted`` call the bootstrap makes."""
    calls, fit_weighted = [], bootstrap.fit_weighted

    def spy(x, y, w, family, **kwargs):
        fits = fit_weighted(x, y, w, family, **kwargs)
        calls.append((w, kwargs.get("start"), fits))
        return fits

    monkeypatch.setattr(bootstrap, "fit_weighted", spy)
    return calls


def one_step_starts(fit, w):
    """Each row's start: the map ``b + H^-1 sum_i w_i (y_i - mu_i(b)) x_i`` applied twice from ``beta_hat``, or ``beta_hat`` where that is unusable.

    Unusable: not finite, or on a used observation a mean that is not
    finite or a linear predictor past the separation bound.
    """
    x, y, beta_hat, family = fit.data.design, fit.data.response, fit.beta_hat, fit.family
    try:
        inverse = fit.information_inverse
    except LeanRegError:
        return [beta_hat] * len(w)
    with np.errstate(over="ignore", invalid="ignore"):
        # The whole chunk in one product: a product's row may round differently in a stack of another height.
        one_step = beta_hat + ((w * fit.residuals) @ x) @ inverse
        mu = family.inverse_link((one_step @ x.T) * (w > 0))
        two_step = one_step + ((w * (y - mu)) @ x) @ inverse
        starts = []
        for w_r, start in zip(w, two_step):
            t = x[w_r > 0] @ start
            usable = np.all(np.isfinite(start)) and np.all(np.isfinite(family.inverse_link(t)))
            if family.separation_bound is not None:
                usable = usable and np.max(np.abs(t)) <= family.separation_bound
            starts.append(start if usable else beta_hat)
        return starts


def separated_one_step_sample():
    # Classes overlap only at the two middle points, so beta_hat puts
    # |x_i'beta| at 25.5; a start two steps from it on a resample that
    # repeats them less often passes the logit bound of 30.
    x = np.linspace(-2.0, 2.0, 40)
    y = (x > 0).astype(float)
    y[[19, 20]] = 1.0 - y[[19, 20]]
    return Dataset(y, x.reshape(-1, 1), ("x",))


class TestWarmStart:
    """GLM refits on resamples start two fixed-information Newton steps from the sample fit; OLS needs no start."""

    @pytest.mark.parametrize("name", ["ols", "logit", "poisson", "separated_logit"])
    def test_refits_start_one_newton_step_from_the_sample_fit(self, monkeypatch, name):
        if name == "separated_logit":
            ds, family = separated_one_step_sample(), BERNOULLI
        else:
            family, response, regressors = CHARGES_FITS[name]
            ds = charges(response, regressors)
        calls = spy_fit_weighted(monkeypatch)
        with contextlib.suppress(ExcessiveFailureError):  # most separated-sample resamples separate
            xy_bootstrap(ds, family, B=60, seed=3)
        chunk = CHUNK_ELEMENTS // ds.n
        assert [w.shape[0] for w, _, _ in calls] == [chunk] * -(-60 // chunk)
        if family is GAUSSIAN:
            assert all(start is None for _, start, _ in calls)
            return
        fit = fit_glm(ds, family)
        at_beta_hat = 0
        for w, start, _ in calls:
            assert start.shape == w.shape[:1] + fit.beta_hat.shape
            for start_r, expected in zip(start, one_step_starts(fit, w)):
                assert np.array_equal(start_r, expected)  # bit for bit
                at_beta_hat += np.array_equal(start_r, fit.beta_hat)
        # No charges row falls back; 38 of the separated sample's 60 replicates do.
        assert at_beta_hat == (38 if name == "separated_logit" else 0)

    @pytest.mark.parametrize("broken", ["singular_information", "non_finite_step", "far_poisson_step"])
    def test_unusable_one_step_starts_fall_back_to_the_sample_fit(self, monkeypatch, broken):
        family, response, regressors = CHARGES_FITS["poisson"]
        ds = charges(response, regressors)
        fit = fit_glm(ds, family)
        if broken == "singular_information":  # zero means give a zero information matrix
            fit = dataclasses.replace(fit, fitted=np.zeros(ds.n))
            with pytest.raises(SingularSystemError):
                fit.information_inverse
        elif broken == "non_finite_step":  # residuals this large overflow the score
            fit = dataclasses.replace(fit, residuals=np.full(ds.n, np.finfo(float).max))
        else:  # a finite step whose means exp(x_i'start) overflow: every refit from it fails to converge
            fit = dataclasses.replace(fit, residuals=np.full(ds.n, 1e300))
        monkeypatch.setattr(bootstrap, "fit_glm", lambda ds, family: fit)
        calls = spy_fit_weighted(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xy_bootstrap(ds, family, B=20, seed=1)
        for _, start, fits in calls:
            assert np.array_equal(start, np.tile(fit.beta_hat, (len(start), 1)))  # bit for bit
            assert fits.errors == (None,) * len(start)

    @pytest.mark.parametrize("name", ["logit", "poisson"])
    def test_warm_start_saves_newton_iterations(self, monkeypatch, name):
        # Cold starts take 428 (logit) and 400 (poisson) iterations in
        # all over these chunks; starts at the sample fit 334 and 327,
        # one-step starts 271 and 259, two-step starts 240 and 240.
        family, response, regressors = CHARGES_FITS[name]
        ds = charges(response, regressors)
        calls = spy_fit_weighted(monkeypatch)
        xy_bootstrap(ds, family, B=80, seed=1)
        assert len(calls) == 10
        assert sum(int(fits.iterations.sum()) for _, _, fits in calls) <= 250

    def test_failed_sample_fit_starts_refits_cold(self, monkeypatch):
        x = np.linspace(-2.0, 2.0, 40)
        ds = Dataset((x > 0).astype(float), x.reshape(-1, 1), ("x",))  # fully separated
        with pytest.raises(SeparationError):
            fit_glm(ds, BERNOULLI)
        reference = refit_each_replicate(ds, BERNOULLI, 200, 3)
        expected = dict(Counter(type(r).__name__ for r in reference))
        sample_fit_errors = []

        def spy_fit_glm(ds, family):
            try:
                return fit_glm(ds, family)
            except LeanRegError as exc:
                sample_fit_errors.append(exc)
                raise

        monkeypatch.setattr(bootstrap, "fit_glm", spy_fit_glm)
        calls = spy_fit_weighted(monkeypatch)
        with pytest.raises(ExcessiveFailureError) as exc_info:
            xy_bootstrap(ds, BERNOULLI, B=200, seed=3)
        assert exc_info.value.reasons == expected
        assert [type(e) for e in sample_fit_errors] == [SeparationError]
        assert all(start is None for _, start, _ in calls)

    @pytest.mark.parametrize("name, most_steps", [("logit", 380), ("poisson", 380)])
    def test_at_most_one_loss_evaluation_per_newton_step(self, monkeypatch, name, most_steps):
        # At the sample-fit start a chunk made more evaluations than steps
        # (818 against 607 logit steps, 627 against 567 poisson): the
        # last steps, below the convergence tolerance, were evaluated
        # and sometimes halved ten times.  One-step starts brought that
        # to 374 against 499 and 363 against 488.  A step d with
        # |d| @ max_i |x_i| <= 1 is taken whole, which left one logit
        # row's step, whose bound read 1.0005, evaluated.  Two-step starts
        # take 376 logit and 375 poisson steps, and no step is evaluated.
        family, response, regressors = CHARGES_FITS[name]
        ds = charges(response, regressors)
        evaluations = []

        def loss_change(*args):
            evaluations.append(None)
            return family.loss_change(*args)

        counting = dataclasses.replace(family, loss_change=loss_change)
        calls = spy_fit_weighted(monkeypatch)
        per_chunk, fit_weighted = [], bootstrap.fit_weighted

        def count_evaluations(*args, **kwargs):
            before = len(evaluations)
            fits = fit_weighted(*args, **kwargs)
            per_chunk.append(len(evaluations) - before)
            return fits

        monkeypatch.setattr(bootstrap, "fit_weighted", count_evaluations)
        draws = xy_bootstrap(ds, counting, B=1000, seed=11)
        assert draws.failures == 0
        steps = [int(fits.iterations.max()) for _, _, fits in calls]
        assert len(steps) == len(per_chunk) == 125
        assert sum(steps) <= most_steps
        assert all(e <= s for e, s in zip(per_chunk, steps))
        assert sum(per_chunk) == 0


class TestResidualBootstrap:
    @pytest.mark.parametrize(
        "run", [lambda ds: xy_bootstrap(ds, GAUSSIAN, B=0, seed=1),
                lambda ds: residual_bootstrap(ds, B=0, seed=1)],
        ids=["xy", "residual"],
    )
    def test_no_replicates_rejected(self, run):
        ds = Dataset([1.0, 2.0, 4.0], [[0.0], [1.0], [2.0]], ("x",))
        with pytest.raises(DomainError, match="^B must be at least 1, got 0$"):
            run(ds)

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
        draws = BootstrapDraws(draws=np.ones((20, 2)), failures=0)
        assert np.all(bootstrap_se(draws) == 0.0)

    def test_two_draw_sd(self):
        draws = BootstrapDraws(draws=np.array([[0.0, 0.0], [0.0, 2.0]]), failures=0)
        assert bootstrap_se(draws)[1] == pytest.approx(np.sqrt(2.0))

    def test_insufficient_draws(self):
        draws = BootstrapDraws(draws=np.ones((1, 2)), failures=0)
        with pytest.raises(InsufficientDrawsError):
            bootstrap_se(draws)


class TestNormalityDiagnostic:
    def test_self_paired_quantiles_correlate_exactly(self):
        m = 200
        positions = (np.arange(1, m + 1) - 0.5) / m
        q = np.array([NormalDist().inv_cdf(p) for p in positions])
        draws = BootstrapDraws(draws=q.reshape(-1, 1), failures=0)
        rep = normality_diagnostic(draws, 0)
        assert rep.qq_correlation == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(rep.theoretical_quantiles, q)
        # scipy's ndtri, an independent implementation, agrees to rounding.
        assert np.max(np.abs(rep.theoretical_quantiles - ndtri(positions))) <= 2e-15

    def test_skewed_two_point_mass_low_correlation(self):
        values = np.concatenate([np.zeros(95), np.ones(5)])
        draws = BootstrapDraws(draws=values.reshape(-1, 1), failures=0)
        rep = normality_diagnostic(draws, 0)
        assert rep.qq_correlation < 0.95

    def test_well_behaved_slope_draws_high_correlation(self):
        ds = sample(linear_pop(), 400, seed=2)
        draws = xy_bootstrap(ds, GAUSSIAN, B=1000, seed=15)
        rep = normality_diagnostic(draws, 1)
        assert rep.qq_correlation > 0.995

    def test_insufficient_draws(self):
        draws = BootstrapDraws(draws=np.ones((5, 1)), failures=0)
        with pytest.raises(InsufficientDrawsError):
            normality_diagnostic(draws, 0)

    def test_constant_draws_nan_without_warning(self):
        # The suite turns warnings into errors, so a leaked RuntimeWarning fails here.
        draws = BootstrapDraws(draws=np.full((20, 1), 3.0), failures=0)
        assert np.isnan(normality_diagnostic(draws, 0).qq_correlation)

    def test_index_out_of_range(self):
        draws = BootstrapDraws(draws=np.ones((20, 2)), failures=0)
        with pytest.raises(CoefficientIndexError):
            normality_diagnostic(draws, 2)

    def test_csv_export(self):
        values = np.linspace(-1, 1, 12)
        draws = BootstrapDraws(draws=values.reshape(-1, 1), failures=0)
        rep = normality_diagnostic(draws, 0)
        lines = rep.to_csv_text().strip().splitlines()
        assert lines[0] == "theoretical_quantile,draw"
        assert len(lines) == 13
