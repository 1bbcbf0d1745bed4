"""Exact population oracles: best-approximation coefficients,
residual decomposition, orthogonality identities, sampling, and
coverage experiments."""

import contextlib
import json
import math
import warnings
from importlib import resources
from dataclasses import astuple
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leanreg import bootstrap, fitting, population
from leanreg.bootstrap import bootstrap_se, residual_bootstrap, xy_bootstrap
from leanreg.cli import main
from leanreg.covariance import conventional_cov, sandwich_cov, sandwich_stack, standard_errors
from leanreg.exceptions import (
    CollinearPopulationError,
    DataError,
    DimensionError,
    DomainError,
    ExcessiveFailureError,
    InsufficientDrawsError,
    LeanRegError,
    PopulationSchemaError,
)
from leanreg.fitting import GAUSSIAN, dispersion_stack, fit_glm, fit_ols_counts
from leanreg.population import (
    PROB_TOL,
    CoverageResult,
    DiscretePopulation,
    NoiseLaw,
    check_orthogonality,
    coverage_experiment,
    decompose,
    load_population_file,
    make_population,
    normal_quadrature_law,
    population_beta,
    regressor_shift_experiment,
    sample,
    uniform_grid_law,
)
from leanreg.rng import substream

THIRDS = [1.0 / 3.0] * 3


def quadratic_mu():
    return {"kind": "polynomial", "coefficients": [0.0, 0.0, 1.0]}


def random_population(rng):
    """Random support (m <= 10), probs, polynomial mu (degree <= 4),
    and a randomly chosen noise law."""
    m = int(rng.integers(2, 11))
    support = np.sort(rng.uniform(-3, 3, size=m)).reshape(-1, 1)
    probs = rng.dirichlet(np.ones(m))
    degree = int(rng.integers(0, 5))
    coeffs = rng.uniform(-2, 2, size=degree + 1)
    mu = {"kind": "polynomial", "coefficients": coeffs.tolist()}
    kind = rng.choice(["none", "gaussian", "two_point", "bernoulli"])
    if kind == "gaussian":
        noise = {"kind": "gaussian", "sigma": rng.uniform(0.1, 2.0, size=m).tolist()}
    elif kind == "two_point":
        noise = {"kind": "two_point", "a": rng.uniform(0.1, 2.0, size=m).tolist()}
    elif kind == "bernoulli":
        vals = rng.uniform(0.05, 0.95, size=m)
        mu = {"kind": "table", "values": vals.tolist()}
        noise = {"kind": "bernoulli"}
    else:
        noise = {"kind": "none"}
    return make_population(support, probs, mu, noise)


class TestPopulationBeta:
    def test_symmetric_quadratic(self):
        pop = make_population([[-1.0], [0.0], [1.0]], THIRDS, quadratic_mu())
        beta = population_beta(pop)
        assert beta == pytest.approx([2.0 / 3.0, 0.0], abs=1e-14)

    def test_linear_mu_recovered_exactly(self):
        pop = make_population(
            [[-2.0], [0.5], [3.0]],
            [0.5, 0.3, 0.2],
            {"kind": "polynomial", "coefficients": [1.5, -0.75]},
        )
        assert population_beta(pop) == pytest.approx([1.5, -0.75], abs=1e-12)

    def test_quadratic_on_0_1_2(self):
        pop = make_population([[0.0], [1.0], [2.0]], THIRDS, quadratic_mu())
        assert population_beta(pop) == pytest.approx([-1.0 / 3.0, 2.0], abs=1e-12)

    def test_collinear_population_rejected(self):
        # Every entry point that needs the population coefficients
        # raises the same error; the coverage experiment before it samples.
        mu = {"kind": "table", "values": [0.0, 1.0]}
        collinear = ([[1.0], [1.0]], [0.5, 0.5])
        pop = make_population(*collinear, mu)
        singular = "^population second-moment matrix is singular "
        with pytest.raises(CollinearPopulationError, match=singular):
            population_beta(pop)
        with mock.patch.object(population, "_draws", side_effect=AssertionError("sampled")):
            with pytest.raises(CollinearPopulationError, match=singular):
                coverage_experiment(pop, n=10, replications=2, methods=["sandwich"])
        with pytest.raises(CollinearPopulationError, match=singular):
            regressor_shift_experiment(mu, None, collinear, ([[0.0], [1.0]], [0.5, 0.5]))

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(12)
        pop = random_population(rng)
        beta = population_beta(pop)
        perm = rng.permutation(pop.m)
        pop2 = make_population(
            pop.points[perm],
            pop.probs[perm],
            {"kind": "table", "values": pop.mu_values[perm].tolist()},
            {"kind": "gaussian", "sigma": np.ones(pop.m)}
            if pop.noise.kind == "gaussian"
            else None,
        )
        beta2 = population_beta(pop2)
        assert np.max(np.abs(beta - beta2)) <= 1e-12 * max(1.0, np.max(np.abs(beta)))


class TestDecompose:
    def test_quadratic_nonlinearity_values(self):
        pop = make_population([[-1.0], [0.0], [1.0]], THIRDS, quadratic_mu())
        dec = decompose(pop)
        assert dec.eta_at == pytest.approx([1.0 / 3.0, -2.0 / 3.0, 1.0 / 3.0], abs=1e-14)

    def test_linear_mu_eta_vanishes(self):
        pop = make_population(
            [[0.0], [1.0], [2.0]], THIRDS, {"kind": "polynomial", "coefficients": [2.0, 3.0]}
        )
        dec = decompose(pop)
        assert np.max(np.abs(dec.eta_at)) < 1e-12

    def test_centering_moments_forced(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            dec = decompose(random_population(rng))
            assert abs(dec.moments["E_eta"]) < 1e-12
            assert np.max(np.abs(dec.moments["E_X_eta"])) < 1e-12

    def test_meat_matrix_includes_noise_variance(self):
        pop = make_population(
            [[-1.0], [1.0]], [0.5, 0.5],
            {"kind": "polynomial", "coefficients": [0.0, 1.0]},
            {"kind": "gaussian", "sigma": [1.0, 2.0]},
        )
        dec = decompose(pop)
        # eta = 0; E[delta^2 x x'] reduces to E[sigma^2(x) x x'].
        expected = 0.5 * (1.0 * np.outer([1, -1], [1, -1]) + 4.0 * np.outer([1, 1], [1, 1]))
        assert np.allclose(dec.moments["E_delta2_XX"], expected, atol=1e-14)

    # A given beta is a vector of finite numbers, one per coefficient; no call warns.
    @pytest.mark.parametrize("beta, error", [
        ([math.nan, 0.0], DomainError),
        ([math.inf, 0.0], DomainError),
        ([1e200, 0.0], DomainError),  # finite, but its moments are not
        (["a", "b"], DataError),
        ([True, False], None),  # bools count as 0 and 1
        ([None, 1.0], DataError),
        ([1.0, [2.0]], DataError),
        ([1j, 0.0], DataError),
        ([0.0], DimensionError),
        ([0.0, 1.0, 2.0], DimensionError),
        ([[0.0, 1.0]], DimensionError),
        (0.5, DimensionError),
        ([1, 2], None),
        (np.array([0.5, 0.25]), None),
    ], ids=repr)
    def test_beta_is_a_finite_real_vector_of_length_k(self, beta, error):
        pop = make_population([[-1.0], [1.0]], [0.5, 0.5], [0.0, 1.0], {"kind": "gaussian"})
        for call in (lambda: decompose(pop, beta=beta), lambda: check_orthogonality(pop, beta=beta)):
            if error is None:
                call()
            else:
                with pytest.raises(error, match=r"^beta |^a population moment at beta \[1e\+200, 0\.0\] "
                                                r"passes the float range$"):
                    call()


class TestOrthogonality:
    def test_randomized_populations_all_pass(self):
        rng = np.random.default_rng(100)
        for _ in range(60):
            report = check_orthogonality(random_population(rng), tolerance=1e-12)
            assert report.all_pass, [c for c in report.checks if not c.passed]

    def test_negative_control_perturbed_beta(self):
        pop = make_population([[0.0], [1.0], [2.0]], THIRDS, quadratic_mu())
        beta = population_beta(pop) + 0.1
        report = check_orthogonality(pop, tolerance=1e-12, beta=beta)
        assert not report.all_pass
        names = [c.name for c in report.checks if not c.passed]
        assert any("delta" in n for n in names)

    def test_two_point_noise_exact(self):
        pop = make_population(
            [[-1.0], [0.5], [2.0]], THIRDS, quadratic_mu(),
            {"kind": "two_point", "a": [0.5, 1.5, 2.5]},
        )
        report = check_orthogonality(pop, tolerance=0.0)  # exact zeros
        eps_checks = [c for c in report.checks if "eps" in c.name]
        assert all(c.value == 0.0 for c in eps_checks)


class TestSample:
    def test_no_noise_reproduces_mu(self):
        pop = make_population([[0.0], [1.0], [2.0]], THIRDS, quadratic_mu())
        ds = sample(pop, 500, seed=3)
        assert np.array_equal(ds.response, ds.regressors[:, 0] ** 2)

    def test_no_observations_rejected(self):
        pop = make_population([[0.0], [1.0]], [0.5, 0.5], [0.0, 1.0])
        with pytest.raises(DomainError, match="^n must be at least 1, got 0$"):
            sample(pop, 0, seed=1)

    def test_seed_determinism(self):
        pop = make_population(
            [[0.0], [1.0], [2.0]], THIRDS, quadratic_mu(), {"kind": "gaussian", "sigma": 1.0}
        )
        a = sample(pop, 200, seed=11)
        b = sample(pop, 200, seed=11)
        assert np.array_equal(a.response, b.response)
        assert np.array_equal(a.regressors, b.regressors)
        c = sample(pop, 200, seed=12)
        assert not np.array_equal(a.response, c.response)

    def test_mean_matches_enumerated_expectation(self):
        pop = make_population(
            [[-1.0], [0.0], [2.0]], [0.5, 0.25, 0.25], quadratic_mu(),
            {"kind": "gaussian", "sigma": 0.5},
        )
        e_mu = float(pop.probs @ pop.mu_values)
        var_y = float(pop.probs @ (pop.mu_values**2 + pop.noise_variance())) - e_mu**2
        n = 1_000_000
        ds = sample(pop, n, seed=42)
        mc_se = np.sqrt(var_y / n)
        assert abs(float(np.mean(ds.response)) - e_mu) <= 4.0 * mc_se

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        # Integer weights: zeros, which give support points of probability
        # 0, are common.
        weights=st.lists(st.integers(0, 4), min_size=1, max_size=12).filter(any),
        # A shift of a few 1e-13 leaves the sum within 1e-12 of 1, not at 1.
        shift=st.integers(-4, 4),
        n=st.integers(1, 300),
        seed=st.integers(0, 2**128 - 1),
    )
    def test_sample_draws_what_numpy_choice_draws(self, weights, shift, n, seed):
        probs = np.array(weights, dtype=float) / sum(weights)
        probs[np.argmax(probs)] += shift * 1e-13
        assume(abs(float(np.sum(probs)) - 1.0) <= PROB_TOL)
        m = probs.size
        pop = make_population(
            np.arange(m, dtype=float).reshape(-1, 1), probs,
            {"kind": "table", "values": np.linspace(-1.0, 1.0, m)},
            {"kind": "gaussian", "sigma": 0.5},
        )
        ds = sample(pop, n, seed)
        rng = substream(seed)
        idx = rng.choice(m, size=n, p=pop.probs)
        # The noise comes next from the same stream, so it must be
        # where choice leaves it.
        y = pop.mu_values[idx] + rng.standard_normal(n) * 0.5
        assert np.array_equal(ds.regressors[:, 0], idx.astype(float))
        assert np.array_equal(ds.response, y)
        # A draw tells an unscaled CDF apart only within 1e-12 of a step.
        assert pop.cdf[-1] == 1.0

    def test_bernoulli_sampling_is_binary(self):
        pop = make_population(
            [[-1.0], [1.0]], [0.5, 0.5],
            {"kind": "table", "values": [0.2, 0.7]}, {"kind": "bernoulli"},
        )
        ds = sample(pop, 1000, seed=8)
        assert set(np.unique(ds.response)) <= {0.0, 1.0}


class GivenUniforms:
    """A stand-in generator whose uniforms are the given values."""

    def __init__(self, u):
        self.u = u

    def random(self, out):
        out[:] = self.u


def check_bucket_lookup(probs, seed=0):
    """The indices a population with ``probs`` draws equal the CDF's binary search at hard uniforms.

    They are every bucket edge b/G and the double below it, every CDF
    value and its two neighbours, and random draws; returns G.
    """
    m = len(probs)
    pop = make_population(np.arange(m, dtype=float), probs, np.zeros(m))  # no noise draws
    size = pop._buckets[0].size
    edges = np.arange(size) / size
    cdf = pop.cdf
    u = np.concatenate([
        edges, np.nextafter(edges, 0.0), cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
        np.random.default_rng(seed).random(2000),
    ])
    u = u[u < 1.0]
    idx, _ = population._draws(pop, u.size, 1, [GivenUniforms(u)])
    assert np.array_equal(idx[0], cdf.searchsorted(u, side="right"))
    return size


class TestBucketTable:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        # Zero weights repeat a CDF value; weights near 1e-300 put several
        # CDF values in one bucket, whose draws fall back to the search.
        weights=st.lists(st.sampled_from([0.0, 1e-300, 3e-300, 1e-17, 0.25, 1.0, 3.0]), min_size=1, max_size=40)
        .filter(any),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lookup_is_the_binary_search(self, weights, seed):
        probs = np.array(weights) / sum(weights)
        assume(abs(float(np.sum(probs)) - 1.0) <= PROB_TOL)
        assert check_bucket_lookup(probs, seed) == 2**12

    @pytest.mark.parametrize("law, buckets", [
        (lambda: normal_quadrature_law(31)[1], 2**12),  # tail weights down to 2.6e-22 crowd the end buckets
        (lambda: normal_quadrature_law(101)[1], 2**13),
        (lambda: np.ones(1), 2**12),
        (lambda: np.random.default_rng(1).dirichlet(np.full(20_000, 0.3)), 2**20),  # past the cap
    ], ids=["quadrature31", "quadrature101", "one_point", "m20000"])
    def test_lookup_on_laws(self, law, buckets):
        assert check_bucket_lookup(law()) == buckets


class TestRegressorShift:
    def test_quadratic_shift_exact_values(self):
        res = regressor_shift_experiment(
            quadratic_mu(),
            None,
            (np.array([[0.0], [1.0], [2.0]]), np.array(THIRDS)),
            (np.array([[0.0], [1.0], [2.0]]), np.array([0.6, 0.3, 0.1])),
        )
        assert res["beta_1"] == pytest.approx([-1.0 / 3.0, 2.0], abs=1e-12)
        assert res["beta_2"] == pytest.approx([-2.0 / 15.0, 5.0 / 3.0], abs=1e-12)
        assert res["max_abs_difference"] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_linear_mu_no_shift(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m1, m2 = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            law1 = (rng.uniform(-3, 3, (m1, 1)), rng.dirichlet(np.ones(m1)))
            law2 = (rng.uniform(-3, 3, (m2, 1)), rng.dirichlet(np.ones(m2)))
            res = regressor_shift_experiment(
                {"kind": "polynomial", "coefficients": [0.7, -1.3]}, None, law1, law2
            )
            assert res["max_abs_difference"] <= 1e-12


class TestCoverageExperiment:
    def linear_pop(self):
        return make_population(
            [[-1.5], [-0.5], [0.5], [1.5]],
            [0.25] * 4,
            {"kind": "polynomial", "coefficients": [1.0, 2.0]},
            {"kind": "gaussian", "sigma": 1.0},
        )

    def test_conventional_coverage_correct_specification(self):
        results = coverage_experiment(
            self.linear_pop(), n=200, replications=1000,
            methods=["conventional"], level=0.95, seed=314,
        )
        slope = next(r for r in results if r.coefficient == 1)
        assert 0.93 <= slope.coverage <= 0.97
        assert slope.replications == 1000
        assert slope.mean_width > 0
        assert slope.mc_se == pytest.approx(
            np.sqrt(slope.coverage * (1 - slope.coverage) / 1000)
        )

    def test_no_observations_rejected(self):
        with pytest.raises(DomainError, match="^n must be at least 1, got 0$"):
            coverage_experiment(self.linear_pop(), n=0, replications=5,
                                methods=["conventional"], seed=0)

    def test_level_one_rejected(self):
        with pytest.raises(DomainError):
            coverage_experiment(
                self.linear_pop(), n=50, replications=5,
                methods=["conventional"], level=1.0, seed=0,
            )

    def test_empty_methods_rejected(self):
        with pytest.raises(DomainError):
            coverage_experiment(
                self.linear_pop(), n=50, replications=5, methods=[], level=0.95, seed=0
            )

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError):
            coverage_experiment(
                self.linear_pop(), n=50, replications=5,
                methods=["jackknife"], level=0.95, seed=0,
            )

    def test_bootstrap_method_requires_B(self):
        with pytest.raises(DomainError):
            coverage_experiment(
                self.linear_pop(), n=50, replications=5,
                methods=["xy-bootstrap"], level=0.95, seed=0,
            )

    def test_one_bootstrap_replicate_rejected_before_sampling(self):
        message = "^bootstrap SE needs at least 2 retained draws, have 1$"
        with mock.patch("leanreg.population._draws", side_effect=AssertionError):
            with pytest.raises(InsufficientDrawsError, match=message):
                coverage_experiment(
                    self.linear_pop(), n=50, replications=5,
                    methods=["sandwich", "residual-bootstrap"], B=1, seed=0,
                )

    def test_determinism(self):
        kwargs = dict(n=100, replications=50, methods=["sandwich"], level=0.9, seed=77)
        a = coverage_experiment(self.linear_pop(), **kwargs)
        b = coverage_experiment(self.linear_pop(), **kwargs)
        assert [(r.coverage, r.mean_width) for r in a] == [
            (r.coverage, r.mean_width) for r in b
        ]

    def test_analytic_methods_fit_on_the_support(self):
        # No replication is fitted as a sample: neither the stacked sample
        # fit nor the per-draw information inverse runs, and no Dataset is built.
        guards = [
            mock.patch.object(module, name, side_effect=AssertionError(name), create=True)
            for module in (fitting, population)
            for name in ("fit_ols_stack", "information_inverse_stack", "Dataset")
        ]
        with contextlib.ExitStack() as stack:
            for guard in guards:
                stack.enter_context(guard)
            results = coverage_experiment(
                self.linear_pop(), n=40, replications=70,
                methods=["conventional", "sandwich"], seed=3,
            )
        assert [r.replications for r in results] == [70] * 4

    def test_bootstrap_methods_run(self):
        results = coverage_experiment(
            self.linear_pop(), n=60, replications=30,
            methods=["xy-bootstrap", "residual-bootstrap"],
            level=0.9, B=60, seed=5,
        )
        for r in results:
            assert 0.6 <= r.coverage <= 1.0
        assert {r.method for r in results} == {"xy-bootstrap", "residual-bootstrap"}


def oracle_stream(seed, *path):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))


def oracle_seed(seed, *path):
    return int(np.random.SeedSequence(seed, spawn_key=path).generate_state(1, np.uint64)[0])


def replication_sample(pop, n, seed, r):
    """Replication r's sample, as the library draws it: n draws from the oracle stream (seed, 0, r)."""
    idx, y = population._draws(pop, n, 1, [oracle_stream(seed, 0, r)])
    return population._dataset(pop, idx[0], y[0])


def oracle_draw(pop, n, rng):
    """Reference: ``(idx, y)`` of n draws from ``rng``, by ``Generator.choice`` and the noise kind's own numpy call."""
    idx = rng.choice(pop.m, size=n, p=pop.probs)
    mu = pop.mu_values[idx]
    return idx, mu + DRAW_ORACLES[pop.noise.kind][1](rng, mu, pop.noise.scale[idx])


def support_fit(pop, idx, y):
    """Reference: one sample's OLS fit on the support, alone: ``(beta, inverse, ssr)``.

    ``ssr`` holds each support point's sum of squared residuals; a
    failed fit raises its error.
    """
    counts = np.bincount(idx, minlength=pop.m)[None]
    sums = np.bincount(idx, y, minlength=pop.m)[None]
    beta, inverse, errors = fit_ols_counts(pop.support, counts, sums)
    if errors[0] is not None:
        raise errors[0]
    residuals = y - (pop.support @ beta[..., None])[0, idx, 0]
    return beta[0], inverse, np.bincount(idx, residuals**2, minlength=pop.m)[None]


def support_ses(pop, n, inverse, ssr, method):
    """Reference: a support fit's conventional or sandwich SEs, from its cells."""
    if method == "sandwich":
        return standard_errors(sandwich_stack(inverse, (pop.support.T * ssr[:, None]) @ pop.support))[0]
    phi, errors = dispersion_stack(ssr.sum(axis=1), n, GAUSSIAN, pop.support.shape[1])
    if errors[0] is not None:
        raise errors[0]
    return standard_errors(phi[:, None, None] * inverse)[0]


def replications_one_by_one(pop, n, count, methods, B, seed):
    """Reference: coverage replications evaluated one at a time, with no blocks.

    Each draws its sample by :func:`oracle_draw`, is fitted on the
    support alone (:func:`support_fit`), as the coverage experiment fits
    it, and bootstraps its sample.
    Returns, per replication, ``(beta_hat, SEs per method)`` or the
    error it raised, and the number of warnings it issued.
    """
    results, warned = [], []
    for r in range(count):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            idx, y = oracle_draw(pop, n, oracle_stream(seed, 0, r))
            ds = population._dataset(pop, idx, y)
            try:
                beta, inverse, ssr = support_fit(pop, idx, y)
                ses = {}
                for m in methods:
                    if m in ("conventional", "sandwich"):
                        ses[m] = support_ses(pop, n, inverse, ssr, m)
                    elif m == "xy-bootstrap":
                        draws = xy_bootstrap(ds, GAUSSIAN, B, oracle_seed(seed, 1, r))
                        ses[m] = bootstrap_se(draws)
                    else:
                        draws = residual_bootstrap(ds, B, oracle_seed(seed, 2, r))
                        ses[m] = bootstrap_se(draws)
                results.append((beta, ses))
            except LeanRegError as exc:
                results.append(exc)
        warned.append(len(caught))
    return results, warned


def summarize(results, methods, beta_true, level):
    """Reference: the coverage results of per-replication outcomes, summed in replication order."""
    kept, _ = bootstrap.tolerate_failures(results, "coverage replications")
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    retained = len(kept)
    beta_hat = np.array([beta for beta, _ in kept])
    summary = []
    for m in methods:
        half = z * np.array([ses[m] for _, ses in kept])
        covered = np.sum(np.abs(beta_hat - beta_true) <= half, axis=0)
        width = np.cumsum(2.0 * half, axis=0)[-1]
        for j in range(len(beta_true)):
            summary.append(CoverageResult(
                method=m, coefficient=j, level=level, coverage=float(covered[j] / retained),
                mean_width=float(width[j] / retained), replications=retained,
            ))
    return summary


def outcome(run):
    """``(failure reasons, coverage results or None, warnings)`` of a coverage run."""
    real = bootstrap.tolerate_failures
    reasons = {}

    def spy(results, what):
        try:
            kept, counts = real(results, what)
        except ExcessiveFailureError as exc:
            counts = exc.reasons
            raise
        finally:
            if what == "coverage replications":
                reasons.update(counts)
        return kept, counts

    with warnings.catch_warnings(record=True) as caught, mock.patch.object(
        bootstrap, "tolerate_failures", spy
    ):
        warnings.simplefilter("always")
        try:
            results = run()
        except ExcessiveFailureError:
            results = None
    return reasons, results, len(caught)


def two_point_pop(p0):
    return make_population(
        [[0.0], [1.0]], [p0, 1.0 - p0],
        {"kind": "polynomial", "coefficients": [0.0, 1.0]},
        {"kind": "gaussian", "sigma": 1.0},
    )


def quadratic_pop():
    sup, probs = normal_quadrature_law(31)
    return make_population(sup, probs, quadratic_mu(), {"kind": "gaussian", "sigma": 1.0})


def unit_mu_pop(noise):
    """The 31-point normal grid with mu(x) = exp(-x^2 / 2), which lies in (0, 1], and ``noise``."""
    sup, probs = normal_quadrature_law(31)
    return make_population(sup, probs, np.exp(-sup[:, 0] ** 2 / 2.0), noise)


# name: (population, n, methods, B, level, seed, CHUNK_ELEMENTS or None to keep it).
# A smaller chunk bound makes small blocks, so cases with tiny n or
# bootstrap methods cross several block edges at a modest cost.
BLOCK_CASES = {
    "analytic": (quadratic_pop, 200, ["sandwich", "conventional"], None, 0.95, 21, None),
    "four_methods": (
        quadratic_pop, 60,
        ["conventional", "xy-bootstrap", "sandwich", "residual-bootstrap"], 20, 0.9, 22, 600,
    ),
    "singular_draws": (lambda: two_point_pop(0.7), 8, ["sandwich"], None, 0.9, 13, 64),
    "threshold_breach": (lambda: two_point_pop(0.95), 8, ["sandwich"], None, 0.9, 13, 64),
    "n_equals_k": (lambda: two_point_pop(0.5), 2, ["sandwich", "conventional"], None, 0.9, 5, 20),
    "n_equals_k_sandwich": (lambda: two_point_pop(0.5), 2, ["sandwich"], None, 0.9, 5, 20),
    "n_below_k": (lambda: two_point_pop(0.5), 1, ["sandwich"], None, 0.9, 5, 20),
    "boot_first_singular": (lambda: two_point_pop(0.7), 8, ["xy-bootstrap", "sandwich"], 20, 0.9, 13, 64),
    "two_point_noise": (
        lambda: unit_mu_pop({"kind": "two_point", "a": 0.5}), 40,
        ["conventional", "sandwich", "xy-bootstrap"], 20, 0.9, 23, 400,
    ),
    "bernoulli_noise": (
        lambda: unit_mu_pop({"kind": "bernoulli"}), 40,
        ["sandwich", "residual-bootstrap", "conventional"], 20, 0.9, 24, 400,
    ),
    "no_noise": (lambda: unit_mu_pop({"kind": "none"}), 50, ["conventional", "sandwich"], None, 0.95, 25, None),
}


def huge_noise_pop(sigma):
    # The noise variance sigma^2 is finite; a sample's squared residuals
    # or their sums, or the sandwich meat, may not be.
    return make_population([[0.0], [1.0], [2.0]], [1 / 3] * 3, [0.0, 1.0, 4.0],
                           {"kind": "gaussian", "sigma": sigma})


class TestCoverageOverflow:
    @pytest.mark.parametrize("sigma", [1e154, 3e153], ids=["squares", "sums"])
    @pytest.mark.parametrize("methods", [["conventional", "sandwich"], ["sandwich"], ["conventional"]])
    def test_covariance_past_float_range_fails_typed(self, sigma, methods):
        # Every replication fails with a DomainError and no numpy warning leaks.
        with pytest.raises(ExcessiveFailureError) as exc_info:
            coverage_experiment(huge_noise_pop(sigma), 50, 20, methods, seed=1)
        assert exc_info.value.reasons == {"DomainError": 20}

    @pytest.mark.parametrize("method", ["xy-bootstrap", "residual-bootstrap"])
    def test_bootstrap_se_past_float_range_fails_typed(self, method):
        # Draws whose standard deviation, or a base fit whose SSE, passes
        # the float range: a DomainError per replication, no warning.
        with pytest.raises(ExcessiveFailureError) as exc_info:
            coverage_experiment(huge_noise_pop(1.3e154), 50, 20, [method], B=200, seed=1)
        assert exc_info.value.reasons == {"DomainError": 20}

    def test_a_few_overflowing_replications_are_excluded(self):
        results = coverage_experiment(huge_noise_pop(1.2e153), 50, 100, ["conventional", "sandwich"], seed=1)
        assert {r.replications for r in results} == {96}
        assert all(np.isfinite(r.mean_width) for r in results)


class TestCoverageBlocks:
    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_matches_replications_one_by_one(self, case):
        make_pop, n, methods, B, level, seed, chunk_elements = BLOCK_CASES[case]
        pop = make_pop()
        chunk_elements = chunk_elements or bootstrap.CHUNK_ELEMENTS
        c = max(1, chunk_elements // n)
        counts = (1, c - 1, c, c + 1, 2 * c + 3)
        beta_true = population_beta(pop)
        # The bootstraps inside the replications are chunked by the same bound.
        with mock.patch.object(bootstrap, "CHUNK_ELEMENTS", chunk_elements):
            reference, warned = replications_one_by_one(pop, n, counts[-1], methods, B, seed)
            for count in counts:
                got = outcome(lambda: coverage_experiment(
                    pop, n=n, replications=count, methods=methods, level=level, B=B, seed=seed,
                ))
                want = outcome(lambda: summarize(reference[:count], methods, beta_true, level))
                assert got[0] == want[0]
                if want[1] is None:
                    assert got[1] is None
                else:
                    assert [astuple(r) for r in got[1]] == [astuple(r) for r in want[1]]
                assert got[2] == sum(warned[:count])

    # In the other two cases every replication fails.
    @pytest.mark.parametrize("case", sorted(set(BLOCK_CASES) - {"n_below_k", "n_equals_k"}))
    def test_each_replication_keeps_its_bits(self, case):
        # A sum of widths can absorb a last-bit change in one replication's
        # SE, so this compares each replication's beta and analytic SEs,
        # as the blocked run forms them, with its evaluation alone.
        make_pop, n, methods, B, level, seed, chunk_elements = BLOCK_CASES[case]
        pop = make_pop()
        chunk_elements = chunk_elements or bootstrap.CHUNK_ELEMENTS
        count = 2 * max(1, chunk_elements // n) + 3
        analytic = [m for m in methods if m in ("conventional", "sandwich")]
        betas, ses = [], []

        def fit_spy(*args):
            fits = fit_ols_counts(*args)
            betas.extend(fits[0])
            return fits

        def se_spy(cov):
            ses.append(standard_errors(cov))  # one call per analytic method and block
            return ses[-1]

        with mock.patch.object(bootstrap, "CHUNK_ELEMENTS", chunk_elements):
            reference, _ = replications_one_by_one(pop, n, count, methods, B, seed)
            with mock.patch.object(population, "fit_ols_counts", fit_spy), \
                    mock.patch.object(population, "standard_errors", se_spy):
                outcome(lambda: coverage_experiment(
                    pop, n=n, replications=count, methods=methods, level=level, B=B, seed=seed,
                ))
        blocked = {m: np.concatenate(ses[i::len(analytic)]) for i, m in enumerate(analytic)}
        compared = 0
        for r, ref in enumerate(reference):
            if isinstance(ref, LeanRegError):
                continue
            assert np.array_equal(betas[r], ref[0])
            for m in analytic:
                assert np.array_equal(blocked[m][r], ref[1][m])
            compared += 1
        assert compared > 0


def attempt(call):
    """``call()``, or the type of the :class:`LeanRegError` it raised."""
    try:
        return call()
    except LeanRegError as exc:
        return type(exc)


def recorded(call):
    """``(call(), number of warnings it issued)``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, len(caught)


def fitted_on_support(pop, n, idx, y):
    """A replication's beta, conventional SEs and sandwich SEs from its support fit (or an error type)."""
    fit = attempt(lambda: support_fit(pop, idx, y))
    if isinstance(fit, type):
        return fit
    beta, inverse, ssr = fit
    return beta, *(attempt(lambda: support_ses(pop, n, inverse, ssr, m)) for m in ("conventional", "sandwich"))


def fitted_as_sample(pop, idx, y):
    """The same from ``fit_glm`` and the covariances of the sample's :class:`Dataset`."""
    fit = attempt(lambda: fit_glm(population._dataset(pop, idx, y), GAUSSIAN))
    if isinstance(fit, type):
        return fit
    covs = (conventional_cov, sandwich_cov)
    return fit.beta_hat, *(attempt(lambda: standard_errors(cov(fit))) for cov in covs)


class TestSupportFit:
    # Largest relative shifts measured between the two fits, each against
    # the largest entry, over 18,000 random populations like those drawn
    # below (with a noise scale per point) and 5,000 examples of this
    # test: beta 1.2e-12; variances (squared SEs) 5.9e-15 conventional
    # and 1.1e-8 sandwich.  The sandwich's largest shifts come from a
    # point drawn once, at leverage near 1, in a design of condition
    # number up to 5e5.  Variances are compared because one that vanishes
    # exactly (a point drawn once, at leverage 1) is rounding noise whose
    # square root reads 1e-8.  Each bound is about ten times the largest.
    BOUNDS = (1e-11, 1e-13, 1e-7)  # beta, conventional, sandwich

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_the_sample_fit(self, data):
        p = data.draw(st.integers(1, 2), label="regressors")
        m = data.draw(st.integers(2, 8), label="support points")
        # Points on a quarter grid: a sample is collinear exactly or far from it.
        grid = st.lists(st.integers(-12, 12), min_size=p, max_size=p)
        points = np.array(data.draw(st.lists(grid, min_size=m, max_size=m))) / 4.0
        weights = np.array(data.draw(st.lists(st.integers(1, 9), min_size=m, max_size=m)), dtype=float)
        mu = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m))
        kind, param = data.draw(st.sampled_from([("gaussian", "sigma"), ("two_point", "a")]))
        noise = {"kind": kind, param: data.draw(st.floats(0.1, 2.0))}
        pop = make_population(points, weights / weights.sum(), mu, noise)
        n = data.draw(st.integers(p + 1, 300), label="n")
        idx, y = oracle_draw(pop, n, substream(data.draw(st.integers(0, 2**64 - 1))))

        got, got_warned = recorded(lambda: fitted_on_support(pop, n, idx, y))
        want, want_warned = recorded(lambda: fitted_as_sample(pop, idx, y))
        assert got_warned == want_warned
        if isinstance(got, type) or isinstance(want, type):
            assert got is want
            return
        # An exact fit's residuals, and so its SEs, are rounding noise.
        exact = np.max(np.abs(y - pop.support[idx] @ want[0])) <= 1e-9 * np.max(np.abs(y))
        for i, (a, b, bound) in enumerate(zip(got, want, self.BOUNDS)):
            if isinstance(a, type) or isinstance(b, type):
                assert a is b
            elif i == 0:
                assert np.max(np.abs(a - b)) <= bound * np.max(np.abs(b))
            elif not exact:
                assert np.max(np.abs(a**2 - b**2)) <= bound * np.max(b**2)


class TestQuadratureLaws:
    def test_normal_grid_moments(self):
        sup, probs = normal_quadrature_law(31)
        x = sup[:, 0]
        assert probs @ np.ones_like(x) == pytest.approx(1.0, abs=1e-14)
        assert probs @ x == pytest.approx(0.0, abs=1e-12)
        assert probs @ x**2 == pytest.approx(1.0, rel=1e-12)
        assert probs @ x**4 == pytest.approx(3.0, rel=1e-11)
        assert probs @ x**6 == pytest.approx(15.0, rel=1e-11)

    def test_uniform_grid(self):
        sup, probs = uniform_grid_law(1.0, 3.0, 21)
        assert sup[0, 0] == 1.0 and sup[-1, 0] == 3.0
        assert np.all(probs == 1.0 / 21.0)

    @pytest.mark.parametrize("points", [0, -3, 2.0, 2.5])
    def test_points_must_be_a_positive_integer(self, points):
        with pytest.raises(DomainError, match="^points must be (an integer|at least 1), got"):
            normal_quadrature_law(points)
        with pytest.raises(DomainError, match="^points must be (an integer|at least 1), got"):
            uniform_grid_law(0.0, 1.0, points)


GOOD_POPULATION = {
    "support": [[0.0], [1.0], [2.0]],
    "probs": [0.25, 0.25, 0.5],
    "mu": {"kind": "table", "values": [0.0, 1.0, 4.0]},
    "noise": {"kind": "gaussian", "sigma": 1.0},
}

NAN, INF = float("nan"), float("inf")

# field: (key path in the population object, bad value).  json writes
# these as NaN, Infinity and -Infinity, which Python's json reads back.
NON_FINITE_CASES = {
    "support-inf": ("support", ("support",), [[0.0], [INF], [2.0]]),
    "support-nan": ("support", ("support",), [[0.0], [1.0], [NAN]]),
    "probs-nan": ("probs", ("probs",), [0.25, NAN, 0.5]),
    "probs-inf": ("probs", ("probs",), [INF, 0.25, 0.5]),
    "mu-table-nan": ("mu.values", ("mu", "values"), [0.0, NAN, 4.0]),
    "mu-coefficients-inf": (
        "mu.coefficients", ("mu",), {"kind": "polynomial", "coefficients": [0.0, INF]}
    ),
    "sigma-nan": ("noise.sigma", ("noise", "sigma"), NAN),
    "sigma-inf": ("noise.sigma", ("noise", "sigma"), [1.0, -INF, 1.0]),
    "sigma-negative": ("noise.sigma", ("noise", "sigma"), -1),
    "a-nan": ("noise.a", ("noise",), {"kind": "two_point", "a": [1.0, NAN, 1.0]}),
    "a-negative": ("noise.a", ("noise",), {"kind": "two_point", "a": -0.5}),
}


def with_value(obj, path, value):
    obj = json.loads(json.dumps(obj))
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


def as_shift(obj):
    """The shift definition whose first law is ``obj``'s regressor law."""
    good = {"support": GOOD_POPULATION["support"], "probs": [0.5, 0.25, 0.25]}
    law = {"support": obj["support"], "probs": obj["probs"]}
    return {"mu": obj["mu"], "noise": obj["noise"], "laws": [law, good]}


class TestNonFiniteSchema:
    @pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
    def test_plain_file_names_field(self, case, tmp_path):
        field, path, value = NON_FINITE_CASES[case]
        pop_path = tmp_path / "pop.json"
        pop_path.write_text(json.dumps(with_value(GOOD_POPULATION, path, value)))
        with pytest.raises(PopulationSchemaError) as exc_info:
            load_population_file(pop_path)
        assert exc_info.value.field == field
        assert str(exc_info.value).startswith(field + " must be")

    @pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
    def test_shift_file_names_field(self, case, tmp_path):
        field, path, value = NON_FINITE_CASES[case]
        shift_path = tmp_path / "shift.json"
        shift_path.write_text(json.dumps(as_shift(with_value(GOOD_POPULATION, path, value))))
        loaded = load_population_file(shift_path)
        with pytest.raises(PopulationSchemaError) as exc_info:
            regressor_shift_experiment(loaded["mu"], loaded["noise"], *loaded["laws"])
        if field in ("support", "probs"):  # a law's own field is named with its index
            field = f"laws[0].{field}"
        assert exc_info.value.field == field
        assert str(exc_info.value).startswith(field + " must be")

    @pytest.mark.parametrize(
        "mu, field",
        [
            ({"kind": "polynomial", "coefficients": [0.0, 1.0, 1.0]}, "mu"),
            ({"kind": "table", "values": [0.0, 1.0, 4.0]}, "support"),
        ],
    )
    def test_huge_support_names_field(self, mu, field):
        # mu(1e200) or the second moment overflows; the overflow is
        # reported by name, and leaks no numpy warning.
        with pytest.raises(PopulationSchemaError) as exc_info:
            make_population([[0.0], [1e200], [2.0]], [0.25, 0.25, 0.5], mu)
        assert exc_info.value.field == field
        assert str(exc_info.value).startswith(field + " ")

    def test_support_product_overflow_rejected(self):
        # x x' overflows at a point of probability 0, where E[x x'] is finite.
        with pytest.raises(PopulationSchemaError, match="^support is too large") as exc_info:
            make_population([[0.0], [1e160], [2.0]], [0.5, 0.0, 0.5], [0.0, 1.0, 4.0])
        assert exc_info.value.field == "support"

    @pytest.mark.parametrize("noise, field", [
        ({"kind": "gaussian", "sigma": 1e160}, "noise.sigma"),
        ({"kind": "two_point", "a": [1.0, 1e155, 1.0]}, "noise.a"),
    ])
    def test_noise_variance_overflow_names_field(self, noise, field):
        # The scale is finite and its square is not; no numpy warning leaks.
        with pytest.raises(PopulationSchemaError) as exc_info:
            make_population([[0.0], [1.0], [2.0]], [1 / 3] * 3, [0.0, 1.0, 4.0], noise)
        assert exc_info.value.field == field
        assert str(exc_info.value) == f"{field} is too large: the noise variance overflows"

    def test_bernoulli_variance_overflow_names_mu(self):
        # Built directly, a bernoulli law's variance mu(1 - mu) reads mu.
        support, probs = np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([0.5, 0.5])
        with pytest.raises(PopulationSchemaError, match="^mu is too large") as exc_info:
            DiscretePopulation(support, probs, np.array([1e200, 0.5]), NoiseLaw("bernoulli", np.zeros(2)))
        assert exc_info.value.field == "mu"

    @pytest.mark.parametrize("mu, noise, field, message", [
        ([0.2, 0.5, 1.5], NoiseLaw("bernoulli", np.zeros(3)), "mu", "bernoulli noise requires mu values in [0, 1]"),
        ([0.2, 0.5, 0.9], NoiseLaw("laplace", np.zeros(3)), "noise.kind", "unknown noise kind 'laplace'"),
        ([0.2, 0.5, 0.9], None, "noise.kind", "unknown noise kind None"),
        ([0.2, 0.5, 0.9], NoiseLaw("gaussian", np.array([1.0, -1.0, 1.0])), "noise.sigma",
         "noise.sigma must be nonnegative"),
        ([0.2, 0.5, 0.9], NoiseLaw("gaussian", np.ones(2)), "noise.sigma",
         "noise sigma has 2 entries for 3 support points"),
        ([0.2, 0.5, 0.9], NoiseLaw("two_point", np.array([1.0, np.nan, 1.0])), "noise.a",
         "noise.a must be finite (no NaN or Infinity)"),
    ], ids=["bernoulli_mu", "unknown_kind", "no_law", "negative_scale", "short_scale", "nan_scale"])
    def test_direct_construction_checks_the_noise(self, mu, noise, field, message):
        # The checks of a noise spec, for a law built without one.
        support, probs = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]), np.full(3, 1 / 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PopulationSchemaError) as exc_info:
                DiscretePopulation(support, probs, np.array(mu), noise)
        assert exc_info.value.field == field
        assert str(exc_info.value) == message

    def test_direct_construction_takes_a_number_scale_as_a_spec_does(self):
        # A number is every point's scale, built directly or from a spec.
        support, probs = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]), np.full(3, 1 / 3)
        pop = DiscretePopulation(support, probs, np.array([0.2, 0.5, 0.9]), NoiseLaw("gaussian", 2.0))
        spec = make_population([0.0, 1.0, 2.0], probs, [0.2, 0.5, 0.9], {"kind": "gaussian", "sigma": 2.0})
        assert pop.noise.scale.tolist() == spec.noise.scale.tolist() == [2.0, 2.0, 2.0]
        assert pop.noise_variance().tolist() == [4.0, 4.0, 4.0]

    def test_good_population_loads(self, tmp_path):
        pop_path = tmp_path / "pop.json"
        pop_path.write_text(json.dumps(GOOD_POPULATION))
        load_population_file(pop_path)
        shift_path = tmp_path / "shift.json"
        shift_path.write_text(json.dumps(as_shift(GOOD_POPULATION)))
        loaded = load_population_file(shift_path)
        regressor_shift_experiment(loaded["mu"], loaded["noise"], *loaded["laws"])

    @pytest.mark.parametrize("name", ["quadratic.json", "fig2.json"])
    def test_bundled_files_load(self, name):
        loaded = load_population_file(resources.files("leanreg").joinpath("data", name))
        if isinstance(loaded, dict):
            regressor_shift_experiment(loaded["mu"], loaded["noise"], *loaded["laws"])
        else:
            population_beta(loaded)


class TestPopulationFile:
    def test_load_single_population(self, tmp_path):
        path = tmp_path / "pop.json"
        path.write_text(
            json.dumps(
                {
                    "support": [[0.0], [1.0], [2.0]],
                    "probs": THIRDS,
                    "mu": {"kind": "polynomial", "coefficients": [0, 0, 1]},
                    "noise": {"kind": "gaussian", "sigma": 1.0},
                }
            )
        )
        pop = load_population_file(path)
        assert population_beta(pop) == pytest.approx([-1.0 / 3.0, 2.0], abs=1e-12)

    def test_load_shift_definition(self, tmp_path):
        path = tmp_path / "shift.json"
        path.write_text(
            json.dumps(
                {
                    "mu": {"kind": "polynomial", "coefficients": [0, 0, 1]},
                    "noise": {"kind": "none"},
                    "laws": [
                        {"support": [[0.0], [1.0], [2.0]], "probs": THIRDS},
                        {"support": [[0.0], [1.0], [2.0]], "probs": [0.6, 0.3, 0.1]},
                    ],
                }
            )
        )
        loaded = load_population_file(path)
        assert "laws" in loaded

    def test_schema_error_names_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"support": [[0.0]], "probs": [1.0]}))
        with pytest.raises(PopulationSchemaError) as exc_info:
            load_population_file(path)
        assert "mu" in str(exc_info.value)

    def test_one_dimensional_support_is_one_regressor(self):
        flat = make_population([0.0, 1.0, 2.0], THIRDS, quadratic_mu())
        column = make_population([[0.0], [1.0], [2.0]], THIRDS, quadratic_mu())
        assert flat.support.tolist() == [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]
        assert np.array_equal(flat.mu_values, column.mu_values)
        assert flat.names == ("x1",)

    def test_bad_probs_rejected(self):
        with pytest.raises(PopulationSchemaError, match="sum"):
            make_population([[0.0], [1.0]], [0.5, 0.4], {"kind": "table", "values": [0, 1]})

    def test_bernoulli_mu_range_enforced(self):
        with pytest.raises(PopulationSchemaError):
            make_population(
                [[0.0], [1.0]], [0.5, 0.5],
                {"kind": "table", "values": [0.5, 1.5]}, {"kind": "bernoulli"},
            )

    def test_fitting_sampled_data_matches_population(self):
        pop = make_population(
            [[0.0], [1.0], [2.0]], THIRDS, quadratic_mu(), {"kind": "gaussian", "sigma": 0.3}
        )
        ds = sample(pop, 50_000, seed=5)
        fit = fit_glm(ds, GAUSSIAN)
        assert np.max(np.abs(fit.beta_hat - population_beta(pop))) < 0.05


# field: (key path in the population object, value).  A key no one reads
# is an error, so a typo cannot silently change the population.
UNKNOWN_KEY_CASES = {
    "top-level-typo": ("nosie", ("nosie",), {"kind": "gaussian", "sigma": 1.0}),
    "gaussian-takes-no-a": ("noise.a", ("noise", "a"), 0.01),
    "none-takes-no-sigma": ("noise.sigma", ("noise",), {"kind": "none", "sigma": 3}),
    "bernoulli-takes-no-sigma": ("noise.sigma", ("noise", "sigma"), 1.0),
    "table-takes-no-coefficients": ("mu.coefficients", ("mu", "coefficients"), [0.0, 1.0]),
    "polynomial-takes-no-values": (
        "mu.values", ("mu",), {"kind": "polynomial", "coefficients": [0.0], "values": [1.0]}
    ),
}

# field: (key path, value) of values that are not what the field holds.
MALFORMED_CASES = {
    "support-text": ("support", ("support",), [["a"], [1.0], [2.0]]),
    "support-ragged": ("support", ("support",), [[0.0], [1.0, 2.0], [2.0]]),
    "support-object": ("support", ("support",), {"x": [0.0, 1.0, 2.0]}),
    "support-too-deep": ("support", ("support",), [[[0.0]], [[1.0]], [[2.0]]]),
    "probs-text": ("probs", ("probs",), ["a", "b", "c"]),
    "probs-numeric-text": ("probs", ("probs",), ["0.25", "0.25", "0.5"]),
    "probs-true-false": ("probs", ("probs",), [True, False, False]),
    "probs-scalar": ("probs", ("probs",), 1.0),
    "sigma-text": ("noise.sigma", ("noise", "sigma"), "big"),
    "sigma-nested": ("noise.sigma", ("noise", "sigma"), [[1.0], [1.0], [1.0]]),
    "coefficients-text": (
        "mu.coefficients", ("mu",), {"kind": "polynomial", "coefficients": [0.0, "x"]}
    ),
    "values-object": ("mu.values", ("mu", "values"), {"a": 1}),
    "mu-scalar": ("mu", ("mu",), 3.0),
    "names-number": ("names", ("names",), 5),
}

# Bernoulli noise needs mu in [0, 1].
GOOD_BERNOULLI = {**GOOD_POPULATION, "mu": {"kind": "table", "values": [0.0, 0.5, 1.0]},
                  "noise": {"kind": "bernoulli"}}


def schema_error(obj, tmp_path):
    """The PopulationSchemaError that loading (and, for a shift file, running) ``obj`` raises."""
    path = tmp_path / "pop.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(PopulationSchemaError) as exc_info:
        loaded = load_population_file(path)
        regressor_shift_experiment(loaded["mu"], loaded["noise"], *loaded["laws"])
    return exc_info.value


class TestSchemaStrictness:
    @pytest.mark.parametrize("case", sorted(UNKNOWN_KEY_CASES))
    def test_unknown_key_names_field(self, case, tmp_path):
        field, path, value = UNKNOWN_KEY_CASES[case]
        base = GOOD_BERNOULLI if case.startswith("bernoulli") else GOOD_POPULATION
        exc = schema_error(with_value(base, path, value), tmp_path)
        assert exc.field == field
        assert str(exc).startswith(f"unknown field {field!r} (expected ")

    @pytest.mark.parametrize("case", sorted(MALFORMED_CASES))
    def test_malformed_value_names_field(self, case, tmp_path):
        field, path, value = MALFORMED_CASES[case]
        exc = schema_error(with_value(GOOD_POPULATION, path, value), tmp_path)
        assert exc.field == field
        assert field in str(exc)

    @pytest.mark.parametrize(
        "case", sorted(c for c in MALFORMED_CASES if MALFORMED_CASES[c][0] in ("support", "probs"))
    )
    def test_shift_law_value_keeps_law_prefix(self, case, tmp_path):
        field, path, value = MALFORMED_CASES[case]
        exc = schema_error(as_shift(with_value(GOOD_POPULATION, path, value)), tmp_path)
        assert exc.field == f"laws[0].{field}"
        assert str(exc).startswith(f"laws[0].{field} must be ")

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda obj: obj | {"nosie": None}, "nosie"),
            (lambda obj: obj | {"support": [[0.0]]}, "support"),
            (lambda obj: {**obj, "laws": [5, obj["laws"][1]]}, "laws[0]"),
            (lambda obj: {**obj, "laws": [{**obj["laws"][0], "weights": [1]}, obj["laws"][1]]},
             "laws[0].weights"),
            (lambda obj: {**obj, "laws": [obj["laws"][0], {"support": [[0.0]]}]}, "laws[1].probs"),
        ],
    )
    def test_shift_file_keys(self, mutate, field, tmp_path):
        exc = schema_error(mutate(as_shift(GOOD_POPULATION)), tmp_path)
        assert exc.field == field
        assert field in str(exc)

    @pytest.mark.parametrize(
        "case", ["support-ragged", "support-object", "mu-scalar", "sigma-text", "top-level-typo"]
    )
    def test_cli_reports_one_line(self, case, tmp_path, capsys):
        field, path, value = {**MALFORMED_CASES, **UNKNOWN_KEY_CASES}[case]
        pop_path = tmp_path / "pop.json"
        pop_path.write_text(json.dumps(with_value(GOOD_POPULATION, path, value)))
        assert main(["simulate", "--population", str(pop_path), "--n", "20", "--reps", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("leanreg: error: ") and captured.err.count("\n") == 1
        assert field in captured.err


def _decode_error(text):
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return f"invalid JSON: {exc}"


TWO_REGRESSORS = {**GOOD_POPULATION, "support": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                  "mu": {"kind": "polynomial", "coefficients": [0.0, 1.0]}}

# case: (file text, field, message) of each check on a file's structure
# and its mu, noise and probs.
SCHEMA_CHECK_CASES = {
    "mu-kind-unknown": (
        json.dumps(with_value(GOOD_POPULATION, ("mu", "kind"), "spline")),
        "mu.kind", "unknown mu kind 'spline'",
    ),
    "mu-values-length": (
        json.dumps(with_value(GOOD_POPULATION, ("mu", "values"), [0.0, 1.0])),
        "mu.values", "mu table length does not match support size",
    ),
    "polynomial-two-regressors": (
        json.dumps(TWO_REGRESSORS), "mu", "polynomial mu requires exactly one regressor",
    ),
    "noise-not-object": (
        json.dumps(with_value(GOOD_POPULATION, ("noise",), "gaussian")),
        "noise", "noise must hold a JSON object",
    ),
    "noise-kind-unknown": (
        json.dumps(with_value(GOOD_POPULATION, ("noise", "kind"), "laplace")),
        "noise.kind", "unknown noise kind 'laplace'",
    ),
    "probs-length": (
        json.dumps(with_value(GOOD_POPULATION, ("probs",), [0.5, 0.5])),
        "probs", "probs and mu must have one entry per support point",
    ),
    "probs-negative": (
        json.dumps(with_value(GOOD_POPULATION, ("probs",), [-0.25, 0.75, 0.5])),
        "probs", "probs must be nonnegative",
    ),
    "invalid-json": ('{"support": [[0.0]],', "", _decode_error('{"support": [[0.0]],')),
    "not-an-object": ("[1, 2]", "", "population file must hold a JSON object"),
    "shift-one-law": (
        json.dumps({**as_shift(GOOD_POPULATION), "laws": as_shift(GOOD_POPULATION)["laws"][:1]}),
        "laws", "shift definition needs exactly two laws",
    ),
}


class TestSchemaChecks:
    @pytest.mark.parametrize("case", sorted(SCHEMA_CHECK_CASES))
    def test_file_check_names_field(self, case, tmp_path):
        text, field, message = SCHEMA_CHECK_CASES[case]
        path = tmp_path / "pop.json"
        path.write_text(text)
        with pytest.raises(PopulationSchemaError) as exc_info:
            load_population_file(path)
        assert exc_info.value.field == field
        assert str(exc_info.value) == message

    def test_hand_built_population_needs_leading_one(self):
        with pytest.raises(PopulationSchemaError) as exc_info:
            population.DiscretePopulation(
                [[2.0, 0.0], [2.0, 1.0]], [0.5, 0.5], [0.0, 1.0],
                population.NoiseLaw("none", np.zeros(2)),
            )
        assert exc_info.value.field == "support"
        assert str(exc_info.value) == "support points must carry the leading 1"

    def test_cli_reports_unknown_noise_kind_on_one_line(self, tmp_path, capsys):
        path = tmp_path / "pop.json"
        path.write_text(SCHEMA_CHECK_CASES["noise-kind-unknown"][0])
        assert main(["simulate", "--population", str(path), "--n", "20", "--reps", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "leanreg: error: unknown noise kind 'laplace'\n"


# kind: (noise spec, eps drawn from (rng, mu, scale) by the kind's law,
# written here independently of population.NOISE_KINDS).
DRAW_ORACLES = {
    "none": ({"kind": "none"}, lambda rng, mu, s: np.zeros(mu.shape[0])),
    "gaussian": (
        {"kind": "gaussian", "sigma": [0.5, 1.0, 2.0]},
        lambda rng, mu, s: rng.standard_normal(mu.shape[0]) * s,
    ),
    "two_point": (
        {"kind": "two_point", "a": [0.5, 1.0, 2.0]},
        lambda rng, mu, s: np.where(rng.integers(0, 2, mu.shape[0]) == 1, s, -s),
    ),
    "bernoulli": (
        {"kind": "bernoulli"},
        lambda rng, mu, s: np.where(rng.random(mu.shape[0]) < mu, 1.0, 0.0) - mu,
    ),
}


class TestNoiseDraws:
    @pytest.mark.parametrize("kind", sorted(DRAW_ORACLES))
    def test_sample_matches_independent_draw(self, kind):
        noise, draw = DRAW_ORACLES[kind]
        points, probs, mu = [[-1.0], [0.5], [2.0]], [0.2, 0.3, 0.5], [0.2, 0.5, 0.9]
        pop = make_population(points, probs, {"kind": "table", "values": mu}, noise)
        n, seed = 20_000, 7
        ds = replication_sample(pop, n, seed, 3)

        rng = oracle_stream(seed, 0, 3)
        idx = rng.choice(3, size=n, p=probs)
        scale = np.asarray(noise.get("sigma", noise.get("a", [0.0] * 3)))[idx]
        mu_at = np.asarray(mu)[idx]
        y = mu_at + draw(rng, mu_at, scale)
        assert np.array_equal(ds.regressors[:, 0], np.asarray(points)[idx, 0])
        assert np.array_equal(ds.response, y)

        # eps is centred at every support point, within 4 Monte Carlo SEs.
        eps = ds.response - mu_at
        for k, var in enumerate(pop.noise_variance()):
            at_k = eps[idx == k]
            assert abs(at_k.mean()) <= 4.0 * np.sqrt(var / at_k.size)
