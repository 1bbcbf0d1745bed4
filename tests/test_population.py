"""Exact population oracles: best-approximation coefficients,
residual decomposition, orthogonality identities, sampling, and
coverage experiments."""

import json
import warnings
from importlib import resources
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from scipy.special import ndtri

from leanreg import bootstrap, population
from leanreg.bootstrap import bootstrap_se, residual_bootstrap, xy_bootstrap
from leanreg.cli import main
from leanreg.covariance import conventional_cov, sandwich_cov, standard_errors
from leanreg.exceptions import (
    CollinearPopulationError,
    DomainError,
    ExcessiveFailureError,
    InsufficientDrawsError,
    LeanRegError,
    PopulationSchemaError,
)
from leanreg.fitting import GAUSSIAN, fit_glm
from leanreg.population import (
    CoverageResult,
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
        with mock.patch.object(population, "_draw", side_effect=AssertionError("sampled")):
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

    def test_bernoulli_sampling_is_binary(self):
        pop = make_population(
            [[-1.0], [1.0]], [0.5, 0.5],
            {"kind": "table", "values": [0.2, 0.7]}, {"kind": "bernoulli"},
        )
        ds = sample(pop, 1000, seed=8)
        assert set(np.unique(ds.response)) <= {0.0, 1.0}


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
        with mock.patch("leanreg.population._draw", side_effect=AssertionError):
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
    """Replication r's sample: n draws from the oracle stream (seed, 0, r)."""
    return population._dataset(pop, *population._draw(pop, n, oracle_stream(seed, 0, r)))


def replications_one_by_one(pop, n, count, methods, B, seed):
    """Reference: coverage replications fitted one at a time, with no blocks.

    Returns, per replication, ``(beta_hat, SEs per method)`` or the
    error it raised, and the number of warnings it issued.
    """
    results, warned = [], []
    for r in range(count):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ds = replication_sample(pop, n, seed, r)
            try:
                fit = fit_glm(ds, GAUSSIAN)
                ses = {}
                for m in methods:
                    if m == "conventional":
                        ses[m] = standard_errors(conventional_cov(fit))
                    elif m == "sandwich":
                        ses[m] = standard_errors(sandwich_cov(fit))
                    elif m == "xy-bootstrap":
                        draws = xy_bootstrap(ds, GAUSSIAN, B, oracle_seed(seed, 1, r))
                        ses[m] = bootstrap_se(draws)
                    else:
                        draws = residual_bootstrap(ds, B, oracle_seed(seed, 2, r))
                        ses[m] = bootstrap_se(draws)
                results.append((fit.beta_hat, ses))
            except LeanRegError as exc:
                results.append(exc)
        warned.append(len(caught))
    return results, warned


def summarize(results, methods, beta_true, level):
    """Reference: the coverage results of per-replication outcomes, summed in replication order."""
    kept, _ = bootstrap.tolerate_failures(results, "coverage replications")
    z = float(ndtri(0.5 + level / 2.0))
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
}


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
