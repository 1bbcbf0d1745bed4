"""Failure-policy boundaries, schema corners, and format stability."""

import json

import numpy as np
import pytest

from leanreg.bootstrap import _collect, residual_bootstrap, xy_bootstrap
from leanreg.cli import main
from leanreg.core import Dataset
from leanreg.covariance import coefficient_table, conventional_cov, sandwich_cov, standard_errors
from leanreg.exceptions import DomainError, ExcessiveFailureError, SingularSystemError
from leanreg.fitting import GAUSSIAN, fit_glm
from leanreg.population import (
    coverage_experiment,
    load_population_file,
    make_population,
    sample,
)
from leanreg.prediction import _order_statistic_K, cv_calibrate_K
from leanreg.rng import spawn_seeds, substream, substreams


# A sample with two coefficients, the shape of the draws below.
TWO_COEFFICIENTS = Dataset([0.0, 1.0], [[0.0], [1.0]], names=("x",))


class TestFailureThreshold:
    def test_exactly_ten_percent_is_kept(self):
        results = [np.zeros(2)] * 18 + [SingularSystemError("x")] * 2
        draws = _collect(results, TWO_COEFFICIENTS)
        assert draws.failures == 2
        assert draws.b_retained == 18

    def test_just_over_ten_percent_raises(self):
        results = [np.zeros(2)] * 17 + [SingularSystemError("x")] * 3
        with pytest.raises(ExcessiveFailureError) as exc_info:
            _collect(results, TWO_COEFFICIENTS)
        assert exc_info.value.reasons == {"SingularSystemError": 3}

    def test_resample_failures_counted_not_fatal(self):
        # Three off-value rows in 40: a resample missing all of them is
        # singular; that happens for about exp(-3) of replicates, safely
        # under the threshold but often enough to be observed.
        rng = np.random.default_rng(0)
        x = np.ones(40)
        x[:3] = 0.0
        y = x + rng.standard_normal(40)
        ds = Dataset(y, x.reshape(-1, 1), names=("x",))
        draws = xy_bootstrap(ds, GAUSSIAN, B=200, seed=11)
        assert 0 < draws.failures <= 20
        assert draws.b_retained == 200 - draws.failures


class TestCoverageExclusion:
    def test_failed_replications_excluded_and_counted(self):
        pop = make_population(
            [[0.0], [1.0]], [0.7, 0.3],
            {"kind": "polynomial", "coefficients": [0.0, 1.0]},
            {"kind": "gaussian", "sigma": 1.0},
        )
        results = coverage_experiment(
            pop, n=8, replications=300, methods=["sandwich"], level=0.9, seed=13
        )
        retained = results[0].replications
        assert 250 <= retained < 300  # singular draws excluded

    def test_threshold_breach_raises(self):
        pop = make_population(
            [[0.0], [1.0]], [0.95, 0.05],
            {"kind": "polynomial", "coefficients": [0.0, 1.0]},
            {"kind": "gaussian", "sigma": 1.0},
        )
        with pytest.raises(ExcessiveFailureError):
            coverage_experiment(
                pop, n=8, replications=200, methods=["sandwich"], level=0.9, seed=13
            )


SAMPLE = Dataset([1.0, 2.0, 2.5, 4.1, 4.0, 6.2], [[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]],
                 names=("x",))
POPULATION = make_population([[-1.0], [1.0]], [0.5, 0.5], [0.0, 1.0], {"kind": "gaussian"})


def cover(**kwargs):
    args = dict(n=10, replications=5, methods=["xy-bootstrap"], B=5, seed=0)
    return coverage_experiment(POPULATION, **{**args, **kwargs})


class TestIntegerArguments:
    # Every count and seed is a Python or numpy integer; a bool, a float
    # or a string would otherwise be truncated, read as 1, or fail later
    # with an untyped error.
    @pytest.mark.parametrize("name, call", [
        pytest.param(name, call, id=f"{where}({name}={value})")
        for where, name, value, call in [
            ("cv_calibrate_K", "folds", 2.5, lambda: cv_calibrate_K(SAMPLE, 0.1, 2.5, 1)),
            ("cv_calibrate_K", "folds", True, lambda: cv_calibrate_K(SAMPLE, 0.1, True, 1)),
            ("cv_calibrate_K", "seed", 1.0, lambda: cv_calibrate_K(SAMPLE, 0.1, 2, 1.0)),
            ("sample", "n", 2.5, lambda: sample(POPULATION, 2.5, 1)),
            ("sample", "n", True, lambda: sample(POPULATION, True, 1)),
            ("sample", "seed", "'1'", lambda: sample(POPULATION, 5, "1")),
            ("xy_bootstrap", "seed", 1.5, lambda: xy_bootstrap(SAMPLE, GAUSSIAN, 5, 1.5)),
            ("xy_bootstrap", "B", True, lambda: xy_bootstrap(SAMPLE, GAUSSIAN, True, 1)),
            ("xy_bootstrap", "B", 2.5, lambda: xy_bootstrap(SAMPLE, GAUSSIAN, 2.5, 1)),
            ("residual_bootstrap", "B", "float64", lambda: residual_bootstrap(SAMPLE, np.float64(5.0), 1)),
            ("residual_bootstrap", "seed", "bool_", lambda: residual_bootstrap(SAMPLE, 5, np.True_)),
            ("coverage_experiment", "replications", 2.5, lambda: cover(replications=2.5)),
            ("coverage_experiment", "n", 10.0, lambda: cover(n=10.0)),
            ("coverage_experiment", "B", 2.5, lambda: cover(B=2.5)),
            ("coverage_experiment", "seed", 0.0, lambda: cover(seed=0.0)),
            ("substream", "seed", False, lambda: substream(False)),
            ("substreams", "count", 2.5, lambda: substreams(0, count=2.5)),
            ("spawn_seeds", "count", True, lambda: spawn_seeds(0, 1, count=True)),
        ]
    ])
    def test_non_integer_rejected_by_name(self, name, call):
        with pytest.raises(DomainError, match=f"^{name} must be an integer, got"):
            call()

    def test_numpy_integers_accepted(self):
        a = xy_bootstrap(SAMPLE, GAUSSIAN, np.int64(5), np.uint32(7)).draws
        assert np.array_equal(a, xy_bootstrap(SAMPLE, GAUSSIAN, 5, 7).draws)
        assert cv_calibrate_K(SAMPLE, 0.5, np.int16(2), np.int64(3)) == cv_calibrate_K(SAMPLE, 0.5, 2, 3)
        assert sample(POPULATION, np.int8(4), np.uint64(2**63)).n == 4


class TestCoverageReplicationCount:
    def test_zero_replications_rejected(self, tmp_path, capsys):
        pop = {
            "support": [[-1.0], [1.0]],
            "probs": [0.5, 0.5],
            "mu": {"kind": "polynomial", "coefficients": [0.0, 1.0]},
            "noise": {"kind": "gaussian", "sigma": 1.0},
        }
        with pytest.raises(DomainError, match="replications must be at least 1, got 0"):
            coverage_experiment(
                make_population(pop["support"], pop["probs"], pop["mu"], pop["noise"]),
                n=10, replications=0, methods=["sandwich"],
            )
        path = tmp_path / "pop.json"
        path.write_text(json.dumps(pop))
        assert main(["simulate", "--population", str(path), "--reps", "0"]) == 1
        assert "replications must be at least 1, got 0" in capsys.readouterr().err


class TestBootstrapReplicateCount:
    @pytest.mark.parametrize("B", [None, 0, -5])
    def test_bootstrap_method_needs_positive_B(self, B):
        pop = make_population(
            [[-1.0], [1.0]], [0.5, 0.5],
            {"kind": "polynomial", "coefficients": [0.0, 1.0]},
            {"kind": "gaussian", "sigma": 1.0},
        )
        with pytest.raises(DomainError, match=f"B must be (an integer|at least 1), got {B}"):
            coverage_experiment(pop, n=10, replications=5, methods=["xy-bootstrap"], B=B)

    def test_zero_boot_in_simulate_is_computational_error(self, capsys):
        argv = ["simulate", "--population", "quadratic.json", "--n", "50", "--reps", "20",
                "--boot", "0", "--methods", "conventional,xy-bootstrap"]
        assert main(argv) == 1
        assert "B must be at least 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--input", "charges_synthetic.csv", "--response", "male",
             "--regressors", "age,priors", "--family", "logit"],
            ["bootstrap", "--input", "charges_synthetic.csv", "--response", "charges",
             "--regressors", "age"],
            ["simulate", "--population", "quadratic.json", "--n", "50", "--reps", "20",
             "--methods", "conventional,xy-bootstrap"],
        ],
        ids=["fit", "bootstrap", "simulate"],
    )
    def test_negative_boot_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([*argv, "--boot", "-5"])
        assert exc_info.value.code == 2
        assert "must be a non-negative integer" in capsys.readouterr().err


class TestNegativeSeed:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--input", "charges_synthetic.csv", "--response", "charges",
             "--regressors", "age"],
            ["bootstrap", "--input", "charges_synthetic.csv", "--response", "charges",
             "--regressors", "age"],
            ["predict", "--input", "charges_synthetic.csv", "--response", "charges",
             "--regressors", "age"],
            ["simulate", "--population", "quadratic.json", "--n", "50", "--reps", "20"],
        ],
        ids=["fit", "bootstrap", "predict", "simulate"],
    )
    def test_negative_seed_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([*argv, "--seed", "-3"])
        assert exc_info.value.code == 2
        assert "must be a non-negative integer" in capsys.readouterr().err

    def test_seed_beyond_64_bits_accepted(self, capsys):
        argv = ["simulate", "--population", "quadratic.json", "--n", "50", "--reps", "20",
                "--seed", str(2**64 + 3), "--format", "csv"]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("method,")

    def test_library_rejects_negative_seed(self):
        ds = Dataset([1.0, 2.0, 2.5, 4.1], [[0.0], [1.0], [2.0], [3.0]], names=("x",))
        with pytest.raises(DomainError, match="seed must be at least 0, got -3"):
            xy_bootstrap(ds, GAUSSIAN, B=10, seed=-3)
        with pytest.raises(DomainError, match="seed must be at least 0, got -3"):
            coverage_experiment(
                make_population([[-1.0], [1.0]], [0.5, 0.5], [0.0, 1.0]),
                n=10, replications=5, methods=["sandwich"], seed=-3,
            )


class TestPopulationFileCorners:
    def test_per_point_noise_scales(self, tmp_path):
        obj = {
            "support": [[0.0], [1.0], [2.0]],
            "probs": [0.25, 0.5, 0.25],
            "mu": {"kind": "table", "values": [1.0, 2.0, 3.0]},
            "noise": {"kind": "two_point", "a": [0.5, 1.0, 1.5]},
        }
        path = tmp_path / "pop.json"
        path.write_text(json.dumps(obj))
        pop = load_population_file(path)
        assert np.array_equal(pop.noise.scale, [0.5, 1.0, 1.5])
        assert np.allclose(pop.noise_variance(), [0.25, 1.0, 2.25])

    def test_mismatched_scale_length_rejected(self, tmp_path):
        obj = {
            "support": [[0.0], [1.0]],
            "probs": [0.5, 0.5],
            "mu": {"kind": "table", "values": [1.0, 2.0]},
            "noise": {"kind": "gaussian", "sigma": [1.0, 2.0, 3.0]},
        }
        path = tmp_path / "pop.json"
        path.write_text(json.dumps(obj))
        from leanreg.exceptions import PopulationSchemaError

        with pytest.raises(PopulationSchemaError):
            load_population_file(path)


class TestOrderStatisticCorners:
    def test_large_alpha_takes_small_order_statistic(self):
        k = np.array([0.5, 1.0, 1.5, 2.0])
        assert _order_statistic_K(k, alpha=0.9) == 0.5

    def test_rank_clamped_to_valid_range(self):
        k = np.array([3.0])
        assert _order_statistic_K(k, alpha=0.5) == 3.0


class TestRenderingStability:
    def test_text_table_golden_snapshot(self):
        # Hand oracle: slope = Sxy/Sxx = 4.9/5, intercept = 2.4 - 1.5*0.98;
        # sigma2 = (sum r^2)/(n-2) = 0.109, conventional variances
        # 0.109 * diag([0.7, 0.2]) of (X'X)^-1.
        ds = Dataset(
            [1.0, 2.0, 2.5, 4.1], [[0.0], [1.0], [2.0], [3.0]], names=("x",)
        )
        fit = fit_glm(ds, GAUSSIAN)
        assert fit.beta_hat == pytest.approx([0.93, 0.98], abs=1e-12)
        conv = conventional_cov(fit)
        assert standard_errors(conv) == pytest.approx(
            [np.sqrt(0.109 * 0.7), np.sqrt(0.109 * 0.2)], rel=1e-10
        )
        table = coefficient_table(fit, conv, sandwich_cov(fit))
        expected = (
            "              Coeff      SE  p-value  Sand.SE  Sand-p\n"
            "(Intercept)  0.9300  0.2762   0.0008   0.0856  0.0000\n"
            "x            0.9800  0.1476   0.0000   0.0825  0.0000\n"
        )
        assert table.to_text() == expected

    def test_fit_csv_carries_full_precision(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("y,x\n1,0\n2,1\n2.5,2\n4.1,3\n")
        assert main(["fit", "--input", str(data), "--response", "y",
                     "--regressors", "x", "--boot", "0", "--format", "csv"]) == 0
        csv_out = capsys.readouterr().out
        assert main(["fit", "--input", str(data), "--response", "y",
                     "--regressors", "x", "--boot", "0", "--format", "json"]) == 0
        json_out = capsys.readouterr().out
        rows = json.loads(json_out)["table"]["rows"]
        line = csv_out.splitlines()[1].split(",")
        assert float(line[1]) == rows[0]["coef"]  # repr round-trips exactly
        assert float(line[2]) == rows[0]["se_conv"]
