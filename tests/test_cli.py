"""CLI contract: subcommands, exit codes, format parity, reproducibility."""

import csv
import errno
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from leanreg.cli import main
from leanreg.core import csv_text, load_csv
from leanreg.fitting import GAUSSIAN, fit_glm
from leanreg.prediction import future_coverage, interval, make_band

NAMES6 = [f"x{j}" for j in range(1, 7)]
CSV_SMALL = "y,x\n1,0\n2.5,1\n2.9,2\n4.3,3\n5.1,4\n5.8,5\n7.4,6\n8.1,7\n"


@pytest.fixture()
def small_csv(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text(CSV_SMALL, encoding="utf-8")
    return str(path)


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFit:
    def test_text_table_and_exit_zero(self, small_csv, capsys):
        code, out, err = run_main(
            ["fit", "--input", small_csv, "--response", "y", "--regressors", "x",
             "--boot", "50"],
            capsys,
        )
        assert code == 0
        header = out.splitlines()[0].split()
        assert header == ["Coeff", "SE", "p-value", "Boot.SE", "Sand.SE", "Sand-p"]

    def test_json_and_text_numbers_agree(self, small_csv, capsys):
        code, json_out, _ = run_main(
            ["fit", "--input", small_csv, "--response", "y", "--regressors", "x",
             "--boot", "25", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(json_out)
        code, text_out, _ = run_main(
            ["fit", "--input", small_csv, "--response", "y", "--regressors", "x",
             "--boot", "25"],
            capsys,
        )
        assert code == 0
        for row in payload["table"]["rows"]:
            line = next(
                l for l in text_out.splitlines() if l.startswith(row["label"])
            )
            cells = line[len(row["label"]):].split()
            assert cells[0] == f"{row['coef']:.4f}"
            assert cells[1] == f"{row['se_conv']:.4f}"
            assert cells[3] == f"{row['se_boot']:.4f}"
            assert cells[4] == f"{row['se_sand']:.4f}"

    def test_missing_response_flag_is_usage_error(self, small_csv):
        with pytest.raises(SystemExit) as exc_info:
            main(["fit", "--input", small_csv, "--regressors", "x"])
        assert exc_info.value.code == 2

    def test_missing_column_is_computational_error(self, small_csv, capsys):
        code, _, err = run_main(
            ["fit", "--input", small_csv, "--response", "z", "--regressors", "x"],
            capsys,
        )
        assert code == 1
        assert "z" in err

    def test_bundled_poisson_demo(self, capsys):
        code, out, _ = run_main(
            ["fit", "--input", "charges_synthetic.csv", "--response", "charges",
             "--regressors", "age,male,priors,prior_sentences,drug_priors,age_first_charge",
             "--family", "poisson", "--boot", "0"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0].split() == ["Coeff", "SE", "p-value", "Sand.SE", "Sand-p"]
        assert "Misspecification indicator" in out

    def test_identical_runs_byte_identical(self, small_csv, tmp_path, capsys):
        args = ["fit", "--input", small_csv, "--response", "y", "--regressors", "x",
                "--boot", "40", "--seed", "7", "--format", "json"]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestBootstrapSubcommand:
    def test_output_files_written(self, small_csv, tmp_path, capsys):
        outdir = tmp_path / "diag"
        code, _, _ = run_main(
            ["bootstrap", "--input", small_csv, "--response", "y",
             "--regressors", "x", "--boot", "64", "--out", str(outdir)],
            capsys,
        )
        assert code == 0
        assert (outdir / "draws.csv").is_file()
        assert (outdir / "qq_0.csv").is_file()
        assert (outdir / "qq_1.csv").is_file()
        assert (outdir / "qq_summary.csv").is_file()
        summary = (outdir / "qq_summary.csv").read_text().splitlines()
        assert summary[0] == "coefficient,label,qq_correlation"
        assert len(summary) == 3

    def test_too_few_replicates_rejected(self, small_csv, capsys):
        code, _, err = run_main(
            ["bootstrap", "--input", small_csv, "--response", "y",
             "--regressors", "x", "--boot", "5"],
            capsys,
        )
        assert code == 1
        assert "B >= 10" in err

    def test_response_outside_support_is_the_support_error(self, tmp_path, capsys):
        # Most resamples leave the one 2.0 out; it is still the error reported.
        rng = np.random.default_rng(4)
        y = (rng.random(500) < 0.5).astype(float)
        y[250] = 2.0
        path = tmp_path / "binary.csv"
        path.write_text(csv_text(["y", "x"], [y, rng.standard_normal(500)]), encoding="utf-8")
        code, out, err = run_main(
            ["bootstrap", "--input", str(path), "--response", "y", "--regressors", "x",
             "--family", "logit", "--boot", "200"],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == "leanreg: error: bernoulli-logit requires a response coded exactly 0/1\n"


class TestPredictSubcommand:
    def test_intervals_and_calibration_files(self, small_csv, tmp_path, capsys):
        outdir = tmp_path / "pred"
        code, _, _ = run_main(
            ["predict", "--input", small_csv, "--response", "y",
             "--regressors", "x", "--alpha", "0.25", "--out", str(outdir)],
            capsys,
        )
        assert code == 0
        lines = (outdir / "intervals.csv").read_text().splitlines()
        assert lines[0] == "x,yhat,lower,upper"
        assert len(lines) == 9
        calib = json.loads((outdir / "calibration.json").read_text())
        assert calib["K_hat"] > 0
        n = 8
        assert abs(calib["training_coverage"] - 0.75) <= 1.0 / n + 1e-12

    def test_cv_calibration_flag(self, small_csv, capsys):
        code, out, _ = run_main(
            ["predict", "--input", small_csv, "--response", "y",
             "--regressors", "x", "--calibration", "cv:4"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "x,yhat,lower,upper"

    @pytest.mark.parametrize("calibration", ["train", "cv:5"])
    def test_band_columns_match_the_library(self, tmp_path, calibration, capsys):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((300, 6))
        y = x[:, 0] + 0.5 * x[:, 0] ** 2 + (1.0 + np.abs(x[:, 1])) * rng.standard_normal(300)
        path = tmp_path / "wide.csv"
        path.write_text(csv_text(["y", *NAMES6], [y, *x.T]), encoding="utf-8")
        outdir = tmp_path / "pred"
        code, _, _ = run_main(
            ["predict", "--input", str(path), "--response", "y", "--regressors", ",".join(NAMES6),
             "--calibration", calibration, "--out", str(outdir)],
            capsys,
        )
        assert code == 0
        with open(outdir / "intervals.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        cols = {name: np.array([float(r[j]) for r in rows[1:]]) for j, name in enumerate(rows[0])}
        calib = json.loads((outdir / "calibration.json").read_text())

        ds = load_csv(path, "y", NAMES6)
        fit = fit_glm(ds, GAUSSIAN)
        assert np.array_equal(cols["yhat"], fit.fitted)
        band = make_band(fit, K=calib["K_hat"])
        bounds = np.array([interval(band, row) for row in ds.design])
        np.testing.assert_allclose(cols["lower"], bounds[:, 0], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(cols["upper"], bounds[:, 1], rtol=1e-12, atol=0.0)
        assert calib["training_coverage"] == future_coverage(band, ds)

    def test_bad_calibration_flag_usage_error(self, small_csv):
        with pytest.raises(SystemExit) as exc_info:
            main(["predict", "--input", small_csv, "--response", "y",
                  "--regressors", "x", "--calibration", "cv:x"])
        assert exc_info.value.code == 2


class TestSimulateSubcommand:
    def test_bundled_shift_population(self, capsys):
        code, out, _ = run_main(
            ["simulate", "--population", "fig2.json"], capsys
        )
        assert code == 0
        assert "2.0000 vs 1.6667" in out
        assert "0.3333" in out

    def test_coverage_csv(self, tmp_path, capsys):
        pop = {
            "support": [[-1.0], [0.0], [1.0]],
            "probs": [1 / 3, 1 / 3, 1 / 3],
            "mu": {"kind": "polynomial", "coefficients": [0.0, 1.0]},
            "noise": {"kind": "gaussian", "sigma": 0.5},
        }
        pop_path = tmp_path / "pop.json"
        pop_path.write_text(json.dumps(pop))
        code, out, _ = run_main(
            ["simulate", "--population", str(pop_path), "--n", "100",
             "--reps", "100", "--methods", "conventional,sandwich",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "method,coefficient,level,coverage,mean_width,replications,mc_se"
        assert len(lines) == 5  # two methods x two coefficients

    def test_seed_reproducibility(self, tmp_path, capsys):
        pop = {
            "support": [[-1.0], [1.0]],
            "probs": [0.5, 0.5],
            "mu": {"kind": "polynomial", "coefficients": [0.0, 1.0]},
            "noise": {"kind": "gaussian", "sigma": 1.0},
        }
        pop_path = tmp_path / "pop.json"
        pop_path.write_text(json.dumps(pop))
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        base = ["simulate", "--population", str(pop_path), "--n", "80",
                "--reps", "60", "--methods", "xy-bootstrap", "--boot", "40",
                "--seed", "3", "--format", "csv"]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_shift_file_rejects_coverage_flags(self, capsys):
        code, out, err = run_main(
            ["simulate", "--population", "fig2.json", "--reps", "5", "--boot", "7",
             "--alpha", "0.3", "--n", "3", "--methods", "bogus"],
            capsys,
        )
        assert code == 1
        assert out == ""
        for flag in ("--n", "--reps", "--methods", "--boot", "--alpha"):
            assert flag in err

    def test_shift_file_accepts_seed_format_out(self, tmp_path, capsys):
        code, plain, _ = run_main(["simulate", "--population", "fig2.json"], capsys)
        assert code == 0
        out = tmp_path / "shift.txt"
        code, _, _ = run_main(
            ["simulate", "--population", "fig2.json", "--seed", "3", "--format", "text",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert out.read_text(encoding="utf-8") == plain

    def test_excessive_failures_name_their_cause(self, tmp_path, capsys):
        # Most samples of 8 draw x = 0 only, a singular design.
        pop = {
            "support": [[0.0], [1.0]],
            "probs": [0.95, 0.05],
            "mu": {"kind": "polynomial", "coefficients": [0.0, 1.0]},
            "noise": {"kind": "gaussian", "sigma": 1.0},
        }
        pop_path = tmp_path / "pop.json"
        pop_path.write_text(json.dumps(pop))
        code, out, err = run_main(
            ["simulate", "--population", str(pop_path), "--n", "8", "--reps", "200",
             "--methods", "sandwich", "--seed", "13"],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == (
            "leanreg: error: 146 of 200 coverage replications failed (threshold 10%): "
            "SingularSystemError 146\n"
        )

    def test_schema_error_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"support": [[0.0]], "probs": [1.0]}))
        code, _, err = run_main(["simulate", "--population", str(bad)], capsys)
        assert code == 1
        assert "mu" in err


    def test_non_finite_population_value_exit_one(self, tmp_path, capsys):
        # json reads NaN; the field is named and nothing else reaches stderr.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "mu": {"kind": "table", "values": [0.0, float("nan"), 1.0]},
            "noise": {"kind": "none"},
            "laws": [
                {"support": [[0.0], [1.0], [2.0]], "probs": [0.25, 0.25, 0.5]},
                {"support": [[0.0], [1.0], [2.0]], "probs": [0.5, 0.25, 0.25]},
            ],
        }))
        code, out, err = run_main(["simulate", "--population", str(bad)], capsys)
        assert code == 1
        assert out == ""
        assert err == "leanreg: error: mu.values must be finite (no NaN or Infinity)\n"

    @pytest.mark.parametrize(
        "mu, message",
        [
            ({"kind": "polynomial", "coefficients": [0.0, 1.0, 1.0]},
             "mu must be finite (no NaN or Infinity)"),
            ({"kind": "table", "values": [0.0, 1.0, 4.0]},
             "support is too large: its second moment E[x x'] overflows"),
        ],
    )
    def test_huge_population_value_exit_one(self, tmp_path, mu, message, capsys):
        # Finite but huge: overflow is reported by name, and no numpy
        # warning reaches stderr (pytest would raise it as an error).
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps({
            "support": [[0.0], [1e200], [2.0]],
            "probs": [0.25, 0.25, 0.5],
            "mu": mu,
            "noise": {"kind": "gaussian", "sigma": 1.0},
        }))
        code, out, err = run_main(["simulate", "--population", str(bad)], capsys)
        assert code == 1
        assert out == ""
        assert err == f"leanreg: error: {message}\n"


class TestSlopesSubcommand:
    def test_summary_and_pair_table(self, small_csv, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        code, out, _ = run_main(
            ["slopes", "--input", small_csv, "--response", "y",
             "--regressors", "x", "--format", "json",
             "--coef", "1", "--pairs-out", str(pairs)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        row = payload["slopes"][0]
        assert row["beta_pairwise"] == pytest.approx(row["beta_ols"], rel=1e-10)
        lines = pairs.read_text().splitlines()
        assert lines[0] == "i,j,weight,slope"
        assert len(lines) == 1 + 8 * 7

    @pytest.mark.parametrize("coef", ["7", "0"])
    def test_coef_without_pairs_out_rejected(self, small_csv, coef, capsys):
        code, out, err = run_main(
            ["slopes", "--input", small_csv, "--response", "y",
             "--regressors", "x", "--coef", coef],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("leanreg: error: --coef")


class TestFlagSurface:
    FLAGS = {
        "fit": {"--input", "--response", "--regressors",
                "--family", "--boot", "--seed", "--alpha", "--format", "--out"},
        "bootstrap": {"--input", "--response", "--regressors",
                      "--family", "--boot", "--seed", "--out"},
        "predict": {"--input", "--response", "--regressors",
                    "--seed", "--alpha", "--out", "--calibration"},
        "simulate": {"--population", "--n", "--reps", "--methods",
                     "--boot", "--seed", "--alpha", "--format", "--out"},
        "slopes": {"--input", "--response", "--regressors",
                   "--seed", "--format", "--out", "--coef", "--pairs-out"},
    }

    @pytest.mark.parametrize("subcommand", sorted(FLAGS))
    def test_help_lists_exactly_the_flags_read(self, subcommand, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([subcommand, "--help"])
        assert exc_info.value.code == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed - {"--help"} == self.FLAGS[subcommand]

    @pytest.mark.parametrize(
        "subcommand, flag, value",
        [
            ("bootstrap", "--alpha", "0.1"),
            ("bootstrap", "--format", "json"),
            ("predict", "--boot", "10"),
            ("predict", "--format", "json"),
            ("predict", "--folds", "4"),
            ("slopes", "--boot", "10"),
            ("slopes", "--alpha", "0.1"),
        ],
    )
    def test_removed_flag_is_usage_error(self, small_csv, subcommand, flag, value):
        with pytest.raises(SystemExit) as exc_info:
            main([subcommand, "--input", small_csv, "--response", "y",
                  "--regressors", "x", flag, value])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize("subcommand", ["fit", "predict", "simulate"])
    @pytest.mark.parametrize("alpha", ["0", "1", "1.5", "nan"])
    def test_alpha_outside_unit_interval_is_usage_error(
        self, small_csv, subcommand, alpha, capsys
    ):
        data = (
            ["--population", "quadratic.json", "--n", "50", "--reps", "2"]
            if subcommand == "simulate"
            else ["--input", small_csv, "--response", "y", "--regressors", "x"]
        )
        with pytest.raises(SystemExit) as exc_info:
            main([subcommand, *data, "--alpha", alpha])
        assert exc_info.value.code == 2
        assert f"--alpha: must be in (0, 1), got {alpha!r}" in capsys.readouterr().err


class TestFileErrors:
    @pytest.mark.parametrize("case", ["input", "population", "out", "out-dir"])
    def test_one_line_and_exit_one(self, small_csv, tmp_path, case, capsys):
        data = ["--input", small_csv, "--response", "y", "--regressors", "x"]
        existing = tmp_path / "existing"
        existing.write_text("")
        argv = {
            "input": ["fit", "--input", str(tmp_path / "nope.csv"),
                      "--response", "y", "--regressors", "x"],
            "population": ["simulate", "--population", str(tmp_path / "nope.json")],
            "out": ["fit", *data, "--boot", "0", "--out", str(tmp_path / "no" / "x.json")],
            "out-dir": ["bootstrap", *data, "--boot", "20", "--out", str(existing)],
        }[case]
        code, out, err = run_main(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("leanreg: error: ")
        assert err.count("\n") == 1 and err.endswith("\n")


class TestInputColumns:
    FIT = ["fit", "--boot", "0", "--format", "json"]

    def test_byte_order_mark_reads_as_without(self, tmp_path, capsys):
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(CSV_SMALL, encoding="utf-8")
        bom.write_text("\ufeff" + CSV_SMALL, encoding="utf-8")
        outputs = [
            run_main([*self.FIT, "--input", str(path), "--response", "y", "--regressors", "x"],
                     capsys)
            for path in (plain, bom)
        ]
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("text, regressors, message", [
        ("y,x,x\n1,2,3\n", "x", "column 'x' occurs more than once in header ['y', 'x', 'x']"),
        (CSV_SMALL, "y,x", "column 'y' is both the response and a regressor"),
        (CSV_SMALL, "x,y", "column 'y' is both the response and a regressor"),
    ], ids=["column-twice", "response-first", "response-last"])
    def test_ambiguous_columns_exit_one(self, tmp_path, capsys, text, regressors, message):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        argv = [*self.FIT, "--input", str(path), "--response", "y", "--regressors", regressors]
        assert run_main(argv, capsys) == (1, "", f"leanreg: error: {message}\n")


def refuse(*args, **kwargs):
    raise AssertionError("work started before the outputs were checked")


class TestOutputsCheckedFirst:
    """An output the run could not write fails the run before any input is read.

    Every loader, fit and bootstrap the CLI calls is replaced by
    :func:`refuse`, so reaching one fails the test.  Permission bits do
    not stop root, so the destinations are a missing directory and a
    path through a regular file.
    """

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        from leanreg import bootstrap, cli

        for name in ("load_csv", "load_population_file", "fit_glm"):
            monkeypatch.setattr(cli, name, refuse)
        monkeypatch.setattr(bootstrap, "xy_bootstrap", refuse)

    @pytest.mark.parametrize(
        "subcommand, flag, dest, code",
        [
            ("fit", "--out", "missing/x.json", errno.ENOENT),
            ("fit", "--out", "file/x.json", errno.ENOTDIR),
            ("fit", "--out", ".", errno.EISDIR),
            ("bootstrap", "--out", "file/sub", errno.ENOTDIR),
            ("bootstrap", "--out", "file/a/b", errno.ENOTDIR),
            ("bootstrap", "--out", "file", errno.EEXIST),
            ("predict", "--out", "file/sub", errno.ENOTDIR),
            ("simulate", "--out", "missing/x.json", errno.ENOENT),
            ("slopes", "--out", "file/x.json", errno.ENOTDIR),
            ("slopes", "--pairs-out", "missing/pairs.csv", errno.ENOENT),
        ],
    )
    def test_fails_before_work(self, tmp_path, monkeypatch, capsys, subcommand, flag, dest, code):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("")
        data = (["--population", "quadratic.json"] if subcommand == "simulate"
                else ["--input", "charges_synthetic.csv", "--response", "charges",
                      "--regressors", "age"])
        exit_code, out, err = run_main([subcommand, *data, flag, dest], capsys)
        assert exit_code == 1
        assert out == ""
        # The message writing the output would have given.
        assert err == f"leanreg: error: [Errno {code}] {os.strerror(code)}: {dest!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    def test_no_file_written_when_another_output_fails(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["slopes", "--input", "charges_synthetic.csv", "--response", "charges",
                "--regressors", "age", "--pairs-out", "pairs.csv", "--out", "missing/x.json"]
        code, _, err = run_main(argv, capsys)
        assert code == 1
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestOneBootstrapReplicate:
    """B = 1 can give no bootstrap SE, so it fails before any input is read."""

    MESSAGE = "leanreg: error: bootstrap SE needs at least 2 retained draws, have 1\n"

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        from leanreg import bootstrap, cli

        for name in ("load_csv", "load_population_file", "fit_glm", "coverage_experiment"):
            monkeypatch.setattr(cli, name, refuse)
        monkeypatch.setattr(bootstrap, "xy_bootstrap", refuse)

    @pytest.mark.parametrize("methods", ["xy-bootstrap", "sandwich,residual-bootstrap"])
    def test_simulate(self, methods, capsys):
        argv = ["simulate", "--population", "quadratic.json", "--n", "50", "--reps", "20",
                "--methods", methods, "--boot", "1"]
        assert run_main(argv, capsys) == (1, "", self.MESSAGE)

    def test_fit(self, capsys):
        argv = ["fit", "--input", "charges_synthetic.csv", "--response", "charges",
                "--regressors", "age", "--boot", "1"]
        assert run_main(argv, capsys) == (1, "", self.MESSAGE)


class TestFlagErrorsBeforeInput:
    """An error the flags alone decide is raised before any input is read.

    A bad ``--coef`` is such an error too: it is checked against the
    number of ``--regressors``, so it wins over a column missing from
    the input.
    """

    @pytest.fixture(autouse=True)
    def no_input(self, monkeypatch):
        from leanreg import cli

        monkeypatch.setattr(cli, "load_csv", refuse)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["bootstrap", "--boot", "5"], "normal-quantile diagnostics need B >= 10, got 5"),
            (["predict", "--calibration", "cv:1"], "cross-validation needs at least 2 folds"),
            (["slopes", "--coef", "9", "--pairs-out", "pairs.csv"],
             "regressor index 9 out of range 1..6"),
            (["slopes", "--coef", "0", "--pairs-out", "pairs.csv"],
             "column 0 is the intercept; adjust a regressor (j >= 1)"),
        ],
        ids=["bootstrap-boot-5", "predict-cv-1", "slopes-coef-9", "slopes-coef-0"],
    )
    def test_exit_one_before_input(self, tmp_path, monkeypatch, capsys, flags, message):
        monkeypatch.chdir(tmp_path)
        argv = [flags[0], "--input", "missing.csv", "--response", "y",
                "--regressors", ",".join(NAMES6), *flags[1:]]
        assert run_main(argv, capsys) == (1, "", f"leanreg: error: {message}\n")
        assert list(tmp_path.iterdir()) == []


def test_simulate_help_names_every_coverage_method(monkeypatch, capsys):
    from leanreg.population import COVERAGE_METHODS

    monkeypatch.setenv("COLUMNS", "200")  # keep the help's lines unwrapped
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    listed = re.search(r"comma list: (\S+)", capsys.readouterr().out).group(1)
    assert listed.split(",") == list(COVERAGE_METHODS)


@pytest.mark.parametrize(
    "name, subcommand",
    [("run_fit", "fit"), ("run_diagnostics", "bootstrap"), ("run_predict", "predict"),
     ("run_simulate", "simulate"), ("run_slopes", "slopes")],
)
def test_main_calls_the_run_function_bound_at_call_time(monkeypatch, name, subcommand):
    # Tracing or instrumentation replaces leanreg.cli.run_* after import.
    from leanreg import cli

    calls = []
    monkeypatch.setattr(cli, name, lambda args: calls.append(args.subcommand) or 7)
    data = (["--population", "p.json"] if subcommand == "simulate"
            else ["--input", "d.csv", "--response", "y", "--regressors", "x"])
    assert main([subcommand, *data]) == 7
    assert calls == [subcommand]


class TestConsoleEntry:
    def test_module_invocation(self, small_csv):
        proc = subprocess.run(
            [sys.executable, "-m", "leanreg.cli", "fit", "--input", small_csv,
             "--response", "y", "--regressors", "x", "--boot", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "Coeff" in proc.stdout

    def test_no_subcommand_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "leanreg.cli"], capture_output=True, text=True
        )
        assert proc.returncode == 2
