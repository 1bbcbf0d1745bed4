"""CLI contract: subcommands, exit codes, format parity, reproducibility."""

import json
import subprocess
import sys

import pytest

from leanreg.cli import main

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

    def test_folds_flag_is_cv_shorthand(self, small_csv, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        base = ["predict", "--input", small_csv, "--response", "y",
                "--regressors", "x", "--seed", "3"]
        assert main(base + ["--calibration", "cv:4", "--out", str(out_a)]) == 0
        assert main(base + ["--folds", "4", "--out", str(out_b)]) == 0
        assert (out_a / "intervals.csv").read_bytes() == (out_b / "intervals.csv").read_bytes()
        assert (out_a / "calibration.json").read_bytes() == (out_b / "calibration.json").read_bytes()

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

    def test_schema_error_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"support": [[0.0]], "probs": [1.0]}))
        code, _, err = run_main(["simulate", "--population", str(bad)], capsys)
        assert code == 1
        assert "mu" in err


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
