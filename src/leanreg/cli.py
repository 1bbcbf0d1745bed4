"""Command-line front end.

Subcommands: fit, bootstrap, predict, simulate, slopes.  Every run is
reproducible: the seed is explicit or a fixed documented default, never
wall clock, and identical flags produce byte-identical primary outputs.
Bootstrap replicate b depends only on (seed, b), not on the replicate
count or on how replicates are chunked.  Exit codes: 0 success, 1
computational or file error, 2 usage error.  No plotting happens
in-process; diagnostics are emitted as plot-ready CSV.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from importlib import resources
from pathlib import Path

from . import bootstrap as bt
from . import prediction as pred
from .core import csv_text, load_csv
from .covariance import conventional_cov, coefficient_table, sandwich_cov
from .exceptions import DomainError, InsufficientDrawsError, LeanRegError
from .fitting import GAUSSIAN, family_by_name, fit_glm
from .population import (
    COVERAGE_METHODS,
    coverage_experiment,
    load_population_file,
    regressor_shift_experiment,
)
from .report import misspec_indicator
from .slopes import adjust_regressor, check_regressor_index, pair_table_csv, pairwise_slope_multiple

DEFAULT_SEED = 20150701
DEFAULT_B = 1000
DEFAULT_ALPHA = 0.05


def _resolve_input(path_str: str) -> str:
    """A real path wins; otherwise fall back to the bundled data dir."""
    if Path(path_str).exists():
        return path_str
    bundled = resources.files("leanreg").joinpath("data", path_str)
    if bundled.is_file():
        return str(bundled)
    return path_str  # let the loader raise its usual error


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _check_outputs(args) -> None:
    """Raise, before any input is read, the OSError that writing an output would meet.

    ``--out`` of ``bootstrap`` and ``predict`` is a directory, made with
    its parents; every other output is a file in an existing directory.
    Nothing is created here.
    """
    for flag in ("out", "pairs_out"):
        path = getattr(args, flag, None)
        if path is None:
            continue
        directory = flag == "out" and args.subcommand in ("bootstrap", "predict")
        target = Path(path)
        if target.exists():
            ok = target.is_dir() == directory
            code = errno.EEXIST if directory else errno.EISDIR
        else:
            parent = target.parent
            while directory and not parent.exists():  # missing parents are made
                parent = parent.parent
            ok = parent.is_dir()
            code = errno.ENOTDIR if parent.exists() else errno.ENOENT
        if not ok:
            raise OSError(code, os.strerror(code), path)


def _regressors(args) -> list[str]:
    return [c.strip() for c in args.regressors.split(",") if c.strip()]


def _load_dataset(args):
    return load_csv(_resolve_input(args.input), args.response, _regressors(args))


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _emit(args, json, csv, text) -> None:
    """Write the rendering ``--format`` selects; only that renderer runs."""
    render = {"json": json, "csv": csv, "text": text}[args.format]
    _write_output(render(), args.out)


def _records_csv(fields, records) -> str:
    """CSV with one column per field, read from each record by key."""
    return csv_text(fields, [[r[f] for r in records] for f in fields])


# ----------------------------------------------------------------- fit


def run_fit(args) -> int:
    if args.boot > 0:  # B replicates give at most B draws: check before any work
        bt.check_se_draws(args.boot)
    ds = _load_dataset(args)
    family = family_by_name(args.family)
    fit = fit_glm(ds, family)
    conv = conventional_cov(fit)
    sand = sandwich_cov(fit)
    boot_se = None
    if args.boot > 0:
        draws = bt.xy_bootstrap(ds, family, args.boot, args.seed)
        boot_se = bt.bootstrap_se(draws)
    table = coefficient_table(fit, conv, sand, boot_se)
    indicator = misspec_indicator(table, level=args.alpha)

    _emit(
        args,
        json=lambda: _json_dumps(
            {
                "fit": fit.to_json_dict(),
                "table": table.to_json_dict(),
                "diagnostics": indicator.to_json_dict(),
            }
        ),
        csv=table.to_csv_text,
        text=lambda: table.to_text() + "\n" + indicator.to_text(),
    )
    return 0


# ----------------------------------------------------------- bootstrap


def run_diagnostics(args) -> int:
    if args.boot < bt.MIN_DIAGNOSTIC_DRAWS:
        raise InsufficientDrawsError(
            f"normal-quantile diagnostics need B >= {bt.MIN_DIAGNOSTIC_DRAWS}, got {args.boot}"
        )
    ds = _load_dataset(args)
    family = family_by_name(args.family)
    draws = bt.xy_bootstrap(ds, family, args.boot, args.seed)
    reports = [
        bt.normality_diagnostic(draws, j) for j in range(draws.draws.shape[1])
    ]

    summary = csv_text(
        ["coefficient", "label", "qq_correlation"],
        [range(len(reports)), draws.labels, [rep.qq_correlation for rep in reports]],
    )

    if args.out is None:
        sys.stdout.write(summary)
        return 0
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "draws.csv").write_text(draws.to_csv_text(), encoding="utf-8")
    for j, rep in enumerate(reports):
        (outdir / f"qq_{j}.csv").write_text(rep.to_csv_text(), encoding="utf-8")
    (outdir / "qq_summary.csv").write_text(summary, encoding="utf-8")
    return 0


# ------------------------------------------------------------- predict


def run_predict(args) -> int:
    if args.calibration != "train":
        folds = int(args.calibration.split(":", 1)[1])
        pred.check_folds(folds)
    ds = _load_dataset(args)
    fit = fit_glm(ds, GAUSSIAN)
    if args.calibration == "train":
        k_hat = pred.calibrate_K(fit, args.alpha)
    else:
        k_hat = pred.cv_calibrate_K(ds, args.alpha, folds, args.seed)
    band = pred.make_band(fit, K=k_hat)
    yhat, half = band.evaluate(ds.design)
    intervals_csv = csv_text(
        [*ds.names, "yhat", "lower", "upper"],
        [*ds.regressors.T, yhat, yhat - half, yhat + half],
    )
    summary = {
        "K_hat": k_hat,
        "alpha": args.alpha,
        "calibration": args.calibration,
        "training_coverage": pred.future_coverage(band, ds),
        "sigma_hat": band.sigma_hat,
    }

    if args.out is None:
        sys.stdout.write(intervals_csv)
        return 0
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "intervals.csv").write_text(intervals_csv, encoding="utf-8")
    (outdir / "calibration.json").write_text(_json_dumps(summary), encoding="utf-8")
    return 0


# ------------------------------------------------------------ simulate


_COVERAGE_FIELDS = (
    "method", "coefficient", "level", "coverage", "mean_width", "replications", "mc_se"
)
# Flags only a coverage experiment reads; a regressor-shift file rejects them.
_COVERAGE_ONLY = ("--n", "--reps", "--methods", "--boot", "--alpha")


def run_simulate(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    paths = [COVERAGE_METHODS[m][1] for m in methods if m in COVERAGE_METHODS]
    if args.boot > 0 and any(p is not None for p in paths):  # as in run_fit
        bt.check_se_draws(args.boot)
    loaded = load_population_file(_resolve_input(args.population))

    if isinstance(loaded, dict):  # regressor-shift definition
        ignored = [f for f in _COVERAGE_ONLY if getattr(args, f[2:]) != _FLAGS[f]["default"]]
        if ignored:
            raise DomainError(
                f"{args.population} is a regressor-shift definition, which reads none of "
                + ", ".join(ignored)
            )
        res = regressor_shift_experiment(
            loaded["mu"], loaded["noise"], loaded["laws"][0], loaded["laws"][1]
        )
        beta_1, beta_2 = res["beta_1"], res["beta_2"]
        _emit(
            args,
            json=lambda: _json_dumps(
                {
                    "experiment": "regressor-shift",
                    "beta_1": [float(v) for v in beta_1],
                    "beta_2": [float(v) for v in beta_2],
                    "max_abs_difference": res["max_abs_difference"],
                }
            ),
            csv=lambda: csv_text(
                ["coefficient", "beta_law1", "beta_law2"], [range(len(beta_1)), beta_1, beta_2]
            ),
            text=lambda: "\n".join(
                ["regressor-shift experiment (same response surface, two laws)"]
                + [
                    f"  beta[{j}]: {b1:.4f} vs {b2:.4f}"
                    for j, (b1, b2) in enumerate(zip(beta_1, beta_2))
                ]
                + [f"  max abs difference: {res['max_abs_difference']:.4f}"]
            )
            + "\n",
        )
        return 0

    results = coverage_experiment(
        loaded,
        n=args.n,
        replications=args.reps,
        methods=methods,
        level=1.0 - args.alpha,
        B=args.boot,
        seed=args.seed,
    )
    records = [{f: getattr(r, f) for f in _COVERAGE_FIELDS} for r in results]

    def coverage_csv() -> str:
        return _records_csv(_COVERAGE_FIELDS, records)

    _emit(
        args,
        json=lambda: _json_dumps({"experiment": "coverage", "results": records}),
        csv=coverage_csv,
        text=coverage_csv,
    )
    return 0


# -------------------------------------------------------------- slopes


def run_slopes(args) -> int:
    if args.pairs_out is None and args.coef != _FLAGS["--coef"]["default"]:
        raise DomainError("--coef selects the coefficient of --pairs-out, which is not given")
    if args.pairs_out is not None:
        check_regressor_index(args.coef, len(_regressors(args)))
    ds = _load_dataset(args)
    fit = fit_glm(ds, GAUSSIAN)
    rows = []
    for j, label in enumerate(ds.names, start=1):
        summary = pairwise_slope_multiple(ds, j)
        rows.append(
            {
                "coefficient": j,
                "label": label,
                "beta_pairwise": summary.beta,
                "beta_ols": float(fit.beta_hat[j]),
                "total_weight": summary.total_weight,
                "pair_count": summary.pair_count,
            }
        )

    if args.pairs_out is not None:
        Path(args.pairs_out).write_text(
            pair_table_csv(adjust_regressor(ds, args.coef), ds.response), encoding="utf-8"
        )

    _emit(
        args,
        json=lambda: _json_dumps({"slopes": rows}),
        csv=lambda: _records_csv(
            ("coefficient", "label", "beta_pairwise", "beta_ols", "total_weight", "pair_count"),
            rows,
        ),
        text=lambda: "\n".join(
            ["coefficients as distance-weighted averages of pairwise slopes"]
            + [
                f"  {r['label']}: beta = {r['beta_pairwise']:.4f} "
                f"(OLS {r['beta_ols']:.4f}; {r['pair_count']} weighted pairs)"
                for r in rows
            ]
        )
        + "\n",
    )
    return 0


# ---------------------------------------------------------------- main


def _boot_count(value: str) -> int:
    """Type of ``--boot``: a non-negative integer (0 skips the bootstrap in fit)."""
    if not value.isdigit():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value!r}")
    return int(value)


def _seed(value: str) -> int:
    """Type of ``--seed``: a non-negative integer, of any size."""
    seed = int(value)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value!r}")
    return seed


def _alpha(value: str) -> float:
    """Type of ``--alpha``: a level strictly between 0 and 1."""
    alpha = float(value)
    if not 0.0 < alpha < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {value!r}")
    return alpha


def _calibration(value: str) -> str:
    """Type of ``--calibration``: 'train' or 'cv:K' with integer K."""
    kind, _, folds = value.partition(":")
    if value != "train" and (kind != "cv" or not folds.isdigit()):
        raise argparse.ArgumentTypeError("must be 'train' or 'cv:K' with integer K")
    return value


# Every flag, by name.  A subcommand registers exactly the flags its
# run_* function reads, so no flag is accepted and then ignored.
_FLAGS = {
    "--input": dict(required=True, help="CSV file (or bundled dataset name)"),
    "--response": dict(required=True, help="response column name"),
    "--regressors": dict(required=True, help="comma-separated regressor column names"),
    "--population": dict(required=True, help="population JSON file"),
    "--n": dict(type=int, default=1000, help="sample size per replication"),
    "--reps": dict(type=int, default=1000, help="number of replications"),
    "--methods": dict(  # by default, the methods without a bootstrap
        default=",".join(m for m, (_, path) in COVERAGE_METHODS.items() if path is None),
        help="comma list: " + ",".join(COVERAGE_METHODS),
    ),
    "--family": dict(
        default="ols",
        choices=["ols", "logit", "poisson"],
        help="working-model family (default ols)",
    ),
    "--boot": dict(type=_boot_count, default=DEFAULT_B, metavar="B",
                   help=f"bootstrap replicates (default {DEFAULT_B})"),
    "--seed": dict(type=_seed, default=DEFAULT_SEED,
                   help=f"RNG seed (default {DEFAULT_SEED})"),
    "--alpha": dict(type=_alpha, default=DEFAULT_ALPHA,
                    help=f"miscoverage/significance level (default {DEFAULT_ALPHA})"),
    "--format": dict(default="text", choices=["text", "json", "csv"]),
    "--out": dict(default=None, help="output file (or directory)"),
    "--calibration": dict(
        type=_calibration,
        default="train",
        help="'train' or 'cv:K' for K-fold cross-validated calibration",
    ),
    "--coef": dict(type=int, default=1, help="coefficient for --pairs-out (default 1)"),
    "--pairs-out": dict(default=None,
                        help="write the full pair table (i,j,weight,slope) here"),
}

_DATA = ("--input", "--response", "--regressors")

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leanreg",
        description="Assumption-lean regression with misspecification-robust inference.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # name: (run function, help, flags), looked up per call so that a
    # replaced run_* is the one main calls.  slopes reads no --seed; it is
    # accepted so that one seed argument can be passed to every subcommand.
    subcommands = {
        "fit": (
            run_fit,
            "fit a working model and report robust SEs",
            (*_DATA, "--family", "--boot", "--seed", "--alpha", "--format", "--out"),
        ),
        "bootstrap": (
            run_diagnostics,
            "x-y bootstrap draws and normal-quantile diagnostics",
            (*_DATA, "--family", "--boot", "--seed", "--out"),
        ),
        "predict": (
            run_predict,
            "calibrated prediction intervals",
            (*_DATA, "--seed", "--alpha", "--out", "--calibration"),
        ),
        "simulate": (
            run_simulate,
            "coverage or regressor-shift experiments on a population file",
            ("--population", "--n", "--reps", "--methods",
             "--boot", "--seed", "--alpha", "--format", "--out"),
        ),
        "slopes": (
            run_slopes,
            "pairwise-slope decomposition of the OLS coefficients",
            (*_DATA, "--seed", "--format", "--out", "--coef", "--pairs-out"),
        ),
    }
    for name, (func, help_text, flags) in subcommands.items():
        sp = sub.add_parser(name, help=help_text)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except (LeanRegError, OSError) as exc:
        print(f"leanreg: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
