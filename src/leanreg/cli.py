"""Command-line front end.

Subcommands: fit, bootstrap, predict, simulate, slopes.  Every run is
reproducible: the seed is explicit or a fixed documented default, never
wall clock, and identical flags produce byte-identical primary outputs.
Bootstrap replicate b depends only on (seed, b), not on the replicate
count or on how replicates are chunked.  Exit codes: 0 success, 1
computational error, 2 usage error.  No plotting happens in-process;
diagnostics are emitted as plot-ready CSV.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from importlib import resources
from pathlib import Path

from . import bootstrap as bt
from . import prediction as pred
from .core import build_design, load_csv
from .covariance import conventional_cov, coefficient_table, sandwich_cov
from .exceptions import InsufficientDrawsError, LeanRegError
from .fitting import family_by_name, fit_dataset, fit_ols
from .population import (
    coverage_experiment,
    load_population_file,
    regressor_shift_experiment,
)
from .report import misspec_indicator
from .slopes import adjust_regressor, pair_table_csv, pairwise_slope_multiple

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


def _load_dataset(args):
    regressors = [c.strip() for c in args.regressors.split(",") if c.strip()]
    return load_csv(_resolve_input(args.input), args.response, regressors)


def _add_data_flags(sp):
    sp.add_argument("--input", required=True, help="CSV file (or bundled dataset name)")
    sp.add_argument("--response", required=True, help="response column name")
    sp.add_argument(
        "--regressors", required=True, help="comma-separated regressor column names"
    )


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# ----------------------------------------------------------------- fit


def run_fit(args) -> int:
    ds = _load_dataset(args)
    family = family_by_name(args.family)
    fit = fit_dataset(ds, family)
    conv = conventional_cov(fit)
    sand = sandwich_cov(fit)
    boot_se = None
    if args.boot > 0:
        draws = bt.xy_bootstrap(ds, family, args.boot, args.seed)
        boot_se = bt.bootstrap_se(draws)
    table = coefficient_table(fit, conv, sand, boot_se)
    indicator = misspec_indicator(table, level=args.alpha)

    if args.format == "json":
        payload = {
            "fit": fit.to_json_dict(),
            "table": table.to_json_dict(),
            "diagnostics": indicator.to_json_dict(),
        }
        _write_output(_json_dumps(payload), args.out)
    elif args.format == "csv":
        _write_output(table.to_csv_text(), args.out)
    else:
        _write_output(table.to_text() + "\n" + indicator.to_text(), args.out)
    return 0


# ----------------------------------------------------------- bootstrap


def run_diagnostics(args) -> int:
    ds = _load_dataset(args)
    family = family_by_name(args.family)
    if args.boot < bt.MIN_DIAGNOSTIC_DRAWS:
        raise InsufficientDrawsError(
            f"normal-quantile diagnostics need B >= {bt.MIN_DIAGNOSTIC_DRAWS}, got {args.boot}"
        )
    draws = bt.xy_bootstrap(ds, family, args.boot, args.seed)
    reports = [
        bt.normality_diagnostic(draws, j) for j in range(draws.draws.shape[1])
    ]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["coefficient", "label", "qq_correlation"])
    for j, rep in enumerate(reports):
        writer.writerow([j, draws.labels[j], repr(rep.qq_correlation)])
    summary = buf.getvalue()

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
    ds = _load_dataset(args)
    fit = fit_dataset(ds)
    calibration = args.calibration
    if args.folds is not None and calibration == "train":
        calibration = f"cv:{args.folds}"
    if calibration == "train":
        k_hat = pred.calibrate_K(fit, ds, args.alpha)
    else:
        folds = int(calibration.split(":", 1)[1])
        k_hat = pred.cv_calibrate_K(ds, args.alpha, folds, args.seed)
    band = pred.make_band(fit, args.alpha, K=k_hat)

    x = build_design(ds).matrix
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([*ds.names, "yhat", "lower", "upper"])
    for i in range(ds.n):
        lo, hi = pred.interval(band, x[i])
        writer.writerow(
            [repr(float(v)) for v in ds.regressors[i]]
            + [repr(float(x[i] @ band.beta_hat)), repr(lo), repr(hi)]
        )
    intervals_csv = buf.getvalue()
    summary = {
        "K_hat": k_hat,
        "alpha": args.alpha,
        "calibration": calibration,
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


def _coverage_csv(results) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["method", "coefficient", "level", "coverage", "mean_width", "replications", "mc_se"]
    )
    for r in results:
        writer.writerow(
            [
                r.method,
                r.coefficient,
                repr(r.level),
                repr(r.coverage),
                repr(r.mean_width),
                r.replications,
                repr(r.mc_se),
            ]
        )
    return buf.getvalue()


def run_simulate(args) -> int:
    loaded = load_population_file(_resolve_input(args.population))

    if isinstance(loaded, dict):  # regressor-shift definition
        res = regressor_shift_experiment(
            loaded["mu"], loaded["noise"], loaded["laws"][0], loaded["laws"][1]
        )
        payload = {
            "experiment": "regressor-shift",
            "beta_1": [float(v) for v in res["beta_1"]],
            "beta_2": [float(v) for v in res["beta_2"]],
            "max_abs_difference": res["max_abs_difference"],
        }
        if args.format == "json":
            _write_output(_json_dumps(payload), args.out)
        elif args.format == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["coefficient", "beta_law1", "beta_law2"])
            for j, (b1, b2) in enumerate(zip(res["beta_1"], res["beta_2"])):
                writer.writerow([j, repr(float(b1)), repr(float(b2))])
            _write_output(buf.getvalue(), args.out)
        else:
            lines = ["regressor-shift experiment (same response surface, two laws)"]
            for j, (b1, b2) in enumerate(zip(res["beta_1"], res["beta_2"])):
                lines.append(f"  beta[{j}]: {b1:.4f} vs {b2:.4f}")
            lines.append(f"  max abs difference: {res['max_abs_difference']:.4f}")
            _write_output("\n".join(lines) + "\n", args.out)
        return 0

    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    results = coverage_experiment(
        loaded,
        n=args.n,
        replications=args.reps,
        methods=methods,
        level=1.0 - args.alpha,
        B=args.boot,
        seed=args.seed,
    )
    if args.format == "json":
        payload = {
            "experiment": "coverage",
            "results": [
                {
                    "method": r.method,
                    "coefficient": r.coefficient,
                    "level": r.level,
                    "coverage": r.coverage,
                    "mean_width": r.mean_width,
                    "replications": r.replications,
                    "mc_se": r.mc_se,
                }
                for r in results
            ],
        }
        _write_output(_json_dumps(payload), args.out)
    else:
        _write_output(_coverage_csv(results), args.out)
    return 0


# -------------------------------------------------------------- slopes


def run_slopes(args) -> int:
    ds = _load_dataset(args)
    dm = build_design(ds)
    fit = fit_ols(dm, ds.response)
    rows = []
    for j in range(1, dm.ncol):
        summary = pairwise_slope_multiple(dm, ds.response, j)
        rows.append(
            {
                "coefficient": j,
                "label": dm.column_labels[j],
                "beta_pairwise": summary.beta,
                "beta_ols": float(fit.beta_hat[j]),
                "total_weight": summary.total_weight,
                "pair_count": summary.pair_count,
            }
        )

    if args.pairs_out is not None:
        adj = adjust_regressor(dm, ds.response, args.coef)
        Path(args.pairs_out).write_text(
            pair_table_csv(adj["x_adj"], adj["y_input"]), encoding="utf-8"
        )

    if args.format == "json":
        _write_output(_json_dumps({"slopes": rows}), args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["coefficient", "label", "beta_pairwise", "beta_ols", "total_weight", "pair_count"]
        )
        for r in rows:
            writer.writerow(
                [
                    r["coefficient"],
                    r["label"],
                    repr(r["beta_pairwise"]),
                    repr(r["beta_ols"]),
                    repr(r["total_weight"]),
                    r["pair_count"],
                ]
            )
        _write_output(buf.getvalue(), args.out)
    else:
        lines = ["coefficients as distance-weighted averages of pairwise slopes"]
        for r in rows:
            lines.append(
                f"  {r['label']}: beta = {r['beta_pairwise']:.4f} "
                f"(OLS {r['beta_ols']:.4f}; {r['pair_count']} weighted pairs)"
            )
        _write_output("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leanreg",
        description="Assumption-lean regression with misspecification-robust inference.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, family=True):
        if family:
            sp.add_argument(
                "--family",
                default="ols",
                choices=["ols", "logit", "poisson"],
                help="working-model family (default ols)",
            )
        sp.add_argument("--boot", type=int, default=DEFAULT_B, metavar="B",
                        help=f"bootstrap replicates (default {DEFAULT_B})")
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"RNG seed (default {DEFAULT_SEED})")
        sp.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                        help=f"miscoverage/significance level (default {DEFAULT_ALPHA})")
        sp.add_argument("--format", default="text", choices=["text", "json", "csv"])
        sp.add_argument("--out", default=None, help="output file (or directory)")

    sp_fit = sub.add_parser("fit", help="fit a working model and report robust SEs")
    _add_data_flags(sp_fit)
    common(sp_fit)
    sp_fit.set_defaults(func=run_fit)

    sp_boot = sub.add_parser(
        "bootstrap", help="x-y bootstrap draws and normal-quantile diagnostics"
    )
    _add_data_flags(sp_boot)
    common(sp_boot)
    sp_boot.set_defaults(func=run_diagnostics)

    sp_pred = sub.add_parser("predict", help="calibrated prediction intervals")
    _add_data_flags(sp_pred)
    common(sp_pred, family=False)
    sp_pred.add_argument(
        "--calibration",
        default="train",
        help="'train' or 'cv:K' for K-fold cross-validated calibration",
    )
    sp_pred.add_argument(
        "--folds", type=int, default=None,
        help="shorthand for --calibration cv:FOLDS",
    )
    sp_pred.set_defaults(func=run_predict)

    sp_sim = sub.add_parser(
        "simulate", help="coverage or regressor-shift experiments on a population file"
    )
    sp_sim.add_argument("--population", required=True, help="population JSON file")
    sp_sim.add_argument("--n", type=int, default=1000, help="sample size per replication")
    sp_sim.add_argument("--reps", type=int, default=1000, help="number of replications")
    sp_sim.add_argument(
        "--methods",
        default="conventional,sandwich",
        help="comma list: conventional,sandwich,xy-bootstrap,residual-bootstrap",
    )
    common(sp_sim, family=False)
    sp_sim.set_defaults(func=run_simulate)

    sp_slopes = sub.add_parser(
        "slopes", help="pairwise-slope decomposition of the OLS coefficients"
    )
    _add_data_flags(sp_slopes)
    common(sp_slopes, family=False)
    sp_slopes.add_argument("--coef", type=int, default=1,
                           help="coefficient for --pairs-out (default 1)")
    sp_slopes.add_argument("--pairs-out", default=None,
                           help="write the full pair table (i,j,weight,slope) here")
    sp_slopes.set_defaults(func=run_slopes)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "predict" and args.calibration != "train":
        parts = args.calibration.split(":", 1)
        if parts[0] != "cv" or len(parts) != 2 or not parts[1].isdigit():
            parser.error("--calibration must be 'train' or 'cv:K' with integer K")
    try:
        return args.func(args)
    except LeanRegError as exc:
        print(f"leanreg: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
