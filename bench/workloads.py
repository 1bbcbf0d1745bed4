"""Benchmark workloads: the inputs each one generates and the CLI jobs it runs.

Every job is an argv for ``leanreg.cli.main``.  Jobs run in a working
directory that holds the generated inputs; the bundled data files
(``charges_synthetic.csv``, ``quadratic.json``, ``fig2.json``) are named
bare, so the CLI resolves them from the package, as a user's run would.

Only CLI surface that the planned simplifications keep is used: no
``--workers``, no ``--boot`` on ``predict`` or ``slopes``, no
``--format`` on ``bootstrap`` or ``predict``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("report", "coverage", "interpret")

CHARGES = "charges_synthetic.csv"
CHARGES_COLUMNS = ["age", "male", "priors", "prior_sentences", "drug_priors", "age_first_charge"]


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is the benchmark, SMOKE the seconds-long self-test."""

    boot: int | None  # B for fit/bootstrap; None keeps the CLI default (1000)
    analytic: tuple[int, int]  # (n, reps) of the conventional/sandwich simulate job
    boot_sim: tuple[int, int, int]  # (n, reps, B) of the four-method simulate job
    wide: int
    square: int
    pairs: int
    setup_probes: int  # extra import-only children of an untraced run, for setup_s
    import_probes: int  # `-X importtime` children of a traced run
    reference_iterations: int  # size of the reference computation around each round's jobs


FULL = Sizes(boot=None, analytic=(1000, 4000), boot_sim=(100, 100, 200), wide=20000, square=3000,
             pairs=600, setup_probes=4, import_probes=3, reference_iterations=20000)
SMOKE = Sizes(boot=100, analytic=(200, 200), boot_sim=(60, 20, 20), wide=400, square=150,
              pairs=40, setup_probes=0, import_probes=1, reference_iterations=1000)


@dataclass(frozen=True)
class Job:
    """One CLI invocation.

    ``metric`` is the job-group timing it adds to (e.g. ``fit_s``), or
    None for a job counted only in ``wall_s``;
    ``outputs`` are the files or directories it writes, relative to the
    working directory; ``check`` names the oracle in checks.py and
    ``params`` carries what that oracle needs.
    """

    metric: str | None
    argv: list[str]
    outputs: list[str]
    check: str
    params: dict = field(default_factory=dict)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _misspecified_sample(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    """Columns y, x1..xp with x ~ N(0, I) and a curved, heteroskedastic mean."""
    x = rng.standard_normal((n, p))
    eps = rng.standard_normal(n)
    y = x[:, 0] + 0.5 * x[:, 0] ** 2 + (1.0 + np.abs(x[:, 1])) * eps
    return np.column_stack([y, x])


def _write_csv(path: Path, data: np.ndarray) -> None:
    names = ["y"] + [f"x{j}" for j in range(1, data.shape[1])]
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=",".join(names), comments="")


def make_inputs(workload: str, seed: int, sizes: Sizes, workdir: Path, datadir: Path) -> dict:
    """Write the workload's generated CSVs into workdir and describe every input.

    Returns {name: {"path", "sha256", "n", "p", "generated"}} for generated
    and bundled inputs alike.
    """
    inputs = {}
    if workload == "interpret":
        rng = np.random.default_rng(seed)
        for name, n, p in (("wide", sizes.wide, 6), ("square", sizes.square, 6), ("pairs", sizes.pairs, 3)):
            path = workdir / f"{name}.csv"
            _write_csv(path, _misspecified_sample(rng, n, p))
            inputs[name] = {"path": str(path), "sha256": _sha256(path), "n": n, "p": p, "generated": True}
    used = {"report": ["charges_synthetic.csv"], "coverage": ["quadratic.json", "fig2.json"],
            "interpret": []}[workload]
    for name in used:
        path = datadir / name
        if not path.is_file():
            raise FileNotFoundError(f"bundled input {path} is missing")
        inputs[name] = {"path": str(path), "sha256": _sha256(path), "generated": False, **_shape(path)}
    return inputs


def _shape(path: Path) -> dict:
    """n and p of a bundled input: data rows and regressors, or support size and dimension."""
    if path.suffix == ".csv":
        with path.open(encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            rows = sum(1 for line in fh if line.strip())
        return {"n": rows, "p": len(header) - 1}
    obj = json.loads(path.read_text(encoding="utf-8"))
    support = obj["support"] if "support" in obj else obj["laws"][0]["support"]
    return {"n": len(support), "p": len(support[0])}


def jobs_for(workload: str, seed: int, sizes: Sizes) -> list[Job]:
    s = ["--seed", str(seed)]
    boot = [] if sizes.boot is None else ["--boot", str(sizes.boot)]
    b_effective = 1000 if sizes.boot is None else sizes.boot
    if workload == "report":
        all_cols = ",".join(CHARGES_COLUMNS)
        not_male = ",".join(c for c in CHARGES_COLUMNS if c != "male")
        fits = [("poisson", "charges", all_cols), ("logit", "male", not_male), ("ols", "charges", all_cols)]
        jobs = [
            Job("fit_s",
                ["fit", "--input", CHARGES, "--response", resp, "--regressors", regs,
                 "--family", fam, "--format", "json", "--out", f"fit_{fam}.json", *boot, *s],
                [f"fit_{fam}.json"], "fit",
                {"family": fam, "response": resp, "regressors": regs.split(","), "B": b_effective})
            for fam, resp, regs in fits
        ]
        jobs.append(Job(
            "diag_s",
            ["bootstrap", "--input", CHARGES, "--response", "charges", "--regressors", all_cols,
             "--family", "poisson", "--out", "diag", *boot, *s],
            ["diag"], "bootstrap",
            {"family": "poisson", "response": "charges", "regressors": CHARGES_COLUMNS,
             "B": b_effective, "seed": seed}))
        return jobs
    if workload == "coverage":
        (n_a, reps_a), (n_b, reps_b, b_b) = sizes.analytic, sizes.boot_sim
        return [
            Job("coverage_analytic_s",
                ["simulate", "--population", "quadratic.json", "--n", str(n_a), "--reps", str(reps_a),
                 "--format", "json", "--out", "cov_analytic.json", *s],
                ["cov_analytic.json"], "coverage",
                {"n": n_a, "reps": reps_a, "methods": ["conventional", "sandwich"]}),
            Job("coverage_boot_s",
                ["simulate", "--population", "quadratic.json", "--n", str(n_b), "--reps", str(reps_b),
                 "--boot", str(b_b), "--methods",
                 "conventional,sandwich,xy-bootstrap,residual-bootstrap",
                 "--format", "json", "--out", "cov_boot.json", *s],
                ["cov_boot.json"], "coverage",
                {"n": n_b, "reps": reps_b,
                 "methods": ["conventional", "sandwich", "xy-bootstrap", "residual-bootstrap"]}),
            Job(None,
                ["simulate", "--population", "fig2.json", "--format", "json", "--out", "shift.json", *s],
                ["shift.json"], "shift", {}),
        ]
    if workload == "interpret":
        wide = ",".join(f"x{j}" for j in range(1, 7))
        return [
            Job("predict_s",
                ["predict", "--input", "wide.csv", "--response", "y", "--regressors", wide,
                 "--out", "pred_train", *s],
                ["pred_train"], "predict", {"input": "wide", "calibration": "train"}),
            Job("predict_s",
                ["predict", "--input", "wide.csv", "--response", "y", "--regressors", wide,
                 "--calibration", "cv:10", "--out", "pred_cv", *s],
                ["pred_cv"], "predict", {"input": "wide", "calibration": "cv:10"}),
            Job("slopes_s",
                ["slopes", "--input", "square.csv", "--response", "y", "--regressors", wide,
                 "--format", "json", "--out", "slopes.json", *s],
                ["slopes.json"], "slopes", {"input": "square"}),
            Job("pairs_s",
                ["slopes", "--input", "pairs.csv", "--response", "y", "--regressors", "x1,x2,x3",
                 "--format", "json", "--out", "pairs_summary.json", "--pairs-out", "pairs.csv.out", *s],
                ["pairs_summary.json", "pairs.csv.out"], "pairs", {"input": "pairs"}),
        ]
    raise KeyError(workload)
