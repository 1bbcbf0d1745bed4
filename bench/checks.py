"""Correctness oracles for the benchmark's job outputs.

Each oracle recomputes what a job claims with plain numpy, independently
of leanreg, and returns a list of failure messages (empty when the
output is right).  Tolerances, not byte digests, because a faster
engine may move results at rounding level.  Every bound below holds for
any seed: the statistical ones allow at least four Monte Carlo standard
errors plus a stated finite-sample allowance.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

LEVEL = 0.95  # the CLI's default 1 - alpha; no job passes --alpha
RTOL = 1e-7  # recomputation of a closed form at the reported coefficients
GLM_SCORE_TOL = 1e-6  # 10x the library's own IRLS score criterion (1e-7)


def _load_table(path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _columns(path, response: str, regressors: list[str]):
    header, data = _load_table(path)
    y = data[:, header.index(response)]
    x = np.column_stack([np.ones(len(y))] + [data[:, header.index(c)] for c in regressors])
    return x, y


def _close(name: str, got, want, rtol: float, atol: float = 0.0) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    if not np.allclose(got, want, rtol=rtol, atol=atol):
        worst = float(np.max(np.abs(got - want)))
        return [f"{name}: max abs difference {worst:.3e} exceeds rtol {rtol:g} atol {atol:g}"]
    return []


_MEAN = {"ols": lambda t: t, "logit": lambda t: 1.0 / (1.0 + np.exp(-t)), "poisson": np.exp}
_VARIANCE = {"ols": np.ones_like, "logit": lambda mu: mu * (1.0 - mu), "poisson": lambda mu: mu}


def _fit_oracle(family: str, x, y, beta) -> list[str]:
    """The reported coefficients solve the family's sample normal equations."""
    if family == "ols":
        want, *_ = np.linalg.lstsq(x, y, rcond=None)
        return _close("ols coefficients vs lstsq", beta, want, RTOL, 1e-9 * np.max(np.abs(want)))
    mu = _MEAN[family](x @ beta)
    score = float(np.max(np.abs(x.T @ (y - mu)))) / len(y)
    bound = GLM_SCORE_TOL * max(1.0, float(np.mean(np.abs(y))))
    return [] if score <= bound else [f"{family} score norm {score:.3e} > {bound:.3e}"]


def _covariances(family: str, x, y, beta):
    """Conventional and sandwich covariance of beta, by their textbook formulas."""
    n, k = x.shape
    mu = _MEAN[family](x @ beta)
    r = y - mu
    w = _VARIANCE[family](mu)
    xtwx = (x.T * w) @ x
    if family == "ols":
        conv = float(r @ r) / (n - k) * np.linalg.inv(xtwx)
    else:
        conv = np.linalg.inv(xtwx)
    bread_inv = np.linalg.inv(xtwx / n)
    meat = (x.T * r**2) @ x / n
    sand = bread_inv @ meat @ bread_inv / n
    return conv, sand


def _p_value(beta, se):
    return np.array([math.erfc(abs(b) / s / math.sqrt(2.0)) for b, s in zip(beta, se)])


def check_fit(job, workdir: Path, inputs: dict) -> list[str]:
    p = job.params
    x, y = _columns(inputs["charges_synthetic.csv"]["path"], p["response"], p["regressors"])
    rows = json.loads((workdir / job.outputs[0]).read_text(encoding="utf-8"))["table"]["rows"]
    if len(rows) != x.shape[1]:
        return [f"fit {p['family']}: {len(rows)} table rows for {x.shape[1]} coefficients"]
    beta = np.array([r["coef"] for r in rows])
    fails = _fit_oracle(p["family"], x, y, beta)
    conv, sand = _covariances(p["family"], x, y, beta)
    se_conv, se_sand = np.sqrt(np.diag(conv)), np.sqrt(np.diag(sand))
    fails += _close("conventional SE", [r["se_conv"] for r in rows], se_conv, RTOL)
    fails += _close("sandwich SE", [r["se_sand"] for r in rows], se_sand, RTOL)
    fails += _close("conventional p", [r["p_conv"] for r in rows], _p_value(beta, se_conv), 1e-6, 1e-12)
    fails += _close("sandwich p", [r["p_sand"] for r in rows], _p_value(beta, se_sand), 1e-6, 1e-12)
    # B draws give the bootstrap SE a relative Monte Carlo error of about
    # 1/sqrt(2B); 0.08 covers the bootstrap/sandwich gap at n=2000.
    band = 0.08 + 4.0 / math.sqrt(2.0 * p["B"])
    ratio = np.array([r["se_boot"] for r in rows]) / se_sand
    if np.any(np.abs(ratio - 1.0) > band):
        fails.append(f"Boot.SE/Sand.SE {ratio.round(3).tolist()} outside 1 +- {band:.3f}")
    return [f"fit {p['family']}: {f}" for f in fails]


def _philox_indices(seed: int, b: int, n: int) -> np.ndarray:
    """Resampling indices of bootstrap replicate b: the documented (seed, b) Philox substream."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(b),))
    return np.random.Generator(np.random.Philox(ss)).integers(0, n, size=n)


def _newton(family: str, x, y) -> np.ndarray:
    beta = np.zeros(x.shape[1])
    if family == "poisson":
        beta[0] = math.log(float(np.mean(y)) + 0.5)
    for _ in range(100):
        mu = _MEAN[family](x @ beta)
        step = np.linalg.solve((x.T * _VARIANCE[family](mu)) @ x, x.T @ (y - mu))
        beta = beta + step
        if np.max(np.abs(step)) <= 1e-13 * max(1.0, float(np.max(np.abs(beta)))):
            break
    return beta


def check_bootstrap(job, workdir: Path, inputs: dict) -> list[str]:
    p = job.params
    x, y = _columns(inputs["charges_synthetic.csv"]["path"], p["response"], p["regressors"])
    out = workdir / job.outputs[0]
    header, draws = _load_table(out / "draws.csv")
    fails = []
    if draws.shape != (p["B"], x.shape[1] + 1):
        return [f"bootstrap: draws.csv has shape {draws.shape}, want ({p['B']}, {x.shape[1] + 1})"]
    draws = draws[:, 1:]
    for b in np.unique(np.linspace(0, p["B"] - 1, 6).astype(int)):
        idx = _philox_indices(p["seed"], b, len(y))
        want = _newton(p["family"], x[idx], y[idx])
        fails += _close(f"draw {b} vs refit from its Philox indices", draws[b], want,
                        1e-6, 1e-6 * float(np.max(np.abs(want))))
    m = p["B"]
    quantiles = np.array([NormalDist().inv_cdf((k - 0.5) / m) for k in range(1, m + 1)])
    with open(out / "qq_summary.csv", encoding="utf-8", newline="") as fh:
        summary = list(csv.reader(fh))[1:]
    if [row[:2] for row in summary] != [[str(j), label] for j, label in enumerate(header[1:])]:
        fails.append(f"qq_summary.csv rows {[row[:2] for row in summary]}")
    for j in range(draws.shape[1]):
        _, qq = _load_table(out / f"qq_{j}.csv")
        column = np.sort(draws[:, j])
        fails += _close(f"qq_{j} draws", qq[:, 1], column, 0.0)
        fails += _close(f"qq_{j} quantiles", qq[:, 0], quantiles, 1e-9, 1e-9)
        if j < len(summary):
            fails += _close(f"qq_{j} correlation", float(summary[j][2]),
                            np.corrcoef(column, quantiles)[0, 1], 1e-9)
    return [f"bootstrap: {f}" for f in fails]


def _population_sandwich(spec: dict) -> np.ndarray:
    """Exact per-observation sandwich B^-1 E[(eta^2 + sigma^2) x x'] B^-1 of a gaussian-noise population."""
    pts = np.asarray(spec["support"], dtype=float).reshape(len(spec["support"]), -1)
    probs = np.asarray(spec["probs"], dtype=float)
    mu = np.polynomial.polynomial.polyval(pts[:, 0], spec["mu"]["coefficients"])
    x = np.column_stack([np.ones(len(pts)), pts])
    bread_inv = np.linalg.inv((x.T * probs) @ x)
    eta = mu - x @ (bread_inv @ ((x.T * probs) @ mu))
    meat = (x.T * (probs * (eta**2 + np.asarray(spec["noise"]["sigma"], dtype=float) ** 2))) @ x
    return bread_inv @ meat @ bread_inv


def check_coverage(job, workdir: Path, inputs: dict) -> list[str]:
    p = job.params
    results = json.loads((workdir / job.outputs[0]).read_text(encoding="utf-8"))["results"]
    spec = json.loads(Path(inputs["quadratic.json"]["path"]).read_text(encoding="utf-8"))
    if spec["mu"].get("kind") != "polynomial" or spec["noise"].get("kind") != "gaussian":
        return [f"coverage: oracle supports polynomial mu and gaussian noise only, not {spec['mu']}, {spec['noise']}"]
    av = _population_sandwich(spec)
    z = NormalDist().inv_cdf(0.5 + LEVEL / 2.0)
    fails = []
    if sorted({r["method"] for r in results}) != sorted(p["methods"]) or len(results) != 2 * len(p["methods"]):
        fails.append(f"methods/coefficients {[(r['method'], r['coefficient']) for r in results]}")
    for r in results:
        tag = f"{r['method']}[{r['coefficient']}]"
        if r["replications"] != p["reps"]:
            fails.append(f"{tag}: {r['replications']} replications retained of {p['reps']}")
        if r["level"] != LEVEL or not 0.0 <= r["coverage"] <= 1.0 or not r["mean_width"] > 0.0:
            fails.append(f"{tag}: level {r['level']}, coverage {r['coverage']}, width {r['mean_width']}")
        fails += _close(f"{tag} mc_se", r["mc_se"],
                        math.sqrt(r["coverage"] * (1.0 - r["coverage"]) / r["replications"]), 1e-9)
        if r["method"] == "sandwich":
            # Four Monte Carlo SEs at the nominal level, plus 10/n for the
            # sandwich's finite-sample undercoverage (about 0.05 at n=100).
            bound = 4.0 * math.sqrt(LEVEL * (1.0 - LEVEL) / p["reps"]) + 10.0 / p["n"]
            if abs(r["coverage"] - LEVEL) > bound:
                fails.append(f"{tag}: coverage {r['coverage']} not within {bound:.4f} of {LEVEL}")
            # The mean interval width tracks the exact population sandwich;
            # 15/n allows the estimator's small-sample downward bias.
            exact = 2.0 * z * math.sqrt(av[r["coefficient"], r["coefficient"]] / p["n"])
            bound = 0.03 + 15.0 / p["n"]
            if abs(r["mean_width"] / exact - 1.0) > bound:
                fails.append(f"{tag}: mean width {r['mean_width']:.5g} not within {bound:.3f} of "
                             f"the population sandwich's {exact:.5g}")
    return [f"coverage n={p['n']}: {f}" for f in fails]


def check_shift(job, workdir: Path, inputs: dict) -> list[str]:
    spec = json.loads(Path(inputs["fig2.json"]["path"]).read_text(encoding="utf-8"))
    got = json.loads((workdir / job.outputs[0]).read_text(encoding="utf-8"))
    if spec["mu"].get("kind") != "polynomial":
        return [f"shift: oracle supports polynomial mu only, not {spec['mu'].get('kind')!r}"]
    fails = []
    betas = []
    for k, law in enumerate(spec["laws"], start=1):
        pts = np.asarray(law["support"], dtype=float)
        probs = np.asarray(law["probs"], dtype=float)
        mu = np.polynomial.polynomial.polyval(pts[:, 0], spec["mu"]["coefficients"])
        x = np.column_stack([np.ones(len(pts)), pts])
        beta = np.linalg.solve((x.T * probs) @ x, (x.T * probs) @ mu)
        betas.append(beta)
        fails += _close(f"beta_{k} vs closed form", got[f"beta_{k}"], beta, 1e-10, 1e-12)
    fails += _close("max_abs_difference", got["max_abs_difference"], np.max(np.abs(betas[0] - betas[1])),
                    1e-9, 1e-12)
    return [f"shift: {f}" for f in fails]


def check_predict(job, workdir: Path, inputs: dict) -> list[str]:
    p = job.params
    x, y = _columns(inputs[p["input"]]["path"], "y", [f"x{j}" for j in range(1, 7)])
    n, k = x.shape
    out = workdir / job.outputs[0]
    header, rows = _load_table(out / "intervals.csv")
    summary = json.loads((out / "calibration.json").read_text(encoding="utf-8"))
    if rows.shape[0] != n or header[-3:] != ["yhat", "lower", "upper"]:
        return [f"predict {p['calibration']}: {rows.shape[0]} rows of {n}, header {header}"]
    fails = _close("regressor columns", rows[:, :k - 1], x[:, 1:], 0.0)
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    yhat = x @ beta
    fails += _close("yhat vs lstsq", rows[:, k - 1], yhat, 1e-8, 1e-9 * float(np.max(np.abs(yhat))))
    resid = y - yhat
    sigma = math.sqrt(float(resid @ resid) / (n - k))
    fails += _close("sigma_hat", summary["sigma_hat"], sigma, 1e-8)
    lev = 1.0 + np.einsum("ij,jk,ik->i", x, np.linalg.inv(x.T @ x), x)
    half = (rows[:, k + 1] - rows[:, k]) / 2.0
    fails += _close("half widths", half, summary["K_hat"] * sigma * lev, 1e-7)
    recomputed = float(np.mean((rows[:, k] <= y) & (y <= rows[:, k + 1])))
    reported = summary["training_coverage"]
    if abs(recomputed - reported) > 1.0 / n + 1e-12:
        fails.append(f"training coverage {reported} but intervals cover {recomputed}")
    target = 1.0 - summary["alpha"]
    # Training calibration pins coverage to 1 - alpha within 1/n; a
    # cross-validated K only approximates it (stated band, 2/sqrt(n) + 0.02).
    bound = 1.0 / n + 1e-12 if p["calibration"] == "train" else 0.02 + 2.0 / math.sqrt(n)
    if abs(reported - target) > bound:
        fails.append(f"training coverage {reported} not within {bound:.4g} of {target}")
    return [f"predict {p['calibration']}: {f}" for f in fails]


def _slope_rows(path: Path, x, y) -> tuple[list[dict], list[str]]:
    """Check a slopes summary against lstsq and the closed-form pair weights."""
    rows = json.loads(path.read_text(encoding="utf-8"))["slopes"]
    n, k = x.shape
    if [r["coefficient"] for r in rows] != list(range(1, k)):
        return rows, [f"coefficients {[r['coefficient'] for r in rows]}"]
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    fails = []
    for r in rows:
        j = r["coefficient"]
        fails += _close(f"beta_ols[{j}] vs lstsq", r["beta_ols"], beta[j], 1e-8, 1e-10)
        fails += _close(f"beta_pairwise[{j}] vs beta_ols", r["beta_pairwise"], r["beta_ols"], 1e-8, 1e-10)
        others = np.delete(x, j, axis=1)
        coef, *_ = np.linalg.lstsq(others, x[:, j], rcond=None)
        a = x[:, j] - others @ coef
        # sum over i != j of (a_i - a_j)^2, in closed form.
        fails += _close(f"total_weight[{j}]", r["total_weight"],
                        2.0 * n * float(a @ a) - 2.0 * float(a.sum()) ** 2, 1e-8)
        if r["pair_count"] != n * (n - 1):
            fails.append(f"pair_count[{j}] {r['pair_count']} != n(n-1) = {n * (n - 1)}")
    return rows, fails


def check_slopes(job, workdir: Path, inputs: dict) -> list[str]:
    x, y = _columns(inputs[job.params["input"]]["path"], "y", [f"x{j}" for j in range(1, 7)])
    _, fails = _slope_rows(workdir / job.outputs[0], x, y)
    return [f"slopes: {f}" for f in fails]


def check_pairs(job, workdir: Path, inputs: dict) -> list[str]:
    x, y = _columns(inputs[job.params["input"]]["path"], "y", ["x1", "x2", "x3"])
    rows, fails = _slope_rows(workdir / job.outputs[0], x, y)
    header, table = _load_table(workdir / job.outputs[1])
    first = rows[0]
    if header != ["i", "j", "weight", "slope"] or table.shape[0] != first["pair_count"]:
        fails.append(f"pair table header {header}, {table.shape[0]} rows for {first['pair_count']} pairs")
    else:
        w, s = table[:, 2], table[:, 3]
        fails += _close("pair weight sum vs total_weight", w.sum(), first["total_weight"], 1e-9)
        fails += _close("weighted mean slope vs beta_pairwise", (w * s).sum() / w.sum(),
                        first["beta_pairwise"], 1e-8, 1e-10)
        if np.any(table[:, 0] == table[:, 1]):
            fails.append("pair table lists a pair (i, i)")
    return [f"pairs: {f}" for f in fails]


ORACLES = {
    "fit": check_fit,
    "bootstrap": check_bootstrap,
    "coverage": check_coverage,
    "shift": check_shift,
    "predict": check_predict,
    "slopes": check_slopes,
    "pairs": check_pairs,
}


def run_check(job, workdir: Path, inputs: dict) -> list[str]:
    """Run a job's oracle; an oracle that cannot read the output is a failure too."""
    try:
        return ORACLES[job.check](job, workdir, inputs)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{job.check}: unreadable output: {type(exc).__name__}: {exc}"]
