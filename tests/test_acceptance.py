"""Acceptance suite: one test per exit criterion, each printing a
single PASS/FAIL line with the measured quantity.

Every tolerance is pinned here, not deferred; seeds are fixed so each
criterion is a deterministic computation.
"""

import json

import numpy as np
from scipy.special import expit

from leanreg.bootstrap import bootstrap_se, residual_bootstrap, xy_bootstrap
from leanreg.cli import main
from leanreg.core import Dataset, build_design
from leanreg.covariance import (
    conventional_cov,
    sandwich_cov,
    standard_errors,
    table_from_published,
)
from leanreg.fitting import BERNOULLI, GAUSSIAN, fit_dataset, fit_glm, fit_ols
from leanreg.population import (
    check_orthogonality,
    coverage_experiment,
    make_population,
    normal_quadrature_law,
    population_beta,
    regressor_shift_experiment,
    sample,
    uniform_grid_law,
)
from leanreg.prediction import calibrate_K, future_coverage, make_band
from leanreg.report import misspec_indicator
from leanreg.slopes import pairwise_slope_multiple

QUADRATIC_MU = {"kind": "polynomial", "coefficients": [0.0, 0.0, 1.0]}


def announce(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} -- {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def quadratic_pop():
    sup, probs = normal_quadrature_law(31)
    return make_population(sup, probs, QUADRATIC_MU, {"kind": "gaussian", "sigma": 1.0})


def linear_homoskedastic_pop():
    return make_population(
        [[-1.5], [-0.5], [0.5], [1.5]],
        [0.25] * 4,
        {"kind": "polynomial", "coefficients": [1.0, 2.0]},
        {"kind": "gaussian", "sigma": 1.0},
    )


def random_population(rng):
    m = int(rng.integers(2, 11))
    support = np.sort(rng.uniform(-3, 3, size=m)).reshape(-1, 1)
    probs = rng.dirichlet(np.ones(m))
    degree = int(rng.integers(0, 5))
    mu = {"kind": "polynomial", "coefficients": rng.uniform(-2, 2, size=degree + 1).tolist()}
    kind = rng.choice(["none", "gaussian", "two_point", "bernoulli"])
    if kind == "gaussian":
        noise = {"kind": "gaussian", "sigma": rng.uniform(0.1, 2.0, size=m).tolist()}
    elif kind == "two_point":
        noise = {"kind": "two_point", "a": rng.uniform(0.1, 2.0, size=m).tolist()}
    elif kind == "bernoulli":
        mu = {"kind": "table", "values": rng.uniform(0.05, 0.95, size=m).tolist()}
        noise = {"kind": "bernoulli"}
    else:
        noise = {"kind": "none"}
    return make_population(support, probs, mu, noise)


def test_criterion_01_orthogonality_identities():
    rng = np.random.default_rng(20150701)
    worst = 0.0
    for _ in range(500):
        report = check_orthogonality(random_population(rng), tolerance=1e-12)
        worst = max(worst, max(abs(c.value) for c in report.checks))
        if not report.all_pass:
            break
    announce(1, worst <= 1e-12, f"largest |moment| over 500 populations = {worst:.2e}")


def test_criterion_02_regressor_distribution_dependence():
    law_a = (np.array([[0.0], [1.0], [2.0]]), np.array([1 / 3, 1 / 3, 1 / 3]))
    law_b = (np.array([[0.0], [1.0], [2.0]]), np.array([0.6, 0.3, 0.1]))
    res = regressor_shift_experiment(QUADRATIC_MU, None, law_a, law_b)
    err_a = abs(res["beta_1"][1] - 2.0)
    err_b = abs(res["beta_2"][1] - 5.0 / 3.0)

    def full_rank_law(rng, m):
        # Separated support and non-vanishing probabilities keep the
        # second-moment matrix comfortably full rank, so the identity is
        # not polluted by condition-number amplification of roundoff.
        support = (np.sort(rng.uniform(-4, 4, m)) + 0.4 * np.arange(m)).reshape(-1, 1)
        probs = rng.dirichlet(np.full(m, 5.0)) * 0.8 + 0.2 / m
        return support, probs / probs.sum()

    rng = np.random.default_rng(4)
    worst_lin = 0.0
    for _ in range(20):
        res_lin = regressor_shift_experiment(
            {"kind": "polynomial", "coefficients": rng.uniform(-2, 2, 2).tolist()},
            None,
            full_rank_law(rng, int(rng.integers(2, 8))),
            full_rank_law(rng, int(rng.integers(2, 8))),
        )
        worst_lin = max(worst_lin, res_lin["max_abs_difference"])
    ok = err_a <= 1e-12 and err_b <= 1e-12 and worst_lin <= 1e-12
    announce(
        2,
        ok,
        f"slopes 2.0/{res['beta_2'][1]:.6f} (errors {err_a:.1e}, {err_b:.1e}); "
        f"max linear-mu shift {worst_lin:.1e}",
    )


def test_criterion_03_sandwich_collapse():
    pop = linear_homoskedastic_pop()
    hits = 0
    for s in range(200):
        ds = sample(pop, 5000, seed=300 + s)
        fit = fit_dataset(ds)
        ratio = (
            standard_errors(sandwich_cov(fit))[1]
            / standard_errors(conventional_cov(fit))[1]
        )
        hits += 0.9 <= ratio <= 1.1
    announce(3, hits >= 190, f"slope SE ratio in [0.9, 1.1] for {hits}/200 seeds")


def test_criterion_04_sandwich_inflation_and_coverage():
    pop = quadratic_pop()
    target = np.sqrt(11.0 / 3.0)
    hits = 0
    for s in range(200):
        ds = sample(pop, 5000, seed=1300 + s)
        fit = fit_dataset(ds)
        ratio = (
            standard_errors(sandwich_cov(fit))[1]
            / standard_errors(conventional_cov(fit))[1]
        )
        hits += abs(ratio - target) <= 0.15
    results = coverage_experiment(
        pop, n=1000, replications=1000,
        methods=["conventional", "sandwich"], level=0.95, seed=777,
    )
    cov = {(r.method, r.coefficient): r.coverage for r in results}
    conv_slope = cov[("conventional", 1)]
    sand_slope = cov[("sandwich", 1)]
    ok = (
        hits >= 180
        and 0.92 <= sand_slope <= 0.97
        and 0.64 <= conv_slope <= 0.76
    )
    announce(
        4,
        ok,
        f"|ratio - 1.91| <= 0.15 for {hits}/200 seeds; slope coverage "
        f"sandwich {sand_slope:.3f}, conventional {conv_slope:.3f} "
        f"(analytic 0.695)",
    )


def test_criterion_05_bootstrap_sandwich_agreement_and_foil():
    pop = quadratic_pop()
    hits = 0
    for s in range(50):
        ds = sample(pop, 1000, seed=2500 + s)
        fit = fit_dataset(ds)
        se_sand = standard_errors(sandwich_cov(fit))[1]
        se_boot = bootstrap_se(xy_bootstrap(ds, GAUSSIAN, 1000, seed=5500 + s))[1]
        hits += abs(se_boot / se_sand - 1.0) <= 0.15

    # Foil: multiplicative noise Y = X * eps over a centered regressor
    # law, where the exact sandwich/pooled slope variance ratio is
    # E[X^4]/E[X^2]^2 (about 1.8, SE ratio about 1.34).
    sup, probs = uniform_grid_law(-np.sqrt(3.0), np.sqrt(3.0), 21)
    het_pop = make_population(
        sup, probs,
        {"kind": "table", "values": [0.0] * 21},
        {"kind": "gaussian", "sigma": np.abs(sup[:, 0])},
    )
    ds = sample(het_pop, 2000, seed=606)
    fit = fit_dataset(ds)
    se_sand = standard_errors(sandwich_cov(fit))[1]
    se_resid = bootstrap_se(residual_bootstrap(ds, 1000, seed=707))[1]
    foil_gap = abs(se_resid / se_sand - 1.0)
    ok = hits >= 45 and foil_gap > 0.20
    announce(
        5,
        ok,
        f"xy-bootstrap within 15% of sandwich for {hits}/50 seeds; "
        f"residual-bootstrap foil gap {foil_gap:.1%} (> 20% required)",
    )


def test_criterion_06_pairwise_slope_identity():
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(8, 201))
        p = int(rng.integers(1, 6))
        reg = rng.standard_normal((n, p)) * rng.uniform(0.5, 3.0, size=p)
        y = reg @ rng.uniform(-2, 2, size=p) + rng.standard_normal(n)
        ds = Dataset(y, reg, names=tuple(f"x{i}" for i in range(p)))
        dm = build_design(ds)
        fit = fit_ols(dm, y)
        for j in range(1, p + 1):
            gap = abs(pairwise_slope_multiple(dm, y, j).beta - fit.beta_hat[j])
            worst = max(worst, gap / max(1.0, abs(fit.beta_hat[j])))
    announce(6, worst <= 1e-10, f"largest relative identity gap = {worst:.2e}")


def test_criterion_07_calibration_exactness_and_validity():
    pop = quadratic_pop()
    max_training_dev = 0.0
    coverages = []
    for s in range(100):
        train = sample(pop, 2000, seed=7000 + s)
        fit = fit_dataset(train)
        k_hat = calibrate_K(fit, alpha=0.05)
        band = make_band(fit, K=k_hat)
        train_cov = future_coverage(band, train)
        max_training_dev = max(max_training_dev, abs(train_cov - 0.95) - 1.0 / 2000)
        test = sample(pop, 2000, seed=9000 + s)
        coverages.append(future_coverage(band, test))
    aggregate = float(np.mean(coverages))
    ok = max_training_dev <= 1e-12 and 0.93 <= aggregate <= 0.97
    announce(
        7,
        ok,
        f"training coverage within 1/n on all 100 fits; "
        f"aggregate future coverage {aggregate:.4f}",
    )


PUBLISHED_ROWS = [
    {"label": "(Intercept)", "coef": 1.8802, "se_conv": 0.0205, "p_conv": 0.0000,
     "se_boot": 0.0522, "se_sand": 0.0526, "p_sand": 0.0000},
    {"label": "Age", "coef": -0.0147, "se_conv": 0.0006, "p_conv": 0.0000,
     "se_boot": 0.0016, "se_sand": 0.0016, "p_sand": 0.0000},
    {"label": "Male", "coef": 0.0823, "se_conv": 0.0127, "p_conv": 0.0000,
     "se_boot": 0.0284, "se_sand": 0.0299, "p_sand": 0.0058},
    {"label": "Number of Priors", "coef": 0.0031, "se_conv": 0.0002, "p_conv": 0.0000,
     "se_boot": 0.0005, "se_sand": 0.0005, "p_sand": 0.0000},
    {"label": "Number of Prior Sentences", "coef": 0.0002, "se_conv": 0.0016,
     "p_conv": 0.8868, "se_boot": 0.0040, "se_sand": 0.0039, "p_sand": 0.9519},
    {"label": "Number of Drug Priors", "coef": -0.0138, "se_conv": 0.0008,
     "p_conv": 0.0000, "se_boot": 0.0021, "se_sand": 0.0020, "p_sand": 0.0000},
    {"label": "Age At First Charge", "coef": 0.0028, "se_conv": 0.0009,
     "p_conv": 0.0012, "se_boot": 0.0022, "se_sand": 0.0021, "p_sand": 0.1935},
]


def test_criterion_08_interpretive_multipliers_and_golden_columns(capsys):
    cases = [(-0.0147, 10.0, 0.86), (0.0823, 1.0, 1.08), (-0.0138, 20.0, 0.76)]
    mult_ok = all(
        abs(np.exp(coef * delta) - published) < 0.01
        for coef, delta, published in cases
    )

    code = main(
        ["fit", "--input", "charges_synthetic.csv", "--response", "charges",
         "--regressors",
         "age,male,priors,prior_sentences,drug_priors,age_first_charge",
         "--family", "poisson", "--boot", "30", "--seed", "1"]
    )
    out = capsys.readouterr().out
    header = out.splitlines()[0].split()
    golden = ["Coeff", "SE", "p-value", "Boot.SE", "Sand.SE", "Sand-p"]

    indicator = misspec_indicator(table_from_published(PUBLISHED_ROWS), level=0.05)
    reversal_ok = "Age At First Charge" in indicator.decision_reversals

    ok = mult_ok and code == 0 and header == golden and reversal_ok
    announce(
        8,
        ok,
        f"multipliers 0.86/1.08/0.76 reproduced={mult_ok}; "
        f"rendered columns {header}; reversal flagged={reversal_ok}",
    )


def _population_logit_beta(pop):
    """Independent oracle: grid-refined Newton on the exact population
    objective sum_k p_k [log(1 + exp(x_k' b)) - (x_k' b) mu_k]."""
    x = pop.support
    w = pop.probs
    pi = pop.mu_values

    def objective(beta):
        t = x @ beta
        return float(w @ (np.logaddexp(0.0, t) - t * pi))

    grid = np.linspace(-3.0, 3.0, 25)
    best, best_val = None, np.inf
    for b0 in grid:
        for b1 in grid:
            val = objective(np.array([b0, b1]))
            if val < best_val:
                best, best_val = np.array([b0, b1]), val
    beta = best
    for _ in range(100):
        t = x @ beta
        mu = expit(t)
        grad = x.T @ (w * (mu - pi))
        hess = (x.T * (w * mu * (1.0 - mu))) @ x
        step = np.linalg.solve(hess, grad)
        beta = beta - step
        if np.max(np.abs(step)) < 1e-14:
            break
    return beta


def test_criterion_09_glm_functional_consistency():
    # Non-logistic truth: p(x) linear in x on a five-point support.
    pts = np.array([[-2.0], [-1.0], [0.0], [1.0], [2.0]])
    pvals = 0.15 + 0.175 * (pts[:, 0] + 2.0)
    pop = make_population(
        pts, np.full(5, 0.2),
        {"kind": "table", "values": pvals.tolist()},
        {"kind": "bernoulli"},
    )
    beta_oracle = _population_logit_beta(pop)
    ds = sample(pop, 100_000, seed=9090)
    fit = fit_glm(build_design(ds), ds.response, BERNOULLI)
    se = standard_errors(sandwich_cov(fit))
    gaps = np.abs(fit.beta_hat - beta_oracle) / se
    announce(
        9,
        bool(np.all(gaps <= 5.0)),
        f"beta_hat within {np.max(gaps):.2f} MC standard errors of the "
        f"population functional {np.round(beta_oracle, 4).tolist()}",
    )


def test_criterion_10_cli_reproducibility(tmp_path):
    pop_path = tmp_path / "pop.json"
    pop_path.write_text(json.dumps({
        "support": [[-1.0], [0.0], [1.0]],
        "probs": [1 / 3, 1 / 3, 1 / 3],
        "mu": {"kind": "polynomial", "coefficients": [0.0, 0.0, 1.0]},
        "noise": {"kind": "gaussian", "sigma": 1.0},
    }))
    data_path = tmp_path / "data.csv"
    rng = np.random.default_rng(5)
    x = rng.standard_normal(60)
    y = x**2 + rng.standard_normal(60)
    lines = ["y,x"] + [f"{repr(float(a))},{repr(float(b))}" for a, b in zip(y, x)]
    data_path.write_text("\n".join(lines) + "\n")

    outputs = []
    for run in range(3):
        sim_out = tmp_path / f"sim{run}.csv"
        fit_out = tmp_path / f"fit{run}.json"
        assert main(["simulate", "--population", str(pop_path), "--n", "50",
                     "--reps", "40", "--methods", "xy-bootstrap", "--boot", "30",
                     "--seed", "9", "--format", "csv",
                     "--out", str(sim_out)]) == 0
        assert main(["fit", "--input", str(data_path), "--response", "y",
                     "--regressors", "x", "--boot", "50", "--seed", "9",
                     "--format", "json",
                     "--out", str(fit_out)]) == 0
        outputs.append((sim_out.read_bytes(), fit_out.read_bytes()))
    ok = outputs[0] == outputs[1] == outputs[2]
    announce(10, ok, "simulate and fit outputs byte-identical across three reruns")
