"""Finite-support synthetic populations with exact expectations.

A :class:`DiscretePopulation` is a joint law for (regressors, response):
finitely many regressor points with probabilities, a true response
surface evaluated at each point, and a mean-zero noise law per point.
Because the regressor support is finite and each noise law exposes its
conditional mean (zero) and variance in closed form, every moment that
enters the theory - the best-approximation coefficients, the
decomposition of the population residual into nonlinearity plus noise,
and the sandwich bread/meat - is an exact finite sum, not a simulation.

Continuous regressor laws are represented by deterministic quadrature
grids (see :func:`normal_quadrature_law`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .core import Dataset, numerical_rank, spd_solve
from .covariance import conventional_stack, sandwich_stack, standard_errors
from .exceptions import (
    CollinearPopulationError,
    DomainError,
    LeanRegError,
    PopulationSchemaError,
)
from .fitting import GAUSSIAN, fit_ols_stack
from .rng import spawn_seeds, substream, substreams

__all__ = [
    "NoiseLaw",
    "DiscretePopulation",
    "PopulationDecomposition",
    "OrthogonalityReport",
    "CoverageResult",
    "population_beta",
    "decompose",
    "check_orthogonality",
    "sample",
    "regressor_shift_experiment",
    "coverage_experiment",
    "normal_quadrature_law",
    "uniform_grid_law",
    "make_population",
    "load_population_file",
]

PROB_TOL = 1e-12

NOISE_KINDS = ("none", "gaussian", "two_point", "bernoulli")


@dataclass(frozen=True)
class NoiseLaw:
    """Mean-zero conditional noise, one scale parameter per support point.

    kind:
      none       eps = 0
      gaussian   eps ~ N(0, scale_k^2)
      two_point  eps = +-scale_k with probability 1/2 each
      bernoulli  y = mu_k + eps is Bernoulli(mu_k); requires mu_k in [0,1]

    Every kind has E[eps | x_k] = 0 by construction.
    """

    kind: str
    scale: np.ndarray  # per-point sigma (gaussian), a (two_point); unused otherwise

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise PopulationSchemaError(
                f"unknown noise kind {self.kind!r}", field="noise.kind"
            )
        s = np.asarray(self.scale, dtype=float)
        object.__setattr__(self, "scale", s)
        if self.kind in ("gaussian", "two_point"):
            param = "noise.sigma" if self.kind == "gaussian" else "noise.a"
            _require_finite(s, param)
            if np.any(s < 0):
                raise PopulationSchemaError(f"{param} must be nonnegative", field=param)

    def variance(self, mu: np.ndarray) -> np.ndarray:
        """Exact conditional noise variance at each support point."""
        if self.kind == "none":
            return np.zeros_like(mu)
        if self.kind == "bernoulli":
            return mu * (1.0 - mu)
        return self.scale**2

    def atoms(self, mu_k: float, k: int):
        """(value, probability) atoms of eps at support point k.

        Gaussian noise has no finite atoms; its exact conditional mean
        (zero) and variance enter the moment sums analytically instead.
        """
        if self.kind == "none":
            return [(0.0, 1.0)]
        if self.kind == "two_point":
            a = float(self.scale[k]) if self.scale.ndim else float(self.scale)
            return [(a, 0.5), (-a, 0.5)]
        if self.kind == "bernoulli":
            return [(1.0 - mu_k, mu_k), (-mu_k, 1.0 - mu_k)]
        return None  # gaussian: handled analytically


def _require_finite(values: np.ndarray, name: str) -> None:
    """Reject NaN and infinite entries, which JSON files may spell NaN and Infinity."""
    if not np.all(np.isfinite(values)):
        raise PopulationSchemaError(f"{name} must be finite (no NaN or Infinity)", field=name)


def _mu_values(mu, points: np.ndarray) -> np.ndarray:
    """Evaluate a response surface spec at raw regressor points (m, p)."""
    if callable(mu):
        return np.asarray([float(mu(row)) for row in points], dtype=float)
    if isinstance(mu, dict):
        kind = mu.get("kind")
        if kind == "polynomial":
            if points.shape[1] != 1:
                raise PopulationSchemaError(
                    "polynomial mu requires exactly one regressor", field="mu"
                )
            coeffs = np.asarray(mu["coefficients"], dtype=float)
            _require_finite(coeffs, "mu.coefficients")
            # Huge points overflow to inf; DiscretePopulation rejects it by name.
            with np.errstate(over="ignore", invalid="ignore"):
                return np.polynomial.polynomial.polyval(points[:, 0], coeffs)
        if kind == "table":
            vals = np.asarray(mu["values"], dtype=float)
            _require_finite(vals, "mu.values")
            if vals.shape[0] != points.shape[0]:
                raise PopulationSchemaError(
                    "mu table length does not match support size", field="mu.values"
                )
            return vals
        raise PopulationSchemaError(f"unknown mu kind {kind!r}", field="mu.kind")
    return np.asarray(mu, dtype=float)


def _noise_from_spec(noise, m: int, mu: np.ndarray) -> NoiseLaw:
    if isinstance(noise, NoiseLaw):
        law = noise
    elif noise is None:
        law = NoiseLaw("none", np.zeros(m))
    elif isinstance(noise, dict):
        kind = noise.get("kind", "none")
        if kind in ("none", "bernoulli"):
            law = NoiseLaw(kind, np.zeros(m))
        elif kind in ("gaussian", "two_point"):
            param = "sigma" if kind == "gaussian" else "a"
            raw = np.asarray(noise.get(param, 1.0), dtype=float)
            try:
                scale = np.broadcast_to(raw, (m,)).copy()
            except ValueError:
                raise PopulationSchemaError(
                    f"noise {param} has {raw.size} entries for {m} support points",
                    field=f"noise.{param}",
                ) from None
            law = NoiseLaw(kind, scale)
        else:
            raise PopulationSchemaError(
                f"unknown noise kind {kind!r}", field="noise.kind"
            )
    else:
        raise PopulationSchemaError("noise must be a dict or NoiseLaw", field="noise")
    if law.kind in ("gaussian", "two_point") and law.scale.shape != (m,):
        raise PopulationSchemaError(
            "noise scale must be a scalar or one value per support point",
            field="noise",
        )
    if law.kind == "bernoulli" and (np.any(mu < 0.0) or np.any(mu > 1.0)):
        raise PopulationSchemaError(
            "bernoulli noise requires mu values in [0, 1]", field="mu"
        )
    return law


@dataclass(frozen=True)
class DiscretePopulation:
    """Finite-support joint law enabling exact expectations.

    ``support`` holds the design-space points including the leading 1;
    ``points`` the raw regressor coordinates; ``mu_values`` the true
    response surface at each point.
    """

    support: np.ndarray      # (m, p+1), column 0 all ones
    probs: np.ndarray        # (m,), nonnegative, sums to 1
    mu_values: np.ndarray    # (m,)
    noise: NoiseLaw
    names: tuple[str, ...] = field(default=())
    response_name: str = "y"

    def __post_init__(self):
        sup = np.atleast_2d(np.asarray(self.support, dtype=float))
        probs = np.asarray(self.probs, dtype=float)
        mu = np.asarray(self.mu_values, dtype=float)
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "mu_values", mu)
        if not self.names:
            object.__setattr__(
                self, "names", tuple(f"x{j}" for j in range(1, sup.shape[1]))
            )
        if probs.shape[0] != sup.shape[0] or mu.shape[0] != sup.shape[0]:
            raise PopulationSchemaError(
                "probs and mu must have one entry per support point", field="probs"
            )
        for values, name in ((sup, "support"), (probs, "probs"), (mu, "mu")):
            _require_finite(values, name)
        if np.any(probs < 0):
            raise PopulationSchemaError("probs must be nonnegative", field="probs")
        if abs(float(np.sum(probs)) - 1.0) > PROB_TOL:
            raise PopulationSchemaError(
                f"probs sum to {float(np.sum(probs))!r}, not 1", field="probs"
            )
        if not np.all(sup[:, 0] == 1.0):
            raise PopulationSchemaError(
                "support points must carry the leading 1", field="support"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            gram = self.second_moment()
        if not np.all(np.isfinite(gram)):
            raise PopulationSchemaError(
                "support is too large: its second moment E[x x'] overflows", field="support"
            )

    @property
    def m(self) -> int:
        return self.support.shape[0]

    @property
    def p(self) -> int:
        return self.support.shape[1] - 1

    @property
    def points(self) -> np.ndarray:
        return self.support[:, 1:]

    def second_moment(self) -> np.ndarray:
        """E[x x'] as an exact finite sum."""
        return (self.support.T * self.probs) @ self.support

    def noise_variance(self) -> np.ndarray:
        return self.noise.variance(self.mu_values)


def make_population(support, probs, mu, noise=None, names=(), response_name="y") -> DiscretePopulation:
    """Construct a population from raw regressor points (no leading 1).

    ``mu`` may be a callable on raw points, a spec dict
    ({kind: polynomial|table, ...}), or an explicit value array.
    ``noise`` may be None, a NoiseLaw, or a spec dict.
    """
    pts = np.asarray(support, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    _require_finite(pts, "support")
    m = pts.shape[0]
    design = np.column_stack([np.ones(m), pts])
    mu_vals = _mu_values(mu, pts)
    law = _noise_from_spec(noise, m, mu_vals)
    return DiscretePopulation(
        support=design,
        probs=np.asarray(probs, dtype=float),
        mu_values=mu_vals,
        noise=law,
        names=tuple(names),
        response_name=response_name,
    )


def population_beta(pop: DiscretePopulation) -> np.ndarray:
    """Best-approximation coefficients E[x x']^-1 E[x mu(x)] by exact sums.

    Mean-zero noise drops out of E[x y], so only the response surface
    enters.  Singularity is judged by :func:`~leanreg.core.numerical_rank`.
    """
    b = pop.second_moment()
    rank, eigs = numerical_rank(b)
    if rank < b.shape[0]:
        raise CollinearPopulationError(
            f"population second-moment matrix is singular "
            f"(smallest equilibrated eigenvalue {eigs[0]:.3e})"
        )
    target = (pop.support.T * pop.probs) @ pop.mu_values
    return spd_solve(b, target, what="population second moment")


@dataclass(frozen=True)
class PopulationDecomposition:
    """Split of the population residual into nonlinearity plus noise.

    ``eta_at`` holds mu(x_k) - beta' x_k per support point; ``moments``
    holds the exactly enumerated orthogonality moments and the meat
    matrix E[delta^2 x x'].
    """

    beta: np.ndarray
    eta_at: np.ndarray
    moments: dict


def decompose(pop: DiscretePopulation, beta: np.ndarray | None = None) -> PopulationDecomposition:
    """Exact decomposition delta = eta + eps at the population.

    All reported moments are finite sums over support points (times
    noise atoms where the law has them); nothing is simulated.
    """
    if beta is None:
        beta = population_beta(pop)
    beta = np.asarray(beta, dtype=float)
    eta = pop.mu_values - pop.support @ beta
    w = pop.probs
    x = pop.support

    e_eps = 0.0
    e_x_eps = np.zeros(x.shape[1])
    for k in range(pop.m):
        atoms = pop.noise.atoms(float(pop.mu_values[k]), k)
        if atoms is None:
            continue  # gaussian: conditional mean is exactly 0
        cond_mean = math.fsum(v * q for v, q in atoms)
        e_eps += w[k] * cond_mean
        e_x_eps += w[k] * cond_mean * x[k]

    e_eta = float(w @ eta)
    e_x_eta = (x.T * w) @ eta
    noise_var = pop.noise_variance()
    delta2 = eta**2 + noise_var  # E[delta^2|x] = eta^2 + var(eps|x)
    e_delta2_xx = (x.T * (w * delta2)) @ x

    moments = {
        "E_eta": e_eta,
        "E_eps": float(e_eps),
        "E_delta": e_eta + float(e_eps),
        "E_X_eta": e_x_eta,
        "E_X_eps": e_x_eps,
        "E_X_delta": e_x_eta + e_x_eps,
        "E_delta2_XX": e_delta2_xx,
        "sigma_delta2": float(w @ delta2),
    }
    return PopulationDecomposition(beta=beta, eta_at=eta, moments=moments)


@dataclass(frozen=True)
class MomentCheck:
    name: str
    value: float
    passed: bool


@dataclass(frozen=True)
class OrthogonalityReport:
    checks: tuple[MomentCheck, ...]
    tolerance: float

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[MomentCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def check_orthogonality(
    pop: DiscretePopulation,
    tolerance: float = 1e-12,
    beta: np.ndarray | None = None,
) -> OrthogonalityReport:
    """Verify the orthogonality and centering identities by enumeration.

    Checks |E[x_j delta]|, |E[x_j eta]|, |E[x_j eps]| for every j
    (j = 0 is the intercept, giving the marginal centering of all three
    terms).  With the true best-approximation ``beta`` these are
    identities; passing ``beta`` explicitly supports negative controls.
    """
    dec = decompose(pop, beta=beta)
    checks = []
    for term in ("delta", "eta", "eps"):
        vec = dec.moments[f"E_X_{term}"]
        for j in range(len(vec)):
            name = f"E[{'1' if j == 0 else 'x' + str(j)}*{term}]"
            checks.append(MomentCheck(name, float(vec[j]), abs(vec[j]) <= tolerance))
        scalar = dec.moments[f"E_{term}"]
        checks.append(MomentCheck(f"E[{term}]", float(scalar), abs(scalar) <= tolerance))
    return OrthogonalityReport(checks=tuple(checks), tolerance=tolerance)


def _draw_noise(law: NoiseLaw, mu: np.ndarray, idx: np.ndarray, rng) -> np.ndarray:
    if law.kind == "none":
        return np.zeros(idx.shape[0])
    if law.kind == "gaussian":
        return rng.standard_normal(idx.shape[0]) * law.scale[idx]
    if law.kind == "two_point":
        signs = rng.integers(0, 2, idx.shape[0]) * 2.0 - 1.0
        return signs * law.scale[idx]
    # bernoulli: y = 1 with probability mu
    u = rng.random(idx.shape[0])
    return (u < mu[idx]).astype(float) - mu[idx]


def _draw(pop: DiscretePopulation, n: int, rng):
    """``(idx, y)``: the support indices and responses of n i.i.d. draws from ``rng``."""
    idx = rng.choice(pop.m, size=n, p=pop.probs)
    eps = _draw_noise(pop.noise, pop.mu_values, idx, rng)
    return idx, pop.mu_values[idx] + eps


def _dataset(pop: DiscretePopulation, idx: np.ndarray, y: np.ndarray) -> Dataset:
    return Dataset(
        response=y,
        regressors=pop.points[idx],
        names=pop.names,
        response_name=pop.response_name,
    )


def sample(pop: DiscretePopulation, n: int, seed: int, rng=None) -> Dataset:
    """Draw n i.i.d. observations; deterministic for a given seed."""
    if n < 1:
        raise DomainError("sample size must be at least 1")
    if rng is None:
        rng = substream(seed)
    return _dataset(pop, *_draw(pop, n, rng))


def regressor_shift_experiment(mu, noise, law1, law2) -> dict:
    """Best-approximation coefficients under two regressor laws, mu fixed.

    Each law is a (support, probs) pair over raw regressor points.
    Under correct specification the two coefficient vectors coincide;
    under misspecification they generally differ.
    """
    pops = []
    for i, (sup, pr) in enumerate((law1, law2)):
        try:
            pops.append(make_population(sup, pr, mu, noise))
        except PopulationSchemaError as exc:
            if exc.field not in ("support", "probs"):
                raise
            # Every support or probs message starts with the field's name.
            raise PopulationSchemaError(f"laws[{i}].{exc}", field=f"laws[{i}].{exc.field}") from None
    beta1, beta2 = (population_beta(p) for p in pops)
    return {
        "beta_1": beta1,
        "beta_2": beta2,
        "max_abs_difference": float(np.max(np.abs(beta1 - beta2))),
    }


@dataclass(frozen=True)
class CoverageResult:
    """Empirical CI coverage of one method for one coefficient."""

    method: str
    coefficient: int
    level: float
    coverage: float
    mean_width: float
    replications: int

    @property
    def mc_se(self) -> float:
        c = self.coverage
        return math.sqrt(max(c * (1.0 - c), 0.0) / self.replications)


_COVERAGE_METHODS = ("conventional", "sandwich", "xy-bootstrap", "residual-bootstrap")


def coverage_experiment(
    pop: DiscretePopulation,
    n: int,
    replications: int,
    methods,
    level: float = 0.95,
    B: int | None = None,
    seed: int = 0,
) -> list[CoverageResult]:
    """Monte Carlo check that OLS CIs cover :func:`population_beta`.

    For each replication: sample n observations, fit the working model,
    form beta_hat_j +- z * SE_j per method, and record whether the
    exact population coefficient is inside.  Failed replications
    (singular resamples, non-convergence) are excluded and counted,
    with the same 10% tolerance as the bootstrap.  Replication r draws
    its sample from substream (seed, 0, r) and its bootstrap seeds from
    (seed, 1, r) and (seed, 2, r), so it depends only on (seed, r): not
    on the number of replications.

    Replications are fitted in blocks of the bootstrap's chunk size:
    one stacked Gram, rank check and Cholesky solve per block, then the
    stacked conventional and sandwich covariances.  Each replication
    gets the bits, the warning and the typed error its own
    :func:`~leanreg.fitting.fit_ols`, ``conventional_cov`` and
    ``sandwich_cov`` would give it, so results do not depend on the
    blocking.  A replication's sample stays support indices and
    responses; only a bootstrap method makes it a :class:`Dataset`.
    """
    from .bootstrap import (
        _chunks,
        bootstrap_se,
        residual_bootstrap,
        tolerate_failures,
        xy_bootstrap,
    )

    methods = list(methods)
    if not methods:
        raise DomainError("methods must be nonempty")
    for m in methods:
        if m not in _COVERAGE_METHODS:
            raise DomainError(f"unknown method {m!r}; expected one of {_COVERAGE_METHODS}")
    if not 0.0 < level < 1.0:
        raise DomainError(f"confidence level must be in (0, 1), got {level}")
    if replications < 1:
        raise DomainError(f"replications must be at least 1, got {replications}")
    if n < 1:
        raise DomainError("sample size must be at least 1")
    bootstrapped = any(m.endswith("bootstrap") for m in methods)
    if bootstrapped and (B is None or B < 1):
        raise DomainError(f"bootstrap methods require a replicate count B >= 1, got {B}")

    z = float(ndtri(0.5 + level / 2.0))
    beta_true = population_beta(pop)
    k = beta_true.shape[0]
    samples = substreams(seed, 0, count=replications)
    boot_seeds = {
        m: spawn_seeds(seed, path, count=replications)
        for m, path in (("xy-bootstrap", 1), ("residual-bootstrap", 2))
        if m in methods
    }

    def replication(r, idx, y, beta, error, analytic):
        """Replication r's (beta_hat, SEs per method), or the first error it meets."""
        if error is not None:
            return error
        ds = _dataset(pop, idx, y) if bootstrapped else None
        ses = {}
        try:
            for m in methods:
                if m in analytic:
                    se, failure = analytic[m]
                    if failure is not None:
                        return failure
                    ses[m] = se
                elif m == "xy-bootstrap":
                    ses[m] = bootstrap_se(xy_bootstrap(ds, GAUSSIAN, B, boot_seeds[m][r]))
                else:
                    ses[m] = bootstrap_se(residual_bootstrap(ds, B, boot_seeds[m][r]))
        except LeanRegError as exc:
            return exc
        return beta, ses

    results = []
    for _, reps in _chunks(replications, n):
        draws = [_draw(pop, n, rng) for _, rng in zip(reps, samples)]
        idx = np.array([d[0] for d in draws])
        y = np.array([d[1] for d in draws])
        x = pop.support[idx]  # support rows carry the leading 1
        beta, fit_errors = fit_ols_stack(x, y)
        fitted = (x @ beta[..., None])[..., 0]
        residuals = y - fitted
        v = GAUSSIAN.variance_fn(fitted)
        ok = np.array([e is None for e in fit_errors])
        analytic = {}
        if "conventional" in methods:
            cov, errors = conventional_stack(x, v, residuals, GAUSSIAN, ok)
            analytic["conventional"] = (standard_errors(cov), errors)
        if "sandwich" in methods:
            cov, errors = sandwich_stack(x, v, residuals, ok)
            analytic["sandwich"] = (standard_errors(cov), errors)
        for i, r in enumerate(reps):
            row = {m: (se[i], errors[i]) for m, (se, errors) in analytic.items()}
            results.append(replication(r, idx[i], y[i], beta[i], fit_errors[i], row))

    kept, _ = tolerate_failures(results, "coverage replications")
    retained = len(kept)
    beta_hat = np.array([beta for beta, _ in kept])
    covered, width = {}, {}
    for m in methods:
        half = z * np.array([ses[m] for _, ses in kept])
        covered[m] = np.sum(np.abs(beta_hat - beta_true) <= half, axis=0)
        # A running total in replication order: np.sum may sum pairwise.
        width[m] = np.cumsum(2.0 * half, axis=0)[-1]

    coverage = []
    for m in methods:
        for j in range(k):
            coverage.append(
                CoverageResult(
                    method=m,
                    coefficient=j,
                    level=level,
                    coverage=float(covered[m][j] / retained),
                    mean_width=float(width[m][j] / retained),
                    replications=retained,
                )
            )
    return coverage


def population_sandwich_av(pop: DiscretePopulation) -> np.ndarray:
    """Exact asymptotic sandwich covariance B^-1 M B^-1 (per observation)."""
    dec = decompose(pop)
    b_inv = spd_solve(pop.second_moment(), what="population second moment")
    return b_inv @ dec.moments["E_delta2_XX"] @ b_inv


def population_conventional_av(pop: DiscretePopulation) -> np.ndarray:
    """Homoskedasticity-pooled asymptotic covariance sigma_delta^2 B^-1."""
    dec = decompose(pop)
    b_inv = spd_solve(pop.second_moment(), what="population second moment")
    return dec.moments["sigma_delta2"] * b_inv


def normal_quadrature_law(points: int, mean: float = 0.0, sd: float = 1.0):
    """Gauss-Hermite grid representing a normal regressor law.

    Returns (support, probs) with moments of the normal matched exactly
    up to polynomial degree 2*points - 1.
    """
    nodes, weights = np.polynomial.hermite.hermgauss(points)
    support = mean + sd * math.sqrt(2.0) * nodes
    probs = weights / math.sqrt(math.pi)
    probs = probs / probs.sum()
    return support.reshape(-1, 1), probs


def uniform_grid_law(lo: float, hi: float, points: int):
    """Equal-weight grid on [lo, hi] discretizing a uniform regressor law."""
    support = np.linspace(lo, hi, points)
    probs = np.full(points, 1.0 / points)
    return support.reshape(-1, 1), probs


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise PopulationSchemaError(f"missing field {key!r}", field=f"{where}{key}")
    return obj[key]


def load_population_file(path) -> DiscretePopulation | dict:
    """Load a population (or shift-experiment) definition from JSON.

    A plain population is {support, probs, mu, noise}; a shift
    definition is {mu, noise, laws: [{support, probs}, ...]} and is
    returned as a dict with key "laws".
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PopulationSchemaError(f"invalid JSON: {exc}", field="") from None
    if not isinstance(obj, dict):
        raise PopulationSchemaError("population file must hold a JSON object", field="")
    mu = _require(obj, "mu", "")
    noise = obj.get("noise")
    if "laws" in obj:
        laws = obj["laws"]
        if not isinstance(laws, list) or len(laws) != 2:
            raise PopulationSchemaError(
                "shift definition needs exactly two laws", field="laws"
            )
        parsed = []
        for i, law in enumerate(laws):
            sup = _require(law, "support", f"laws[{i}].")
            pr = _require(law, "probs", f"laws[{i}].")
            parsed.append((np.asarray(sup, dtype=float), np.asarray(pr, dtype=float)))
        return {"mu": mu, "noise": noise, "laws": parsed}
    support = _require(obj, "support", "")
    probs = _require(obj, "probs", "")
    return make_population(
        np.asarray(support, dtype=float),
        np.asarray(probs, dtype=float),
        mu,
        noise,
        names=tuple(obj.get("names", ())),
    )
