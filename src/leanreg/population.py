"""Finite-support synthetic populations with exact expectations.

A :class:`DiscretePopulation` is a joint law for (regressors, response):
finitely many regressor points with probabilities, a true response
surface evaluated at each point, and a mean-zero noise law per point.
Because the regressor support is finite and each noise law exposes its
conditional mean (zero) and variance in closed form, every moment that
enters the theory - the best-approximation coefficients, the
decomposition of the population residual into nonlinearity plus noise,
and the sandwich bread/meat - is an exact finite sum, not a simulation.

A population is built from plain specs (see :func:`make_population`):
the response surface is a polynomial or a table of values, and the
noise a kind of :data:`NOISE_KINDS` with its scale.  Continuous
regressor laws are represented by deterministic quadrature grids (see
:func:`normal_quadrature_law`).  Samples draw the support points that
``Generator.choice`` draws, read from an exact bucket table over the CDF.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from statistics import NormalDist
from typing import Callable, NamedTuple

import numpy as np

from . import bootstrap
from .core import Dataset, check_integer, check_level, check_real, finite_array, float_range_error, in_float_range
from .covariance import sandwich_stack, standard_errors
from .exceptions import (
    CollinearPopulationError,
    DomainError,
    LeanRegError,
    PopulationSchemaError,
)
from .fitting import GAUSSIAN, dispersion_stack, fit_ols_counts, fit_weighted, gram
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


class NoiseKind(NamedTuple):
    """One kind of mean-zero noise: the spec key of its per-point scale (None if it has none),
    Var(eps | x) from (mu, scale), the raw variates of n draws from (rng, n), eps from (raw, mu,
    scale), which may overwrite raw, and whether mu must lie in [0, 1]."""

    param: str | None
    variance: Callable
    raw: Callable
    eps: Callable
    unit_mu: bool = False


# E[eps | x] = 0 for every kind, by construction.
NOISE_KINDS = {
    "none": NoiseKind(None, lambda mu, s: np.zeros_like(mu), lambda rng, n: 0.0, lambda raw, mu, s: raw),
    "gaussian": NoiseKind(  # eps ~ N(0, sigma^2)
        "sigma", lambda mu, s: s**2, lambda rng, n: rng.standard_normal(n), lambda raw, mu, s: np.multiply(raw, s, out=raw)
    ),
    "two_point": NoiseKind(  # eps = +-a with probability 1/2 each
        "a", lambda mu, s: s**2, lambda rng, n: rng.integers(0, 2, n) * 2.0 - 1.0,
        lambda raw, mu, s: np.multiply(raw, s, out=raw),
    ),
    "bernoulli": NoiseKind(  # y = mu + eps is Bernoulli(mu)
        None, lambda mu, s: mu * (1.0 - mu), lambda rng, n: rng.random(n),
        lambda raw, mu, s: np.subtract(raw < mu, mu, out=raw), unit_mu=True,
    ),
}


@dataclass(frozen=True)
class NoiseLaw:
    """Mean-zero conditional noise: a kind of :data:`NOISE_KINDS` and its
    scale at each support point (zeros for a kind without a scale)."""

    kind: str
    scale: np.ndarray

    def variance(self, mu: np.ndarray) -> np.ndarray:
        """Exact conditional noise variance at each support point."""
        return NOISE_KINDS[self.kind].variance(mu, self.scale)


def _floats(value, name: str, *ndims: int) -> np.ndarray:
    """``value`` as a finite float array of one of the dimensions ``ndims``.

    Anything else (text, true/false, an object, a ragged list, the wrong
    nesting, or NaN and Infinity, which JSON files may spell) is a
    schema error naming the field ``name``.
    """
    try:
        arr = np.asarray(value)
        arr = None if arr.dtype.kind in "USb" else arr.astype(float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim not in ndims:
        shapes = {0: "a number", 1: "a list of numbers", 2: "a list of equal-length number lists"}
        expected = " or ".join(shapes[d] for d in ndims)
        raise PopulationSchemaError(f"{name} must be {expected}", field=name)
    if not np.all(np.isfinite(arr)):
        raise PopulationSchemaError(f"{name} must be finite (no NaN or Infinity)", field=name)
    return arr


def _fields(obj, where: str, required=(), optional=()) -> list:
    """The values of an object's ``required`` then ``optional`` keys (None when absent).

    ``obj`` must be a JSON object with every required key and no key
    outside the two lists; ``where`` ("", "noise.", "laws[0].") prefixes
    the field each error names.
    """
    if not isinstance(obj, dict):
        raise PopulationSchemaError(f"{where[:-1]} must hold a JSON object", field=where[:-1])
    for key in obj:
        if key not in required and key not in optional:
            raise PopulationSchemaError(
                f"unknown field {where + key!r} (expected {', '.join((*required, *optional))})",
                field=where + key,
            )
    for key in required:
        if key not in obj:
            raise PopulationSchemaError(f"missing field {where + key!r}", field=where + key)
    return [obj.get(key) for key in (*required, *optional)]


def _mu_values(mu, points: np.ndarray) -> np.ndarray:
    """Evaluate a response surface spec at raw regressor points (m, p)."""
    if not isinstance(mu, dict):
        return _floats(mu, "mu", 1)
    kind = mu.get("kind")
    numbers = {"polynomial": "coefficients", "table": "values"}  # the key each kind reads
    key = numbers.get(kind) if isinstance(kind, str) else None
    if key is None:
        raise PopulationSchemaError(f"unknown mu kind {kind!r}", field="mu.kind")
    values = _floats(_fields(mu, "mu.", ("kind", key))[1], f"mu.{key}", 1)
    if key == "values":
        if values.shape[0] != points.shape[0]:
            raise PopulationSchemaError(
                "mu table length does not match support size", field="mu.values"
            )
        return values
    if points.shape[1] != 1:
        raise PopulationSchemaError("polynomial mu requires exactly one regressor", field="mu")
    # Huge points overflow to inf; DiscretePopulation rejects it by name.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.polynomial.polynomial.polyval(points[:, 0], values)


def _noise_from_spec(noise, m: int, mu: np.ndarray) -> NoiseLaw:
    noise = {} if noise is None else noise
    if not isinstance(noise, dict):
        raise PopulationSchemaError("noise must hold a JSON object", field="noise")
    kind = noise.get("kind", "none")
    rules = NOISE_KINDS.get(kind) if isinstance(kind, str) else None
    if rules is None:
        raise PopulationSchemaError(f"unknown noise kind {kind!r}", field="noise.kind")
    _fields(noise, "noise.", optional=("kind",) if rules.param is None else ("kind", rules.param))
    scale = np.zeros(m)
    if rules.param is not None:
        param = f"noise.{rules.param}"
        raw = _floats(noise.get(rules.param, 1.0), param, 0, 1)
        if raw.size not in (1, m):
            raise PopulationSchemaError(
                f"noise {rules.param} has {raw.size} entries for {m} support points", field=param
            )
        if np.any(raw < 0):
            raise PopulationSchemaError(f"{param} must be nonnegative", field=param)
        scale = np.broadcast_to(raw, (m,)).copy()
    if rules.unit_mu and (np.any(mu < 0.0) or np.any(mu > 1.0)):
        raise PopulationSchemaError(
            f"{kind} noise requires mu values in [0, 1]", field="mu"
        )
    return NoiseLaw(kind, scale)


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

    def __post_init__(self):
        sup = _floats(self.support, "support", 2)
        probs = _floats(self.probs, "probs", 1)
        mu = _floats(self.mu_values, "mu", 1)
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
        # population_beta forms x x' at every support point, even one of
        # probability 0; |x_j x_k| <= max(x_j^2, x_k^2) bounds each product.
        with np.errstate(over="ignore"):
            squares = sup * sup
        if not np.all(np.isfinite(squares)):
            raise PopulationSchemaError(
                "support is too large: its second moment E[x x'] overflows", field="support"
            )
        with np.errstate(over="ignore"):
            variance = self.noise_variance()
        if not np.all(np.isfinite(variance)):
            param = NOISE_KINDS[self.noise.kind].param
            name = "mu" if param is None else f"noise.{param}"  # bernoulli's mu(1 - mu)
            raise PopulationSchemaError(f"{name} is too large: the noise variance overflows", field=name)

    @property
    def m(self) -> int:
        return self.support.shape[0]

    @cached_property
    def cdf(self) -> np.ndarray:
        """The cumulative probabilities, scaled to end at exactly 1, as ``Generator.choice`` forms them."""
        cdf = self.probs.cumsum()
        cdf /= cdf[-1]
        return cdf

    @cached_property
    def _buckets(self) -> tuple[np.ndarray, np.ndarray]:
        """Over G = 2^g equal buckets of [0, 1), g = bit_length(64 m) in 12..20: the index
        ``cdf.searchsorted(b / G, "right")`` of bucket b's left edge, and whether all of b gets it."""
        size = 2 ** min(max((64 * self.m).bit_length(), 12), 20)
        edges = np.arange(size + 1) / size
        first = self.cdf.searchsorted(edges[:-1], side="right")
        return first, first == self.cdf.searchsorted(edges[1:], side="left")

    @property
    def points(self) -> np.ndarray:
        return self.support[:, 1:]

    def noise_variance(self) -> np.ndarray:
        return self.noise.variance(self.mu_values)


def make_population(support, probs, mu, noise=None, names=()) -> DiscretePopulation:
    """Construct a population from raw regressor points (no leading 1).

    ``mu`` may be a spec dict ({kind: polynomial|table, ...}) or an
    explicit value array; ``noise`` may be None (no noise) or a spec
    dict ({kind: a key of NOISE_KINDS, plus its scale parameter}).
    """
    pts = _floats(support, "support", 1, 2)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    m = pts.shape[0]
    design = np.column_stack([np.ones(m), pts])
    mu_vals = _mu_values(mu, pts)
    law = _noise_from_spec(noise, m, mu_vals)
    return DiscretePopulation(
        support=design,
        probs=probs,
        mu_values=mu_vals,
        noise=law,
        names=tuple(names),
    )


def population_beta(pop: DiscretePopulation) -> np.ndarray:
    """Best-approximation coefficients E[x x']^-1 E[x mu(x)] by exact sums.

    The OLS fit of the support points weighted by their probabilities,
    by the x-y bootstrap's kernel :func:`~leanreg.fitting.fit_weighted`.
    Mean-zero noise drops out of E[x y], so only the response surface enters.
    """
    fits = fit_weighted(pop.support, pop.mu_values, pop.probs[None], GAUSSIAN)
    if fits.errors[0] is not None:
        raise CollinearPopulationError(
            f"population second-moment matrix is singular "
            f"(smallest equilibrated eigenvalue {fits.errors[0].min_eigenvalue:.3e})"
        )
    return fits.beta[0]


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

    All reported moments are finite sums over support points; nothing
    is simulated.  A given ``beta``, one entry per coefficient, passes
    :func:`~leanreg.core.finite_array`; moments past the float range are
    a :class:`DomainError`.
    """
    beta = population_beta(pop) if beta is None else finite_array(beta, "beta", (pop.support.shape[1],))
    w, x = pop.probs, pop.support
    # Every noise law has E[eps | x] = 0, so its moments are exact zeros.
    e_eps, e_x_eps = 0.0, np.zeros(x.shape[1])

    def sums():
        eta = pop.mu_values - x @ beta
        delta2 = eta**2 + pop.noise_variance()  # E[delta^2|x] = eta^2 + var(eps|x)
        return eta, w @ eta, (x.T * w) @ eta, gram(x, (w * delta2)[None])[0], w @ delta2
    what = f"a population moment at beta {beta.tolist()}"
    eta, e_eta, e_x_eta, e_delta2_xx, sigma_delta2 = in_float_range(what, sums)
    moments = {
        "E_eta": float(e_eta),
        "E_eps": e_eps,
        "E_delta": float(e_eta) + e_eps,
        "E_X_eta": e_x_eta,
        "E_X_eps": e_x_eps,
        "E_X_delta": e_x_eta + e_x_eps,
        "E_delta2_XX": e_delta2_xx,
        "sigma_delta2": float(sigma_delta2),
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

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


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
    ``tolerance`` must be a finite real number at least 0.
    """
    check_real(tolerance, "tolerance")
    if tolerance < 0:
        raise DomainError(f"tolerance must be at least 0, got {tolerance!r}")
    dec = decompose(pop, beta=beta)
    checks = []
    for term in ("delta", "eta", "eps"):
        vec = dec.moments[f"E_X_{term}"]
        for j in range(len(vec)):
            name = f"E[{'1' if j == 0 else 'x' + str(j)}*{term}]"
            checks.append(MomentCheck(name, float(vec[j]), abs(vec[j]) <= tolerance))
        scalar = dec.moments[f"E_{term}"]
        checks.append(MomentCheck(f"E[{term}]", float(scalar), abs(scalar) <= tolerance))
    return OrthogonalityReport(checks=tuple(checks))


def _draws(pop: DiscretePopulation, n: int, count: int, rngs):
    """``(idx, y)``, each (count, n): n i.i.d. draws from each of the next ``count`` generators of ``rngs``.

    Each generator gives its row's uniforms u, then its noise's raw variates; the rest runs once
    on the block.  The indices, ``pop.cdf.searchsorted(u, side="right")`` as ``choice`` finds them,
    are read from u's bucket ``int(u * G)`` (exact: G is a power of two) where no CDF value splits it.
    """
    kind = NOISE_KINDS[pop.noise.kind]
    u, raw = np.empty((count, n)), np.empty((count, n))
    for row, rng in zip(range(count), rngs):  # rngs may reset one generator
        rng.random(out=u[row])
        raw[row] = kind.raw(rng, n)
    first, exact = pop._buckets
    u *= first.size
    bucket = u.astype(np.intp)
    idx, split = first[bucket], ~exact[bucket]
    idx[split] = pop.cdf.searchsorted(u[split] / first.size, side="right")
    del u, bucket
    y = pop.mu_values[idx]
    return idx, np.add(y, kind.eps(raw, y, None if kind.param is None else pop.noise.scale[idx]), out=y)


def _dataset(pop: DiscretePopulation, idx: np.ndarray, y: np.ndarray) -> Dataset:
    return Dataset(response=y, regressors=pop.points[idx], names=pop.names)


def sample(pop: DiscretePopulation, n: int, seed: int) -> Dataset:
    """Draw n i.i.d. observations; deterministic for a given seed."""
    check_integer(n, "n", 1)
    idx, y = _draws(pop, n, 1, [substream(seed)])
    return _dataset(pop, idx[0], y[0])


def regressor_shift_experiment(mu, noise, law1, law2) -> dict:
    """Best-approximation coefficients under two regressor laws, mu fixed.

    Each law is a (support, probs) pair over raw regressor points.
    Under correct specification the two coefficient vectors coincide;
    under misspecification they generally differ.  A largest difference
    past the float range is a :class:`DomainError`.
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
        "max_abs_difference": float(in_float_range("the largest coefficient difference",
                                                   lambda: np.max(np.abs(beta1 - beta2)))),
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


def _conventional_stack(inverse, x, ssr, n):
    """``conventional_cov`` of each OLS fit of n draws in a block, from its cells."""
    dispersion, errors = dispersion_stack(ssr.sum(axis=1), n, GAUSSIAN, x.shape[1])
    return dispersion[:, None, None] * inverse, errors


# Each coverage method's SEs come from (estimate, seed path).  With path
# None, estimate(inverse, support, ssr, n) returns the stacked
# covariance of a block's fits to n draws, from their inverse information
# and each support point's sum of squared residuals, and the errors the
# method meets; otherwise estimate(ds, B, seed) bootstraps one
# replication's sample with the seed of address (seed, path, r).
COVERAGE_METHODS = {
    "conventional": (_conventional_stack, None),
    "sandwich": (lambda inverse, x, ssr, n: (sandwich_stack(inverse, gram(x, ssr)), [None] * len(ssr)), None),
    "xy-bootstrap": (lambda ds, B, s: bootstrap.xy_bootstrap(ds, GAUSSIAN, B, s), 1),
    "residual-bootstrap": (lambda ds, B, s: bootstrap.residual_bootstrap(ds, B, s), 2),
}


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
    exact population coefficient is inside.  A replication fails with
    the first error it meets, from its fit and then from each method in
    ``methods`` order; failed ones are excluded and counted, with the
    same 10% tolerance as the bootstrap.  Replication r draws its sample
    from substream (seed, 0, r) and a bootstrap's seed from (seed, path,
    r), with the path of :data:`COVERAGE_METHODS`, so it depends only on
    (seed, r): not on the number of replications.

    Replications are drawn in blocks of the bootstrap's chunk size, each
    at once (:func:`_draws`).  A sample is an empirical law on the support,
    fixed by each point's count and response sum, so it is fitted there
    (:func:`~leanreg.fitting.fit_ols_counts`), and each point's sum of
    squared residuals gives both analytic covariances: O(m k^2) per
    replication, not O(n k^2).  Each method then takes the rows still
    without an error, computing their stacked covariances together or
    bootstrapping each sample.  Every product is taken row by row, so
    each replication gets the bits, warnings and typed error it gets
    evaluated alone, and results do not depend on the blocking; they
    match the sample's own fit and covariances to rounding.  A sample
    stays support indices and responses; only a bootstrap makes it a
    :class:`Dataset`.
    """
    methods = list(methods)
    if not methods:
        raise DomainError("methods must be nonempty")
    for m in methods:
        if m not in COVERAGE_METHODS:
            raise DomainError(f"unknown method {m!r}; expected one of {tuple(COVERAGE_METHODS)}")
    check_level(level, "level")
    check_integer(replications, "replications", 1)
    check_integer(n, "n", 1)
    estimators = [COVERAGE_METHODS[m] for m in methods]
    if any(path is not None for _, path in estimators):
        check_integer(B, "B", 1)
        bootstrap.check_se_draws(B)

    # 0.5 + level / 2 rounds to 1 at the largest level below 1.
    z = NormalDist().inv_cdf(min(0.5 + level / 2.0, math.nextafter(1.0, 0.0)))
    beta_true = population_beta(pop)
    samples = substreams(seed, 0, count=replications)
    seeds = [None if p is None else spawn_seeds(seed, p, count=replications) for _, p in estimators]
    results, betas, ses = [], [], []
    size = bootstrap.chunk_size(n)
    for start in range(0, replications, size):
        reps = range(start, min(start + size, replications))
        idx, y = _draws(pop, n, len(reps), samples)
        cells = idx + pop.m * np.arange(len(reps))[:, None]  # row r's point j is cell r*m + j
        beta, inverse, errors = fit_ols_counts(pop.support, *(bootstrap.cell_sums(cells, pop.m, v) for v in (None, y)))
        fitted = (pop.support @ beta[..., None]).ravel()[cells]  # at each draw, overwritten by the residual
        # Squares or sums past the float range leave a covariance that is not finite.
        with np.errstate(over="ignore"):
            ssr = bootstrap.cell_sums(cells, pop.m, np.square(np.subtract(y, fitted, out=fitted), out=fitted))
        del cells, fitted
        se = np.zeros((len(reps), len(methods), beta.shape[1]))
        for i, (estimate, path) in enumerate(estimators):
            if path is None:
                with np.errstate(over="ignore", invalid="ignore"):
                    cov, failed = estimate(inverse, pop.support, ssr, n)
                se[:, i] = standard_errors(cov)
                finite = np.isfinite(cov).all(axis=(1, 2))
                errors = [e or f or (None if ok else float_range_error(f"the {methods[i]} covariance"))
                          for e, f, ok in zip(errors, failed, finite)]  # a row keeps its first error
                continue
            for r in np.flatnonzero([e is None for e in errors]):
                try:
                    boot = estimate(_dataset(pop, idx[r], y[r]), B, seeds[i][reps[r]])
                    se[r, i] = bootstrap.bootstrap_se(boot)
                except LeanRegError as exc:
                    errors[r] = exc
        results.extend(r if e is None else e for r, e in zip(reps, errors))
        betas.append(beta)
        ses.append(se)

    kept, _ = bootstrap.tolerate_failures(results, "coverage replications")
    retained = len(kept)
    beta_hat = np.concatenate(betas)[kept]
    half = z * np.concatenate(ses)[kept]  # (replication, method, coefficient)
    hits = np.abs(beta_hat[:, None] - beta_true) <= half
    coverage = np.sum(hits, axis=0) / retained
    # A running total in replication order: np.sum may sum pairwise.
    mean_width = np.cumsum(2.0 * half, axis=0)[-1] / retained
    return [
        CoverageResult(m, j, level, float(coverage[i, j]), float(mean_width[i, j]), retained)
        for i, m in enumerate(methods)
        for j in range(beta_true.shape[0])
    ]


def normal_quadrature_law(points: int, mean: float = 0.0, sd: float = 1.0):
    """Gauss-Hermite grid representing a normal regressor law.

    Returns (support, probs) with moments of the normal matched exactly
    up to polynomial degree 2*points - 1.
    """
    check_integer(points, "points", 1)
    check_real(mean, "mean")
    check_real(sd, "sd")
    if sd <= 0:
        raise DomainError(f"sd must be positive, got {sd!r}")
    nodes, weights = np.polynomial.hermite.hermgauss(points)
    support = in_float_range(f"a node of the normal law with sd {sd!r}", lambda: mean + sd * math.sqrt(2.0) * nodes)
    probs = weights / math.sqrt(math.pi)
    probs = probs / probs.sum()
    return support.reshape(-1, 1), probs


def uniform_grid_law(lo: float, hi: float, points: int):
    """Equal-weight grid on [lo, hi] discretizing a uniform regressor law; lo < hi."""
    check_integer(points, "points", 1)
    check_real(lo, "lo")
    check_real(hi, "hi")
    if not 0 < float(hi) - float(lo) < math.inf:
        raise DomainError(f"need lo < hi and a finite hi - lo, got lo={lo!r}, hi={hi!r}")
    support = np.linspace(lo, hi, points)
    probs = np.full(points, 1.0 / points)
    return support.reshape(-1, 1), probs


def load_population_file(path) -> DiscretePopulation | dict:
    """Load a population (or shift-experiment) definition from JSON.

    A plain population is {support, probs, mu, noise, names}; a shift
    definition is {mu, noise, laws: [{support, probs}, ...]} and is
    returned as a dict with key "laws".  ``noise`` and ``names`` may be
    left out; any other key is a schema error naming it.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PopulationSchemaError(f"invalid JSON: {exc}", field="") from None
    if not isinstance(obj, dict):
        raise PopulationSchemaError("population file must hold a JSON object", field="")
    if "laws" in obj:
        mu, laws, noise = _fields(obj, "", ("mu", "laws"), ("noise",))
        if not isinstance(laws, list) or len(laws) != 2:
            raise PopulationSchemaError(
                "shift definition needs exactly two laws", field="laws"
            )
        laws = [
            tuple(_fields(law, f"laws[{i}].", ("support", "probs"))) for i, law in enumerate(laws)
        ]
        return {"mu": mu, "noise": noise, "laws": laws}
    support, probs, mu, noise, names = _fields(
        obj, "", ("support", "probs", "mu"), ("noise", "names")
    )
    if names is not None and not isinstance(names, list):
        raise PopulationSchemaError("names must be a list of regressor names", field="names")
    return make_population(support, probs, mu, noise, names=tuple(names or ()))
