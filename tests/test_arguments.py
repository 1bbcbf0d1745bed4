"""Hostile arguments at every public entry point taking a count, level, real scalar, index or array.

Each call either succeeds or raises the typed error that names its
argument's domain: :class:`DomainError` for a count, a seed, a level
or a real scalar, :class:`CoefficientIndexError` for an index.  No call
warns.  The domains are ``core.check_integer``, ``core.check_level``,
``core.check_real`` and ``core.check_index``; the inputs are bools,
floats, strings, None, numpy scalars, negatives, non-finite values and
values just below each floor.  Every array argument passes the one rule
``core.finite_array``: points, design rows, covariances, bootstrap SEs,
``fit_weighted``'s ``x``, ``y``, weights and starts, ``decompose``'s
``beta``, the pairwise slopes' ``x`` and ``y`` and the published table's
cells.  Text or a ragged list is a :class:`DataError`; another shape
(a start that is one k-vector for all refits among them) a
:class:`DimensionError`; NaN or inf a :class:`DomainError`.  A result
past the float range passes ``core.in_float_range`` and is
``DomainError("<what> passes the float range")``, wherever it arises.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leanreg import bootstrap
from leanreg.bootstrap import bootstrap_se, normality_diagnostic, residual_bootstrap, xy_bootstrap
from leanreg.core import Dataset
from leanreg.covariance import coefficient_table, conventional_cov, sandwich_cov, se_and_pvalues, table_from_published
from leanreg.exceptions import (
    CoefficientIndexError,
    DataError,
    DimensionError,
    DomainError,
    FamilyError,
    LeanRegError,
)
from leanreg.fitting import GAUSSIAN, POISSON, exp_coef, fit_glm, fit_weighted, predict_mean
from leanreg.population import (
    check_orthogonality,
    coverage_experiment,
    decompose,
    make_population,
    normal_quadrature_law,
    population_beta,
    regressor_shift_experiment,
    sample,
    uniform_grid_law,
)
from leanreg.prediction import calibrate_K, cv_calibrate_K, make_band
from leanreg.report import misspec_indicator
from leanreg.rng import resample_indices, spawn_seeds, substream, substreams
from leanreg.slopes import adjust_regressor, pair_table_csv, pairwise_slope_multiple, pairwise_slope_simple

from charges_recipe import synthetic_charges

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True)

_x = np.arange(12.0)
SAMPLE = Dataset(
    1.0 + 0.5 * _x + np.sin(_x), np.column_stack([_x, np.cos(_x)]), names=("x1", "x2")
)
COUNTS = Dataset(np.array([1.0, 0.0, 2.0, 3.0, 2.0, 5.0, 4.0, 6.0, 5.0, 9.0, 7.0, 8.0]),
                 _x, names=("x",))
OLS_FIT = fit_glm(SAMPLE, GAUSSIAN)
POISSON_FIT = fit_glm(COUNTS, POISSON)
TABLE = coefficient_table(OLS_FIT, conventional_cov(OLS_FIT), sandwich_cov(OLS_FIT))
DRAWS = xy_bootstrap(SAMPLE, GAUSSIAN, 12, 1)
POPULATION = make_population([[-1.0], [1.0]], [0.5, 0.5], [0.0, 1.0], {"kind": "gaussian"})


def cover(**kwargs):
    args = dict(n=20, replications=3, methods=["sandwich"], seed=0)
    return coverage_experiment(POPULATION, **{**args, **kwargs})


def outcome(call):
    """The type of the :class:`LeanRegError` ``call()`` raises, or None; a warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call()
        except LeanRegError as exc:
            return type(exc)
    return None


# No count, level, index or band multiplier may be one of these.
NOT_A_NUMBER = [True, False, np.True_, None, "1", "0.5", [1]]
# Floats, which no count or index may be, and which are levels only in (0, 1).
HOSTILE = st.sampled_from(NOT_A_NUMBER + [0.5, 1.0, 2.5, -1.0, np.float64(2.0), math.nan, math.inf])


def is_integer(value) -> bool:
    return not isinstance(value, (bool, np.bool_)) and isinstance(value, (int, np.integer))


def is_real(value) -> bool:
    return not isinstance(value, (bool, np.bool_)) and isinstance(value, (int, float, np.number))


def integers(values):
    """Each value as a Python int and as each numpy integer type that holds it."""
    types = (np.int64, np.int16, np.uint8)
    return st.sampled_from([t(v) for v in values for t in (int, *types)
                            if t is int or np.iinfo(t).min <= v <= np.iinfo(t).max])


# (name, floor, values at or above the floor that succeed, call)
COUNT_ARGUMENTS = [
    ("xy_bootstrap.B", 1, [1, 2, 5], lambda v: xy_bootstrap(SAMPLE, GAUSSIAN, v, 1)),
    ("xy_bootstrap.seed", 0, [0, 3, 2**64 + 3], lambda v: xy_bootstrap(SAMPLE, GAUSSIAN, 3, v)),
    ("residual_bootstrap.B", 1, [1, 2, 5], lambda v: residual_bootstrap(SAMPLE, v, 1)),
    ("sample.n", 1, [1, 2, 9], lambda v: sample(POPULATION, v, 1)),
    ("sample.seed", 0, [0, 7], lambda v: sample(POPULATION, 5, v)),
    ("coverage_experiment.n", 1, [20, 30], lambda v: cover(n=v)),
    ("coverage_experiment.replications", 1, [1, 2, 4], lambda v: cover(replications=v)),
    ("coverage_experiment.B", 1, [2, 3],
     lambda v: cover(replications=2, methods=["xy-bootstrap"], B=v)),
    ("coverage_experiment.seed", 0, [0, 5], lambda v: cover(seed=v)),
    ("cv_calibrate_K.folds", 2, [2, 3, 6], lambda v: cv_calibrate_K(SAMPLE, 0.2, v, 1)),
    ("cv_calibrate_K.seed", 0, [0, 4], lambda v: cv_calibrate_K(SAMPLE, 0.2, 3, v)),
    ("normal_quadrature_law.points", 1, [1, 2, 7], normal_quadrature_law),
    ("uniform_grid_law.points", 1, [1, 2, 7], lambda v: uniform_grid_law(0.0, 1.0, v)),
    ("substream.seed", 0, [0, 1, 2**64 + 3], substream),
    ("substreams.count", 0, [0, 1, 3], lambda v: substreams(1, count=v)),
    ("spawn_seeds.count", 0, [0, 1, 3], lambda v: spawn_seeds(1, 2, count=v)),
    ("resample_indices.B", 0, [0, 1, 5], lambda v: list(resample_indices(1, v, 2, 3))),
    ("resample_indices.size", 1, [1, 2, 7], lambda v: list(resample_indices(1, 5, v, 3))),
    ("resample_indices.n", 1, [1, 2, 9], lambda v: list(resample_indices(1, 2, 2, v))),
    ("synthetic_charges.n", 1, [1, 5], lambda v: synthetic_charges(n=v)),
]


@pytest.mark.parametrize(
    "least, valid, call",
    [pytest.param(*row[1:], id=row[0]) for row in COUNT_ARGUMENTS],
)
@PROPERTY
@given(data=st.data())
def test_count_is_an_integer_at_its_floor(least, valid, call, data):
    value = data.draw(HOSTILE | integers(list(range(least - 3, least))) | integers(valid))
    expected = None if is_integer(value) and value >= least else DomainError
    assert outcome(lambda: call(value)) is expected


LEVEL_ARGUMENTS = [
    ("calibrate_K.alpha", lambda v: calibrate_K(OLS_FIT, v)),
    ("cv_calibrate_K.alpha", lambda v: cv_calibrate_K(SAMPLE, v, 3, 1)),
    ("misspec_indicator.level", lambda v: misspec_indicator(TABLE, level=v)),
    ("coverage_experiment.level", lambda v: cover(level=v)),
]
LEVELS = (
    HOSTILE
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.floats(0.0, 1.0)
    | st.floats(0.0, 1.0).map(np.float64)
    | integers([-1, 0, 1, 2])
)


@pytest.mark.parametrize("call", [pytest.param(c, id=name) for name, c in LEVEL_ARGUMENTS])
@PROPERTY
@given(value=LEVELS)
def test_level_is_a_number_in_the_open_unit_interval(call, value):
    expected = None if is_real(value) and 0 < value < 1 else DomainError
    assert outcome(lambda: call(value)) is expected


@pytest.mark.parametrize("call", [pytest.param(c, id=name) for name, c in LEVEL_ARGUMENTS])
@pytest.mark.parametrize("value", [math.nextafter(1.0, 0.0), 5e-324])
def test_extreme_levels_are_usable(call, value):
    # 0.5 + value / 2 rounds to 1 at the largest level below 1.
    assert outcome(lambda: call(value)) is None


# (name, call, whether a finite real value is in the domain)
REAL_ARGUMENTS = [
    ("uniform_grid_law.lo", lambda v: uniform_grid_law(v, 1.0, 3), lambda v: v < 1.0),
    ("uniform_grid_law.hi", lambda v: uniform_grid_law(0.0, v, 3), lambda v: v > 0.0),
    ("normal_quadrature_law.mean", lambda v: normal_quadrature_law(3, mean=v), lambda v: True),
    ("normal_quadrature_law.sd", lambda v: normal_quadrature_law(3, sd=v), lambda v: v > 0.0),
    ("exp_coef.delta", lambda v: exp_coef(POISSON_FIT, 1, v), lambda v: True),
    ("check_orthogonality.tolerance", lambda v: check_orthogonality(POPULATION, tolerance=v),
     lambda v: v >= 0.0),
]


@pytest.mark.parametrize(
    "call, in_domain", [pytest.param(*row[1:], id=row[0]) for row in REAL_ARGUMENTS]
)
@PROPERTY
@given(value=HOSTILE | st.floats(-10.0, 10.0) | integers([-2, 0, 1, 3])
       | st.sampled_from([-0.0, 5e-324, np.float64(-3.5), -math.inf]))
def test_real_is_finite_and_in_its_range(call, in_domain, value):
    finite = is_real(value) and math.isfinite(value)
    expected = None if finite and in_domain(value) else DomainError
    assert outcome(lambda: call(value)) is expected


# (name, lowest index, highest index, call)
INDEX_ARGUMENTS = [
    ("exp_coef.j", 0, 1, lambda j: exp_coef(POISSON_FIT, j)),
    ("normality_diagnostic.j", 0, 2, lambda j: normality_diagnostic(DRAWS, j)),
    ("adjust_regressor.j", 1, 2, lambda j: adjust_regressor(SAMPLE, j)),
    ("pairwise_slope_multiple.j", 1, 2, lambda j: pairwise_slope_multiple(SAMPLE, j)),
]


@pytest.mark.parametrize(
    "lo, hi, call", [pytest.param(*row[1:], id=row[0]) for row in INDEX_ARGUMENTS]
)
@PROPERTY
@given(data=st.data())
def test_index_is_an_integer_in_range(lo, hi, call, data):
    value = data.draw(HOSTILE | integers(list(range(-3, 6))))
    expected = None if is_integer(value) and lo <= value <= hi else CoefficientIndexError
    assert outcome(lambda: call(value)) is expected


@PROPERTY
@given(family=st.sampled_from(NOT_A_NUMBER + ["ols", "poisson", "gaussian", 0]))
def test_family_must_be_a_family(family):
    assert outcome(lambda: fit_glm(SAMPLE, family)) is FamilyError
    assert outcome(lambda: xy_bootstrap(COUNTS, family, 5, 1)) is FamilyError


@PROPERTY
@given(K=HOSTILE | st.floats(-2.0, 1e300) | integers([-1, 0, 3]))
def test_band_multiplier_is_a_finite_nonnegative_number(K):
    expected = None if is_real(K) and 0 <= K < math.inf else DomainError
    assert outcome(lambda: make_band(OLS_FIT, K=K)) is expected


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: normal_quadrature_law(True), DomainError, id="normal_quadrature_law(True)"),
    pytest.param(lambda: substreams(1, count=-1), DomainError, id="substreams(count=-1)"),
    pytest.param(lambda: spawn_seeds(1, count=-3), DomainError, id="spawn_seeds(count=-3)"),
    pytest.param(lambda: synthetic_charges(n=2.5), DomainError, id="synthetic_charges(n=2.5)"),
    pytest.param(lambda: calibrate_K(OLS_FIT, "0.1"), DomainError, id="calibrate_K('0.1')"),
    pytest.param(lambda: misspec_indicator(TABLE, level="0.1"), DomainError,
                 id="misspec_indicator(level='0.1')"),
    pytest.param(lambda: cover(level="0.9"), DomainError, id="coverage_experiment(level='0.9')"),
    pytest.param(lambda: exp_coef(POISSON_FIT, True), CoefficientIndexError, id="exp_coef(True)"),
    pytest.param(lambda: exp_coef(POISSON_FIT, 1.0), CoefficientIndexError, id="exp_coef(1.0)"),
    pytest.param(lambda: normality_diagnostic(DRAWS, 1.5), CoefficientIndexError,
                 id="normality_diagnostic(1.5)"),
    pytest.param(lambda: adjust_regressor(SAMPLE, 1.0), CoefficientIndexError,
                 id="adjust_regressor(1.0)"),
    pytest.param(lambda: normality_diagnostic(DRAWS, True), CoefficientIndexError,
                 id="normality_diagnostic(True)"),
    pytest.param(lambda: adjust_regressor(SAMPLE, True), CoefficientIndexError,
                 id="adjust_regressor(True)"),
    pytest.param(lambda: fit_glm(SAMPLE, "ols"), FamilyError, id="fit_glm('ols')"),
    pytest.param(lambda: xy_bootstrap(COUNTS, "poisson", 5, 1), FamilyError,
                 id="xy_bootstrap('poisson')"),
    pytest.param(lambda: make_band(OLS_FIT, K="1"), DomainError, id="make_band(K='1')"),
    pytest.param(lambda: make_band(OLS_FIT, K=True), DomainError, id="make_band(K=True)"),
    pytest.param(lambda: uniform_grid_law(1.0, 0.0, 3), DomainError, id="uniform_grid_law(1, 0)"),
    pytest.param(lambda: uniform_grid_law(0.0, math.nan, 3), DomainError,
                 id="uniform_grid_law(0, nan)"),
    pytest.param(lambda: uniform_grid_law(0.0, "1", 3), DomainError, id="uniform_grid_law(0, '1')"),
    pytest.param(lambda: uniform_grid_law(-1e308, 1e308, 3), DomainError,
                 id="uniform_grid_law(-1e308, 1e308)"),
    pytest.param(lambda: normal_quadrature_law(3, sd=-1.0), DomainError,
                 id="normal_quadrature_law(sd=-1)"),
    pytest.param(lambda: normal_quadrature_law(3, mean="0"), DomainError,
                 id="normal_quadrature_law(mean='0')"),
    pytest.param(lambda: normal_quadrature_law(7, sd=1e308), DomainError,
                 id="normal_quadrature_law(sd=1e308)"),
    pytest.param(lambda: exp_coef(POISSON_FIT, 1, delta="1"), DomainError, id="exp_coef(delta='1')"),
    pytest.param(lambda: exp_coef(POISSON_FIT, 1, delta=None), DomainError,
                 id="exp_coef(delta=None)"),
])
def test_formerly_untyped_or_accepted_calls(call, error):
    assert outcome(call) is error


BAND = make_band(OLS_FIT, K=1.0)


def refit_counts(start):
    """Two poisson refits of COUNTS, from ``start``."""
    return fit_weighted(COUNTS.design, COUNTS.response, np.ones((2, COUNTS.n)), POISSON, start=start)


def refit_sample(x=SAMPLE.design, y=SAMPLE.response, w=np.ones((2, SAMPLE.n))):
    """Two OLS fits of SAMPLE by ``fit_weighted``, with any of its arrays replaced."""
    return fit_weighted(x, y, w, GAUSSIAN)


def nan_at(a, index):
    """A copy of ``a`` with a NaN at ``index``."""
    a = np.array(a)
    a[index] = math.nan
    return a


PUBLISHED_ROW = {"label": "x", "coef": 1.0, "se_conv": 0.1, "p_conv": 0.5, "se_sand": 0.2, "p_sand": 0.6}
CONV, SAND = conventional_cov(OLS_FIT), sandwich_cov(OLS_FIT)


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: BAND.evaluate([["a", "b", "c"]]), DataError, id="evaluate(text)"),
    pytest.param(lambda: BAND.evaluate([[1.0, 2.0], [3.0]]), DataError, id="evaluate(ragged)"),
    pytest.param(lambda: predict_mean(OLS_FIT, ["1", "a", "b"]), DataError, id="predict_mean(text)"),
    pytest.param(lambda: BAND.evaluate([[1.0, math.nan, 1.0]]), DomainError, id="interval(nan)"),
    pytest.param(lambda: BAND.evaluate([[1.0, math.inf, 1.0]]), DomainError, id="evaluate(inf)"),
    pytest.param(lambda: BAND.evaluate([[1.0, 1e200, -1e200]]), DomainError, id="interval(1e200)"),
    pytest.param(lambda: predict_mean(OLS_FIT, [1.0, -math.inf, 0.0]), DomainError,
                 id="predict_mean(-inf)"),
    pytest.param(lambda: se_and_pvalues(OLS_FIT, np.full((3, 3), math.nan)), DomainError,
                 id="se_and_pvalues(nan)"),
    pytest.param(lambda: se_and_pvalues(OLS_FIT, CONV + np.diag([0.0, math.inf, 0.0])), DomainError,
                 id="se_and_pvalues(inf)"),
    pytest.param(lambda: se_and_pvalues(OLS_FIT, -np.eye(3)), DomainError, id="se_and_pvalues(negative)"),
    pytest.param(lambda: coefficient_table(OLS_FIT, CONV, SAND, [math.nan] * 3), DomainError,
                 id="coefficient_table(nan)"),
    pytest.param(lambda: coefficient_table(OLS_FIT, CONV, SAND, [1.0, -math.inf, 1.0]), DomainError,
                 id="coefficient_table(-inf)"),
    pytest.param(lambda: coefficient_table(OLS_FIT, CONV, SAND, [1.0, 1.0, -0.5]), DomainError,
                 id="coefficient_table(negative)"),
    pytest.param(lambda: refit_counts(start=np.zeros(2)), DimensionError, id="fit_weighted(start (2,))"),
    pytest.param(lambda: refit_counts(start=np.zeros((3, 2))), DimensionError, id="fit_weighted(start (3, 2))"),
    pytest.param(lambda: refit_counts(start=np.zeros((2, 3))), DimensionError, id="fit_weighted(start (2, 3))"),
    pytest.param(lambda: refit_counts(start=np.zeros((1, 2, 2))), DimensionError,
                 id="fit_weighted(start (1, 2, 2))"),
    pytest.param(lambda: refit_counts(start=[[0.0, 0.0], [0.0, math.nan]]), DomainError,
                 id="fit_weighted(start nan row)"),
    pytest.param(lambda: refit_counts(start=[[math.inf, 0.0], [0.0, 0.0]]), DomainError,
                 id="fit_weighted(start inf row)"),
    pytest.param(lambda: refit_sample(w=[["a"] * SAMPLE.n] * 2), DataError, id="fit_weighted(weights text)"),
    pytest.param(lambda: refit_sample(w=np.ones(SAMPLE.n)), DimensionError, id="fit_weighted(weights 1-D)"),
    pytest.param(lambda: refit_sample(w=np.ones((2, SAMPLE.n - 1))), DimensionError,
                 id="fit_weighted(weights (2, n-1))"),
    pytest.param(lambda: refit_sample(y=SAMPLE.response[:-1]), DimensionError, id="fit_weighted(y (n-1,))"),
    pytest.param(lambda: refit_sample(y=nan_at(SAMPLE.response, 3)), DomainError, id="fit_weighted(y nan)"),
    pytest.param(lambda: refit_sample(x=nan_at(SAMPLE.design, (3, 1))), DomainError, id="fit_weighted(x nan)"),
    pytest.param(lambda: decompose(POPULATION, beta=["a", "b"]), DataError, id="decompose(beta text)"),
    pytest.param(lambda: pairwise_slope_simple([[0.0, 1.0]], [0.0, 1.0]), DimensionError,
                 id="pairwise_slope_simple(2-D x)"),
    pytest.param(lambda: table_from_published([{**PUBLISHED_ROW, "coef": "1.0"}]), DataError,
                 id="table_from_published(text)"),
])
def test_points_covariances_and_ses_are_finite_numbers(call, error):
    assert outcome(call) is error


def test_finite_points_and_ses_are_accepted():
    assert outcome(lambda: BAND.evaluate([np.array([1, 2, -3])])) is None
    assert outcome(lambda: predict_mean(OLS_FIT, [1, 0.5, 0.25])) is None
    assert outcome(lambda: make_band(OLS_FIT, K=1e300).evaluate([[1.0, 2.0, 3.0]])) is None
    assert outcome(lambda: refit_counts(start=[[0.0, 0.0], POISSON_FIT.beta_hat])) is None
    assert outcome(lambda: coefficient_table(OLS_FIT, CONV, SAND, [0.0, 1.0, 2.0])) is None


def test_family_error_names_the_lookup():
    with pytest.raises(FamilyError, match="family_by_name"):
        fit_glm(SAMPLE, "ols")


# Responses of about 1e170: residuals square past the float range.
HUGE = Dataset(SAMPLE.response * 1e170, SAMPLE.regressors, names=SAMPLE.names)
HUGE_FIT = fit_glm(HUGE, GAUSSIAN)
# Squared residuals of samples from noise with sd 1e154 pass the float range.
HUGE_NOISE = make_population([[0.0], [1.0], [2.0]], [1 / 3] * 3, [0.0, 1.0, 4.0],
                             {"kind": "gaussian", "sigma": 1e154})


# A regressor of about 1e200 squares past the float range in the Gram matrix.
HUGE_X = Dataset(SAMPLE.response, SAMPLE.regressors * [1e200, 1.0], names=SAMPLE.names)
HUGE_X_COUNTS = Dataset(COUNTS.response, COUNTS.regressors * 1e200, names=COUNTS.names)
# Weights of 1e300 on a slope reaching 5e10: only the first weight row's Gram passes the float range.
WIDE = np.column_stack([np.ones(6), np.arange(6) * 1e10])
HEAVY = np.array([[1e300] * 6, [1.0] * 6])
# Responses of 1e300 at regressors of 1e10: X'y passes the float range, X'X does not.
HUGE_XY = Dataset(np.array([1e300, -1e300, 5e299, 0.0, 3e299]), np.array([1.0, 2.0, 3.0, 4.0, 6.0]) * 1e10, ("a",))
HUGE_XY_POPULATION = make_population([[1e150], [2e150], [-1e150]], [0.3, 0.3, 0.4], [1e200, -1e200, 3e199])


def raise_first_error(fits):
    raise next(e for e in fits.errors if e is not None)


def raise_first_failure(results, what):
    raise next(r for r in results if isinstance(r, Exception))


def first_coverage_failure(method):
    """Raise the error of the first failed replication of a coverage run at HUGE_NOISE."""
    with mock.patch.object(bootstrap, "tolerate_failures", raise_first_failure):
        coverage_experiment(HUGE_NOISE, 50, 2, [method], seed=1)


# (name, call, the <what> of its message): one row per site that checks a result against the float range.
FLOAT_RANGE = [
    ("conventional_cov", lambda: conventional_cov(HUGE_FIT), "the conventional covariance"),
    ("sandwich_cov", lambda: sandwich_cov(HUGE_FIT), "the sandwich covariance"),
    ("bootstrap_se", lambda: bootstrap_se(xy_bootstrap(HUGE, GAUSSIAN, 12, 1)), "a bootstrap standard deviation"),
    ("PredictionBand.evaluate", lambda: BAND.evaluate([[1.0, 1e200, -1e200]]), "a center or half width of the band"),
    ("calibrate_K", lambda: calibrate_K(HUGE_FIT, 0.2), "a center or half width of the band"),
    ("decompose", lambda: decompose(POPULATION, beta=[1e200, 0.0]), "a population moment at beta [1e+200, 0.0]"),
    ("coverage_experiment.conventional", lambda: first_coverage_failure("conventional"),
     "the conventional covariance"),
    ("coverage_experiment.sandwich", lambda: first_coverage_failure("sandwich"), "the sandwich covariance"),
    ("normal_quadrature_law", lambda: normal_quadrature_law(5, sd=1e308), "a node of the normal law with sd 1e+308"),
    ("regressor_shift_experiment", lambda: regressor_shift_experiment(
        {"kind": "polynomial", "coefficients": [0.0, 0.0, 1.5e308]}, {"kind": "none"},
        ([[0.0], [1.0]], [0.5, 0.5]), ([[-1.0], [0.0]], [0.5, 0.5])), "the largest coefficient difference"),
    ("predict_mean", lambda: predict_mean(POISSON_FIT, [1.0, 1e6]), "the predicted mean"),
    ("exp_coef", lambda: exp_coef(POISSON_FIT, 1, delta=1e6), f"exp({POISSON_FIT.beta_hat[1]:.6g} * 1000000.0)"),
    ("pairwise_slope_simple", lambda: pairwise_slope_simple([0.0, 1e-160], [0.0, 1e300]), "the pairwise slope"),
    ("pair_table_csv", lambda: pair_table_csv([1e200, -1e200], [1.0, 2.0]), "a pair's weight or slope"),
    ("fit_weighted.gaussian", lambda: refit_sample(w=np.full((1, SAMPLE.n), 1e308)), "the sum of a weight row"),
    ("fit_weighted.poisson", lambda: fit_weighted(COUNTS.design, COUNTS.response, np.full((1, COUNTS.n), 1e308),
                                                  POISSON), "the sum of a weight row"),
    ("fit_glm.ols.gram", lambda: fit_glm(HUGE_X, GAUSSIAN), "a weighted second-moment matrix"),
    ("fit_glm.poisson.gram", lambda: fit_glm(HUGE_X_COUNTS, POISSON), "a weighted second-moment matrix"),
    ("fit_weighted.gaussian.gram", lambda: raise_first_error(fit_weighted(WIDE, np.arange(6.0), HEAVY, GAUSSIAN)),
     "a weighted second-moment matrix"),
    ("fit_weighted.poisson.gram", lambda: raise_first_error(fit_weighted(WIDE, np.arange(6.0), HEAVY, POISSON)),
     "a weighted second-moment matrix"),
    ("fit_glm.ols.normal_equations", lambda: fit_glm(HUGE_XY, GAUSSIAN), "the right-hand side of the normal equations"),
    ("population_beta", lambda: population_beta(HUGE_XY_POPULATION), "the right-hand side of the normal equations"),
]


@pytest.mark.parametrize("call, what", [pytest.param(*row[1:], id=row[0]) for row in FLOAT_RANGE])
def test_a_result_past_the_float_range_is_one_domain_error(call, what):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as exc_info:
            call()
    assert str(exc_info.value) == f"{what} passes the float range"
