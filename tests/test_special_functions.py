"""The library's special functions against scipy, the independent oracle.

The library computes the logistic link with numpy, p-values with
``math.erfc`` and normal quantiles with ``statistics.NormalDist``; scipy
is a test dependency only.  The bounds are the measured agreement, a
few units in the last place.
"""

import warnings
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit, ndtr, ndtri

from leanreg.bootstrap import BootstrapDraws, normality_diagnostic
from leanreg.covariance import se_and_pvalues
from leanreg.fitting import BERNOULLI


@given(st.lists(st.floats(-700.0, 700.0), min_size=1, max_size=50))
@example([-700.0, -36.8, -1e-300, 0.0, 5e-324, 36.8, 700.0])
@settings(deadline=None, derandomize=True)
def test_logit_link_within_4_ulp_of_expit(t):
    t = np.array(t)
    want = expit(t)
    assert np.all(np.abs(BERNOULLI.inverse_link(t) - want) <= 4 * np.spacing(want))


def test_logit_link_saturates_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mu = BERNOULLI.inverse_link(np.array([-1e4, -710.0, 710.0, 1e4]))
    assert mu.tolist() == [0.0, 0.0, 1.0, 1.0]


def p_values(z):
    """``se_and_pvalues`` of coefficients ``z`` with unit SEs: the two-sided p of each z."""
    z = np.asarray(z, dtype=float)
    return se_and_pvalues(SimpleNamespace(beta_hat=z), np.eye(z.shape[0]))[1]


@given(st.lists(st.floats(0.0, 8.0, exclude_max=True), min_size=1, max_size=20))
@example([0.0, 1e-300, 1.959963984540054, 7.999999])
@settings(deadline=None, derandomize=True)
def test_p_values_within_1e_13_of_ndtr(z):
    want = 2.0 * ndtr(-np.array(z))
    assert np.all(np.abs(p_values(z) - want) <= 1e-13 * want)


def test_p_values_exact_at_zero_and_infinity():
    assert p_values([0.0, np.inf]).tolist() == [1.0, 0.0]


@given(st.integers(10, 5000))
@example(10)
@example(5000)
@settings(deadline=None, derandomize=True, max_examples=30)
def test_plotting_position_quantiles_within_2e_15_of_ndtri(m):
    draws = BootstrapDraws(np.arange(m, dtype=float).reshape(-1, 1), 0)
    quantiles = normality_diagnostic(draws, 0).theoretical_quantiles
    want = ndtri((np.arange(1, m + 1) - 0.5) / m)
    assert np.max(np.abs(quantiles - want)) <= 2e-15
