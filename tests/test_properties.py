"""Property-based invariance tests: regressor units, row order, ties, bundled data."""

import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leanreg.core import Dataset, build_design, dataset_to_csv_text
from leanreg.covariance import conventional_cov, sandwich_cov
from leanreg.datasets import synthetic_charges
from leanreg.fitting import family_by_name, fit_dataset, fit_ols
from leanreg.prediction import calibrate_K, make_band

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def _sample(family: str, n: int = 200, seed: int = 5) -> Dataset:
    rng = np.random.default_rng(seed)
    reg = rng.standard_normal((n, 2))
    eta = 0.3 + 0.5 * reg[:, 0] - 0.4 * reg[:, 1]
    if family == "ols":
        y = eta + rng.standard_normal(n)
    elif family == "poisson":
        y = rng.poisson(np.exp(eta)).astype(float)
    else:
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return Dataset(y, reg, ("a", "b"))


SAMPLES = {family: _sample(family) for family in ("ols", "logit", "poisson")}


def _estimates(ds: Dataset, family: str):
    fit = fit_dataset(ds, family_by_name(family))
    return (
        fit.beta_hat,
        conventional_cov(fit).standard_errors(),
        sandwich_cov(fit).standard_errors(),
    )


def _check_rescaled(family: str, j: int, c: float):
    """Multiplying regressor j by c divides beta_j and both SE_j by c."""
    ds = SAMPLES[family]
    reg = ds.regressors.copy()
    reg[:, j - 1] *= c
    scaled = _estimates(Dataset(ds.response, reg, ds.names), family)
    for got, want in zip(scaled, _estimates(ds, family)):
        assert got[j] * c == pytest.approx(want[j], rel=1e-8)


class TestRegressorUnits:
    @PROPERTY
    @given(
        family=st.sampled_from(["ols", "logit", "poisson"]),
        j=st.sampled_from([1, 2]),
        log_c=st.floats(-6.0, 6.0),
    )
    def test_rescaling_a_regressor_rescales_its_coefficient_and_ses(self, family, j, log_c):
        _check_rescaled(family, j, 10.0**log_c)

    def test_logit_regressor_scaled_down(self):
        _check_rescaled("logit", 1, 1e-3)


class TestRowOrder:
    @PROPERTY
    @given(
        family=st.sampled_from(["ols", "logit", "poisson"]),
        perm=st.permutations(range(200)),
    )
    def test_row_permutation_leaves_fit_and_sandwich_unchanged(self, family, perm):
        ds = SAMPLES[family]
        perm = np.asarray(perm)
        permuted = Dataset(ds.response[perm], ds.regressors[perm], ds.names)
        beta, _, sand = _estimates(ds, family)
        beta_p, _, sand_p = _estimates(permuted, family)
        np.testing.assert_allclose(beta_p, beta, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(sand_p, sand, rtol=1e-10, atol=0.0)


def _brute_force_K(k_values: np.ndarray, alpha: float) -> float:
    """The order statistic with the per-candidate tie loop, as a reference."""
    n = k_values.shape[0]
    k_sorted = np.sort(k_values)
    rank = min(max(math.ceil((1.0 - alpha) * n), 1), n)
    k_hat = float(k_sorted[rank - 1])
    coverage = float(np.sum(k_values <= k_hat)) / n
    if coverage > 1.0 - alpha + 1.0 / n:
        target = 1.0 - alpha - 1.0 / n
        for candidate in np.unique(k_sorted):
            if float(np.sum(k_values <= candidate)) / n >= target:
                return float(candidate)
    return k_hat


class TestTiedCalibration:
    @PROPERTY
    @given(
        levels=st.lists(st.integers(-3, 3), min_size=1, max_size=5, unique=True),
        data=st.data(),
        alpha=st.sampled_from([0.05, 0.1, 0.2, 0.5, 0.9]),
    )
    def test_calibrate_K_matches_brute_force_on_ties(self, levels, data, alpha):
        n = data.draw(st.integers(4, 40))
        y = np.asarray(data.draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)), float)
        x = np.asarray(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), float)
        ds = Dataset(y, x.reshape(-1, 1), ("x",))
        assume(np.unique(x).size > 1)
        fit = fit_ols(build_design(ds), y)
        band = make_band(fit, alpha)
        assume(band.sigma_hat > 0.0)
        design = fit.design.matrix
        levs = 1.0 + np.einsum("ij,jk,ik->i", design, band.xtx_inverse, design)
        k_values = np.abs(y - fit.fitted) / (band.sigma_hat * levs)
        k_hat = calibrate_K(fit, ds, alpha)
        assert k_hat == _brute_force_K(k_values, alpha)
        assert np.mean(k_values <= k_hat) >= 1.0 - alpha - 1.0 / n


def test_synthetic_charges_reproduces_bundled_csv():
    path = resources.files("leanreg").joinpath("data", "charges_synthetic.csv")
    assert dataset_to_csv_text(synthetic_charges()) == path.read_text(encoding="utf-8")
