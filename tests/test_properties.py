"""Property-based invariance tests: regressor units, row order, ties, bundled data, CSV."""

import csv
import io
import math
import struct
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leanreg import core
from leanreg.core import Dataset, csv_text, dataset_to_csv_text
from leanreg.covariance import conventional_cov, sandwich_cov, standard_errors
from leanreg.datasets import synthetic_charges
from leanreg.fitting import GAUSSIAN, family_by_name, fit_glm
from leanreg.prediction import calibrate_K, make_band
from leanreg.slopes import pair_table_csv

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
    fit = fit_glm(ds, family_by_name(family))
    return (
        fit.beta_hat,
        standard_errors(conventional_cov(fit)),
        standard_errors(sandwich_cov(fit)),
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
        fit = fit_glm(ds, GAUSSIAN)
        band = make_band(fit)
        assume(band.sigma_hat > 0.0)
        design = fit.data.design
        levs = 1.0 + np.einsum("ij,jk,ik->i", design, band.xtx_inverse, design)
        k_values = np.abs(y - fit.fitted) / (band.sigma_hat * levs)
        k_hat = calibrate_K(fit, alpha)
        assert k_hat == _brute_force_K(k_values, alpha)
        assert np.mean(k_values <= k_hat) >= 1.0 - alpha - 1.0 / n


def test_synthetic_charges_reproduces_bundled_csv():
    path = resources.files("leanreg").joinpath("data", "charges_synthetic.csv")
    assert dataset_to_csv_text(synthetic_charges()) == path.read_text(encoding="utf-8")


FLOAT64 = st.floats(allow_nan=False, width=64) | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072014e-308 / 3, math.inf, -math.inf]
)
INT64 = st.integers(-(2**63), 2**63 - 1)
LABEL = st.text(alphabet=st.sampled_from(list('ab ,"\n\r\x00\u00e9')), max_size=6)


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


class TestCsvText:
    @PROPERTY
    @given(data=st.data(), block=st.integers(1, 5))
    def test_round_trip_bit_for_bit(self, data, block):
        n = data.draw(st.integers(0, 12))
        floats = np.array(data.draw(st.lists(FLOAT64, min_size=n, max_size=n)), dtype=np.float64)
        ints = np.array(data.draw(st.lists(INT64, min_size=n, max_size=n)), dtype=np.int64)
        labels = data.draw(st.lists(LABEL, min_size=n, max_size=n))
        header = data.draw(st.lists(LABEL, min_size=3, max_size=3))
        with mock.patch.object(core, "CSV_BLOCK_ROWS", block):
            text = csv_text(header, [labels, floats, ints])
        assert "np.float64(" not in text
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert rows[0] == header
        assert len(rows) == n + 1
        for row, label, f, i in zip(rows[1:], labels, floats.tolist(), ints.tolist()):
            assert row[0] == label
            assert _bits(float(row[1])) == _bits(f)
            assert int(row[2]) == i


def _nested_loop_pair_table(x, y) -> str:
    """The pair-table writer before vectorisation: one csv row per loop step."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["i", "j", "weight", "slope"])
    n = x.shape[0]
    for i in range(n):
        for jj in range(n):
            if i == jj:
                continue
            dx = x[i] - x[jj]
            if dx == 0.0:
                continue
            writer.writerow([i, jj, repr(float(dx * dx)), repr(float((y[i] - y[jj]) / dx))])
    return buf.getvalue()


class TestPairTable:
    @PROPERTY
    @given(
        levels=st.lists(st.floats(-1e3, 1e3, width=32), min_size=1, max_size=4, unique=True),
        data=st.data(),
    )
    def test_matches_nested_loop_on_ties(self, levels, data):
        # float32-representable levels keep every difference far from
        # underflow, so no slope can overflow.
        n = data.draw(st.integers(0, 30))
        x = data.draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
        y = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
        assert pair_table_csv(x, y) == _nested_loop_pair_table(x, y)
