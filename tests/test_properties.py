"""Property-based tests: regressor units, row order, ties, bundled data, CSV, pair sums."""

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
from leanreg.core import Dataset, csv_text, dataset_to_csv_text, load_csv
from leanreg.covariance import conventional_cov, sandwich_cov, standard_errors
from leanreg.exceptions import LeanRegError, ZeroWeightError
from leanreg.fitting import GAUSSIAN, family_by_name, fit_glm
from leanreg.prediction import calibrate_K, make_band
from leanreg.slopes import pair_table_csv, pairwise_slope_simple
from charges_recipe import synthetic_charges
from reference_forms import csv_writer_text, dense_pairwise_slope, row_reader_load_csv

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
        band = make_band(fit, K=1.0)
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

    @PROPERTY
    @given(data=st.data(), block=st.integers(1, 5))
    def test_bytes_match_csv_writer(self, data, block):
        n = data.draw(st.integers(0, 12))
        kinds = data.draw(st.lists(st.sampled_from(["text", "int", "bool", "float"]),
                                   min_size=1, max_size=4))
        cells = {"text": LABEL, "int": INT64, "bool": st.booleans(), "float": FLOAT64}
        columns = [data.draw(st.lists(cells[k], min_size=n, max_size=n)) for k in kinds]
        columns = [c if k == "text" else np.array(c) for c, k in zip(columns, kinds)]
        header = data.draw(st.lists(LABEL, min_size=len(kinds), max_size=len(kinds)))
        with mock.patch.object(core, "CSV_BLOCK_ROWS", block):
            text = csv_text(header, columns)
        assert text == csv_writer_text(header, columns, block)

    @pytest.mark.parametrize("cell", ["", "a\rb", 'say "hi"', "x,y", "\n"])
    def test_one_column_edge_cells(self, cell):
        for header, column in (([cell], [cell, "b", cell]), (["h"], [cell])):
            assert csv_text(header, [column]) == csv_writer_text(header, [column], 2)


# Cell contents of the files load_csv reads: numbers as data files hold
# them, and the forms that either reader treats specially.  The odd cells
# on the last line are read by float() but not by numpy's reader.
NUMBER_CELL = st.one_of(
    FLOAT64.map(repr), st.integers(-(10**6), 10**6).map(str), st.sampled_from(["+.5", "5.", "-0", "1E5"])
)
ODD_CELL = st.sampled_from([
    "", " ", "\n", "\r\n", "nan", "-inf", "Infinity", "1e400", "-1e400", "abc", "1 2", "0x10", "1,5",
    'say "1"', "1\n", "1\xa0", "\xa01",
    "1_0", "-2_5.5", "\u0661", "\uff11.5",
])
PAD = st.sampled_from(["", " ", "\t", "  "])
NUMBER_DATA_CELL = st.builds(lambda a, c, b: a + c + b, PAD, NUMBER_CELL, PAD)
DATA_CELL = st.builds(lambda a, c, b: a + c + b, PAD, st.one_of(NUMBER_CELL, ODD_CELL), PAD)
BLANK_CELL = st.builds(lambda a, c: a + c, PAD, st.sampled_from(["", "\n", "\xa0"]))


def _numpy_rejects(cell: str) -> bool:
    """Whether numpy's reader rejects a cell that float() may read: an underscore or a non-ASCII character."""
    cell = cell.strip()
    return "_" in cell or not cell.isascii()


def _outcome(read, path, regressors):
    """The bits of a read's response and regressors, or its error's type, row and column."""
    try:
        ds = read(path, "y", regressors)
    except LeanRegError as exc:
        return type(exc), getattr(exc, "row", None), getattr(exc, "column", None)
    return ds.response.tobytes(), ds.regressors.tobytes(), ds.names


class TestLoadCsvAgainstRowReader:
    """load_csv against the row-by-row reader it replaced (``row_reader_load_csv``)."""

    @staticmethod
    def _text(rows, eol, bom, final_eol, quote_flags):
        quoted = iter(quote_flags)

        def encode(cell):
            if any(c in cell for c in ',"\n\r') or next(quoted, False):
                return '"' + cell.replace('"', '""') + '"'
            return cell

        lines = [",".join(map(encode, row)) for row in rows]
        return ("\ufeff" if bom else "") + eol.join(lines) + (eol if final_eol else "")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_same_values_or_same_error(self, tmp_path_factory, data):
        header = [data.draw(PAD) + name + data.draw(PAD) for name in ("y", "x", "z", "w")]
        regressors = data.draw(st.permutations(["x", "z"]))[: data.draw(st.integers(0, 2))]
        cell = data.draw(st.sampled_from([NUMBER_DATA_CELL, DATA_CELL]))
        rows = [header]
        for _ in range(data.draw(st.integers(1, 8))):
            kind = data.draw(st.sampled_from(["data"] * 6 + ["empty", "blank"]))
            if kind == "empty":
                rows.append([])
            elif kind == "blank":
                rows.append(data.draw(st.lists(BLANK_CELL, min_size=1, max_size=5)))
            else:  # mostly full, else short or long
                width = data.draw(st.sampled_from([4, 4, 4, 4, 1, 2, 3, 5]))
                rows.append(data.draw(st.lists(cell, min_size=width, max_size=width)))
        eol = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        flags = data.draw(st.lists(st.booleans(), max_size=30))
        bom, final_eol = data.draw(st.booleans()), data.draw(st.booleans())
        path = tmp_path_factory.getbasetemp() / "row_reader_differential.csv"
        path.write_bytes(self._text(rows, eol, bom, final_eol, flags).encode("utf-8"))
        got = _outcome(load_csv, path, regressors)
        # The row reader's verdict on the file whose cells only float() reads are non-numeric.
        rows = [rows[0]] + [["x" if _numpy_rejects(c) else c for c in row] for row in rows[1:]]
        path.write_bytes(self._text(rows, eol, bom, final_eol, flags).encode("utf-8"))
        assert got == _outcome(row_reader_load_csv, path, regressors)


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

    # Each unordered pair is formatted once and its mirror reuses the
    # strings, except that a tie in y can give the mirror the other zero.
    @pytest.mark.parametrize(
        "x, y",
        [
            ([0.0, 1.0, 2.0], [5.0, 5.0, 7.0]),  # a tie, the smaller x first
            ([2.0, 1.0, 0.0], [5.0, 5.0, 7.0]),  # a tie, the larger x first
            # (0, 1) underflows to 0.0 both ways; the tie (0, 2) is -0.0 one way, 0.0 the other.
            ([0.0, 1e100, 2e100], [1e-300, 2e-300, 1e-300]),
            ([0.0, 1.0, 2.0, 3.0], [0.0, -0.0, -0.0, 0.0]),  # both signs of zero in y
            ([0.0, -0.0, 1.0, 2.0], [-0.0, 0.0, 0.0, -0.0]),  # and in x, whose pair drops out
        ],
        ids=["tie ascending", "tie descending", "underflow", "signed zero y", "signed zero x"],
    )
    def test_signs_of_zero_slopes(self, x, y):
        assert pair_table_csv(x, y) == _nested_loop_pair_table(x, y)

    @PROPERTY
    @given(
        x_levels=st.lists(st.floats(-1e3, 1e3, width=32), min_size=1, max_size=4, unique=True),
        y_levels=st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300]), min_size=1, max_size=3),
        block=st.integers(1, 5),
        data=st.data(),
    )
    def test_matches_nested_loop_on_y_ties_across_blocks(self, x_levels, y_levels, block, data):
        n = data.draw(st.integers(0, 12))
        x = data.draw(st.lists(st.sampled_from(x_levels), min_size=n, max_size=n))
        y = data.draw(st.lists(st.sampled_from(y_levels), min_size=n, max_size=n))
        with mock.patch.object(core, "CSV_BLOCK_ROWS", block):
            assert pair_table_csv(x, y) == _nested_loop_pair_table(x, y)


# Multiples k * 10^e with |k| <= 3: a nonzero difference of two is at
# least about 1e-150, so every nonzero squared difference is a normal
# double and the dense sums are accurate to rounding.  The regressor also
# takes zeros of both signs and subnormals, whose pairs differ by
# subnormal amounts.
SCALED = st.builds(lambda k, e: k * 10.0**e, st.integers(-3, 3), st.integers(-150, 150))
REGRESSOR = SCALED | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1.5e-323, -2.2250738585072014e-308 / 3]
)


class TestPairwiseSlopeClosedForm:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_dense_sums(self, data):
        n = data.draw(st.integers(2, 40))
        # x takes a few levels, so ties are common.
        levels = data.draw(st.lists(REGRESSOR, min_size=2, max_size=n, unique=True))
        x = np.array(data.draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)))
        y = np.array(data.draw(st.lists(SCALED, min_size=n, max_size=n)))
        want = dense_pairwise_slope(x, y)
        if want.total_weight == 0.0:
            with pytest.raises(ZeroWeightError):
                pairwise_slope_simple(x, y)
            return
        got = pairwise_slope_simple(x, y)
        assert got.pair_count == want.pair_count
        assert got.total_weight == pytest.approx(want.total_weight, rel=1e-12, abs=0.0)
        # Relative to the slope's natural scale, sum |dx dy| / sum dx^2,
        # which bounds |beta|: where the products cancel, no form keeps
        # more of beta than the rounding of that sum.
        dx = x[:, None] - x[None, :]
        scale = float(np.sum(np.abs(dx * (y[:, None] - y[None, :])))) / want.total_weight
        assert abs(got.beta - want.beta) <= 1e-12 * scale
