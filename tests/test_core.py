"""Ingestion, design construction, the rank policy and the SPD solve."""

import csv
import warnings

import numpy as np
import pytest

from leanreg import core
from leanreg.core import (
    Dataset,
    dataset_to_csv_text,
    load_csv,
    numerical_rank,
    spd_solve_stack,
    write_csv,
)
from leanreg.exceptions import (
    ColumnError,
    DataError,
    DomainError,
    EmptyInputError,
    ParseError,
    SingularSystemError,
)


def write_tmp(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_three_row_read_back(self, tmp_path):
        path = write_tmp(tmp_path, "y,x\n1,5\n2,7\n3,9\n")
        ds = load_csv(path, response="y", regressors=["x"])
        assert ds.n == 3 and ds.p == 1
        assert ds.response.tolist() == [1.0, 2.0, 3.0]
        assert ds.regressors[:, 0].tolist() == [5.0, 7.0, 9.0]
        assert ds.names == ("x",)
        assert ds.response_name == "y"

    def test_missing_response_column(self, tmp_path):
        path = write_tmp(tmp_path, "a,x\n1,2\n")
        with pytest.raises(ColumnError, match="'y'"):
            load_csv(path, response="y", regressors=["x"])

    def test_byte_order_mark_skipped(self, tmp_path):
        # Spreadsheet programs save "CSV UTF-8" with a BOM before the header.
        path = write_tmp(tmp_path, "\ufeffy,x\n1,5\n2,7\n")
        ds = load_csv(path, response="y", regressors=["x"])
        assert ds.response.tolist() == [1.0, 2.0]
        assert ds.regressors[:, 0].tolist() == [5.0, 7.0]

    @pytest.mark.parametrize("header, name", [("y,x,x", "x"), ("y,x,y", "y")])
    def test_requested_column_twice_in_header(self, tmp_path, header, name):
        path = write_tmp(tmp_path, header + "\n1,2,3\n")
        with pytest.raises(ColumnError, match=f"column '{name}' occurs more than once"):
            load_csv(path, response="y", regressors=["x"])

    def test_column_twice_in_header_unrequested_is_fine(self, tmp_path):
        path = write_tmp(tmp_path, "y,z,x,z\n1,2,3,4\n")
        ds = load_csv(path, response="y", regressors=["x"])
        assert ds.regressors.tolist() == [[3.0]]

    def test_response_among_regressors_rejected_before_reading(self, tmp_path):
        message = "column 'y' is both the response and a regressor"
        with pytest.raises(ColumnError, match=message):
            load_csv(tmp_path / "absent.csv", response="y", regressors=["y", "x"])
        path = write_tmp(tmp_path, "y,x\n1,5\n2,7\n3,8\n")
        with pytest.raises(ColumnError, match=message):
            load_csv(path, response="y", regressors=["x", "y"])

    def test_missing_regressor_column(self, tmp_path):
        path = write_tmp(tmp_path, "y,x\n1,2\n")
        with pytest.raises(ColumnError, match="'z'"):
            load_csv(path, response="y", regressors=["x", "z"])

    def test_bad_cell_cites_row_and_column(self, tmp_path):
        path = write_tmp(tmp_path, "y,x\n1,5\nabc,7\n")
        with pytest.raises(ParseError, match="row 2") as exc_info:
            load_csv(path, response="y", regressors=["x"])
        assert exc_info.value.row == 2
        assert exc_info.value.column == "y"

    def test_empty_file(self, tmp_path):
        path = write_tmp(tmp_path, "")
        with pytest.raises(EmptyInputError):
            load_csv(path, response="y", regressors=[])

    def test_header_only(self, tmp_path):
        path = write_tmp(tmp_path, "y,x\n")
        with pytest.raises(EmptyInputError):
            load_csv(path, response="y", regressors=["x"])

    def test_missing_values_rejected(self, tmp_path):
        path = write_tmp(tmp_path, "y,x\n1,\n")
        with pytest.raises(ParseError):
            load_csv(path, response="y", regressors=["x"])

    def test_nan_rejected(self, tmp_path):
        path = write_tmp(tmp_path, "y,x\n1,nan\n")
        with pytest.raises(ParseError):
            load_csv(path, response="y", regressors=["x"])

    def test_blank_data_row_skipped_and_rows_counted_past_it(self, tmp_path):
        # A blank line holds no observation but keeps its row number, so
        # a later bad cell is cited by its data row in the file.
        path = write_tmp(tmp_path, "y,x\n1,5\n\n , \n2,7\n")
        ds = load_csv(path, response="y", regressors=["x"])
        assert ds.response.tolist() == [1.0, 2.0]
        assert ds.regressors[:, 0].tolist() == [5.0, 7.0]

        path = write_tmp(tmp_path, "y,x\n1,5\n\n2,oops\n")
        with pytest.raises(ParseError) as exc_info:
            load_csv(path, response="y", regressors=["x"])
        assert str(exc_info.value) == "cannot parse cell 'oops' at row 3, column 'x'"
        assert (exc_info.value.row, exc_info.value.column) == (3, "x")

    def test_quoted_cells_ok(self, tmp_path):
        path = write_tmp(tmp_path, 'y,"x"\n"1.5",2\n')
        ds = load_csv(path, response="y", regressors=["x"])
        assert ds.response[0] == 1.5

    def test_round_trip_bit_identical(self, tmp_path):
        values = "y,x\n0.1,5\n-2.25,1e-3\n3.141592653589793,7\n"
        path = write_tmp(tmp_path, values)
        ds = load_csv(path, response="y", regressors=["x"])
        out = tmp_path / "round.csv"
        write_csv(ds, out)
        ds2 = load_csv(out, response="y", regressors=["x"])
        assert np.array_equal(ds.response, ds2.response)
        assert np.array_equal(ds.regressors, ds2.regressors)
        # and a second serialization is byte-identical
        assert dataset_to_csv_text(ds) == dataset_to_csv_text(ds2)


class TestLoadCsvNumpyReader:
    """numpy's reader parses every value; the row reader only names what rejects a file."""

    @pytest.fixture
    def loadtxt_calls(self, monkeypatch):
        calls, loadtxt = [], np.loadtxt

        def spy(*args, **kwargs):
            calls.append(None)  # a failed call stays None
            calls[-1] = loadtxt(*args, **kwargs)
            return calls[-1]

        monkeypatch.setattr(np, "loadtxt", spy)
        return calls

    @pytest.mark.parametrize("cell", ["1_0", "\u0661"], ids=["underscore", "arabic-indic digit"])
    def test_cells_only_float_reads_are_rejected(self, tmp_path, cell):
        # float() reads these as 10.0 and 1.0; numpy's reader does not.
        path = write_tmp(tmp_path, f"y,x\n1,5\n\n2,{cell}\n3,oops\n")
        with pytest.raises(ParseError) as exc_info:
            load_csv(path, response="y", regressors=["x"])
        assert str(exc_info.value) == f"cannot parse cell {cell!r} at row 3, column 'x'"
        assert (exc_info.value.row, exc_info.value.column) == (3, "x")

    def test_clean_file_is_read_once_without_the_row_reader(self, tmp_path, monkeypatch, loadtxt_calls):
        monkeypatch.setattr(core, "_data_lines", None)  # calling it would raise
        path = write_tmp(tmp_path, 'w,x,y\r\nq," 5",1\r\n,7 ,"2"\r\n')
        ds = load_csv(path, response="y", regressors=["x"])
        assert len(loadtxt_calls) == 1
        assert ds.design.tolist() == [[1.0, 5.0], [1.0, 7.0]]
        assert ds.response.tolist() == [1.0, 2.0]

    def test_blank_rows_of_every_form_are_skipped(self, tmp_path, loadtxt_calls):
        # Empty lines are numpy's to skip; rows of blank cells, one of them
        # over two lines, stop it, and it reads the file again without them.
        blank = ' , \n,\n"",""\n"\n",\n\t\n\r\n'
        path = write_tmp(tmp_path, "y,x\n1,5\n\n" + blank + "2,7\n" + blank + '"3\n",9\n')
        ds = load_csv(path, response="y", regressors=["x"])
        assert ds.response.tolist() == [1.0, 2.0, 3.0]
        assert ds.regressors[:, 0].tolist() == [5.0, 7.0, 9.0]
        assert loadtxt_calls[0] is None
        assert len(loadtxt_calls) == 2 and np.array_equal(loadtxt_calls[1][:, 1], ds.regressors[:, 0])

        path = write_tmp(tmp_path, "y,x\n1,5\n\n" + blank + "2,7\n" + blank + "3,1e400\n")
        with pytest.raises(ParseError) as exc_info:
            load_csv(path, response="y", regressors=["x"])
        assert str(exc_info.value) == "non-finite value '1e400' at row 16, column 'x'"

    @pytest.mark.parametrize("text", ["y,x\n", "y,x\n\n\r\n", "y,x\n , \n"], ids=["header", "empty", "blank"])
    def test_no_rows_is_an_empty_input_error_not_a_warning(self, tmp_path, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyInputError, match="^no data rows after the header$"):
                load_csv(write_tmp(tmp_path, text), response="y", regressors=["x"])


class TestLoadCsvUnreadableInput:
    """Bytes that are not UTF-8 and cells over the csv module's field size limit are typed errors."""

    def load(self, tmp_path, data: bytes, regressors=("x",)):
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        return load_csv(path, response="y", regressors=list(regressors))

    def test_byte_not_utf8_in_a_read_cell_names_its_row(self, tmp_path):
        with pytest.raises(ParseError) as exc_info:
            self.load(tmp_path, b"y,x\n1,2\n3,\xe9\n")
        assert str(exc_info.value) == "cannot parse cell '\\udce9' at row 2, column 'x'"
        assert (exc_info.value.row, exc_info.value.column) == (2, "x")

    @pytest.mark.parametrize("blank", [b"", b",,\n"], ids=["numpy-reader", "row-reader"])
    def test_byte_not_utf8_in_an_unread_column_is_never_parsed(self, tmp_path, blank):
        ds = self.load(tmp_path, b"y,x,note\n1,2,caf\xe9\n" + blank + b"3,4,\n")
        assert ds.design.tolist() == [[1.0, 2.0], [1.0, 4.0]]

    def test_byte_not_utf8_in_a_wanted_header_name(self, tmp_path):
        with pytest.raises(ColumnError, match=r"^column 'x' not found in header \['y', 'x\\udce9'\]$"):
            self.load(tmp_path, b"y,x\xe9\n1,2\n")

    def test_header_cell_over_the_field_limit(self, tmp_path):
        limit = csv.field_size_limit()
        with pytest.raises(ParseError) as exc_info:
            self.load(tmp_path, b"y,x," + b"a" * (limit + 1) + b"\n1,2,3\n")
        assert str(exc_info.value) == f"header row: field larger than field limit ({limit})"
        assert csv.field_size_limit() == limit

    @pytest.mark.parametrize("rows, row", [
        # A blank row sends the read to the row reader, which meets the long cell first.
        (b"1,2,{long}\n,,\n3,4,5\n", 1),
        # The long cell is a number past the float range: numpy reads it as inf.
        (b"1,2,3\n\n3,1{zeros},5\n", 3),
    ], ids=["unread-column", "read-column"])
    def test_data_cell_over_the_field_limit_names_its_row(self, tmp_path, rows, row):
        limit = csv.field_size_limit()
        data = rows.replace(b"{long}", b"a" * (limit + 1)).replace(b"{zeros}", b"0" * limit)
        with pytest.raises(ParseError) as exc_info:
            self.load(tmp_path, b"y,x,z\n" + data)
        assert str(exc_info.value) == f"field larger than field limit ({limit}) at row {row}"
        assert exc_info.value.row == row
        assert csv.field_size_limit() == limit


class TestDatasetValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError, match="unique"):
            Dataset([1.0], [[1.0, 2.0]], names=("x", "x"))

    def test_empty_name_rejected(self):
        with pytest.raises(DataError, match="nonempty"):
            Dataset([1.0], [[1.0]], names=("",))

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError, match="finite"):
            Dataset([np.inf], [[1.0]], names=("x",))

    def test_no_observations(self):
        with pytest.raises(EmptyInputError, match="at least one observation"):
            Dataset([], np.empty((0, 1)), names=("x",))

    def test_regressor_rows_must_match_response(self):
        with pytest.raises(DataError) as exc_info:
            Dataset([1.0, 2.0, 3.0], [[1.0], [2.0]], names=("x",))
        assert str(exc_info.value) == "regressor rows (2) do not match response length (3)"

    def test_name_count_must_match_columns(self):
        with pytest.raises(DataError) as exc_info:
            Dataset([1.0, 2.0], [[1.0, 3.0], [2.0, 4.0]], names=("x",))
        assert str(exc_info.value) == "1 regressor names for 2 regressor columns"

    @pytest.mark.parametrize(
        "response, regressors",
        [
            ([[1.0], [2.0], [4.0]], [[1.0], [2.0], [3.0]]),
            ([1.0], 5.0),
            ([1.0, 2.0], [[[1.0]], [[2.0]]]),
            (["1", "2"], [1.0, 2.0]),
        ],
        ids=["2-D response", "0-D regressors", "3-D regressors", "string response"],
    )
    def test_shape_and_dtype_checked_first(self, response, regressors):
        with pytest.raises(DataError, match="^need a numeric 1-D response and numeric 1-D or 2-D regressors"):
            Dataset(response, regressors, names=("x",))

    def test_immutable(self):
        ds = Dataset([1.0], [[2.0]], names=("x",))
        with pytest.raises(ValueError):
            ds.response[0] = 5.0


class TestBuildDesign:
    def test_single_regressor(self):
        ds = Dataset([1.0, 2.0], [[5.0], [7.0]], names=("x",))
        assert ds.design.tolist() == [[1.0, 5.0], [1.0, 7.0]]
        assert ds.column_labels == ("(Intercept)", "x")

    def test_intercept_only(self):
        ds = Dataset([1.0, 2.0, 3.0], np.empty((3, 0)), names=())
        assert ds.design.tolist() == [[1.0], [1.0], [1.0]]
        assert ds.regressors.shape == (3, 0)

    @pytest.mark.parametrize("empty", [[], np.empty((3, 0))], ids=["list", "array"])
    def test_intercept_only_from_either_empty_form(self, empty):
        ds = Dataset([1.0, 2.0, 3.0], empty, ())
        assert ds.design.tolist() == [[1.0], [1.0], [1.0]]
        assert ds.regressors.shape == (3, 0)

    def test_one_dimensional_regressor_is_one_column(self):
        ds = Dataset([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], names=("x",))
        assert ds.regressors.shape == (3, 1)
        assert ds.design.tolist() == [[1.0, 4.0], [1.0, 5.0], [1.0, 6.0]]

    def test_single_row_two_regressors(self):
        ds = Dataset([9.0], [[2.0, 3.0]], names=("a", "b"))
        assert ds.design.tolist() == [[1.0, 2.0, 3.0]]

    def test_column_removal_recovers_regressors(self):
        rng = np.random.default_rng(5)
        reg = rng.standard_normal((20, 3))
        ds = Dataset(rng.standard_normal(20), reg, names=("a", "b", "c"))
        assert np.array_equal(ds.design[:, 1:], reg)
        assert np.array_equal(ds.regressors, reg)

    def test_intercept_column_is_all_ones(self):
        rng = np.random.default_rng(8)
        for p in (0, 1, 4):
            ds = Dataset(rng.standard_normal(7), rng.standard_normal((7, p)), tuple("abcd"[:p]))
            assert ds.design.shape == (7, p + 1)
            assert np.all(ds.design[:, 0] == 1.0)
            assert ds.column_labels == ("(Intercept)", *ds.names)

    def test_regressors_are_a_view_of_the_design(self):
        reg = np.array([[5.0, 6.0], [7.0, 8.0]])
        ds = Dataset([1.0, 2.0], reg, names=("a", "b"))
        assert np.shares_memory(ds.regressors, ds.design)
        assert not np.shares_memory(ds.design, reg)
        reg[0, 0] = 99.0  # the caller's array was copied
        assert ds.regressors[0, 0] == 5.0

    def test_design_and_regressors_read_only(self):
        ds = Dataset([1.0, 2.0], [[5.0], [7.0]], names=("x",))
        for array in (ds.design, ds.regressors, ds.response):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, ...] = 0.0


def gram_rank(x):
    """``(rank, ascending eigenvalues)`` of the second moment of the design ``x``."""
    return numerical_rank(x.T @ x)


class TestCheckRank:
    """The rank of a design's second moment, under the one rank policy."""

    def test_duplicated_column_not_full_rank(self):
        x = np.array([[1.0, 2.0, 2.0], [1.0, 3.0, 3.0], [1.0, 5.0, 5.0]])
        rank, _ = gram_rank(x)
        assert rank == 2

    def test_generic_design_full_rank(self):
        rng = np.random.default_rng(11)
        ds = Dataset(rng.standard_normal(30), rng.standard_normal((30, 2)), ("a", "b"))
        rank, eigs = gram_rank(ds.design)
        assert rank == 3
        assert eigs[0] > 0

    def test_one_row_rank_deficient(self):
        # Oracle: eigendecomposition of the 1-row second-moment matrix.
        x = np.array([[1.0, 4.0]])
        second = x.T @ x / 1
        eigs = np.linalg.eigvalsh(second)
        assert eigs[0] == pytest.approx(0.0, abs=1e-12)
        rank, _ = gram_rank(x)
        assert rank == 1

    def test_invariant_under_row_permutation(self):
        rng = np.random.default_rng(3)
        x = np.column_stack([np.ones(40), rng.standard_normal((40, 2))])
        perm = rng.permutation(40)
        assert gram_rank(x)[0] == gram_rank(x[perm])[0] == 3

    def test_near_duplicate_column_flagged(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal(25)
        x = np.column_stack([np.ones(25), a, a + 1e-13 * rng.standard_normal(25)])
        rank, eigs = gram_rank(x)
        assert rank < 3
        assert eigs[0] <= 1e-10 * eigs[-1]


def solve_one(a, b):
    """The solve of ``a`` alone, a stack of one, whose bits each selected row must have."""
    z, errors = spd_solve_stack(a[None], None if b is None else b[None], np.ones(1, dtype=bool), "m")
    assert errors == [None]
    return z[0]


class TestSpdSolveStack:
    @staticmethod
    def mixed_stack():
        """SPD, indefinite and singular matrices, with some rows left unselected."""
        rng = np.random.default_rng(17)
        k = 3
        a = []
        for kind in ("spd", "indefinite", "spd", "singular", "indefinite", "spd", "singular"):
            m = rng.standard_normal((k, k))
            if kind == "spd":
                a.append(m @ m.T + 0.1 * np.eye(k))
            elif kind == "indefinite":
                a.append(m + m.T - 3.0 * np.eye(k))
            else:
                v = rng.standard_normal(k)
                a.append(np.outer(v, v))
        spd = np.array([True, False, True, False, False, True, False])
        rows = np.array([True, True, False, True, False, True, True])
        return np.array(a), rng.standard_normal((len(a), k)), rows, spd

    @pytest.mark.parametrize("with_rhs", [True, False])
    def test_selected_non_spd_rows_get_typed_errors(self, with_rhs):
        a, b, rows, spd = self.mixed_stack()
        z, errors = spd_solve_stack(a, b if with_rhs else None, rows, "test matrix")
        assert len(errors) == len(rows)
        for r in range(len(rows)):
            if rows[r] and not spd[r]:
                error = errors[r]
                assert isinstance(error, SingularSystemError)
                assert "test matrix" in str(error)
                assert error.min_eigenvalue == numerical_rank(a[r])[1][0]
            else:
                assert errors[r] is None
            if rows[r] and spd[r]:
                want = solve_one(a[r], b[r] if with_rhs else None)
                assert np.array_equal(z[r], want)

    def test_single_solve_of_non_spd_matrix_names_what(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        _, errors = spd_solve_stack(a[None], np.ones((1, 2)), np.ones(1, dtype=bool), "Newton system")
        assert isinstance(errors[0], SingularSystemError)
        assert str(errors[0]).startswith("Newton system is not positive definite")

    def test_a_failed_row_past_the_float_range_is_a_domain_error(self):
        # [[1, inf], [inf, 1]] fails the Cholesky test, and its eigenvalues
        # would be a numpy error; the SPD row beside it keeps its bits.
        a = np.array([[[1.0, np.inf], [np.inf, 1.0]], [[2.0, 1.0], [1.0, 2.0]]])
        b = np.ones((2, 2))
        z, errors = spd_solve_stack(a, b, np.ones(2, dtype=bool), "Newton system")
        assert type(errors[0]) is DomainError
        assert str(errors[0]) == "Newton system passes the float range"
        assert errors[1] is None
        assert np.array_equal(z[1], solve_one(a[1], b[1]))

    def test_all_spd_selection_has_no_errors(self):
        a, b, rows, spd = self.mixed_stack()
        z, errors = spd_solve_stack(a, b, spd, "test matrix")
        assert errors == [None] * len(rows)
        for r in np.flatnonzero(spd):
            assert np.array_equal(z[r], solve_one(a[r], b[r]))
