"""Ingestion, design construction, the rank policy and the SPD solve."""

import numpy as np
import pytest

from leanreg.core import (
    Dataset,
    dataset_to_csv_text,
    load_csv,
    numerical_rank,
    spd_solve,
    spd_solve_stack,
    write_csv,
)
from leanreg.exceptions import (
    ColumnError,
    DataError,
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
                want = spd_solve(a[r], b[r] if with_rhs else None, what="test matrix")
                assert np.array_equal(z[r], want)

    def test_all_spd_selection_has_no_errors(self):
        a, b, rows, spd = self.mixed_stack()
        z, errors = spd_solve_stack(a, b, spd, "test matrix")
        assert errors == [None] * len(rows)
        for r in np.flatnonzero(spd):
            assert np.array_equal(z[r], spd_solve(a[r], b[r]))
