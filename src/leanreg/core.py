"""Data model, CSV text, the argument-domain checks, and the one rank and SPD-solve policy.

A :class:`Dataset` is one sample: observed ``(y_i, x_i)`` tuples with
explicit regressor/response designation, and the design that every fit,
covariance, bootstrap and band reads, whose column 0 is the all-ones
intercept.  :func:`check_integer`, :func:`check_level`,
:func:`check_real` and :func:`check_index` hold the domain of every
count, seed, level, real-valued scalar and coefficient index argument;
:func:`finite_array` that of every array argument (its type, shape and
finiteness), so only core raises :class:`DimensionError`;
:func:`in_float_range` makes a result past the float range an error.
:func:`numerical_rank` is the package's one rank rule and
:func:`spd_solve_stack` its one Cholesky solve, whose failure is a
:class:`SingularSystemError` naming the matrix.  All types are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import functools
import math
import numbers
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    CoefficientIndexError,
    ColumnError,
    DataError,
    DimensionError,
    DomainError,
    EmptyInputError,
    ParseError,
    SingularSystemError,
)

__all__ = [
    "Dataset",
    "INTERCEPT_LABEL",
    "RANK_RTOL",
    "load_csv",
    "csv_text",
    "csv_text_from_cells",
    "write_csv",
    "check_integer",
    "check_level",
    "check_real",
    "check_index",
    "finite_array",
    "in_float_range",
    "float_range_error",
    "numerical_rank",
    "spd_solve_stack",
]

INTERCEPT_LABEL = "(Intercept)"

# Relative rank tolerance of numerical_rank, applied to the eigenvalues
# of the column-equilibrated second moment, so it is scale-free.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class Dataset:
    """Observed response/regressor tuples and their design.

    Attributes
    ----------
    response : (n,) float array
    regressors : (n, p) float array; p may be 0.  A view of
        ``design[:, 1:]``.
    names : tuple of p regressor labels, unique and nonempty
    response_name : label of the response column
    design : (n, p+1) float array, the all-ones intercept in column 0;
        built here, once
    column_labels : the design's labels, intercept first

    The arrays are read-only.
    """

    response: np.ndarray
    regressors: np.ndarray
    names: tuple[str, ...]
    response_name: str = "y"
    design: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        response, reg = np.asarray(self.response), np.asarray(self.regressors)
        numeric = response.dtype.kind in "biuf" and reg.dtype.kind in "biuf"
        if not numeric or response.ndim != 1 or reg.ndim not in (1, 2):
            raise DataError(
                "need a numeric 1-D response and numeric 1-D or 2-D regressors, not "
                f"{response.ndim}-D {response.dtype} and {reg.ndim}-D {reg.dtype}"
            )
        response, reg = response.astype(float), reg.astype(float, copy=False)
        response.flags.writeable = False
        if reg.ndim == 1:
            reg = reg.reshape(-1, 1) if reg.size else reg.reshape(response.shape[0], 0)
        object.__setattr__(self, "response", response)
        object.__setattr__(self, "names", tuple(str(s) for s in self.names))
        n = response.shape[0]
        if n < 1:
            raise EmptyInputError("dataset must contain at least one observation")
        if reg.shape[0] != n:
            raise DataError(
                f"regressor rows ({reg.shape[0]}) do not match "
                f"response length ({n})"
            )
        if reg.shape[1] != len(self.names):
            raise DataError(
                f"{len(self.names)} regressor names for "
                f"{reg.shape[1]} regressor columns"
            )
        if len(set(self.names)) != len(self.names):
            raise DataError("regressor names must be unique")
        if any(not s for s in self.names) or not self.response_name:
            raise DataError("column names must be nonempty")
        design = np.empty((n, reg.shape[1] + 1))
        design[:, 0] = 1.0
        design[:, 1:] = reg
        design.flags.writeable = False
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "regressors", design[:, 1:])
        if not np.all(np.isfinite(response)) or not np.all(np.isfinite(design)):
            raise DataError("dataset values must be finite (no NaN/Inf)")

    @property
    def n(self) -> int:
        return self.response.shape[0]

    @property
    def p(self) -> int:
        return self.regressors.shape[1]

    @property
    def column_labels(self) -> tuple[str, ...]:
        return (INTERCEPT_LABEL, *self.names)


def load_csv(path, response: str, regressors: list[str]) -> Dataset:
    """Read a comma-separated file into a :class:`Dataset`.

    After a header row (a UTF-8 byte-order mark before it is skipped),
    numpy's reader parses the named columns' cells: '.' decimal point,
    ASCII digits, no ``1_0`` underscores, optional quoting.  Rows keep
    file order; a blank row (empty, or only blank cells) is skipped but
    keeps its row number.

    Raises
    ------
    ColumnError
        The response is also a regressor (checked before the file is
        opened), or a named column is absent from the header or in it twice.
    ParseError
        A missing, non-numeric or non-finite cell (a byte that is not UTF-8
        makes a cell non-numeric); cites its 1-based data row and column.  A
        cell over the csv module's field size limit cites its row or the header.
    EmptyInputError
        The file has no header or no data rows.
    """
    if response in regressors:
        raise ColumnError(f"column {response!r} is both the response and a regressor")
    wanted = [response, *regressors]
    with open(path, "r", newline="", encoding="utf-8-sig", errors="surrogateescape") as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)  # _data_lines raises EmptyInputError
        try:
            header = [h.strip() for h in next(csv.reader(fh))]
        except StopIteration:
            raise EmptyInputError("empty file: no header row") from None
        except csv.Error as exc:  # a cell over the csv module's field size limit
            raise ParseError(f"header row: {exc}") from None
        for name in wanted:
            if name not in header:
                raise ColumnError(f"column {name!r} not found in header {header}")
            if header.count(name) > 1:
                raise ColumnError(f"column {name!r} occurs more than once in header {header}")
        cols = [header.index(name) for name in wanted]
        read = functools.partial(np.loadtxt, delimiter=",", quotechar='"', comments=None, usecols=cols, ndmin=2)
        try:
            table = read(fh)
        except ValueError:
            table = None
        if table is None or not len(table) or not np.isfinite(table).all():
            table = read(_data_lines(fh, wanted, cols))
    return Dataset(table[:, 0], table[:, 1:], tuple(regressors), response)


def _data_lines(fh, wanted, cols):
    """load_csv's error path: the nonblank data lines, or the error of the first bad cell (rows from 1)."""
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)
    skip, lines, rownum = set(range(reader.line_num)), reader.line_num, 0
    try:
        for rownum, row in enumerate(reader, start=1):
            first, lines = lines, reader.line_num
            if not row or all(not c.strip() for c in row):
                skip.update(range(first, lines))
                continue
            for name, col in zip(wanted, cols):
                cell = row[col].strip() if col < len(row) else ""
                try:  # float() also reads underscores and non-ASCII digits; numpy does not
                    if "_" in cell or not cell.isascii():
                        raise ValueError(cell)
                    problem = None if math.isfinite(float(cell)) else "non-finite value"
                except ValueError:
                    problem = "cannot parse cell"
                if problem:
                    raise ParseError(f"{problem} {cell!r} at row {rownum}, column {name!r}", row=rownum, column=name)
    except csv.Error as exc:  # a cell over the csv module's field size limit
        raise ParseError(f"{exc} at row {rownum + 1}", row=rownum + 1) from None
    if len(skip) == lines:  # every line is the header's or a blank row's
        raise EmptyInputError("no data rows after the header")
    fh.seek(0)
    return (line for num, line in enumerate(fh) if num not in skip)


# Rows formatted at a time by csv_text (the pair table's blocks of whole
# rows reach about as many); bounds the number of Python objects alive
# at once, whatever the table's length.
CSV_BLOCK_ROWS = 4096

_NEEDS_QUOTES = re.compile('[,"\n\r]')


def _quote(cell) -> str:
    """A text cell, quoted and its quotes doubled if it holds a delimiter, quote, LF or CR."""
    cell = str(cell)
    return '"' + cell.replace('"', '""') + '"' if _NEEDS_QUOTES.search(cell) else cell


def _lines(rows, width: int) -> str:
    """Rows of ``width`` formatted cells as CSV lines, each ending in a line feed."""
    lines = list(map(",".join, rows))
    if width == 1:  # a lone empty cell is quoted, so that its row reads back
        lines = [line or '""' for line in lines]
    lines.append("")
    return "\n".join(lines)


def csv_text(header, columns) -> str:
    """The one CSV format leanreg writes: a header row, then one row per index.

    ``columns`` holds one sequence per header cell.  Lines end in a
    bare line feed.  A number is written as its ``repr``, for a float
    the shortest string that round-trips, so reading the text back
    reproduces every double bit-identically.  A string is written as it
    is unless it holds a delimiter, quote, line feed or carriage return;
    then it is quoted and each quote in it doubled.
    """
    text = [np.asarray(c).dtype.kind == "U" for c in columns]
    # numpy's fixed-width strings drop trailing NULs, so strings stay
    # the Python objects they came in as.
    columns = [np.asarray(c, dtype=object if t else None) for c, t in zip(columns, text)]
    n = len(columns[0]) if columns else 0
    return csv_text_from_cells(header, (
        [list(map(_quote if t else repr, c[start : start + CSV_BLOCK_ROWS].tolist()))
         for c, t in zip(columns, text)]
        for start in range(0, n, CSV_BLOCK_ROWS)
    ))


def csv_text_from_cells(header, blocks) -> str:
    """:func:`csv_text` of rows whose cells are already formatted, read block by block.

    Each block of ``blocks`` holds one list of cell strings per header
    cell, all equally long: numbers already as their ``repr`` (an index
    as its ``str``) and text already quoted.  Only one block's cells
    need to be alive at a time.
    """
    head = list(map(_quote, header))
    parts = [_lines([head], len(head))]
    parts.extend(_lines(zip(*cells), len(cells)) for cells in blocks)
    return "".join(parts)


def _dataset_cells(v: np.ndarray) -> np.ndarray:
    # Whole numbers below 1e15 are written as integers, as a data file
    # usually has them; every other value keeps its round-trip repr.
    cells = v.astype(object)
    whole = (v == np.trunc(v)) & (np.abs(v) < 1e15)
    cells[whole] = v[whole].astype(np.int64)
    return cells


def dataset_to_csv_text(ds: Dataset) -> str:
    """A :class:`Dataset` as CSV text, response first (round-trips bit-identically)."""
    return csv_text(
        [ds.response_name, *ds.names],
        [_dataset_cells(ds.response), *(_dataset_cells(c) for c in ds.regressors.T)],
    )


def write_csv(ds: Dataset, path) -> None:
    """Write a :class:`Dataset` to the CSV file at ``path``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(dataset_to_csv_text(ds))


def check_integer(value, name: str, least: int) -> None:
    """Raise :class:`DomainError` naming ``name`` unless ``value`` is an integer >= ``least``.

    A Python or numpy integer passes.  The one domain check of every
    sample size, replicate count, fold count, grid size, stream count and
    seed: a bool, a float or anything else would otherwise be truncated,
    counted as 1 or fail later with an untyped error.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be at least {least}, got {value}")


def check_level(value, name: str) -> None:
    """Raise :class:`DomainError` naming ``name`` unless ``value`` is a real number in (0, 1)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < 1:
        raise DomainError(f"{name} must be in (0, 1), got {value!r}")


def check_real(value, name: str) -> None:
    """Raise :class:`DomainError` naming ``name`` unless ``value`` is a finite real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise DomainError(f"{name} must be finite and real, got {value!r}")


def check_index(j, lo: int, hi: int, what: str) -> None:
    """Raise :class:`CoefficientIndexError` unless ``j`` is an integer in ``lo..hi``, inclusive."""
    if isinstance(j, bool) or not isinstance(j, (int, np.integer)):
        raise CoefficientIndexError(f"{what} index must be an integer, got {j!r}")
    if not lo <= j <= hi:
        raise CoefficientIndexError(f"{what} index {j} out of range {lo}..{hi}")


def finite_array(value, name: str, shape: tuple) -> np.ndarray:
    """``value`` as a float array of ``shape``, the one check of every array argument.

    Not numeric (text, None, ragged or complex) is a :class:`DataError`;
    another number of dimensions, or a length other than a non-None entry
    of ``shape``, a :class:`DimensionError`; a NaN or infinite entry a
    :class:`DomainError`.  Bools count as 0 and 1.
    """
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "biuf":
        raise DataError(f"{name} must be numeric, not {arr.dtype}")
    if arr.ndim != len(shape) or any(e not in (None, s) for s, e in zip(arr.shape, shape)):
        expected = str(tuple(shape)).replace("None", "any")
        raise DimensionError(f"{name} has shape {arr.shape}, expected {expected}")
    arr = arr.astype(float, copy=False)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite (no NaN or inf)")
    return arr


def float_range_error(what: str) -> DomainError:
    """The :class:`DomainError` of a result past the float range: ``<what> passes the float range``."""
    return DomainError(f"{what} passes the float range")


def in_float_range(what: str, compute):
    """``compute()``, run with no overflow or invalid-value warning, or :func:`float_range_error` of
    ``what`` if an entry of it (a number, an array or a tuple of them) is NaN or infinite."""
    with np.errstate(over="ignore", invalid="ignore"):
        result = compute()
    if not all(np.isfinite(part).all() for part in (result if isinstance(result, tuple) else (result,))):
        raise float_range_error(what)
    return result


def numerical_rank(gram: np.ndarray):
    """``(rank, ascending eigenvalues)`` of a Gram matrix or of each in a stack (m, k, k).

    The package's one rank policy: an eigenvalue of the column-equilibrated
    matrix ``D^-1/2 G D^-1/2``, ``D = diag(G)``, at or below ``RANK_RTOL``
    times the largest counts as zero.  Equilibration makes the verdict
    independent of column units and of positive multiples of ``G``; a zero
    column makes ``G`` rank deficient.
    """
    d = np.diagonal(gram, axis1=-2, axis2=-1)
    scale = 1.0 / np.sqrt(np.maximum(d, np.finfo(float).tiny))
    eigs = np.linalg.eigvalsh(gram * scale[..., :, None] * scale[..., None, :])
    return (eigs > RANK_RTOL * eigs[..., -1:]).sum(axis=-1), eigs


def _cholesky_solve(lower: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """``a^-1 b`` (``a^-1`` if ``b`` is None) from the Cholesky factor(s) of ``a``."""
    # Substitution with L, then with L'.  LAPACK's LU of a triangular
    # matrix with a positive diagonal never swaps rows and has exact
    # zero multipliers, so each solve is plain substitution, matrix by
    # matrix; reversing rows and columns makes L upper triangular.
    rhs = np.eye(lower.shape[-1]) if b is None else b[..., None]
    y = np.linalg.solve(lower[..., ::-1, ::-1], rhs[..., ::-1, :])[..., ::-1, :]
    if b is None:
        return np.swapaxes(y, -1, -2) @ y  # L^-T L^-1
    return np.linalg.solve(np.swapaxes(lower, -1, -2), y)[..., 0]


def spd_solve_stack(a: np.ndarray, b: np.ndarray | None, rows: np.ndarray, what: str):
    """Cholesky solve ``a[r] z = b[r]`` for the rows of a stack selected by ``rows``.

    ``a`` is (m, k, k) and ``b`` (m, k); when ``b`` is None, each
    ``a[r]^-1`` is returned.  Returns ``(z, errors)``: ``errors[r]`` is
    a :class:`SingularSystemError` naming ``what`` when row r is
    selected and ``a[r]`` fails LAPACK's Cholesky test, applied matrix
    by matrix so that no row's verdict depends on another's; otherwise
    it is None.  Row r of ``z`` has the bits a stack of ``a[r]`` alone
    gives when row r is selected and has no error; other rows are
    meaningless.
    """
    eye = np.eye(a.shape[-1])
    errors = [None] * len(rows)
    try:
        lower = np.linalg.cholesky(np.where(rows[:, None, None], a, eye))
    except np.linalg.LinAlgError:
        for r in np.flatnonzero(rows):
            try:
                np.linalg.cholesky(a[r])
            except np.linalg.LinAlgError:
                min_eig = float(numerical_rank(a[r])[1][0])
                errors[r] = SingularSystemError(
                    f"{what} is not positive definite: "
                    f"smallest equilibrated eigenvalue {min_eig:.3e}",
                    min_eigenvalue=min_eig,
                )
        solved = rows & np.array([e is None for e in errors])
        lower = np.linalg.cholesky(np.where(solved[:, None, None], a, eye))
    return _cholesky_solve(lower, b), errors
