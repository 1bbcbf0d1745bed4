"""Data model, CSV text, and the one rank and SPD-solve policy.

A :class:`Dataset` is one sample: observed ``(y_i, x_i)`` tuples with
explicit regressor/response designation, and the design that every fit,
covariance, bootstrap and band reads, whose column 0 is the all-ones
intercept.  :func:`numerical_rank` is the package's one
rank rule and :func:`spd_solve`/:func:`spd_solve_stack` its one
Cholesky solve, whose failure is a :class:`SingularSystemError` naming
the matrix.  All types are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    ColumnError,
    DataError,
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
    "write_csv",
    "numerical_rank",
    "spd_solve",
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
        response = np.array(np.atleast_1d(self.response), dtype=float)
        response.flags.writeable = False
        reg = np.asarray(self.regressors, dtype=float)
        if reg.ndim == 1:
            reg = reg.reshape(-1, 1) if reg.size else reg.reshape(0, 0)
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

    The file must have a header row; cells in the named columns must be
    numeric ('.' decimal point, optional quoting).  Rows are kept in
    file order.  A UTF-8 byte-order mark before the header is skipped.

    Raises
    ------
    ColumnError
        The response is also named as a regressor (checked before the
        file is opened), or a named column is absent from the header or
        occurs in it more than once.
    ParseError
        A cell is non-numeric; the error cites the 1-based data row and
        the column name.
    EmptyInputError
        The file has no header or no data rows.
    """
    if response in regressors:
        raise ColumnError(f"column {response!r} is both the response and a regressor")
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        return _read_csv(fh, response, regressors)


def _read_csv(fh, response, regressors) -> Dataset:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyInputError("empty file: no header row") from None
    header = [h.strip() for h in header]
    wanted = [response] + list(regressors)
    for name in wanted:
        if name not in header:
            raise ColumnError(f"column {name!r} not found in header {header}")
        if header.count(name) > 1:
            raise ColumnError(f"column {name!r} occurs more than once in header {header}")
    cols = [header.index(name) for name in wanted]

    rows: list[list[float]] = []
    for rownum, row in enumerate(reader, start=1):
        if not row or all(not c.strip() for c in row):
            continue
        values = []
        for name, col in zip(wanted, cols):
            cell = row[col].strip() if col < len(row) else ""
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"cannot parse cell {cell!r} at row {rownum}, column {name!r}",
                    row=rownum,
                    column=name,
                ) from None
            if not math.isfinite(value):
                raise ParseError(
                    f"non-finite value {cell!r} at row {rownum}, column {name!r}",
                    row=rownum,
                    column=name,
                )
            values.append(value)
        rows.append(values)

    if not rows:
        raise EmptyInputError("no data rows after the header")
    table = np.array(rows, dtype=float)
    return Dataset(
        response=table[:, 0],
        regressors=table[:, 1:],
        names=tuple(regressors),
        response_name=response,
    )


# Rows converted to builtin objects at a time by csv_text; bounds the
# number of Python objects alive at once, whatever the table's length.
CSV_BLOCK_ROWS = 4096


def _write_quoting_cr(buf: io.StringIO, rows) -> None:
    """Write ``rows`` to ``buf`` one by one as :func:`csv_text` does, quoting cells with a carriage return."""
    # csv quotes a cell for the characters of the line terminator only,
    # so a "\n" writer leaves a lone "\r" bare and the text reads back
    # as two rows.  A "\r\n" writer quotes both; its terminator is
    # swapped for the "\n" every line ends in.
    row_buf = io.StringIO()
    writer = csv.writer(row_buf, lineterminator="\r\n")
    for row in rows:
        row_buf.seek(0)
        row_buf.truncate()
        writer.writerow(row)
        buf.write(row_buf.getvalue()[:-2] + "\n")


def csv_text(header, columns) -> str:
    """The one CSV format leanreg writes: a header row, then one row per index.

    ``columns`` holds one sequence per header cell.  Lines end in a
    bare line feed.  A float cell is the shortest string that
    round-trips (``repr``), so reading the text back reproduces every
    double bit-identically; ints and strings are written as they are,
    quoted where they hold a delimiter, quote, line feed or carriage
    return.
    """
    buf = io.StringIO()
    _write_quoting_cr(buf, [header])
    writer = csv.writer(buf, lineterminator="\n")
    arrays = [np.asarray(c) for c in columns]
    text = [a.dtype.kind == "U" for a in arrays]
    # numpy's fixed-width strings drop trailing NULs, so strings stay
    # the Python objects they came in as.
    columns = [np.asarray(c, dtype=object) if t else a for c, a, t in zip(columns, arrays, text)]
    n = len(columns[0]) if columns else 0
    for start in range(0, n, CSV_BLOCK_ROWS):
        block = [c[start : start + CSV_BLOCK_ROWS].tolist() for c in columns]
        if any("\r" in str(v) for cells, t in zip(block, text) if t for v in cells):
            _write_quoting_cr(buf, zip(*block))
        else:
            writer.writerows(zip(*block))
    return buf.getvalue()


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
    vector = b is not None and b.ndim == lower.ndim - 1
    rhs = np.eye(lower.shape[-1]) if b is None else (b[..., None] if vector else b)
    y = np.linalg.solve(lower[..., ::-1, ::-1], rhs[..., ::-1, :])[..., ::-1, :]
    if b is None:
        return np.swapaxes(y, -1, -2) @ y  # L^-T L^-1
    z = np.linalg.solve(np.swapaxes(lower, -1, -2), y)
    return z[..., 0] if vector else z


def spd_solve(a: np.ndarray, b: np.ndarray | None = None, what: str = "normal-equation matrix"):
    """Cholesky solve ``a z = b`` for one symmetric positive-definite ``a``.

    ``b`` is a vector or a matrix; when it is None, ``a^-1`` is returned.
    Raises :class:`SingularSystemError`, naming ``what``, when ``a`` is
    not positive definite.  This is :func:`spd_solve_stack` with a stack
    of one.
    """
    rhs = None if b is None else b[None]
    z, errors = spd_solve_stack(a[None], rhs, np.ones(1, dtype=bool), what)
    if errors[0] is not None:
        raise errors[0]
    return z[0]


def spd_solve_stack(a: np.ndarray, b: np.ndarray | None, rows: np.ndarray, what: str):
    """:func:`spd_solve` for the rows of a stack ``a`` (m, k, k), ``b`` (m, k) selected by ``rows``.

    When ``b`` is None, each ``a[r]^-1`` is returned.  Returns ``(z,
    errors)``: ``errors[r]`` is the error :func:`spd_solve` raises for
    ``a[r]``, naming ``what``, when row r is selected and ``a[r]`` fails
    LAPACK's Cholesky test, applied matrix by matrix so that no row's
    verdict depends on another's; otherwise it is None.  Row r of ``z``
    has the bits :func:`spd_solve` gives for ``a[r]`` alone when row r is
    selected and has no error; other rows are meaningless.
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
