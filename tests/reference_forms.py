"""Straightforward forms of three library paths, kept as oracles for the tests.

:func:`dense_pairwise_slope` sums over all n^2 ordered pairs from dense
n x n difference arrays, where :func:`leanreg.slopes.pairwise_slope_simple`
uses closed forms in the centred data.  :func:`csv_writer_text` writes
through the standard library's ``csv.writer``, where
:func:`leanreg.core.csv_text` joins formatted cells itself.
:func:`row_reader_load_csv` reads a data file row by row with
``csv.reader`` and ``float()``, where :func:`leanreg.core.load_csv`
parses the cells with numpy's reader.
"""

import csv
import io
import math

import numpy as np

from leanreg.core import Dataset
from leanreg.exceptions import ColumnError, EmptyInputError, ParseError
from leanreg.slopes import PairwiseSlopeSummary


def dense_pairwise_slope(x, y) -> PairwiseSlopeSummary:
    """sum_{i,j} (x_i - x_j)(y_i - y_j) / sum_{i,j} (x_i - x_j)^2 over dense pair arrays.

    Pairs with x_i != x_j are counted.  No input is checked: a sum that
    overflows is infinite, and a zero total weight gives a NaN slope.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        dx = x[:, None] - x[None, :]
        dy = y[:, None] - y[None, :]
        total = float(np.sum(dx * dx))
        cross = float(np.sum(dx * dy))
        beta = float(np.float64(cross) / total)
    return PairwiseSlopeSummary(beta=beta, total_weight=total, pair_count=int(np.count_nonzero(dx)))


def _write_quoting_cr(buf: io.StringIO, rows) -> None:
    # csv quotes a cell for the characters of the line terminator only,
    # so a "\n" writer leaves a lone "\r" bare.  A "\r\n" writer quotes
    # both; its terminator is swapped for "\n".
    row_buf = io.StringIO()
    writer = csv.writer(row_buf, lineterminator="\r\n")
    for row in rows:
        row_buf.seek(0)
        row_buf.truncate()
        writer.writerow(row)
        buf.write(row_buf.getvalue()[:-2] + "\n")


def csv_writer_text(header, columns, block_rows: int) -> str:
    """``csv_text``'s format written by ``csv.writer``, ``block_rows`` rows at a time."""
    buf = io.StringIO()
    _write_quoting_cr(buf, [header])
    writer = csv.writer(buf, lineterminator="\n")
    arrays = [np.asarray(c) for c in columns]
    text = [a.dtype.kind == "U" for a in arrays]
    columns = [np.asarray(c, dtype=object) if t else a for c, a, t in zip(columns, arrays, text)]
    n = len(columns[0]) if columns else 0
    for start in range(0, n, block_rows):
        block = [c[start : start + block_rows].tolist() for c in columns]
        if any("\r" in str(v) for cells, t in zip(block, text) if t for v in cells):
            _write_quoting_cr(buf, zip(*block))
        else:
            writer.writerows(zip(*block))
    return buf.getvalue()


def row_reader_load_csv(path, response, regressors) -> Dataset:
    """:func:`leanreg.core.load_csv` as a Python list of ``float()`` cells per row.

    The same header, blank-row, numbering and error rules, except that
    ``float()`` also reads underscores between digits and non-ASCII
    digits, which numpy's reader rejects.
    """
    if response in regressors:
        raise ColumnError(f"column {response!r} is both the response and a regressor")
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
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
