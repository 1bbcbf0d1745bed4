"""Straightforward forms of two library paths, kept as oracles for the tests.

:func:`dense_pairwise_slope` sums over all n^2 ordered pairs from dense
n x n difference arrays, where :func:`leanreg.slopes.pairwise_slope_simple`
uses closed forms in the centred data.  :func:`csv_writer_text` writes
through the standard library's ``csv.writer``, where
:func:`leanreg.core.csv_text` joins formatted cells itself.
"""

import csv
import io

import numpy as np

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
