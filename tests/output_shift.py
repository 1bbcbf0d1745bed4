"""Output shifts: how far each numeric output of the benchmark jobs moves between two trees.

Run from the repository root::

    python tests/output_shift.py OTHER_TREE [--size full|smoke] [--seed N] [WORKLOAD ...]

``OTHER_TREE`` is another checkout of this repository, such as the
parent commit's.  For each workload of ``bench/workloads.py`` (all
three by default), both trees run this tree's jobs on the same
generated inputs, each in a child process that imports ``leanreg``
from that tree's ``src``, as ``tests/output_digests.py`` runs them.
Then it prints one line per column of every output::

    workload job argv[0] item column shift

A CSV column is named by its header; a JSON leaf by its key path, with
``[]`` for a list, so a list's entries form one column.  ``shift`` is
the column's largest absolute change divided by its largest magnitude
in either tree (0 when every value is identical, ``inf`` when a value
turns non-finite).  A column that is not numeric throughout, and
``rc``, ``stdout`` and ``stderr``, read ``same`` or ``differs``; a
column present in one tree only, or of another length, reads
``shape``.  It needs only the standard library and numpy, and pytest
does not collect it (the name does not start with ``test_``).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "bench"))

from workloads import FULL, SMOKE, WORKLOADS  # noqa: E402

ITEMS = "items.json"


def emit(outdir: Path, workloads: list[str], seed: int, size: str) -> None:
    """Write every job's outputs under ``outdir/workload/k/``, with their names in ``ITEMS`` there."""
    from output_digests import job_outputs  # imports the leanreg on this process's path

    for workload in workloads:
        for k, job, items in job_outputs(workload, seed, FULL if size == "full" else SMOKE):
            jobdir = outdir / workload / str(k)
            jobdir.mkdir(parents=True)
            for i, (_, data) in enumerate(items):
                (jobdir / str(i)).write_bytes(data)
            names = [name for name, _ in items]
            (jobdir / ITEMS).write_text(json.dumps({"argv0": job.argv[0], "names": names}))


def run_tree(tree: Path, outdir: Path, args) -> None:
    """Run the jobs with ``tree``'s leanreg in a child process."""
    env = {**os.environ, "PYTHONPATH": str(Path(tree).resolve() / "src")}
    command = [sys.executable, __file__, "--emit", str(outdir), "--size", args.size, "--seed", str(args.seed),
               "--", str(tree), *args.workloads]
    subprocess.run(command, env=env, check=True)


def _leaves(value, path: str):
    """``(column, leaf)`` of a parsed JSON value; a list's entries share the list's column."""
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _leaves(child, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for child in value:
            yield from _leaves(child, f"{path}[]")
    else:
        yield path, value


def columns(name: str, data: bytes) -> dict | None:
    """The item's columns, ``{column: [cells]}``, or None for an item compared as a whole."""
    if name in ("rc", "stdout", "stderr"):
        return None
    text = data.decode("utf-8", errors="replace")
    if name.endswith(".json"):
        found: dict = {}
        for column, leaf in _leaves(json.loads(text), ""):
            found.setdefault(column, []).append(leaf)
        return found
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return {}
    return {label: [row[j] if j < len(row) else None for row in rows[1:]] for j, label in enumerate(rows[0])}


def _numbers(cells: list):
    """The cells as a float array, or None if any is not a number."""
    if any(isinstance(c, bool) or c is None for c in cells):
        return None
    try:
        return np.array([float(c) for c in cells])
    except (TypeError, ValueError):
        return None


def shift(mine: list, other: list) -> str:
    """The column's largest change relative to its largest magnitude, or ``same``/``differs``/``shape``."""
    if len(mine) != len(other):
        return "shape"
    a, b = _numbers(mine), _numbers(other)
    if a is None or b is None:
        return "same" if mine == other else "differs"
    equal = (a == b) | (np.isnan(a) & np.isnan(b))
    if equal.all():
        return "0"
    change = np.abs(a - b)[~equal]
    if not np.all(np.isfinite(change)):
        return "inf"
    magnitudes = np.abs(np.concatenate([a, b]))
    return f"{change.max() / magnitudes[np.isfinite(magnitudes)].max():.3g}"


def compare(workload: str, mine: Path, other: Path) -> list[str]:
    """One line per column of every item of the workload's jobs."""
    lines = []
    for jobdir in sorted((mine / workload).iterdir(), key=lambda p: int(p.name)):
        meta = json.loads((jobdir / ITEMS).read_text())
        other_dir = other / workload / jobdir.name
        other_names = json.loads((other_dir / ITEMS).read_text())["names"]
        for i, name in enumerate(meta["names"]):
            prefix = f"{workload} {jobdir.name} {meta['argv0']} {name}"
            if name not in other_names:
                lines.append(f"{prefix} - shape")
                continue
            data, other_data = (jobdir / str(i)).read_bytes(), (other_dir / str(other_names.index(name))).read_bytes()
            cols, other_cols = columns(name, data), columns(name, other_data)
            if cols is None:
                lines.append(f"{prefix} - {'same' if data == other_data else 'differs'}")
                continue
            for column in dict.fromkeys([*cols, *other_cols]):
                found = column in cols and column in other_cols
                lines.append(f"{prefix} {column or '-'} {shift(cols[column], other_cols[column]) if found else 'shape'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", metavar="OTHER_TREE", type=Path, help="another checkout of this repository")
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD", help=f"any of {', '.join(WORKLOADS)}")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--emit", type=Path, help=argparse.SUPPRESS)  # the child's output directory
    args = parser.parse_intermixed_args(argv)
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workload(s) {sorted(unknown)}; expected any of {', '.join(WORKLOADS)}")
    args.workloads = args.workloads or list(WORKLOADS)
    if args.emit is not None:
        emit(args.emit, args.workloads, args.seed, args.size)
        return 0
    if not (args.other / "src" / "leanreg").is_dir():
        parser.error(f"{args.other} has no src/leanreg")
    with tempfile.TemporaryDirectory() as tmp:
        mine, other = Path(tmp) / "mine", Path(tmp) / "other"
        run_tree(REPO, mine, args)
        run_tree(args.other, other, args)
        for workload in args.workloads:
            print("\n".join(compare(workload, mine, other)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
