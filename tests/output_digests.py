"""Output digests: the SHA-256 of everything each benchmark job produces.

Run from the repository root::

    PYTHONPATH=src python tests/output_digests.py [--size full|smoke] [--seed N] [WORKLOAD ...]

For each workload of ``bench/workloads.py`` (all three by default) it
writes the workload's generated inputs into a fresh temporary
directory, runs every job there through ``leanreg.cli.main`` in this
process, and prints one line per digest::

    workload job argv[0] item sha256

where ``item`` is ``rc``, ``stdout``, ``stderr`` or the relative path
of an output file (a directory output is walked in sorted order).
Warnings are written to the captured stderr, so they are digested too.
Running it on two trees and diffing the output shows which job's
results changed.  It needs only the standard library and numpy, reads
``bench/workloads.py`` without changing it, and pytest does not collect
it (the name does not start with ``test_``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
import warnings
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "bench"))

import leanreg  # noqa: E402
import leanreg.cli  # noqa: E402
from workloads import FULL, SMOKE, WORKLOADS, jobs_for, make_inputs  # noqa: E402


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(workdir: Path, output: str):
    """``(relative path, bytes)`` of an output file, or of every file under an output directory."""
    path = workdir / output
    paths = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    for p in paths:
        yield p.relative_to(workdir).as_posix(), p.read_bytes() if p.is_file() else b"<missing>"


def run_job(argv: list[str]) -> tuple[str, str, str]:
    """``(rc, stdout, stderr)`` of one ``leanreg.cli.main`` call, warnings included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("always")
        try:
            rc = leanreg.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit
            rc = f"SystemExit({exc.code})"
    return str(rc), out.getvalue(), err.getvalue()


def job_outputs(workload: str, seed: int, sizes):
    """Yield ``(k, job, items)`` for each job of the workload, run in a fresh directory of its inputs.

    ``items`` are ``(name, bytes)``: ``rc``, ``stdout``, ``stderr``, then
    every output file by its relative path.
    """
    datadir = Path(leanreg.__file__).resolve().parent / "data"
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        make_inputs(workload, seed, sizes, workdir, datadir)
        here = os.getcwd()
        os.chdir(workdir)
        try:
            for k, job in enumerate(jobs_for(workload, seed, sizes)):
                rc, stdout, stderr = run_job(job.argv)
                items = [("rc", rc.encode()), ("stdout", stdout.encode()), ("stderr", stderr.encode())]
                for output in job.outputs:
                    items.extend(_files(workdir, output))
                yield k, job, items
        finally:
            os.chdir(here)


def digests(workload: str, seed: int, sizes) -> list[str]:
    """One ``workload job argv[0] item sha256`` line per digest of the workload's jobs."""
    return [
        f"{workload} {k} {job.argv[0]} {name} {_sha256(data)}"
        for k, job, items in job_outputs(workload, seed, sizes)
        for name, data in items
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD", help=f"any of {', '.join(WORKLOADS)}")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workload(s) {sorted(unknown)}; expected any of {', '.join(WORKLOADS)}")
    sizes = FULL if args.size == "full" else SMOKE
    for workload in args.workloads or WORKLOADS:
        print("\n".join(digests(workload, args.seed, sizes)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
