"""Memory as a tested function of n, measured in child processes; out of memory as a typed exit.

A job's peak resident set is read from ``os.wait4`` on the child that
ran it, which gives that child's own ``ru_maxrss`` (``RUSAGE_CHILDREN``
would give the maximum over every child so far).  Linux starts a new
program's ``ru_maxrss`` at no less than the resident set of the process
that spawned it, so each job is spawned by a bare interpreter
(``LAUNCHER``), whose few MB lie below any job's footprint, and not by
the test process.
Running a job at n and 4n rows and dividing the growth in its peak by
the growth in its input cancels the interpreter's and numpy's fixed
footprint.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import leanreg

SRC = str(Path(leanreg.__file__).resolve().parents[1])
# numpy asks for transparent huge pages for arrays of 4 MiB and more; whether
# it gets them depends on the host, and each one moves the resident set by
# up to 2 MiB, so the children ask for none.
ENV = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1", "NUMPY_MADVISE_HUGEPAGE": "0"}

# Runs ``python ARGS...`` in a child of its own and prints that child's exit
# code and ru_maxrss (KiB on Linux).
LAUNCHER = (
    "import os, sys\n"
    "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def peak_rss_bytes(*args: str) -> int:
    """Peak resident set of ``python ARGS...``, which must exit 0."""
    out = subprocess.run(
        [sys.executable, "-c", LAUNCHER, *args], env=ENV, capture_output=True, text=True, check=True
    ).stdout.split()
    assert out[0] == "0", f"the job exited {out[0]}"
    return int(out[1]) * 1024


def growth_per_input_byte(tmp_path, code: str, n: int) -> float:
    """(peak at 4n - peak at n) / (input bytes at 4n - input bytes at n) of ``python -c CODE FILE``."""
    sizes, peaks = [], []
    for rows in (n, 4 * n):
        path = tmp_path / f"rows{rows}.csv"
        write_normal_sample(path, rows)
        sizes.append(path.stat().st_size)
        peaks.append(peak_rss_bytes("-c", code, str(path)))
    return (peaks[1] - peaks[0]) / (sizes[1] - sizes[0])


def write_normal_sample(path: Path, rows: int) -> None:
    """Header ``y,x1,...,x6`` and ``rows`` rows of standard normals at 17 significant digits, as the benchmark writes them."""
    block = np.random.default_rng(3).standard_normal((1000, 7))
    lines = "".join(",".join("%.17g" % v for v in row) + "\n" for row in block.tolist())
    path.write_text("y,x1,x2,x3,x4,x5,x6\n" + lines * (rows // 1000), encoding="utf-8")


# Peak-RSS growth of load_csv per added input byte.  A row of 7 values takes
# about 142 bytes of text; at its peak load_csv holds numpy's table (56 bytes
# a row, and some of reading buffers) and the Dataset's design and response
# copied from it (64): 0.89-0.92 of the text in 8 runs at n = 40k (Linux,
# numpy 2.4).  A list of float objects per row, as the reader before numpy's
# had, came to 3.6.
INGEST_GROWTH_PER_BYTE = 0.95


def test_ingest_peak_grows_slower_than_its_input(tmp_path):
    code = "import sys; from leanreg.core import load_csv; load_csv(sys.argv[1], 'y', [f'x{j}' for j in range(1, 7)])"
    growth = growth_per_input_byte(tmp_path, code, 40_000)
    assert 0 < growth < INGEST_GROWTH_PER_BYTE


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the address-space size from /proc")
def test_out_of_memory_is_a_one_line_error():
    # The limit, 256 MiB above what the child has mapped after its imports,
    # is set in the child only; --n 10**8 needs 763 MiB per array.
    code = (
        "import resource, sys\n"
        "from leanreg.cli import main\n"
        "with open('/proc/self/statm') as fh:\n"
        "    limit = int(fh.read().split()[0]) * resource.getpagesize() + (256 << 20)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    argv = ["simulate", "--population", "quadratic.json", "--n", str(10**8), "--reps", "2"]
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=ENV, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("leanreg: error: Unable to allocate ")
    assert proc.stderr.count("\n") == 1
