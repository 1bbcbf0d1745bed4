"""One benchmark round in a fresh process: import leanreg.cli, then run the jobs.

Usage: ``python child.py SPEC.json`` with PYTHONPATH naming the leanreg
sources.  The spec gives the job argvs, whether to trace, and where to
write the result.  The child prints ``ready`` as soon as ``import
leanreg.cli`` returns, so the parent can time set-up from spawn to that
line; with no jobs the child is a set-up probe.  It then runs each job
through ``leanreg.cli.main``, with slices of a fixed reference
computation timed between them, and writes per-job times, exit codes,
the reference time and its peak RSS (and, traced, its spans) as JSON.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))

import leanreg.cli  # noqa: E402  (the timed set-up)

print("ready", flush=True)

import numpy as np  # noqa: E402  (already loaded by leanreg)


def reference(iterations: int) -> float:
    """Seconds for a fixed computation that does not touch leanreg.

    Small-matrix numpy calls from a Python loop, the mix the replicate
    loops spend their time in.  Timed in slices between the jobs, it
    measures how fast this shared machine runs while they run, so run.py
    can report wall time relative to it.
    """
    x = np.random.default_rng(0).standard_normal((100, 3))
    rows = np.arange(100)
    t0 = time.perf_counter()
    for _ in range(iterations):
        a = x[rows]
        gram = a.T @ a
        np.linalg.cholesky(gram)
        np.linalg.eigvalsh(gram)
    return time.perf_counter() - t0


tracer = None
if spec["trace"]:
    import spans

    tracer = spans.Tracer()
    tracer.install()

# A slice of the reference before every job and after the last, so the
# reference samples the machine's speed across the whole round.
slice_iterations = spec["reference_iterations"] // (len(spec["jobs"]) + 1)
references = []
jobs = []
for k, argv in enumerate(spec["jobs"]):
    references.append(reference(slice_iterations))
    if tracer is not None:
        tracer.current_job = k
    error = None
    t0 = time.perf_counter()
    try:
        rc = leanreg.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit
        rc, error = exc.code, f"SystemExit({exc.code})"
    except Exception:  # a crash in one job must not hide the others' results
        rc, error = None, traceback.format_exc(limit=4)
    jobs.append({"seconds": time.perf_counter() - t0, "rc": rc, "error": error})
if spec["jobs"]:
    references.append(reference(slice_iterations))

result = {
    "jobs": jobs,
    "wall_s": sum(job["seconds"] for job in jobs),
    # seconds per reference_iterations, as if run in one piece
    "ref_s": sum(references) * spec["reference_iterations"] / (slice_iterations * len(references) or 1),
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "leanreg_file": leanreg.cli.__file__,
}
if tracer is not None:
    result["trace"] = tracer.dump(spec["spans_path"])
Path(spec["result_path"]).write_text(json.dumps(result), encoding="utf-8")
