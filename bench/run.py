"""The leanreg benchmark: end-to-end and per-layer metrics for three workloads.

Usage, from the repository root:

    python3 bench/run.py --workload {report,coverage,interpret} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --smoke

A run generates the workload's inputs from the seed, then repeats rounds
until ``--seconds`` of rounds are spent.  A round is one fresh child
process (child.py) that imports ``leanreg.cli`` (set-up, timed from
spawn) and runs the workload's CLI jobs back to back through
``leanreg.cli.main``, writing every output to a file.  The first round's
outputs go through the oracles in checks.py; every later round must
reproduce them byte for byte.  Metrics are medians over rounds.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` alternates untraced and traced rounds (at least two traced) and prints
the per-layer metrics: span-derived ones from the traced rounds (counts
must repeat exactly between them), job timings from the untraced ones,
and their wall-time difference as the tracing overhead.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  A table with sample counts and quartiles goes before
it, and bench/.out/results/ gets a JSON file with provenance, input
digests, per-round data and check results.  The exit code is 0 only when
every job succeeded and every check passed.

``--smoke`` runs every workload, traced and untraced, with every check,
at toy sizes: the benchmark's own test.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every child: steadier timings on
# a small shared machine, and never more threads than cores.
BLAS_THREADS = "1"
BLAS_ENV = {k: BLAS_THREADS for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import run_check  # noqa: E402
from spans import layer_values  # noqa: E402
from workloads import FULL, SMOKE, WORKLOADS, Sizes, jobs_for, make_inputs  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"
CHILD_TIMEOUT_S = 150.0
COUNT_UNITS = ("count", "bytes", "ratio")  # per-layer units that must repeat exactly


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed job or check)."""


# ------------------------------------------------------------ children


class Children:
    """Spawns child rounds in one working directory, one at a time."""

    def __init__(self, workdir: Path, reference_iterations: int):
        self.workdir = workdir
        self.reference_iterations = reference_iterations
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)

    def spawn(self, argvs: list[list[str]], traced: bool = False) -> dict:
        """Run one child; return its result with setup_s (spawn to ready) and elapsed."""
        self.count += 1
        stem = self.workdir / f"child-{self.count}"
        spec = {"jobs": argvs, "trace": traced, "reference_iterations": self.reference_iterations,
                "result_path": f"{stem}.result.json", "spans_path": f"{stem}.spans.npz"}
        Path(f"{stem}.spec.json").write_text(json.dumps(spec), encoding="utf-8")
        with open(f"{stem}.stderr", "w", encoding="utf-8") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), f"{stem}.spec.json"],
                                    cwd=self.workdir, env=self.env, stdout=subprocess.PIPE,
                                    stderr=err, text=True)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                ready = proc.stdout.readline()
                t_ready = time.perf_counter()
                proc.stdout.read()
                proc.wait()
            finally:
                timer.cancel()
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
                proc.stdout.close()
            elapsed = time.perf_counter() - t0
        if ready.strip() != "ready" or proc.returncode != 0:
            tail = Path(f"{stem}.stderr").read_text(encoding="utf-8")[-2000:]
            raise BenchError(f"child exited with {proc.returncode}:\n{tail}")
        result = json.loads(Path(f"{stem}.result.json").read_text(encoding="utf-8"))
        if not Path(result["leanreg_file"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"leanreg imported from {result['leanreg_file']}, not from {SRC}")
        result.update(setup_s=t_ready - t0, elapsed=elapsed, traced=traced)
        if traced:
            with np.load(f"{stem}.spans.npz") as arrays:
                result["spans"] = {k: arrays[k] for k in arrays.files}
        return result

    def import_times(self) -> tuple[float, float]:
        """Cumulative import time of leanreg and of scipy, from ``-X importtime``."""
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import leanreg.cli"],
                              cwd=self.workdir, env=self.env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        return _parse_importtime(proc.stderr)


def _parse_importtime(text: str) -> tuple[float, float]:
    # Lines are "import time: self | cumulative | <indent>name", children
    # before their parent; indent is two spaces per nesting level.
    entries = []
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(parts[1]) * 1e-6))
    leanreg = sum(c for d, name, c in entries if d == 0 and name.split(".")[0] == "leanreg")
    scipy = 0.0
    for i, (depth, name, cumulative) in enumerate(entries):
        if name.split(".")[0] != "scipy":
            continue
        parent = next((e for e in entries[i + 1:] if e[0] < depth), None)
        if parent is None or parent[1].split(".")[0] != "scipy":
            scipy += cumulative
    return leanreg, scipy


# ----------------------------------------------------------------- run


def _digest(workdir: Path, outputs: list[str]) -> tuple[str, int]:
    """SHA-256 and total size of a job's output files (directories walked in order)."""
    h, size = hashlib.sha256(), 0
    for out in outputs:
        path = workdir / out
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            data = f.read_bytes()
            h.update(f.relative_to(workdir).as_posix().encode() + b"\0" + data)
            size += len(data)
    return h.hexdigest(), size


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes) -> dict:
    """Run one workload; return rounds, check results and job outcomes."""
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        inputs = make_inputs(workload, seed, sizes, workdir, SRC / "leanreg" / "data")
        jobs = jobs_for(workload, seed, sizes)
        children = Children(workdir, sizes.reference_iterations)
        children.spawn([])  # warm-up: byte-compiles leanreg and fills the file cache
        setup_probes = [children.spawn([])["setup_s"] for _ in range(0 if trace else sizes.setup_probes)]
        imports = [children.import_times() for _ in range(sizes.import_probes if trace else 0)]

        rounds, failures, reference = [], [], None
        measured = 0.0
        while True:
            traced = trace and len(rounds) % 2 == 1
            for job in jobs:  # a job must write its outputs afresh in every round
                for out in job.outputs:
                    path = workdir / out
                    if path.is_dir():
                        shutil.rmtree(path)
                    else:
                        path.unlink(missing_ok=True)
            r = children.spawn([job.argv for job in jobs], traced)
            measured += r["elapsed"]
            r["outputs"] = [_digest(workdir, job.outputs) for job in jobs]
            for k, (job, out) in enumerate(zip(jobs, r["jobs"])):
                out["ok"] = out["rc"] == 0
                if not out["ok"]:
                    failures.append(f"round {len(rounds)} job {k} {job.argv[0]}: rc {out['rc']} {out['error'] or ''}")
            if reference is None:
                reference = r["outputs"]
                for k, job in enumerate(jobs):
                    if r["jobs"][k]["ok"]:
                        found = run_check(job, workdir, inputs)
                        r["jobs"][k]["ok"] = not found
                        failures += [f"job {k}: {f}" for f in found]
            else:
                for k, out in enumerate(r["jobs"]):
                    if out["ok"] and r["outputs"][k][0] != reference[k][0]:
                        out["ok"] = False
                        failures.append(f"round {len(rounds)} job {k}: output differs from round 0")
            rounds.append(r)
            n_traced = sum(x["traced"] for x in rounds)
            if trace and n_traced < 2:
                continue
            next_kind = [x["elapsed"] for x in rounds if x["traced"] == (trace and len(rounds) % 2 == 1)]
            if measured + statistics.median(next_kind) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds, "inputs": inputs,
            "jobs": jobs, "setup_probes": setup_probes, "imports": imports, "rounds": rounds,
            "failures": failures}


# ------------------------------------------------------------- metrics


def _median(values):
    return statistics.median(values) if values else 0.0


def _job_times(res: dict, rounds: list[dict]) -> dict[str, list[float]]:
    groups: dict[str, list[float]] = {}
    for r in rounds:
        sums: dict[str, float] = {}
        for job, out in zip(res["jobs"], r["jobs"]):
            if job.metric:
                sums[job.metric] = sums.get(job.metric, 0.0) + out["seconds"]
        for name, value in sums.items():
            groups.setdefault(name, []).append(value)
    return groups


def _attempted_failed(res: dict) -> tuple[int, int]:
    outcomes = [out["ok"] for r in res["rounds"] for out in r["jobs"]]
    return len(outcomes), outcomes.count(False)


def samples(res: dict) -> dict[str, list[float]]:
    """Every metric's samples: end-to-end, job timings, and (traced) per-layer values."""
    plain = [r for r in res["rounds"] if not r["traced"]]
    traced = [r for r in res["rounds"] if r["traced"]]
    attempted, failed = _attempted_failed(res)
    s = {
        "setup_s": res["setup_probes"] + [r["setup_s"] for r in res["rounds"]],
        "wall_rel": [r["wall_s"] / r["ref_s"] for r in plain],
        "wall_s": [r["wall_s"] for r in plain],
        "ref_s": [r["ref_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "ok_frac": [(attempted - failed) / attempted],
    }
    s.update(_job_times(res, plain))
    if not traced:
        return s
    per_round = [layer_values(r["spans"], r["trace"]) for r in traced]
    for name in per_round[0]:
        s[name] = [v[name] for v in per_round]
    s["setup.import_leanreg_s"] = [a for a, _ in res["imports"]]
    s["setup.import_scipy_s"] = [b for _, b in res["imports"]]
    s["cli.output_bytes"] = [sum(size for _, size in plain[0]["outputs"])]
    # Traced minus untraced wall time, each relative to its own rounds'
    # reference, so the machine's drift between rounds cancels.
    traced_rel = _median([r["wall_s"] / r["ref_s"] for r in traced])
    s["trace.overhead_s"] = [(traced_rel - _median(s["wall_rel"])) * _median(s["ref_s"])]
    return s


def metrics(s: dict[str, list[float]], declared: list[dict]) -> tuple[dict, list[str]]:
    """The declared metrics as {name: {value, unit}}, and any count that did not repeat."""
    out, problems = {}, []
    for m in declared:
        values = s.get(m["name"], [])
        if m["unit"] in COUNT_UNITS and len(set(values)) > 1:
            problems.append(f"count {m['name']} differs between traced rounds: {values}")
        value = values[0] if m["unit"] in COUNT_UNITS and values else _median(values)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out, problems


# ---------------------------------------------------------- provenance


def provenance(res: dict) -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        cpu = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    nproc = os.cpu_count() or 1
    if int(BLAS_THREADS) > nproc:
        raise BenchError(f"BLAS threads {BLAS_THREADS} exceed nproc {nproc}")
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "leanreg").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc,
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": int(BLAS_THREADS)},
        "leanreg_commit": _git_commit(),
        "leanreg_source_sha256": src_hash.hexdigest(),
        "seed": res["seed"],
        "jobs": [job.argv for job in res["jobs"]],
    }


def _git_commit() -> str | None:
    """HEAD of the repository rooted exactly here, or None (e.g. an exported checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


# -------------------------------------------------------------- output


def _table(s: dict[str, list[float]], shown: list[dict]) -> list[str]:
    lines = [f"{'metric':52} {'median':>14} {'unit':6} {'n':>3} {'q1':>12} {'q3':>12}"]
    for m in shown:
        values = s.get(m["name"], [])
        q1 = q3 = float("nan")
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        lines.append(f"{m['name']:52} {_median(values):14.6g} {m['unit']:6} {len(values):3d} "
                     f"{q1:12.6g} {q3:12.6g}")
    return lines


def report(res: dict, spec: dict) -> dict:
    """Print the table and the JSON line, write the result file; return the JSON object."""
    declared = spec["per_layer"] if res["trace"] else spec["end_to_end"]
    s = samples(res)
    values, problems = metrics(s, declared)
    failures = res["failures"] + problems
    attempted, failed = _attempted_failed(res)
    line = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": values}

    plain = [r for r in res["rounds"] if not r["traced"]]
    print(f"workload {res['workload']}  seed {res['seed']}  trace {int(res['trace'])}  "
          f"rounds {len(plain)} untraced + {len(res['rounds']) - len(plain)} traced")
    shown = list(declared)
    if not res["trace"]:
        # Raw wall and reference times, and the workload's own job timings:
        # the traced run reports them as per-layer metrics.
        groups = dict.fromkeys(j.metric for j in res["jobs"] if j.metric)
        shown += [{"name": n, "unit": "s"} for n in ("wall_s", "ref_s", *groups)]
    for text in _table(s, shown):
        print(text)
    for f in failures:
        print(f"FAILED: {f}")
    traced = [r["trace"] for r in res["rounds"] if r["traced"]]
    if traced and traced[0]["missing_sites"]:
        print(f"note: trace sites not found (their metrics read 0): {', '.join(traced[0]['missing_sites'])}")
    if traced and traced[0]["attr_errors"]:
        print(f"note: span attributes not read: {'; '.join(sorted(set(traced[0]['attr_errors'])))}")

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "result": line,
        "failures": failures,
        "provenance": provenance(res),
        "inputs": res["inputs"],
        "samples": s,
        "rounds": [{k: v for k, v in r.items() if k not in ("spans", "trace")} for r in res["rounds"]],
        "trace": [{k: v for k, v in t.items() if k != "attrs"} for t in traced],
    }
    name = f"{res['workload']}-seed{res['seed']}-trace{int(res['trace'])}.json"
    (results / name).write_text(json.dumps(record, indent=1, default=_jsonable), encoding="utf-8")
    print(f"results: {results / name}")
    return line


def _jsonable(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(type(obj).__name__)


# --------------------------------------------------------------- smoke


SMOKE_SEED = 7


def smoke(spec: dict) -> int:
    """Every workload, untraced and traced, every check, at toy sizes."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            t0 = time.perf_counter()
            line = report(run(workload, SMOKE_SEED, 0.0, trace, SMOKE), spec)
            print(json.dumps(line))
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            problems = [] if line["correct"] else ["not correct"]
            if set(line["metrics"]) != {m["name"] for m in declared}:
                problems.append("metric names differ from BENCHMARK.json")
            if not trace:
                problems += [f"{k} is 0" for k, v in line["metrics"].items() if v["value"] == 0]
            ok = ok and not problems
            print(f"smoke {workload} trace {int(trace)}: {'ok' if not problems else problems} "
                  f"({time.perf_counter() - t0:.1f} s)\n")
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size self-test of every workload")
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "leanreg" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no leanreg sources (src/leanreg) or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    try:
        line = report(run(args.workload, args.seed, seconds, bool(args.trace), FULL), spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
