"""Spans around leanreg's layers, recorded from outside the library.

The traced child calls :meth:`Tracer.install`, which replaces each public
function at the name its caller looks it up by (``SITES``) with a wrapper
that records a span: name, start, end, parent span and job.  Spans stay
in memory and are written out once, when the child ends.  Nothing in the
library changes.  Parents are tracked with a stack, so this assumes the
jobs run on one thread (the benchmark never passes ``--workers``).

:func:`layer_values` turns one traced round's spans into the per-layer
metrics.  A layer's self time is its span minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

# (module, attribute its callers look the function up by, span name)
SITES = (
    ("leanreg.cli", "run_fit", "cli.fit"),
    ("leanreg.cli", "run_diagnostics", "cli.bootstrap"),
    ("leanreg.cli", "run_predict", "cli.predict"),
    ("leanreg.cli", "run_simulate", "cli.simulate"),
    ("leanreg.cli", "run_slopes", "cli.slopes"),
    ("leanreg.cli", "load_csv", "core.load_csv"),
    ("leanreg.fitting", "check_rank", "core.check_rank"),
    ("leanreg.cli", "fit_dataset", "fitting.fit_dataset"),
    ("leanreg.population", "fit_dataset", "fitting.fit_dataset"),
    ("leanreg.cli", "fit_ols", "fitting.fit_ols"),
    ("leanreg.fitting", "fit_ols", "fitting.fit_ols"),
    ("leanreg.bootstrap", "fit_ols", "fitting.fit_ols"),
    ("leanreg.prediction", "fit_ols", "fitting.fit_ols"),
    ("leanreg.fitting", "fit_glm", "fitting.fit_glm"),
    ("leanreg.bootstrap", "fit_glm", "fitting.fit_glm"),
    ("leanreg.cli", "conventional_cov", "covariance.conventional_cov"),
    ("leanreg.population", "conventional_cov", "covariance.conventional_cov"),
    ("leanreg.cli", "sandwich_cov", "covariance.sandwich_cov"),
    ("leanreg.population", "sandwich_cov", "covariance.sandwich_cov"),
    ("leanreg.cli", "coefficient_table", "covariance.coefficient_table"),
    ("leanreg.cli", "misspec_indicator", "report.misspec_indicator"),
    ("leanreg.bootstrap", "xy_bootstrap", "bootstrap.xy_bootstrap"),
    ("leanreg.bootstrap", "residual_bootstrap", "bootstrap.residual_bootstrap"),
    ("leanreg.bootstrap", "normality_diagnostic", "bootstrap.normality_diagnostic"),
    ("leanreg.bootstrap", "substream", "rng.substream"),
    ("leanreg.population", "substream", "rng.substream"),
    ("leanreg.prediction", "substream", "rng.substream"),
    ("leanreg.population", "sample", "population.sample"),
    ("leanreg.population", "population_beta", "population.population_beta"),
    ("leanreg.cli", "coverage_experiment", "population.coverage_experiment"),
    ("leanreg.prediction", "calibrate_K", "prediction.calibrate_K"),
    ("leanreg.prediction", "cv_calibrate_K", "prediction.cv_calibrate_K"),
    ("leanreg.prediction", "interval", "prediction.interval"),
    ("leanreg.cli", "pairwise_slope_multiple", "slopes.pairwise_slope_multiple"),
    ("leanreg.cli", "adjust_regressor", "slopes.adjust_regressor"),
    ("leanreg.slopes", "adjust_regressor", "slopes.adjust_regressor"),
    ("leanreg.cli", "pair_table_csv", "slopes.pair_table_csv"),
)


def _family(family) -> str:
    tag = str(getattr(family, "tag", family))
    for key, short in (("gaussian", "ols"), ("logit", "logit"), ("poisson", "poisson")):
        if key in tag:
            return short
    return tag


# Span name -> attributes read from the bound arguments and the result.
ATTRS = {
    "core.load_csv": lambda a, r: {"rows": r.n},
    "fitting.fit_glm": lambda a, r: {"iterations": r.iterations},
    "bootstrap.xy_bootstrap": lambda a, r: {
        "family": _family(a["family"]), "B": a["B"], "n": a["ds"].n, "retained": r.b_retained},
    "bootstrap.residual_bootstrap": lambda a, r: {"B": a["B"], "n": a["ds"].n, "retained": r.b_retained},
    "population.coverage_experiment": lambda a, r: {
        "replications": a["replications"], "boot": any(m.endswith("bootstrap") for m in a["methods"])},
    "slopes.pairwise_slope_multiple": lambda a, r: {"dense_bytes": 3 * 8 * a["dm"].n ** 2},
    "slopes.pair_table_csv": lambda a, r: {"rows": r.count("\n") - 1, "bytes": len(r.encode("utf-8"))},
}


class Tracer:
    """In-memory span recorder for one child process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.job: list[int] = []
        self.attrs: dict[int, dict] = {}
        self.errors: list[tuple[int, str]] = []
        self.attr_errors: list[str] = []
        self.missing: list[str] = []
        self.current_job = 0
        self._stack = [-1]

    def install(self) -> None:
        """Wrap every site that exists; a site a refactor removed is listed in ``missing``."""
        for module_name, attr, name in SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(name, fn))

    def _wrap(self, name, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        extract = ATTRS.get(name)
        signature = inspect.signature(fn) if extract else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.job.append(self.current_job)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors.append((i, type(exc).__name__))
                raise
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if extract is not None:
                try:
                    self.attrs[i] = extract(signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, TypeError) as exc:
                    self.attr_errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return result

        return wrapper

    def dump(self, path) -> dict:
        """Write the span arrays to ``path`` (.npz); return the rest as JSON-ready metadata."""
        np.savez(path, name_id=np.array(self.name_id, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent, dtype=np.int64), job=np.array(self.job, dtype=np.int32))
        return {"names": self.names, "attrs": {str(k): v for k, v in self.attrs.items()},
                "errors": self.errors, "attr_errors": self.attr_errors, "missing_sites": self.missing}


def layer_values(spans, meta: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round, from its span arrays and metadata."""
    names = meta["names"]
    nid, parent = spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    covered = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_time = dur - covered
    attrs = {int(k): v for k, v in meta["attrs"].items()}

    def where(name):
        return np.flatnonzero(nid == names.index(name)) if name in names else np.array([], dtype=int)

    def calls(name):
        return int(len(where(name)))

    def self_s(name):
        return float(self_time[where(name)].sum())

    def attr_list(name):
        return [(i, attrs[i]) for i in where(name) if i in attrs]

    v: dict[str, float] = {}
    for name in ("core.check_rank", "fitting.fit_ols", "fitting.fit_glm", "covariance.sandwich_cov",
                 "covariance.conventional_cov", "rng.substream", "population.sample",
                 "population.population_beta", "prediction.interval"):
        v[f"{name}.calls"] = calls(name)
        v[f"{name}.self_s"] = self_s(name)
    for name in ("core.load_csv", "bootstrap.normality_diagnostic", "prediction.calibrate_K",
                 "prediction.cv_calibrate_K", "slopes.pairwise_slope_multiple", "slopes.adjust_regressor",
                 "slopes.pair_table_csv", "covariance.coefficient_table", "report.misspec_indicator"):
        v[f"{name}.self_s"] = self_s(name)
    for sub in ("fit", "bootstrap", "predict", "simulate", "slopes"):
        v[f"cli.{sub}.self_s"] = self_s(f"cli.{sub}")

    v["core.load_csv.rows"] = sum(a["rows"] for _, a in attr_list("core.load_csv"))
    iterations = [a["iterations"] for _, a in attr_list("fitting.fit_glm")]
    v["fitting.irls_iterations.mean"] = float(np.mean(iterations)) if iterations else 0.0
    fit_spans = set(where("fitting.fit_ols")) | set(where("fitting.fit_glm"))
    v["fitting.failed"] = sum(1 for i, _ in meta["errors"] if i in fit_spans)

    xy, residual = attr_list("bootstrap.xy_bootstrap"), attr_list("bootstrap.residual_bootstrap")
    for family in ("ols", "logit", "poisson"):
        chosen = [(i, a) for i, a in xy if a["family"] == family]
        b_total = sum(a["B"] for _, a in chosen)
        v[f"bootstrap.xy.us_per_replicate.{family}"] = (
            1e6 * float(sum(dur[i] for i, _ in chosen)) / b_total if b_total else 0.0)
    b_residual = sum(a["B"] for _, a in residual)
    v["bootstrap.residual.us_per_replicate"] = (
        1e6 * float(sum(dur[i] for i, _ in residual)) / b_residual if b_residual else 0.0)
    boot_spans = np.array([i for i, _ in xy + residual], dtype=int)
    v["bootstrap.self_s"] = float(self_time[boot_spans].sum())
    in_boot = np.isin(parent, boot_spans)
    replicate_fits = np.array(sorted(i for i in fit_spans if in_boot[i]), dtype=int)
    b_total = sum(a["B"] for _, a in xy + residual)
    replicate_us = 1e6 * dur[replicate_fits]
    v["bootstrap.replicate_us.p50"] = float(np.percentile(replicate_us, 50)) if len(replicate_us) else 0.0
    v["bootstrap.replicate_us.p99"] = float(np.percentile(replicate_us, 99)) if len(replicate_us) else 0.0
    v["bootstrap.fits_per_replicate"] = len(replicate_fits) / b_total if b_total else 0.0
    v["bootstrap.retained_frac"] = (
        sum(a["retained"] for _, a in xy + residual) / b_total if b_total else 0.0)

    experiments = attr_list("population.coverage_experiment")
    for kind, boot in (("analytic", False), ("boot", True)):
        chosen = [(i, a) for i, a in experiments if a["boot"] == boot]
        reps = sum(a["replications"] for _, a in chosen)
        v[f"population.coverage_experiment.ms_per_replication.{kind}"] = (
            1e3 * float(sum(dur[i] for i, _ in chosen)) / reps if reps else 0.0)

    v["slopes.dense_bytes"] = max((a["dense_bytes"] for _, a in attr_list("slopes.pairwise_slope_multiple")),
                                  default=0)
    tables = attr_list("slopes.pair_table_csv")
    v["slopes.pair_table_csv.rows"] = sum(a["rows"] for _, a in tables)
    v["slopes.pair_table_csv.bytes"] = sum(a["bytes"] for _, a in tables)
    v["trace.spans"] = len(nid)
    return v
