"""Harness: simulate, time the pipeline passes, check, and report.

Imported by run.py after ``bootstrap()`` has capped the BLAS threads and
put the checkout's ``src/`` on the path. All load runs in this process;
the only subprocesses are the fresh interpreters that time ``setup_s``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import run
from bimetal import som
from checks import artifact_hashes, check_run
from tracing import Tracer
from workloads import Workload, load_json

WORK_DIR = Path(".bench_work")  # per-run inputs and outdirs, removed at exit
OUT_DIR = Path(".bench_out")    # spans of traced runs, artifact hashes
SETUP_REPEATS = 3

# name -> (unit, better); the end-to-end metrics printed with --trace 0.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "loglik_ratio": ("ratio", "higher"),
}

# name -> (unit, better); the per-layer metrics printed with --trace 1.
# Times and counts are summed over the traced pass; 0 where a stage is off.
PER_LAYER = {
    "data.parse_s": ("s", "lower"),
    "data.impute_s": ("s", "lower"),
    "data.features_s": ("s", "lower"),
    "data.spread_s": ("s", "lower"),
    "data.write_s": ("s", "lower"),
    "data.rows": ("count", "higher"),
    "data.bytes_written": ("bytes", "lower"),
    "som.train_s": ("s", "lower"),
    "som.updates": ("count", "lower"),
    "som.hac_s": ("s", "lower"),
    "som.periodize_s": ("s", "lower"),
    "som.quantization_error": ("z2", "lower"),
    "switching.em_fit_s": ("s", "lower"),
    "switching.em_self_s": ("s", "lower"),
    "switching.filter_s": ("s", "lower"),
    "switching.filter_calls": ("count", "lower"),
    "switching.smoother_s": ("s", "lower"),
    "switching.smoother_calls": ("count", "lower"),
    "switching.restarts_converged": ("count", "higher"),
    "switching.restarts_collapsed": ("count", "lower"),
    "switching.restart_yield": ("ratio", "higher"),
    "switching.best_iterations": ("count", "lower"),
    "switching.transition_abs_err": ("prob", "lower"),
    "switching.best_loglik": ("nats", "higher"),
    "regression.mlp_fit_s": ("s", "lower"),
    "regression.mlp_fit_calls": ("count", "lower"),
    "regression.mlp_loss_evals": ("count", "lower"),
    "regression.linear_fit_s": ("s", "lower"),
    "changepoint.detect_mean_s": ("s", "lower"),
    "changepoint.detect_meanvar_s": ("s", "lower"),
    "changepoint.cost_build_s": ("s", "lower"),
    "changepoint.dp_s": ("s", "lower"),
    "changepoint.peak_alloc_mb": ("MB", "lower"),
    "changepoint.k_max": ("count", "lower"),
    "pipeline.analyze_s": ("s", "lower"),
    "pipeline.load_bundle_s": ("s", "lower"),
    "pipeline.report_s": ("s", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.untraced_run_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "cpu": cpu,
        "nproc": run.nproc(),
        "blas_threads": {v: os.environ[v] for v in run.BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def setup_seconds() -> float:
    """Median wall time of ``import bimetal`` in a fresh interpreter, after
    one discarded warm-up import (byte-code compilation, page cache)."""
    cmd = [sys.executable, "-c", "import bimetal"]
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Run:
    """One benchmark invocation: a seeded dataset and its timed passes."""

    def __init__(self, workload: Workload, seed: int, tamper=None):
        self.workload, self.seed, self.tamper = workload, seed, tamper
        self.base = WORK_DIR / f"{workload.name}-{seed}"
        shutil.rmtree(self.base, ignore_errors=True)
        self.dataset = workload.simulate(seed, self.base / "input")
        self.truth = load_json(self.base / "input" / "dataset_truth.json")
        self.outdir = self.base / "out"
        self.attempted = 0
        self.problems: list[str] = []  # one entry per failed pass
        self.times: list[float] = []
        self.hashes: dict | None = None
        self.bundle = None

    def one_pass(self) -> float:
        """Run the workload once, check its outputs; returns the seconds
        its pipeline calls took."""
        self.attempted += 1
        shutil.rmtree(self.outdir, ignore_errors=True)
        gc.collect()
        t0 = time.perf_counter()
        try:
            self.bundle = self.workload.run(self.dataset, self.outdir)
            elapsed = time.perf_counter() - t0
            if self.tamper is not None:
                self.tamper(self.outdir)
            problems = check_run(self.workload, self.outdir, self.truth)
            problems += self._check_hashes()
        except Exception as exc:  # a failed pass is counted, not fatal
            elapsed = time.perf_counter() - t0
            traceback.print_exc()
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if problems:
            self.problems.append("; ".join(problems))
            print(f"FAIL pass {self.attempted}: {self.problems[-1]}", file=sys.stderr)
        self.times.append(elapsed)
        return elapsed

    def _check_hashes(self) -> list[str]:
        """Every pass, and every earlier run of the same workload definition
        and program source at this seed, must leave byte-identical artifacts."""
        hashes = artifact_hashes(self.outdir)
        h = hashlib.sha256(repr(self.workload).encode())
        for path in sorted((run.SRC / "bimetal").glob("*.py")):
            h.update(path.read_bytes())
        key = h.hexdigest()[:12]
        store = OUT_DIR / "hashes" / f"{self.workload.name}-{self.seed}-{key}.json"
        if self.hashes is None:
            if store.is_file():
                self.hashes = load_json(store)
            else:
                store.parent.mkdir(parents=True, exist_ok=True)
                store.write_text(json.dumps(hashes, indent=1), encoding="utf-8")
                self.hashes = hashes
        differ = sorted(k for k in set(hashes) | set(self.hashes)
                        if hashes.get(k) != self.hashes.get(k))
        return [f"artifacts differ from an earlier run: {differ}"] if differ else []

    def loglik_ratio(self) -> float:
        """Fitted-model log-likelihood over that of the simulated truth."""
        truth = self.workload.truth_loglik(self.outdir, self.truth)
        if truth <= 0:
            raise RuntimeError(f"truth log-likelihood {truth} is not positive")
        return self.workload.fit_loglik(self.outdir) / truth

    def close(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)


def end_to_end(r: Run, seconds: float) -> dict:
    setup = setup_seconds()
    deadline = time.perf_counter() + seconds
    r.one_pass()
    while time.perf_counter() < deadline:
        r.one_pass()
    ratio = r.loglik_ratio() if not r.problems else 0.0
    return {
        "setup_s": setup,
        "run_s": statistics.median(r.times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "loglik_ratio": ratio,
    }


def per_layer(r: Run, tracer: Tracer) -> dict:
    untraced = r.one_pass()
    with tracer:
        traced = r.one_pass()
    tot = tracer.totals()
    dp_s = sum(tot[f"changepoint.detect.{m}"]["self_s"] for m in ("mean", "meanvar"))
    m = {
        "data.parse_s": tot["data.parse_dataset"]["s"],
        "data.impute_s": tot["data.impute_missing"]["s"],
        "data.features_s": tot["data.build_features"]["s"],
        "data.spread_s": tot["data.compute_spread"]["s"],
        "data.write_s": tot["data.write"]["s"],
        "data.rows": 0, "data.bytes_written": 0,
        "som.train_s": tot["som.train_som"]["s"],
        "som.updates": 0, "som.quantization_error": 0.0,
        "som.hac_s": tot["som.hac_macro_classes"]["s"],
        "som.periodize_s": tot["som.periodize"]["s"],
        "switching.em_fit_s": tot["switching.em_fit"]["s"],
        "switching.em_self_s": tot["switching.em_fit"]["self_s"],
        "switching.filter_s": tot["switching.hamilton_filter"]["s"],
        "switching.filter_calls": tot["switching.hamilton_filter"]["calls"],
        "switching.smoother_s": tot["switching.kim_smoother"]["s"],
        "switching.smoother_calls": tot["switching.kim_smoother"]["calls"],
        "switching.restarts_converged": sum(x["converged"] for x in tracer.restarts),
        "switching.restarts_collapsed": sum(x["iterations"] is None for x in tracer.restarts),
        "switching.restart_yield": 0.0,
        "switching.best_iterations": 0,
        "switching.transition_abs_err": 0.0,
        "switching.best_loglik": 0.0,
        "regression.mlp_fit_s": tot["regression.MlpMean.fit_weighted"]["s"],
        "regression.mlp_fit_calls": tot["regression.MlpMean.fit_weighted"]["calls"],
        "regression.mlp_loss_evals": tracer.counts["regression.MlpMean.loss"],
        "regression.linear_fit_s": tot["regression.LinearMean.fit_weighted"]["s"],
        "changepoint.detect_mean_s": tot["changepoint.detect.mean"]["s"],
        "changepoint.detect_meanvar_s": tot["changepoint.detect.meanvar"]["s"],
        "changepoint.cost_build_s": tot["changepoint.SegCostTable.build"]["s"],
        "changepoint.dp_s": dp_s,
        "changepoint.peak_alloc_mb": max(tracer.detect_peaks, default=0) / 2**20,
        "changepoint.k_max": 0,
        "pipeline.analyze_s": tot["pipeline.run_analyze"]["s"],
        "pipeline.load_bundle_s": tot["pipeline.load_bundle"]["s"],
        "pipeline.report_s": tot["pipeline.run_report"]["s"],
        "trace.run_s": traced,
        "trace.untraced_run_s": untraced,
        "trace.overhead_ratio": traced / untraced - 1.0,
    }
    if r.problems:
        return m
    out, bundle = r.outdir, r.bundle
    manifest = load_json(out / "manifest.json")
    m["data.rows"] = manifest["n_weeks"]
    m["data.bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
    if bundle.grid is not None:
        m["som.updates"] = bundle.grid.trained_epochs * len(bundle.features)
        m["som.quantization_error"] = som.quantization_error(bundle.grid, bundle.features)
    if bundle.em is not None:
        em, tr = bundle.em, r.truth
        attempted = len(em.restart_logliks)
        m["switching.restart_yield"] = (
            sum(v is not None for v in em.restart_logliks) / attempted)
        m["switching.best_iterations"] = em.n_iter
        m["switching.transition_abs_err"] = 0.5 * (
            abs(em.params.p - tr["transition"][0][0])
            + abs(em.params.q - tr["transition"][1][1]))
        m["switching.best_loglik"] = em.loglik
    if bundle.segmentations:
        m["changepoint.k_max"] = max(seg.selection.K_max
                                     for seg in bundle.segmentations.values())
    return m


def report(workload: Workload, seed: int, r: Run, metrics: dict, units: dict,
           env: dict) -> dict:
    failed = len(r.problems)
    result = {
        "correct": failed == 0,
        "attempted": r.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units},
    }
    print(f"workload {workload.name}  seed {seed}  passes {r.attempted}")
    for k in units:
        print(f"  {k:<30} {metrics[k]:>14.6g} {units[k][0]}")
    if r.bundle is not None and r.bundle.em is not None and not r.problems:
        print(f"  {'em_loglik':<30} {r.bundle.em.loglik:>14.6g} nats")
    print(f"  {'fail_ratio':<30} {failed / r.attempted:>14.6g} "
          f"({failed} failed / {r.attempted} attempted)")
    print("env " + json.dumps(env, sort_keys=True))
    return result


def main(workload: Workload, seed: int, seconds: float, trace: bool, tamper=None) -> dict:
    env = environment()
    r = Run(workload, seed, tamper)
    try:
        if trace:
            tracer = Tracer(run_id=f"{workload.name}-{seed}-{os.getpid()}-{time.time_ns()}")
            metrics = per_layer(r, tracer)
            tracer.write(OUT_DIR / "traces" / f"{workload.name}-{seed}.json",
                         {"workload": workload.name, "seed": seed, "env": env,
                          "metrics": metrics})
            result = report(workload, seed, r, metrics, PER_LAYER, env)
        else:
            metrics = end_to_end(r, seconds)
            result = report(workload, seed, r, metrics, END_TO_END, env)
    finally:
        r.close()
    print(json.dumps(result))
    return result
