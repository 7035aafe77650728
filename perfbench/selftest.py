#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes (about 20 s).

    python3 perfbench/selftest.py

Checks that both result schemas match BENCHMARK.json, that clean runs
pass, and that deliberately corrupted artifacts are counted as failed.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys

import run


def main() -> int:
    run.bootstrap()
    run.os.chdir(run.ROOT)
    import bench
    from workloads import cpd_som_perday, em_default, em_linear, load_json

    bench.OUT_DIR = bench.WORK_DIR / "selftest_out"
    bench.SETUP_REPEATS = 1
    shutil.rmtree(bench.OUT_DIR, ignore_errors=True)
    spec = load_json(run.ROOT / "BENCHMARK.json")
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    def bench_quietly(workload, trace, tamper=None):
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()):
            result = bench.main(workload, seed=3, seconds=0, trace=trace, tamper=tamper)
        last = out.getvalue().strip().splitlines()[-1]
        expect(json.loads(last) == result, f"{workload.name}: last line is the result")
        return result

    def check_schema(result, declared, label):
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"{label}: result keys")
        expect(result["correct"] and result["failed"] == 0
               and result["attempted"] >= 1, f"{label}: clean run passes")
        units = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == units, f"{label}: metric names and units match BENCHMARK.json")
        expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                   for v in result["metrics"].values()), f"{label}: values finite")

    tiny = (
        em_default(120, ms_restarts=2, ms_max_iter=5, som_epochs=2),
        em_linear(150, ms_restarts=2),
        cpd_som_perday(90, som_epochs=2),
    )
    for w in tiny:
        e2e = bench_quietly(w, trace=False)
        check_schema(e2e, spec["end_to_end"], f"{w.name} trace 0")
        expect(all(v["value"] > 0 for v in e2e["metrics"].values()),
               f"{w.name}: end-to-end values positive")
        check_schema(bench_quietly(w, trace=True), spec["per_layer"], f"{w.name} trace 1")

    def unnormalize_row(outdir):
        ms = load_json(outdir / "ms_model.json")
        ms["probabilities"]["smoothed"][5][0] += 1e-3
        (outdir / "ms_model.json").write_text(json.dumps(ms), encoding="utf-8")

    def decrease_trace(outdir):
        ms = load_json(outdir / "ms_model.json")
        ms["trace"][-1] = ms["trace"][-2] - 1.0
        (outdir / "ms_model.json").write_text(json.dumps(ms), encoding="utf-8")

    def move_change_point(outdir):
        seg = load_json(outdir / "segmentation_mean.json")
        seg["tau"][0] += 10
        (outdir / "segmentation_mean.json").write_text(json.dumps(seg), encoding="utf-8")

    def drop_report(outdir):
        (outdir / "class_table.csv").unlink()

    for w, tamper in ((tiny[1], unnormalize_row), (tiny[1], decrease_trace),
                      (tiny[2], move_change_point), (tiny[0], drop_report)):
        result = bench_quietly(w, trace=False, tamper=tamper)
        expect(not result["correct"] and result["failed"] == result["attempted"] >= 1,
               f"{w.name}: {tamper.__name__} counted as failed")

    shutil.rmtree(bench.WORK_DIR, ignore_errors=True)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
