"""Spans and counters recorded around calls into bimetal's modules.

Nothing under ``src/`` is changed: while a ``Tracer`` is installed, the
public functions and methods listed in ``SPANS`` are replaced, on their
module or class, by wrappers that record one span per call (name, start,
end, parent, and the run id shared by every span of one run), and the
methods in ``COUNTERS`` by wrappers that only count calls. The pipeline
looks these names up on the module at call time, so the wrappers see
every call; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

from bimetal import changepoint, data, pipeline, regression, som, switching


def _detect_name(args, kwargs) -> str:
    mode = args[1] if len(args) > 1 else kwargs["mode"]
    return "changepoint.detect." + changepoint.SegMode.parse(mode).value


# (span name, owner, attribute): every call becomes one span. A callable
# name is computed from the call's arguments.
SPANS = (
    ("pipeline.run_analyze", pipeline, "run_analyze"),
    ("pipeline.load_bundle", pipeline, "load_bundle"),
    ("pipeline.run_report", pipeline, "run_report"),
    ("data.parse_dataset", data, "parse_dataset"),
    ("data.impute_missing", data, "impute_missing"),
    ("data.build_features", data, "build_features"),
    ("data.compute_spread", data, "compute_spread"),
    ("data.write", data, "write_features_csv"),
    ("data.write", data, "write_spread_csv"),
    ("data.write", data, "write_json"),
    ("som.train_som", som, "train_som"),
    ("som.hac_macro_classes", som, "hac_macro_classes"),
    ("som.periodize", som, "periodize"),
    ("switching.em_fit", switching, "em_fit"),
    ("switching.hamilton_filter", switching, "hamilton_filter"),
    ("switching.kim_smoother", switching, "kim_smoother"),
    ("regression.MlpMean.fit_weighted", regression.MlpMean, "fit_weighted"),
    ("regression.LinearMean.fit_weighted", regression.LinearMean, "fit_weighted"),
    (_detect_name, changepoint, "detect"),
    ("changepoint.SegCostTable.build", changepoint.SegCostTable, "build"),
)

# (counter name, owner, attribute): calls are counted, not timed.
COUNTERS = (
    ("regression.MlpMean.loss", regression.MlpMean, "loss"),
)


class Tracer:
    """Collects spans in memory; ``write`` saves them at the end of a run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.restarts: list[dict] = []  # one outcome per EM restart
        self.detect_peaks: list[int] = []  # tracemalloc peak per detect call
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ----------------------------------------------------------
    def _span(self, name, fn, measure_alloc=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = {"id": len(self.spans), "run": self.run_id, "name": label,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            if measure_alloc:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                if measure_alloc:
                    self.detect_peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                self._stack.pop()
        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _restart_outcome(self, fn):
        # em_fit exposes only the best restart; its private per-restart step
        # is the one place each restart's iterations and convergence show.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                params, probs, trace, converged = fn(*args, **kwargs)
            except Exception:
                self.restarts.append({"iterations": None, "converged": False})
                raise
            self.restarts.append({"iterations": len(trace), "converged": converged})
            return params, probs, trace, converged
        return wrapper

    # -- installing ---------------------------------------------------------
    def _replace(self, owner, attr, make):
        raw = owner.__dict__[attr]
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def install(self) -> None:
        for name, owner, attr in SPANS:
            alloc = attr == "detect"
            self._replace(owner, attr, lambda fn, n=name, a=alloc: self._span(n, fn, a))
        for name, owner, attr in COUNTERS:
            self._replace(owner, attr, lambda fn, n=name: self._counter(n, fn))
        self._replace(switching, "_em_single", self._restart_outcome)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- derived numbers ----------------------------------------------------
    def totals(self) -> dict:
        """Per span name: calls, total seconds, and self seconds (duration
        minus the part of it covered by child spans); zeros for a name
        with no spans."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for s in self.spans:
            dur = s["end"] - s["start"]
            t = out[s["name"]]
            t["calls"] += 1
            t["s"] += dur
            t["self_s"] += dur - child_time[s["id"]]
        return out

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra, run=self.run_id, spans=self.spans,
                   counts=dict(self.counts), restarts=self.restarts)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
