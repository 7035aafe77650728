"""The benchmark's workloads: seeded synthetic inputs and the pipeline calls.

Each workload simulates one dataset with ``run_simulate`` (untimed), then
times the public pipeline calls a user makes on it: ``run_analyze`` and,
where every stage runs, ``load_bundle`` followed by ``run_report``. The
program only ever sees the simulated CSV; the ground-truth sidecar stays
with the benchmark and feeds the output checks and the quality metric.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bimetal import pipeline
from bimetal.pipeline import RunConfig
from bimetal.regression import LinearMean
from bimetal.switching import MsParams, hamilton_filter

ALL_ARTIFACTS = (
    "features", "spread", "som_grid", "periodization", "ms_model",
    "segmentation_mean", "segmentation_meanvar",
)
REPORT_FILES = ("class_table.csv", "class_means.csv", "aligned_series.csv")


def load_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``sim`` and ``analyze`` are RunConfig overrides for ``run_simulate`` and
    ``run_analyze``. The simulation seed is the benchmark seed unless
    ``sim_seed`` fixes it. ``model`` names the fitted model whose
    log-likelihood is compared with that of the simulated truth: "ms"
    (switching model) or "cpd" (mean-and-variance segmentation).
    """

    name: str
    sim: dict
    analyze: dict = field(default_factory=dict)
    model: str = "ms"
    sim_seed: int | None = None

    @property
    def config(self) -> RunConfig:
        return RunConfig().merged(self.analyze)

    @property
    def reports(self) -> bool:
        cfg = self.config
        return cfg.run_som and cfg.run_ms and cfg.run_cpd

    @property
    def expected_artifacts(self) -> tuple[str, ...]:
        cfg = self.config
        wanted = {"features", "spread"}
        if cfg.run_som:
            wanted |= {"som_grid", "periodization"}
        if cfg.run_ms:
            wanted.add("ms_model")
        if cfg.run_cpd:
            wanted |= {"segmentation_mean", "segmentation_meanvar"}
        return tuple(a for a in ALL_ARTIFACTS if a in wanted)

    @property
    def obs_per_week(self) -> int:
        return 2 if self.config.spread_aggregation == "per_day" else 1

    def simulate(self, seed: int, outdir: Path) -> Path:
        """Write the seeded dataset and its truth sidecar; return the CSV."""
        if self.sim_seed is not None:
            seed = self.sim_seed
        cfg = RunConfig(outdir=str(outdir)).merged(dict(self.sim, sim_seed=seed))
        return Path(pipeline.run_simulate(cfg)["dataset"])

    def run(self, dataset: Path, outdir: Path):
        """The timed pipeline calls; returns the analysis bundle."""
        cfg = RunConfig(input=str(dataset), outdir=str(outdir)).merged(self.analyze)
        bundle = pipeline.run_analyze(cfg)
        if self.reports:
            pipeline.run_report(pipeline.load_bundle(outdir))
        return bundle

    def true_change_points(self, truth: dict) -> list[int]:
        """Simulated change-points in observation index."""
        return [t * self.obs_per_week for t in truth["true_tau"]]

    def fit_loglik(self, outdir: Path) -> float:
        """Log-likelihood (nats) of the fitted model, read from the artifacts."""
        if self.model == "ms":
            return float(load_json(outdir / "ms_model.json")["trace"][-1])
        # Gaussian segments at their MLE mean and variance.
        seg = load_json(outdir / "segmentation_meanvar.json")
        n = np.diff([0] + seg["tau"] + [seg["T"]])
        var = np.array([c[0][0] for c in seg["segment_covs"]])
        return float(-0.5 * np.sum(n * (np.log(2.0 * np.pi * var) + 1.0)))

    def truth_loglik(self, outdir: Path, truth: dict) -> float:
        """Log-likelihood (nats) of the simulated truth on the same series."""
        y = np.asarray(load_json(outdir / "spread.json")["values"], dtype=float)
        if self.model == "ms":
            params = MsParams(
                transition=np.array(truth["transition"]),
                means=tuple(LinearMean(np.array(c)) for c in truth["coefs"]),
                sigmas=np.array(truth["sigmas"]),
            )
            return hamilton_filter(params, y).loglik
        n = np.diff([0] + self.true_change_points(truth) + [len(y)])
        mean = np.repeat(truth["levels"], n)
        var = np.repeat(np.square(truth["stds"]), n)
        return float(-0.5 * np.sum(np.log(2.0 * np.pi * var) + (y - mean) ** 2 / var))


def steps_sim(T: int) -> dict:
    """Step-series simulation with change-points at one and two thirds."""
    return {"sim_kind": "steps", "sim_T": T, "sim_tau": (T // 3, 2 * T // 3)}


def em_linear(T: int, **analyze) -> Workload:
    # max_iter 10 stops every restart before convergence (17 to 24
    # iterations at T=2078 depending on the seed), so each run does the same
    # number of filter and smoother passes and run_s does not follow the seed.
    return Workload(
        f"em_linear_T{T}",
        sim={"sim_kind": "regimes", "sim_T": T},
        analyze={"ms_families": ("linear", "linear"), "ms_max_iter": 10,
                 "run_som": False, "run_cpd": False, **analyze},
    )


def cpd_som_perday(T: int, **analyze) -> Workload:
    return Workload(
        f"cpd_som_perday_T{T}",
        sim=steps_sim(T),
        analyze={"spread_aggregation": "per_day", "run_ms": False, **analyze},
        model="cpd",
    )


def em_default(T: int, sim_seed: int | None = None, **analyze) -> Workload:
    return Workload(f"em_default_T{T}", sim={"sim_kind": "regimes", "sim_T": T},
                    analyze=analyze, sim_seed=sim_seed)


# Why each workload exists: see BENCHMARK.json and perfbench/README.md.
# em_default_T500 fits one fixed series: with every default, 4 or 5 of its 10
# restarts collapse depending on the series, which moved run_s by 23%
# (quartile distance over median) across ten seeds.
WORKLOADS = {
    w.name: w
    for w in (em_default(500, sim_seed=0), em_linear(2078), cpd_som_perday(2078))
}
