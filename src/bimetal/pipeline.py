"""Pipeline orchestration: ingest -> periodize -> fit -> detect -> report.

Every stage persists its outputs as human-readable artifacts (CSV for
tables, JSON for model objects) under one output directory, together with
a manifest recording the input path, the analysis configuration, its hash
with the input bytes, and the artifact inventory. One analysis of the same
input bytes writes the same bytes into any output directory; nothing
time-dependent is written.
"""

from __future__ import annotations

import hashlib
import json
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import changepoint as cpd
from . import data as dio
from . import som as sommod
from . import switching as msmod
from .errors import DataError, ValidationError
# perfbench/workloads.py calls pipeline.run_simulate; the re-export goes once
# the benchmark imports it from bimetal.simulate
from .simulate import run_simulate  # noqa: F401
from .simulate import SIM_KINDS

REFERENCE_TRANSITION = (0.844298, 0.746643)

# The config keys whose values must be one of a fixed set.
_CHOICES = {"hpl_kind": dio.HPL_KINDS, "spread_aggregation": dio.SPREAD_AGGREGATIONS,
            "sim_kind": SIM_KINDS}
# The config keys that must not be negative: a gap length and the seeds.
_NON_NEGATIVE = ("max_gap", "som_seed", "ms_seed", "sim_seed")


@dataclass
class RunConfig:
    """All pipeline parameters; the defaults reproduce the reference
    setup: 5x5 SOM grid, 6 macro-classes, two regimes (perceptron plus
    linear mean), and both change-point modes. Each value is decoded by
    ``data.from_json`` (lists become tuples, numbers stay as given); a
    mistyped value, one outside its ``_CHOICES`` or a negative gap or seed
    is a ValidationError naming the key."""

    input: str | None = None
    outdir: str = "out"

    # ingestion
    max_gap: int = 4
    include_hpl: bool = True
    hpl_kind: str = "difference"
    spread_aggregation: str = "mean"

    # stage toggles
    run_som: bool = True
    run_ms: bool = True
    run_cpd: bool = True

    # SOM periodization
    som_rows: int = 5
    som_cols: int = 5
    som_epochs: int = 100
    som_seed: int = 0
    n_classes: int = 6

    # switching model
    ms_lag: int = 1
    ms_families: tuple[str, ...] = ("mlp", "linear")
    ms_hidden: int = 3
    ms_tol: float = 1e-6
    ms_max_iter: int = 200
    ms_restarts: int = 10
    ms_seed: int = 0

    # change-point detection
    cpd_k_max: int | None = None
    cpd_threshold: float = 0.75
    cpd_penalty: float | None = None

    # synthetic data generation
    sim_kind: str = "regimes"  # one of SIM_KINDS
    sim_T: int = 500
    sim_seed: int = 0
    sim_p: float = REFERENCE_TRANSITION[0]
    sim_q: float = REFERENCE_TRANSITION[1]
    sim_coefs: tuple[tuple[float, ...], ...] = ((0.05, 0.6), (0.18, 0.3))
    sim_sigmas: tuple[float, ...] = (0.02, 0.08)
    sim_tau: tuple[int, ...] = (166, 333)
    sim_levels: tuple[float, ...] = (0.1, 0.5, 0.2)
    sim_stds: tuple[float, ...] = (0.03, 0.08, 0.03)

    def __post_init__(self):
        hints = typing.get_type_hints(RunConfig)
        for f in fields(self):
            value = getattr(self, f.name)
            key = f"config key {f.name!r}: {value!r}"
            try:
                decoded = dio.from_json(hints[f.name], value)
            except TypeError:
                raise ValidationError(f"{key} is not {f.type}") from None
            choices = _CHOICES.get(f.name)
            if choices is not None and decoded not in choices:
                raise ValidationError(f"{key} is not one of {choices}")
            if f.name in _NON_NEGATIVE and decoded < 0:
                raise ValidationError(f"{key} must be >= 0")
            setattr(self, f.name, decoded)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Build a RunConfig from JSON-like keys; an unknown key is a
        ValidationError."""
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def merged(self, overrides: dict) -> "RunConfig":
        return replace(self, **{k: v for k, v in overrides.items() if v is not None})


def _read_config(path) -> dict:
    """The JSON object of a config file, for ``RunConfig.from_dict``; a file
    that is not one is a DataError naming it."""
    try:
        d = dio.read_json(path)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise DataError(f"invalid config file {path}: {exc}") from exc
    if not isinstance(d, dict):
        raise DataError(f"invalid config file {path}: not a JSON object")
    return d


def _analysis_keys(config: RunConfig) -> dict:
    """The manifest's config: the keys of ``config`` that ``analyze`` reads,
    all but ``input``, ``outdir`` and ``run_simulate``'s ``sim_*`` keys."""
    return {k: v for k, v in config.to_dict().items()
            if k not in ("input", "outdir") and not k.startswith("sim_")}


@dataclass
class AnalysisBundle:
    """Handles to every persisted artifact of one analysis run."""

    outdir: Path
    manifest: dict
    features: dio.FeatureSet | None = None
    spread: dio.SpreadSeries | None = None
    grid: sommod.SomGrid | None = None
    classification: sommod.MacroClassification | None = None
    em: msmod.EmResult | None = None
    segmentations: dict = field(default_factory=dict)

    @property
    def artifact_names(self) -> list[str]:
        return [a["name"] for a in self.manifest["artifacts"]]


def _input_path(config: RunConfig) -> Path:
    if config.input is None:
        raise DataError("no input file configured")
    path = Path(config.input)
    if not path.exists():
        raise DataError(f"input file {path} does not exist")
    return path


def _ingested(table, config: RunConfig) -> tuple[dio.FeatureSet, dio.SpreadSeries]:
    """The two ingest records of an imputed table under ``config``'s flags:
    the SOM's features and the spread."""
    features = dio.build_features(
        table, include_hpl=config.include_hpl, hpl_kind=config.hpl_kind
    )
    return features, dio.compute_spread(table, aggregation=config.spread_aggregation)


def run_analyze(config: RunConfig) -> AnalysisBundle:
    """Ingest the input (parse, impute, and persist the features, the
    spread and the imputation report), run the enabled stages, and persist
    every artifact plus a manifest; with no stage enabled this is the whole
    of ``bimetal ingest``.

    A stage failure still writes the manifest (status "failed", with the
    stage name) so partial artifacts remain inspectable, then re-raises.
    """
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "input": config.input,  # provenance, outside the hash
        "config": _analysis_keys(config),
        "config_hash": None,  # set once the input is known to exist
        "status": "ok",
        "failed_stage": None,
        "artifacts": [],
    }
    bundle = AnalysisBundle(outdir=outdir, manifest=manifest)

    def listed(name, *files):
        """Add ``name`` and its files (default ``name``.json) to the manifest."""
        files = dict(zip(("path", "json"), files or (f"{name}.json",)))
        manifest["artifacts"].append({"name": name, **files})

    stage = "ingest"
    try:
        path = _input_path(config)
        h = hashlib.sha256(json.dumps(manifest["config"], sort_keys=True).encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
        manifest["config_hash"] = h.hexdigest()
        table = dio.parse_dataset(str(path))
        table, report = dio.impute_missing(table, max_gap=config.max_gap)
        features, spread = _ingested(table, config)
        bundle.features, bundle.spread = features, spread
        manifest["n_weeks"] = len(table)
        manifest["ingest"] = {
            "imputation_report": "imputation_report.json",
            "n_imputed": len(report),
        }
        dio.write_features_csv(features, outdir / "features.csv")
        dio.write_spread_csv(spread, table, outdir / "spread.csv")
        dio.write_json(dio.to_json(spread), outdir / "spread.json")
        dio.write_json(
            dio.imputation_report_to_dict(report), outdir / "imputation_report.json"
        )
        listed("features", "features.csv")
        listed("spread", "spread.csv", "spread.json")

        if config.run_som:
            stage = "som"
            grid = sommod.train_som(
                features, rows=config.som_rows, cols=config.som_cols,
                epochs=config.som_epochs, seed=config.som_seed,
            )
            classification = sommod.periodize(features, grid, k=config.n_classes)
            bundle.grid, bundle.classification = grid, classification
            dio.write_json(dio.to_json(grid), outdir / "som_grid.json")
            dio.write_json(dio.to_json(classification), outdir / "periodization.json")
            listed("som_grid")
            listed("periodization")

        if config.run_ms:
            stage = "ms"
            spec = msmod.MsSpec(lag=config.ms_lag, families=config.ms_families,
                                hidden_units=config.ms_hidden)
            bundle.em = em = msmod.em_fit(
                spec, spread.values, seed=config.ms_seed, tol=config.ms_tol,
                max_iter=config.ms_max_iter, n_restarts=config.ms_restarts,
            )
            dio.write_json(dio.to_json(em), outdir / "ms_model.json")
            listed("ms_model")

        if config.run_cpd:
            stage = "cpd"
            labels = np.array(table.labels)[spread.t_index].tolist()
            for mode in cpd.SegMode:
                name = f"segmentation_{mode.value}"
                seg = cpd.detect(
                    spread.values, mode, K_max=config.cpd_k_max,
                    threshold=config.cpd_threshold, penalty=config.cpd_penalty,
                )
                dio.write_json(seg.to_dict(labels=labels), outdir / f"{name}.json")
                bundle.segmentations[mode.value] = seg
                listed(name)
    except Exception:
        manifest["status"] = "failed"
        manifest["failed_stage"] = stage
        dio.write_json(manifest, outdir / "manifest.json")
        raise

    dio.write_json(manifest, outdir / "manifest.json")
    return bundle


def load_bundle(outdir) -> AnalysisBundle:
    """Reload a persisted analysis from its manifest.

    The features and the spread are rebuilt, as ``analyze`` built them,
    from the imputed table in features.csv and the flags of the manifest's
    config, and the periodization from the features and som_grid.json;
    spread.csv, spread.json and periodization.json are exports that are not
    read back. The grid, the model and the segmentations are decoded from
    their JSON files, after the features, whatever the manifest's order; an
    unknown artifact is skipped. A manifest or artifact that cannot be
    decoded is a DataError naming the file, and so is one that does not fit
    the run: features.csv of another length than the manifest's n_weeks, a
    som_grid of another dimension than the features, an ms_model whose
    probabilities do not have one row per spread observation from the
    model's lag on and one column per regime, a segmentation whose T and tau
    do not split the spread into segments, or any of these three listed
    without the features to check it against.
    """
    outdir = Path(outdir)
    path = outdir / "manifest.json"
    if not path.exists():
        raise DataError(f"no manifest in {outdir}: run analyze first")
    try:  # from here on, path names the file being read
        manifest = dio.read_json(path)
        config = RunConfig.from_dict(manifest["config"])
        bundle = AnalysisBundle(outdir=outdir, manifest=manifest)
        files = {e["name"]: outdir / e["path"] for e in manifest["artifacts"]}

        def decoded(name, record_type):
            """The record of artifact ``name``, once the features can check it."""
            nonlocal path
            path = files[name]
            if bundle.spread is None:
                raise DataError("the manifest lists no features to check it against")
            return dio.from_json(record_type, dio.read_json(path))

        if "features" in files:
            path = files["features"]
            table = dio.parse_dataset(path)
            if len(table) != manifest.get("n_weeks"):
                raise DataError(f"{len(table)} rows, but the manifest has n_weeks "
                                f"{manifest.get('n_weeks')}")
            bundle.features, bundle.spread = _ingested(table, config)
        if "som_grid" in files:
            bundle.grid = decoded("som_grid", sommod.SomGrid)
            bundle.classification = sommod.periodize(
                bundle.features, bundle.grid, k=config.n_classes
            )
        if "ms_model" in files:
            bundle.em = decoded("ms_model", msmod.EmResult)
            probs, params = bundle.em.probabilities, bundle.em.params
            shape = (len(bundle.spread) - params.lag, params.n_regimes)
            if probs.filtered.shape != shape or probs.smoothed.shape != shape:
                raise ValueError(
                    f"probabilities from observation {params.lag} do not cover "
                    f"the {len(bundle.spread)} spread observations in "
                    f"{params.n_regimes} regimes")
        for mode in cpd.SegMode:
            name = f"segmentation_{mode.value}"
            if name in files:
                seg = bundle.segmentations[mode.value] = decoded(name, cpd.Segmentation)
                bounds = [0, *seg.tau, seg.T]
                if seg.T != len(bundle.spread) or bounds != sorted(set(bounds)):
                    raise ValueError(
                        f"T {seg.T} and tau {list(seg.tau)} do not split the "
                        f"{len(bundle.spread)} spread observations into segments")
                if seg.mode is not mode:
                    raise ValueError(f"mode {seg.mode.value}, not {mode.value}")
    except DataError as exc:  # a table that does not parse or build, or a config
        raise DataError(f"malformed artifact {path}: {exc}") from exc
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"malformed artifact {path}: {exc!r}") from exc
    return bundle


def run_report(bundle: AnalysisBundle) -> dict:
    """Emit the three report files from a completed analysis.

    class_table.csv is built here, where the views meet: it cross-tabulates
    the SOM classes against the switching model, one row per class with its
    observation count, the share of its observations with a smoothed
    P(regime 1) above 0.5, and the standard deviation of its spread; each
    observation takes its week's class, so a per_day week counts twice.
    class_means.csv holds the per-class raw-variable means; and
    aligned_series.csv lines up, one row per spread observation (two per
    week with per_day aggregation), the spread, the smoothed probability of
    regime 1, and indicator columns for the change-points of both modes,
    ready for external plotting.
    """
    for name, stage, record in (
        ("spread", "ingest", bundle.spread),
        ("periodization", "som", bundle.classification),
        ("ms_model", "ms", bundle.em),
        ("segmentation_mean", "cpd", bundle.segmentations.get("mean")),
        ("segmentation_meanvar", "cpd", bundle.segmentations.get("meanvar")),
    ):
        if record is None:
            raise DataError(
                f"missing artifact {name!r}: run the {stage} stage of analyze first"
            )

    outdir = bundle.outdir
    spread = bundle.spread
    classification = bundle.classification
    probs, lag = bundle.em.probabilities, bundle.em.params.lag

    # the share of regime 1 is over the observations that have a probability,
    # those from the model's lag on
    obs_class = classification.week_to_class[spread.t_index]
    regime1 = probs.smoothed[:, 0] > 0.5
    classes = sorted(set(obs_class.tolist()))
    members = [obs_class == cls for cls in classes]
    ruled = [regime1[member[lag:]] for member in members]
    dio.write_table(
        outdir / "class_table.csv", ["class", "n_obs", "pct_regime1", "spread_std"],
        [np.array(classes), np.array([member.sum() for member in members]),
         [f"{r.mean() if r.size else float('nan'):.3f}" for r in ruled],
         [f"{spread.values[member].std(ddof=0):.3f}" for member in members]],
    )

    means = classification.class_means
    order = sorted(means)
    var_names = list(next(iter(means.values())))
    dio.write_table(
        outdir / "class_means.csv", ["class", "n_weeks", *var_names],
        [np.array(order), np.array([classification.class_counts[c] for c in order]),
         *(np.array([means[c][v] for c in order]) for v in var_names)],
    )

    weeks = np.array(bundle.features.table.labels)[spread.t_index].tolist()
    p_regime1 = np.concatenate([np.full(lag, np.nan), probs.smoothed[:, 0]])
    cp = np.zeros((2, len(spread)), dtype=int)
    for flags, mode in zip(cp, ("mean", "meanvar")):
        flags[list(bundle.segmentations[mode].tau)] = 1
    dio.write_table(
        outdir / "aligned_series.csv",
        ["week", "spread", "p_regime1", "cp_mean", "cp_meanvar"],
        [weeks, spread.values, p_regime1, *cp],
    )

    return {
        "class_table": str(outdir / "class_table.csv"),
        "class_means": str(outdir / "class_means.csv"),
        "aligned_series": str(outdir / "aligned_series.csv"),
    }
