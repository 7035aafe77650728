import contextlib
import dataclasses
import hashlib
import io
import json
import math
import shutil
import tempfile
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path
from types import ModuleType, SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from bimetal.cli import main
from bimetal.data import (
    HEADER, PRICE_MAX, PRICE_MIN, RAW_COLUMNS, SPREAD_AGGREGATIONS, VALUE_COLUMNS,
    QuotationTable, SpreadSeries, to_json, write_features_csv, write_json, write_table,
)
from bimetal.errors import DataError, ValidationError
from bimetal.pipeline import (
    AnalysisBundle,
    RunConfig,
    _read_config,
    load_bundle,
    run_analyze,
    run_report,
)
from bimetal.simulate import run_simulate
from bimetal.som import MacroClassification
from bimetal.switching import MsSpec, RegimeProbabilities

from conftest import assert_tables_equal, make_csv, synthetic_rows
from oracles import seed_em_fit


def fast_config(**overrides) -> RunConfig:
    base = dict(
        som_epochs=10,
        som_rows=3,
        som_cols=3,
        n_classes=3,
        ms_families=("linear", "linear"),
        ms_restarts=2,
        ms_max_iter=40,
        ms_tol=1e-5,
        cpd_k_max=6,
        sim_T=150,
        sim_seed=3,
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def sim_dataset(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("sim")
    config = fast_config(outdir=str(outdir))
    summary = run_simulate(config)
    return Path(summary["dataset"])


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory, sim_dataset):
    outdir = tmp_path_factory.mktemp("run")
    config = fast_config(input=str(sim_dataset), outdir=str(outdir))
    bundle = run_analyze(config)
    return config, bundle


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

def test_config_defaults_match_reference_setup():
    cfg = RunConfig()
    assert (cfg.som_rows * cfg.som_cols, cfg.n_classes) == (25, 6)
    assert cfg.ms_families == ("mlp", "linear")
    assert cfg.run_cpd and cfg.run_som and cfg.run_ms
    assert cfg.cpd_threshold == 0.75
    assert (cfg.sim_p, cfg.sim_q) == (0.844298, 0.746643)


def test_config_roundtrip_and_unknown_keys(tmp_path):
    cfg = RunConfig(som_seed=7, ms_families=("linear", "linear"))
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert RunConfig.from_dict(_read_config(path)) == cfg
    # a misspelt key, and keys the config no longer has
    for key in ("som_seeed", "som_lr_start", "ms_regimes"):
        with pytest.raises(ValidationError, match="unknown config keys"):
            RunConfig.from_dict({key: 1})


def test_config_hash_sensitivity(sim_dataset, tmp_path):
    """The manifest's config_hash names the analysis: it moves with an
    analysis key and with the input bytes, not with the outdir, the input
    path or a simulation key."""
    sim_changes = dict(  # a changed value of every sim_* key
        sim_kind="steps", sim_T=999, sim_seed=99, sim_p=0.5, sim_q=0.5,
        sim_coefs=((0.0, 0.1), (0.2, 0.3)), sim_sigmas=(0.1, 0.2), sim_tau=(10, 20),
        sim_levels=(1.0, 2.0, 3.0), sim_stds=(0.1, 0.1, 0.1),
    )
    assert set(sim_changes) == {f.name for f in dataclasses.fields(RunConfig)
                                if f.name.startswith("sim_")}
    shorter = tmp_path / "shorter.csv"
    shorter.write_text("".join(sim_dataset.read_text().splitlines(True)[:-1]))
    moved = tmp_path / "moved.csv"
    moved.write_bytes(sim_dataset.read_bytes())

    def manifest(name, **overrides):
        config = fast_config(input=str(sim_dataset), outdir=str(tmp_path / name),
                             run_som=False, run_ms=False, run_cpd=False)
        return run_analyze(config.merged(overrides)).manifest

    base = manifest("base")
    assert base["input"] == str(sim_dataset)
    h = hashlib.sha256(json.dumps(base["config"], sort_keys=True).encode())
    h.update(hashlib.sha256(sim_dataset.read_bytes()).digest())
    assert base["config_hash"] == h.hexdigest()
    assert manifest("seed", som_seed=1)["config_hash"] != base["config_hash"]
    assert manifest("bytes", input=str(shorter))["config_hash"] != base["config_hash"]
    assert manifest("other_outdir")["config_hash"] == base["config_hash"]
    assert manifest("path", input=str(moved))["config_hash"] == base["config_hash"]
    for key, value in sim_changes.items():
        assert manifest(key, **{key: value})["config_hash"] == base["config_hash"], key


def test_config_merged_precedence():
    cfg = RunConfig(som_seed=4).merged({"som_seed": 9, "ms_seed": None})
    assert cfg.som_seed == 9
    assert cfg.ms_seed == 0


def test_config_values_are_type_checked():
    # JSON-friendly: an int for a float, a list for a tuple, None for X | None
    cfg = RunConfig.from_dict({"cpd_penalty": 5, "ms_tol": 1, "sim_tau": [10, 20],
                               "cpd_k_max": None})
    assert (cfg.cpd_penalty, cfg.sim_tau, cfg.cpd_k_max) == (5, (10, 20), None)
    # nested lists become nested tuples; numbers stay as given
    cfg = RunConfig.from_dict({"sim_coefs": [[1, 0.5], [0.2, 0.3]], "sim_stds": [1, 2, 3]})
    assert cfg.sim_coefs == ((1, 0.5), (0.2, 0.3)) and cfg.sim_stds == (1, 2, 3)
    assert type(cfg.sim_coefs[0]) is tuple and type(cfg.sim_coefs[0][0]) is int
    with pytest.raises(ValidationError, match="config key 'outdir'"):
        RunConfig.from_dict({"outdir": None})
    for bad in ({"som_rows": "5"}, {"ms_restarts": 2.5}, {"ms_families": "mlp"},
                {"include_hpl": "no"}, {"som_rows": True}, {"ms_tol": False},
                {"cpd_k_max": 2.0}, {"sim_tau": "10,20"}, {"hpl_kind": 1},
                # tuple elements of the wrong type
                {"sim_coefs": [1, 2]}, {"sim_coefs": [[0.1, "a"]]},
                {"sim_levels": ["a", 1, 2]}, {"sim_tau": [1.5, 3]},
                {"sim_tau": [True, 3]}, {"ms_families": ["mlp", None]},
                # ingest flags outside their choices
                {"spread_aggregation": "weekly"}, {"hpl_kind": "log"}):
        (key,) = bad
        with pytest.raises(ValidationError, match=f"config key '{key}'"):
            RunConfig.from_dict(bad)
        with pytest.raises(ValidationError, match=f"config key '{key}'"):
            RunConfig().merged(bad)  # the path of the CLI's flags


@pytest.mark.parametrize("key, value", [
    ("ms_seed", -1), ("som_rows", "5"), ("cpd_k_max", 1.5), ("max_gap", -1),
    ("sim_kind", "bogus"),
])
def test_config_refuses_a_bad_value_where_it_is_built(key, value):
    with pytest.raises(ValidationError, match=f"config key {key!r}: {value!r}"):
        RunConfig(**{key: value})


@pytest.mark.parametrize("overrides", [
    {"max_gap": 0, "som_seed": 2, "ms_seed": 3, "include_hpl": False, "hpl_kind": "ratio",
     "cpd_k_max": None, "cpd_penalty": 1},
    {"spread_aggregation": "per_day", "run_ms": False, "ms_tol": 0},
], ids=["every-stage", "per-day"])
def test_a_config_that_builds_leaves_an_outdir_that_loads(sim_dataset, tmp_path,
                                                          overrides):
    config = fast_config(input=str(sim_dataset), outdir=str(tmp_path), **overrides)
    written = run_analyze(config)
    loaded = load_bundle(tmp_path)
    assert loaded.manifest == json.loads(json.dumps(written.manifest))
    assert loaded.artifact_names == written.artifact_names


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_bimetal_simulate_is_the_module():
    import bimetal
    import bimetal.simulate

    assert isinstance(bimetal.simulate, ModuleType)
    assert bimetal.simulate.run_simulate is bimetal.run_simulate


def test_simulate_regimes_dataset(tmp_path):
    config = fast_config(outdir=str(tmp_path))
    summary = run_simulate(config)
    assert summary["rows"] == 150
    truth = json.loads((tmp_path / "dataset_truth.json").read_text())
    assert truth["kind"] == "regimes"
    assert len(truth["true_states"]) == 150
    # the dataset round-trips through ingestion with the intended spread
    manifest = run_analyze(fast_config(
        input=summary["dataset"], outdir=str(tmp_path / "ing"),
        run_som=False, run_ms=False, run_cpd=False,
    )).manifest
    assert manifest["n_weeks"] == 150
    assert manifest["ingest"]["n_imputed"] == 0


def test_simulate_steps_sidecar_matches_seams(tmp_path):
    config = fast_config(outdir=str(tmp_path), sim_kind="steps",
                         sim_tau=(50, 100), sim_levels=(0.1, 0.6, 0.2),
                         sim_stds=(0.02, 0.05, 0.02), sim_T=150)
    summary = run_simulate(config)
    truth = json.loads((tmp_path / "dataset_truth.json").read_text())
    assert truth["true_tau"] == [50, 100]
    # spread recovered from the dataset shows the constructed levels
    from bimetal.data import compute_spread, parse_dataset

    spread = compute_spread(parse_dataset(summary["dataset"]))
    assert np.mean(spread.values[50:100]) == pytest.approx(0.6, abs=0.05)


def test_simulate_deterministic(tmp_path):
    c1 = fast_config(outdir=str(tmp_path / "a"))
    c2 = fast_config(outdir=str(tmp_path / "b"))
    run_simulate(c1)
    run_simulate(c2)
    assert (tmp_path / "a/dataset.csv").read_bytes() == \
        (tmp_path / "b/dataset.csv").read_bytes()
    assert (tmp_path / "a/dataset_truth.json").read_bytes() == \
        (tmp_path / "b/dataset_truth.json").read_bytes()


def test_simulate_bad_steps_config(tmp_path):
    config = fast_config(outdir=str(tmp_path), sim_kind="steps",
                         sim_tau=(100, 50))
    with pytest.raises(ValidationError, match="sim_tau"):
        run_simulate(config)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_manifest_lists_seven_artifacts(analyzed):
    _, bundle = analyzed
    assert bundle.manifest["status"] == "ok"
    assert bundle.artifact_names == [
        "features", "spread", "som_grid", "periodization",
        "ms_model", "segmentation_mean", "segmentation_meanvar",
    ]
    assert len(bundle.artifact_names) == 7
    for entry in bundle.manifest["artifacts"]:
        assert (bundle.outdir / entry["path"]).exists()


def test_analyze_rerun_byte_identical(sim_dataset, tmp_path):
    conf_a = fast_config(input=str(sim_dataset), outdir=str(tmp_path / "a"))
    conf_b = fast_config(input=str(sim_dataset), outdir=str(tmp_path / "b"))
    run_analyze(conf_a)
    run_analyze(conf_b)
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert files_a == files_b and "manifest.json" in files_a
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_analyze_stage_toggle(sim_dataset, tmp_path):
    config = fast_config(input=str(sim_dataset), outdir=str(tmp_path),
                         run_cpd=False)
    bundle = run_analyze(config)
    assert "segmentation_mean" not in bundle.artifact_names
    assert "segmentation_meanvar" not in bundle.artifact_names
    assert "ms_model" in bundle.artifact_names
    assert not (tmp_path / "segmentation_mean.json").exists()


def test_analyze_failed_stage_recorded(tmp_path, sim_dataset):
    # an infeasible change-point setting aborts in the cpd stage
    config = fast_config(input=str(sim_dataset), outdir=str(tmp_path),
                         cpd_k_max=10_000)
    with pytest.raises(ValidationError):
        run_analyze(config)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["failed_stage"] == "cpd"
    # earlier artifacts were still persisted
    assert any(a["name"] == "ms_model" for a in manifest["artifacts"])


def test_analyze_missing_input_recorded_as_data_error(tmp_path, capsys):
    missing = tmp_path / "absent.csv"
    config = fast_config(input=str(missing), outdir=str(tmp_path / "out"))
    with pytest.raises(DataError, match="does not exist"):
        run_analyze(config)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["failed_stage"] == "ingest"
    code = main(["analyze", "--input", str(missing), "--outdir", str(tmp_path / "cli")])
    assert code == 2
    assert "data error:" in capsys.readouterr().err


def _week_labels(bundle):
    """The table's week label of each spread observation of ``bundle``."""
    labels = bundle.features.table.labels
    return [labels[t] for t in bundle.spread.t_index]


def test_load_bundle_roundtrip(analyzed):
    config, bundle = analyzed
    loaded = load_bundle(config.outdir)
    assert loaded.artifact_names == bundle.artifact_names
    assert_allclose(loaded.spread.values, bundle.spread.values)
    assert_allclose(
        loaded.em.params.transition, bundle.em.params.transition
    )
    assert loaded.segmentations["mean"].tau == bundle.segmentations["mean"].tau
    assert_allclose(
        loaded.classification.week_to_class, bundle.classification.week_to_class
    )

    # each loaded record, re-encoded as analyze encodes it, gives its files' text
    outdir = Path(config.outdir)
    csv_text = io.StringIO()
    write_features_csv(loaded.features, csv_text)
    assert csv_text.getvalue() == (outdir / "features.csv").read_text()
    labels = _week_labels(loaded)
    records = {
        "spread": to_json(loaded.spread),
        "som_grid": to_json(loaded.grid),
        "periodization": to_json(loaded.classification),
        "ms_model": to_json(loaded.em),
        "segmentation_mean": loaded.segmentations["mean"].to_dict(labels=labels),
        "segmentation_meanvar": loaded.segmentations["meanvar"].to_dict(labels=labels),
    }
    files = {"manifest": "manifest.json"}
    files.update((e["name"], e.get("json", e["path"])) for e in loaded.manifest["artifacts"])
    records["manifest"] = loaded.manifest
    assert records.keys() | {"features"} == files.keys()
    for name, record in records.items():
        buf = io.StringIO()
        write_json(record, buf)
        assert buf.getvalue() == (outdir / files[name]).read_text(), files[name]


def test_load_bundle_reads_a_grid_with_the_old_schedule_record(analyzed, tmp_path):
    """A som_grid.json written when the grid still stored its decay schedule
    loads; the extra key is ignored."""
    config, bundle = analyzed
    run = tmp_path / "run"
    shutil.copytree(config.outdir, run)
    path = run / "som_grid.json"
    new_text = path.read_text()
    record = json.loads(new_text)
    assert "schedule" not in record
    record["schedule"] = {"epochs": record["trained_epochs"], "lr_start": 0.5,
                          "lr_end": 0.01, "radius_start": None, "radius_end": 0.5}
    path.write_text(json.dumps(record))
    grid = load_bundle(run).grid
    assert np.array_equal(grid.code_vectors, bundle.grid.code_vectors)
    assert (grid.rows, grid.cols, grid.trained_epochs, grid.seed) == (3, 3, 10, config.som_seed)
    buf = io.StringIO()
    write_json(to_json(grid), buf)
    assert buf.getvalue() == new_text


def test_load_bundle_reads_an_ms_model_that_stores_the_regime_and_iteration_counts(
        analyzed, tmp_path):
    """ms_model.json holds only the fit. One written when it also stored the
    spec (with n_regimes), the seed, n_iter and the probabilities' offset and
    loglik loads; the regime count, lag and iteration count come back from
    params and trace, and it is written back in the new form."""
    config, bundle = analyzed
    run = tmp_path / "run"
    shutil.copytree(config.outdir, run)
    path = run / "ms_model.json"
    new_text = path.read_text()
    record = json.loads(new_text)
    assert list(record) == ["params", "probabilities", "trace", "converged",
                            "restart", "restart_logliks"]
    assert list(record["probabilities"]) == ["filtered", "smoothed"]
    old = {
        "spec": {"lag": 1, "families": ["linear", "linear"], "hidden_units": 3,
                 "n_regimes": 2},
        "seed": config.ms_seed, **record, "n_iter": len(record["trace"]),
    }
    old["probabilities"] = {"offset": 1, "loglik": record["trace"][-1],
                            **record["probabilities"]}
    path.write_text(json.dumps(old))
    em = load_bundle(run).em
    assert em.params.n_regimes == 2 and em.params.lag == config.ms_lag == 1
    assert em.n_iter == bundle.em.n_iter == old["n_iter"]
    assert em.loglik == bundle.em.loglik == old["probabilities"]["loglik"]
    buf = io.StringIO()
    write_json(to_json(em), buf)
    assert buf.getvalue() == new_text


def test_linear_ms_model_is_the_jittered_restart_loop_byte_for_byte(analyzed):
    """An all-linear spec has no perceptron stage: its ms_model.json is the
    best of the seeded jittered restarts (``oracles.seed_em_fit``), byte
    for byte."""
    config, bundle = analyzed
    spec = MsSpec(config.ms_lag, config.ms_families, config.ms_hidden)
    assert set(spec.families) == {"linear"}
    want = seed_em_fit(spec, bundle.spread.values, seed=config.ms_seed, tol=config.ms_tol,
                       max_iter=config.ms_max_iter, n_restarts=config.ms_restarts)
    buf = io.StringIO()
    write_json(to_json(want), buf)
    assert (Path(config.outdir) / "ms_model.json").read_text() == buf.getvalue()


def test_load_bundle_reads_a_segmentation_that_stores_penalty_used(analyzed, tmp_path):
    """A segmentation_*.json written when the record kept the selection
    threshold a second time, as penalty_used, loads; the extra key is ignored."""
    config, _ = analyzed
    run = tmp_path / "run"
    shutil.copytree(config.outdir, run)
    path = run / "segmentation_mean.json"
    new_text = path.read_text()
    record = json.loads(new_text)
    assert "penalty_used" not in record
    record["penalty_used"] = record["selection"]["threshold"]
    path.write_text(json.dumps(record))
    loaded = load_bundle(run)
    buf = io.StringIO()
    write_json(loaded.segmentations["mean"].to_dict(labels=_week_labels(loaded)), buf)
    assert buf.getvalue() == new_text


@pytest.mark.parametrize("hpl", [{}, {"include_hpl": False, "hpl_kind": "ratio"}])
def test_load_bundle_reloads_features_exactly(sim_dataset, tmp_path, hpl):
    config = fast_config(input=str(sim_dataset), outdir=str(tmp_path), run_som=False,
                         run_ms=False, run_cpd=False, **hpl)
    saved = run_analyze(config).features
    loaded = load_bundle(tmp_path).features
    assert [f.name for f in dataclasses.fields(saved)] == ["table", "hpl", "standardized"]
    assert_tables_equal(loaded.table, saved.table)
    for name in ("hpl", "standardized"):
        want, got = getattr(saved, name), getattr(loaded, name)
        assert np.array_equal(got, want) and got.dtype == want.dtype, name
    # the flags come from the manifest's config, so no features.json is written
    assert not (tmp_path / "features.json").exists()


@pytest.mark.parametrize("overrides", [
    {"spread_aggregation": "per_day"},
    {"include_hpl": False, "hpl_kind": "ratio"},
    {"som_rows": 3, "som_cols": 4, "n_classes": 4},
], ids=["per_day", "no_hpl", "grid_3x4"])
def test_load_bundle_rebuilds_the_periodization_exactly(sim_dataset, tmp_path, overrides):
    """The periodization comes back from the features and som_grid.json as
    the record analyze held."""
    config = fast_config(input=str(sim_dataset), outdir=str(tmp_path), run_ms=False,
                         run_cpd=False, **overrides)
    saved = run_analyze(config).classification
    assert to_json(load_bundle(tmp_path).classification) == to_json(saved)


@pytest.mark.parametrize("aggregation", SPREAD_AGGREGATIONS)
def test_load_bundle_rebuilds_the_spread_exactly(tmp_path, aggregation):
    """The spread comes back from features.csv and the manifest's config as
    the SpreadSeries analyze held, on an input with imputed cells; spread.json
    is its export, text for text."""
    data = tmp_path / "data.csv"
    data.write_text(make_csv(synthetic_rows(12, seed=4, missing={(3, 0), (4, 5)})))
    config = RunConfig(input=str(data), outdir=str(tmp_path / "out"), run_som=False,
                       run_ms=False, run_cpd=False, spread_aggregation=aggregation)
    bundle = run_analyze(config)
    assert bundle.manifest["ingest"]["n_imputed"] == 2
    saved, loaded = bundle.spread, load_bundle(config.outdir).spread
    for f in dataclasses.fields(saved):
        want, got = getattr(saved, f.name), getattr(loaded, f.name)
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want) and got.dtype == want.dtype, f.name
        else:
            assert got == want and type(got) is type(want), f.name
    buf = io.StringIO()
    write_json(to_json(loaded), buf)
    assert buf.getvalue() == (Path(config.outdir) / "spread.json").read_text()


REPORT_FILES = ("class_table.csv", "class_means.csv", "aligned_series.csv")


def _report_files(run):
    """Run ``bimetal report`` on ``run``; the bytes of each file it writes."""
    assert main(["report", "--outdir", str(run)]) == 0
    return {name: (run / name).read_bytes() for name in REPORT_FILES}


def test_report_on_an_outdir_with_features_json_writes_the_same_files(analyzed, tmp_path):
    """An outdir written when the features artifact also kept its flags in
    features.json, listed as the manifest entry's "json", loads with that
    file ignored."""
    config, _ = analyzed
    new, old = tmp_path / "new", tmp_path / "old"
    shutil.copytree(config.outdir, new)
    shutil.copytree(config.outdir, old)
    manifest = json.loads((old / "manifest.json").read_text())
    assert manifest["artifacts"][0] == {"name": "features", "path": "features.csv"}
    manifest["artifacts"][0]["json"] = "features.json"
    write_json(manifest, old / "manifest.json")
    write_json({"include_hpl": config.include_hpl, "hpl_kind": config.hpl_kind},
               old / "features.json")
    assert _report_files(old) == _report_files(new)


def test_report_on_an_outdir_whose_config_has_input_outdir_and_sim_keys(analyzed, tmp_path):
    """A manifest written when its config also held input, outdir and the
    sim_* keys loads, and report writes the same files."""
    config, _ = analyzed
    new, old = tmp_path / "new", tmp_path / "old"
    shutil.copytree(config.outdir, new)
    shutil.copytree(config.outdir, old)
    manifest = json.loads((old / "manifest.json").read_text())
    assert not {"input", "outdir", "sim_T"} & set(manifest["config"])
    manifest["config"].update(input=config.input, outdir=config.outdir, sim_T=config.sim_T)
    write_json(manifest, old / "manifest.json")
    assert load_bundle(old).manifest["config"]["sim_T"] == config.sim_T
    assert _report_files(old) == _report_files(new)


def test_report_does_not_read_spread_json(analyzed, tmp_path):
    """spread.json is an export: the spread is rebuilt from features.csv, so
    a spread.json whose week indices lost an entry changes no report file."""
    config, _ = analyzed
    intact, cut = tmp_path / "intact", tmp_path / "cut"
    shutil.copytree(config.outdir, intact)
    shutil.copytree(config.outdir, cut)
    record = json.loads((cut / "spread.json").read_text())
    del record["t_index"][-1]
    write_json(record, cut / "spread.json")
    assert _report_files(cut) == _report_files(intact)


def test_load_bundle_missing_manifest(tmp_path):
    with pytest.raises(DataError, match="manifest"):
        load_bundle(tmp_path)


def _unknown_mean_kind(text):
    d = json.loads(text)
    d["params"]["means"][0]["kind"] = "spline"
    return json.dumps(d)


def _include_hpl_as_string(text):
    d = json.loads(text)
    d["config"]["include_hpl"] = "yes"
    return json.dumps(d)


def _spread_aggregation_weekly(text):
    d = json.loads(text)
    d["config"]["spread_aggregation"] = "weekly"
    return json.dumps(d)


def _hpl_kind_unknown(text):
    d = json.loads(text)
    d["config"]["hpl_kind"] = "log"
    return json.dumps(d)


def _without_config(text):
    d = json.loads(text)
    del d["config"]
    return json.dumps(d)


def _truncated(text):
    return text[: len(text) // 2]


def _converged_as_string(text):
    d = json.loads(text)
    d["converged"] = "true"
    return json.dumps(d)


def _class_counts_as_strings(text):
    d = json.loads(text)
    d["class_counts"] = {k: str(v) for k, v in d["class_counts"].items()}
    return json.dumps(d)


def _class_means_null(text):
    d = json.loads(text)
    d["class_means"] = None
    return json.dumps(d)


def _class_count_dropped(text):
    d = json.loads(text)
    del d["class_counts"][next(iter(d["class_counts"]))]
    return json.dumps(d)


def _class_means_empty(text):
    d = json.loads(text)
    d["class_means"] = {}
    return json.dumps(d)


def _weeks_outside_the_classes(text):
    d = json.loads(text)
    d["week_to_class"] = [99] * len(d["week_to_class"])
    return json.dumps(d)


def _intervals_rewritten(text):
    d = json.loads(text)
    d["intervals"] = [[0, len(d["week_to_class"]) - 1, 1]]
    return json.dumps(d)


def _tau_past_the_end(text):
    d = json.loads(text)
    d["tau"] = [100000]
    return json.dumps(d)


def _tau_negative(text):
    d = json.loads(text)
    d["tau"] = [-3]
    return json.dumps(d)


def _probabilities_of_a_longer_series(text):
    d = json.loads(text)
    for key in ("filtered", "smoothed"):
        d["probabilities"][key] += d["probabilities"][key][:20]
    return json.dumps(d)


def _probabilities_of_a_third_regime(text):
    d = json.loads(text)
    for key in ("filtered", "smoothed"):
        d["probabilities"][key] = [row + [0.0] for row in d["probabilities"][key]]
    return json.dumps(d)


def _probabilities_from_past_the_lag(text):
    d = json.loads(text)
    for key in ("filtered", "smoothed"):
        del d["probabilities"][key][0]
    return json.dumps(d)


def _last_row_cut_short(text):
    return text.rstrip("\n").rsplit(",", 1)[0] + "\n"


def _last_rows_dropped(text):
    return "".join(text.splitlines(keepends=True)[:-30])


@pytest.mark.parametrize("filename, corrupt", [
    ("ms_model.json", _unknown_mean_kind),
    ("som_grid.json", _truncated),
    ("manifest.json", _truncated),
    ("manifest.json", _include_hpl_as_string),
    ("manifest.json", _spread_aggregation_weekly),
    ("manifest.json", _hpl_kind_unknown),
    ("manifest.json", _without_config),
    ("features.csv", _last_row_cut_short),
    ("features.csv", _last_rows_dropped),
    ("ms_model.json", _converged_as_string),
    ("ms_model.json", _probabilities_of_a_longer_series),
    ("ms_model.json", _probabilities_of_a_third_regime),
    ("ms_model.json", _probabilities_from_past_the_lag),
    ("segmentation_mean.json", _tau_past_the_end),
    ("segmentation_meanvar.json", _tau_negative),
])
def test_report_on_malformed_artifact_is_data_error(analyzed, tmp_path, capsys,
                                                    filename, corrupt):
    config, _ = analyzed
    run = tmp_path / "run"
    shutil.copytree(config.outdir, run)
    path = run / filename
    path.write_text(corrupt(path.read_text()))
    assert main(["report", "--outdir", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: malformed artifact")
    assert {p.name for p in run.iterdir() if p.name in err} == {filename}


@pytest.mark.parametrize("corrupt", [
    _class_counts_as_strings, _class_means_null, _class_count_dropped,
    _class_means_empty, _weeks_outside_the_classes, _intervals_rewritten,
])
def test_report_does_not_read_periodization_json(analyzed, tmp_path, corrupt):
    """periodization.json is an export: the periodization is rebuilt from the
    features and som_grid.json, so a corrupted copy changes no report file."""
    config, _ = analyzed
    intact, corrupted = tmp_path / "intact", tmp_path / "corrupted"
    shutil.copytree(config.outdir, intact)
    shutil.copytree(config.outdir, corrupted)
    path = corrupted / "periodization.json"
    path.write_text(corrupt(path.read_text()))
    assert _report_files(corrupted) == _report_files(intact)


def test_report_on_a_grid_of_another_dimension_is_data_error(analyzed, sim_dataset,
                                                             tmp_path, capsys):
    """A som_grid.json trained without the hpl pair has 12 dimensions, the
    run's features 14: report exits 2 and names that file alone."""
    config, _ = analyzed
    nohpl = fast_config(input=str(sim_dataset), outdir=str(tmp_path / "nohpl"),
                        include_hpl=False, hpl_kind="ratio", run_ms=False, run_cpd=False)
    run_analyze(nohpl)
    run = tmp_path / "run"
    shutil.copytree(config.outdir, run)
    shutil.copy(tmp_path / "nohpl" / "som_grid.json", run)
    assert main(["report", "--outdir", str(run)]) == 2
    assert capsys.readouterr().err == (
        f"data error: malformed artifact {run / 'som_grid.json'}: "
        "dimension mismatch: data dim 14, grid dim 12\n"
    )


def _transition_outside_0_1(d):
    d["params"]["transition"] = [[1.7, 0.3], [-0.7, 0.7]]


def _negative_sigma(d):
    d["params"]["sigmas"][0] = -1


def _tiled_grid(d, rows, cols):
    """A grid of rows x cols nodes whose code vectors repeat the trained ones."""
    d.update(rows=rows, cols=cols, code_vectors=[
        d["code_vectors"][i % len(d["code_vectors"])] for i in range(rows * cols)])


@pytest.mark.parametrize("filename, edit, message", [
    ("ms_model.json", _transition_outside_0_1, r"strictly inside \(0, 1\)"),
    ("ms_model.json", _negative_sigma, "sigmas must be strictly positive"),
    ("som_grid.json", lambda d: d.update(rows=4), "rows=4 x cols=3 has 12 nodes but 9 "),
    ("som_grid.json", lambda d: d.update(rows=2), "rows=2 x cols=3 has 6 nodes but 9 "),
    ("som_grid.json", lambda d: d.update(rows=0), "rows=0 x cols=3: each must be >= 1"),
    ("som_grid.json", lambda d: _tiled_grid(d, 33, 32),
     "rows=33 x cols=32 has 1056 nodes, more than the 1024 "),
], ids=["transition", "sigma", "rows-4", "rows-2", "rows-0", "rows-33-cols-32"])
def test_load_bundle_refuses_a_record_that_does_not_build(analyzed, tmp_path, capsys,
                                                          filename, edit, message):
    """A hand-edited ms_model.json whose params are not a switching model, or a
    som_grid.json whose rows x cols is not its count of code vectors, is a
    malformed artifact: report exits 2 with one line naming the file."""
    config, _ = analyzed
    run = tmp_path / "run"
    shutil.copytree(config.outdir, run)
    path = run / filename
    d = json.loads(path.read_text())
    edit(d)
    path.write_text(json.dumps(d))
    with pytest.raises(DataError, match=f"malformed artifact {path}: .*{message}"):
        load_bundle(run)
    assert main(["report", "--outdir", str(run)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"data error: malformed artifact {path}: ")


def test_report_on_a_grid_at_the_node_ceiling(analyzed, tmp_path):
    config, _ = analyzed
    run = tmp_path / "run"
    shutil.copytree(config.outdir, run)
    d = json.loads((run / "som_grid.json").read_text())
    _tiled_grid(d, 32, 32)
    (run / "som_grid.json").write_text(json.dumps(d))
    assert load_bundle(run).grid.n_nodes == 1024
    assert main(["report", "--outdir", str(run)]) == 0


@pytest.mark.parametrize("filename, corrupt", [
    ("ms_model.json", _probabilities_of_a_longer_series),
    ("segmentation_mean.json", _tau_past_the_end),
])
def test_report_checks_an_artifact_listed_before_the_features(analyzed, tmp_path, capsys,
                                                              filename, corrupt):
    config, _ = analyzed
    run = tmp_path / "run"
    shutil.copytree(config.outdir, run)
    path = run / filename
    path.write_text(corrupt(path.read_text()))
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["artifacts"].sort(key=lambda entry: entry["name"] == "features")
    (run / "manifest.json").write_text(json.dumps(manifest))
    assert main(["report", "--outdir", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: malformed artifact {path}: ")


def _loaded_records(run):
    """The JSON text of every record that ``load_bundle`` reads from ``run``."""
    bundle = load_bundle(run)
    return json.dumps(to_json([bundle.features, bundle.spread, bundle.grid,
                               bundle.classification, bundle.em, bundle.segmentations]))


def test_load_bundle_reads_a_reversed_manifest_alike(analyzed, tmp_path):
    """The records are read features first whatever the manifest's order: a
    manifest that lists its artifacts in reverse loads the same records, and
    report writes the same three files."""
    config, _ = analyzed
    intact, reversed_ = tmp_path / "intact", tmp_path / "reversed"
    shutil.copytree(config.outdir, intact)
    shutil.copytree(config.outdir, reversed_)
    manifest = json.loads((reversed_ / "manifest.json").read_text())
    manifest["artifacts"].reverse()
    (reversed_ / "manifest.json").write_text(json.dumps(manifest))
    assert load_bundle(reversed_).artifact_names[0] == "segmentation_meanvar"
    assert _loaded_records(reversed_) == _loaded_records(intact)
    assert _report_files(reversed_) == _report_files(intact)


@pytest.mark.parametrize("artifact", ["som_grid", "ms_model", "segmentation_meanvar"])
def test_report_on_an_artifact_listed_without_the_features_is_data_error(
        analyzed, tmp_path, capsys, artifact):
    """Each of these records is checked against the features, so a manifest
    that lists it without them makes report exit 2 naming its file."""
    config, _ = analyzed
    run = tmp_path / "run"
    shutil.copytree(config.outdir, run)
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["artifacts"] = [e for e in manifest["artifacts"] if e["name"] == artifact]
    (run / "manifest.json").write_text(json.dumps(manifest))
    assert main(["report", "--outdir", str(run)]) == 2
    assert capsys.readouterr().err == (
        f"data error: malformed artifact {run / f'{artifact}.json'}: "
        "the manifest lists no features to check it against\n"
    )


def test_report_on_a_segmentation_of_the_other_mode_is_data_error(analyzed, tmp_path,
                                                                   capsys):
    config, _ = analyzed
    run = tmp_path / "run"
    shutil.copytree(config.outdir, run)
    shutil.copy(run / "segmentation_meanvar.json", run / "segmentation_mean.json")
    assert main(["report", "--outdir", str(run)]) == 2
    assert capsys.readouterr().err == (
        f"data error: malformed artifact {run / 'segmentation_mean.json'}: "
        "ValueError('mode meanvar, not mean')\n"
    )


def test_report_on_features_written_before_the_table_format_is_data_error(
        analyzed, tmp_path, capsys):
    """An outdir written when features.csv held the hpl and std_* columns,
    and features.json the names and the standardization, makes report exit
    2 with an error naming features.csv."""
    config, bundle = analyzed
    run = tmp_path / "run"
    shutil.copytree(config.outdir, run)
    assert config.include_hpl  # so the standardized columns are RAW_COLUMNS
    fs = bundle.features
    raw = np.hstack([fs.table.values, fs.hpl])
    write_table(
        run / "features.csv",
        ["year", "week", *RAW_COLUMNS, *(f"std_{name}" for name in RAW_COLUMNS)],
        [fs.table.years, fs.table.weeks, *np.hstack([raw, fs.standardized]).T],
    )
    write_json({"feature_names": list(RAW_COLUMNS), "means": raw.mean(axis=0).tolist(),
                "stds": raw.std(axis=0).tolist(), "include_hpl": config.include_hpl,
                "hpl_kind": config.hpl_kind}, run / "features.json")
    assert main(["report", "--outdir", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: malformed artifact {run / 'features.csv'}: ")
    assert "features.json" not in err


def test_features_csv_of_an_input_without_gaps_is_the_input(analyzed, sim_dataset):
    """features.csv is the imputed table in the ingestion format, so a
    simulated input, which has no gaps, comes back byte for byte."""
    config, bundle = analyzed
    assert bundle.manifest["ingest"]["n_imputed"] == 0
    assert (Path(config.outdir) / "features.csv").read_bytes() == sim_dataset.read_bytes()


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_files(analyzed):
    config, bundle = analyzed
    paths = run_report(bundle)
    table = Path(paths["class_table"]).read_text().splitlines()
    assert table[0] == "class,n_obs,pct_regime1,spread_std"
    assert len(table) == bundle.classification.k + 1
    # rows like "1,483,0.733,0.053": int, int, 3-decimal floats
    first = table[1].split(",")
    assert len(first) == 4
    int(first[0]), int(first[1])
    assert len(first[2].split(".")[1]) == 3

    means = Path(paths["class_means"]).read_text().splitlines()
    assert means[0].startswith("class,n_weeks,poa_t,")
    assert len(means) == bundle.classification.k + 1

    aligned = Path(paths["aligned_series"]).read_text().splitlines()
    assert aligned[0] == "week,spread,p_regime1,cp_mean,cp_meanvar"
    assert len(aligned) == len(bundle.spread) + 1
    rows = [line.split(",") for line in aligned[1:]]
    assert all(len(r) == 5 for r in rows)
    # indicator columns contain exactly the detected change-point counts
    assert sum(int(r[3]) for r in rows) == bundle.segmentations["mean"].n_change_points
    assert sum(int(r[4]) for r in rows) == bundle.segmentations["meanvar"].n_change_points
    # probability blank during the conditioning lag, filled afterwards
    lag = bundle.em.params.lag
    assert all(r[2] == "" for r in rows[:lag])
    assert all(r[2] != "" for r in rows[lag:])
    # every float cell reads back bit for bit
    np.testing.assert_array_equal([float(r[1]) for r in rows], bundle.spread.values)
    np.testing.assert_array_equal([float(r[2]) for r in rows[lag:]],
                                  bundle.em.probabilities.smoothed[:, 0])
    c = bundle.classification
    header = means[0].split(",")
    for line in means[1:]:
        cls, n_weeks, *cells = line.split(",")
        assert int(n_weeks) == c.class_counts[int(cls)]
        assert [float(x) for x in cells] == [c.class_means[int(cls)][v] for v in header[2:]]


def test_report_after_per_day_analyze(sim_dataset, tmp_path):
    out = tmp_path / "per_day"
    config = fast_config(input=str(sim_dataset), outdir=str(out),
                         spread_aggregation="per_day")
    bundle = run_analyze(config)
    n_weeks = bundle.manifest["n_weeks"]
    assert len(bundle.spread) == 2 * n_weeks
    assert main(["report", "--outdir", str(out)]) == 0

    # each week's two observations count in its class
    table = (out / "class_table.csv").read_text().splitlines()[1:]
    counts = bundle.classification.class_counts
    assert [int(row.split(",")[1]) for row in table] == \
        [2 * counts[c] for c in sorted(counts)]
    aligned = (out / "aligned_series.csv").read_text().splitlines()
    assert len(aligned) == 2 * n_weeks + 1
    assert aligned[1].split(",")[0] == aligned[2].split(",")[0]  # same week


def test_report_after_a_lag_two_analyze(sim_dataset, tmp_path):
    """With lag 2 the first two observations only condition the model: their
    p_regime1 cells are blank, and pct_regime1 counts the observations from
    index 2 on."""
    out = tmp_path / "lag2"
    run_analyze(fast_config(input=str(sim_dataset), outdir=str(out), ms_lag=2))
    assert main(["report", "--outdir", str(out)]) == 0
    bundle = load_bundle(out)
    smoothed = bundle.em.probabilities.smoothed
    assert smoothed.shape == (len(bundle.spread) - 2, 2)

    aligned = (out / "aligned_series.csv").read_text().splitlines()[1:]
    cells = [line.split(",")[2] for line in aligned]
    assert cells[:2] == ["", ""]
    np.testing.assert_array_equal([float(c) for c in cells[2:]], smoothed[:, 0])

    obs_class = bundle.classification.week_to_class[bundle.spread.t_index][2:]
    regime1 = smoothed[:, 0] > 0.5
    rows = [line.split(",") for line in
            (out / "class_table.csv").read_text().splitlines()[1:]]
    assert [r[2] for r in rows] == [
        f"{regime1[obs_class == int(r[0])].mean():.3f}" for r in rows
    ]


def _class_table(tmp_path, week_to_class, values, p_regime1, per_day=False):
    """The class_table.csv rows that report writes for a hand-built bundle:
    one spread observation per week (two with ``per_day``), and P(regime 1)
    for the observations from the first on (the lag, 1, conditions)."""
    n = len(week_to_class)
    table = QuotationTable(years=np.full(n, 1821), weeks=np.arange(1, n + 1),
                           values=np.ones((n, len(VALUE_COLUMNS))))
    spread = SpreadSeries(t_index=np.repeat(np.arange(n), 2 if per_day else 1),
                          values=np.asarray(values, dtype=float))
    counts = dict(Counter(week_to_class))
    classification = MacroClassification(
        k=len(counts), node_to_class=np.array(sorted(counts)), linkage_history=(),
        week_to_class=np.array(week_to_class), class_means={c: {"x0": 0.0} for c in counts},
        intervals=(), class_counts=counts,
    )
    p = np.column_stack([p_regime1, 1.0 - np.asarray(p_regime1, dtype=float)])
    probs = RegimeProbabilities(filtered=p, smoothed=p)
    no_change = SimpleNamespace(tau=())
    bundle = AnalysisBundle(
        outdir=tmp_path, manifest={"artifacts": []},
        features=SimpleNamespace(table=table), spread=spread, classification=classification,
        em=SimpleNamespace(params=SimpleNamespace(lag=1), probabilities=probs),
        segmentations={"mean": no_change, "meanvar": no_change},
    )
    run_report(bundle)
    header, *rows = (tmp_path / "class_table.csv").read_text().splitlines()
    assert header == "class,n_obs,pct_regime1,spread_std"
    return rows


def test_class_table_all_regime_one(tmp_path):
    rows = _class_table(tmp_path, [1, 1, 1, 2, 2, 2, 3, 3, 3],
                        np.linspace(0.1, 0.9, 9), np.ones(8))
    # each class's spread is three steps of 0.1 apart: std sqrt(2/3) * 0.1
    assert rows == ["1,3,1.000,0.082", "2,3,1.000,0.082", "3,3,1.000,0.082"]


def test_class_table_constant_spread_zero_std(tmp_path):
    rows = _class_table(tmp_path, [1] * 6, np.full(6, 0.25), np.zeros(5))
    assert rows == ["1,6,0.000,0.000"]


def test_class_table_share_of_a_class_without_probabilities_is_nan(tmp_path):
    rows = _class_table(tmp_path, [1, 2, 2, 2], [0.3, 0.1, 0.2, 0.3], [1.0, 0.2, 0.7])
    assert rows == ["1,1,nan,0.000", "2,3,0.667,0.082"]


def test_class_table_per_day_observations_take_their_weeks_class(tmp_path):
    # three weeks, two observations each (Tuesday, Friday)
    rows = _class_table(tmp_path, [1, 2, 2], [0.1, 0.3, 0.2, 0.2, 0.5, 0.5],
                        [1, 1, 0, 0, 0], per_day=True)
    # class 1: only the Friday has a probability; class 2: one of four in regime 1
    assert rows == ["1,2,1.000,0.100", "2,4,0.250,0.150"]


@pytest.mark.parametrize("artifact, stage", [
    ("spread", "ingest"),
    ("periodization", "som"),
    ("ms_model", "ms"),
    ("segmentation_mean", "cpd"),
    ("segmentation_meanvar", "cpd"),
])
def test_report_missing_artifact_names_stage(analyzed, tmp_path, artifact, stage):
    config, bundle = analyzed
    held = dict(
        spread=bundle.spread, classification=bundle.classification, em=bundle.em,
        segmentations=dict(bundle.segmentations),
    )
    if artifact.startswith("segmentation_"):
        del held["segmentations"][artifact.removeprefix("segmentation_")]
    else:
        held[{"periodization": "classification", "ms_model": "em"}.get(artifact, artifact)] = None
    partial = AnalysisBundle(outdir=tmp_path, manifest={"artifacts": []}, **held)
    with pytest.raises(DataError) as err:
        run_report(partial)
    assert str(err.value) == (
        f"missing artifact {artifact!r}: run the {stage} stage of analyze first"
    )
    assert not any(tmp_path.iterdir())  # nothing written before the check


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_ingest_ok(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text(make_csv(synthetic_rows(10, seed=1)))
    code = main(["ingest", "--input", str(data), "--outdir", str(tmp_path / "out")])
    assert code == 0
    assert capsys.readouterr().out == (
        f"10 weeks ingested (0 cells imputed) -> {tmp_path / 'out'}\n"
    )


def test_cli_ingest_is_analyze_with_no_stages(tmp_path):
    """Both commands write the same files, manifest included, byte for byte."""
    data = tmp_path / "data.csv"
    data.write_text(make_csv(synthetic_rows(10, seed=1)))
    out = tmp_path / "out"
    argv = ["--input", str(data), "--outdir", str(out)]

    def snapshot():
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    assert main(["ingest"] + argv) == 0
    ingested = snapshot()
    assert "manifest.json" in ingested
    assert main(["analyze", "--stages", ""] + argv) == 0
    assert snapshot() == ingested


def test_cli_non_utf8_input_is_data_error(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_bytes(b"\xff\xfe" + make_csv(synthetic_rows(3, seed=1)).encode())
    for command in ("ingest", "analyze"):
        code = main([command, "--input", str(data), "--outdir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("data error:") and "not UTF-8 text" in err[0]
        assert len(err) == 1  # no traceback


def test_cli_negative_som_epochs_is_data_error(sim_dataset, tmp_path, capsys):
    code = main(["analyze", "--input", str(sim_dataset), "--stages", "som",
                 "--som-epochs", "-1", "--outdir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["data error: epochs=-1 must be >= 0"]
    assert not (tmp_path / "out" / "som_grid.json").exists()


def test_cli_negative_or_nan_ms_tol_is_data_error(sim_dataset, tmp_path, capsys):
    for tol, shown in (("-1", "-1.0"), ("nan", "nan")):
        out = tmp_path / f"out_{tol}"
        code = main(["analyze", "--input", str(sim_dataset), "--stages", "ms",
                     "--ms-tol", tol, "--outdir", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"data error: tol must be >= 0, got {shown}"]
        assert not (out / "ms_model.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["--stages", "cpd", "--cpd-penalty", "nan"], "penalty must be finite, got nan"),
    (["--stages", "cpd", "--cpd-threshold", "nan"], "threshold must be finite, got nan"),
    (["--stages", "ms", "--ms-tol", "inf"], "tol must be finite, got inf"),
    (["--stages", "cpd", "--cpd-penalty", "-1000"], "penalty must be >= 0, got -1000.0"),
], ids=["cpd-penalty-nan", "cpd-threshold-nan", "ms-tol-inf", "cpd-penalty-negative"])
def test_cli_nonfinite_option_is_data_error(sim_dataset, tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    code = main(["analyze", "--input", str(sim_dataset), "--outdir", str(out)] + argv)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"data error: {message}"]
    assert not list(out.glob("segmentation_*.json")) and not (out / "ms_model.json").exists()


@pytest.mark.parametrize("argv, stage, message, table", [
    (["--som-rows", "40", "--som-cols", "40"], "som",
     "grid rows=40 x cols=40 has 1600 nodes, more than the 1024 (32x32) allowed",
     "som_grid.json"),
    (["--stages", "cpd", "--cpd-k-max", "30000"], "cpd",
     "K_max=30000 needs a 30001 x 151 change-point table, "
     "more than the 4194304 (2**22) cells allowed",
     "segmentation_mean.json"),
], ids=["som-grid", "cpd-k-max"])
def test_cli_setting_past_its_memory_ceiling_is_data_error(sim_dataset, tmp_path, capsys,
                                                          argv, stage, message, table):
    """Each ceiling fails its stage before the table it guards is built: a
    1600-node grid's distance table alone would take 19.5 MiB, and a
    30001 x 151 change-point table 34.6 MiB."""
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(["analyze", "--input", str(sim_dataset), "--outdir", str(out)] + argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("data error: ") and message in err[0] and len(err) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["status"], manifest["failed_stage"]) == ("failed", stage)
    assert not (out / table).exists()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_cli_regime_count_is_the_number_of_families(sim_dataset, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["analyze", "--input", str(sim_dataset), "--outdir", str(out),
                 "--stages", "ms", "--ms-families", "linear,linear,linear",
                 "--ms-restarts", "2", "--ms-max-iter", "3"])
    assert code == 0, capsys.readouterr().err
    model = json.loads((out / "ms_model.json").read_text())
    assert [m["kind"] for m in model["params"]["means"]] == ["linear"] * 3
    assert np.array(model["params"]["transition"]).shape == (3, 3)


def test_cli_series_no_longer_than_the_lag_is_data_error(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text(make_csv(synthetic_rows(3, seed=1)))
    out = tmp_path / "out"
    code = main(["analyze", "--input", str(data), "--stages", "ms", "--ms-lag", "5",
                 "--outdir", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["data error: series of length 3 has no usable steps at lag 5"]
    assert not (out / "ms_model.json").exists()


def test_cli_analyze_without_input_is_data_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["analyze", "--outdir", str(out)]) == 2
    assert capsys.readouterr().err == "data error: no input file configured\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["status"], manifest["failed_stage"]) == ("failed", "ingest")


def test_cli_ingest_duplicate_week(tmp_path, capsys):
    rows = synthetic_rows(3, seed=2)
    rows[2][0], rows[2][1] = rows[1][0], rows[1][1]
    data = tmp_path / "dup.csv"
    data.write_text(make_csv(rows))
    code = main(["ingest", "--input", str(data), "--outdir", str(tmp_path / "out")])
    assert code == 2
    assert "duplicate week 1821/2" in capsys.readouterr().err


def test_cli_ingest_empty_file(tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_text(make_csv([]))
    code = main(["ingest", "--input", str(data), "--outdir", str(tmp_path / "out")])
    assert code == 2
    assert "no data rows" in capsys.readouterr().err


def test_cli_usage_error_exit_code(capsys):
    assert main(["analyze", "--stages", "som,bogus"]) == 1
    assert "unknown stages" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--sim-coefs", "[1,"),
    ("--sim-tau", "166;333"),
])
def test_cli_bad_json_flag_is_usage_error(tmp_path, capsys, flag, value):
    assert main(["simulate", "--outdir", str(tmp_path), flag, value]) == 1
    err = capsys.readouterr().err.splitlines()
    errors = [line for line in err if line.startswith("error:")]
    assert len(errors) == 1 and flag in errors[0]
    assert not any("Traceback" in line for line in err)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("stds, code", [("[0.03,-0.08,0.03]", 2), ("[0,0,0]", 0)])
def test_cli_simulate_steps_std_sign(tmp_path, capsys, stds, code):
    # a zero std gives a constant series; a negative one is a data error
    out = tmp_path / "out"
    assert main(["simulate", "--outdir", str(out), "--sim-kind", "steps",
                 "--sim-T", "60", "--sim-tau", "[20,40]", "--sim-stds", stds]) == code
    err = capsys.readouterr().err.splitlines()
    if code:
        assert err == ["data error: sim_stds [0.03, -0.08, 0.03] must all be >= 0"]
        assert not (out / "dataset.csv").exists()
    else:
        truth = json.loads((out / "dataset_truth.json").read_text())
        assert truth["stds"] == [0, 0, 0]


def test_cli_simulate_intercept_only_coefs_is_data_error(tmp_path, capsys):
    # a regime mean without a lag coefficient has nothing to recurse on
    out = tmp_path / "out"
    assert main(["simulate", "--outdir", str(out), "--sim-coefs", "[[0.1],[0.2]]"]) == 2
    assert capsys.readouterr().err.splitlines() == ["data error: lag must be >= 1"]
    assert not (out / "dataset.csv").exists()


@pytest.mark.parametrize("argv", [
    ["--sim-coefs", "[[0.1],[0.2]]"],
    ["--sim-kind", "steps", "--sim-tau", "[100,50]"],
    ["--sim-kind", "steps", "--sim-stds", "[0.03,-0.08,0.03]"],
    # an infinite level and std draw inf - inf, NaN, where the std's normal is
    # negative; finite ones of 1e308 draw sums past the float range
    ["--sim-kind", "steps", "--sim-levels", "[1e999,1,1]", "--sim-stds", "[1e999,0.08,0.03]"],
    ["--sim-kind", "steps", "--sim-levels", "[1e308,1,1]", "--sim-stds", "[1e308,0.08,0.03]"],
], ids=["intercept-only", "tau-decreasing", "negative-std", "steps-infinite",
        "steps-overflow"])
def test_cli_refused_simulate_leaves_no_directory(tmp_path, capsys, argv):
    out = tmp_path / "x" / "y"
    assert main(["simulate", "--outdir", str(out), *argv]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("data error: ")
    assert not (tmp_path / "x").exists()


def test_cli_simulate_explosive_coefs_is_data_error(tmp_path, capsys):
    """A lag coefficient of 3 in both regimes multiplies the series by about
    3 a step, past the float range within the 700 steps drawn: refused
    before anything is written, and without a numpy overflow warning. A
    lag coefficient above 1 in one regime only keeps the series finite."""
    out = tmp_path / "out"
    assert main(["simulate", "--outdir", str(out),
                 "--sim-coefs", "[[0.1,3.0],[0.2,3.0]]"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "data error: the simulated regimes spread is not finite"
    ]
    assert not out.exists()
    assert main(["simulate", "--outdir", str(out),
                 "--sim-coefs", "[[0.05,1.1],[0.18,0.3]]"]) == 0
    assert (out / "dataset.csv").exists()


def test_cli_ingest_of_prices_whose_variance_overflows_is_data_error(sim_dataset, tmp_path,
                                                                     capsys):
    """A lag coefficient of 2.5 in both regimes keeps 200 weeks finite, with
    prices up to about 1e158, whose squares pass the float range: simulate
    refuses them as outside a quotation's domain and writes nothing, and
    ingest refuses such a price on the line that holds it, without a numpy
    overflow warning, and records the failed stage."""
    sim, out = tmp_path / "sim", tmp_path / "out"
    assert main(["simulate", "--outdir", str(sim), "--sim-coefs", "[[0.1,2.5],[0.2,2.5]]",
                 "--sim-T", "200"]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("data error: week 1821/01: price ")
    assert line.endswith(" in column lgs_t is outside [1e-73, 1e+73]")
    assert not sim.exists()

    lines = sim_dataset.read_text().splitlines(keepends=True)
    row = lines[3].split(",")
    row[HEADER.index("lgs_t")] = "1e158"
    lines[3] = ",".join(row)
    (tmp_path / "huge.csv").write_text("".join(lines))
    assert main(["ingest", "--input", str(tmp_path / "huge.csv"), "--outdir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "data error: line 4: price 1e158 in column lgs_t is outside [1e-73, 1e+73]"
    ]
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["status"], manifest["failed_stage"]) == ("failed", "ingest")


def _price_cell(x):
    """The text of 10**x as a mantissa and an exponent, which parses to 0.0
    or inf past the float range with no float arithmetic overflowing."""
    e = math.floor(x)
    return f"{10 ** (x - e)!r}e{e}"


@st.composite
def _quotation_csv(draw):
    """A table of 1 to 30 weeks whose prices are 10**x, x uniform over the
    whole float range, 0 and inf included, or, in about half the tables,
    over the price domain only, so that the arithmetic past parsing is
    reached; one cell in twenty is left empty."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, hi = [(-330, 309), (math.log10(PRICE_MIN), math.log10(PRICE_MAX))][rng.integers(2)]
    n = draw(st.integers(1, 30))
    cells = [_price_cell(x) for x in rng.uniform(lo, hi, n * len(VALUE_COLUMNS)).tolist()]
    empty = rng.random(len(cells)) < 0.05
    cells = np.where(empty, "", cells).reshape(n, -1).tolist()
    return make_csv([[1821, week, *row] for week, row in enumerate(cells, start=1)])


def _poa_lgs_csv(price):
    """Three plausible weeks, the second with poa_t = lgs_t = ``price``."""
    rows = synthetic_rows(3)
    rows[1][2 + VALUE_COLUMNS.index("poa_t")] = rows[1][2 + VALUE_COLUMNS.index("lgs_t")] = price
    return make_csv(rows)


# their sum overflows; the ratio hpl of their mean overflows
@example(text=_poa_lgs_csv("1.5e308"))
@example(text=_poa_lgs_csv("1e-310"))
@settings(max_examples=40, deadline=None)
@given(text=_quotation_csv())
def test_cli_ingest_of_any_prices_exits_0_or_2_without_a_warning(text):
    # a temporary directory per example: tmp_path is one per test function
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_text(text)
        for flags in (["--hpl-kind", "difference"], ["--hpl-kind", "ratio"], ["--no-hpl"]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["ingest", "--input", str(path), "--outdir", tmp, *flags])
            assert code in (0, 2), err.getvalue()
            assert not [line for line in err.getvalue().splitlines()
                        if line.startswith("warning:")]


@pytest.mark.parametrize("command, flag", [
    ("ingest", "--max-gap"),
    ("analyze", "--som-seed"),
    ("analyze", "--ms-seed"),
    ("simulate", "--sim-seed"),
])
def test_cli_negative_gap_or_seed_is_data_error(sim_dataset, tmp_path, capsys, command,
                                                flag):
    out = tmp_path / "out"
    given = [] if command == "simulate" else ["--input", str(sim_dataset)]
    assert main([command, *given, flag, "-1", "--outdir", str(out)]) == 2
    key = flag[2:].replace("-", "_")
    assert capsys.readouterr().err.splitlines() == [
        f"data error: config key {key!r}: -1 must be >= 0"
    ]
    assert not out.exists()  # refused before any stage ran


def test_cli_full_workflow(tmp_path, capsys, monkeypatch):
    out = tmp_path / "work"
    assert main(["simulate", "--outdir", str(out), "--sim-T", "140",
                 "--sim-seed", "5"]) == 0
    config = {
        "input": str(out / "dataset.csv"),
        "som_epochs": 8, "som_rows": 3, "som_cols": 3, "n_classes": 3,
        "ms_families": ["linear", "linear"], "ms_restarts": 2,
        "ms_max_iter": 30, "ms_tol": 1e-5, "cpd_k_max": 6,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    # outdir comes from the environment when the flag is absent
    monkeypatch.setenv("BIMETAL_OUTPUT_DIR", str(out))
    assert main(["analyze", "--config", str(cfg_path)]) == 0
    captured = capsys.readouterr().out
    assert "7 artifacts" in captured
    assert main(["report", "--outdir", str(out)]) == 0
    assert (out / "aligned_series.csv").exists()


def test_cli_analyze_warns_when_em_does_not_converge(sim_dataset, tmp_path, capsys):
    base = ["analyze", "--input", str(sim_dataset), "--stages", "ms",
            "--ms-families", "linear,linear", "--ms-restarts", "2"]
    assert main(base + ["--outdir", str(tmp_path / "capped"),
                        "--ms-max-iter", "2"]) == 0
    captured = capsys.readouterr()
    assert "analysis complete: 3 artifacts" in captured.out
    assert "warning" not in captured.out
    assert ("warning: EM did not converge: the best restart stopped at n_iter=3"
            in captured.err.splitlines())

    assert main(base + ["--outdir", str(tmp_path / "free"),
                        "--ms-max-iter", "200"]) == 0
    bundle = load_bundle(tmp_path / "free")
    assert bundle.em.converged
    assert "did not converge" not in capsys.readouterr().err


def test_cli_analyze_warns_on_collapsed_restarts(sim_dataset, tmp_path, capsys,
                                                  monkeypatch):
    from bimetal import switching

    real = switching._em_single
    calls = []

    def collapse_first(*args):
        calls.append(1)
        if len(calls) == 1:
            raise switching._DegenerateRestart("regime 2 holds 0.5 observation-equivalents")
        return real(*args)

    monkeypatch.setattr(switching, "_em_single", collapse_first)
    assert main(["analyze", "--input", str(sim_dataset), "--stages", "ms",
                 "--ms-families", "linear,linear", "--ms-restarts", "3",
                 "--outdir", str(tmp_path / "out")]) == 0
    assert "warning: 1 of 3 restarts collapsed" in capsys.readouterr().err.splitlines()


@pytest.mark.filterwarnings("default")
def test_cli_shows_a_python_warning_as_one_warning_line(tmp_path, capsys):
    """The short-series UserWarning reads like ``_warn_em``'s lines: no
    category and no source line. Only how it is shown changes: under an
    "error" filter the warning is still raised."""
    run_simulate(RunConfig(outdir=str(tmp_path), sim_T=60, sim_seed=2))
    lines = (tmp_path / "dataset.csv").read_text().splitlines(keepends=True)
    data = tmp_path / "short.csv"
    data.write_text("".join(lines[:31]))
    argv = ["analyze", "--input", str(data), "--stages", "ms",
            "--ms-families", "linear,linear"]
    assert main(argv + ["--outdir", str(tmp_path / "shown")]) == 0
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "series length" in line] == [
        "warning: series length 30 is short for 8 parameters (< 10 per parameter); "
        "estimates may be unstable"
    ]
    assert "UserWarning" not in err and "em_fit(" not in err
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="series length 30 is short"):
            main(argv + ["--outdir", str(tmp_path / "raised")])


def test_cli_analyze_numerical_failure_exits_3(sim_dataset, tmp_path, capsys,
                                                monkeypatch):
    from bimetal import switching

    def collapse(*args):
        raise switching._DegenerateRestart("regime 2 holds 0.5 observation-equivalents")

    monkeypatch.setattr(switching, "_em_single", collapse)
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(sim_dataset), "--stages", "ms",
                 "--ms-families", "linear,linear", "--ms-restarts", "3",
                 "--outdir", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: all restarts degenerate")
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["status"], manifest["failed_stage"]) == ("failed", "ms")


def test_cli_flag_overrides_config_file(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text(make_csv(synthetic_rows(12, seed=4)))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"input": "nonexistent.csv", "max_gap": 1}))
    out = tmp_path / "out"
    code = main(["ingest", "--config", str(cfg_path), "--input", str(data),
                 "--outdir", str(out)])
    assert code == 0
    assert (out / "features.csv").exists()


def test_features_csv_cells_are_the_json_floats(tmp_path):
    """features.csv is the imputed table in the ingestion format: every
    value cell is the repr of one float of the FeatureSet's table, the
    imputed cells included."""
    data = tmp_path / "data.csv"
    data.write_text(make_csv(synthetic_rows(12, seed=4, missing={(3, 0), (4, 5)})))
    out = tmp_path / "out"
    fs = run_analyze(RunConfig(input=str(data), outdir=str(out), run_som=False,
                               run_ms=False, run_cpd=False)).features
    header, *rows = (out / "features.csv").read_text().splitlines()
    assert header.split(",") == list(HEADER)
    assert len(rows) == len(fs)
    for i, line in enumerate(rows):
        cells = line.split(",")
        assert [int(c) for c in cells[:2]] == [fs.table.years[i], fs.table.weeks[i]]
        assert cells[2:] == [repr(v) for v in fs.table.values[i].tolist()]


@pytest.mark.parametrize("key, value", [
    ("spread_aggregation", "weekly"),
    ("hpl_kind", "log"),
    # values of the wrong type for their key
    ("som_rows", "5"),
    ("ms_restarts", 2.5),
    ("ms_families", "mlp"),
    ("include_hpl", "no"),
    # tuple elements of the wrong type, in a config file of simulate
    ("sim_coefs", [1, 2]),
    ("sim_levels", ["a", 1, 2]),
    ("sim_tau", [1.5, 3]),
])
def test_cli_bad_ingest_value_in_config_is_data_error(tmp_path, capsys, key, value):
    data = tmp_path / "data.csv"
    data.write_text(make_csv(synthetic_rows(12, seed=4)))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: value}))
    command = ["simulate"] if key.startswith("sim_") else ["analyze", "--input", str(data)]
    code = main([*command, "--config", str(cfg_path), "--outdir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("data error:") and repr(value) in err[0]
    assert f"config key {key!r}" in err[0]
    assert len(err) == 1  # no traceback
    assert not (tmp_path / "out").exists()  # caught before any stage ran


@pytest.mark.parametrize("command, key, value", [
    ("analyze", "sim_T", 999),
    ("ingest", "sim_seed", 1),
    ("report", "sim_kind", "steps"),
    ("simulate", "som_rows", 9),
    ("simulate", "input", "data.csv"),
])
def test_cli_config_key_of_another_command_is_data_error(tmp_path, capsys, command,
                                                         key, value):
    data = tmp_path / "data.csv"
    data.write_text(make_csv(synthetic_rows(12, seed=4)))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: value}))
    inputs = ["--input", str(data)] if command in ("analyze", "ingest") else []
    code = main([command, "--config", str(cfg_path), *inputs,
                 "--outdir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"data error: config keys [{key!r}] are not read by {command}"]
    assert not (tmp_path / "out").exists()


def test_cli_config_files_hold_the_keys_their_command_reads(tmp_path):
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({"sim_T": 60, "sim_seed": 2, "outdir": str(tmp_path / "sim")}))
    assert main(["simulate", "--config", str(sim_cfg)]) == 0
    data = tmp_path / "sim" / "dataset.csv"
    assert len(data.read_text().splitlines()) == 61
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps({"input": str(data), "outdir": str(tmp_path / "run"),
                                   "som_rows": 2, "som_cols": 2, "n_classes": 2}))
    assert main(["analyze", "--config", str(run_cfg), "--stages", "som"]) == 0


@pytest.mark.parametrize("text", ['{"som_rows": 5,}', "[5]", "\udcff"])
def test_cli_invalid_config_file_is_data_error(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(text.encode("utf-8", "surrogateescape"))
    code = main(["analyze", "--config", str(cfg_path), "--outdir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("data error: invalid config file") and str(cfg_path) in err[0]
    assert len(err) == 1  # no traceback
