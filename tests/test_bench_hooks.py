"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` replaces functions and methods of bimetal's modules
while a run is traced. Renaming or removing one of them, or calling it other
than through its module attribute, breaks every traced benchmark run; this
test catches that within the unit suite.
"""

import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

from bimetal import pipeline, switching  # noqa: E402
from bimetal.pipeline import RunConfig  # noqa: E402

HOOKS = [(owner, attr) for _, owner, attr in tracing.SPANS + tracing.COUNTERS]
HOOKS.append((switching, "_em_single"))


def test_every_hooked_attribute_exists():
    for owner, attr in HOOKS:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} is gone"


def test_traced_run_fires_every_span_and_uninstall_restores(tmp_path):
    sim = RunConfig(outdir=str(tmp_path / "sim"), sim_T=200, sim_seed=1)
    dataset = pipeline.run_simulate(sim)["dataset"]
    config = RunConfig(
        input=dataset, outdir=str(tmp_path / "run"),
        som_rows=3, som_cols=3, som_epochs=3, n_classes=3,
        ms_restarts=2, ms_max_iter=3, cpd_k_max=4,
    )
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in HOOKS]

    tracer = tracing.Tracer(run_id="hooks")
    with tracer:
        for owner, attr, raw in originals:
            assert owner.__dict__[attr] is not raw, f"{attr} not wrapped"
        bundle = pipeline.run_analyze(config)
        pipeline.run_report(pipeline.load_bundle(bundle.outdir))

    for owner, attr, raw in originals:
        assert owner.__dict__[attr] is raw, f"{attr} not restored"

    expected = {name for name, _, _ in tracing.SPANS if isinstance(name, str)}
    expected |= {"changepoint.detect.mean", "changepoint.detect.meanvar"}
    fired = {span["name"] for span in tracer.spans}
    assert expected - fired == set()
    assert tracer.counts["regression.MlpMean.loss"] > 0
    # the default mlp,linear spec: the linear-stage restarts, then one
    # perceptron run per assignment of the two fitted regimes
    assert config.ms_families == ("mlp", "linear")
    assert len(tracer.restarts) == config.ms_restarts + 2 == len(bundle.em.restart_logliks)


def _assert_leaves_scipy_unimported(code):
    """Run ``code`` in a fresh interpreter and check that it loaded no
    ``scipy`` module."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        + code
        + "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, f'scipy modules were imported: {loaded[:5]}'\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_run_of_every_stage_leaves_scipy_unimported(tmp_path):
    """The benchmark bounds peak memory and import time, and importing
    scipy costs about 0.4 s and 30 MB. The package needs numpy only: an
    analyze with every stage (the SOM stage's Ward linkage and the
    perceptron M-step included), load_bundle and report must load no
    ``scipy`` module."""
    _assert_leaves_scipy_unimported(
        "from bimetal import RunConfig, load_bundle, run_analyze, run_report, run_simulate\n"
        f"sim = run_simulate(RunConfig(outdir={str(tmp_path / 'sim')!r}, sim_T=150))\n"
        "bundle = run_analyze(RunConfig(\n"
        f"    input=sim['dataset'], outdir={str(tmp_path / 'out')!r},\n"
        "    som_rows=3, som_cols=3, som_epochs=3, n_classes=3,\n"
        "    ms_families=('mlp', 'linear'), ms_hidden=2, ms_restarts=2, ms_max_iter=3,\n"
        "    cpd_k_max=4))\n"
        "assert {'periodization', 'ms_model', 'segmentation_meanvar'} <= set(bundle.artifact_names)\n"
        "run_report(load_bundle(bundle.outdir))\n"
    )


def test_report_leaves_scipy_unimported(tmp_path):
    """``bimetal report`` on an outdir of every stage, run as the CLI
    runs it, loads no ``scipy`` module either."""
    sim = RunConfig(outdir=str(tmp_path / "sim"), sim_T=150)
    config = RunConfig(
        input=pipeline.run_simulate(sim)["dataset"], outdir=str(tmp_path / "run"),
        som_rows=3, som_cols=3, som_epochs=3, n_classes=3,
        ms_families=("linear", "linear"), ms_restarts=2, ms_max_iter=3, cpd_k_max=4,
    )
    assert "periodization" in pipeline.run_analyze(config).artifact_names
    _assert_leaves_scipy_unimported(
        "from bimetal.cli import main\n"
        f"assert main(['report', '--outdir', {config.outdir!r}]) == 0\n"
    )
