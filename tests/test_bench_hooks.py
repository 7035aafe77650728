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
        pipeline.run_report(pipeline.load_bundle(pipeline.run_analyze(config).outdir))

    for owner, attr, raw in originals:
        assert owner.__dict__[attr] is raw, f"{attr} not restored"

    expected = {name for name, _, _ in tracing.SPANS if isinstance(name, str)}
    expected |= {"changepoint.detect.mean", "changepoint.detect.meanvar"}
    fired = {span["name"] for span in tracer.spans}
    assert expected - fired == set()
    assert tracer.counts["regression.MlpMean.loss"] > 0
    assert len(tracer.restarts) == config.ms_restarts


def test_em_fit_leaves_scipy_optimize_unimported():
    """The benchmark bounds peak memory and import time; scipy.optimize alone
    would add about 10 MB of peak memory and 150 modules to every run."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import bimetal\n"
        "from bimetal.switching import MsSpec, em_fit\n"
        "y = 1.0 + 0.1 * np.random.default_rng(0).standard_normal(200)\n"
        "spec = MsSpec(n_regimes=2, lag=1, families=('mlp', 'linear'), hidden_units=2)\n"
        "em_fit(spec, y, n_restarts=2, max_iter=3)\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
