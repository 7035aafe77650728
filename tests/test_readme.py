"""The README's code runs as written."""

import re
from pathlib import Path

from bimetal.pipeline import RunConfig
from bimetal.simulate import run_simulate

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_snippet() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_snippet_runs(tmp_path, monkeypatch, capsys):
    # T=200 weeks: the default mlp,linear spec has 16 parameters, and a
    # spread shorter than 10 per parameter draws the short-series warning
    run_simulate(RunConfig(outdir=str(tmp_path), sim_T=200))
    (tmp_path / "dataset.csv").rename(tmp_path / "quotations.csv")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_use_snippet(), str(README), "exec"), namespace)
    assert namespace["grid"].trained_epochs == 100
    assert namespace["fit"].params.n_regimes == 2
    assert len(capsys.readouterr().out.splitlines()) >= 2
