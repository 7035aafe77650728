"""Byte check of the CLI's outputs against another commit.

    python tests/bytecheck.py BASE

checks out ``BASE`` (any git revision) with ``git worktree add`` into a
temporary directory, runs one fixed list of CLI calls with that tree's
``src`` on the path, then runs the same list with this working tree's
``src``, each into the same outdir paths of one work directory (the
manifest records the input path as given). For each call it compares every
file under the call's ``--outdir``, stdout, stderr and the exit code, and
prints one line: ``same``, or the names of what differs. It reports and
decides nothing: a change that moves bytes on purpose shows here, and says
why elsewhere. The list takes well under a minute per tree.

Pytest does not collect this file; ``tests/test_bytecheck.py`` runs a short
list twice from this tree.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_MAIN = "import sys; from bimetal.cli import main; sys.exit(main(sys.argv[1:]))"


def _copy(src: str, dst: str):
    """A step that copies a file or a directory of the work directory."""
    def copy(work: Path) -> None:
        if (work / src).is_dir():
            shutil.copytree(work / src, work / dst)
        else:
            shutil.copyfile(work / src, work / dst)
    return copy


def _write(dst: str, text: str):
    """A step that writes ``text`` into a file of the work directory."""
    return lambda work: (work / dst).write_text(text)


def _blank(src: str, dst: str, cells):
    """A step that copies a CSV file with the (line, column) ``cells`` emptied."""
    def blank(work: Path) -> None:
        lines = (work / src).read_text().splitlines(keepends=True)
        for i, j in cells:
            row = lines[i].rstrip("\n").split(",")
            row[j] = ""
            lines[i] = ",".join(row) + "\n"
        (work / dst).write_text("".join(lines))
    return blank


# A short run only checks a code path, so it runs with few epochs and
# iterations.
_QUICK = ["--som-epochs", "2", "--ms-families", "linear,linear", "--ms-max-iter", "3"]

# Each step is a CLI argv, run and compared, or a file step of the work
# directory that the next calls read.
RUNS = [
    # every default: a regimes series (its shift is 0.019), analyze, report
    ["simulate", "--outdir", "sim", "--sim-T", "500", "--sim-seed", "0"],
    ["analyze", "--input", "sim/dataset.csv", "--outdir", "sim/run"],
    ["report", "--outdir", "sim/run"],
    # a steps series at the historical scale, two spreads a week
    ["simulate", "--outdir", "steps3", "--sim-kind", "steps", "--sim-T", "2078",
     "--sim-seed", "3"],
    ["analyze", "--input", "steps3/dataset.csv", "--outdir", "steps3/run",
     "--spread-aggregation", "per_day", "--ms-families", "linear,linear"],
    ["report", "--outdir", "steps3/run"],
    # a large shift, no shift, and four segments, one of them without noise
    ["simulate", "--outdir", "shift", "--sim-T", "300", "--sim-seed", "1",
     "--sim-coefs", "[[-0.3,0.5],[0.2,0.1]]"],
    ["simulate", "--outdir", "noshift", "--sim-T", "300", "--sim-seed", "2",
     "--sim-coefs", "[[0.5,0.5],[0.6,0.3]]"],
    ["simulate", "--outdir", "steps4", "--sim-kind", "steps", "--sim-T", "400",
     "--sim-seed", "4", "--sim-tau", "[100,200,300]",
     "--sim-levels", "[0.1,0.5,0.2,0.4]", "--sim-stds", "[0.03,0.0,0.05,0.02]"],
    # the hpl flags
    ["analyze", "--input", "sim/dataset.csv", "--outdir", "nohpl", "--no-hpl",
     "--hpl-kind", "ratio", *_QUICK],
    ["report", "--outdir", "nohpl"],
    # ingest, without and with imputed cells (one at an edge, one run of two)
    ["ingest", "--input", "sim/dataset.csv", "--outdir", "ingest"],
    _blank("sim/dataset.csv", "gaps.csv", [(1, 3), (40, 5), (41, 5), (300, 13)]),
    ["ingest", "--input", "gaps.csv", "--outdir", "gaps"],
    # the SOM and change-point paths
    ["analyze", "--input", "sim/dataset.csv", "--outdir", "perday_som_cpd",
     "--spread-aggregation", "per_day", "--stages", "som,cpd", "--som-epochs", "10"],
    ["analyze", "--input", "sim/dataset.csv", "--outdir", "grid3x4", "--stages", "som",
     "--som-rows", "3", "--som-cols", "4", "--classes", "4", "--som-epochs", "10"],
    ["simulate", "--outdir", "sim30", "--sim-T", "30"],
    ["analyze", "--input", "sim30/dataset.csv", "--outdir", "grid32", "--stages", "som",
     "--som-rows", "32", "--som-cols", "32", "--som-epochs", "2"],
    ["analyze", "--input", "sim/dataset.csv", "--outdir", "epochs0", "--stages", "som",
     "--som-epochs", "0"],
    ["analyze", "--input", "sim/dataset.csv", "--outdir", "ms3", "--stages", "ms",
     "--ms-families", "linear,linear,linear", "--ms-max-iter", "20"],
    # per_day repeats each weekly spread: every restart collapses (exit 3)
    ["analyze", "--input", "sim/dataset.csv", "--outdir", "perday_ms",
     "--spread-aggregation", "per_day", "--stages", "ms", "--ms-families", "linear,linear"],
    # the data errors (exit 2)
    ["simulate", "--outdir", "bad_tau", "--sim-kind", "steps", "--sim-tau", "[100,50]"],
    ["simulate", "--outdir", "bad_std", "--sim-kind", "steps",
     "--sim-stds", "[0.03,-0.08,0.03]"],
    _write("sim_keys.json", '{"sim_T": 999}'),
    ["analyze", "--config", "sim_keys.json", "--input", "sim/dataset.csv",
     "--outdir", "foreign_key"],
    _copy("sim/run", "swapped"),
    _copy("steps3/run/ms_model.json", "swapped/ms_model.json"),
    ["report", "--outdir", "swapped"],
    _copy("sim/run", "gridswap"),
    _copy("nohpl/som_grid.json", "gridswap/som_grid.json"),
    ["report", "--outdir", "gridswap"],
    ["analyze", "--input", "sim/dataset.csv", "--outdir", "big_grid",
     "--som-rows", "40", "--som-cols", "40"],
    ["analyze", "--input", "sim/dataset.csv", "--outdir", "big_k", "--stages", "cpd",
     "--cpd-k-max", "30000"],
]


def _digests(work: Path, outdir: str) -> dict:
    """The sha256 of every file under ``outdir``, by its path in ``work``;
    none if ``outdir`` does not exist."""
    return {
        str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((work / outdir).rglob("*")) if p.is_file()
    }


def run_list(src, work, steps) -> list[dict]:
    """Run ``steps`` with ``src`` on the path, in a fresh ``work`` directory;
    one record per CLI call: its argv, exit code, stdout, stderr and the
    digests of the files under its ``--outdir``."""
    work = Path(work)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    records = []
    for step in steps:
        if callable(step):
            step(work)
            continue
        done = subprocess.run([sys.executable, "-c", _MAIN, *step], cwd=work, env=env,
                              capture_output=True, timeout=600)
        records.append({"argv": step, "exit": done.returncode, "stdout": done.stdout,
                        "stderr": done.stderr,
                        "files": _digests(work, step[step.index("--outdir") + 1])})
    return records


def compare(base: list[dict], head: list[dict]) -> list[str]:
    """One line per call: its argv, then ``same`` or what differs."""
    lines = []
    for a, b in zip(base, head):
        differs = [key for key in ("exit", "stdout", "stderr") if a[key] != b[key]]
        differs += sorted(name for name in a["files"].keys() | b["files"].keys()
                          if a["files"].get(name) != b["files"].get(name))
        lines.append(f"{shlex.join(a['argv'])}: {', '.join(differs) or 'same'}")
    return lines


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix="bytecheck-") as tmp:
        tree = Path(tmp) / "base"
        subprocess.run(["git", "-C", str(REPO), "worktree", "add", "--detach", "--quiet",
                        str(tree), argv[0]], check=True)
        try:
            base = run_list(tree / "src", Path(tmp) / "work", RUNS)
        finally:
            subprocess.run(["git", "-C", str(REPO), "worktree", "remove", "--force",
                            str(tree)], check=True)
        head = run_list(REPO / "src", Path(tmp) / "work", RUNS)
    for line in compare(base, head):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
