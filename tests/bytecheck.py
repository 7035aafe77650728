"""Byte check of the CLI's outputs against another commit, or across BLAS
kernels.

    python tests/bytecheck.py BASE
    python tests/bytecheck.py --kernels Haswell,Sandybridge

The first form unpacks the ``src`` of ``BASE`` (any git revision) with
``git archive`` into a temporary directory, writing nothing under ``.git``,
runs one fixed list of CLI calls with that ``src`` on the path, then runs
the same list with this working tree's ``src``, each into the same outdir paths of one work directory (the manifest
records the input path as given). For each call it compares the call's
``--outdir`` and every file and directory under it, stdout, stderr and the
exit code, and prints one line: ``same``, or the names of what differs. It
reports and decides nothing: a change that moves bytes on purpose shows
here, and says why elsewhere. The list takes well under a minute per tree.

The second form runs this tree's list natively, then once with each named
``OPENBLAS_CORETYPE`` set on its calls, each run in a work directory of its
own, and prints the same lines for each kernel against the native run. A
JSON or CSV file that differs but keeps its shape is followed by its
largest absolute difference, in parentheses. It needs numpy's OpenBLAS
built with ``DYNAMIC_ARCH``; without it, it says so and runs nothing.

Pytest does not collect this file; ``tests/test_bytecheck.py`` runs a short
list twice from this tree.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import tarfile
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


def _set(src: str, dst: str, cells: dict):
    """A step that copies a CSV file with each (line, column) of ``cells``
    set to its text."""
    def set_cells(work: Path) -> None:
        lines = (work / src).read_text().splitlines(keepends=True)
        for (i, j), text in cells.items():
            row = lines[i].rstrip("\n").split(",")
            row[j] = text
            lines[i] = ",".join(row) + "\n"
        (work / dst).write_text("".join(lines))
    return set_cells


def _json(src: str, dst: str, edit):
    """A step that copies a JSON file with ``edit`` applied to its value."""
    def edit_json(work: Path) -> None:
        value = json.loads((work / src).read_text())
        edit(value)
        (work / dst).write_text(json.dumps(value))
    return edit_json


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
    # lag 2: the first two observations only condition the switching model
    ["analyze", "--input", "sim/dataset.csv", "--outdir", "lag2", "--ms-lag", "2", *_QUICK],
    ["report", "--outdir", "lag2"],
    # ingest, without and with imputed cells (one at an edge, one run of two)
    ["ingest", "--input", "sim/dataset.csv", "--outdir", "ingest"],
    _set("sim/dataset.csv", "gaps.csv", {(1, 3): "", (40, 5): "", (41, 5): "", (300, 13): ""}),
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
    # a perceptron among three regimes, on four segments, one of them without
    # noise: some restarts collapse
    ["analyze", "--input", "steps4/dataset.csv", "--outdir", "ms3_mlp", "--stages", "ms",
     "--ms-families", "mlp,linear,linear", "--ms-max-iter", "20"],
    # per_day repeats each weekly spread: every restart collapses (exit 3)
    ["analyze", "--input", "sim/dataset.csv", "--outdir", "perday_ms",
     "--spread-aggregation", "per_day", "--stages", "ms", "--ms-families", "linear,linear"],
    # the data errors (exit 2)
    ["simulate", "--outdir", "bad_tau", "--sim-kind", "steps", "--sim-tau", "[100,50]"],
    ["simulate", "--outdir", "bad_std", "--sim-kind", "steps",
     "--sim-stds", "[0.03,-0.08,0.03]"],
    ["simulate", "--outdir", "bad_coefs", "--sim-coefs", "[[0.1],[0.2]]"],
    ["simulate", "--outdir", "explosive", "--sim-coefs", "[[0.1,3.0],[0.2,3.0]]"],
    # a finite series whose prices pass the domain's upper bound: simulate
    # writes nothing, so ingest finds no input
    ["simulate", "--outdir", "overflow", "--sim-coefs", "[[0.1,2.5],[0.2,2.5]]",
     "--sim-T", "200"],
    ["ingest", "--input", "overflow/dataset.csv", "--outdir", "overflow/run"],
    # steps whose draw is not finite: inf - inf, and a sum past the float range
    ["simulate", "--outdir", "steps_inf", "--sim-kind", "steps",
     "--sim-levels", "[1e999,1,1]", "--sim-stds", "[1e999,0.08,0.03]"],
    ["simulate", "--outdir", "steps_overflow", "--sim-kind", "steps",
     "--sim-levels", "[1e308,1,1]", "--sim-stds", "[1e308,0.08,0.03]"],
    # prices outside the domain: poa + lgs overflows, and so does the ratio hpl
    _set("sim/dataset.csv", "huge.csv", {(5, 2): "1.5e308", (5, 4): "1.5e308"}),
    ["ingest", "--input", "huge.csv", "--outdir", "huge"],
    _set("sim/dataset.csv", "tiny.csv", {(5, 2): "1e-310", (5, 4): "1e-310"}),
    ["ingest", "--input", "tiny.csv", "--outdir", "tiny", "--hpl-kind", "ratio"],
    ["analyze", "--input", "sim/dataset.csv", "--outdir", "bad_som_seed", "--som-seed", "-1"],
    ["ingest", "--input", "sim/dataset.csv", "--outdir", "bad_gap", "--max-gap", "-1"],
    _write("sim_keys.json", '{"sim_T": 999}'),
    ["analyze", "--config", "sim_keys.json", "--input", "sim/dataset.csv",
     "--outdir", "foreign_key"],
    _copy("sim/run", "swapped"),
    _copy("steps3/run/ms_model.json", "swapped/ms_model.json"),
    ["report", "--outdir", "swapped"],
    _copy("sim/run", "gridswap"),
    _copy("nohpl/som_grid.json", "gridswap/som_grid.json"),
    ["report", "--outdir", "gridswap"],
    # a model whose transition is not a chain's, and a grid of 30 nodes over
    # 25 code vectors, do not load
    _copy("sim/run", "bad_transition"),
    _json("sim/run/ms_model.json", "bad_transition/ms_model.json",
          lambda d: d["params"].update(transition=[[1.7, 0.3], [-0.7, 0.7]])),
    ["report", "--outdir", "bad_transition"],
    _copy("sim/run", "rows6"),
    _json("sim/run/som_grid.json", "rows6/som_grid.json", lambda d: d.update(rows=6)),
    ["report", "--outdir", "rows6"],
    ["analyze", "--input", "sim/dataset.csv", "--outdir", "big_grid",
     "--som-rows", "40", "--som-cols", "40"],
    ["analyze", "--input", "sim/dataset.csv", "--outdir", "big_k", "--stages", "cpd",
     "--cpd-k-max", "30000"],
    # a grid past the node ceiling does not load either
    _copy("sim/run", "grid33x32"),
    _json("sim/run/som_grid.json", "grid33x32/som_grid.json",
          lambda d: d.update(rows=33, cols=32, code_vectors=(d["code_vectors"] * 43)[:1056])),
    ["report", "--outdir", "grid33x32"],
    # the one-day spreads and a fixed change-point penalty
    ["analyze", "--input", "sim/dataset.csv", "--outdir", "tuesday", "--stages", "cpd",
     "--spread-aggregation", "tuesday"],
    ["analyze", "--input", "sim/dataset.csv", "--outdir", "friday", "--stages", "cpd",
     "--spread-aggregation", "friday"],
    ["analyze", "--input", "sim/dataset.csv", "--outdir", "cpd_penalty", "--stages", "cpd",
     "--cpd-penalty", "2"],
    # a gap in the last week, which only a forward fill closes
    _set("sim/dataset.csv", "lastgap.csv", {(500, 7): ""}),
    ["ingest", "--input", "lastgap.csv", "--outdir", "lastgap"],
    # a short series warns and still fits (exit 0)
    ["analyze", "--input", "sim30/dataset.csv", "--outdir", "short_ms", "--stages", "ms",
     "--ms-families", "linear,linear"],
    # an unknown stage (exit 1), and a directory given as the input (exit 2)
    ["analyze", "--input", "sim/dataset.csv", "--outdir", "bad_stages",
     "--stages", "som,bogus"],
    ["analyze", "--input", "sim", "--outdir", "dir_input"],
]


def _digests(work: Path, outdir: str) -> dict:
    """By path in ``work``: "directory" for ``outdir`` and every directory
    under it, so that an empty one is seen, and the sha256 of every file
    under it; none if ``outdir`` does not exist."""
    root = work / outdir
    return {
        str(p.relative_to(work)):
            "directory" if p.is_dir() else hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted([root, *root.rglob("*")]) if p.exists()
    }


def run_list(src, work, steps, env=None) -> list[dict]:
    """Run ``steps`` with ``src`` on the path and ``env`` added to the
    environment, in a fresh ``work`` directory; one record per CLI call: its
    argv, exit code, stdout, stderr and the digests of the files under its
    ``--outdir``."""
    work = Path(work)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {**os.environ, **(env or {}), "PYTHONPATH": str(Path(src).resolve())}
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


def _difference(a, b) -> float | None:
    """The largest |x - y| over the numbers x, y at the same path of two JSON
    values; None when they differ in shape or in anything but a number."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return None
        parts = [_difference(a[key], b[key]) for key in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        parts = [_difference(x, y) for x, y in zip(a, b)]
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        return abs(a - b)
    else:
        return 0.0 if a == b else None
    return None if None in parts else max(parts, default=0.0)


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def largest_difference(a: Path, b: Path) -> float | None:
    """The largest absolute difference between two JSON files, over their
    numbers at the same path, or two CSV files, over their float cells at
    the same row and column; None for any other pair, or when the two
    differ in shape or in a value that is not a number."""
    if not (a.is_file() and b.is_file()) or a.suffix != b.suffix:
        return None
    if a.suffix == ".json":
        return _difference(*(json.loads(p.read_text()) for p in (a, b)))
    if a.suffix == ".csv":
        rows = (csv.reader(p.read_text().splitlines()) for p in (a, b))
        return _difference(*([[_cell(c) for c in row] for row in r] for r in rows))
    return None


def compare(base: list[dict], head: list[dict], works=None) -> list[str]:
    """One line per call: its argv, then ``same`` or what differs. Given the
    two work directories, a differing file is followed by its
    ``largest_difference`` where it has one."""
    lines = []
    for a, b in zip(base, head):
        differs = [key for key in ("exit", "stdout", "stderr") if a[key] != b[key]]
        for name in sorted(name for name in a["files"].keys() | b["files"].keys()
                           if a["files"].get(name) != b["files"].get(name)):
            largest = None if works is None else largest_difference(*(w / name for w in works))
            differs.append(name if largest is None else f"{name} ({largest:.1e})")
        lines.append(f"{shlex.join(a['argv'])}: {', '.join(differs) or 'same'}")
    return lines


def kernels(names) -> int:
    """Print, for each OpenBLAS kernel of ``names``, how this tree's list
    differs from its native run."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    configuration = blas.get("openblas configuration", "")
    if "DYNAMIC_ARCH" not in configuration:
        print(f"numpy's BLAS is {blas.get('name')} {configuration!r}, not an OpenBLAS "
              "built with DYNAMIC_ARCH: OPENBLAS_CORETYPE selects no kernel; nothing run")
        return 0
    with tempfile.TemporaryDirectory(prefix="bytecheck-") as tmp:
        native = run_list(REPO / "src", Path(tmp) / "native", RUNS)
        for name in names:
            work = Path(tmp) / name
            forced = run_list(REPO / "src", work, RUNS, env={"OPENBLAS_CORETYPE": name})
            for line in compare(native, forced, works=(Path(tmp) / "native", work)):
                print(f"{name}: {line}")
    return 0


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "--kernels":
        return kernels(argv[1].split(","))
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix="bytecheck-") as tmp:
        tree = Path(tmp) / "base"
        archive = subprocess.run(["git", "-C", str(REPO), "archive", argv[0], "src"],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        base = run_list(tree / "src", Path(tmp) / "work", RUNS)
        head = run_list(REPO / "src", Path(tmp) / "work", RUNS)
    for line in compare(base, head):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
