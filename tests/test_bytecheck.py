"""The byte-check script compares what it should, on a short list."""

from pathlib import Path

import bytecheck

SRC = Path(__file__).resolve().parents[1] / "src"

# ingest into the simulate outdir, so that the ingest call's outdir holds
# the simulated files too
SHORT = [
    ["simulate", "--outdir", "sim", "--sim-T", "60", "--sim-seed", "1"],
    ["ingest", "--input", "sim/dataset.csv", "--outdir", "sim"],
]


def test_two_runs_of_this_tree_are_the_same_and_an_altered_file_is_named(tmp_path):
    work = tmp_path / "work"
    first = bytecheck.run_list(SRC, work, SHORT)
    second = bytecheck.run_list(SRC, work, SHORT)
    lines = bytecheck.compare(first, second)
    assert lines == [
        "simulate --outdir sim --sim-T 60 --sim-seed 1: same",
        "ingest --input sim/dataset.csv --outdir sim: same",
    ]
    assert first[1]["exit"] == 0
    assert {"sim/dataset_truth.json", "sim/manifest.json"} <= set(first[1]["files"])

    def alter(work):  # ingest neither reads nor writes the truth sidecar
        (work / "sim" / "dataset_truth.json").write_text("{}")

    altered = bytecheck.run_list(SRC, work, [SHORT[0], alter, SHORT[1]])
    assert bytecheck.compare(first, altered)[1:] == [
        "ingest --input sim/dataset.csv --outdir sim: sim/dataset_truth.json"
    ]


def test_an_empty_directory_left_under_or_as_an_outdir_is_named(tmp_path):
    work = tmp_path / "work"
    # a refused simulate writes nothing, so its outdir exists only if made before
    refused = ["simulate", "--outdir", "gone", "--sim-coefs", "[[0.1],[0.2]]"]
    steps = [*SHORT, refused]
    first = bytecheck.run_list(SRC, work, steps)
    assert first[2]["exit"] == 2 and first[2]["files"] == {}

    def leave_empty(work):
        (work / "sim" / "empty").mkdir()
        (work / "gone").mkdir()

    left = bytecheck.run_list(SRC, work, [SHORT[0], leave_empty, SHORT[1], refused])
    assert bytecheck.compare(first, left)[1:] == [
        "ingest --input sim/dataset.csv --outdir sim: sim/empty",
        "simulate --outdir gone --sim-coefs '[[0.1],[0.2]]': gone",
    ]


def test_a_differing_json_or_csv_file_of_the_same_shape_gets_its_largest_difference(tmp_path):
    files = {
        "model.json": ('{"a": [1.0, 2.5], "b": {"c": 3, "d": "x"}}',
                       '{"a": [1.0, 2.0], "b": {"c": 4, "d": "x"}}'),
        "series.csv": ("t,v\n0,0.5\n1,\n2,7.25\n", "t,v\n0,0.25\n1,\n2,7.0\n"),
        "same.csv": ("t,v\n0,1.0\n", "t,v\n0,1.0\n"),
        "keys.json": ('{"a": 1}', '{"b": 1}'),
        "text.json": ('{"a": "x"}', '{"a": "y"}'),
        "rows.csv": ("t,v\n0,1.0\n", "t,v\n0,1.0\n1,2.0\n"),
        "cell.csv": ("t,v\n0,1.0\n", "t,v\n0,x\n"),
        "log.txt": ("1.0\n", "2.0\n"),
    }
    works = tmp_path / "a", tmp_path / "b"
    for side, work in enumerate(works):
        (work / "run").mkdir(parents=True)
        for name, texts in files.items():
            (work / "run" / name).write_text(texts[side])
    records = [[{"argv": ["analyze", "--outdir", "run"], "exit": 0, "stdout": b"", "stderr": b"",
                 "files": bytecheck._digests(work, "run")}] for work in works]
    assert bytecheck.compare(*records, works=works) == [
        "analyze --outdir run: run/cell.csv, run/keys.json, run/log.txt, "
        "run/model.json (1.0e+00), run/rows.csv, run/series.csv (2.5e-01), run/text.json"
    ]
    assert bytecheck.compare(*records) == [
        "analyze --outdir run: run/cell.csv, run/keys.json, run/log.txt, "
        "run/model.json, run/rows.csv, run/series.csv, run/text.json"
    ]
