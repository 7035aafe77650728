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
