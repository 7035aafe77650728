"""Output checks on the artifacts one workload run left in its outdir.

Every check reads what a user would read, the files on disk, so a
corrupted artifact fails them just as a wrong computation would. Each
function returns a list of problems; an empty list means the run passed.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from workloads import REPORT_FILES, Workload, load_json

# The program rejects an EM step whose log-likelihood falls by more than
# this (MonotonicityError); the check holds the artifacts to the same rule.
EM_DECREASE_TOL = 1e-8
ROW_SUM_TOL = 1e-9
# How far (in observations) a detected change-point may sit from the
# simulated one and still count as found.
CP_TOL = 4


def check_run(workload: Workload, outdir: Path, truth: dict) -> list[str]:
    problems = check_manifest(workload, outdir)
    if problems:
        return problems
    if "ms_model" in workload.expected_artifacts:
        problems += check_ms_model(load_json(outdir / "ms_model.json"))
    if workload.model == "cpd":
        for mode in ("mean", "meanvar"):
            seg = load_json(outdir / f"segmentation_{mode}.json")
            problems += check_change_points(
                mode, seg["tau"], workload.true_change_points(truth))
    return problems


def check_manifest(workload: Workload, outdir: Path) -> list[str]:
    manifest_path = outdir / "manifest.json"
    if not manifest_path.is_file():
        return ["manifest.json missing"]
    manifest = load_json(manifest_path)
    problems = []
    if manifest.get("status") != "ok":
        problems.append(f"manifest status {manifest.get('status')!r}")
    names = [a["name"] for a in manifest.get("artifacts", [])]
    if sorted(names) != sorted(workload.expected_artifacts):
        problems.append(f"artifacts {names} != {list(workload.expected_artifacts)}")
    files = [f for a in manifest.get("artifacts", [])
             for f in (a["path"], a.get("json")) if f]
    if workload.reports:
        files += REPORT_FILES
    problems += [f"{f} missing or empty" for f in files
                 if not (outdir / f).is_file() or (outdir / f).stat().st_size == 0]
    return problems


def check_ms_model(ms: dict) -> list[str]:
    problems = []
    trace = np.asarray(ms["trace"], dtype=float)
    drops = np.diff(trace)
    if drops.size and drops.min() < -EM_DECREASE_TOL:
        problems.append(f"EM trace decreases by {-drops.min():.3g}")
    for kind in ("filtered", "smoothed"):
        rows = np.asarray(ms["probabilities"][kind], dtype=float)
        if rows.ndim != 2 or rows.shape[0] == 0:
            problems.append(f"{kind} probabilities have shape {rows.shape}")
            continue
        err = np.abs(rows.sum(axis=1) - 1.0).max()
        if not err <= ROW_SUM_TOL or rows.min() < 0.0:
            problems.append(f"{kind} rows not normalized (max |sum-1| {err:.3g})")
    return problems


def check_change_points(mode: str, found, true_cps) -> list[str]:
    return [
        f"{mode}: change-point {cp} not found within {CP_TOL} (found {list(found)})"
        for cp in true_cps
        if not any(abs(cp - t) <= CP_TOL for t in found)
    ]


def artifact_hashes(outdir: Path) -> dict:
    """sha256 of every file in the outdir, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir()) if p.is_file()
    }
