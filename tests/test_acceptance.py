"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. The golden checks against the historical dataset are conditional:
they run only when BIMETAL_DATASET points at the real quotation table and
skip cleanly otherwise.
"""

import os
import time

import numpy as np
import pytest

from bimetal.changepoint import detect, optimal_segmentation_for_k
from bimetal.data import compute_spread, impute_missing, parse_dataset
from bimetal.errors import DegenerateModelError
from bimetal.pipeline import RunConfig, run_analyze
from bimetal.regression import LinearMean
from bimetal.simulate import run_simulate
from bimetal.som import periodize, train_som
from bimetal.switching import (
    MsParams,
    MsSpec,
    em_fit,
    hamilton_filter,
    simulate,
    transition_from_pq,
)

from oracles import (
    enumerate_best_segmentation,
    enumerate_loglik,
    mlp_gradient,
    posterior_probabilities,
    random_mlp,
)
from test_regression import central_difference_gradient
from test_som import partitions_equal

REF_P, REF_Q = 0.844298, 0.746643


def report(criterion, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {criterion:>2} ({description}): {status} {detail}")
    assert ok, f"criterion {criterion} ({description}) failed: {detail}"


def _random_linear_params(rng, lag=1):
    p, q = rng.uniform(0.05, 0.95, size=2)
    means = tuple(
        LinearMean(rng.uniform(-1.2, 1.2, size=lag + 1)) for _ in range(2)
    )
    return MsParams(
        transition=transition_from_pq(p, q),
        means=means,
        sigmas=rng.uniform(0.1, 2.0, size=2),
    )


def test_criterion_1_filter_matches_path_enumeration():
    t0 = time.monotonic()
    worst = 0.0
    for case in range(50):
        rng = np.random.default_rng(case)
        lag = int(rng.integers(1, 3))
        if case % 5 == 0:
            means = (random_mlp(lag, 2, rng), LinearMean(rng.uniform(-1, 1, lag + 1)))
            p, q = rng.uniform(0.05, 0.95, size=2)
            params = MsParams(
                transition=transition_from_pq(p, q),
                means=means,
                sigmas=rng.uniform(0.1, 2.0, size=2),
            )
        else:
            params = _random_linear_params(rng, lag=lag)
        n_use = int(rng.integers(2, 13))
        series, _ = simulate(params, T=n_use + lag, seed=1000 + case, burn_in=25)
        got = hamilton_filter(params, series).loglik
        want = enumerate_loglik(params, series)
        worst = max(worst, abs(got - want))
    elapsed = time.monotonic() - t0
    report(
        1, "filter equals exhaustive path enumeration",
        worst <= 1e-8 and elapsed < 10.0,
        f"worst |diff|={worst:.2e}, {elapsed:.1f}s over 50 instances",
    )


def test_criterion_2_em_loglik_never_decreases():
    worst_drop = 0.0
    fits = 0
    for seed in range(100):
        rng = np.random.default_rng(20_000 + seed)
        true = _random_linear_params(rng)
        true.sigmas = rng.uniform(0.2, 1.0, size=2)
        series, _ = simulate(true, T=150, seed=seed, burn_in=50)
        families = ("mlp", "linear") if seed % 10 == 0 else ("linear", "linear")
        spec = MsSpec(families=families, hidden_units=2)
        try:
            res = em_fit(spec, series, seed=seed, n_restarts=1, max_iter=12,
                         tol=0.0)
        except DegenerateModelError:
            continue
        fits += 1
        diffs = np.diff(res.trace)
        if diffs.size:
            worst_drop = max(worst_drop, float(-diffs.min()))
    report(
        2, "EM log-likelihood monotone over 100 seeded fits",
        worst_drop <= 1e-8 and fits >= 90,
        f"worst decrease={worst_drop:.2e} across {fits} completed fits",
    )


def test_criterion_3_simulation_recovery_with_reference_matrix():
    true = MsParams(
        transition=transition_from_pq(REF_P, REF_Q),
        means=(LinearMean(np.array([2.0, 0.5])), LinearMean(np.array([-2.0, 0.3]))),
        sigmas=np.array([0.3, 1.0]),
    )
    t0 = time.monotonic()
    wins = 0
    for trial in range(10):
        series, states = simulate(true, T=2000, seed=trial)
        res = em_fit(MsSpec(families=("linear", "linear")), series, seed=trial,
                     n_restarts=2, max_iter=60, tol=1e-5)
        ok_pq = (
            abs(res.params.p - REF_P) <= 0.05
            and abs(res.params.q - REF_Q) <= 0.05
        )
        labels = (res.probabilities.smoothed[:, 1] > 0.5).astype(int)
        truth = states[1:]
        acc = max(np.mean(labels == truth), np.mean((1 - labels) == truth))
        wins += ok_pq and acc >= 0.9
    elapsed = time.monotonic() - t0
    report(
        3, "simulate -> em_fit recovers (p, q) and regimes",
        wins >= 8 and elapsed < 60.0,
        f"{wins}/10 trials, {elapsed:.1f}s",
    )


def test_criterion_4_dp_equals_exhaustive_enumeration():
    t0 = time.monotonic()
    checked = 0
    for case in range(100):
        rng = np.random.default_rng(3000 + case)
        T = int(rng.integers(8, 31))
        series = rng.standard_normal(T) + rng.uniform(-2, 2)
        mode = "mean" if case % 2 == 0 else "meanvar"
        min_len = 1 if mode == "mean" else 2
        for K in range(1, 5):
            if K * min_len > T:
                continue
            want_cost, want_tau = enumerate_best_segmentation(series, K, mode, min_len)
            seg = optimal_segmentation_for_k(series, K, mode)
            assert abs(seg.contrast_value - want_cost) <= 1e-8, (case, K)
            assert seg.tau == want_tau, (case, K, seg.tau, want_tau)
            checked += 1
    elapsed = time.monotonic() - t0
    report(
        4, "DP exactness vs exhaustive enumeration",
        elapsed < 30.0,
        f"{checked} (series, K) cases, {elapsed:.1f}s",
    )


def test_criterion_5_change_point_localization():
    mean_hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        series = np.concatenate(
            [rng.standard_normal(200), 10.0 + rng.standard_normal(200)]
        )
        seg = detect(series, "mean")
        mean_hits += seg.n_change_points == 1 and abs(seg.tau[0] - 200) <= 2

    var_hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        series = np.concatenate(
            [rng.standard_normal(200), 3.0 * rng.standard_normal(200)]
        )
        seg = detect(series, "meanvar")
        var_hits += seg.n_change_points == 1 and abs(seg.tau[0] - 200) <= 5

    report(
        5, "localization of mean and variance shifts",
        mean_hits >= 95 and var_hits >= 90,
        f"mean shift {mean_hits}/100 within ±2, variance shift {var_hits}/100 within ±5",
    )


def test_criterion_6_false_positive_control_on_noise():
    ones = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        K = detect(rng.standard_normal(500), "mean", K_max=10).selection.chosen_K
        ones += K == 1
    report(
        6, "pure noise selects a single segment",
        ones >= 95,
        f"K*=1 in {ones}/100 runs",
    )


def test_criterion_7_som_recovers_separated_blobs():
    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        centers = 20.0 * np.eye(6, 14)  # pairwise separation 20*sqrt(2) sigma
        X, truth = [], []
        for i in range(6):
            X.append(centers[i] + rng.standard_normal((40, 14)))
            truth.extend([i] * 40)
        X, truth = np.vstack(X), np.array(truth)
        grid = train_som(X, 5, 5, epochs=100, seed=seed)
        mc = periodize(X, grid, k=6)
        wins += partitions_equal(mc.week_to_class, truth)
    report(
        7, "SOM + Ward cut recovers 6 blobs in 14 dimensions",
        wins >= 9,
        f"{wins}/10 seeds exact up to relabeling",
    )


def test_criterion_8_probability_rows_normalized_under_fuzz():
    worst = 0.0
    cases = 0
    for seed in range(1000):
        rng = np.random.default_rng(50_000 + seed)
        params = _random_linear_params(rng)
        T = int(rng.integers(4, 41))
        if seed % 2 == 0:
            series, _ = simulate(params, T=T, seed=seed, burn_in=10)
        else:
            series = rng.uniform(1.0, 5.0) * rng.standard_normal(T) + rng.uniform(-5, 5)
        probs = posterior_probabilities(params, series)
        for mat in (probs.filtered, probs.smoothed):
            worst = max(worst, float(np.abs(mat.sum(axis=1) - 1.0).max()))
            assert (mat >= 0).all() and (mat <= 1).all()
        cases += 1
    report(
        8, "filter/smoother rows sum to one on fuzz inputs",
        worst <= 1e-9 and cases == 1000,
        f"worst |row sum - 1|={worst:.2e} over {cases} cases",
    )


def test_criterion_9_mlp_gradients_match_finite_differences():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(7000 + seed)
        lag = int(rng.integers(1, 4))
        hidden = int(rng.integers(1, 5))
        n = int(rng.integers(5, 20))
        mlp = random_mlp(lag, hidden, rng)
        X = rng.standard_normal((n, lag))
        y = rng.standard_normal(n)
        w = rng.uniform(0.05, 2.0, size=n)
        analytic = mlp_gradient(mlp, X, y, w)
        numeric = central_difference_gradient(mlp, X, y, w)
        rel = np.linalg.norm(analytic - numeric) / max(
            np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12
        )
        worst = max(worst, float(rel))
    report(
        9, "MLP gradient vs central finite differences",
        worst < 1e-5,
        f"worst relative error={worst:.2e} over 20 networks",
    )


def test_criterion_10_end_to_end_determinism(tmp_path):
    sim_dir = tmp_path / "sim"
    run_simulate(RunConfig(outdir=str(sim_dir), sim_T=250, sim_seed=11))
    runs = []
    for name in ("a", "b"):  # one analysis, two outdirs
        out = tmp_path / name
        run_analyze(RunConfig(
            input=str(sim_dir / "dataset.csv"),
            outdir=str(out),
            som_epochs=30,
            ms_restarts=2,
            ms_max_iter=25,
            ms_tol=1e-4,
        ))
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    first, second = runs
    report(
        10, "one analysis run into two outdirs is byte-identical",
        first == second and len(first) >= 8 and "manifest.json" in first,
        f"{len(first)} files compared, manifest.json included",
    )


DATASET_ENV = "BIMETAL_DATASET"


@pytest.mark.skipif(
    not os.environ.get(DATASET_ENV),
    reason=f"historical dataset not supplied (set {DATASET_ENV})",
)
def test_criterion_11_historical_dataset_golden():
    table, _ = impute_missing(parse_dataset(os.environ[DATASET_ENV]))
    spread = compute_spread(table)
    length_ok = len(spread) == 2078

    seg_mean = detect(spread.values, "mean", K_max=20)
    seg_mv = detect(spread.values, "meanvar", K_max=20)
    mean_ok = abs(seg_mean.n_change_points - 7) <= 1
    mv_ok = abs(seg_mv.n_change_points - 4) <= 1
    report(
        11, "historical spread length and change-point counts",
        length_ok and mean_ok and mv_ok,
        f"len={len(spread)}, mean cps={seg_mean.n_change_points}, "
        f"mean+var cps={seg_mv.n_change_points}",
    )
