import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bimetal import changepoint
from bimetal.changepoint import (
    MAX_TABLE_CELLS,
    SegCostTable,
    SegMode,
    Segmentation,
    SelectionDiagnostics,
    auto_k_max,
    detect,
    optimal_segmentation_for_k,
)
from bimetal.data import from_json
from bimetal.errors import ValidationError

from oracles import (
    dense_dp,
    enumerate_best_segmentation,
    naive_cost_table,
    two_pass_segment_stats,
)


def stitched(seed, lengths, means, stds):
    rng = np.random.default_rng(seed)
    parts = [
        m + s * rng.standard_normal(n) for n, m, s in zip(lengths, means, stds)
    ]
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# segment costs (SegCostTable rows)
# ---------------------------------------------------------------------------

def test_cost_constant_segment_mean_mode():
    series = np.full(8, 3.25)
    assert SegCostTable.build(series, "mean").row(0)[-1] == 0.0
    assert naive_cost_table(series, "mean", 1)[0, 8] == 0.0


def test_cost_two_point_hand_value():
    series = np.array([0.0, 2.0])
    assert SegCostTable.build(series, "mean").row(0)[-1] == pytest.approx(2.0)
    assert naive_cost_table(series, "mean", 1)[0, 2] == pytest.approx(2.0)


def test_cost_matches_two_pass_oracle():
    rng = np.random.default_rng(0)
    series = rng.standard_normal(40)
    tables = {mode: SegCostTable.build(series, mode) for mode in ("mean", "meanvar")}
    for i, j in [(0, 40), (3, 17), (20, 22), (5, 6)]:
        mean, var = two_pass_segment_stats(series, i, j)
        sse = ((series[i:j] - mean) ** 2).sum()
        assert tables["mean"].row(i)[j - i - 1] == pytest.approx(sse, rel=1e-12)
        if j - i >= 2:
            expect = (j - i) * np.log(var)
            assert tables["meanvar"].row(i)[j - i - 2] == pytest.approx(
                expect, rel=1e-12
            )


def test_cost_too_short_errors():
    # a series shorter than one minimal segment has no feasible segmentation
    series = np.arange(10.0)
    with pytest.raises(ValidationError, match="min_seg_len"):
        detect(series[4:5], "meanvar")
    with pytest.raises(ValidationError, match="min_seg_len"):
        optimal_segmentation_for_k(series[4:6], 1, "mean", min_seg_len=3)


def test_cost_and_table_share_min_seg_len_check():
    series = np.arange(10.0)
    with pytest.raises(ValidationError, match="too small for mode meanvar"):
        SegCostTable.build(series, "meanvar", min_seg_len=1)


def test_cost_table_rows_match_naive_oracle():
    rng = np.random.default_rng(1)
    series = rng.standard_normal(25)
    for mode, min_seg_len in itertools.product(("mean", "meanvar"), (None, 5)):
        table = SegCostTable.build(series, mode, min_seg_len)
        m = table.min_seg_len
        naive = naive_cost_table(series, mode, m)
        for i in range(26):
            row = table.row(i)
            # one entry per feasible end j = i+m..T; none when i > T - m
            assert row.shape == (max(0, 25 - i - m + 1),)
            assert_allclose(row, naive[i, i + m :], rtol=1e-10, atol=1e-10)
            assert np.all(np.isinf(naive[i, : i + m]))


# ---------------------------------------------------------------------------
# optimal_segmentation_for_k
# ---------------------------------------------------------------------------

def test_step_series_split_at_seam():
    series = np.array([0.0, 0.0, 0.0, 5.0, 5.0, 5.0])
    # brute-force oracle over all single splits
    cost, tau = enumerate_best_segmentation(series, 2, "mean")
    assert tau == (3,)
    seg = optimal_segmentation_for_k(series, 2, "mean")
    assert seg.tau == (3,)
    assert seg.contrast_value == pytest.approx(cost)
    assert_allclose(seg.segment_means, [0.0, 5.0])


def test_constant_series_earliest_ties():
    series = np.full(10, 1.5)
    for K in (2, 3, 4):
        seg = optimal_segmentation_for_k(series, K, "mean")
        assert seg.contrast_value == 0.0
        assert seg.tau == tuple(range(1, K))


def _oracle_series(kind):
    rng = np.random.default_rng(12)
    if kind == "constant":
        return np.full(300, 1.5)
    if kind == "repeated":  # three values only: many exact cost ties
        return rng.integers(0, 3, 300).astype(float)
    return stitched(12, [90, 120, 90], [0.0, 2.0, -1.0], [1.0, 2.0, 0.5])


@pytest.mark.parametrize("kind", ["shifts", "constant", "repeated"])
@pytest.mark.parametrize("min_seg_len", [None, 5])
@pytest.mark.parametrize("mode", ["mean", "meanvar"])
def test_dp_matches_dense_oracle_bitwise(mode, min_seg_len, kind):
    """The linear-memory sweep does the dense DP's float operations in the
    same order, so the curve and every backtracked tuple are identical."""
    series = _oracle_series(kind)
    m = min_seg_len if min_seg_len is not None else (2 if mode == "meanvar" else 1)
    J, taus = dense_dp(series, mode, 20, m)
    diag = detect(series, mode, K_max=20, min_seg_len=min_seg_len).selection
    assert diag.contrasts == tuple(float(v) for v in J)
    for K in range(1, 21):
        seg = optimal_segmentation_for_k(series, K, mode, min_seg_len)
        assert seg.tau == taus[K], K
        assert seg.contrast_value == J[K - 1]


def test_detect_memory_is_linear_in_T():
    """A (T+1)^2 float table at T=4000 alone would take 128 MB."""
    series = np.random.default_rng(3).standard_normal(4000)
    tracemalloc.start()
    try:
        detect(series, "meanvar")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_explicit_k_past_the_table_ceiling_is_refused_before_the_sweep():
    """At T=4156 a K_max of 1008 is feasible, but its table would hold
    1009 x 4157 > 2**22 floats: refused before any of it is allocated."""
    series = np.random.default_rng(4).standard_normal(4156)
    assert 1008 * 4157 <= MAX_TABLE_CELLS < 1009 * 4157
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=r"K_max=1008 needs a 1009 x 4157"):
            detect(series, "mean", K_max=1008)
        with pytest.raises(ValidationError, match=r"K=1008 needs a 1009 x 4157"):
            optimal_segmentation_for_k(series, 1008, "meanvar")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_table_ceiling_holds_an_explicit_k_only(monkeypatch):
    series = stitched(2, [150, 150], [0.0, 3.0], [1.0, 1.0])
    auto = auto_k_max(300, 1)
    monkeypatch.setattr(changepoint, "MAX_TABLE_CELLS", (auto + 1) * 301 - 1)
    assert detect(series, "mean").selection.K_max == auto
    with pytest.raises(ValidationError, match=f"K_max={auto} "):
        detect(series, "mean", K_max=auto)
    assert detect(series, "mean", K_max=auto - 1).selection.K_max == auto - 1


@pytest.mark.parametrize("seed", range(8))
def test_dp_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    T = int(rng.integers(8, 31))
    series = rng.standard_normal(T)
    mode = "mean" if seed % 2 == 0 else "meanvar"
    min_len = 1 if mode == "mean" else 2
    for K in range(1, 5):
        if K * min_len > T:
            continue
        cost, tau = enumerate_best_segmentation(series, K, mode, min_len)
        seg = optimal_segmentation_for_k(series, K, mode)
        assert seg.contrast_value == pytest.approx(cost, abs=1e-8)
        assert seg.tau == tau


def test_infeasible_k_errors():
    with pytest.raises(ValidationError, match="infeasible"):
        optimal_segmentation_for_k(np.arange(5.0), 6, "mean")
    with pytest.raises(ValidationError, match="infeasible"):
        optimal_segmentation_for_k(np.arange(5.0), 3, "meanvar")


def test_segment_estimates():
    series = np.array([0.0, 0.0, 10.0, 10.0, 10.0, 10.0])
    seg = optimal_segmentation_for_k(series, 2, "meanvar")
    assert seg.tau == (2,)
    assert seg.n_segments == 2
    assert_allclose(seg.segment_means, [0.0, 10.0])
    assert seg.segment_covs[0].shape == (1, 1)


def test_contrast_nonincreasing_in_k():
    rng = np.random.default_rng(7)
    series = rng.standard_normal(60)
    for mode in ("mean", "meanvar"):
        costs = [
            optimal_segmentation_for_k(series, K, mode).contrast_value
            for K in range(1, 8)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))


def test_translation_and_scale_invariance():
    rng = np.random.default_rng(9)
    series = rng.standard_normal(50) + np.repeat([0.0, 3.0], 25)
    base_mean = optimal_segmentation_for_k(series, 3, "mean")
    shifted = optimal_segmentation_for_k(series + 100.0, 3, "mean")
    assert shifted.tau == base_mean.tau
    for mode in ("mean", "meanvar"):
        base = optimal_segmentation_for_k(series, 3, mode)
        scaled = optimal_segmentation_for_k(2.5 * series, 3, mode)
        assert scaled.tau == base.tau


def test_determinism():
    rng = np.random.default_rng(11)
    series = rng.standard_normal(80)
    a = detect(series, "mean", K_max=8)
    b = detect(series, "mean", K_max=8)
    assert a.tau == b.tau
    assert a.contrast_value == b.contrast_value


# ---------------------------------------------------------------------------
# selection of the number of segments (detect(...).selection)
# ---------------------------------------------------------------------------

def test_select_kmax_one_forced():
    rng = np.random.default_rng(2)
    seg = detect(rng.standard_normal(50), "mean", K_max=1)
    assert seg.n_segments == 1 and seg.selection.chosen_K == 1


def test_select_pure_noise_prefers_one_segment():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        K = detect(rng.standard_normal(500), "mean", K_max=10).selection.chosen_K
        hits += K == 1
    assert hits >= 19


def test_select_two_big_shifts():
    for seed in range(5):
        series = stitched(seed, [120, 120, 120], [0.0, 10.0, -5.0], [1, 1, 1])
        K = detect(series, "mean", K_max=10).selection.chosen_K
        assert K == 3
        seg = optimal_segmentation_for_k(series, 3, "mean")
        assert abs(seg.tau[0] - 120) <= 2
        assert abs(seg.tau[1] - 240) <= 2


def test_select_explicit_penalty():
    series = stitched(3, [100, 100], [0.0, 8.0], [1, 1])
    diag = detect(series, "mean", K_max=8, penalty=50.0).selection
    K = diag.chosen_K
    assert K == 2
    assert diag.scheme == "penalty"
    # an enormous penalty forces a single segment
    K1 = detect(series, "mean", K_max=8, penalty=1e9).selection.chosen_K
    assert K1 == 1
    # a zero penalty is valid: the smallest contrast, at K_max
    assert detect(series, "mean", K_max=8, penalty=0.0).selection.chosen_K == 8


def test_select_constant_series():
    K = detect(np.full(100, 2.0), "mean", K_max=8).selection.chosen_K
    assert K == 1


def _contrast_curve(series, mode, K_max):
    return tuple(
        optimal_segmentation_for_k(series, K, mode).contrast_value
        for K in range(1, K_max + 1)
    )


def _lower_hull(y):
    """Brute force: b is a vertex when it lies strictly below every chord
    a-c with a < b < c."""
    n = len(y)
    return [
        b for b in range(n)
        if all((y[b] - y[a]) * (c - a) < (y[c] - y[a]) * (b - a)
               for a in range(b) for c in range(b + 1, n))
    ]


def test_selection_record_penalty_branch():
    series = stitched(3, [100, 100], [0.0, 8.0], [1, 1])
    J = _contrast_curve(series, "mean", 8)
    chosen = int(np.argmin(np.array(J) + 50.0 * np.arange(1, 9))) + 1
    seg = detect(series, "mean", K_max=8, threshold=0.3, penalty=50.0)
    assert seg.selection == SelectionDiagnostics(
        scheme="penalty", K_max=8, contrasts=J, normalized=None,
        second_differences=None, threshold=50.0, chosen_K=chosen,
    )
    assert seg.n_segments == chosen == 2


@pytest.mark.parametrize("series, K_max", [
    (stitched(3, [100, 100], [0.0, 8.0], [1, 1]), 2),  # K_max < 3
    (stitched(3, [100, 100], [0.0, 8.0], [1, 1]), 1),
    (np.full(100, 2.0), 8),  # constant: the curve does not fall
])
def test_selection_record_flat_curve_branch(series, K_max):
    seg = detect(series, "mean", K_max=K_max, threshold=0.3)
    assert seg.selection == SelectionDiagnostics(
        scheme="adaptive", K_max=K_max, contrasts=_contrast_curve(series, "mean", K_max),
        normalized=(1.0,) * K_max, second_differences={}, threshold=0.3, chosen_K=1,
    )
    assert seg.n_segments == 1


@pytest.mark.parametrize("mode", ["mean", "meanvar"])
def test_selection_record_adaptive_branch(mode):
    series = stitched(0, [120, 120, 120], [0.0, 10.0, -5.0], [1.0, 1.0, 3.0])
    seg = detect(series, mode, K_max=10, threshold=0.5)
    sel = seg.selection
    J = np.array(_contrast_curve(series, mode, 10))
    assert (sel.scheme, sel.K_max, sel.threshold) == ("adaptive", 10, 0.5)
    assert sel.contrasts == tuple(J)
    # the rescaled curve runs from K_max down to 1
    assert sel.normalized[0] == 10.0 and sel.normalized[-1] == 1.0
    assert_allclose(sel.normalized, (J - J[-1]) / (J[0] - J[-1]) * 9 + 1, rtol=1e-12)
    # D_K is the slope change at each interior vertex of the lower hull
    hull = _lower_hull(sel.normalized)
    assert sorted(sel.second_differences) == [b + 1 for b in hull[1:-1]]
    for a, b, c in zip(hull, hull[1:], hull[2:]):
        y = sel.normalized
        slope_change = (y[c] - y[b]) / (c - b) - (y[b] - y[a]) / (b - a)
        assert sel.second_differences[b + 1] == pytest.approx(slope_change, rel=1e-12)
    above = [K for K, v in sel.second_differences.items() if v > 0.5]
    assert sel.chosen_K == max(above) == 3
    assert seg.n_segments == 3


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

def test_detect_mean_shift_localization():
    series = stitched(4, [200, 200], [0.0, 5.0], [1, 1])
    seg = detect(series, "mean")
    assert seg.n_change_points == 1
    assert abs(seg.tau[0] - 200) <= 2
    assert seg.selection is not None
    assert seg.selection.threshold == 0.75


def test_detect_variance_shift():
    series = stitched(5, [200, 200], [0.0, 0.0], [1.0, 3.0])
    seg = detect(series, "meanvar")
    assert seg.n_change_points == 1
    assert abs(seg.tau[0] - 200) <= 5


def test_detect_mean_mode_blind_to_variance_shift():
    # variance-only change: mean mode should usually see nothing
    ones = 0
    for seed in range(20):
        series = stitched(seed + 100, [200, 200], [0.0, 0.0], [1.0, 3.0])
        seg = detect(series, "mean")
        ones += seg.n_segments == 1
    assert ones > 10


def test_detect_rejects_nonfinite():
    with pytest.raises(ValidationError, match="non-finite"):
        detect(np.array([1.0, np.inf, 2.0]), "mean")


@pytest.mark.parametrize("option, value, message", [
    *(pytest.param(option, value, f"{option} must be finite, got {value}",
                   id=f"{value}-{option}")
      for value in (np.nan, np.inf, -np.inf) for option in ("threshold", "penalty")),
    pytest.param("penalty", -1000.0, "penalty must be >= 0, got -1000.0",
                 id="negative-penalty"),
])
def test_detect_rejects_nonfinite_threshold_or_penalty(option, value, message):
    series = stitched(5, [30, 30], [0.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValidationError, match=message):
        detect(series, "mean", K_max=4, **{option: value})


def test_auto_k_max_bounds():
    assert auto_k_max(2078, 1) == 20
    assert auto_k_max(40, 2) == 4
    assert auto_k_max(15, 2) == 2
    assert auto_k_max(400, 1) == 20


def test_segmentation_serialization_roundtrip():
    series = stitched(6, [80, 80], [0.0, 4.0], [1, 1])
    seg = detect(series, "meanvar", K_max=6)
    labels = [f"w{t}" for t in range(len(series))]
    d = seg.to_dict(labels=labels)
    assert d["tau_labels"] == [f"w{t}" for t in seg.tau]
    again = from_json(Segmentation, d)
    assert again.tau == seg.tau
    assert again.mode is SegMode.MEAN_VAR
    assert_allclose(
        [c[0][0] for c in again.segment_covs],
        [c[0][0] for c in seg.segment_covs],
    )
    assert again.selection.chosen_K == seg.selection.chosen_K
