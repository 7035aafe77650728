import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from bimetal.data import RAW_COLUMNS, build_features, from_json, to_json
from bimetal.errors import ValidationError
from bimetal.som import (
    MAX_NODES,
    MacroClassification,
    SomGrid,
    _block_rows,
    _canonical_relabel,
    bmu_indices,
    hac_macro_classes,
    periodize,
    quantization_error,
    train_som,
)
from oracles import one_shot_sq_dists, seed_train_som


def grid_from(code, rows=None, cols=None):
    code = np.asarray(code, dtype=float)
    n = code.shape[0]
    if rows is None:
        rows, cols = 1, n
    return SomGrid(
        rows=rows, cols=cols, code_vectors=code, trained_epochs=0, seed=0,
    )


def blobs(centers, per_blob, sigma, seed):
    rng = np.random.default_rng(seed)
    X, labels = [], []
    for i, c in enumerate(centers):
        X.append(c + sigma * rng.standard_normal((per_blob, len(c))))
        labels.extend([i] * per_blob)
    return np.vstack(X), np.array(labels)


def partitions_equal(a, b):
    """True iff the two label arrays induce the same partition."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    fwd, bwd = {}, {}
    for x, y in zip(a.tolist(), b.tolist()):
        if fwd.setdefault(x, y) != y or bwd.setdefault(y, x) != x:
            return False
    return True


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def test_identical_data_fixed_point():
    v = np.array([1.5, -2.0, 0.25])
    X = np.tile(v, (40, 1))
    grid = train_som(X, rows=3, cols=3, epochs=5, seed=1)
    assert_allclose(grid.code_vectors, np.tile(v, (9, 1)), atol=1e-6)


def test_single_node_converges_to_mean():
    rng = np.random.default_rng(7)
    X = 2.0 + rng.standard_normal((200, 2))
    grid = train_som(X, rows=1, cols=1, epochs=150, seed=3)
    # independent oracle: the batch mean
    assert_allclose(grid.code_vectors[0], X.mean(axis=0), atol=0.1)


def test_training_deterministic():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((60, 4))
    a = train_som(X, 4, 4, epochs=10, seed=11)
    b = train_som(X, 4, 4, epochs=10, seed=11)
    assert_array_equal(a.code_vectors, b.code_vectors)
    c = train_som(X, 4, 4, epochs=10, seed=12)
    assert not np.array_equal(a.code_vectors, c.code_vectors)


# Each schedule is the keywords that set it; the decay itself is fixed.
@pytest.mark.parametrize("n, dim, rows, cols, schedule", [
    (60, 4, 5, 5, dict(epochs=100)),  # the default epochs, 6000 updates
    (40, 3, 3, 4, dict(epochs=12)),  # a non-square grid
    (30, 3, 3, 3, dict(epochs=0)),  # the initial sample
    (30, 3, 3, 3, dict(epochs=1)),  # one epoch: frac runs 0..1
    (7, 2, 4, 4, dict(epochs=6)),  # fewer rows than nodes
    (50, 2, 1, 1, dict(epochs=5)),
    (50, None, 3, 2, dict(epochs=5)),  # 1-d features
])
def test_training_is_bitwise_the_per_step_loop(n, dim, rows, cols, schedule):
    rng = np.random.default_rng(n)
    X = rng.standard_normal(n if dim is None else (n, dim))
    grid = train_som(X, rows, cols, seed=5, **schedule)
    assert np.array_equal(grid.code_vectors, seed_train_som(X, rows, cols, seed=5, **schedule))


# Training runs its steps in blocks of _TRAIN_BLOCK_BYTES // code.nbytes
# (46 steps for 5x5 nodes of 14 dimensions) and takes each neighbourhood
# weight once per distinct grid distance.
@pytest.mark.parametrize("n, dim, rows, cols, epochs", [
    (80, 3, 7, 9, 3),  # 28 distinct grid distances on 63 nodes
    (500, 14, 5, 5, 2),  # 10 blocks of 46 steps and one of 40 per epoch
    (30, 2, 32, 32, 2),  # the largest grid: blocks of 8 steps
    (1400, None, 5, 5, 1),  # 1-d features: blocks of 655 steps
])
def test_blocked_training_is_bitwise_the_per_step_loop(n, dim, rows, cols, epochs):
    rng = np.random.default_rng(n)
    X = rng.standard_normal(n if dim is None else (n, dim))
    grid = train_som(X, rows, cols, epochs=epochs, seed=2)
    assert np.array_equal(grid.code_vectors, seed_train_som(X, rows, cols, epochs, seed=2))


# Training takes each squared distance as one np.vecdot, not as the loop's
# pairwise sum of squares, so the two can differ in the last bit. Both give
# identical code vectors the same distance, so exact ties still go to the
# lowest node; these cases make such ties (repeated observations, and fewer
# distinct observations than nodes, so the initial code vectors repeat) on
# rounded data in 12 (the features without hpl), 14 (the default features)
# and 20 dimensions.
@pytest.mark.parametrize("n, dim, rows, cols, decimals, repeats", [
    (60, 12, 5, 5, None, 1),
    (40, 14, 5, 5, 0, 2),  # every observation twice
    (40, 14, 5, 5, 1, 2),
    (12, 14, 5, 5, 0, 1),  # 12 observations for 25 nodes
    (12, 14, 5, 5, 1, 3),  # 12 distinct observations for 25 nodes
    (30, 20, 5, 5, 0, 2),
    (10, 20, 4, 6, 1, 2),  # 20 observations for 24 nodes
])
def test_training_is_bitwise_the_per_step_loop_where_the_sums_differ(
    n, dim, rows, cols, decimals, repeats
):
    X = 3.0 * np.random.default_rng(dim + n).standard_normal((n, dim))
    if decimals is not None:
        X = X.round(decimals)
    X = np.tile(X, (repeats, 1))
    grid = train_som(X, rows, cols, epochs=4, seed=3)
    assert np.array_equal(grid.code_vectors, seed_train_som(X, rows, cols, 4, seed=3))


def test_training_memory_stays_near_the_block_budget():
    """All 2078 steps' observations repeated over 5x5 nodes would take
    5.8 MB; in blocks, training's temporaries stay under 1 MiB."""
    X = np.random.default_rng(2078).standard_normal((2078, 14))
    tracemalloc.start()
    try:
        train_som(X, 5, 5, epochs=2, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_empty_input_errors():
    with pytest.raises(ValidationError, match="empty"):
        train_som(np.empty((0, 3)), 2, 2)


@pytest.mark.parametrize("rows, cols", [(40, 40), (1, MAX_NODES + 1), (33, 32)])
def test_grid_above_the_node_ceiling_is_refused_before_training(rows, cols):
    X = np.zeros((10, 3))
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=f"rows={rows} x cols={cols}"):
            train_som(X, rows, cols, epochs=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # no nodes x nodes table was built


def test_grid_at_the_node_ceiling_trains():
    grid = train_som(np.arange(6.0), 32, 32, epochs=0, seed=0)
    assert grid.n_nodes == MAX_NODES


@pytest.mark.parametrize("rows, cols, message", [
    (2, 3, "has 6 nodes but 5 code vectors"),
    (5, 2, "has 10 nodes but 5 code vectors"),
    (0, 5, "each must be >= 1"),
    (-1, -5, "each must be >= 1"),
])
def test_grid_refuses_a_node_count_other_than_its_code_vectors(rows, cols, message):
    with pytest.raises(ValidationError, match=f"rows={rows} x cols={cols}.*{message}"):
        grid_from(np.zeros((5, 2)), rows, cols)


def test_grid_refuses_more_nodes_than_the_ceiling():
    with pytest.raises(ValidationError,
                       match="rows=33 x cols=32 has 1056 nodes, more than the 1024 "):
        grid_from(np.zeros((1056, 2)), 33, 32)


def test_train_accepts_featureset(small_table):
    fs = build_features(small_table)
    grid = train_som(fs, rows=2, cols=2, epochs=3, seed=0)
    assert grid.code_vectors.shape == (4, 14)
    assert grid.trained_epochs == 3


# ---------------------------------------------------------------------------
# BMU and quantization error
# ---------------------------------------------------------------------------

def test_bmu_exact_match():
    rng = np.random.default_rng(5)
    code = rng.standard_normal((9, 4))
    grid = grid_from(code, 3, 3)
    assert bmu_indices(grid, code[7:8])[0] == 7


def test_bmu_tie_break_lowest_index():
    code = np.zeros((12, 2))
    code[3] = [1.0, 0.0]
    code[11] = [0.0, 1.0]
    grid = grid_from(code, 3, 4)
    # v equidistant from nodes 3 and 11, both nearer than the origin nodes
    v = np.array([0.55, 0.55])
    assert bmu_indices(grid, v[None, :])[0] == 3


def test_bmu_dimension_mismatch():
    grid = grid_from(np.zeros((4, 3)), 2, 2)
    with pytest.raises(ValidationError, match="dimension"):
        bmu_indices(grid, np.zeros((1, 5)))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_bmu_matches_linear_scan(seed):
    rng = np.random.default_rng(seed)
    code = rng.standard_normal((10, 3))
    grid = grid_from(code, 2, 5)
    v = rng.standard_normal(3)
    # brute-force oracle: exhaustive scan
    best, best_d = 0, np.inf
    for i in range(10):
        d = float(((code[i] - v) ** 2).sum())
        if d < best_d:
            best, best_d = i, d
    assert bmu_indices(grid, v[None, :])[0] == best


@pytest.mark.parametrize("measure", [bmu_indices, quantization_error])
def test_dimension_mismatch_is_validation_error(measure):
    # one column of 3-dim data would broadcast against every code vector
    grid = grid_from(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]))
    X = np.array([[1.0, 2.0, 3.0], [0.5, 0.5, 0.5]])
    with pytest.raises(ValidationError, match="data dim 1, grid dim 3"):
        measure(grid, X[:, :1])
    with pytest.raises(ValidationError, match="data dim 4, grid dim 3"):
        measure(grid, np.hstack([X, X[:, :1]]))


@pytest.mark.parametrize("rows, cols, dim", [(5, 5, 14), (3, 4, 2), (2, 2, None)])
def test_blocked_search_is_the_one_shot_table_bitwise(rows, cols, dim):
    rng = np.random.default_rng(rows * cols)
    grid = grid_from(rng.standard_normal((rows * cols, dim or 1)), rows, cols)
    b = _block_rows(grid.code_vectors)
    # one row short of a block, one block, one row over, three blocks and five rows
    for n in (b - 1, b, b + 1, 3 * b + 5):
        X = rng.standard_normal(n if dim is None else (n, dim))
        d2 = one_shot_sq_dists(grid.code_vectors, X)
        bmu = bmu_indices(grid, X)
        assert bmu.dtype == d2.argmin(axis=1).dtype
        assert_array_equal(bmu, d2.argmin(axis=1))
        assert quantization_error(grid, X) == float(d2.min(axis=1).mean())


def test_search_of_empty_input():
    grid = grid_from(np.ones((4, 3)), 2, 2)
    empty = np.empty((0, 3))
    bmu = bmu_indices(grid, empty)
    assert bmu.shape == (0,) and bmu.dtype == np.intp
    with pytest.warns(RuntimeWarning):  # the mean of no distances
        assert np.isnan(quantization_error(grid, empty))


def test_quantization_error_zero_on_codebook_data():
    code = np.array([[0.0, 0.0], [5.0, 5.0]])
    grid = grid_from(code)
    X = np.tile(code[1], (6, 1))
    assert quantization_error(grid, X) == 0.0


def test_quantization_error_single_observation():
    grid = grid_from(np.array([[0.0, 0.0], [4.0, 0.0]]))
    assert quantization_error(grid, np.array([[1.0, 1.0]])) == pytest.approx(2.0)


def test_training_reduces_quantization_error():
    # paired comparison over a seed family: training helps on average

    X, _ = blobs(np.array([[0, 0, 0], [8.0, 8.0, 8.0]]), 50, 1.0, seed=2)
    before, after = [], []
    for seed in range(10):
        start = train_som(X, 3, 3, epochs=0, seed=seed)
        before.append(quantization_error(start, X))
        after.append(
            quantization_error(
                train_som(X, 3, 3, epochs=30, seed=seed), X
            )
        )
    assert np.mean(after) <= np.mean(before)


# ---------------------------------------------------------------------------
# Ward macro-classes
# ---------------------------------------------------------------------------

def test_hac_k_equals_node_count():
    rng = np.random.default_rng(1)
    grid = grid_from(rng.standard_normal((6, 3)), 2, 3)
    node_to_class, _ = hac_macro_classes(grid, k=6)
    assert sorted(node_to_class.tolist()) == [1, 2, 3, 4, 5, 6]
    # first appearance order: node i gets class i+1
    assert_array_equal(node_to_class, np.arange(1, 7))


def test_hac_k_one():
    rng = np.random.default_rng(2)
    grid = grid_from(rng.standard_normal((6, 3)), 2, 3)
    node_to_class, _ = hac_macro_classes(grid, k=1)
    assert_array_equal(node_to_class, np.ones(6, dtype=int))


def test_hac_k_out_of_range():
    grid = grid_from(np.zeros((4, 2)), 2, 2)
    for k in (0, 5):
        with pytest.raises(ValidationError, match="out of range"):
            hac_macro_classes(grid, k=k)


def _within_cluster_sse(X, labels):
    total = 0.0
    for lab in set(labels):
        member = X[[i for i, l in enumerate(labels) if l == lab]]
        total += ((member - member.mean(axis=0)) ** 2).sum()
    return total


def test_hac_two_pairs_matches_bruteforce():
    # two well-separated pairs; oracle = exhaustive scan of all 2-partitions
    X = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]])
    best, best_sse = None, np.inf
    for assign in itertools.product([0, 1], repeat=4):
        if len(set(assign)) < 2:
            continue
        sse = _within_cluster_sse(X, list(assign))
        if sse < best_sse:
            best, best_sse = assign, sse
    grid = grid_from(X, 2, 2)
    node_to_class, _ = hac_macro_classes(grid, k=2)
    assert partitions_equal(node_to_class, best)


def test_ward_heights_nondecreasing():
    rng = np.random.default_rng(9)
    grid = grid_from(rng.standard_normal((25, 5)), 5, 5)
    _, history = hac_macro_classes(grid, k=6)
    heights = [m[2] for m in history]
    assert all(b >= a - 1e-12 for a, b in zip(heights, heights[1:]))


def test_cut_nesting_merges_only():
    # going from k to k-1 classes must merge two classes, never split one;
    # on the tied integer grid the cut is not the first n-k linkage rows
    # for k = 7..15, yet it still nests
    rng = np.random.default_rng(10)
    for code in (rng.standard_normal((16, 4)), rng.integers(0, 3, (16, 2))):
        grid = grid_from(code, 4, 4)
        prev, _ = hac_macro_classes(grid, k=16)
        for k in range(15, 0, -1):
            cur, _ = hac_macro_classes(grid, k=k)
            # each current class is a union of previous classes
            for lab in set(prev.tolist()):
                members = cur[prev == lab]
                assert len(set(members.tolist())) == 1
            prev = cur


def _oracle_grids():
    """Gaussian grids, grids with duplicated rows and integer grids with
    exact ties, of 2 to 25 nodes."""
    rng = np.random.default_rng(11)
    for _ in range(15):
        n, dim = int(rng.integers(2, 26)), int(rng.integers(1, 9))
        yield rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-3, 4)
    for _ in range(15):
        n, dim = int(rng.integers(2, 26)), int(rng.integers(1, 5))
        rows = rng.standard_normal((max(1, n // 3), dim))
        yield rows[rng.integers(0, len(rows), n)]
    for _ in range(15):
        n, dim = int(rng.integers(2, 26)), int(rng.integers(1, 4))
        yield rng.integers(0, 3, (n, dim)).astype(float)


def test_ward_and_cut_match_scipy():
    # scipy is a test-only oracle: the linkage history bit for bit, and the
    # classes of cut_tree at every k
    hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
    for code in _oracle_grids():
        n = code.shape[0]
        grid = grid_from(code)
        Z = hierarchy.linkage(code, method="ward")
        for k in range(1, n + 1):
            node_to_class, history = hac_macro_classes(grid, k)
            assert_array_equal(np.array(history), Z)
            cut = hierarchy.cut_tree(Z, n_clusters=k).ravel()
            assert_array_equal(node_to_class, _canonical_relabel(cut))


def test_blob_partition_recovery_quick():
    centers = 12.0 * np.eye(3)
    X, truth = blobs(centers, 30, 1.0, seed=4)
    grid = train_som(X, 3, 3, epochs=40, seed=4)
    mc = periodize(X, grid, k=3)
    assert partitions_equal(mc.week_to_class, truth)


# ---------------------------------------------------------------------------
# Periodization
# ---------------------------------------------------------------------------

def test_periodize_single_interval(small_table):
    fs = build_features(small_table)
    grid = train_som(fs, 2, 2, epochs=5, seed=0)
    full = periodize(fs, grid, k=1)
    assert full.intervals == ((0, len(fs) - 1, 1),)
    assert full.class_counts == {1: len(fs)}


def test_periodize_one_node_grid(small_table):
    # a 1x1 grid has nothing to merge: one class and one interval
    fs = build_features(small_table)
    grid = train_som(fs, 1, 1, epochs=5, seed=0)
    full = periodize(fs, grid, k=1)
    assert_array_equal(full.node_to_class, [1])
    assert full.linkage_history == ()
    assert full.intervals == ((0, len(fs) - 1, 1),)
    assert full.class_counts == {1: len(fs)}


def test_periodize_singleton_class_means():
    X = np.array([[0.0, 0.0], [10.0, 10.0], [0.2, 0.1]])
    grid = grid_from(np.array([[0.0, 0.0], [10.0, 10.0]]))
    full = periodize(X, grid, k=2)
    singleton = [c for c, n in full.class_counts.items() if n == 1][0]
    assert_allclose(
        [full.class_means[singleton][f"x{i}"] for i in range(2)], X[1]
    )


@pytest.mark.parametrize("include_hpl", [True, False])
def test_periodize_class_means_are_the_raw_column_means(small_table, include_hpl):
    """A FeatureSet's class means are read on the 14 raw columns, the
    quotations then the hpl pair, even when the map trains without hpl."""
    fs = build_features(small_table, include_hpl=include_hpl)
    grid = train_som(fs, 3, 3, epochs=5, seed=1)
    full = periodize(fs, grid, k=4)
    raw = np.hstack([small_table.values, fs.hpl])
    assert len(RAW_COLUMNS) == raw.shape[1] == 14
    assert sorted(full.class_means) == sorted(set(full.week_to_class.tolist()))
    for cls, means in full.class_means.items():
        assert list(means) == list(RAW_COLUMNS)
        want = raw[full.week_to_class == cls].mean(axis=0)
        assert_array_equal(list(means.values()), want)


def test_periodize_intervals_partition(small_table):
    fs = build_features(small_table)
    grid = train_som(fs, 3, 3, epochs=5, seed=1)
    full = periodize(fs, grid, k=4)
    covered = []
    prev_end = -1
    for start, end, cls in full.intervals:
        assert start == prev_end + 1
        assert full.week_to_class[start] == cls
        covered.extend(range(start, end + 1))
        prev_end = end
    assert covered == list(range(len(fs)))


def _periodize_peak(n):
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, 14))
    grid = train_som(X, 5, 5, epochs=0, seed=0)
    tracemalloc.start()
    try:
        periodize(X, grid, k=6)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_periodize_memory_does_not_grow_with_the_blocks():
    """A (weeks, nodes, dim) table at 4000 rows alone would take 10.7 MiB;
    the blocked search keeps about 1 MiB of temporaries at any row count."""
    small, large = _periodize_peak(500), _periodize_peak(4000)
    assert large < 2 * 2**20, f"peak {large / 2**20:.2f} MiB"
    assert large < 1.5 * small, f"{large / 2**20:.2f} vs {small / 2**20:.2f} MiB"


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_grid_serialization_roundtrip():
    rng = np.random.default_rng(3)
    grid = train_som(rng.standard_normal((30, 4)), 2, 3, epochs=4, seed=9)
    again = from_json(SomGrid, to_json(grid))
    assert_array_equal(again.code_vectors, grid.code_vectors)
    assert again.trained_epochs == 4
    assert again.seed == 9


def test_classification_serialization_roundtrip(small_table):
    fs = build_features(small_table)
    grid = train_som(fs, 2, 2, epochs=4, seed=2)
    full = periodize(fs, grid, k=2)
    again = from_json(MacroClassification, to_json(full))
    assert_array_equal(again.week_to_class, full.week_to_class)
    assert again.class_means == full.class_means
    assert again.intervals == full.intervals
