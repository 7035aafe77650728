import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from bimetal.data import build_features, from_json, to_json
from bimetal.errors import ValidationError
from bimetal.som import (
    MacroClassification,
    SomGrid,
    bmu_indices,
    hac_macro_classes,
    periodize,
    quantization_error,
    train_som,
)
from oracles import seed_train_som


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


def test_empty_input_errors():
    with pytest.raises(ValidationError, match="empty"):
        train_som(np.empty((0, 3)), 2, 2)


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
    mc = hac_macro_classes(grid, k=6)
    assert sorted(mc.node_to_class.tolist()) == [1, 2, 3, 4, 5, 6]
    # first appearance order: node i gets class i+1
    assert_array_equal(mc.node_to_class, np.arange(1, 7))


def test_hac_k_one():
    rng = np.random.default_rng(2)
    grid = grid_from(rng.standard_normal((6, 3)), 2, 3)
    mc = hac_macro_classes(grid, k=1)
    assert_array_equal(mc.node_to_class, np.ones(6, dtype=int))


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
    mc = hac_macro_classes(grid, k=2)
    assert partitions_equal(mc.node_to_class, best)


def test_ward_heights_nondecreasing():
    rng = np.random.default_rng(9)
    grid = grid_from(rng.standard_normal((25, 5)), 5, 5)
    mc = hac_macro_classes(grid, k=6)
    heights = [m[2] for m in mc.linkage_history]
    assert all(b >= a - 1e-12 for a, b in zip(heights, heights[1:]))


def test_cut_nesting_merges_only():
    # going from k to k-1 classes must merge two classes, never split one
    rng = np.random.default_rng(10)
    grid = grid_from(rng.standard_normal((16, 4)), 4, 4)
    prev = hac_macro_classes(grid, k=16).node_to_class
    for k in range(15, 0, -1):
        cur = hac_macro_classes(grid, k=k).node_to_class
        # each current class is a union of previous classes
        for lab in set(prev.tolist()):
            members = cur[prev == lab]
            assert len(set(members.tolist())) == 1
        prev = cur


def test_blob_partition_recovery_quick():
    centers = 12.0 * np.eye(3)
    X, truth = blobs(centers, 30, 1.0, seed=4)
    grid = train_som(X, 3, 3, epochs=40, seed=4)
    mc = periodize(X, grid, hac_macro_classes(grid, k=3))
    assert partitions_equal(mc.week_to_class, truth)


# ---------------------------------------------------------------------------
# Periodization
# ---------------------------------------------------------------------------

def test_periodize_single_interval(small_table):
    fs = build_features(small_table)
    grid = train_som(fs, 2, 2, epochs=5, seed=0)
    mc = MacroClassification(
        k=1,
        node_to_class=np.ones(4, dtype=int),
        linkage_history=(),
    )
    full = periodize(fs, grid, mc)
    assert full.intervals == ((0, len(fs) - 1, 1),)
    assert full.class_counts == {1: len(fs)}


def test_periodize_singleton_class_means():
    X = np.array([[0.0, 0.0], [10.0, 10.0], [0.2, 0.1]])
    grid = grid_from(np.array([[0.0, 0.0], [10.0, 10.0]]))
    mc = hac_macro_classes(grid, k=2)
    full = periodize(X, grid, mc)
    singleton = [c for c, n in full.class_counts.items() if n == 1][0]
    assert_allclose(
        [full.class_means[singleton][f"x{i}"] for i in range(2)], X[1]
    )


def test_periodize_intervals_partition(small_table):
    fs = build_features(small_table)
    grid = train_som(fs, 3, 3, epochs=5, seed=1)
    full = periodize(fs, grid, hac_macro_classes(grid, k=4))
    covered = []
    prev_end = -1
    for start, end, cls in full.intervals:
        assert start == prev_end + 1
        assert full.week_to_class[start] == cls
        covered.extend(range(start, end + 1))
        prev_end = end
    assert covered == list(range(len(fs)))


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
    full = periodize(fs, grid, hac_macro_classes(grid, k=2))
    again = from_json(MacroClassification, to_json(full))
    assert_array_equal(again.week_to_class, full.week_to_class)
    assert again.class_means == full.class_means
    assert again.intervals == full.intervals
