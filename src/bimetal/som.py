"""Self-organizing map periodization.

A small rectangular Kohonen map (default 5x5, 25 nodes) is trained online on
the standardized feature vectors. Its code vectors are then reduced to a
handful of macro-classes by Ward agglomeration, and each week inherits the
macro-class of its best-matching node, yielding a periodization of the
dataset into contiguous (mostly) intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureSet
from .errors import ValidationError


# The online schedule: the learning rate and the neighborhood radius decay
# linearly over the epochs * n_observations update steps, the radius from
# max(rows, cols) / 2.
_LR_START = 0.5
_LR_END = 0.01
_RADIUS_END = 0.5


@dataclass
class SomGrid:
    """A trained (or freshly initialized) map: one code vector per node.

    Nodes are indexed row-major; node i sits at grid position
    (i // cols, i % cols) and grid distance is Euclidean on those positions.
    """

    rows: int
    cols: int
    code_vectors: np.ndarray  # (rows*cols, dim)
    trained_epochs: int
    seed: int

    @property
    def n_nodes(self) -> int:
        return self.rows * self.cols

    @property
    def dim(self) -> int:
        return self.code_vectors.shape[1]

    def positions(self) -> np.ndarray:
        r, c = np.divmod(np.arange(self.n_nodes), self.cols)
        return np.column_stack([r, c]).astype(float)


def _as_matrix(features) -> np.ndarray:
    if isinstance(features, FeatureSet):
        return features.standardized
    X = np.asarray(features, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    return X


def train_som(features, rows=5, cols=5, epochs=100, seed=0) -> SomGrid:
    """Train by the online Kohonen rule; deterministic given the seed.

    The code vectors start as a seeded random sample of the observations
    (with ``epochs=0`` that sample is the result). Each step pulls the
    best-matching node and its (Gaussian-weighted) grid neighborhood toward
    the presented observation. Over the ``epochs * n`` steps the learning
    rate decays linearly from 0.5 to 0.01 and the radius from
    max(rows, cols) / 2 to 0.5. Observation order is reshuffled every epoch
    from the same seeded generator used for initialization.

    The schedule is evaluated once per epoch, as vectors of that epoch's
    learning rates and Gaussian denominators, and each step runs on
    preallocated buffers. The arithmetic is the per-step rule's, operation
    for operation, so the code vectors are bit for bit those of a loop that
    evaluates the schedule at every step (``tests/oracles.seed_train_som``).
    """
    X = _as_matrix(features)
    n = X.shape[0]
    if n == 0:
        raise ValidationError("empty input: cannot initialize a SOM")
    if rows < 1 or cols < 1:
        raise ValidationError("grid must have at least one node")
    if epochs < 0:
        raise ValidationError(f"epochs={epochs} must be >= 0")
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, size=rows * cols, replace=n < rows * cols)
    grid = SomGrid(
        rows=rows,
        cols=cols,
        code_vectors=X[idx].copy(),
        trained_epochs=epochs,
        seed=seed,
    )
    code = grid.code_vectors

    pos = grid.positions()
    # Pairwise squared grid distances between nodes, reused every step.
    grid_d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)

    r_start = max(rows, cols) / 2.0
    total = max(epochs * n - 1, 1)
    neg_d2 = -grid_d2
    diff = np.empty_like(code)  # code - x, then the update
    sq = np.empty_like(code)
    dist = np.empty(code.shape[0])
    h = np.empty(code.shape[0])
    h_col = h[:, None]
    # Bound once and given their output positionally: the step below runs
    # epochs * n times, and its arrays are small enough that the cost of
    # each ufunc call is mostly the call itself.
    subtract, multiply, divide, exp, add_reduce = (
        np.subtract, np.multiply, np.divide, np.exp, np.add.reduce
    )
    for epoch in range(epochs):
        order = rng.permutation(n)
        # step / total and the schedule for this epoch's steps, with the
        # float expressions of a single step; one epoch at a time keeps the
        # memory at O(n), not O(epochs * n).
        frac = np.arange(epoch * n, (epoch + 1) * n) / total
        lrs = _LR_START + (_LR_END - _LR_START) * frac
        radius = r_start + (_RADIUS_END - r_start) * frac
        denoms = 2.0 * radius * radius
        for x, lr, denom in zip(X[order], lrs.tolist(), denoms.tolist()):
            subtract(code, x, diff)
            multiply(diff, diff, sq)
            add_reduce(sq, 1, None, dist)  # squared distance to each node
            divide(neg_d2[dist.argmin()], denom, h)
            exp(h, h)
            multiply(h, lr, h)
            # code -= (lr*h)(code - x): the same bits as code += (lr*h)(x - code)
            multiply(h_col, diff, diff)
            subtract(code, diff, code)
    return grid


def _sq_dists(grid: SomGrid, features) -> np.ndarray:
    """(n, n_nodes) squared distances from each observation to each node;
    data of another dimension than the grid's is a ValidationError."""
    X = _as_matrix(features)
    if X.shape[1] != grid.dim:
        raise ValidationError(
            f"dimension mismatch: data dim {X.shape[1]}, grid dim {grid.dim}"
        )
    code = grid.code_vectors
    return ((X[:, None, :] - code[None, :, :]) ** 2).sum(axis=2)


def bmu_indices(grid: SomGrid, features) -> np.ndarray:
    """Best-matching node of each row: the node with minimal squared
    distance, ties to the lowest index."""
    return _sq_dists(grid, features).argmin(axis=1)


def quantization_error(grid: SomGrid, features) -> float:
    """Mean squared distance of each observation to its best-matching node."""
    return float(_sq_dists(grid, features).min(axis=1).mean())


# ---------------------------------------------------------------------------
# Macro-classes
# ---------------------------------------------------------------------------

@dataclass
class MacroClassification:
    """A periodization: each node's and each week's macro-class, the Ward
    merges behind the node classes, the per-class raw-variable means and
    week counts, and the contiguous intervals of equal class.

    Class ids are 1..k, assigned by order of first node appearance so the
    labeling is deterministic.
    """

    k: int
    node_to_class: np.ndarray
    # merges (node_a, node_b, height, size) from Ward
    linkage_history: tuple[tuple[int, int, float, int], ...]
    week_to_class: np.ndarray
    class_means: dict[int, dict[str, float]]
    intervals: tuple[tuple[int, int, int], ...]
    class_counts: dict[int, int]


def _canonical_relabel(labels: np.ndarray) -> np.ndarray:
    """Relabel cluster ids to 1..k by order of first appearance."""
    mapping: dict[int, int] = {}
    out = np.empty(len(labels), dtype=int)
    for i, lab in enumerate(labels):
        if lab not in mapping:
            mapping[lab] = len(mapping) + 1
        out[i] = mapping[lab]
    return out


def hac_macro_classes(grid: SomGrid, k: int) -> tuple[np.ndarray, tuple]:
    """Ward agglomeration of the code vectors, cut at k clusters: each
    node's class (1..k, by first appearance) and the linkage merges.

    The classes are scipy's ``cut_tree`` cut: going from k to k-1 classes
    only merges classes. With tied heights the cut need not apply the first
    (n_nodes - k) linkage rows (code vectors [1], [1], [0], [0], [0] at k=4
    give [1 2 3 3 4], though row 0 merges nodes 0 and 1). scipy is loaded
    on the first call, not when the package is imported.
    """
    # Imported here: scipy.cluster costs about 0.4 s and 35 MB at startup,
    # which every run without the SOM stage would pay for nothing.
    from scipy.cluster.hierarchy import cut_tree, linkage

    n = grid.n_nodes
    if not 1 <= k <= n:
        raise ValidationError(f"k={k} out of range 1..{n}")
    if n == 1:
        return np.array([1]), ()
    Z = linkage(grid.code_vectors, method="ward")
    labels = cut_tree(Z, n_clusters=k).ravel()
    history = tuple(
        (int(a), int(b), float(h), int(size)) for a, b, h, size in Z
    )
    return _canonical_relabel(labels), history


def periodize(features, grid: SomGrid, k: int = 6) -> MacroClassification:
    """Cut the grid's nodes into k Ward macro-classes, assign each week its
    BMU's class, and summarize the classes.

    Per-class means are computed on the raw (unstandardized) variables when
    a FeatureSet is given; contiguous runs of equal class are reported as
    closed intervals (start_index, end_index, class_id).
    """
    node_to_class, history = hac_macro_classes(grid, k)
    week_to_class = node_to_class[bmu_indices(grid, features)]

    if isinstance(features, FeatureSet):
        raw = features.raw_matrix
        names = features.raw_names
    else:
        raw = _as_matrix(features)
        names = tuple(f"x{i}" for i in range(raw.shape[1]))

    class_means: dict[int, dict[str, float]] = {}
    class_counts: dict[int, int] = {}
    for cls in sorted(set(week_to_class.tolist())):
        member = week_to_class == cls
        class_counts[int(cls)] = int(member.sum())
        means = raw[member].mean(axis=0)
        class_means[int(cls)] = {nm: float(m) for nm, m in zip(names, means)}

    intervals = []
    start = 0
    for i in range(1, len(week_to_class) + 1):
        if i == len(week_to_class) or week_to_class[i] != week_to_class[start]:
            intervals.append((start, i - 1, int(week_to_class[start])))
            start = i

    return MacroClassification(
        k=k,
        node_to_class=node_to_class,
        linkage_history=history,
        week_to_class=week_to_class,
        class_means=class_means,
        intervals=tuple(intervals),
        class_counts=class_counts,
    )
