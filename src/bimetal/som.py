"""Self-organizing map periodization.

A small rectangular Kohonen map (default 5x5, 25 nodes) is trained online on
the standardized feature vectors. Its code vectors are then reduced to a
handful of macro-classes by Ward agglomeration, and each week inherits the
macro-class of its best-matching node, yielding a periodization of the
dataset into contiguous (mostly) intervals.

Training's cost is numpy's per-call overhead, not arithmetic: each of the
epochs * n online updates works on a nodes x dim table. So each update makes
four calls on arrays of that one shape, all contiguous, with no broadcast
and no scalar math: a subtract, one np.vecdot for the squared distances,
and the multiply and subtract of the update. What broadcasting would do is
done once per block of steps.

Memory: the best-matching-node search walks the observations in blocks of
rows, so its temporaries take about ``_BMU_BLOCK_BYTES`` whatever the
number of weeks, and training walks its steps in blocks of about
``_TRAIN_BLOCK_BYTES``. Training's index table and the Ward linkage's
distance tables each hold nodes x nodes entries, so a grid is limited to
``MAX_NODES`` nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import RAW_COLUMNS, FeatureSet
from .errors import ValidationError


# The online schedule: the learning rate and the neighborhood radius decay
# linearly over the epochs * n_observations update steps, the radius from
# max(rows, cols) / 2.
_LR_START = 0.5
_LR_END = 0.01
_RADIUS_END = 0.5

#: The most nodes a grid may have (32x32). Training's grid-distance index
#: table and the Ward linkage's two distance tables each hold nodes x nodes
#: entries: 8 MiB per 8-byte table at this size.
MAX_NODES = 1024

# The rows of one block of the best-matching-node search are sized so that
# its (rows, nodes, dim) differences and their squares take about this many
# bytes together.
_BMU_BLOCK_BYTES = 2**20

# The steps of one block of training are sized so that their observations,
# each repeated over the nodes, take about this many bytes: their
# neighbourhood weights take no more, and the two add little to a run's
# peak memory.
_TRAIN_BLOCK_BYTES = _BMU_BLOCK_BYTES // 8


def _check_grid_shape(rows: int, cols: int) -> None:
    """Refuse a grid without a node, or with more than ``MAX_NODES``."""
    if rows < 1 or cols < 1:
        raise ValidationError(f"grid rows={rows} x cols={cols}: each must be >= 1")
    if rows * cols > MAX_NODES:
        raise ValidationError(
            f"grid rows={rows} x cols={cols} has {rows * cols} nodes, more than "
            f"the {MAX_NODES} (32x32) allowed: its node-by-node tables grow as "
            f"the square of the node count"
        )


@dataclass
class SomGrid:
    """A trained (or freshly initialized) map: one to ``MAX_NODES`` nodes and
    one code vector per node; any other shape is a ValidationError.

    Nodes are indexed row-major; node i sits at grid position
    (i // cols, i % cols) and grid distance is Euclidean on those positions.
    """

    rows: int
    cols: int
    code_vectors: np.ndarray  # (rows*cols, dim)
    trained_epochs: int
    seed: int

    def __post_init__(self):
        rows, cols, n = self.rows, self.cols, self.code_vectors.shape[0]
        _check_grid_shape(rows, cols)
        if n != rows * cols:
            raise ValidationError(
                f"grid rows={rows} x cols={cols} has {rows * cols} nodes but {n} "
                "code vectors"
            )

    @property
    def n_nodes(self) -> int:
        return self.rows * self.cols

    @property
    def dim(self) -> int:
        return self.code_vectors.shape[1]


def _as_matrix(features) -> np.ndarray:
    """The observations as a finite (n, dim) matrix; a 1-d array holds n
    observations of one value. A FeatureSet is finite by construction."""
    if isinstance(features, FeatureSet):
        return features.standardized
    X = np.asarray(features, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ValidationError(f"features must be a 1-d or 2-d array, got shape {X.shape}")
    finite = np.isfinite(X)
    if not finite.all():
        i, j = np.argwhere(~finite)[0].tolist()
        raise ValidationError(f"features[{i}, {j}] = {X[i, j].item()!r} is non-finite")
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
    learning rates and Gaussian denominators, and the steps run in blocks.
    A block's observations are repeated over the nodes, and its weights
    lr * exp(-d2 / denom) are computed for the distinct grid distances d2
    only and repeated over the dimensions. A step takes the rows of its
    best-matching node's weights from the nodes x nodes table of distinct
    distance indices, so all four of its array calls work on same-shape
    arrays. Each element of the update still goes through the per-step
    rule's IEEE operations, in its order: the same divide, exp and multiply
    of the weights, the same difference, product and subtraction.

    The squared distances are the one exception: one ``np.vecdot`` of the
    differences with themselves per step, where the per-step rule sums the
    squares pairwise. The two may differ in the last bits, and ``vecdot``'s
    bits may depend on the BLAS and the CPU. Identical code vectors still
    get identical distances, so an exact tie goes to the lowest node, as in
    the rule. But two nodes whose distances are within rounding of each
    other may be ordered differently, and then the best-matching node and
    every later update differ. Where no best-matching node differs, the
    code vectors are bit for bit those of a loop that evaluates the
    schedule at every step (``tests/oracles.seed_train_som``).
    """
    X = _as_matrix(features)
    n = X.shape[0]
    if n == 0:
        raise ValidationError("empty input: cannot initialize a SOM")
    _check_grid_shape(rows, cols)  # before any nodes x nodes table is drawn
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

    nodes, dim = code.shape
    # The squared grid distance of nodes (r, c) and (r', c') is dr^2 + dc^2,
    # with dr = |r - r'| and dc = |c - c'|: few distinct values (15 on a 5x5
    # grid). uniq holds them, negated, and inv, the one nodes x nodes table
    # of training, the index in uniq of each pair of nodes' value.
    dr, dc = np.ogrid[:rows, :cols]
    uniq, at = np.unique(-(dr * dr + dc * dc).astype(float), return_inverse=True)
    at = at.reshape(rows, cols)  # the inverse's shape varies across numpy 2.x
    R, C = abs(dr - dr.T), abs(dc - dc.T)
    inv = at[R[:, None, :, None], C[None, :, None, :]].reshape(nodes, nodes)

    r_start = max(rows, cols) / 2.0
    total = max(epochs * n - 1, 1)
    block = min(n, max(1, _TRAIN_BLOCK_BYTES // max(code.nbytes, 1)))
    # A block's observations, each repeated over the nodes, and its
    # lr * exp(-d2 / denom) for each distinct d2, each repeated over the
    # dimensions, so that every call of the step below works on arrays of
    # the code vectors' shape.
    XX = np.empty((block, nodes, dim))
    H = np.empty((block, uniq.size, dim))
    diff = np.empty_like(code)  # code - x, then the update
    dist = np.empty(nodes)
    # Bound once and given their output positionally: the step below runs
    # epochs * n times, and its arrays are small enough that the cost of
    # each ufunc call is mostly the call itself.
    subtract, multiply, vecdot = np.subtract, np.multiply, np.vecdot
    for epoch in range(epochs):
        order = rng.permutation(n)
        # step / total and the schedule for this epoch's steps, with the
        # float expressions of a single step; one epoch at a time keeps the
        # memory at O(n), not O(epochs * n).
        frac = np.arange(epoch * n, (epoch + 1) * n) / total
        lrs = _LR_START + (_LR_END - _LR_START) * frac
        radius = r_start + (_RADIUS_END - r_start) * frac
        denoms = 2.0 * radius * radius
        for a in range(0, n, block):
            steps = slice(a, a + block)
            m = min(block, n - a)
            XX[:m] = X[order[steps], None, :]
            # exp on a contiguous array: numpy's exp may give other bits
            # on another memory layout
            H[:m] = (np.exp(uniq / denoms[steps, None]) * lrs[steps, None])[:, :, None]
            for xx, h in zip(XX[:m], H[:m]):
                subtract(code, xx, diff)
                vecdot(diff, diff, dist)  # squared distance to each node
                # code -= (lr*h)(code - x): the same bits as code += (lr*h)(x - code)
                multiply(h.take(inv[dist.argmin()], 0), diff, diff)
                subtract(code, diff, code)
    return grid


def _block_rows(code: np.ndarray) -> int:
    """Rows per block of the best-matching-node search for these code
    vectors: at least one, however large the grid."""
    return max(1, _BMU_BLOCK_BYTES // (2 * code.itemsize * max(code.size, 1)))


def _per_row(grid: SomGrid, features, reduce, dtype) -> np.ndarray:
    """``reduce(d2, axis=1)`` of the (n, n_nodes) squared distances d2 from
    each observation to each node, computed in blocks of rows so that no
    (n, n_nodes, dim) array is built; data of another dimension than the
    grid's is a ValidationError.

    Each row's distances are the same float operations whatever the block,
    so the result is bit for bit that of the whole table at once."""
    X = _as_matrix(features)
    if X.shape[1] != grid.dim:
        raise ValidationError(
            f"dimension mismatch: data dim {X.shape[1]}, grid dim {grid.dim}"
        )
    code = grid.code_vectors
    step = _block_rows(code)
    out = np.empty(X.shape[0], dtype)
    for a in range(0, X.shape[0], step):
        d2 = ((X[a : a + step, None, :] - code[None, :, :]) ** 2).sum(axis=2)
        reduce(d2, axis=1, out=out[a : a + step])
    return out


def bmu_indices(grid: SomGrid, features) -> np.ndarray:
    """Best-matching node of each row: the node with minimal squared
    distance, ties to the lowest index."""
    return _per_row(grid, features, np.argmin, np.intp)


def quantization_error(grid: SomGrid, features) -> float:
    """Mean squared distance of each observation to its best-matching node."""
    return float(_per_row(grid, features, np.min, float).mean())


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


def _ward_linkage(X: np.ndarray) -> np.ndarray:
    """The Ward linkage matrix of the rows of X, bit for bit scipy's
    ``linkage(X, "ward")``: row r merges clusters Z[r, 0] < Z[r, 1] at
    height Z[r, 2] into cluster n + r of Z[r, 3] points.

    The merges come from the nearest-neighbour chain (Murtagh 1983;
    Müllner 2011, arXiv:1109.2378) on the Euclidean distances, with the
    Lance–Williams update for Ward. Every float operation is scipy's, in
    its order, so the heights agree to the last bit.
    """
    n = X.shape[0]
    # Each distance a sequential sum over the columns, as pdist adds them
    # (np.sum's pairwise summation would change the last bits); each
    # column's squared differences go through one reused buffer.
    D, buf = np.zeros((n, n)), np.empty((n, n))
    for col in X.T:
        np.subtract(col[:, None], col[None, :], out=buf)
        D += np.multiply(buf, buf, out=buf)
    np.sqrt(D, D)
    if not np.isfinite(D).all():
        raise ValidationError("Ward linkage needs finite code vectors")

    size = np.ones(n, dtype=int)  # 0 once a cluster is merged away
    Z = np.empty((n - 1, 4))
    chain: list[int] = []
    for step in range(n - 1):
        if not chain:
            chain.append(int(np.flatnonzero(size)[0]))
        # Grow the chain to a pair of mutual nearest neighbours. A nearer
        # cluster must be strictly nearer than the previous chain element,
        # and among equals the lowest index wins.
        while True:
            x = chain[-1]
            d = np.where(size > 0, D[x], np.inf)
            d[x] = np.inf
            y = int(d.argmin())
            if len(chain) > 1 and not d[y] < D[x, chain[-2]]:
                y = chain[-2]
                break
            chain.append(y)
        del chain[-2:]
        x, y = min(x, y), max(x, y)
        nx, ny = size[x], size[y]
        dxy = D[x, y]
        Z[step] = x, y, dxy, nx + ny
        size[x] = 0
        size[y] = nx + ny  # the merged cluster takes the larger index
        others = np.flatnonzero(size)
        others = others[others != y]
        ni = size[others]
        t = 1.0 / (nx + ny + ni)
        dxi, dyi = D[x, others], D[y, others]
        D[y, others] = D[others, y] = np.sqrt(
            (ni + nx) * t * dxi * dxi + (ni + ny) * t * dyi * dyi - ni * t * dxy * dxy
        )

    # Sort by height, keeping the discovery order of ties, then name each
    # merged cluster n + r by its row and recount the sizes.
    Z = Z[np.argsort(Z[:, 2], kind="mergesort")]
    parent = list(range(2 * n - 1))
    count = [1] * (2 * n - 1)
    for r in range(n - 1):
        roots = []
        for c in (int(Z[r, 0]), int(Z[r, 1])):
            while parent[c] != c:
                c = parent[c]
            roots.append(c)
        a, b = sorted(roots)
        parent[a] = parent[b] = n + r
        count[n + r] = count[a] + count[b]
        Z[r] = a, b, Z[r, 2], count[n + r]
    return Z


def _cut(Z: np.ndarray, k: int) -> np.ndarray:
    """Each point's cluster when the linkage Z is cut at k clusters, the
    partition of scipy's ``cut_tree(Z, n_clusters=k)``; a cluster is named
    by its top node, not by cut_tree's label.

    ``cut_tree`` applies the merges by height, not by row. It walks the
    tree breadth first from the root, right child first, and ``insort_left``s
    each merge by height, so among tied heights the merge it reached later
    comes first. Its first n - k merges are applied here from the top down,
    each child taking its parent's top node.
    """
    n = Z.shape[0] + 1
    walk = [2 * n - 2]
    for c in walk:  # the list grows while it is walked
        if c >= n:
            walk += [int(Z[c - n, 1]), int(Z[c - n, 0])]
    rows = np.array([c - n for c in reversed(walk) if c >= n], dtype=int)
    rows = rows[np.argsort(Z[rows, 2], kind="stable")]

    top = np.arange(2 * n - 1)
    for r in np.sort(rows[: n - k])[::-1]:  # a parent's row follows its children's
        top[Z[r, :2].astype(int)] = top[n + r]
    return top[:n]


def hac_macro_classes(grid: SomGrid, k: int) -> tuple[np.ndarray, tuple]:
    """Ward agglomeration of the code vectors, cut at k clusters: each
    node's class (1..k, by first appearance) and the linkage merges.

    The merges and their heights are bit for bit scipy's
    ``linkage(code_vectors, "ward")``, and the classes are its
    ``cut_tree`` cut: going from k to k-1 classes only merges classes.
    With tied heights the cut need not apply the first (n_nodes - k)
    linkage rows (code vectors [1], [1], [0], [0], [0] at k=4 give
    [1 2 3 3 4], though row 0 merges nodes 0 and 1). Both are computed
    with numpy alone.
    """
    n = grid.n_nodes
    if not 1 <= k <= n:
        raise ValidationError(f"k={k} out of range 1..{n}")
    Z = _ward_linkage(grid.code_vectors)
    history = tuple(
        (int(a), int(b), float(h), int(size)) for a, b, h, size in Z
    )
    return _canonical_relabel(_cut(Z, k)), history


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
        raw = np.hstack([features.table.values, features.hpl])
        names = RAW_COLUMNS
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
