"""Multiple change-point detection by penalized-contrast minimization.

A segmentation of the series into K blocks is scored by the sum of
per-segment contrasts: the within-segment sum of squared deviations when
only the mean is allowed to shift, or length * log(variance-MLE) when both
mean and variance may shift. One dynamic-programming sweep over cost rows
computed from prefix sums gives the exact optimal segmentation for every
K up to K_max in O(K_max * T) memory; an explicit K_max whose table
would pass MAX_TABLE_CELLS is refused. The number of segments is then
chosen adaptively from the shape of the optimal-cost curve (the last big
drop, measured by normalized second differences).

Indices follow the half-open convention: a change-point tau means one
segment ends at tau-1 and the next starts at tau, so the interior
change-points satisfy 0 < tau_1 < ... < tau_{K-1} < T.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import check_series, to_json
from .errors import ValidationError

_VAR_FLOOR_ABS = 1e-300

#: The most cells an explicit K may ask of the DP table G, (K + 1) x (T + 1)
#: floats: 32 MiB, and the sweep's buffer of candidate sums nearly as much.
#: The automatic K_max (at most 20) is never held to it.
MAX_TABLE_CELLS = 2**22


class SegMode(Enum):
    """What is allowed to change between segments."""

    MEAN = "mean"
    MEAN_VAR = "meanvar"

    @classmethod
    def parse(cls, value) -> "SegMode":
        if isinstance(value, cls):
            return value
        for member in cls:
            if member.value == value:
                return member
        raise ValidationError(f"unknown segmentation mode {value!r}")


def _variance_floor(series: np.ndarray) -> float:
    return max(float(series.var()) * 1e-12, _VAR_FLOOR_ABS)


def _check_min_seg_len(mode: SegMode, min_seg_len) -> int:
    """``min_seg_len``, or the shortest segment ``mode`` allows when it is
    None: one point for a mean shift, two when the variance may shift."""
    least = 2 if mode is SegMode.MEAN_VAR else 1
    if min_seg_len is None:
        return least
    if min_seg_len < least:
        raise ValidationError(
            f"min_seg_len={min_seg_len} too small for mode {mode.value}"
        )
    return min_seg_len


@dataclass
class SegCostTable:
    """Contrasts of every segment series[i:j], one row of j at a time.

    Only the prefix sums c1 (of the series) and c2 (of its squares) and
    the segment lengths 0..T, as floats, are stored, so the state is O(T);
    ``row(i)`` computes the contrasts of series[i:j] for j =
    i+min_seg_len..T on demand; a segment shorter than min_seg_len has no
    entry. Total costs of multi-segment configurations come only from the
    DP summing these entries; no subadditivity is assumed.
    """

    mode: SegMode
    min_seg_len: int
    variance_floor: float
    c1: np.ndarray
    c2: np.ndarray
    lengths: np.ndarray

    @property
    def T(self) -> int:
        return self.c1.shape[0] - 1

    def row(self, i: int) -> np.ndarray:
        """Contrast of series[i:j] for j = i+min_seg_len..T (empty when
        no feasible segment starts at i)."""
        m = self.min_seg_len
        n = self.lengths[m : self.T - i + 1]  # j - i
        sums = self.c1[i + m :] - self.c1[i]
        sse = (self.c2[i + m :] - self.c2[i]) - sums * sums / n
        sse = np.maximum(sse, 0.0)  # guard tiny negative rounding
        if self.mode is SegMode.MEAN:
            return sse
        return n * np.log(np.maximum(sse / n, self.variance_floor))

    @classmethod
    def build(cls, series, mode, min_seg_len=None) -> "SegCostTable":
        series = check_series(series)
        mode = SegMode.parse(mode)
        return cls(
            mode=mode, min_seg_len=_check_min_seg_len(mode, min_seg_len),
            variance_floor=_variance_floor(series),
            c1=np.concatenate([[0.0], np.cumsum(series)]),
            c2=np.concatenate([[0.0], np.cumsum(series * series)]),
            lengths=np.arange(series.shape[0] + 1, dtype=float),
        )


def _suffix_tables(table: SegCostTable, K_max: int) -> np.ndarray:
    """G[k, i] = minimal contrast of splitting series[i:] into k segments.

    One sweep from the right: each cost row is computed once and fills
    column i for every k, reading only the columns j >= i+min_seg_len
    already done. The candidate sums of every row go into one
    (K_max - 1) x (T + 1) buffer allocated before the sweep, so the sweep
    holds G, that buffer and O(T) more.
    """
    T, m = table.T, table.min_seg_len
    G = np.full((K_max + 1, T + 1), np.inf)
    sums = np.empty((K_max - 1, T + 1))
    for i in range(T - m, -1, -1):
        row = table.row(i)
        G[1, i] = row[-1]
        out = sums[:, : row.shape[0]]
        np.add(row, G[1:K_max, i + m :], out=out)
        np.minimum.reduce(out, axis=1, out=G[2:, i])
    return G


def _backtrack(table: SegCostTable, G: np.ndarray, K: int) -> tuple[int, ...]:
    """Left-to-right backtracking; first-occurrence argmin at each stage
    yields the lexicographically smallest optimal change-point tuple."""
    m = table.min_seg_len
    tau = []
    i = 0
    for k in range(K, 1, -1):
        j = i + m + int(np.argmin(table.row(i) + G[k - 1, i + m :]))
        tau.append(j)
        i = j
    return tuple(tau)


@dataclass
class SelectionDiagnostics:
    """Contrast curve and the adaptive decision trail."""

    scheme: str
    K_max: int
    contrasts: tuple[float, ...]  # J_K for K = 1..K_max
    normalized: tuple[float, ...] | None  # rescaled curve (adaptive scheme)
    second_differences: dict[int, float] | None  # K -> D_K (adaptive scheme)
    threshold: float | None
    chosen_K: int


@dataclass
class Segmentation:
    """Change-point configuration with per-segment estimates.

    ``tau`` holds the interior change-points only (the implicit endpoints 0
    and T are excluded), so the number of segments is len(tau) + 1 and the
    reported change-point count is len(tau). ``segment_covs`` carries one
    1x1 covariance matrix per segment (biased variance estimate).
    ``selection`` records how the number of segments was chosen, its
    ``threshold`` the adaptive threshold (or the explicit beta of a manual
    penalty); it is None for fixed-K segmentations.
    """

    mode: SegMode
    T: int
    tau: tuple[int, ...]
    segment_means: tuple[float, ...]
    segment_covs: tuple[np.ndarray, ...]
    contrast_value: float
    min_seg_len: int
    selection: SelectionDiagnostics | None

    @property
    def n_segments(self) -> int:
        return len(self.tau) + 1

    @property
    def n_change_points(self) -> int:
        return len(self.tau)

    def to_dict(self, labels=None) -> dict:
        """The JSON form, with the derived segment count after ``T`` and,
        given per-observation labels, the labels of the change-points."""
        d = to_json(self)
        d = {"mode": d.pop("mode"), "T": d.pop("T"), "n_segments": self.n_segments, **d}
        if labels is not None:
            d["tau_labels"] = [labels[t] for t in self.tau]
        return d


def _segment_estimates(series, boundaries):
    means, covs = [], []
    for a, b in zip(boundaries, boundaries[1:]):
        seg = series[a:b]
        means.append(float(seg.mean()))
        covs.append(np.array([[float(seg.var())]]))
    return tuple(means), tuple(covs)


def _segmentation(series, table: SegCostTable, G: np.ndarray, K: int,
                  selection: SelectionDiagnostics | None) -> Segmentation:
    """The backtracked segmentation into K segments, with the selection
    that chose K (None for a fixed K)."""
    tau = _backtrack(table, G, K)
    means, covs = _segment_estimates(series, (0,) + tau + (table.T,))
    return Segmentation(
        mode=table.mode,
        T=table.T,
        tau=tau,
        segment_means=means,
        segment_covs=covs,
        contrast_value=float(G[K, 0]),
        min_seg_len=table.min_seg_len,
        selection=selection,
    )


def auto_k_max(T: int, min_seg_len: int) -> int:
    return max(2, min(20, T // max(10, 2 * min_seg_len)))


def _sweep(series, mode, K: int | None, min_seg_len, name: str):
    """The one DP entry: check the series and that an explicit K's table
    fits under MAX_TABLE_CELLS, build its cost table, resolve K=None to the
    automatic bound, check that K segments fit, and sweep.

    Returns the checked series, the table, K and the suffix tables G."""
    series = check_series(series)
    if K is not None and (K + 1) * (series.shape[0] + 1) > MAX_TABLE_CELLS:
        raise ValidationError(
            f"{name}={K} needs a {K + 1} x {series.shape[0] + 1} change-point "
            f"table, more than the {MAX_TABLE_CELLS} (2**22) cells allowed"
        )
    table = SegCostTable.build(series, mode, min_seg_len)
    if K is None:
        # the automatic bound, lowered to the largest feasible K
        K = max(1, min(auto_k_max(table.T, table.min_seg_len),
                       table.T // table.min_seg_len))
    if not (K >= 1 and K * table.min_seg_len <= table.T):
        raise ValidationError(
            f"{name}={K} infeasible for series of length {table.T} "
            f"with min_seg_len={table.min_seg_len}"
        )
    return series, table, K, _suffix_tables(table, K)


def optimal_segmentation_for_k(series, K, mode, min_seg_len=None) -> Segmentation:
    """Exact global minimum-contrast segmentation into K segments.

    The dynamic program sweeps the cost rows once for k = 1..K; ties
    resolve to the earliest (lexicographically smallest) change-point
    configuration.
    """
    series, table, K, G = _sweep(series, mode, K, min_seg_len, "K")
    return _segmentation(series, table, G, K, None)


def _select(J: np.ndarray, threshold: float, penalty: float | None) -> SelectionDiagnostics:
    """Choose the number of segments from the optimal-contrast curve J_K,
    K = 1..len(J).

    Default adaptive scheme: rescale J_K so the curve falls from K_max to 1,
    take second differences D_K, and keep the largest K with D_K above the
    threshold (no such K, or a curve that does not fall, means a single
    segment). An explicit ``penalty`` beta switches to minimizing
    J_K + beta * K instead, and is recorded as the threshold.
    """
    K_max = J.shape[0]
    Jn, D, chosen = None, None, 1
    if penalty is not None:
        threshold = penalty
        chosen = int(np.argmin(J + penalty * np.arange(1, K_max + 1))) + 1
    elif K_max < 3 or (span := J[0] - J[K_max - 1]) <= 0:
        Jn, D = np.ones_like(J), {}
    else:
        Jn = (J - J[K_max - 1]) / span * (K_max - 1) + 1  # falls from K_max to 1
        # Second differences are taken along the lower convex hull of the
        # curve: a K off the hull is never the minimizer of J_K + beta*K for
        # any penalty beta, and the jagged steps it induces (pairs of cuts
        # jointly removing a bump) would otherwise mimic a big drop on
        # change-free data. At a hull vertex the slope change equals the
        # length of the beta interval selecting that K, in normalized units.
        hull = [0]
        for k in range(1, K_max):
            while len(hull) >= 2:
                a, b = hull[-2], hull[-1]
                if (Jn[b] - Jn[a]) * (k - b) >= (Jn[k] - Jn[b]) * (b - a):
                    hull.pop()
                else:
                    break
            hull.append(k)
        D = {}
        for pos in range(1, len(hull) - 1):
            a, b, c = hull[pos - 1], hull[pos], hull[pos + 1]
            slope_in = (Jn[b] - Jn[a]) / (b - a)
            slope_out = (Jn[c] - Jn[b]) / (c - b)
            D[b + 1] = float(slope_out - slope_in)  # keys are K values (1-based)
        chosen = max((K for K, v in D.items() if v > threshold), default=1)
    return SelectionDiagnostics(
        scheme="adaptive" if penalty is None else "penalty",
        K_max=K_max,
        contrasts=tuple(float(v) for v in J),
        normalized=None if Jn is None else tuple(float(v) for v in Jn),
        second_differences=D,
        threshold=threshold,
        chosen_K=chosen,
    )


def detect(
    series,
    mode,
    K_max: int | None = None,
    threshold: float = 0.75,
    penalty: float | None = None,
    min_seg_len=None,
) -> Segmentation:
    """Full detection: prefix sums, one DP sweep giving the optimal contrast
    for every K up to K_max, adaptive (or penalized) selection of K, and the
    backtracked change-points of the chosen K. ``selection`` holds the
    contrast curve and the decision trail."""
    for name, value in (("threshold", threshold), ("penalty", penalty)):
        if value is not None and not np.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")
    if penalty is not None and penalty < 0:  # J_K + beta*K would always pick K_max
        raise ValidationError(f"penalty must be >= 0, got {penalty}")
    series, table, K_max, G = _sweep(series, mode, K_max, min_seg_len, "K_max")
    selection = _select(G[1 : K_max + 1, 0], threshold, penalty)
    return _segmentation(series, table, G, selection.chosen_K, selection)
