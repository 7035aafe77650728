"""Markov-switching autoregression (two or more regimes) fitted by EM.

The observed series follows, in each period, one of a small set of
autoregressive conditional-mean models (affine or one-hidden-layer
perceptron) with regime-specific Gaussian noise; the active regime is an
unobserved first-order Markov chain. The transition matrix is
column-stochastic: entry (i, j) is the probability of moving to regime i
from regime j, so for two regimes the diagonal holds the persistence
probabilities (p, q).

Estimation is classic EM: the Hamilton filter and Kim smoother, each one
log-depth prefix scan rather than a per-step loop, give the a-posteriori
regime probabilities (E-step), then the transition matrix, conditional
means, and noise scales are reweighted (M-step). Filtering
starts from the stationary distribution of the current transition matrix;
the transition update therefore maximizes the *full* expected complete-data
log-likelihood, including the initial-state term, via a safeguarded line
search from the count-ratio candidate. That keeps the log-likelihood
non-decreasing at every iteration, which the tests assert unconditionally.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .data import check_series
from .errors import DegenerateModelError, MonotonicityError, NumericalError, ValidationError
from .regression import LinearMean, MlpMean, make_design

MEAN_FAMILIES = ("linear", "mlp")

_SIGMA_TINY = 1e-150
# A restart ends as collapsed once a regime's sigma falls below this fraction
# of the standard deviation of the series it fits: by then the regime fits a
# few observations exactly and the M-step has lost the precision that keeps
# EM monotone.
_SIGMA_REL_FLOOR = 1e-9
# A restart aborts as degenerate once a regime's total posterior mass falls
# below this many observation-equivalents.
_MIN_WEIGHT = 1.0


@dataclass(frozen=True)
class MsSpec:
    """Model shape: lag order and one mean family per regime, so the number
    of regimes is ``len(families)``."""

    lag: int = 1
    families: tuple[str, ...] = ("mlp", "linear")
    hidden_units: int = 3

    def __post_init__(self):
        object.__setattr__(self, "families", tuple(self.families))
        if self.n_regimes < 2:
            raise ValidationError("need at least two regimes")
        if self.lag < 1:
            raise ValidationError("lag must be >= 1")
        if self.hidden_units < 1:
            raise ValidationError("hidden_units must be >= 1")
        for fam in self.families:
            if fam not in MEAN_FAMILIES:
                raise ValidationError(f"unknown mean family {fam!r}")

    @property
    def n_regimes(self) -> int:
        return len(self.families)

    @property
    def n_params(self) -> int:
        per_mean = []
        for fam in self.families:
            if fam == "linear":
                per_mean.append(self.lag + 1)
            else:
                per_mean.append(self.hidden_units * (self.lag + 2) + 1)
        return self.n_regimes * (self.n_regimes - 1) + sum(per_mean) + self.n_regimes


@dataclass
class MsParams:
    """Transition matrix (column-stochastic), one mean model and one noise
    scale per regime; building params that are not one is a ValidationError."""

    transition: np.ndarray
    means: tuple[LinearMean | MlpMean, ...]
    sigmas: np.ndarray

    def __post_init__(self):
        self.transition = np.asarray(self.transition, dtype=float)
        self.sigmas = np.asarray(self.sigmas, dtype=float)
        self.means = tuple(self.means)
        A = self.transition
        n = self.n_regimes
        if A.shape != (n, n):
            raise ValidationError("transition matrix must be square")
        if not np.allclose(A.sum(axis=0), 1.0, atol=1e-9):
            raise ValidationError("transition columns must sum to 1")
        if np.any(A <= 0) or np.any(A >= 1):
            raise ValidationError("transition entries must lie strictly inside (0, 1)")
        if len(self.means) != n or self.sigmas.shape != (n,):
            raise ValidationError("one mean model and one sigma per regime")
        lags = {m.lag for m in self.means}
        if len(lags) != 1:
            raise ValidationError("all regimes must share the same lag order")
        if self.lag < 1:
            raise ValidationError("lag must be >= 1")
        if np.any(self.sigmas <= 0):
            raise ValidationError("sigmas must be strictly positive")

    @property
    def n_regimes(self) -> int:
        return self.transition.shape[0]

    @property
    def lag(self) -> int:
        return self.means[0].lag

    @property
    def p(self) -> float:
        """Persistence of regime 1 (stay probability)."""
        return float(self.transition[0, 0])

    @property
    def q(self) -> float:
        """Persistence of regime 2."""
        return float(self.transition[1, 1])

    def permuted(self, order) -> "MsParams":
        """Relabel regimes: new regime k is old regime order[k]."""
        order = list(order)
        A = self.transition[np.ix_(order, order)]
        return MsParams(
            transition=A,
            means=tuple(self.means[i] for i in order),
            sigmas=self.sigmas[order],
        )


def transition_from_pq(p: float, q: float) -> np.ndarray:
    return np.array([[p, 1.0 - q], [1.0 - p, q]])


def stationary_distribution(transition) -> np.ndarray:
    """Invariant probability vector of a column-stochastic chain.

    Two regimes keep the exact closed form ((1-q)/D, (1-p)/D) with
    D = (1-p) + (1-q); a degenerate chain (p = q = 1) has no unique
    invariant vector. Past two, pi solves [A - I; 1^T] pi = (0, ..., 0, 1)
    by least squares, and the chain is degenerate exactly when that matrix
    has rank below n: more than one closed class, so no unique pi.
    """
    A = np.asarray(transition, dtype=float)
    n = A.shape[0]
    if n == 2:
        p, q = A[0, 0], A[1, 1]
        denom = (1.0 - p) + (1.0 - q)
        if denom <= 0:
            raise NumericalError(
                "degenerate chain (p = q = 1): stationary distribution undefined"
            )
        return np.array([(1.0 - q) / denom, (1.0 - p) / denom])
    M = np.vstack([A - np.eye(n), np.ones(n)])
    pi, _, rank, _ = np.linalg.lstsq(M, np.eye(n + 1)[n], rcond=None)
    if rank < n:
        raise NumericalError("degenerate chain: stationary distribution undefined")
    pi = np.maximum(pi, 0.0)  # a transient state's 0 may solve as -1e-16
    return pi / pi.sum()


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def simulate(
    params: MsParams, T: int, seed: int = 0, burn_in: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (series, states) of length T from the generative model.

    The chain starts from its stationary distribution and the lag values
    from zeros; ``burn_in`` initial samples are discarded. From
    ``default_rng(seed)`` it draws one uniform for the initial state, then
    per step one normal for the noise and one uniform for the next state.
    """
    if T < 1:
        raise ValidationError("T must be >= 1")
    rng = np.random.default_rng(seed)
    A = params.transition
    n = params.n_regimes
    state = int(np.searchsorted(np.cumsum(stationary_distribution(A)), rng.random()))
    lags = np.zeros(params.lag)
    cum_cols = np.cumsum(A, axis=0)

    total = burn_in + T
    ys = np.empty(total)
    states = np.empty(total, dtype=int)
    for t in range(total):
        mean = float(params.means[state].predict(lags[None, :])[0])
        ys[t] = mean + params.sigmas[state] * rng.standard_normal()
        states[t] = state
        lags[1:] = lags[:-1]
        lags[0] = ys[t]
        state = int(np.searchsorted(cum_cols[:, state], rng.random()))
        state = min(state, n - 1)
    return ys[burn_in:], states[burn_in:]


# ---------------------------------------------------------------------------
# Filtering and smoothing
# ---------------------------------------------------------------------------

@dataclass
class RegimeProbabilities:
    """A-posteriori regime memberships, one row per usable step t = lag..T-1:
    the rows start at the model's lag, as the first ``lag`` observations
    only condition the recursion."""

    filtered: np.ndarray
    smoothed: np.ndarray


@dataclass
class FilterResult:
    """Forward-pass output; ``predicted[t]`` is P(x_t | data before t)."""

    filtered: np.ndarray
    predicted: np.ndarray
    loglik: float


def _log_densities(params: MsParams, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    L = np.empty((params.n_regimes, y.shape[0]))  # time last, as in _scan
    for i, (mean, sigma) in enumerate(zip(params.means, params.sigmas)):
        if sigma < _SIGMA_TINY:
            raise NumericalError(f"sigma underflow in regime {i + 1}")
        resid = y - mean.predict(X)
        # an overflowing residual gives a -inf density, which the filter
        # rejects as a vanishing likelihood
        with np.errstate(over="ignore"):
            L[i] = (
                -0.5 * np.log(2.0 * np.pi)
                - np.log(sigma)
                - 0.5 * (resid / sigma) ** 2
            )
    return L


def _scan(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix products M[..., k] @ ... @ M[..., 0] = exp(lg[k]) * P[..., k] of
    an (n, n, m) nonnegative stack, time last, by a Hillis-Steele scan: each
    of ceil(log2 m) levels divides every product by its largest entry."""
    n, _, m = M.shape
    P = M.copy()
    lg = np.zeros(m)
    d = 1
    while d < m:
        prod = P[:, :1, d:] * P[:1, :, :-d]
        for k in range(1, n):
            prod += P[:, k : k + 1, d:] * P[k : k + 1, :, :-d]
        scale = prod.reshape(n * n, m - d).max(axis=0)
        P[:, :, d:] = prod / scale
        lg[d:] = lg[d:] + lg[:-d] + np.log(scale)
        d *= 2
    return P, lg


def hamilton_filter(params: MsParams, series) -> FilterResult:
    """Forward recursion: filtered regime probabilities and log-likelihood.

    The first ``lag`` observations only condition the recursion. With the
    scaled densities E[t] = exp(L[t] - c[t]), c[t] = max L[t], the forward
    weights W[t] = diag(E[t]) A ... diag(E[1]) A diag(E[0] * pi) 1 are the
    prefix products of one ``_scan``; filtered rows are W[t] / sum(W[t]) and
    the log-likelihood is sum(c) plus the log of the last step's mass. Tests
    hold both to the per-step numpy recursion within rounding (1e-15).
    """
    X, y = make_design(series, params.lag)
    L = _log_densities(params, X, y)
    A = params.transition
    pi = stationary_distribution(A)
    # all -inf densities at a step give c = -inf and NaN masses from there on
    with np.errstate(invalid="ignore"):
        c = L.max(axis=0)
        E = np.exp(L - c)
    M = E[:, None, :] * A[:, :, None]
    M[:, :, 0] = np.diag(E[:, 0] * pi)
    P, lg = _scan(M)
    W = P.sum(axis=1)
    mass = W.sum(axis=0)
    vanished = np.flatnonzero(~(mass > 0))
    if vanished.size:
        raise NumericalError(f"vanishing likelihood at step {vanished[0]}: check sigmas")
    filtered = (W / mass).T
    return FilterResult(
        filtered=filtered, predicted=np.vstack([pi, filtered[:-1] @ A.T]),
        loglik=float(c.sum() + lg[-1] + np.log(mass[-1])),
    )


def kim_smoother(params: MsParams, filt: FilterResult) -> np.ndarray:
    """Backward recursion: P(x_t | whole sample) from the filter output.

    With g_t = filtered_t / predicted_t, r_t = smoothed_t / predicted_t
    obeys r_t = g_t * (A^T r_{t+1}) from r_{T-1} = g_{T-1}, so A^T r_{t+1}
    = A^T diag(g_{t+1}) ... A^T diag(g_{T-1}) 1 is a prefix product of one
    ``_scan``. Normalizing the rows of filtered_t * (A^T r_{t+1}) drops its
    scales; the last row is the last filtered row. Tests hold the result to
    the per-step numpy recursion within rounding (1e-15).
    """
    filtered = filt.filtered
    g = (filtered / filt.predicted).T[:, :0:-1]  # g_{T-1}, ..., g_1
    P, _ = _scan(params.transition.T[:, :, None] * g[None, :, :])
    head = filtered[:-1] * P.sum(axis=1)[:, ::-1].T
    return np.vstack([head / head.sum(axis=1, keepdims=True), filtered[-1:]])


def _pairwise_counts(params, filt, smoothed) -> np.ndarray:
    """xi[i, j] = expected number of j -> i transitions over usable steps."""
    A = params.transition
    filtered, predicted = filt.filtered, filt.predicted
    ratio = smoothed[1:] / predicted[1:]          # (n_use-1, n)
    # xi_t(i, j) = ratio[t, i] * A[i, j] * filtered[t-1, j]
    return A * (ratio.T @ filtered[:-1])


# ---------------------------------------------------------------------------
# EM estimation
# ---------------------------------------------------------------------------

class _DegenerateRestart(Exception):
    """Internal: one restart collapsed; try the next."""


def _transition_q_value(A, xi, sm0) -> float:
    """Expected complete-data log-likelihood terms that involve A,
    including the stationary initial-state term.

    Every A scored here is the current ``MsParams`` transition or a convex
    combination of it with the count-ratio candidate floored at 1e-10, so
    its entries lie strictly inside (0, 1): pi is unique and positive, and
    every log is finite."""
    return (float(np.sum(xi * np.log(A)))
            + float(np.sum(sm0 * np.log(stationary_distribution(A)))))


def _update_transition(A_old, xi, sm0) -> np.ndarray:
    """Monotone transition update.

    The count-ratio candidate maximizes the transition term alone; because
    filtering starts from the stationary distribution of A, the initial
    term also moves with A. A halving line search from the candidate back
    toward the current matrix keeps the full Q value non-decreasing.
    The candidate is floored away from the boundary so iterates stay
    strictly inside (0, 1) in floating point.
    """
    col = xi.sum(axis=0)
    if np.any(col <= 0):
        raise _DegenerateRestart("empty transition column")
    candidate = np.maximum(xi / col, 1e-10)
    candidate /= candidate.sum(axis=0)
    q_old = _transition_q_value(A_old, xi, sm0)
    step = 1.0
    for _ in range(60):
        A_new = A_old + step * (candidate - A_old)
        if _transition_q_value(A_new, xi, sm0) >= q_old:
            return A_new
        step *= 0.5
    return A_old


@dataclass
class EmResult:
    """The best restart's fit: ``trace`` holds its log-likelihood after
    each E-step. ``restart_logliks`` holds one final log-likelihood per EM
    run, None for a run that collapsed: the jittered restarts first and,
    for a spec with a perceptron regime, then its one run per assignment
    (see ``em_fit``). ``restart`` indexes that list. Each regime's family
    is its mean's ``kind`` and the lag is ``params.lag``."""

    params: MsParams
    probabilities: RegimeProbabilities
    trace: tuple[float, ...]
    converged: bool
    restart: int
    restart_logliks: tuple[float | None, ...]

    @property
    def loglik(self) -> float:
        return self.trace[-1]

    @property
    def n_iter(self) -> int:
        """E-steps the best restart ran, the last scoring its final M-step."""
        return len(self.trace)


def _initial_params(base: LinearMean, scale: float, n: int, rng) -> MsParams:
    """Jittered initialization of n linear regimes around the global AR fit
    ``base`` whose residual scale is ``scale``."""
    means = []
    for _ in range(n):
        jitter = rng.standard_normal(base.coef.shape[0]) * (
            0.5 * np.abs(base.coef) + 0.5 * scale
        )
        means.append(LinearMean(base.coef + jitter))
    sigmas = scale * rng.uniform(0.5, 1.5, size=n)
    diag = rng.uniform(0.7, 0.95, size=n)
    A = np.empty((n, n))
    for j in range(n):
        A[:, j] = (1.0 - diag[j]) / (n - 1)
        A[j, j] = diag[j]
    return MsParams(transition=A, means=tuple(means), sigmas=sigmas)


def _perceptron_starts(spec: MsSpec, linear: MsParams, X) -> list[MsParams]:
    """One start per assignment of the fitted linear regimes to the spec's
    slots: the linear fit relabeled, with each perceptron slot's line
    rebuilt as a perceptron on the design X (``MlpMean.from_line``).

    Slots of one family are interchangeable, so only the assignments that
    keep the regimes of each family in increasing order are tried: two for
    ``mlp,linear``, one for ``mlp,mlp``.
    """
    n, families = spec.n_regimes, spec.families
    starts = []
    for order in itertools.permutations(range(n)):
        if any(order[i] > order[j] for i, j in itertools.combinations(range(n), 2)
               if families[i] == families[j]):
            continue
        relabeled = linear.permuted(order)
        means = tuple(
            MlpMean.from_line(mean.coef, X, spec.hidden_units) if fam == "mlp" else mean
            for fam, mean in zip(families, relabeled.means)
        )
        starts.append(MsParams(relabeled.transition, means, relabeled.sigmas))
    return starts


def _m_step(params, X, y, smoothed, xi, sigma_floor) -> MsParams:
    masses = smoothed.sum(axis=0)
    if np.any(masses < _MIN_WEIGHT):
        weak = int(np.argmin(masses))
        raise _DegenerateRestart(
            f"regime {weak + 1} holds less than {_MIN_WEIGHT:g} observation-equivalent"
        )
    A = _update_transition(params.transition, xi, smoothed[0])
    means = []
    sigmas = np.empty(params.n_regimes)
    for i, mean in enumerate(params.means):
        w = smoothed[:, i]
        new_mean = mean.fit_weighted(X, y, w)
        resid = y - new_mean.predict(X)
        var = float(np.sum(w * resid * resid) / masses[i])
        if var < sigma_floor**2:
            raise _DegenerateRestart(
                f"regime {i + 1} sigma is below {_SIGMA_REL_FLOOR:g} times the "
                "series' standard deviation"
            )
        means.append(new_mean)
        sigmas[i] = np.sqrt(var)
    return MsParams(transition=A, means=tuple(means), sigmas=sigmas)


def _em_single(series, params, tol, max_iter):
    X, y = make_design(series, params.lag)
    sigma_floor = max(_SIGMA_REL_FLOOR * float(np.std(y)), _SIGMA_TINY)
    trace: list[float] = []
    converged = False
    for it in range(max_iter + 1):
        filt = hamilton_filter(params, series)
        smoothed = kim_smoother(params, filt)
        if trace and filt.loglik < trace[-1] - 1e-8:
            raise MonotonicityError(
                f"EM log-likelihood decreased from {trace[-1]!r} to {filt.loglik!r}"
            )
        trace.append(filt.loglik)
        if it == max_iter:  # this pass only scores the last M-step
            break
        if it > 0 and trace[-1] - trace[-2] < tol:
            converged = True
            break
        xi = _pairwise_counts(params, filt, smoothed)
        params = _m_step(params, X, y, smoothed, xi, sigma_floor)
    return params, RegimeProbabilities(filt.filtered, smoothed), trace, converged


def canonical_regime_order(params: MsParams) -> list[int]:
    """Regimes sorted by stationary probability, largest first (stable)."""
    pi = stationary_distribution(params.transition)
    return list(np.argsort(-pi, kind="stable"))


def em_fit(
    spec: MsSpec,
    series,
    seed: int = 0,
    tol: float = 1e-6,
    max_iter: int = 200,
    n_restarts: int = 10,
) -> EmResult:
    """Fit by EM; best of ``n_restarts`` seeded jittered initializations.

    The model has one regime per entry of ``spec.families``. Each M-step
    refits every regime's mean by its own ``fit_weighted`` (closed form for
    a linear mean, at most 200 Levenberg-Marquardt steps for a perceptron).

    A spec with a perceptron regime is fitted in two stages. The jittered
    restarts fit the nested spec, every regime linear; then one run of the
    spec starts from the best linear fit for each assignment of its regimes
    to the spec's slots, each perceptron reproducing its slot's line
    (``MlpMean.from_line``). The result is the best of those runs.

    Regimes in the result are relabeled so regime 1 has the largest
    stationary probability. A run aborts as degenerate when a regime's
    total posterior mass drops below one observation-equivalent, or its
    sigma below 1e-9 times the standard deviation of the series (a regime
    that fits a few observations exactly, as in a series of repeated
    values). If every run of a stage degenerates, a DegenerateModelError
    gives the first three distinct reasons and the count of steps that
    repeat the previous value exactly, which a regime can fit with sigma
    near 0; with more than two regimes, it also suggests fewer.
    """
    series = check_series(series)
    if max_iter < 0:
        raise ValidationError(f"max_iter must be >= 0, got {max_iter}")
    if not tol >= 0:  # also rejects NaN; 0 runs every restart to max_iter
        raise ValidationError(f"tol must be >= 0, got {tol}")
    if tol == np.inf:  # every first step would count as converged
        raise ValidationError(f"tol must be finite, got {tol}")
    X, y = make_design(series, spec.lag)
    n_use = series.shape[0]
    if n_use < 10 * spec.n_params:
        warnings.warn(
            f"series length {n_use} is short for {spec.n_params} parameters "
            f"(< 10 per parameter); estimates may be unstable",
            stacklevel=2,
        )

    if n_restarts < 1:
        raise ValidationError(f"n_restarts must be >= 1, got {n_restarts}")
    base = LinearMean(np.zeros(spec.lag + 1)).fit_weighted(X, y, np.ones(y.shape[0]))
    resid_std = float(np.std(y - base.predict(X), ddof=0))
    scale = max(resid_std, 1e-3 * max(float(np.std(y)), 1.0), 1e-12)
    logliks: list[float | None] = []
    starts = (
        _initial_params(base, scale, spec.n_regimes, np.random.default_rng(child))
        for child in np.random.SeedSequence(seed).spawn(n_restarts)
    )
    restart, fit = _best_run(series, starts, tol, max_iter, logliks)
    if "mlp" in spec.families:
        starts = _perceptron_starts(spec, fit[0], X)
        restart, fit = _best_run(series, starts, tol, max_iter, logliks)

    params, probs, trace, converged = fit
    order = canonical_regime_order(params)
    return EmResult(
        params=params.permuted(order),
        probabilities=RegimeProbabilities(
            probs.filtered[:, order], probs.smoothed[:, order]
        ),
        trace=tuple(trace),
        converged=converged,
        restart=restart,
        restart_logliks=tuple(logliks),
    )


def _best_run(series, starts, tol, max_iter, logliks):
    """Run EM from each start, appending each run's final log-likelihood
    (None if it collapsed) to ``logliks``. Returns the list index and the
    ``_em_single`` output of the best run, the earliest on a tie, or raises
    DegenerateModelError, naming each distinct reason once in the order
    first seen, when every run collapsed."""
    best, failures = None, []
    for start in starts:
        try:
            fit = _em_single(series, start, tol, max_iter)
        except _DegenerateRestart as exc:
            logliks.append(None)
            failures.append(str(exc))
            continue
        logliks.append(fit[2][-1])
        if best is None or fit[2][-1] > best[1][2][-1]:
            best = (len(logliks) - 1, fit)
    if best is None:
        repeats = np.count_nonzero(series[1:] == series[:-1])
        reasons = "; ".join(list(dict.fromkeys(failures))[:3])
        raise DegenerateModelError(
            f"all restarts degenerate ({reasons}); {repeats} of "
            f"{len(series) - 1} steps repeat the previous value exactly"
            + ("; try fewer regimes" if start.n_regimes > 2 else "")
        )
    return best
