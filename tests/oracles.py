"""Independent brute-force oracles used by the unit and acceptance tests.

Everything here recomputes quantities from first principles (exhaustive
enumeration, direct two-pass statistics) or with the plain reference
algorithms that the optimized code replaced (dense DP, per-step numpy
filter and smoother, per-cell quotation loops), without touching the
implementations under test.
"""

import itertools

import numpy as np

from bimetal.regression import LinearMean, MlpMean, make_design
from bimetal.switching import (
    EmResult,
    FilterResult,
    MsParams,
    RegimeProbabilities,
    _em_single,
    canonical_regime_order,
    hamilton_filter,
    kim_smoother,
    stationary_distribution,
)


def logsumexp(a):
    """log(sum(exp(a))), shifted by the largest entry; -inf if every entry is."""
    m = np.max(a)
    if m == -np.inf:
        return m
    return m + np.log(np.sum(np.exp(a - m)))


def _log_density_matrix(params, series):
    """L[t, i] = log N(y_t; mean_i(x_t), sigma_i) over the usable steps."""
    X, y = make_design(np.asarray(series, dtype=float), params.lag)
    L = np.empty((y.shape[0], params.n_regimes))
    for i in range(params.n_regimes):
        resid = y - params.means[i].predict(X)
        L[:, i] = (
            -0.5 * np.log(2 * np.pi)
            - np.log(params.sigmas[i])
            - 0.5 * (resid / params.sigmas[i]) ** 2
        )
    return L


def _path_log_weights(params, series):
    """Log joint weight of every state path over the usable steps."""
    L = _log_density_matrix(params, series)
    n_use, n = L.shape
    A = params.transition
    pi = stationary_distribution(A)

    paths = np.array(list(itertools.product(range(n), repeat=n_use)))
    logw = np.log(pi[paths[:, 0]])
    for t in range(1, n_use):
        logw = logw + np.log(A[paths[:, t], paths[:, t - 1]])
    logw = logw + L[np.arange(n_use)[None, :], paths].sum(axis=1)
    return paths, logw


def enumerate_loglik(params, series):
    """Log-likelihood as a direct sum over all n_regimes^T state paths."""
    _, logw = _path_log_weights(params, series)
    return float(logsumexp(logw))


def posterior_probabilities(params, series):
    """Filtered and smoothed regime probabilities of ``series`` in one call."""
    filt = hamilton_filter(params, series)
    return RegimeProbabilities(filt.offset, filt.loglik, filt.filtered,
                               kim_smoother(params, filt))


def enumerate_posteriors(params, series):
    """Exact smoothed posteriors P(x_t = i | all data) by path enumeration."""
    paths, logw = _path_log_weights(params, series)
    total = logsumexp(logw)
    n_use = paths.shape[1]
    n = int(paths.max()) + 1
    post = np.empty((n_use, n))
    for t in range(n_use):
        for i in range(n):
            mask = paths[:, t] == i
            post[t, i] = np.exp(logsumexp(logw[mask]) - total) if mask.any() else 0.0
    return post, float(total)


def numpy_filter(params, series):
    """Reference Hamilton filter: one normalized numpy step per t.

    The per-step recursion that ``hamilton_filter``'s prefix scan replaced;
    same inputs, same FilterResult. Each step scales the densities by its
    largest log-density before weighting the prediction, so it rounds at
    the ulp of the probabilities, not at that of the log-densities.
    """
    L = _log_density_matrix(params, series)
    A = params.transition
    n_use, n = L.shape
    filtered = np.empty((n_use, n))
    predicted = np.empty((n_use, n))
    pred = stationary_distribution(A)
    loglik = 0.0
    for t in range(n_use):
        predicted[t] = pred
        m = L[t].max()
        w = pred * np.exp(L[t] - m)
        s = w.sum()
        loglik += m + np.log(s)
        f = w / s
        filtered[t] = f
        pred = A @ f
    return FilterResult(
        filtered=filtered, predicted=predicted, loglik=float(loglik),
        offset=params.lag,
    )


def numpy_smoother(params, filt):
    """Reference Kim smoother: one normalized numpy step per t."""
    A = params.transition
    filtered, predicted = filt.filtered, filt.predicted
    smoothed = np.empty_like(filtered)
    smoothed[-1] = filtered[-1]
    for t in range(filtered.shape[0] - 2, -1, -1):
        ratio = smoothed[t + 1] / predicted[t + 1]
        smoothed[t] = filtered[t] * (A.T @ ratio)
        smoothed[t] /= smoothed[t].sum()
    return smoothed


def two_pass_segment_stats(series, i, j):
    """Plain two-pass mean and biased variance of series[i:j]."""
    seg = np.asarray(series[i:j], dtype=float)
    mean = seg.sum() / seg.size
    var = ((seg - mean) ** 2).sum() / seg.size
    return mean, var


def naive_cost_table(series, mode, min_seg_len):
    """Per-segment contrasts computed directly (two passes per segment),
    independent of any cumulative-sum machinery."""
    series = np.asarray(series, dtype=float)
    T = series.shape[0]
    floor = max(series.var() * 1e-12, 1e-300)
    table = np.full((T + 1, T + 1), np.inf)
    for i in range(T):
        for j in range(i + min_seg_len, T + 1):
            mean, var = two_pass_segment_stats(series, i, j)
            if mode == "mean":
                table[i, j] = ((series[i:j] - mean) ** 2).sum()
            else:
                table[i, j] = (j - i) * np.log(max(var, floor))
    return table


def enumerate_best_segmentation(series, K, mode, min_seg_len=1):
    """Exhaustive minimum-cost segmentation into K segments.

    Returns (cost, tau) where tau is the lexicographically smallest interior
    change-point tuple among the optima (strict improvement over combinations
    generated in lexicographic order).
    """
    T = len(series)
    table = naive_cost_table(series, mode, min_seg_len)
    best_cost, best_tau = np.inf, None
    for tau in itertools.combinations(range(1, T), K - 1):
        bounds = (0,) + tau + (T,)
        cost = 0.0
        for a, b in zip(bounds, bounds[1:]):
            cost += table[a, b]
        if cost < best_cost:
            best_cost, best_tau = cost, tau
    return best_cost, best_tau


def dense_cost_matrix(series, mode, min_seg_len):
    """The full (T+1)x(T+1) prefix-sum contrast matrix; entry (i, j) covers
    series[i:j] and pairs shorter than min_seg_len hold +inf."""
    series = np.asarray(series, dtype=float)
    T = series.shape[0]
    floor = max(float(series.var()) * 1e-12, 1e-300)
    c1 = np.concatenate([[0.0], np.cumsum(series)])
    c2 = np.concatenate([[0.0], np.cumsum(series * series)])
    n = np.arange(T + 1)[None, :] - np.arange(T + 1)[:, None]  # j - i
    with np.errstate(divide="ignore", invalid="ignore"):
        sums = c1[None, :] - c1[:, None]
        sse = (c2[None, :] - c2[:, None]) - sums * sums / n
        sse = np.maximum(sse, 0.0)
        if mode == "mean":
            cost = sse
        else:
            cost = n * np.log(np.maximum(sse / n, floor))
    cost[n < min_seg_len] = np.inf
    return cost


def dense_dp(series, mode, K_max, min_seg_len):
    """Quadratic-memory reference DP over the dense cost matrix.

    G[k] is the minimum over the whole matrix row of cost + G[k-1], one
    full-matrix pass per k; the backtrack takes the first argmin over each
    full row. Returns the contrast curve J_1..J_K_max and, for every K, the
    earliest optimal interior change-point tuple.
    """
    matrix = dense_cost_matrix(series, mode, min_seg_len)
    T = matrix.shape[0] - 1
    G = np.full((K_max + 1, T + 1), np.inf)
    G[1] = matrix[:, T]
    for k in range(2, K_max + 1):
        G[k] = (matrix + G[k - 1][None, :]).min(axis=1)
    taus = {}
    for K in range(1, K_max + 1):
        tau, i = [], 0
        for k in range(K, 1, -1):
            i = int(np.argmin(matrix[i, :] + G[k - 1]))
            tau.append(i)
        taus[K] = tuple(tau)
    return G[1:, 0], taus


def seed_train_som(X, rows, cols, epochs, seed):
    """Reference online Kohonen training: the per-step loop that the
    per-epoch ``som.train_som`` schedule replaced; returns the code vectors.
    The schedule's numbers are written here, not read from ``som``, so a
    changed constant there shows as a mismatch."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, size=rows * cols, replace=n < rows * cols)
    code = X[idx].copy()

    r, c = np.divmod(np.arange(rows * cols), cols)
    pos = np.column_stack([r, c]).astype(float)
    grid_d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)

    lr_start, lr_end = 0.5, 0.01
    r_start, r_end = max(rows, cols) / 2.0, 0.5
    total = max(epochs * n - 1, 1)
    step = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for i in order:
            frac = step / total
            lr = lr_start + (lr_end - lr_start) * frac
            radius = r_start + (r_end - r_start) * frac
            x = X[i]
            bmu = int(((code - x) ** 2).sum(axis=1).argmin())
            h = np.exp(-grid_d2[bmu] / (2.0 * radius * radius))
            code += (lr * h)[:, None] * (x - code)
            step += 1
    return code


def one_shot_sq_dists(code, X):
    """(n, n_nodes) squared distances from each row of X to each code vector
    in one (n, n_nodes, dim) array: the best-matching-node search before it
    walked the rows in blocks."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    return ((X[:, None, :] - code[None, :, :]) ** 2).sum(axis=2)


def mlp_gradient(mlp, X, y, w):
    """Gradient of ``mlp.loss`` from ``mlp.jacobian``, flattened like
    ``flat_params()``."""
    pred, J = mlp.jacobian(X)
    return J.T @ (w * (pred - y))


def _seed_mlp_jacobian(mlp, X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    H = np.tanh(X @ mlp.w1.T + mlp.b1)
    dz = (1.0 - H * H) * mlp.w2
    n = X.shape[0]
    J = np.concatenate(
        [(dz[:, :, None] * X[:, None, :]).reshape(n, -1), dz, H, np.ones((n, 1))],
        axis=1,
    )
    return H @ mlp.w2 + mlp.b2, J


def seed_mlp_fit(mlp, X, y, w, steps=200):
    """Reference Levenberg–Marquardt fit: the loop that recomputed each
    accepted candidate's forward pass for its Jacobian and built the damping
    as two dense diagonal matrices. Scores every candidate through
    ``MlpMean.loss``, as ``MlpMean.fit_weighted`` must."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    current = mlp
    loss = current.loss(X, y, w)
    lam = 1e-3
    for _ in range(steps):
        pred, J = _seed_mlp_jacobian(current, X)
        JW = J.T * w
        A = JW @ J
        g = JW @ (pred - y)
        d = np.diag(A)
        D = np.diag(d + 1e-12 * (1.0 + d.max()))
        theta = current.flat_params()
        while True:
            try:
                delta = np.linalg.solve(A + lam * D, -g)
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None:
                candidate = current.with_flat_params(theta + delta)
                cand_loss = candidate.loss(X, y, w)
                if np.isfinite(cand_loss) and cand_loss <= loss:
                    break
            lam *= 10.0
            if lam > 1e16:
                return current
        stalled = loss - cand_loss <= 1e-10 * loss
        current, loss = candidate, cand_loss
        lam = max(lam * 0.1, 1e-12)
        if stalled:
            break
    return current


def random_mlp(lag, hidden, rng, scale=0.5, output_level=0.0):
    """A perceptron of small random weights, the output bias near
    ``output_level``: the fixture of the tests that need a generic network.
    Draws w1, b1, w2, then b2 from ``rng``, in that order."""
    return MlpMean(
        w1=scale * rng.standard_normal((hidden, lag)),
        b1=scale * rng.standard_normal(hidden),
        w2=scale * rng.standard_normal(hidden),
        b2=output_level + 0.1 * scale * rng.standard_normal(),
    )


def seed_em_fit(spec, series, seed, tol, max_iter, n_restarts):
    """Reference EM of an all-linear spec: the best of ``n_restarts`` runs,
    each from a jittered global AR fit drawn from its own SeedSequence
    child, with the regimes put in canonical order. The jitter is written
    here, not read from ``switching``, so a changed draw there shows as a
    mismatch; the EM iterations are ``switching._em_single``'s."""
    series = np.asarray(series, dtype=float)
    n = spec.n_regimes
    X, y = make_design(series, spec.lag)
    base = LinearMean(np.zeros(spec.lag + 1)).fit_weighted(X, y, np.ones(y.shape[0]))
    resid_std = float(np.std(y - base.predict(X), ddof=0))
    scale = max(resid_std, 1e-3 * max(float(np.std(y)), 1.0), 1e-12)
    best, logliks = None, []
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(n_restarts)):
        rng = np.random.default_rng(child)
        means = tuple(
            LinearMean(base.coef + rng.standard_normal(spec.lag + 1)
                       * (0.5 * np.abs(base.coef) + 0.5 * scale))
            for _ in range(n)
        )
        sigmas = scale * rng.uniform(0.5, 1.5, size=n)
        diag = rng.uniform(0.7, 0.95, size=n)
        A = np.tile((1.0 - diag) / (n - 1), (n, 1))
        A[np.arange(n), np.arange(n)] = diag
        params, probs, trace, converged = _em_single(
            spec, series, MsParams(A, means, sigmas), tol, max_iter)
        logliks.append(trace[-1])
        if best is None or trace[-1] > best[2][-1]:
            best = (params, probs, trace, converged, r)
    params, probs, trace, converged, restart = best
    order = canonical_regime_order(params)
    return EmResult(
        spec=spec, seed=seed, params=params.permuted(order),
        probabilities=RegimeProbabilities(
            offset=probs.offset, loglik=probs.loglik,
            filtered=probs.filtered[:, order], smoothed=probs.smoothed[:, order]),
        trace=tuple(trace), converged=converged, restart=restart,
        restart_logliks=tuple(logliks),
    )


def seed_week_derivations(values, hpl_kind):
    """Per-day spread and hpl of a complete (n, 12) quotation array, cell by
    cell in Python floats, as the per-week records computed them: the spread
    is max minus min of poa, lgs and hoa, and hpl is hoa minus, or over,
    the mean of poa and lgs. Returns two (n, 2) arrays, Tuesday first."""
    per_day, hpl = [], []
    for row in values.tolist():
        spreads, hpls = [], []
        for day in range(2):
            poa, lgs, hoa = row[day], row[2 + day], row[4 + day]
            spreads.append(max(poa, lgs, hoa) - min(poa, lgs, hoa))
            avg = (poa + lgs) / 2.0
            hpls.append(hoa - avg if hpl_kind == "difference" else hoa / avg)
        per_day.append(spreads)
        hpl.append(hpls)
    return np.array(per_day), np.array(hpl)
