import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from bimetal.data import from_json, to_json
from bimetal.errors import ValidationError
from bimetal.regression import LinearMean, MlpMean, make_design
from bimetal.switching import MsParams, simulate, transition_from_pq
from oracles import mlp_gradient, random_mlp, seed_mlp_fit


def test_make_design_layout():
    y = np.arange(10.0)
    X, target = make_design(y, lag=3)
    assert X.shape == (7, 3)
    # row for t=3: lags (y_2, y_1, y_0)
    assert_allclose(X[0], [2.0, 1.0, 0.0])
    assert_allclose(target, y[3:])


def test_make_design_too_short():
    with pytest.raises(ValidationError, match="usable"):
        make_design(np.ones(2), lag=2)


def test_make_design_lag_below_one():
    with pytest.raises(ValidationError, match="lag must be >= 1"):
        make_design(np.ones(5), lag=0)


def test_linear_predict_and_exact_recovery():
    rng = np.random.default_rng(0)
    true = LinearMean(np.array([0.5, -0.3, 0.8]))
    X = rng.standard_normal((50, 2))
    y = true.predict(X)
    fitted = LinearMean(np.zeros(3)).fit_weighted(X, y, np.ones(50))
    assert_allclose(fitted.coef, true.coef, atol=1e-10)


def test_linear_weighted_ignores_zero_weight_rows():
    rng = np.random.default_rng(1)
    true = LinearMean(np.array([1.0, 2.0]))
    X = rng.standard_normal((40, 1))
    y = true.predict(X)
    y_corrupt = y.copy()
    y_corrupt[:10] += 100.0
    w = np.ones(40)
    w[:10] = 0.0
    fitted = LinearMean(np.zeros(2)).fit_weighted(X, y_corrupt, w)
    assert_allclose(fitted.coef, true.coef, atol=1e-10)


def central_difference_gradient(mlp, X, y, w, h=1e-6):
    theta = mlp.flat_params()
    grad = np.empty_like(theta)
    for i in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (
            mlp.with_flat_params(up).loss(X, y, w)
            - mlp.with_flat_params(dn).loss(X, y, w)
        ) / (2 * h)
    return grad


@pytest.mark.parametrize("seed", range(5))
def test_mlp_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    lag, hidden, n = rng.integers(1, 4), rng.integers(1, 5), 12
    mlp = random_mlp(int(lag), int(hidden), rng)
    X = rng.standard_normal((n, int(lag)))
    y = rng.standard_normal(n)
    w = rng.uniform(0.1, 2.0, size=n)
    analytic = mlp_gradient(mlp, X, y, w)
    numeric = central_difference_gradient(mlp, X, y, w)
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    assert np.linalg.norm(analytic - numeric) / denom < 1e-5


def test_mlp_jacobian_matches_predict_and_finite_differences():
    rng = np.random.default_rng(6)
    mlp = random_mlp(2, 3, rng)
    X = rng.standard_normal((7, 2))
    pred, J = mlp.jacobian(X)
    assert_allclose(pred, mlp.predict(X), rtol=1e-12)
    theta, h = mlp.flat_params(), 1e-6
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        numeric = (mlp.with_flat_params(theta + step).predict(X)
                   - mlp.with_flat_params(theta - step).predict(X)) / (2 * h)
        assert_allclose(J[:, i], numeric, atol=1e-8)


def lm_case(seed, case):
    """(start, X, y, w, steps) of one perceptron fit on a smooth signal."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((200, 2))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1]
    w = rng.uniform(0.5, 1.5, size=200)
    mlp = random_mlp(2, 2 if case == "two_hidden" else 3, rng)
    steps = 100
    if case == "dead_unit":  # zero columns in the Jacobian
        mlp.w2[0] = 0.0
    elif case == "sparse_weights":  # fewer weighted points than parameters
        w[rng.permutation(200)[:190]] = 0.0
    elif case == "no_steps":
        steps = 0
    elif case == "nan_target":  # every candidate is rejected: damping overflow
        y[7] = np.nan
    return mlp, X, y, w, steps


@pytest.mark.parametrize("seed,case", [
    (3, "plain"), (0, "plain"), (1, "plain"), (2, "plain"),
    (3, "dead_unit"), (3, "sparse_weights"), (3, "no_steps"),
])
def test_mlp_fit_never_increases_loss(seed, case):
    mlp, X, y, w, steps = lm_case(seed, case)
    before = mlp.loss(X, y, w)
    fitted = mlp.fit_weighted(X, y, w, steps=steps)
    assert np.all(np.isfinite(fitted.flat_params()))
    assert fitted.loss(X, y, w) <= before
    if case == "no_steps":
        assert_array_equal(fitted.flat_params(), mlp.flat_params())
    else:  # every case has room to improve on a random start
        assert fitted.loss(X, y, w) < before


LM_ORACLE_CASES = [
    (0, "plain"), (1, "plain"), (2, "plain"), (3, "plain"),
    (3, "dead_unit"), (3, "sparse_weights"), (3, "no_steps"),
    (3, "two_hidden"), (3, "nan_target"),
]


@pytest.mark.parametrize("seed,case", LM_ORACLE_CASES)
def test_mlp_fit_is_bitwise_the_seed_loop(seed, case):
    mlp, X, y, w, steps = lm_case(seed, case)
    fitted = mlp.fit_weighted(X, y, w, steps=steps)
    expected = seed_mlp_fit(mlp, X, y, w, steps=steps)
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(fitted, name), getattr(expected, name)), name


@pytest.mark.parametrize("seed,case", LM_ORACLE_CASES)
def test_mlp_fit_scores_as_many_candidates_as_the_seed_loop(seed, case, monkeypatch):
    calls = []
    loss = MlpMean.loss

    def counted(self, X, y, w):
        calls.append(1)
        return loss(self, X, y, w)

    monkeypatch.setattr(MlpMean, "loss", counted)
    mlp, X, y, w, steps = lm_case(seed, case)
    mlp.fit_weighted(X, y, w, steps=steps)
    n_fit = len(calls)
    seed_mlp_fit(mlp, X, y, w, steps=steps)
    assert n_fit == len(calls) - n_fit
    if case == "nan_target":  # the start, then one candidate per damping 1e-3..1e16
        assert n_fit == 21


def test_mlp_fit_reaches_a_stationary_point():
    rng = np.random.default_rng(4)
    X = rng.uniform(-2, 2, size=(200, 1))
    y = np.tanh(1.5 * X[:, 0]) * 2.0 + 0.3 + 0.1 * rng.standard_normal(200)
    w = rng.uniform(0.2, 1.0, size=200)
    mlp = random_mlp(1, 3, rng, output_level=float(y.mean()))
    fitted = mlp.fit_weighted(X, y, w, steps=200)
    assert np.max(np.abs(mlp_gradient(fitted, X, y, w))) < 1e-4


def test_mlp_fits_nonlinear_signal():
    rng = np.random.default_rng(4)
    X = rng.uniform(-2, 2, size=(200, 1))
    y = np.tanh(1.5 * X[:, 0]) * 2.0 + 0.3
    w = np.ones(200)
    mlp = random_mlp(1, 3, rng, output_level=float(y.mean()))
    fitted = mlp.fit_weighted(X, y, w, steps=400)
    mse = np.mean((fitted.predict(X) - y) ** 2)
    assert mse < 0.05


def test_mean_serialization_roundtrip():
    rng = np.random.default_rng(5)
    lin = LinearMean(np.array([0.1, 0.9]))
    assert_allclose(from_json(LinearMean, to_json(lin)).coef, lin.coef)
    mlp = random_mlp(2, 3, rng)
    again = from_json(MlpMean, to_json(mlp))
    X = rng.standard_normal((5, 2))
    assert_allclose(again.predict(X), mlp.predict(X))


def spread_like_design(lag):
    """Lagged design of a positive two-regime AR series at the simulation's
    default coefficients and scales."""
    pad = [0.0] * (lag - 1)
    params = MsParams(
        transition=transition_from_pq(0.844298, 0.746643),
        means=(LinearMean([0.05, 0.6, *pad]), LinearMean([0.18, 0.3, *pad])),
        sigmas=[0.02, 0.08],
    )
    series, _ = simulate(params, T=500, seed=0)
    return make_design(series, lag)[0]


@pytest.mark.parametrize("coef", [(0.05, 0.6), (0.05, 0.5, 0.1)], ids=["lag1", "lag2"])
def test_mlp_from_line_reproduces_the_line(coef):
    X = spread_like_design(len(coef) - 1)
    line = LinearMean(coef).predict(X)
    mlp = MlpMean.from_line(coef, X, hidden=3)
    assert mlp.w1.shape == (3, len(coef) - 1)
    assert np.linalg.norm(mlp.predict(X) - line) <= 0.02 * np.linalg.norm(line)
    again = MlpMean.from_line(coef, X, hidden=3)
    for name in ("w1", "b1", "w2", "b2"):
        assert_array_equal(getattr(again, name), getattr(mlp, name))


def test_mlp_from_line_without_slope_or_spread_is_the_constant():
    X = spread_like_design(1)
    for coef, design in (((0.3, 0.0), X), ((0.3, 0.5), np.full_like(X, 0.2))):
        for hidden in (1, 3):
            mlp = MlpMean.from_line(coef, design, hidden)
            assert np.all(np.isfinite(mlp.flat_params()))
            assert_allclose(mlp.predict(design), LinearMean(coef).predict(design),
                            rtol=1e-12)
