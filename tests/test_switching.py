import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from bimetal.data import from_json, to_json
from bimetal.errors import (
    DegenerateModelError,
    NumericalError,
    ValidationError,
)
from bimetal.regression import LinearMean
from bimetal.switching import (
    EmResult,
    MsParams,
    MsSpec,
    _em_single,
    _perceptron_starts,
    em_fit,
    hamilton_filter,
    kim_smoother,
    simulate,
    stationary_distribution,
    transition_from_pq,
)

from oracles import (
    enumerate_loglik,
    enumerate_posteriors,
    numpy_filter,
    numpy_smoother,
    posterior_probabilities,
    random_mlp,
)

REF_P, REF_Q = 0.844298, 0.746643


def linear_params(p=0.9, q=0.8, coefs=((2.0, 0.5), (-1.0, 0.2)), sigmas=(0.3, 0.6)):
    return MsParams(
        transition=transition_from_pq(p, q),
        means=tuple(LinearMean(np.array(c)) for c in coefs),
        sigmas=np.array(sigmas),
    )


def random_params(rng, lag=1, mlp=False, n_regimes=2):
    if n_regimes == 2:
        transition = transition_from_pq(*rng.uniform(0.1, 0.9, size=2))
    else:  # column j is the distribution of the next regime from regime j
        transition = rng.dirichlet(np.ones(n_regimes), size=n_regimes).T
    means = []
    for _ in range(n_regimes):
        if mlp:
            means.append(random_mlp(lag, 2, rng))
        else:
            means.append(LinearMean(rng.uniform(-1, 1, size=lag + 1)))
    return MsParams(
        transition=transition,
        means=tuple(means),
        sigmas=rng.uniform(0.2, 1.5, size=n_regimes),
    )


# ---------------------------------------------------------------------------
# Stationary distribution
# ---------------------------------------------------------------------------

def test_stationary_symmetric():
    assert_allclose(
        stationary_distribution(transition_from_pq(0.5, 0.5)), [0.5, 0.5]
    )


def test_stationary_reference_matrix():
    # hand-solved 2x2 eigenproblem: pi_1 = (1-q) / ((1-p) + (1-q))
    pi = stationary_distribution(transition_from_pq(REF_P, REF_Q))
    by_hand = (1 - REF_Q) / ((1 - REF_P) + (1 - REF_Q))
    assert_allclose(pi[0], by_hand, atol=1e-12)
    assert pi[0] == pytest.approx(0.6194, abs=5e-5)


@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
def test_stationary_defining_property(p, q):
    A = transition_from_pq(p, q)
    pi = stationary_distribution(A)
    assert_allclose(A @ pi, pi, atol=1e-12)
    assert pi.sum() == pytest.approx(1.0)
    assert (pi >= 0).all()


def test_stationary_degenerate_errors():
    with pytest.raises(NumericalError, match="degenerate"):
        stationary_distribution(transition_from_pq(1.0, 1.0))


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def test_simulate_replays_its_draws():
    """The series and the regime path, rebuilt bit for bit from the same
    generator: a uniform for the stationary initial state, then per step
    the regime's mean of the previous value plus sigma times a normal, and
    a uniform against the current state's column for the next state."""
    p, q = 0.9, 0.6
    coefs, sigmas = ((1.0, 0.5), (0.0, 0.9)), (0.3, 0.7)
    y, states = simulate(linear_params(p, q, coefs, sigmas), T=40, seed=4, burn_in=0)
    rng = np.random.default_rng(4)
    state = int(rng.random() > (1 - q) / ((1 - p) + (1 - q)))
    to_first = (p, 1 - q)  # P(next regime is 0 | current regime)
    prev, expect_y, expect_states = 0.0, [], []
    for _ in range(40):
        a0, a1 = coefs[state]
        prev = (a0 + a1 * prev) + sigmas[state] * rng.standard_normal()
        expect_y.append(prev)
        expect_states.append(state)
        state = int(rng.random() > to_first[state])
    assert_array_equal(y, expect_y)
    assert_array_equal(states, expect_states)
    assert np.count_nonzero(np.diff(expect_states)) >= 5  # the regimes alternate


def test_simulate_transition_frequencies():
    p, q = 0.85, 0.7
    params = linear_params(p=p, q=q)
    _, states = simulate(params, T=100_000, seed=7, burn_in=200)
    stay0 = np.mean(states[1:][states[:-1] == 0] == 0)
    stay1 = np.mean(states[1:][states[:-1] == 1] == 1)
    assert stay0 == pytest.approx(p, abs=0.01)
    assert stay1 == pytest.approx(q, abs=0.01)


@pytest.mark.parametrize("kwargs, message", [
    ({"T": 0}, "T must be >= 1"),
])
def test_simulate_rejects_bad_arguments(kwargs, message):
    with pytest.raises(ValidationError, match=message):
        simulate(**{"params": linear_params(), "T": 10, "seed": 0, **kwargs})


def test_simulate_deterministic():
    params = linear_params()
    a = simulate(params, T=100, seed=42)
    b = simulate(params, T=100, seed=42)
    assert_array_equal(a[0], b[0])
    assert_array_equal(a[1], b[1])


# ---------------------------------------------------------------------------
# Hamilton filter
# ---------------------------------------------------------------------------

def test_filter_identical_regimes_carry_no_information():
    params = linear_params(p=0.7, q=0.55, coefs=((0.5, 0.3), (0.5, 0.3)),
                           sigmas=(0.4, 0.4))
    rng = np.random.default_rng(0)
    series = rng.standard_normal(40)
    out = hamilton_filter(params, series)
    pi = stationary_distribution(params.transition)
    assert_allclose(out.filtered, np.tile(pi, (39, 1)), atol=1e-12)


def test_filter_single_step_hand_computed():
    params = linear_params(p=0.9, q=0.8, coefs=((1.0, 0.5), (-1.0, 0.1)),
                           sigmas=(0.5, 1.0))
    y0, y1 = 0.7, 1.4
    out = hamilton_filter(params, [y0, y1])
    # by hand: posterior ~ pi_i * N(y1; mean_i(y0), sigma_i)
    pi = [(1 - 0.8) / (0.1 + 0.2), 0.1 / (0.1 + 0.2)]
    dens = []
    for mean, sigma in [(1.0 + 0.5 * y0, 0.5), (-1.0 + 0.1 * y0, 1.0)]:
        dens.append(
            np.exp(-0.5 * ((y1 - mean) / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi))
        )
    joint = np.array([pi[0] * dens[0], pi[1] * dens[1]])
    assert_allclose(out.filtered[0], joint / joint.sum(), atol=1e-12)
    assert out.loglik == pytest.approx(np.log(joint.sum()), abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_filter_matches_path_enumeration(seed):
    for n_regimes in (2, 3):
        rng = np.random.default_rng(seed)
        lag = int(rng.integers(1, 3))
        params = random_params(rng, lag=lag, mlp=bool(seed % 3 == 0),
                               n_regimes=n_regimes)
        T = int(rng.integers(lag + 3, lag + 11))
        series, _ = simulate(params, T=T, seed=seed + 100, burn_in=20)
        out = hamilton_filter(params, series)
        want = enumerate_loglik(params, series)
        assert out.loglik == pytest.approx(want, abs=1e-8), n_regimes


def test_filter_rejects_nonfinite():
    params = linear_params()
    with pytest.raises(ValidationError, match="non-finite"):
        hamilton_filter(params, [1.0, np.nan, 2.0])


@pytest.mark.parametrize("change, message", [
    ({"transition": np.full((2, 3), 0.5)}, "must be square"),
    ({"transition": [[1.2, 0.2], [-0.2, 0.8]]}, r"strictly inside \(0, 1\)"),
    ({"transition": [[0.9, 0.3], [0.2, 0.7]]}, "columns must sum to 1"),
    ({"transition": transition_from_pq(1.0, 0.8)}, r"strictly inside \(0, 1\)"),
    ({"sigmas": [0.3, 0.6, 0.9]}, "one mean model and one sigma per regime"),
    ({"means": (LinearMean(np.array([2.0, 0.5])),)}, "one mean model and one sigma"),
    ({"means": (LinearMean(np.array([2.0, 0.5])), LinearMean(np.array([1.0, 0.2, 0.1])))},
     "same lag order"),
    ({"sigmas": [0.3, 0.0]}, "strictly positive"),
    ({"sigmas": [-0.3, 0.6]}, "strictly positive"),
    ({"means": (LinearMean(np.array([0.1])), LinearMean(np.array([0.2])))},
     "lag must be >= 1"),
], ids=["not-square", "outside-0-1", "column-sum", "absorbing", "three-sigmas",
        "one-mean", "mixed-lags", "zero-sigma", "negative-sigma", "zero-lag"])
def test_filter_rejects_invalid_params(change, message):
    # the params refuse to be built, so no filter or simulation gets them
    with pytest.raises(ValidationError, match=message):
        dataclasses.replace(linear_params(), **change)


def test_filter_rejects_a_series_no_longer_than_the_lag():
    with pytest.raises(ValidationError, match="length 1 has no usable steps at lag 1"):
        hamilton_filter(linear_params(), np.array([0.3]))


@pytest.mark.filterwarnings("error")
def test_filter_vanishing_likelihood():
    # series[10] = 1e200 is the target of usable step 9, where every
    # regime's log-density is -inf; the overflow behind it is no warning
    series = np.zeros(20)
    series[10] = 1e200
    with pytest.raises(NumericalError, match="vanishing likelihood at step 9"):
        hamilton_filter(linear_params(), series)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("target, step", [(1, 0), (19, 18)])
def test_filter_vanishing_likelihood_at_the_ends(target, step):
    # usable steps 0..18; step 18 is the last
    series = np.zeros(20)
    series[target] = 1e200
    with pytest.raises(NumericalError, match=f"vanishing likelihood at step {step}:"):
        hamilton_filter(linear_params(), series)


def test_filter_sigma_underflow():
    params = MsParams(
        transition=transition_from_pq(0.9, 0.8),
        means=(LinearMean(np.zeros(2)), LinearMean(np.zeros(2))),
        sigmas=np.array([1e-200, 1.0]),
    )
    with pytest.raises(NumericalError, match="regime 1"):
        hamilton_filter(params, np.ones(10))


# ---------------------------------------------------------------------------
# Kim smoother
# ---------------------------------------------------------------------------

def test_smoother_last_step_equals_filtered():
    params = linear_params()
    series, _ = simulate(params, T=30, seed=1)
    filt = hamilton_filter(params, series)
    smoothed = kim_smoother(params, filt)
    assert_allclose(smoothed[-1], filt.filtered[-1], atol=1e-12)


def test_smoother_identical_regimes_stationary():
    params = linear_params(coefs=((0.5, 0.3), (0.5, 0.3)), sigmas=(0.4, 0.4))
    rng = np.random.default_rng(5)
    series = rng.standard_normal(25)
    filt = hamilton_filter(params, series)
    smoothed = kim_smoother(params, filt)
    pi = stationary_distribution(params.transition)
    assert_allclose(smoothed, np.tile(pi, (24, 1)), atol=1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_smoother_matches_path_enumeration(seed):
    for n_regimes in (2, 3):
        rng = np.random.default_rng(seed + 50)
        params = random_params(rng, lag=1, n_regimes=n_regimes)
        series, _ = simulate(params, T=10, seed=seed, burn_in=10)
        probs = posterior_probabilities(params, series)
        post, total = enumerate_posteriors(params, series)
        assert_allclose(probs.smoothed, post, atol=1e-8)
        assert hamilton_filter(params, series).loglik == pytest.approx(total, abs=1e-8)


def test_probability_rows_normalized():
    for n_regimes in (2, 3):
        rng = np.random.default_rng(11)
        for seed in range(10):
            params = random_params(rng, lag=1, n_regimes=n_regimes)
            series, _ = simulate(params, T=60, seed=seed)
            probs = posterior_probabilities(params, series)
            for mat in (probs.filtered, probs.smoothed):
                assert_allclose(mat.sum(axis=1), 1.0, atol=1e-9)
                assert ((mat >= 0) & (mat <= 1)).all()


def _assert_recursions_match_numpy_reference(params, series):
    filt = hamilton_filter(params, series)
    ref = numpy_filter(params, series)
    assert filt.loglik == pytest.approx(ref.loglik, rel=1e-12, abs=0)
    assert_allclose(filt.filtered, ref.filtered, rtol=0, atol=1e-15)
    assert_allclose(filt.predicted, ref.predicted, rtol=0, atol=1e-15)
    assert_allclose(
        kim_smoother(params, filt), numpy_smoother(params, ref), rtol=0, atol=1e-15
    )
    return filt


@pytest.mark.parametrize(
    "families",
    [("linear", "linear"), ("mlp", "linear"), ("linear", "linear", "linear")],
)
def test_recursions_match_numpy_reference_at_historical_scale(families):
    # T = 2078 weeks, the length of the historical series
    rng = np.random.default_rng(7)
    params = random_params(rng, lag=1, n_regimes=len(families))
    params.means = tuple(
        random_mlp(1, 3, rng) if fam == "mlp" else mean
        for fam, mean in zip(families, params.means)
    )
    series, _ = simulate(params, T=2078, seed=1)
    _assert_recursions_match_numpy_reference(params, series)


def _stationary_params(lag, n_regimes):
    rng = np.random.default_rng(100 * lag + n_regimes)
    params = random_params(rng, lag=lag, n_regimes=n_regimes)
    # sum |a_i| < 1 keeps every regime's autoregression stationary
    params.means = tuple(
        LinearMean(np.r_[m.coef[0], m.coef[1:] / lag]) for m in params.means
    )
    return params


SCAN_EDGES = [1, 2, 3, 64, 65, 4156]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sharp", [False, True])
@pytest.mark.parametrize("n_use", SCAN_EDGES)
@pytest.mark.parametrize("n_regimes", [2, 3])
@pytest.mark.parametrize("lag", [1, 2, 3])
def test_recursions_match_numpy_reference_at_scan_edges(lag, n_regimes, n_use, sharp):
    # lengths just under and over a power of two, and the per_day length
    params = _stationary_params(lag, n_regimes)
    if sharp:  # sharply separated regimes: filtered rows near 0 and 1
        params.sigmas = params.sigmas * 0.02
    series, _ = simulate(params, T=n_use + lag, seed=n_use)
    filt = _assert_recursions_match_numpy_reference(params, series)
    assert filt.filtered.shape == (n_use, n_regimes)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_use", SCAN_EDGES)
@pytest.mark.parametrize("n_regimes", [2, 3])
@pytest.mark.parametrize("lag", [1, 2, 3])
def test_recursions_match_numpy_reference_when_no_regime_fits(lag, n_regimes, n_use):
    # sigmas cut after simulating: the log-densities are large and negative
    params = _stationary_params(lag, n_regimes)
    series, _ = simulate(params, T=n_use + lag, seed=n_use)
    params.sigmas = params.sigmas * 0.02
    _assert_recursions_match_numpy_reference(params, series)


def test_label_switching_symmetry():
    rng = np.random.default_rng(21)
    params = random_params(rng, lag=1)
    series, _ = simulate(params, T=50, seed=2)
    probs = posterior_probabilities(params, series)
    swapped = posterior_probabilities(params.permuted([1, 0]), series)
    assert hamilton_filter(params.permuted([1, 0]), series).loglik == pytest.approx(
        hamilton_filter(params, series).loglik, abs=1e-10)
    assert_allclose(swapped.filtered, probs.filtered[:, ::-1], atol=1e-12)
    assert_allclose(swapped.smoothed, probs.smoothed[:, ::-1], atol=1e-12)


# ---------------------------------------------------------------------------
# EM fitting
# ---------------------------------------------------------------------------

def classification_accuracy(est, truth):
    est, truth = np.asarray(est), np.asarray(truth)
    direct = np.mean(est == truth)
    return max(direct, np.mean((1 - est) == truth))


def test_em_recovers_simulated_linear_model():
    true = linear_params(p=0.9, q=0.8, coefs=((2.0, 0.5), (-1.0, 0.2)),
                         sigmas=(0.3, 0.6))
    series, states = simulate(true, T=1000, seed=8)
    spec = MsSpec(families=("linear", "linear"))
    res = em_fit(spec, series, seed=0, n_restarts=4, tol=1e-7)
    # canonical order: regime with larger stationary probability first;
    # here pi = (2/3, 1/3) so labels line up with the generator
    assert res.params.p == pytest.approx(0.9, abs=0.05)
    assert res.params.q == pytest.approx(0.8, abs=0.05)
    assert_allclose(res.params.means[0].coef, [2.0, 0.5], rtol=0.10, atol=0.05)
    assert_allclose(res.params.means[1].coef, [-1.0, 0.2], rtol=0.10, atol=0.05)
    labels = (res.probabilities.smoothed[:, 1] > 0.5).astype(int)
    acc = classification_accuracy(labels, states[1:])
    assert acc >= 0.9


def test_em_init_at_truth_is_near_fixed_point():
    true = linear_params()
    series, _ = simulate(true, T=800, seed=9)
    _, _, trace, _ = _em_single(series, true, 1e-9, 50)
    diffs = np.diff(trace)
    assert (diffs >= -1e-8).all()
    # starting at the generating parameters, the first EM step barely moves
    assert abs(trace[1] - trace[0]) < 0.05 * abs(trace[0])


def test_em_trace_monotone_from_random_inits():
    true = linear_params(p=0.85, q=0.7, coefs=((1.0, 0.4), (-0.5, 0.6)),
                         sigmas=(0.25, 0.8))
    series, _ = simulate(true, T=300, seed=3)
    for seed in range(5):
        res = em_fit(MsSpec(families=("linear", "linear")), series, seed=seed,
                     n_restarts=1, max_iter=60)
        assert (np.diff(res.trace) >= -1e-8).all()


def test_em_single_regime_data_degenerates_or_fits():
    rng = np.random.default_rng(4)
    series = 0.5 + 0.2 * rng.standard_normal(200)
    try:
        res = em_fit(MsSpec(families=("linear", "linear")), series, seed=1,
                     n_restarts=3, max_iter=60)
    except DegenerateModelError:
        return
    assert (np.diff(res.trace) >= -1e-8).all()


def test_em_ends_a_restart_whose_sigma_collapses_on_duplicated_pairs():
    """Each value twice: some regime can fit y_t = y_{t-1} exactly. Its sigma
    then shrinks towards 0 and the M-step loses the precision that keeps EM
    monotone, so the restart must end as collapsed, not trip the
    monotonicity check."""
    spec = MsSpec(families=("linear", "linear"))
    pairs = np.repeat(simulate(linear_params(), T=200, seed=0)[0], 2)
    with pytest.raises(DegenerateModelError, match="standard deviation"):
        em_fit(spec, pairs, seed=0, n_restarts=3, max_iter=100)
    # here one restart of three does not collapse, and the fit completes
    pairs = np.repeat(simulate(linear_params(), T=100, seed=1)[0], 2)
    res = em_fit(spec, pairs, seed=0, n_restarts=3, max_iter=100)
    assert res.restart_logliks.count(None) == 2
    assert res.restart_logliks[res.restart] is not None
    assert (np.diff(res.trace) >= -1e-8).all()
    assert res.params.sigmas.min() > 1e-9 * np.std(pairs)


@pytest.mark.parametrize("n_regimes", [2, 3])
def test_em_collapse_message_counts_repeats_and_advises_fewer_regimes_past_two(n_regimes):
    """When every restart collapses, the error counts the steps that repeat
    the previous value exactly. It advises fewer regimes only when there are
    more than two, the fewest a spec allows."""
    pairs = np.repeat(simulate(linear_params(), T=200, seed=0)[0], 2)
    with pytest.raises(DegenerateModelError) as info:
        em_fit(MsSpec(families=("linear",) * n_regimes), pairs, seed=0,
               n_restarts=3, max_iter=100)
    message = str(info.value)
    assert message.startswith("all restarts degenerate (")
    assert "); 200 of 399 steps repeat the previous value exactly" in message
    # each distinct reason once, by its rule and not by a last-bit figure
    reasons = message[len("all restarts degenerate ("):message.index("); ")].split("; ")
    assert len(set(reasons)) == len(reasons) <= 3
    for reason in reasons:
        assert re.fullmatch(r"regime \d (sigma is below 1e-09 times the series' standard "
                            r"deviation|holds less than 1 observation-equivalent)", reason)
    assert message.endswith("; try fewer regimes") == (n_regimes > 2)


def test_em_short_series_warns():
    true = linear_params()
    series, _ = simulate(true, T=40, seed=5)
    with pytest.warns(UserWarning, match="short"):
        em_fit(MsSpec(families=("linear", "linear")), series, seed=0,
               n_restarts=1, max_iter=5)


def test_em_rejects_zero_restarts_and_negative_max_iter():
    series, _ = simulate(linear_params(), T=100, seed=1)
    spec = MsSpec(families=("linear", "linear"))
    with pytest.raises(ValidationError, match="n_restarts"):
        em_fit(spec, series, n_restarts=0)
    with pytest.raises(ValidationError, match="max_iter"):
        em_fit(spec, series, n_restarts=1, max_iter=-1)
    for tol in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="tol"):
            em_fit(spec, series, n_restarts=1, tol=tol)


@pytest.mark.parametrize("families, message", [
    (("linear",), "need at least two regimes"),
    ("linear", "unknown mean family 'l'"),  # a string is its letters, not one family
], ids=["one-regime", "string"])
def test_spec_takes_one_family_per_regime_for_two_or_more_regimes(families, message):
    with pytest.raises(ValidationError, match=message):
        MsSpec(families=families)


@pytest.mark.parametrize("n_use", [0, 3, 5])
def test_em_series_no_longer_than_the_lag_is_validation_error(n_use):
    series = np.linspace(1.0, 2.0, n_use)
    with pytest.raises(ValidationError, match=f"length {n_use} has no usable steps at lag 5"):
        em_fit(MsSpec(lag=5, families=("linear", "linear")), series, n_restarts=1)


def test_em_canonical_regime_order():
    true = linear_params(p=0.75, q=0.92, coefs=((2.0, 0.3), (-2.0, 0.4)),
                         sigmas=(0.4, 0.4))
    # pi_1 = (1-q)/((1-p)+(1-q)) = 0.08/0.33 < 0.5: regime 2 dominates
    series, _ = simulate(true, T=1500, seed=6)
    res = em_fit(MsSpec(families=("linear", "linear")), series, seed=2,
                 n_restarts=4)
    pi = stationary_distribution(res.params.transition)
    assert pi[0] >= pi[1]
    # the dominating regime's parameters match the generator's second regime
    assert res.params.means[0].coef[0] == pytest.approx(-2.0, abs=0.3)


def test_em_result_serialization():
    true = linear_params()
    series, _ = simulate(true, T=200, seed=10)
    res = em_fit(MsSpec(families=("linear", "linear")), series, seed=0,
                 n_restarts=2, max_iter=30)
    d = to_json(res)
    again = from_json(EmResult, d)
    assert_allclose(again.params.transition, res.params.transition)
    assert_allclose(again.probabilities.smoothed, res.probabilities.smoothed)
    assert [m.kind for m in again.params.means] == ["linear", "linear"]
    assert again.params.lag == res.params.lag == 1
    assert to_json(again) == d


def test_em_three_regimes_runs_monotone():
    true = MsParams(
        transition=np.array([[0.9, 0.05, 0.1], [0.05, 0.9, 0.1], [0.05, 0.05, 0.8]]),
        means=tuple(LinearMean(np.array(c)) for c in ((2.0, 0.3), (-2.0, 0.3), (0.0, 0.8))),
        sigmas=np.array([0.3, 0.3, 0.5]),
    )
    series, _ = simulate(true, T=400, seed=13)
    res = em_fit(MsSpec(families=("linear",) * 3), series, seed=0,
                 n_restarts=2, max_iter=40)
    assert len(res.params.means) == res.params.n_regimes == 3
    assert res.probabilities.smoothed.shape == (399, 3)
    assert (np.diff(res.trace) >= -1e-8).all()


def test_em_with_mlp_regime_runs_monotone():
    true = linear_params(p=0.9, q=0.85, coefs=((1.5, 0.2), (-1.5, 0.5)),
                         sigmas=(0.3, 0.5))
    series, _ = simulate(true, T=300, seed=12)
    res = em_fit(MsSpec(families=("mlp", "linear"), hidden_units=2), series,
                 seed=0, n_restarts=2, max_iter=25)
    assert (np.diff(res.trace) >= -1e-8).all()
    # the two linear-stage restarts are the linear,linear fit's, then one
    # perceptron run per assignment of its regimes; the best is one of those
    linear = em_fit(MsSpec(families=("linear", "linear")), series,
                    seed=0, n_restarts=2, max_iter=25)
    assert res.restart_logliks[:2] == linear.restart_logliks
    assert len(res.restart_logliks) == 4 and res.restart >= 2
    assert res.loglik == res.restart_logliks[res.restart]
    assert sorted(m.kind for m in res.params.means) == ["linear", "mlp"]


@pytest.mark.parametrize("families, orders", [
    (("mlp", "linear"), [(0, 1), (1, 0)]),
    (("mlp", "mlp"), [(0, 1)]),
    (("linear", "mlp", "linear"), [(0, 1, 2), (0, 2, 1), (1, 0, 2)]),
])
def test_perceptron_starts_try_each_assignment_of_the_linear_regimes(families, orders):
    n = len(families)
    linear = MsParams(
        transition=np.full((n, n), 0.1) + (1.0 - 0.1 * n) * np.eye(n),
        means=tuple(LinearMean([0.05 * (i + 1), 0.6 - 0.2 * i]) for i in range(n)),
        sigmas=0.02 * np.arange(1, n + 1),
    )
    series, _ = simulate(linear, T=300, seed=2)
    X = series[:-1, None]
    starts = _perceptron_starts(MsSpec(families=families, hidden_units=3), linear, X)
    assert len(starts) == len(orders)
    for start, order in zip(starts, orders):
        relabeled = linear.permuted(order)
        assert_array_equal(start.transition, relabeled.transition)
        assert_array_equal(start.sigmas, relabeled.sigmas)
        for fam, mean, line in zip(families, start.means, relabeled.means):
            assert mean.kind == fam
            if fam == "linear":
                assert mean is line
            else:  # the perceptron reproduces its slot's line
                fit, want = mean.predict(X), line.predict(X)
                assert np.linalg.norm(fit - want) <= 0.02 * np.linalg.norm(want)
