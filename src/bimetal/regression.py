"""Conditional-mean families for the switching autoregression.

Both families map the last l values of the series to a predicted level:
an affine function of the lags, or a one-hidden-layer tanh perceptron with
linear output. Each knows how to refit itself against posterior weights,
which is all the EM M-step needs: the linear family in closed form, the
perceptron by Levenberg–Marquardt (damped Gauss–Newton) iterations on the
weighted squared error that never let that error rise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Levenberg–Marquardt stops once an accepted step lowers the loss by no more
# than this fraction of it. Looser tolerances leave the M-step inexact and
# cost more EM iterations than they save.
_LM_REL_TOL = 1e-10
# The damping starts at 1e-3 in every fit, falls tenfold (not below 1e-12)
# after an accepted step and rises tenfold after a rejected one; past 1e16
# the fit stops where it is.
_LM_DAMPING_START, _LM_DAMPING_MIN, _LM_DAMPING_MAX = 1e-3, 1e-12, 1e16
# MlpMean.from_line: the hidden units' scale on the standardized projection
# and the spread of their offsets (see its docstring).
_LINE_SCALE, _LINE_SPREAD = 0.4, 1.5


def make_design(series: np.ndarray, lag: int) -> tuple[np.ndarray, np.ndarray]:
    """Lagged design matrix and targets: X[t] = (y_{t-1}, ..., y_{t-lag}).

    Returns (X, y) with one row per usable step t = lag..T-1.
    """
    series = np.asarray(series, dtype=float)
    if lag < 1:
        raise ValueError("lag must be >= 1")
    T = series.shape[0]
    if T <= lag:
        raise ValueError(f"series of length {T} has no usable steps at lag {lag}")
    X = np.column_stack([series[lag - 1 - i : T - 1 - i] for i in range(lag)])
    return X, series[lag:]


@dataclass
class LinearMean:
    """Affine conditional mean: a_0 + a_1 y_{t-1} + ... + a_l y_{t-l}."""

    kind: str = field(default="linear", init=False)  # tag in the JSON form
    coef: np.ndarray  # (lag + 1,), intercept first

    def __post_init__(self):
        self.coef = np.asarray(self.coef, dtype=float)

    @property
    def lag(self) -> int:
        return self.coef.shape[0] - 1

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.coef[0] + X @ self.coef[1:]

    def fit_weighted(self, X, y, w) -> "LinearMean":
        """Closed-form weighted least squares (exact M-step maximizer)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        design = np.column_stack([np.ones(X.shape[0]), X])
        sw = np.sqrt(np.asarray(w, dtype=float))
        coef, *_ = np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)
        return LinearMean(coef)


@dataclass
class MlpMean:
    """One-hidden-layer perceptron: w2 . tanh(W1 x + b1) + b2."""

    kind: str = field(default="mlp", init=False)  # tag in the JSON form
    w1: np.ndarray  # (hidden, lag)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: float

    def __post_init__(self):
        self.w1 = np.asarray(self.w1, dtype=float)
        self.b1 = np.asarray(self.b1, dtype=float)
        self.w2 = np.asarray(self.w2, dtype=float)
        self.b2 = float(self.b2)

    @classmethod
    def from_line(cls, coef, X, hidden: int) -> "MlpMean":
        """A perceptron that reproduces the line coef[0] + X @ coef[1:] on X.

        Unit k is tanh(c (z + o_k)) of the line's standardized projection
        z = (X @ coef[1:] - mean) / std, at the scale c = _LINE_SCALE, with
        the offsets o_k spread evenly over [-_LINE_SPREAD, _LINE_SPREAD]
        (0 for a single unit). The output weights and bias are the least
        squares fit of the line's values on X. A line with no slope, or a
        projection with no spread, gives z = 0: every unit is constant and
        the output bias carries the line. Deterministic: draws nothing.
        """
        coef = np.asarray(coef, dtype=float)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        u = X @ coef[1:]
        std = float(u.std())
        std = std if std > 0.0 else 1.0
        offsets = _LINE_SPREAD * np.linspace(-1.0, 1.0, hidden) if hidden > 1 else np.zeros(1)
        w1 = np.tile(_LINE_SCALE * coef[1:] / std, (hidden, 1))
        b1 = _LINE_SCALE * (offsets - float(u.mean()) / std)
        H = np.tanh(X @ w1.T + b1)
        out, *_ = np.linalg.lstsq(
            np.column_stack([H, np.ones(X.shape[0])]), coef[0] + u, rcond=None
        )
        return cls(w1=w1, b1=b1, w2=out[:-1], b2=out[-1])

    @property
    def lag(self) -> int:
        return self.w1.shape[1]

    @property
    def n_params(self) -> int:
        return self.w1.size + self.b1.size + self.w2.size + 1

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._forward(np.atleast_2d(np.asarray(X, dtype=float)))[1]

    def _forward(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Hidden activations and predictions on the rows of a 2-d X."""
        H = np.tanh(X @ self.w1.T + self.b1)
        return H, H @ self.w2 + self.b2

    def loss(self, X, y, w) -> float:
        """Weighted half sum of squared errors.

        The hidden activations and residuals of this pass are kept on the
        instance (not as a field), so that fit_weighted can build the next
        Jacobian of an accepted candidate without a second forward pass.
        """
        H, pred = self._forward(np.atleast_2d(np.asarray(X, dtype=float)))
        r = pred - y
        self._scored = (H, r)
        return float(0.5 * np.sum(w * r * r))

    def jacobian(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Predictions and their per-sample derivatives.

        Returns (pred, J) with J[t] = d pred[t] / d theta, flattened like
        flat_params().
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        H, pred = self._forward(X)
        J = np.empty((X.shape[0], self.n_params))
        self._fill_jacobian(J, X, H)
        return pred, J

    def _fill_jacobian(self, J, X, H) -> None:
        """Write d pred / d theta into the (n, n_params) array J, given the
        hidden activations H of this model on X."""
        n, (h, l) = X.shape[0], self.w1.shape
        i = h * l
        dz = (1.0 - H * H) * self.w2  # d pred / d (pre-activation)
        np.multiply(dz[:, :, None], X[:, None, :], out=J[:, :i].reshape(n, h, l))
        J[:, i : i + h] = dz
        J[:, i + h : i + 2 * h] = H
        J[:, -1] = 1.0

    def flat_params(self) -> np.ndarray:
        return np.concatenate([self.w1.ravel(), self.b1, self.w2, [self.b2]])

    def with_flat_params(self, theta: np.ndarray) -> "MlpMean":
        h, l = self.w1.shape
        i = h * l
        return MlpMean(
            w1=theta[:i].reshape(h, l),
            b1=theta[i : i + h],
            w2=theta[i + h : i + 2 * h],
            b2=theta[i + 2 * h],
        )

    def fit_weighted(self, X, y, w, steps: int = 200) -> "MlpMean":
        """Levenberg–Marquardt on the weighted squared error, starting here.

        Each of at most ``steps`` iterations solves the damped normal
        equations (J'WJ + lam D) delta = -J'W r, with D the diagonal of J'WJ
        plus a small floor so that a dead hidden unit keeps it positive
        definite. A step is taken only if loss() does not rise, and the
        damping then falls; otherwise the damping rises and the solve is
        retried. So the loss is non-increasing: exactly what a generalized
        (monotone) EM M-step requires. Iteration stops early once a step
        lowers the loss by at most a relative 1e-10, or when the damping
        overflows.

        Every candidate is scored by loss(), and the Jacobian of an accepted
        one is built from the hidden activations and residuals of that same
        pass, into one preallocated array; the damping is added to the
        diagonal of a copy of J'WJ. The products, the solve and the
        acceptance test are those of a fit that recomputes the forward pass,
        so the result is bit for bit the same
        (``tests/oracles.seed_mlp_fit``).
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float)
        w = np.asarray(w, dtype=float)
        current = self
        loss = current.loss(X, y, w)
        lam = _LM_DAMPING_START
        J = np.empty((X.shape[0], self.n_params))
        for _ in range(steps):
            H, r = current._scored  # from the loss() call that scored current
            current._fill_jacobian(J, X, H)
            JW = J.T * w
            A = JW @ J
            g = JW @ r
            d = A.diagonal()  # zero for the inputs of a dead unit (w2[k] = 0)
            d = d + 1e-12 * (1.0 + d.max())
            theta = current.flat_params()
            while True:
                damped = A.copy()
                damped.flat[:: A.shape[0] + 1] += lam * d
                try:
                    delta = np.linalg.solve(damped, -g)
                except np.linalg.LinAlgError:
                    delta = None
                if delta is not None:
                    candidate = current.with_flat_params(theta + delta)
                    cand_loss = candidate.loss(X, y, w)
                    if np.isfinite(cand_loss) and cand_loss <= loss:
                        break
                lam *= 10.0
                if lam > _LM_DAMPING_MAX:
                    return current
            stalled = loss - cand_loss <= _LM_REL_TOL * loss
            current, loss = candidate, cand_loss
            lam = max(lam * 0.1, _LM_DAMPING_MIN)
            if stalled:
                break
        return current
