"""Oracle predictors that only the tests use: a constant output, exact
noise estimates for a small dataset, and one-hot class logits.  Like every
predictor they answer ``forward_batch(X, t)``.  Also the rounding bound of
the production ``CtsDatumPredictor``'s data estimates.
"""

import numpy as np

from bflow.schedule import ContinuousSigma


class ConstantPredictor:
    """Emits a fixed vector regardless of input; no learnable state."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def forward_batch(self, X, t):
        return np.tile(self.values, (len(X), 1))


def inversion_bound(x_star, mean, g):
    """Bound on |x_hat - x_star| for the data estimates x_hat that the
    continuous output map makes of ``CtsDatumPredictor(x_star)``'s noise
    estimates at belief means mean, gamma g, on rows at or above t_min.

    With a = fl(mean / g) and r the noise scale, the oracle emits
    fl(fl(a - x_star) / r) and the map returns fl(a - fl(r * that)).  Each
    of the four roundings is within u = eps / 2 relative, so to first order
    |x_hat - x_star| <= u |x_star| + 3 u |a - x_star|, which
    eps (|x_star| + 2 |a - x_star|) covers; clipping to [-1, 1] only moves
    x_hat towards x_star.
    """
    a = mean / g
    return np.finfo(np.float64).eps * (np.abs(x_star) + 2.0 * np.abs(a - x_star))


class CtsPosteriorPredictor:
    """Exact posterior-mean predictor for a small finite dataset.

    Weights each dataset atom by the Gaussian likelihood of the observed
    belief mean and returns the noise estimate consistent with the
    resulting posterior mean.
    """

    def __init__(self, dataset, sigma1):
        self.dataset = np.asarray(dataset, dtype=np.float64)
        if self.dataset.ndim != 2 or len(self.dataset) > 64:
            raise ValueError("dataset must be (N<=64, D)")
        self.schedule = ContinuousSigma(float(sigma1))

    def posterior_mean(self, mean, t):
        g = self.schedule.gamma(float(t))
        var = g * (1.0 - g)
        d2 = np.sum((mean[None, :] - g * self.dataset) ** 2, axis=1)
        logw = -0.5 * d2 / var
        logw -= logw.max()
        w = np.exp(logw)
        w /= w.sum()
        return w @ self.dataset

    def forward_batch(self, X, t):
        X = np.asarray(X, dtype=np.float64)
        ts = np.broadcast_to(np.asarray(t, dtype=np.float64), (len(X),))
        out = np.empty_like(X)
        for b, (state, tb) in enumerate(zip(X, ts)):
            g = self.schedule.gamma(float(tb))
            out[b] = (state - g * self.posterior_mean(state, tb)) / np.sqrt(g * (1.0 - g))
        return out


class DiscreteOneHotPredictor:
    """Logits that softmax to a one-hot at fixed classes (within 1e-6)."""

    def __init__(self, x_star, K, sharpness=40.0):
        self.x_star = np.asarray(x_star, dtype=np.int64)
        self.K = int(K)
        self.sharpness = float(sharpness)

    def forward_batch(self, X, t):
        D = self.x_star.size
        if self.K == 2:
            row = self.sharpness * np.where(self.x_star == 1, 1.0, -1.0)
        else:
            logits = np.zeros((D, self.K))
            logits[np.arange(D), self.x_star - 1] = self.sharpness
            row = logits.ravel()
        return np.tile(row, (len(X), 1))

