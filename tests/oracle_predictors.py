"""Oracle predictors that only the tests use: exact noise estimates for a
known datum or a small dataset, and one-hot class logits.  Like every
predictor they answer ``forward_batch(X, t)``.
"""

import numpy as np

from bflow.predictor import _gamma


class CtsDatumPredictor:
    """Noise estimate consistent with a fixed data estimate x_star.

    Inverting the noise-to-data map at the observed belief mean recovers
    x_star exactly (before clipping), so with x_star equal to the true
    datum this is a perfect predictor.
    """

    def __init__(self, x_star, sigma1):
        self.x_star = np.asarray(x_star, dtype=np.float64)
        self.sigma1 = float(sigma1)

    def forward_batch(self, X, t):
        g = _gamma(self.sigma1, t)
        return (np.asarray(X, dtype=np.float64) - g * self.x_star) / np.sqrt(g * (1.0 - g))


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
        self.sigma1 = float(sigma1)

    def posterior_mean(self, mean, t):
        g = 1.0 - self.sigma1 ** (2.0 * float(t))
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
            g = 1.0 - self.sigma1 ** (2.0 * float(tb))
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

