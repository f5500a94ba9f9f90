"""Discretised data: K bins tiling [-1, 1], clipped-Gaussian bin masses,
mixture receiver, losses and sampling.

Belief state, schedule, sender and flow are shared with the continuous
module; only the prediction side changes.  The predictor emits a
(noise-mean, log-noise-std) pair per dimension, which is mapped to a
Gaussian over data space and then integrated over each bin.  Tail mass
outside [-1, 1] folds into the end bins, so every row sums to one by
construction.
"""

import numpy as np

from . import continuous
from .kernels import erf_vec, mixture_logpdf
from .numerics import gaussian_sample, log_gaussian_pdf, sample_categorical_rows

_SQRT2 = np.sqrt(2.0)
# floor applied to log-probabilities so pathological predictors yield a
# large finite loss instead of -inf
LOG_PROB_FLOOR = -1e6


class BinGeometry:
    """Uniform bins over [-1, 1]; indices are 1-based."""

    def __init__(self, K):
        if K < 2:
            raise ValueError("need at least 2 bins")
        self.K = int(K)
        self.centers = (2.0 * np.arange(1, K + 1) - 1.0) / K - 1.0

    def center(self, k):
        self._check(k)
        return (2.0 * k - 1.0) / self.K - 1.0

    def left(self, k):
        return self.center(k) - 1.0 / self.K

    def right(self, k):
        return self.center(k) + 1.0 / self.K

    def _check(self, k):
        if not (1 <= k <= self.K):
            raise ValueError(f"bin index {k} outside 1..{self.K}")


def quantise(x_raw, K):
    """Assign values in [-1, 1] to the nearest bin centre.

    Boundary values go to the higher-index bin.  Returns (1-based indices,
    corresponding centres).
    """
    x_raw = np.asarray(x_raw, dtype=np.float64)
    if np.any(x_raw < -1.0) or np.any(x_raw > 1.0):
        raise ValueError("values outside [-1, 1]")
    idx = np.floor((x_raw + 1.0) * K / 2.0).astype(np.int64) + 1
    idx = np.clip(idx, 1, K)
    geom = BinGeometry(K)
    return idx, geom.centers[idx - 1]


def discretised_cdf(mu, sigma, x):
    """Gaussian CDF clipped to [-1, 1]: 0 below, 1 above."""
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    if x <= -1.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    return 0.5 * (1.0 + float(erf_vec(np.array([(x - mu) / (sigma * _SQRT2)]))[0]))


# Rows of the (rows, K+1) bin-edge grid handled per pass.  At K=256 a pass of
# 128 rows makes 263 KB float64 temporaries, which stay in a core's L2 cache;
# a whole B=32, D=64 batch (2048 rows) makes 4 MB ones.  On a 2-core x86_64
# VM the K=256 training head took about 24 ms per step in 128-row passes and
# 45 ms in 1024-row passes or in one pass.
ROWS_PER_PASS = 128


def bin_probs_from_gaussian(mu_x, sigma_x, K):
    """Per-bin masses of clipped N(mu_x, sigma_x^2) rows; shapes (D,)->(D, K)."""
    mu_x = np.atleast_1d(np.asarray(mu_x, dtype=np.float64))
    sigma_x = np.broadcast_to(np.asarray(sigma_x, dtype=np.float64), mu_x.shape)
    sigma_x = np.maximum(sigma_x, 1e-20)  # degenerate widths collapse to one-hot rows
    geom = BinGeometry(K)
    edges = np.concatenate([geom.centers - 1.0 / K, [1.0]])  # K+1 edges
    probs = np.empty(mu_x.shape + (K,))
    for s in range(0, mu_x.shape[0], ROWS_PER_PASS):
        r = slice(s, s + ROWS_PER_PASS)
        z = edges[None, :] - mu_x[r, None]
        z /= sigma_x[r, None] * _SQRT2
        cdf = erf_vec(z)
        cdf += 1.0
        cdf *= 0.5
        cdf[:, 0] = 0.0   # left edge is exactly -1: clipped
        cdf[:, -1] = 1.0  # right edge is exactly +1: clipped
        np.subtract(cdf[:, 1:], cdf[:, :-1], out=probs[r])
    return np.maximum(probs, 0.0, out=probs)


def output_distribution(predictor, cfg, p, t, K):
    """Bin probabilities (D, K) for belief state p at time t.

    Below t_min the prediction falls back to a unit Gaussian at zero.
    """
    if not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    D = cfg.D
    if t < cfg.t_min:
        mu_x = np.zeros(D)
        sigma_x = np.ones(D)
    else:
        out = np.asarray(predictor.forward(p.mean, t), dtype=np.float64)
        if out.shape != (2 * D,):
            raise ValueError(f"predictor returned shape {out.shape}, expected ({2 * D},)")
        mu_eps, ln_sigma_eps = out[:D], out[D:]
        g = continuous.gamma(cfg, t)
        ratio = np.sqrt((1.0 - g) / g)
        mu_x = p.mean / g - ratio * mu_eps
        sigma_x = ratio * np.exp(ln_sigma_eps)
    return bin_probs_from_gaussian(mu_x, sigma_x, K)


def k_hat(probs, K):
    """Expected bin centre per dimension."""
    probs = np.asarray(probs, dtype=np.float64)
    geom = BinGeometry(K)
    return probs @ geom.centers


def receiver_log_likelihood(y, probs, K, alpha):
    """Log-density of observations under the per-dimension mixture receiver.

    y: (D,) sender draws; probs: (D, K) bin masses.  Each dimension mixes
    Gaussians at the bin centres with variance 1/alpha; summed over D.
    """
    geom = BinGeometry(K)
    with np.errstate(divide="ignore"):
        logw = np.log(probs)
    return float(np.sum(mixture_logpdf(np.asarray(y, dtype=np.float64), logw, geom.centers, 1.0 / alpha)))


def loss_n_step(rng, predictor, cfg, x, n, K, i=None):
    """Single-sample estimate of the n-step loss for bin-valued data."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if i is None:
        i = int(rng.integers(1, n + 1))
    elif not (1 <= i <= n):
        raise ValueError(f"need 1 <= i <= n, got i={i}")
    x = np.asarray(x, dtype=np.float64)
    t = (i - 1) / n
    p = continuous.flow_sample(rng, cfg, x, t)
    alpha = cfg.schedule.step_alpha(i, n)
    y = gaussian_sample(rng, x, 1.0 / alpha)
    probs = output_distribution(predictor, cfg, p, t, K)
    sender_ll = log_gaussian_pdf(y, x, 1.0 / alpha)
    receiver_ll = receiver_log_likelihood(y, probs, K, alpha)
    return n * (sender_ll - receiver_ll)


def loss_cts_time(rng, predictor, cfg, x, K, t=None):
    """Single-sample estimate of the continuous-time loss for bin data."""
    if t is None:
        t = float(rng.uniform())
    elif not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    x = np.asarray(x, dtype=np.float64)
    p = continuous.flow_sample(rng, cfg, x, t)
    probs = output_distribution(predictor, cfg, p, t, K)
    resid = x - k_hat(probs, K)
    weight = -np.log(cfg.sigma1) * cfg.sigma1 ** (-2.0 * t)
    return weight * float(np.dot(resid, resid))


def negative_log_picked(probs, idx):
    """-sum_d log probs[d, idx_d], floored so the result stays finite."""
    probs = np.asarray(probs, dtype=np.float64)
    idx = np.asarray(idx, dtype=np.int64)
    picked = probs[np.arange(probs.shape[0]), idx - 1]
    with np.errstate(divide="ignore"):
        logs = np.log(picked)
    return -float(np.sum(np.maximum(logs, LOG_PROB_FLOOR)))


def reconstruction_loss(rng, predictor, cfg, x, K):
    """Negative log-probability of the true bins at t=1."""
    x = np.asarray(x, dtype=np.float64)
    idx, _ = quantise(x, K)
    p = continuous.flow_sample(rng, cfg, x, 1.0)
    probs = output_distribution(predictor, cfg, p, 1.0, K)
    return negative_log_picked(probs, idx)


def generate(rng, predictor, cfg, n, K, return_params=False):
    """n-step ancestral sampling; returns bin centres (D,)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    sched = cfg.schedule
    geom = BinGeometry(K)
    p = continuous.prior(cfg.D)
    for i in range(1, n + 1):
        t = (i - 1) / n
        probs = output_distribution(predictor, cfg, p, t, K)
        k = sample_categorical_rows(rng, probs)
        alpha = sched.step_alpha(i, n)
        y = gaussian_sample(rng, geom.centers[k - 1], 1.0 / alpha)
        precision = 1.0 + sched.beta(i / n)
        mean = (p.mean * p.precision + y * alpha) / precision
        p = continuous.CtsParams(mean=mean, precision=precision)
    probs = output_distribution(predictor, cfg, p, 1.0, K)
    k = sample_categorical_rows(rng, probs)
    out = geom.centers[k - 1]
    if return_params:
        return out, p
    return out
