"""Deterministic numerical substrate: splittable RNG and stable primitives.

All arithmetic is 64-bit.  Randomness comes from a counter-based Philox
generator keyed by a SHA-256 hash of ``(seed, split path)``, which gives
two guarantees the rest of the library relies on:

* the same seed always produces the same draw sequence, bit for bit,
  across processes and platforms;
* ``split`` produces statistically independent streams and re-splitting
  with the same stream id is reproducible.
"""

import hashlib

import numpy as np


class Rng:
    """Single-owner random stream.  Parallel users must ``split`` first."""

    def __init__(self, seed, _path=()):
        self.seed = int(seed)
        self._path = tuple(int(p) for p in _path)
        digest = hashlib.sha256(repr((self.seed,) + self._path).encode("ascii")).digest()
        key = int.from_bytes(digest[:16], "little")
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self.draws = 0

    def split(self, stream_id):
        """Independent child stream; same stream_id -> same child."""
        return Rng(self.seed, self._path + (int(stream_id),))

    def standard_normal(self, size=None):
        out = self._gen.standard_normal(size)
        self.draws += int(np.size(out))
        return out

    def uniform(self, size=None):
        out = self._gen.random(size)
        self.draws += int(np.size(out))
        return out

    def integers(self, low, high, size=None):
        out = self._gen.integers(low, high, size=size)
        self.draws += int(np.size(out))
        return out

    def multinomial(self, n, pvals, size=None):
        out = self._gen.multinomial(n, pvals, size=size)
        self.draws += int(np.size(out))
        return out


def gaussian_sample(rng, mean, var, z=None):
    """Draw mean + sqrt(var) * z with z iid standard normal.

    var may be a positive scalar or a positive array broadcastable to mean.
    z, when given, is noise of mean's shape drawn beforehand, and rng is
    not used.
    """
    mean = np.asarray(mean, dtype=np.float64)
    var = np.asarray(var, dtype=np.float64)
    if np.any(var <= 0.0):
        raise ValueError("variance must be positive")
    if z is None:
        z = rng.standard_normal(mean.shape)
    return mean + np.sqrt(var) * z


def softmax_rows(logits):
    """Row-wise softmax of a 2-D array."""
    logits = np.asarray(logits, dtype=np.float64)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    return e


def log_gaussian_pdf(y, mean, var):
    """Log-density of an isotropic Gaussian, summed over the last axis.

    y (..., D) gives (...); var is a scalar or one variance per row.
    """
    var = np.asarray(var, dtype=np.float64)
    if (var <= 0.0).any():
        raise ValueError("variance must be positive")
    y = np.asarray(y, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    d = y.shape[-1]
    resid = y - mean
    # vecdot costs one dot call per row; a one-term dot is its term, same bits
    sq = resid[..., 0] * resid[..., 0] if d == 1 else np.vecdot(resid, resid)
    return -0.5 * d * np.log(2.0 * np.pi * var) - 0.5 * sq / var


# floor applied to log-probabilities so a predictor that gives the true
# class no mass yields a large finite loss instead of inf
LOG_PROB_FLOOR = -1e6


def neg_log_true_class(probs, idx):
    """-sum_d log probs[b, d, idx[b, d] - 1] per row: (B, D, K) class
    probabilities and (B, D) 1-based classes give (B,), each log floored
    at LOG_PROB_FLOOR."""
    picked = np.take_along_axis(probs, idx[..., None] - 1, axis=-1)[..., 0]
    with np.errstate(divide="ignore"):
        logs = np.log(picked)
    return -np.sum(np.maximum(logs, LOG_PROB_FLOOR), axis=-1)


def sample_categorical_rows(probs, u):
    """One draw per row of (..., D, K) probabilities with the uniforms u,
    (..., D, 1), drawn beforehand; 1-based indices (..., D)."""
    cum = np.asarray(probs, dtype=np.float64).cumsum(axis=-1)
    # guard against rounding in the final column
    np.maximum(cum[..., -1], 1.0, out=cum[..., -1])
    return 1 + (u > cum).sum(axis=-1, dtype=np.int64)
