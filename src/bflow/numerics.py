"""Deterministic numerical substrate: splittable RNG and stable primitives.

All arithmetic is 64-bit.  Randomness comes from a counter-based Philox
generator keyed by a SHA-256 hash of ``(seed, split path)``, which gives
two guarantees the rest of the library relies on:

* the same seed always produces the same draw sequence, bit for bit,
  across processes and platforms;
* ``split`` produces statistically independent streams and re-splitting
  with the same stream id is reproducible.

Importing bflow runs numpy's BLAS at one thread (``use_one_blas_thread``),
so matrix products round the same whatever the environment asks for.
"""

import ctypes
import hashlib
import os
import sys

import numpy as np


class Rng:
    """Single-owner random stream.  Parallel users must ``split`` first."""

    def __init__(self, seed, _path=()):
        self.seed = int(seed)
        self._path = tuple(int(p) for p in _path)
        digest = hashlib.sha256(repr((self.seed,) + self._path).encode("ascii")).digest()
        key = int.from_bytes(digest[:16], "little")
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def split(self, stream_id):
        """Independent child stream; same stream_id -> same child."""
        return Rng(self.seed, self._path + (int(stream_id),))

    def standard_normal(self, size=None, out=None):
        """Standard normals of shape size, written into the C-contiguous
        float64 array out when it is given."""
        return self._gen.standard_normal(size, out=out)

    def uniform(self, size=None, out=None):
        """Uniforms on [0, 1) of shape size, written into out when given."""
        return self._gen.random(size, out=out)

    def integers(self, low, high, size=None):
        return self._gen.integers(low, high, size=size)

    def multinomial(self, n, pvals, size=None):
        return self._gen.multinomial(n, pvals, size=size)


class RowStreams:
    """B Rngs drawn as one rng: row b of a (B, ...) draw is stream b's own
    draw of the rest of the shape, so a stream's bits do not depend on the
    others.  A draw of other than B rows raises."""

    def __init__(self, streams):
        self.streams = list(streams)

    def _rows(self, draw, size):
        if size[0] != len(self.streams):
            raise ValueError(f"a draw of {size[0]} rows from {len(self.streams)} streams")
        out = np.empty(size)
        for b, r in enumerate(self.streams):
            draw(r)(size[1:], out=out[b, ...])
        return out

    def standard_normal(self, size):
        return self._rows(lambda r: r.standard_normal, size)

    def uniform(self, size):
        return self._rows(lambda r: r.uniform, size)


def gaussian_sample(rng, mean, var, z=None):
    """Draw mean + sqrt(var) * z with z iid standard normal.

    var may be a positive scalar or a positive array broadcastable to mean.
    z, when given, is noise of mean's shape drawn beforehand, and rng is
    not used.
    """
    mean = np.asarray(mean, dtype=np.float64)
    var = np.asarray(var, dtype=np.float64)
    if not (var > 0.0).all():  # NaN fails
        raise ValueError("variance must be positive")
    if z is None:
        z = rng.standard_normal(mean.shape)
    return mean + np.sqrt(var) * z


# Rows from which row_max and row_sum reduce an (..., K) array with K < 8
# over its K columns.  numpy reduces a short last axis row by row, at 5-15
# ns an element; a column pass is one strided ufunc call over all rows, at
# about 1 us a call and 0.5-2 ns an element.  On a 2-core x86_64 VM
# softmax_rows took, old path against column path, 16.4 vs 19.4 us at
# (64, 3), 23.0 vs 19.8 at (128, 3), 38.5 vs 23.7 at (256, 3) and 120 vs
# 46 at (1024, 3); at K=7 it crossed between 128 rows (31.5 vs 33.9 us) and
# 256 (53.2 vs 40.9), and logsumexp_rows crossed at the same sizes.
ROWS_MIN = 256


def _by_columns(m):
    """Whether m's last-axis reductions run over its columns: fewer than 8
    of them, where numpy sums left to right as a column pass does (from 8 on
    it sums pairwise), and at least ROWS_MIN rows."""
    K = m.shape[-1]
    return 0 < K < 8 and m.size >= ROWS_MIN * K


def row_max(m):
    """m.max(axis=-1) of a float64 (..., K) array, bit for bit."""
    if not _by_columns(m):
        return m.max(axis=-1)
    cols = m.reshape(-1, m.shape[-1])
    out = cols[:, 0].copy()
    for j in range(1, cols.shape[1]):
        np.maximum(out, cols[:, j], out=out)
    if np.isnan(out).any():  # numpy's reduction picks a NaN's sign bit its own way
        return m.max(axis=-1)
    return out.reshape(m.shape[:-1])


def row_sum(m):
    """m.sum(axis=-1) of a float64 (..., K) array, bit for bit."""
    if not _by_columns(m):
        return m.sum(axis=-1)
    cols = m.reshape(-1, m.shape[-1])
    out = cols[:, 0] + 0.0  # numpy's sum starts from +0.0, so -0.0 rows sum to +0.0
    for j in range(1, cols.shape[1]):
        np.add(out, cols[:, j], out=out)
    return out.reshape(m.shape[:-1])


def softmax_rows(logits):
    """Softmax over the last axis of an (..., K) array."""
    logits = np.asarray(logits, dtype=np.float64)
    e = np.exp(logits - row_max(logits)[..., None])
    e /= row_sum(e)[..., None]
    return e


def log_gaussian_pdf(y, mean, var):
    """Log-density of an isotropic Gaussian, summed over the last axis.

    y (..., D) gives (...); var is a scalar or one variance per row.
    """
    var = np.asarray(var, dtype=np.float64)
    if not (var > 0.0).all():  # NaN fails
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


def openblas_thread_calls():
    """The thread-count setter and getter of the OpenBLAS that numpy
    loaded, or None when numpy bundles no OpenBLAS beside it.

    numpy's wheels bundle their OpenBLAS beside the package
    (``numpy.libs``, or ``numpy/.dylibs`` on macOS); opening that file
    again returns the copy numpy loaded.
    """
    package = os.path.dirname(np.__file__)
    for folder in (os.path.join(package, os.pardir, "numpy.libs"), os.path.join(package, ".dylibs")):
        names = sorted(os.listdir(folder)) if os.path.isdir(folder) else []
        for lib in (ctypes.CDLL(os.path.join(folder, name)) for name in names if "openblas" in name):
            for suffix in ("64_", ""):  # the 64- and 32-bit-integer builds
                if hasattr(lib, f"scipy_openblas_set_num_threads{suffix}"):
                    setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    return setter, getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
    return None


def use_one_blas_thread():
    """Run numpy's OpenBLAS at one thread, for the whole process.

    OpenBLAS splits some products by its thread count, and the training
    step's products round differently at one thread than at two, so
    without this a training run's bits would follow
    ``OPENBLAS_NUM_THREADS``.  The setting holds for every later product
    in the process, bflow's or not, and it costs a large sampling batch
    the speed of further BLAS threads.  Without a setter it names numpy's
    BLAS on stderr.
    """
    calls = openblas_thread_calls()
    if calls is not None:
        calls[0](1)
        return
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {}).get("name", "unknown")
    print(f"bflow: cannot set the thread count of numpy's BLAS ({blas}); results may depend on "
          "it unless that BLAS runs at one thread", file=sys.stderr)
