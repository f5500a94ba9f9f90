"""Predictors: the trainable MLP with hand-written reverse-mode gradients,
plus the three oracle predictors the verification harness uses: fixed
class probabilities per dimension, and noise estimates placing the data
estimate or the discretised data Gaussian at a fixed point.

A predictor maps a modality-encoded state vector and a process time to a
raw output vector; each modality module's ``net_widths`` gives the two
widths, and ``PredictorSpec`` holds them.

Gradients are written per layer rather than pulled from an autodiff
framework, which keeps the package self-contained and makes the
finite-difference checks in the test suite meaningful.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numerics import Rng
from .schedule import ContinuousSigma


@dataclass(frozen=True)
class PredictorSpec:
    """Network widths: the modality's state and output widths (its module's
    ``net_widths``), the hidden layers and the Fourier time-feature count."""

    state_width: int
    output_width: int
    hidden: tuple = (256, 256)
    n_freqs: int = 8

    @property
    def input_width(self):
        return self.state_width + 2 * self.n_freqs

    @property
    def n_params(self):
        """The MLP's parameter count: each layer's weights and biases."""
        widths = (self.input_width, *self.hidden, self.output_width)
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(widths, widths[1:]))


def time_features(spec, t):
    """Encode times (scalar or (B,)) as (B, 2 * n_freqs) Fourier features."""
    t = np.asarray(t, dtype=np.float64).reshape(-1, 1)
    ang = 2.0 ** np.arange(spec.n_freqs) * np.pi * t
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def _silu(z):
    s = np.negative(z)
    np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    s *= z
    return s


def _silu_grad(z):
    s = 1.0 / (1.0 + np.exp(-z))
    return s * (1.0 + z * (1.0 - s))


class MLP:
    """Fully-connected predictor with a recorded-tape backward pass.

    Parameters live in one flat float64 vector; ``layout`` maps slice
    offsets to (name, shape) so the vector round-trips losslessly through
    checkpoints.  ``params``, when given, is that vector, taken as is, and
    no initial weights are drawn.
    """

    def __init__(self, spec, seed=0, params=None):
        self.spec = spec
        widths = [spec.input_width, *spec.hidden, spec.output_width]
        self.layout = []
        offset = 0
        for li in range(len(widths) - 1):
            fan_in, fan_out = widths[li], widths[li + 1]
            self.layout.append((f"W{li}", (fan_in, fan_out), offset))
            offset += fan_in * fan_out
            self.layout.append((f"b{li}", (fan_out,), offset))
            offset += fan_out
        self.n_params = offset
        self._tape = None
        if params is not None:
            self.params = params
            return
        self.params = np.zeros(self.n_params)
        rng = Rng(seed, _path=(0xA11,))
        n_layers = len(self.layout) // 2
        for name, shape, off in self.layout:
            # output layer starts at zero so the initial prediction is the
            # all-zero vector, a sane starting estimate for every modality
            if name.startswith("W") and name != f"W{n_layers - 1}":
                fan_in = shape[0]
                w = rng.standard_normal(shape) / np.sqrt(fan_in)
                self.params[off : off + w.size] = w.ravel()

    @property
    def params(self):
        """The flat parameter vector: a whole C-contiguous float64 array, never
        copied, so in-place edits reach the layer views built on assignment."""
        return self._params

    @params.setter
    def params(self, flat):
        if not (isinstance(flat, np.ndarray) and flat.dtype == np.float64 and flat.shape == (self.n_params,)):
            got = f"{flat.dtype} {flat.shape}" if isinstance(flat, np.ndarray) else type(flat).__name__
            raise ValueError(f"params must be a float64 array of shape ({self.n_params},), got {got}")
        if not flat.flags.c_contiguous:
            raise ValueError("params must be C-contiguous, got a strided view")
        self._params = flat
        w = self._views(flat)
        self._layers = [(w[f"W{li}"], w[f"b{li}"]) for li in range(len(self.layout) // 2)]

    def _views(self, flat):
        """Per-layer views, by layout name, into a flat parameter-sized vector."""
        return {name: flat[off : off + math.prod(shape)].reshape(shape) for name, shape, off in self.layout}

    def forward_batch(self, X, t, record=False):
        """(B, state_width), (B,) -> (B, output_width)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.spec.state_width:
            raise ValueError(f"input shape {X.shape} does not match state width {self.spec.state_width}")
        feats = time_features(self.spec, t)
        if feats.shape[0] == 1 and X.shape[0] > 1:
            feats = np.broadcast_to(feats, (X.shape[0], feats.shape[1]))
        h = np.concatenate([X, feats], axis=1)
        tape = [h]
        pre = []
        for li, (W, b) in enumerate(self._layers):
            z = h @ W
            z += b
            if li < len(self._layers) - 1:
                pre.append(z)
                h = _silu(z)
                tape.append(h)
            else:
                h = z
        if record:
            self._tape = (tape, pre)
        return h

    def backward_batch(self, d_out, worker=None):
        """Gradient of sum(output * d_out) w.r.t. params, as a flat vector;
        each layer's gradient is written straight into its slice of it.

        Given a ``training.Worker``, a layer's weight and bias gradient
        runs on it while this thread computes the next layer's delta.  Each
        delta is a new array, so no pending call reads one that is being
        written.  The first layer's gradient, which no delta follows, runs
        here while the worker finishes the others.  Every product is the
        same call on the same shapes either way.  Requires a preceding
        ``forward_batch(..., record=True)``.
        """
        if self._tape is None:
            raise ValueError("no recorded forward pass")
        tape, pre = self._tape
        d_out = np.asarray(d_out, dtype=np.float64)
        flat = np.empty_like(self.params)
        grads = self._views(flat)
        delta = d_out
        try:
            for li in range(len(self._layers) - 1, -1, -1):
                args = (tape[li], delta, grads[f"W{li}"], grads[f"b{li}"])
                if worker is None or li == 0:
                    _layer_grads(*args)
                else:
                    worker.submit(_layer_grads, *args)
                if li > 0:
                    delta = (delta @ self._layers[li][0].T) * _silu_grad(pre[li - 1])
        finally:
            if worker is not None:
                worker.wait()
        return flat


def _layer_grads(h, delta, gW, gb):
    """One layer's weight and bias gradients, into gW and gb, from its
    input h and its output delta."""
    np.matmul(h.T, delta, out=gW)
    np.sum(delta, axis=0, out=gb)


def forward_rows(predictor, X, t, width):
    """The predictor's (B, width) outputs at states X (B, state width) and
    times t, one float for every row or (B,); a wrong output shape raises.

    Every predictor answers ``forward_batch(X, t)``; a one-row call is a
    batch of one.
    """
    out = np.asarray(predictor.forward_batch(X, t), dtype=np.float64)
    if out.shape != (X.shape[0], width):
        raise ValueError(f"predictor returned shape {out.shape}, expected {(X.shape[0], width)}")
    return out


class ConstantProbsPredictor:
    """Logits of fixed class probability rows (D, K), one row per
    dimension, independent of the belief state; for K=2 the class-1
    log-odds, as the discrete output map reads them."""

    def __init__(self, rows):
        self.logits = np.log(np.asarray(rows, dtype=np.float64))

    def forward_batch(self, X, t):
        if self.logits.shape[1] == 2:
            row = self.logits[:, 0] - self.logits[:, 1]
        else:
            row = self.logits.ravel()
        return np.tile(row, (len(X), 1))


class CtsDatumPredictor:
    """Noise estimates (X / gamma - x_star) / sqrt((1 - gamma) / gamma) at
    belief means X, which the continuous output map inverts to x_star, up
    to rounding, whatever the belief state."""

    def __init__(self, x_star, sigma1):
        self.x_star = np.asarray(x_star, dtype=np.float64)
        self.schedule = ContinuousSigma(float(sigma1))

    def forward_batch(self, X, t):
        return self._noise_mean(X, t)[0]

    def _noise_mean(self, X, t):
        # also the noise scale; a float t keeps gamma a Python float, as in the output maps
        g = self.schedule.gamma(float(t) if np.isscalar(t) else np.asarray(t, dtype=np.float64)[:, None])
        ratio = np.sqrt((1.0 - g) / g)
        return (np.asarray(X, dtype=np.float64) / g - self.x_star) / ratio, ratio


class DiscretisedDatumPredictor(CtsDatumPredictor):
    """(noise mean, log noise std) pairs placing the data Gaussian at
    x_star with width sigma_star, independent of the belief state."""

    def __init__(self, x_star, sigma_star, sigma1):
        super().__init__(x_star, sigma1)
        self.sigma_star = float(sigma_star)

    def forward_batch(self, X, t):
        mu_eps, ratio = self._noise_mean(X, t)
        return np.concatenate([mu_eps, np.full_like(mu_eps, np.log(self.sigma_star / ratio))], axis=1)
