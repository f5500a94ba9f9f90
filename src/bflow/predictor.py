"""Predictors: the trainable MLP with hand-written reverse-mode gradients,
and below it every analytic predictor, whose outputs are closed forms: a
fixed output row, noise estimates placing the data estimate or the
discretised data Gaussian at a fixed point, and the exact posterior mean
of a few continuous atoms.

A predictor maps a modality-encoded state vector and a process time to a
raw output vector; each modality module's ``net_widths`` gives the two
widths, and ``PredictorSpec`` holds them.

Gradients are written per layer rather than pulled from an autodiff
framework, which keeps the package self-contained and makes the
finite-difference checks in the test suite meaningful.
"""

from dataclasses import dataclass

import numpy as np

from . import continuous
from .numerics import Rng, softmax_rows
from .schedule import ContinuousSigma, FlowConfig


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
    def layers(self):
        """Each layer's (fan_in, fan_out) pair, input to output."""
        widths = (self.input_width, *self.hidden, self.output_width)
        return tuple(zip(widths, widths[1:]))

    @property
    def n_params(self):
        """The MLP's parameter count: each layer's weights and biases."""
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in self.layers)


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

    Parameters live in one flat float64 vector of ``spec.n_params`` values,
    which is also the checkpoint payload: for each layer of ``spec.layers``
    in turn, its (fan_in, fan_out) weights row-major, then its fan_out
    biases.  ``params``, when given, is that vector, taken as is, and no
    initial weights are drawn.
    """

    def __init__(self, spec, seed=0, params=None):
        self.spec = spec
        self._tape = None
        if params is None:
            params = np.zeros(spec.n_params)
            rng = Rng(seed, _path=(0xA11,))
            # output layer starts at zero so the initial prediction is the
            # all-zero vector, a sane starting estimate for every modality
            for W, _ in self._views(params)[:-1]:
                W[...] = rng.standard_normal(W.shape) / np.sqrt(W.shape[0])
        self.params = params

    @property
    def params(self):
        """The flat parameter vector: a whole C-contiguous float64 array, never
        copied, so in-place edits reach the layer views built on assignment."""
        return self._params

    @params.setter
    def params(self, flat):
        if not (isinstance(flat, np.ndarray) and flat.dtype == np.float64 and flat.shape == (self.spec.n_params,)):
            got = f"{flat.dtype} {flat.shape}" if isinstance(flat, np.ndarray) else type(flat).__name__
            raise ValueError(f"params must be a float64 array of shape ({self.spec.n_params},), got {got}")
        if not flat.flags.c_contiguous:
            raise ValueError("params must be C-contiguous, got a strided view")
        self._params = flat
        self._layers = self._views(flat)

    def _views(self, flat):
        """Each layer's (W, b) views into a flat parameter-sized vector, in
        the vector's order."""
        views, off = [], 0
        for fan_in, fan_out in self.spec.layers:
            end = off + fan_in * fan_out
            views.append((flat[off:end].reshape(fan_in, fan_out), flat[end : end + fan_out]))
            off = end + fan_out
        return views

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

    def backward_batch(self, d_out):
        """Gradient of sum(output * d_out) w.r.t. params, as a flat vector;
        each layer's weight and bias gradient is written straight into its
        slice of it.  Requires a preceding ``forward_batch(..., record=True)``.
        """
        if self._tape is None:
            raise ValueError("no recorded forward pass")
        tape, pre = self._tape
        delta = np.asarray(d_out, dtype=np.float64)
        flat = np.empty_like(self.params)
        for li, (gW, gb) in reversed(list(enumerate(self._views(flat)))):
            np.matmul(tape[li].T, delta, out=gW)
            np.sum(delta, axis=0, out=gb)
            if li > 0:
                delta = (delta @ self._layers[li][0].T) * _silu_grad(pre[li - 1])
        return flat


class ConstantPredictor:
    """A fixed raw output row, the same for every belief state and time."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    @classmethod
    def from_probs(cls, rows):
        """Fixed class probability rows (D, K), one row per dimension."""
        return cls._from_logits(np.log(np.asarray(rows, dtype=np.float64)))

    @classmethod
    def one_hot(cls, x, K, sharpness=40.0):
        """Logits that softmax to a one-hot at the classes x (D,)."""
        return cls._from_logits(sharpness * np.eye(K)[np.asarray(x, dtype=np.int64) - 1])

    @classmethod
    def _from_logits(cls, logits):
        # the row the discrete output map reads: the (D, K) logits, or at
        # K=2 the class-1 log-odds
        return cls(logits[:, 0] - logits[:, 1] if logits.shape[1] == 2 else logits.ravel())

    def forward_batch(self, X, t):
        return np.tile(self.values, (len(X), 1))


class CtsDatumPredictor:
    """Noise estimates (X / gamma - x_star) / sqrt((1 - gamma) / gamma) at
    belief means X, which the continuous output map inverts to x_star, up
    to rounding (``inversion_bound``), whatever the belief state."""

    def __init__(self, x_star, sigma1):
        self.x_star = np.asarray(x_star, dtype=np.float64)
        self.cfg = FlowConfig(ContinuousSigma(float(sigma1)), self.x_star.size)

    def forward_batch(self, X, t):
        return self._noise_mean(X, t)[0]

    def _noise_mean(self, X, t):
        # also the noise scale: gamma and the scale as the output maps take them
        g, _, ratio = continuous.noise_terms(self.cfg, t, len(X))
        return (np.asarray(X, dtype=np.float64) / g - self.x_star) / ratio, ratio


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


class DiscretisedDatumPredictor(CtsDatumPredictor):
    """(noise mean, log noise std) pairs placing the data Gaussian at
    x_star with width sigma_star, independent of the belief state."""

    def __init__(self, x_star, sigma_star, sigma1):
        super().__init__(x_star, sigma1)
        self.sigma_star = float(sigma_star)

    def forward_batch(self, X, t):
        mu_eps, ratio = self._noise_mean(X, t)
        return np.concatenate([mu_eps, np.full_like(mu_eps, np.log(self.sigma_star / ratio))], axis=1)


class CtsPosteriorPredictor:
    """Exact noise estimates for continuous data drawn uniformly from a few
    atoms (N <= 64, D), which the output map inverts to each row's
    posterior mean.  A float t is taken as a (B,) t of that value, and
    every sum runs along one row, so no row's bits depend on the batch."""

    def __init__(self, atoms, sigma1):
        self.atoms = np.asarray(atoms, dtype=np.float64)
        if self.atoms.ndim != 2 or len(self.atoms) > 64:
            raise ValueError("atoms must be (N<=64, D)")
        self.cfg = FlowConfig(ContinuousSigma(float(sigma1)), self.atoms.shape[1])

    def posterior_mean(self, X, t):
        """E[x | belief means X] (B, D) at times t, (B,) or one float."""
        return self._posterior(X, t)[0]

    def forward_batch(self, X, t):
        x_hat, g, ratio = self._posterior(X, t)
        return (np.asarray(X, dtype=np.float64) / g - x_hat) / ratio

    def _posterior(self, X, t):
        # also gamma (B, 1) and the noise scale, as the output map takes them
        X = np.asarray(X, dtype=np.float64)
        g, _, ratio = continuous.noise_terms(self.cfg, np.full(len(X), t, dtype=np.float64), len(X))
        # each atom's log-likelihood of the belief mean, N(g x, g (1 - g))
        d = X[:, None, :] - g[:, :, None] * self.atoms
        logw = -0.5 * np.sum(d * d, axis=2) / (g * (1.0 - g))
        w = softmax_rows(logw)
        return np.sum(w[..., None] * self.atoms, axis=1), g, ratio
