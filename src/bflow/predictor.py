"""Predictors: the trainable MLP with hand-written reverse-mode gradients,
plus the two oracle predictors the verification harness uses: a constant
output, and a discretised predictor that places its data Gaussian at a
fixed point.

A predictor maps a modality-encoded state vector and a process time to a
raw output vector:

* continuous:  D inputs (belief means) -> D noise estimates
* discretised: D inputs -> 2D outputs (noise mean, log noise std)
* discrete:    K*D inputs (rescaled probabilities) -> K*D logits,
               or D -> D when K == 2

Gradients are written per layer rather than pulled from an autodiff
framework, which keeps the package self-contained and makes the
finite-difference checks in the test suite meaningful.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import Rng

MODALITIES = ("continuous", "discretised", "discrete")


@dataclass(frozen=True)
class PredictorSpec:
    modality: str
    D: int
    K: int = 0
    hidden: tuple = (256, 256)
    activation: str = "silu"
    time_feature: str = "fourier"  # or "raw"
    n_freqs: int = 8

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}")
        if self.modality == "discrete" and self.K < 2:
            raise ValueError("discrete modality needs K >= 2")
        if self.activation not in ("silu", "tanh"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.time_feature not in ("fourier", "raw"):
            raise ValueError(f"unknown time feature {self.time_feature!r}")

    @property
    def state_width(self):
        if self.modality in ("continuous", "discretised"):
            return self.D
        return self.D if self.K == 2 else self.D * self.K

    @property
    def output_width(self):
        if self.modality == "continuous":
            return self.D
        if self.modality == "discretised":
            return 2 * self.D
        return self.D if self.K == 2 else self.D * self.K

    @property
    def time_width(self):
        return 1 if self.time_feature == "raw" else 2 * self.n_freqs

    @property
    def input_width(self):
        return self.state_width + self.time_width


def time_features(spec, t):
    """Encode times (scalar or (B,)) as (B, time_width)."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if spec.time_feature == "raw":
        return t[:, None]
    j = np.arange(spec.n_freqs)
    ang = (2.0**j)[None, :] * np.pi * t[:, None]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def _silu(z):
    s = 1.0 / (1.0 + np.exp(-z))
    return z * s


def _silu_grad(z):
    s = 1.0 / (1.0 + np.exp(-z))
    return s * (1.0 + z * (1.0 - s))


_ACTIVATIONS = {
    "silu": (_silu, _silu_grad),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
}


class MLP:
    """Fully-connected predictor with a recorded-tape backward pass.

    Parameters live in one flat float64 vector; ``layout`` maps slice
    offsets to (name, shape) so the vector round-trips losslessly through
    checkpoints.
    """

    def __init__(self, spec, seed=0):
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
        self._act, self._act_grad = _ACTIVATIONS[spec.activation]
        self._tape = None

    def _views(self, flat):
        """Per-layer views, by layout name, into a flat parameter-sized vector."""
        return {name: flat[off : off + int(np.prod(shape))].reshape(shape) for name, shape, off in self.layout}

    def forward_batch(self, X, t, record=False):
        """(B, state_width), (B,) -> (B, output_width)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.spec.state_width:
            raise ValueError(f"input shape {X.shape} does not match state width {self.spec.state_width}")
        feats = time_features(self.spec, t)
        if feats.shape[0] == 1 and X.shape[0] > 1:
            feats = np.broadcast_to(feats, (X.shape[0], feats.shape[1]))
        h = np.concatenate([X, feats], axis=1)
        w = self._views(self.params)
        n_layers = len(self.layout) // 2
        tape = [h]
        pre = []
        for li in range(n_layers):
            z = h @ w[f"W{li}"] + w[f"b{li}"]
            if li < n_layers - 1:
                pre.append(z)
                h = self._act(z)
                tape.append(h)
            else:
                h = z
        if record:
            self._tape = (tape, pre)
        return h

    def forward(self, state, t):
        return self.forward_batch(np.asarray(state, dtype=np.float64)[None, :], float(t))[0]

    def backward_batch(self, d_out):
        """Gradient of sum(output * d_out) w.r.t. params, as a flat vector;
        each layer's gradient is written straight into its slice of it.

        Requires a preceding ``forward_batch(..., record=True)``.
        """
        if self._tape is None:
            raise ValueError("no recorded forward pass")
        tape, pre = self._tape
        d_out = np.asarray(d_out, dtype=np.float64)
        w = self._views(self.params)
        n_layers = len(self.layout) // 2
        flat = np.empty_like(self.params)
        grads = self._views(flat)
        delta = d_out
        for li in range(n_layers - 1, -1, -1):
            np.matmul(tape[li].T, delta, out=grads[f"W{li}"])
            np.sum(delta, axis=0, out=grads[f"b{li}"])
            if li > 0:
                delta = (delta @ w[f"W{li}"].T) * self._act_grad(pre[li - 1])
        return flat


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


def _gamma(sigma1, t):
    """1 - sigma1^(2t): a float for a float t (Python arithmetic, as the
    modality ops compute it), else a (B, 1) column."""
    t = float(t) if np.isscalar(t) else np.asarray(t, dtype=np.float64)[:, None]
    return 1.0 - sigma1 ** (2.0 * t)


class ConstantPredictor:
    """Emits a fixed vector regardless of input; no learnable state.

    With ``predicts_data=True`` the continuous adapter treats the vector
    as a data estimate rather than a noise estimate, so a constant equal
    to the true datum is a perfect predictor with exactly zero residual.
    """

    def __init__(self, values, predicts_data=False):
        self.values = np.asarray(values, dtype=np.float64)
        self.predicts_data = bool(predicts_data)

    def forward_batch(self, X, t):
        return np.tile(self.values, (len(X), 1))


class DiscretisedDatumPredictor:
    """(noise mean, log noise std) pair placing the data Gaussian at
    mu_star with width sigma_star, independent of the belief state."""

    def __init__(self, mu_star, sigma_star, sigma1):
        self.mu_star = np.asarray(mu_star, dtype=np.float64)
        self.sigma_star = float(sigma_star)
        self.sigma1 = float(sigma1)

    def forward_batch(self, X, t):
        X = np.asarray(X, dtype=np.float64)
        g = _gamma(self.sigma1, t)
        ratio = np.sqrt((1.0 - g) / g)
        mu_eps = (X / g - self.mu_star) / ratio
        ln_sigma_eps = np.full_like(X, np.log(self.sigma_star / ratio))
        return np.concatenate([mu_eps, ln_sigma_eps], axis=1)
