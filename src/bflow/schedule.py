"""Accuracy schedules: cumulative accuracy beta(t), rate alpha(t), step sizes.

Two closed forms cover both data families:

* ``ContinuousSigma(sigma1)``: beta(t) = sigma1**(-2t) - 1, the schedule
  under which the input-distribution entropy decreases linearly in t.
* ``DiscreteQuadratic(beta1)``: beta(t) = beta1 * t**2.

Schedules are immutable value objects; every quantity is a cheap closed
form, so nothing is cached.  ``beta``, ``alpha`` and ``gamma`` take a
float or an array of times, ``step_alpha`` an integer step or array of
steps.  ``FlowConfig`` bundles a schedule with what else a modality's ops
take; ``sample_chain``, ``loss_cts`` and ``forward_rows`` sample, score
and run the predictor for any modality.
Every op draws (B, ...) blocks from one rng; ``sample_chain`` hands its
B per-sample streams to the ops as one ``numerics.RowStreams``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numerics import RowStreams


@dataclass(frozen=True)
class ContinuousSigma:
    """Schedule parameterised by the input std at t=1; sigma1 in (0, 1)."""

    sigma1: float

    def __post_init__(self):
        if not (0.0 < self.sigma1 < 1.0):
            raise ValueError(f"sigma1 must be in (0, 1), got {self.sigma1}")

    def beta(self, t):
        _check_t(t)
        return self.sigma1 ** (-2.0 * t) - 1.0

    def alpha(self, t):
        _check_t(t)
        return -2.0 * math.log(self.sigma1) * self.sigma1 ** (-2.0 * t)

    def step_alpha(self, i, n):
        _check_step(i, n)
        return self.sigma1 ** (-2.0 * i / n) * (1.0 - self.sigma1 ** (2.0 / n))

    def gamma(self, t):
        """The data's share 1 - sigma1**(2t) of the expected belief mean."""
        _check_t(t)
        return 1.0 - self.sigma1 ** (2.0 * t)


@dataclass(frozen=True)
class DiscreteQuadratic:
    """Quadratic schedule with total accuracy beta1 > 0 at t=1."""

    beta1: float

    def __post_init__(self):
        if not self.beta1 > 0.0:
            raise ValueError(f"beta1 must be positive, got {self.beta1}")

    def beta(self, t):
        _check_t(t)
        return self.beta1 * t * t

    def alpha(self, t):
        _check_t(t)
        return 2.0 * self.beta1 * t

    def step_alpha(self, i, n):
        _check_step(i, n)
        return self.beta1 * (2.0 * i - 1.0) / (n * n)


@dataclass(frozen=True)
class FlowConfig:
    """The schedule, D, the class or bin count K (0 for continuous data),
    the time below which the output maps ignore the network, and the
    continuous reconstruction noise std (0: no reconstruction loss)."""

    schedule: object
    D: int
    K: int = 0
    t_min: float = 1e-6
    recon_sigma: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.t_min < 0.1):
            raise ValueError("t_min must lie in (0, 0.1)")


def _check_t(t):
    ok = (0.0 <= t) & (t <= 1.0)  # NaN fails
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        raise ValueError(f"t must lie in [0, 1], got {t}")


def _check_step(i, n):
    integral = isinstance(i, int) or (isinstance(i, np.ndarray) and i.dtype.kind in "iu")
    if not (integral and isinstance(n, int)):
        raise ValueError("step index and count must be integers")
    ok = (1 <= i) & (i <= n)
    if n < 1 or not (ok.all() if isinstance(ok, np.ndarray) else ok):
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")


def step_time(i, n):
    """Start time (i - 1) / n of step i of n: a float for an int i, one
    time per row for an integer array."""
    _check_step(i, n)
    return (i - 1) / n


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


def sample_chain(ops, streams, predictor, cfg, n, return_state=False):
    """n-step ancestral sampling over a modality module's chain ops: (B, D)
    samples from a sequence of B Rngs.

    From ``ops.prior``, step i of n draws ``ops.estimate`` at t = (i - 1) / n
    and sends it through ``ops.update`` at the accuracy of step i; the
    estimate drawn at t = 1 is the sample.  The ops draw (B, ...) blocks
    from one ``numerics.RowStreams`` over the streams, so row b draws from
    stream b alone, as a one-stream run does, and the predictor runs once
    per step on the batch.  With return_state, also returns the final
    state.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = RowStreams(streams)
    state = ops.prior(cfg, len(rng.streams))
    for i in range(1, n + 1):
        state = ops.update(cfg, state, ops.estimate(predictor, cfg, state, (i - 1) / n, rng), i, n, rng)
    sample = ops.estimate(predictor, cfg, state, 1.0, rng)
    return (sample, state) if return_state else sample


def loss_cts(ops, rng, predictor, cfg, x, t):
    """Continuous-time loss estimates (B,), in nats, of a (B, D) batch at
    times t, a float or (B,), by a modality module's ops."""
    state = ops.flow_sample(rng, cfg, x, t)
    return ops.loss_inf(cfg, x, state, t, ops.net_out(predictor, cfg, state, t))


# Default hyperparameter presets (finely vs coarsely discretised images,
# binary bitmaps, 27-symbol character data).
PRESETS = {
    "cts-256bin": ContinuousSigma(0.001),
    "cts-16bin": ContinuousSigma(math.sqrt(0.001)),
    "binary": DiscreteQuadratic(3.0),
    "chars27": DiscreteQuadratic(0.75),
}
