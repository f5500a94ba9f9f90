"""Continuous data: Gaussian input beliefs, noise-parameterised prediction,
transmission losses and ancestral sampling.

The belief state over D-dimensional data is a diagonal Gaussian with a
shared scalar precision.  Precision is data-independent (every update adds
the same accuracy to every dimension), so along a schedule it can always be
recomputed as ``1 + beta(t)``; the sampling loop uses that closed form so
the final precision is exact rather than an accumulated float sum.
The ops take one ``schedule.FlowConfig`` holding a ``ContinuousSigma``
schedule; the reconstruction loss needs its ``recon_sigma`` > 0.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import Rng, gaussian_sample
from .predictor import forward_rows
from .schedule import step_time


# the data range; datasets, quantise and check_data fix it too
X_MIN, X_MAX = -1.0, 1.0


@dataclass
class CtsParams:
    """Input-distribution state: per-dimension mean, shared precision >= 1
    (for a batch from flow_sample, a (B, D) mean and a (B,) precision)."""

    mean: np.ndarray
    precision: float


def prior(D):
    return CtsParams(mean=np.zeros(D), precision=1.0)


def check_data(cfg, x):
    """Raise unless every value of the dataset x lies in [X_MIN, X_MAX]."""
    if np.any(np.abs(x) > 1.0):
        raise ValueError("values outside [-1, 1]")


def gamma(cfg, t):
    """Fraction of the data present in the expected belief mean at time t."""
    return 1.0 - cfg.schedule.sigma1 ** (2.0 * t)


def bayes_update(p, y, alpha, precision=None):
    """Precision-weighted posterior after observing y at accuracy alpha;
    precision, when given, is p.precision + alpha in a closed form."""
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != p.mean.shape:
        raise ValueError("observation length does not match state dimension")
    if precision is None:
        precision = p.precision + alpha
    mean = (p.mean * p.precision + y * alpha) / precision
    return CtsParams(mean=mean, precision=precision)


def flow_sample(rng, cfg, x, t, z=None):
    """Draw belief states at times t directly, collapsing all updates.

    x is a (B, D) batch with t (B,), one time per row, or one float for
    every row: the state's mean is (B, D) and its precision (B,).
    mean ~ N(gamma(t) x, gamma(t)(1 - gamma(t)) I) and
    precision = 1 + beta(t).  Every row draws its block of noise; at t=0
    gamma is 0, so the noise is scaled by zero and the row is exactly the
    prior.  z, when given, is the draw's standard-normal noise, x's shape,
    and rng is not used.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.min() < X_MIN or x.max() > X_MAX:
        raise ValueError(f"data outside [{X_MIN}, {X_MAX}]")
    precision = np.full(x.shape[0], 1.0 + cfg.schedule.beta(t))
    g = np.full(x.shape[0], gamma(cfg, t))[:, None]
    if z is None:
        z = rng.standard_normal(x.shape)
    return CtsParams(mean=g * x + np.sqrt(g * (1.0 - g)) * z, precision=precision)


def noise_terms(cfg, t, B):
    """gamma, the rows at or above t_min, and sqrt((1 - gamma) / gamma), the
    scale from noise to data estimates; each (B, 1).  gamma is floored at
    1e-300, so rows at t=0 divide without warnings; their values are
    meaningless there, and the output maps mask those rows.

    t is (B,) or one float for every row.  A float keeps gamma in Python
    float arithmetic, as the per-item ops always computed it; numpy's
    vectorised power differs from it in the last bit for about one input
    in twenty.
    """
    g = np.maximum(np.full(B, gamma(cfg, t))[:, None], 1e-300)
    live = np.full(B, t >= cfg.t_min)[:, None]
    return g, live, np.sqrt((1.0 - g) / g)


def output_map(cfg, mu, t, net_out, predicts_data=False):
    """Clipped data estimates x_hat (B, D) from the network's noise estimates
    at belief means mu (B, D) and times t; zero on rows below t_min.

    A data predictor (predicts_data) skips the noise transform.  Also
    returns where x_hat moves with net_out and the slope there.
    """
    g, live, ratio = noise_terms(cfg, t, mu.shape[0])
    if predicts_data:
        x_raw, slope = np.where(live, net_out, 0.0), 1.0
    else:
        x_raw = np.where(live, mu / g - ratio * net_out, 0.0)
        slope = -ratio
    inside = (x_raw > X_MIN) & (x_raw < X_MAX) & live
    return np.clip(x_raw, X_MIN, X_MAX), inside, slope


def net_widths(cfg):
    """The network's (state, output) widths: D belief means in, D noise
    estimates out.  Continuous data has no class count, so K must be 0."""
    if cfg.K != 0:
        raise ValueError(f"continuous data takes no class count, got K={cfg.K}")
    return cfg.D, cfg.D


def render(cfg, samples, alphabet):
    """PGM grey levels (B, D) of a (B, D) sample batch: [-1, 1] scaled to
    0..255 and rounded.  Only discrete samples decode with an alphabet."""
    if alphabet is not None:
        raise ValueError("an alphabet decodes discrete samples, but the model is continuous")
    return np.clip(np.rint((samples + 1.0) * 127.5), 0, 255).astype(np.uint8)


def net_input(cfg, state):
    """The network's (B, D) input for flow states: the belief means."""
    return state.mean


def loss_inf(cfg, x, state, t, net_out, grad=False, predicts_data=False):
    """Continuous-time loss (alpha(t) / 2) |x - x_hat|^2 per row of a (B, D)
    batch at flow states state and times t, (B,) or one float for every
    row; with grad, also its gradient w.r.t. net_out."""
    x_hat, inside, slope = output_map(cfg, state.mean, t, net_out, predicts_data)
    w = 0.5 * np.full(x.shape[0], cfg.schedule.alpha(t))
    resid = x - x_hat
    loss = w * np.sum(resid * resid, axis=1)
    if not grad:
        return loss
    return loss, np.where(inside, w[:, None] * 2.0 * (x_hat - x) * slope, 0.0)


def net_out(predictor, cfg, mu, t, width):
    """The predictor's (B, width) outputs at belief means mu (B, D) and
    times t; zeros on rows below t_min, where the output maps ignore them,
    so the predictor never sees those rows."""
    live = np.full(mu.shape[0], t >= cfg.t_min)
    if live.all():
        return forward_rows(predictor, mu, t, width)
    out = np.zeros((mu.shape[0], width))
    if live.any():
        out[live] = forward_rows(predictor, mu[live], np.asarray(t)[live], width)
    return out


def _x_hat(predictor, cfg, mu, t):
    """Clipped data estimates (B, D) at belief means mu (B, D) and times t.

    Predictors emit noise estimates by default.  A predictor carrying a
    truthy ``predicts_data`` attribute emits data estimates directly.
    """
    predicts_data = getattr(predictor, "predicts_data", False)
    return output_map(cfg, mu, t, net_out(predictor, cfg, mu, t, cfg.D), predicts_data)[0]


def loss_n(rng, predictor, cfg, x, n, i):
    """n-step transmission loss estimates (B,), in nats, for a (B, D) batch
    at step i of n: one int for every row, or (B,) ints.

    Each row draws its flow state, whatever its step, and the predictor
    runs once on the batch.  An int i keeps the time factors in Python
    float arithmetic, so row b equals the b-th of B one-row calls on the
    same stream, bit for bit; per-row steps compute them in numpy, whose
    vectorised power can differ in the last bit.
    """
    x = np.asarray(x, dtype=np.float64)
    t = step_time(i, n)
    p = flow_sample(rng, cfg, x, t)
    resid = x - _x_hat(predictor, cfg, p.mean, t)
    weight = n * (1.0 - cfg.schedule.sigma1 ** (2.0 / n)) / (2.0 * cfg.schedule.sigma1 ** (2.0 * i / n))
    # vecdot is np.dot row by row; a row sum would differ from it in the last bit
    return weight * np.vecdot(resid, resid)


def loss_cts(rng, predictor, cfg, x, t):
    """Continuous-time loss estimates (B,), in nats, for a (B, D) batch at
    times t, one float for every row or (B,): each row draws its flow
    state, and the predictor runs once on the batch."""
    x = np.asarray(x, dtype=np.float64)
    p = flow_sample(rng, cfg, x, t)
    out = net_out(predictor, cfg, p.mean, t, cfg.D)
    return loss_inf(cfg, x, p, t, out, predicts_data=getattr(predictor, "predicts_data", False))


def recon(rng, predictor, cfg, x):
    """Reconstruction loss estimates (B,), in nats, for a (B, D) batch: the
    cost of the final transmission under measurement noise of std
    cfg.recon_sigma, at a flow state drawn at t=1 for each row."""
    if not cfg.recon_sigma > 0.0:
        raise ValueError("recon_sigma must be positive")
    x = np.asarray(x, dtype=np.float64)
    p = flow_sample(rng, cfg, x, 1.0)
    resid = x - _x_hat(predictor, cfg, p.mean, 1.0)
    return np.vecdot(resid, resid) / (2.0 * cfg.recon_sigma**2)


def generate(rng, predictor, cfg, n, return_params=False):
    """n-step ancestral sampling (sample_chain); returns the final clipped
    data estimate.  The first step sits below t_min, where the estimate is
    pinned to zero without reaching the predictor.
    """
    return sample_chain(rng, cfg, n, lambda mean, t, rngs: _x_hat(predictor, cfg, mean, t), return_params)


def sample_chain(rng, cfg, n, estimate, return_params):
    """n-step ancestral sampling for the Gaussian beliefs.

    rng is one Rng, which gives one (D,) sample, or a sequence of B Rngs,
    which gives (B, D) samples and a (B, D) belief mean; row b draws from
    stream b as a one-stream call does.  estimate(mean, t, rngs) gives the
    (B, D) data estimates at belief means (B, D) and time t, one batched
    predictor call.  Step i sends the estimate at t = (i - 1) / n through
    the sender, and the estimate at t = 1 is the sample.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    sched = cfg.schedule
    rngs = [rng] if isinstance(rng, Rng) else list(rng)
    p = CtsParams(mean=np.zeros((len(rngs), cfg.D)), precision=1.0)
    z = np.empty((len(rngs), cfg.D))
    for i in range(1, n + 1):
        x_hat = estimate(p.mean, (i - 1) / n, rngs)
        alpha = sched.step_alpha(i, n)
        for b, r in enumerate(rngs):
            z[b] = r.standard_normal(cfg.D)
        y = gaussian_sample(None, x_hat, 1.0 / alpha, z)
        p = bayes_update(p, y, alpha, 1.0 + sched.beta(i / n))
    out = estimate(p.mean, 1.0, rngs)
    if isinstance(rng, Rng):
        out, p = out[0], CtsParams(mean=p.mean[0], precision=p.precision)
    return (out, p) if return_params else out
