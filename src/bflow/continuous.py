"""Continuous data: Gaussian input beliefs, noise-parameterised prediction,
transmission losses and ancestral sampling.

The belief over D-dimensional data is a diagonal Gaussian whose precision
is data-independent: every update adds the same accuracy to every
dimension, so at time t it is ``1 + beta(t)`` in closed form.  A belief
state is therefore just its (B, D) array of means; ``bayes_update`` takes
the precisions before and after the update from its caller, and the
sampler's ``update`` passes the closed forms at the step's two ends.
The network emits noise estimates e, whose data estimate at belief mean
mu is mu / gamma - sqrt((1 - gamma) / gamma) e.  The ops take one
``schedule.FlowConfig`` holding a ``ContinuousSigma`` schedule; the
reconstruction loss needs its ``recon_sigma`` > 0.
``schedule.sample_chain`` and ``schedule.loss_cts`` run them.
"""

import numpy as np

from .numerics import gaussian_sample
from .schedule import forward_rows, step_time


# the data range; datasets, quantise and check_data fix it too
X_MIN, X_MAX = -1.0, 1.0


def prior(cfg, B):
    """The beliefs of B streams before any update: zero means (B, D); their
    precision is 1."""
    return np.zeros((B, cfg.D))


def check_data(cfg, x):
    """Raise unless every value of the dataset x lies in [X_MIN, X_MAX]."""
    if np.any(np.abs(x) > 1.0):
        raise ValueError("values outside [-1, 1]")


def bayes_update(mean, y, alpha, precision, new_precision):
    """The posterior means after observing y at accuracy alpha, weighting the
    means at precision and y at alpha; new_precision is precision + alpha,
    which the caller may give in a closed form."""
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != mean.shape:
        raise ValueError("observation length does not match state dimension")
    return (mean * precision + y * alpha) / new_precision


def flow_sample(rng, cfg, x, t, z=None):
    """Draw belief means at times t directly, collapsing all updates.

    x is a (B, D) batch with t (B,), one time per row, or one float for
    every row; the means (B, D) are N(gamma(t) x, gamma(t)(1 - gamma(t)) I),
    at precision 1 + beta(t).  Every row draws its block of noise; at t=0
    gamma is 0, so the noise is scaled by zero and the row is exactly the
    prior.  z, when given, is the draw's standard-normal noise, x's shape,
    and rng is not used.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.min() < X_MIN or x.max() > X_MAX:
        raise ValueError(f"data outside [{X_MIN}, {X_MAX}]")
    g = np.full(x.shape[0], cfg.schedule.gamma(t))[:, None]
    if z is None:
        z = rng.standard_normal(x.shape)
    return g * x + np.sqrt(g * (1.0 - g)) * z


def noise_terms(cfg, t, B):
    """gamma, the rows at or above t_min, and sqrt((1 - gamma) / gamma), the
    scale from noise to data estimates; each (B, 1).  gamma is floored at
    1e-300, so rows at t=0 divide without warnings; their values are
    meaningless there, and the output maps mask those rows.

    t is (B,) or one float for every row.  A float keeps gamma in Python
    float arithmetic, so a one-time batch and its one-row calls agree bit
    for bit; numpy's vectorised power differs from it in the last bit for
    about one input in twenty.
    """
    g = np.maximum(np.full(B, cfg.schedule.gamma(t))[:, None], 1e-300)
    live = np.full(B, t >= cfg.t_min)[:, None]
    return g, live, np.sqrt((1.0 - g) / g)


def output_map(cfg, mu, t, net_out):
    """Clipped data estimates x_hat (B, D) from the network's noise estimates
    at belief means mu (B, D) and times t; zero on rows below t_min.  Also
    returns where x_hat moves with net_out and the slope there.
    """
    g, live, ratio = noise_terms(cfg, t, mu.shape[0])
    x_raw = np.where(live, mu / g - ratio * net_out, 0.0)
    inside = (x_raw > X_MIN) & (x_raw < X_MAX) & live
    return np.clip(x_raw, X_MIN, X_MAX), inside, -ratio


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
    """The network's (B, D) input for belief states: the means themselves."""
    return state


def loss_inf(cfg, x, state, t, net_out, grad=False):
    """Continuous-time loss (alpha(t) / 2) |x - x_hat|^2 per row of a (B, D)
    batch at flow states state and times t, (B,) or one float for every
    row; with grad, also its gradient w.r.t. net_out."""
    x_hat, inside, slope = output_map(cfg, state, t, net_out)
    w = 0.5 * np.full(x.shape[0], cfg.schedule.alpha(t))
    resid = x - x_hat
    loss = w * np.sum(resid * resid, axis=1)
    if not grad:
        return loss
    return loss, np.where(inside, w[:, None] * 2.0 * (x_hat - x) * slope, 0.0)


def net_out(predictor, cfg, state, t):
    """The predictor's (B, D) noise estimates at belief means state and
    times t.  It sees every row, so no row's output moves with another's
    time; the output maps mask the rows below t_min."""
    return forward_rows(predictor, state, t, net_widths(cfg)[1])


def estimate(predictor, cfg, state, t, rng):
    """Clipped data estimates (B, D) at belief means state and times t, the
    sampler's and the losses' x_hat; they draw nothing from rng, and are
    zero below t_min."""
    return output_map(cfg, state, t, net_out(predictor, cfg, state, t))[0]


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
    resid = x - estimate(predictor, cfg, p, t, None)
    weight = n * cfg.schedule.step_alpha(i, n) / 2.0
    # vecdot is np.dot row by row; a row sum would differ from it in the last bit
    return weight * np.vecdot(resid, resid)


def recon(rng, predictor, cfg, x):
    """Reconstruction loss estimates (B,), in nats, for a (B, D) batch: the
    cost of the final transmission under measurement noise of std
    cfg.recon_sigma, at a flow state drawn at t=1 for each row."""
    if not cfg.recon_sigma > 0.0:
        raise ValueError("recon_sigma must be positive")
    x = np.asarray(x, dtype=np.float64)
    p = flow_sample(rng, cfg, x, 1.0)
    resid = x - estimate(predictor, cfg, p, 1.0, None)
    return np.vecdot(resid, resid) / (2.0 * cfg.recon_sigma**2)


def update(cfg, state, estimate, i, n, rng):
    """The belief means after step i of n: the estimate (B, D) is sent at
    the step's accuracy alpha, N(estimate, 1 / alpha) drawn from rng, and
    the precision goes from 1 + beta((i - 1) / n) to 1 + beta(i / n)."""
    sched = cfg.schedule
    alpha = sched.step_alpha(i, n)
    y = gaussian_sample(rng, estimate, 1.0 / alpha)
    return bayes_update(state, y, alpha, 1.0 + sched.beta((i - 1) / n), 1.0 + sched.beta(i / n))
