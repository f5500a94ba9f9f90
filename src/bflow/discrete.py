"""Discrete (categorical) data: summed-logit belief states, Gaussian-logit
sender, additive Bayesian updates, losses and sampling.

Data is a vector of D class indices in 1..K.  The belief over a dimension
is a probability row, and a Bayesian update with a sender draw y
multiplies it by exp(y) and renormalises: it adds y to the row's logits.
So a belief state is the (B, D, K) array of summed logits, zero at the
uniform prior, an update is one addition, exact and free of underflow, and
the probabilities are the rows' softmax, which ``net_input`` takes.  The
flow draws the same sum in one Gaussian draw.  Sender draws are stored as
(D, K) blocks; the flattened K*D layout is an encoding detail.

For binary data (K=2) only the class-1 probability is fed to the network
and a logistic sigmoid produces the class-1 output probability; the K>2
path keeps the redundant class and uses a row softmax.

The ops take one ``schedule.FlowConfig`` holding a ``DiscreteQuadratic``
schedule and the class count K; ``schedule.sample_chain`` and
``schedule.loss_cts`` run them.
"""

import sys

import numpy as np

from .kernels import logsumexp_rows
from .numerics import neg_log_true_class, row_sum, sample_categorical_rows, softmax_rows
from .schedule import FlowConfig, forward_rows, sample_chain, step_time


# the default alphabet of K=27 data: a to z, then space
ALPHABET_27 = [chr(c) for c in range(ord("a"), ord("z") + 1)] + [" "]


def class_indices(x, K):
    """x as int64 class indices; raise unless every entry is a whole number
    in 1..K, naming the first fractional one.  Integer arrays skip that test."""
    x = np.asarray(x)
    if x.dtype.kind not in "iu" and (frac := np.argwhere(x % 1 != 0)).size:
        raise ValueError(f"class indices must be whole numbers, the first {x[tuple(frac[0])]} "
                         f"at index {tuple(frac[0].tolist())}")
    if ((x < 1) | (x > K)).any():
        raise ValueError(f"class indices outside 1..{K}")
    return x.astype(np.int64, copy=False)


def check_data(cfg, x):
    """Raise unless every entry of the dataset x is a class index in 1..K."""
    class_indices(x, cfg.K)


def one_hot(x, K):
    """(..., K) projection of 1-based class indices, as booleans, which
    arithmetic reads as 1.0 and 0.0."""
    return class_indices(x, K)[..., None] == np.arange(1, K + 1)


def sender_mean(x, alpha, K):
    """The sender's mean alpha (K e_x - 1), (..., D, K), for one accuracy or
    accuracies broadcasting against it: alpha (K - 1) at the class and
    -alpha elsewhere, the same bits."""
    return np.where(one_hot(x, K), alpha * (K - 1.0), -alpha)


def sender_sample(rng, x, alpha, K, z=None):
    """Draw logit-space observations: N(alpha(K e_x - 1), alpha K I) per dim.

    alpha is one accuracy or broadcasts against the (..., D, K) draw; z,
    when given, is the draw's standard-normal noise and rng is not used.
    """
    ok = alpha > 0.0  # NaN fails
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        raise ValueError("alpha must be positive")
    mean = sender_mean(x, alpha, K)
    if z is None:
        z = rng.standard_normal(mean.shape)
    # gaussian_sample's draw without its variance check, which the alpha
    # check above makes: the sampler's update pays for this op every step
    return mean + np.sqrt(alpha * K) * z


def flow_sample(rng, cfg, x, t, z=None):
    """Belief states at times t: summed logits (B, D, K) drawn in one
    Gaussian draw per row, N(beta(t)(K e_x - 1), beta(t) K I), the sender's
    law at the accuracy beta(t).

    x is a (B, D) batch with t (B,), one time per row, or one float for
    every row.  Every row draws its block of noise; at t=0 beta is 0, so
    the logits are all zero and the row is exactly the prior.  z, when
    given, is the draw's standard-normal noise, (B, D, K), and rng is not
    used.
    """
    K = cfg.K
    beta = np.full(np.shape(x)[0], cfg.schedule.beta(t))[:, None, None]
    if z is None:
        z = rng.standard_normal(np.shape(x) + (K,))
    return sender_mean(x, beta, K) + np.sqrt(beta * K) * z


def net_widths(cfg):
    """The network's (state, output) widths: D*K in and out, one value per
    class, or D (the class-1 column in, its logit out) when K=2."""
    if cfg.K < 2:
        raise ValueError(f"discrete data needs K >= 2, got K={cfg.K}")
    width = cfg.D if cfg.K == 2 else cfg.D * cfg.K
    return width, width


def render(cfg, samples, alphabet):
    """Sample-file content of a (B, D) batch of class indices: one line of
    text per sample when an alphabet is in effect (the given one or, at
    K=27, ALPHABET_27), otherwise (B, D) PGM grey levels with class k at
    (k - 1) * (255 // (K - 1))."""
    if alphabet is None and cfg.K == 27:
        alphabet = ALPHABET_27
    if alphabet is None:
        return ((samples - 1) * (255 // (cfg.K - 1))).astype(np.uint8)
    if len(alphabet) != cfg.K:
        raise ValueError(f"the alphabet has {len(alphabet)} symbols, but the model has K={cfg.K} classes")
    return ["".join(alphabet[k - 1] for k in row) + "\n" for row in samples]


def net_input(cfg, state):
    """Network input encoding of (..., D, K) summed-logit states: the
    beliefs, their row softmax, rescaled to [-1, 1], one row per state.

    K=2 feeds only the class-1 column; K>2 feeds the full flattened rows.
    """
    theta = softmax_rows(state)
    if cfg.K == 2:
        return 2.0 * theta[..., 0] - 1.0
    return (2.0 * theta - 1.0).reshape(theta.shape[:-2] + (-1,))


def output_map(net_out, K):
    """Class probabilities (B, D, K) from the network's logits (B, D*K),
    or from its class-1 logits (B, D) through a sigmoid when K=2."""
    if K == 2:
        p1 = 1.0 / (1.0 + np.exp(-net_out))
        return np.stack([p1, 1.0 - p1], axis=-1)
    return softmax_rows(net_out.reshape(net_out.shape[0], -1, K))


def loss_inf(cfg, x, state, t, net_out, grad=False):
    """Continuous-time loss (K alpha(t) / 2) |e_x - p|^2 per row of a (B, D)
    batch of class indices at times t, (B,) or one float for every row; p
    is the output class probabilities, the expected one-hot, and depends on
    the flow states only through net_out.

    With grad, also returns its gradient w.r.t. net_out.
    """
    B, K = x.shape[0], cfg.K
    weight = 0.5 * K * np.full(B, cfg.schedule.alpha(t))
    onehot = one_hot(x, K)
    probs = output_map(net_out, K)
    if K == 2:
        # |e - p|^2 = 2 (e_1 - p_1)^2 per dimension
        p1, e1 = probs[..., 0], onehot[..., 0]
        loss = weight * 2.0 * np.sum((e1 - p1) ** 2, axis=1)
        if not grad:
            return loss
        return loss, weight[:, None] * 4.0 * (p1 - e1) * p1 * (1.0 - p1)
    diff = probs - onehot
    loss = weight * np.sum(diff * diff, axis=(1, 2))
    if not grad:
        return loss
    dL_dp = weight[:, None, None] * 2.0 * diff
    inner = np.sum(dL_dp * probs, axis=2, keepdims=True)
    return loss, (probs * (dL_dp - inner)).reshape(B, -1)


def net_out(predictor, cfg, state, t):
    """The predictor's (B, width) outputs at summed logits state (B, D, K)
    and times t."""
    return forward_rows(predictor, net_input(cfg, state), t, net_widths(cfg)[1])


def log_ratio(y, x, probs, alpha, K):
    """Sender minus receiver log-density of (..., D, K) sender draws y of
    classes x (..., D), summed over D; probs are the receiver's class
    probabilities, broadcasting against y, and alpha is one accuracy or
    broadcasts against y.

    Per dimension the receiver mixes the sender's N(alpha(K e_k - 1),
    alpha K I) over classes k weighted by probs.  Writing u = y + alpha, the
    squared distance to component k is |u|^2 - 2 alpha K u_k + alpha^2 K^2,
    so every term but u_k is shared by sender and receiver, and the ratio
    is u_x - logsumexp_k(log p_k + u_k).
    """
    u = np.asarray(y, dtype=np.float64) + alpha
    ux = np.take_along_axis(u, class_indices(x, K)[..., None] - 1, axis=-1)[..., 0]
    with np.errstate(divide="ignore"):
        logw = np.log(np.asarray(probs, dtype=np.float64))
    lse = logsumexp_rows((logw + u).reshape(-1, K)).reshape(u.shape[:-1])
    return row_sum(ux - lse)


def loss_n(rng, predictor, cfg, x, n, i):
    """n-step loss estimates (B,), in nats, for a (B, D) batch of class
    indices at step i of n: one int for every row, or (B,) ints.

    Each row draws one (2, D, K) block of noise, the flow state's and then
    the sender sample's, whatever its step, so a row's loss depends only on
    its own stream position; all rows are drawn in one call.  The
    predictor runs once on the batch.  Row b equals the b-th of B one-row
    calls as in continuous.loss_n.
    """
    K = cfg.K
    x = class_indices(x, K)
    t = step_time(i, n)
    alpha = cfg.schedule.step_alpha(i, n)
    if not np.isscalar(alpha):
        alpha = alpha[:, None, None]
    z = rng.standard_normal((x.shape[0], 2) + x.shape[1:] + (K,))
    state = flow_sample(rng, cfg, x, t, z[:, 0])
    y = sender_sample(rng, x, alpha, K, z[:, 1])
    probs = output_map(net_out(predictor, cfg, state, t), K)
    return n * log_ratio(y, x, probs, alpha, K)


def recon(rng, predictor, cfg, x):
    """Reconstruction loss estimates (B,), in nats, for a (B, D) batch of
    class indices: -log of the true classes' probabilities at a flow state
    drawn at t=1 for each row."""
    x = class_indices(x, cfg.K)
    state = flow_sample(rng, cfg, x, 1.0)
    return neg_log_true_class(output_map(net_out(predictor, cfg, state, 1.0), cfg.K), x)


def prior(cfg, B):
    """The beliefs of B streams before any update: zero summed logits
    (B, D, K), whose row softmax is the uniform prior."""
    return np.zeros((B, cfg.D, cfg.K))


def estimate(predictor, cfg, state, t, rng):
    """The sampler's estimate at summed logits state and time t: class
    indices (B, D) drawn from the output distribution with one (B, D, 1)
    block of categorical uniforms from rng."""
    u = rng.uniform((state.shape[0], cfg.D, 1))
    return sample_categorical_rows(output_map(net_out(predictor, cfg, state, t), cfg.K), u)


def update(cfg, state, estimate, i, n, rng):
    """The summed logits after step i of n: the estimate (B, D), class
    indices, is sent at the step's accuracy with one sender draw from rng,
    which adds to the logits."""
    return state + sender_sample(rng, estimate, cfg.schedule.step_alpha(i, n), cfg.K)


def generate(rng, predictor, sched, n, K, D):
    """The class indices (D,) of one stream, rng, by schedule.sample_chain
    over this module's ops.  The benchmark calls it with these positional
    arguments."""
    return sample_chain(sys.modules[__name__], [rng], predictor, FlowConfig(sched, D, K), n)[0]
