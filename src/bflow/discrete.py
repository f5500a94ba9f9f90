"""Discrete (categorical) data: simplex belief states, Gaussian-logit
sender, multiplicative Bayesian updates, losses and sampling.

Data is a vector of D class indices in 1..K.  The belief state is one
probability row per dimension.  Updates multiply each row by exp(y) and
renormalise; all update arithmetic happens in log space, because repeated
multiplicative updates underflow long before they converge.  Sender draws
are stored as (D, K) blocks; the flattened K*D layout is an encoding
detail.

For binary data (K=2) only the class-1 probability is fed to the network
and a logistic sigmoid produces the class-1 output probability; the K>2
path keeps the redundant class and uses a row softmax.

The ops take one ``schedule.FlowConfig`` holding a ``DiscreteQuadratic``
schedule and the class count K.
"""

import numpy as np

from .kernels import logsumexp_rows
from .numerics import Rng, gaussian_sample, neg_log_true_class, row_sum, sample_categorical_rows, softmax_rows
from .predictor import forward_rows
from .schedule import FlowConfig, step_time


# the default alphabet of K=27 data: a to z, then space
ALPHABET_27 = [chr(c) for c in range(ord("a"), ord("z") + 1)] + [" "]


def uniform_prior(D, K):
    return np.full((D, K), 1.0 / K)


def check_data(cfg, x):
    """Raise unless every entry of the dataset x is a class index in 1..K."""
    if np.any(x < 1) or np.any(x > cfg.K):
        raise ValueError(f"class indices outside 1..{cfg.K}")


def one_hot(x, K):
    """(..., K) projection of 1-based class indices."""
    x = np.asarray(x, dtype=np.int64)
    if x.min() < 1 or x.max() > K:
        raise ValueError(f"class index outside 1..{K}")
    out = np.zeros(x.shape + (K,))
    out.reshape(-1, K)[np.arange(x.size), x.ravel() - 1] = 1.0
    return out


def sender_mean(x, alpha, K):
    return alpha * (K * one_hot(x, K) - 1.0)


def sender_sample(rng, x, alpha, K, z=None):
    """Draw logit-space observations: N(alpha(K e_x - 1), alpha K I) per dim.

    alpha is one accuracy or broadcasts against the (..., D, K) draw; z,
    when given, is the draw's standard-normal noise and rng is not used.
    """
    ok = alpha > 0.0  # NaN fails
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        raise ValueError("alpha must be positive")
    return gaussian_sample(rng, sender_mean(x, alpha, K), alpha * K, z)


def bayes_update(theta, y):
    """Multiplicative update exp(y) * theta, renormalised per row.

    Computed in log space; exact additivity holds: updating with y_a then
    y_b equals one update with y_a + y_b.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim < 2:
        raise ValueError("expected (..., D, K) probability rows")
    if np.any(theta < 0.0):
        raise ValueError("negative probability entry")
    if np.any(np.abs(row_sum(theta) - 1.0) > 1e-9):
        raise ValueError("row does not sum to 1")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != theta.shape:
        raise ValueError("observation shape does not match state shape")
    with np.errstate(divide="ignore"):
        logits = y + np.log(theta)
    return softmax_rows(logits)


def flow_sample(rng, cfg, x, t, z=None):
    """Belief states at times t: softmax of one Gaussian logit draw per row,
    N(beta(t)(K e_x - 1), beta(t) K I).

    x is a (B, D) batch with t (B,), one time per row, or one float for
    every row, and gives (B, D, K).  Every row draws its block of noise; at
    t=0 beta is 0, so the logits are all zero and the row is exactly the
    uniform prior.  z, when given, is the draw's standard-normal noise,
    (B, D, K), and rng is not used.
    """
    x = np.asarray(x, dtype=np.int64)
    K = cfg.K
    beta = np.full(x.shape[0], cfg.schedule.beta(t))[:, None, None]
    if z is None:
        z = rng.standard_normal(x.shape + (K,))
    return softmax_rows(beta * (K * one_hot(x, K) - 1.0) + np.sqrt(beta * K) * z)


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
    """Network input encoding of (..., D, K) states: probabilities rescaled
    to [-1, 1], one row per state.

    K=2 feeds only the class-1 column; K>2 feeds the full flattened rows.
    """
    theta = np.asarray(state, dtype=np.float64)
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


def _net_out(predictor, cfg, theta, t):
    """The predictor's (B, width) outputs at states theta (B, D, K) and
    times t."""
    X = net_input(cfg, theta)
    return forward_rows(predictor, X, t, X.shape[1])


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
    ux = np.take_along_axis(u, np.asarray(x, dtype=np.int64)[..., None] - 1, axis=-1)[..., 0]
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
    x = np.asarray(x, dtype=np.int64)
    t = step_time(i, n)
    K = cfg.K
    alpha = cfg.schedule.step_alpha(i, n)
    if not np.isscalar(alpha):
        alpha = alpha[:, None, None]
    z = rng.standard_normal((x.shape[0], 2) + x.shape[1:] + (K,))
    theta = flow_sample(rng, cfg, x, t, z[:, 0])
    y = sender_sample(rng, x, alpha, K, z[:, 1])
    probs = output_map(_net_out(predictor, cfg, theta, t), K)
    return n * log_ratio(y, x, probs, alpha, K)


def loss_cts(rng, predictor, cfg, x, t):
    """Continuous-time loss estimates (B,) for a (B, D) batch of class
    indices at times t, one float for every row or (B,): each row draws
    its flow state, and the predictor runs once."""
    x = np.asarray(x, dtype=np.int64)
    theta = flow_sample(rng, cfg, x, t)
    return loss_inf(cfg, x, theta, t, _net_out(predictor, cfg, theta, t))


def recon(rng, predictor, cfg, x):
    """Reconstruction loss estimates (B,), in nats, for a (B, D) batch of
    class indices: -log of the true classes' probabilities at a flow state
    drawn at t=1 for each row."""
    x = np.asarray(x, dtype=np.int64)
    theta = flow_sample(rng, cfg, x, 1.0)
    return neg_log_true_class(output_map(_net_out(predictor, cfg, theta, 1.0), cfg.K), x)


def generate(rng, predictor, sched, n, K, D, return_theta=False):
    """n-step ancestral sampling; returns 1-based class indices.

    rng is one Rng, which gives one (D,) sample, or a sequence of B Rngs,
    which gives (B, D) samples and a (B, D, K) state.  Row b draws
    from stream b as a one-stream call does: per step a categorical
    uniform per dimension, then the sender normals.  The predictor runs
    once per step on the batch; every other op is row-local.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cfg = FlowConfig(sched, D, K)
    rngs = [rng] if isinstance(rng, Rng) else list(rng)
    B = len(rngs)
    # the state is the softmax of the summed sender draws: the uniform prior
    # adds the same constant to every logit, so it drops out
    logits = np.zeros((B, D, K))
    theta = np.full((B, D, K), 1.0 / K)
    u, z, mean = np.empty((B, D, 1)), np.empty((B, D, K)), np.empty((B, D, K))
    # step n + 1 is the final draw, from the output distribution at t = 1
    for i in range(1, n + 2):
        for b, r in enumerate(rngs):
            u[b] = r.uniform(size=(D, 1))
        k = sample_categorical_rows(output_map(_net_out(predictor, cfg, theta, (i - 1) / n), K), u)
        if i > n:
            break
        for b, r in enumerate(rngs):
            z[b] = r.standard_normal((D, K))
        # sender_sample's draw, same bits; k from sample_categorical_rows is in 1..K
        alpha = sched.step_alpha(i, n)
        mean.fill(-alpha)
        mean.reshape(-1, K)[np.arange(B * D), k.ravel() - 1] = alpha * (K - 1.0)
        z *= np.sqrt(alpha * K)
        z += mean
        logits += z
        theta = softmax_rows(logits)
    if isinstance(rng, Rng):
        k, theta = k[0], theta[0]
    return (k, theta) if return_theta else k
