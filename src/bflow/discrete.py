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
"""

import numpy as np

from .kernels import logsumexp_rows
from .numerics import gaussian_sample, sample_categorical_rows, softmax_rows
from .predictor import forward_row

ROW_SUM_TOL = 1e-9


def uniform_prior(D, K):
    return np.full((D, K), 1.0 / K)


def validate_rows(probs, tol=ROW_SUM_TOL):
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ValueError("expected a (D, K) matrix")
    if np.any(probs < 0.0):
        raise ValueError("negative probability entry")
    if np.any(np.abs(probs.sum(axis=1) - 1.0) > tol):
        raise ValueError("row does not sum to 1")
    return probs


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


def sender_sample(rng, x, alpha, K):
    """Draw logit-space observations: N(alpha(K e_x - 1), alpha K I) per dim."""
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    return gaussian_sample(rng, sender_mean(x, alpha, K), alpha * K)


def bayes_update(theta, y):
    """Multiplicative update exp(y) * theta, renormalised per row.

    Computed in log space; exact additivity holds: updating with y_a then
    y_b equals one update with y_a + y_b.
    """
    theta = validate_rows(theta)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != theta.shape:
        raise ValueError("observation shape does not match state shape")
    with np.errstate(divide="ignore"):
        logits = y + np.log(theta)
    return softmax_rows(logits)


def flow_sample(rng, x, t, sched, K):
    """Belief states at times t: softmax of one Gaussian logit draw per row.

    x is a (B, D) batch with t (B,), one time per row, and gives (B, D, K);
    a (D,) x with a float t is one row and gives (D, K).  A row at t=0 has
    zero accuracy: it is exactly the uniform prior and draws nothing.
    """
    x = np.asarray(x, dtype=np.int64)
    if x.ndim == 1:
        return flow_sample(rng, x[None], t, sched, K)[0]
    beta = np.full(x.shape[0], sched.beta(t))[:, None, None]
    if beta.all():
        return softmax_rows(gaussian_sample(rng, beta * (K * one_hot(x, K) - 1.0), beta * K))
    theta = np.full(x.shape + (K,), 1.0 / K)
    live = beta[:, 0, 0] != 0.0
    if live.any():
        theta[live] = flow_sample(rng, x[live], np.asarray(t)[live], sched, K)
    return theta


def encode_theta(theta, K):
    """Network input encoding of (..., D, K) states: probabilities rescaled
    to [-1, 1], one row per state.

    K=2 feeds only the class-1 column; K>2 feeds the full flattened rows.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if K == 2:
        return 2.0 * theta[..., 0] - 1.0
    return (2.0 * theta - 1.0).reshape(theta.shape[:-2] + (-1,))


def output_map(net_out, K):
    """Class probabilities (B, D, K) from the network's logits (B, D*K),
    or from its class-1 logits (B, D) through a sigmoid when K=2."""
    if K == 2:
        p1 = 1.0 / (1.0 + np.exp(-net_out))
        return np.stack([p1, 1.0 - p1], axis=-1)
    return softmax_rows(net_out.reshape(net_out.shape[0], -1, K))


def loss_inf(sched, x, t, net_out, K, grad=False):
    """Continuous-time loss (K alpha(t) / 2) |e_x - e_hat|^2 per row of a
    (B, D) batch of class indices at times t, (B,) or one float for every row.

    With grad, also returns its gradient w.r.t. net_out.
    """
    B = x.shape[0]
    weight = 0.5 * K * np.full(B, sched.alpha(t))
    onehot = one_hot(x, K)
    probs = output_map(net_out, K)
    if K == 2:
        # |e - e_hat|^2 = 2 (e_1 - p_1)^2 per dimension
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


def _net_out(predictor, theta, t, K):
    """The predictor's (1, width) output row for one (D, K) state."""
    D = theta.shape[0]
    return forward_row(predictor, encode_theta(theta, K), t, D if K == 2 else D * K)


def output_distribution(predictor, theta, t, K):
    """Class probabilities (D, K) from the predictor at (state, time)."""
    if not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    return output_map(_net_out(predictor, np.asarray(theta, dtype=np.float64), t, K), K)[0]


def e_hat(probs):
    """Expected one-hot under the output distribution: the rows themselves."""
    return validate_rows(probs)


def receiver_log_likelihood(y, probs, alpha, K):
    """Log-density of (D, K) sender draws under the mixture receiver.

    Per dimension the receiver mixes N(alpha(K e_k - 1), alpha K I) over
    classes k weighted by the output row.  Writing u = y + alpha, the
    squared distance to component k is |u|^2 - 2 alpha K u_k + alpha^2 K^2,
    so the mixture collapses to a row log-sum-exp over log w_k + u_k.
    """
    y = np.asarray(y, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    D = y.shape[0]
    u = y + alpha
    with np.errstate(divide="ignore"):
        logw = np.log(probs)
    lse = logsumexp_rows(logw + u)
    common = (
        -0.5 * K * np.log(2.0 * np.pi * alpha * K)
        - np.sum(u * u, axis=1) / (2.0 * alpha * K)
        - 0.5 * alpha * K
    )
    return float(np.sum(common + lse))


def sender_log_likelihood(y, x, alpha, K):
    y = np.asarray(y, dtype=np.float64)
    u = y + alpha
    ux = u[np.arange(y.shape[0]), np.asarray(x, dtype=np.int64) - 1]
    common = (
        -0.5 * K * np.log(2.0 * np.pi * alpha * K)
        - np.sum(u * u, axis=1) / (2.0 * alpha * K)
        - 0.5 * alpha * K
    )
    return float(np.sum(common + ux))


def loss_n_step(rng, predictor, sched, x, n, K, i=None):
    """Single-sample estimate of the n-step loss for class-valued data."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if i is None:
        i = int(rng.integers(1, n + 1))
    elif not (1 <= i <= n):
        raise ValueError(f"need 1 <= i <= n, got i={i}")
    x = np.asarray(x, dtype=np.int64)
    t = (i - 1) / n
    theta = flow_sample(rng, x, t, sched, K)
    probs = output_distribution(predictor, theta, t, K)
    alpha = sched.step_alpha(i, n)
    y = sender_sample(rng, x, alpha, K)
    return n * (sender_log_likelihood(y, x, alpha, K) - receiver_log_likelihood(y, probs, alpha, K))


def loss_cts_time(rng, predictor, sched, x, K, t=None):
    """Single-sample estimate of the continuous-time loss for class data."""
    if t is None:
        t = float(rng.uniform())
    elif not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    x = np.asarray(x, dtype=np.int64)
    theta = flow_sample(rng, x, t, sched, K)
    return float(loss_inf(sched, x[None], t, _net_out(predictor, theta, t, K), K)[0])


def reconstruction_loss(rng, predictor, sched, x, K):
    """Negative log-probability of the true classes at t=1."""
    x = np.asarray(x, dtype=np.int64)
    theta = flow_sample(rng, x, 1.0, sched, K)
    probs = output_distribution(predictor, theta, 1.0, K)
    picked = probs[np.arange(x.size), x - 1]
    with np.errstate(divide="ignore"):
        logs = np.log(picked)
    return -float(np.sum(np.maximum(logs, -1e6)))


def generate(rng, predictor, sched, n, K, D, return_theta=False):
    """n-step ancestral sampling; returns 1-based class indices (D,)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    theta = uniform_prior(D, K)
    for i in range(1, n + 1):
        t = (i - 1) / n
        probs = output_distribution(predictor, theta, t, K)
        k = sample_categorical_rows(rng, probs)
        alpha = sched.step_alpha(i, n)
        y = sender_sample(rng, k, alpha, K)
        theta = bayes_update(theta, y)
    probs = output_distribution(predictor, theta, 1.0, K)
    k = sample_categorical_rows(rng, probs)
    if return_theta:
        return k, theta
    return k
