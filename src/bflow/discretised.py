"""Discretised data: K bins tiling [-1, 1], clipped-Gaussian bin masses,
the expected bin centre, mixture receiver, losses and sampling.

Belief state (the (B, D) Gaussian means, at precision 1 + beta(t)),
schedule, sender and flow, and so the sampler's ``prior`` and ``update``,
are shared with the continuous module; only the prediction side changes,
down to the sampler's ``estimate``, a drawn bin centre per dimension.
The predictor emits a (noise-mean, log-noise-std) pair per dimension,
which is mapped to a Gaussian over data space whose tails fold into the
end bins.  The continuous-time loss needs only the expected bin centre,
whose edge sums cost O(1) in K a row: Euler-Maclaurin for Gaussians wide
against the bins, a fixed window of edges for narrow ones.  The other
losses and sampling use the (rows, K) bin masses.  The ops take one
``schedule.FlowConfig`` holding a ``ContinuousSigma`` schedule and the bin
count K.
"""

import numpy as np

from . import continuous
from .kernels import erf_vec, mixture_logpdf
from .numerics import gaussian_sample, log_gaussian_pdf, neg_log_true_class, sample_categorical_rows
from .predictor import forward_rows
from .schedule import step_time

_SQRT2 = np.sqrt(2.0)


class BinGeometry:
    """Uniform bins over [-1, 1]; indices are 1-based."""

    def __init__(self, K):
        if K < 2:
            raise ValueError("need at least 2 bins")
        self.K = int(K)
        self.centers = (2.0 * np.arange(1, K + 1) - 1.0) / K - 1.0

    def center(self, k):
        self._check(k)
        return float(self.centers[k - 1])

    def _check(self, k):
        if not (1 <= k <= self.K):
            raise ValueError(f"bin index {k} outside 1..{self.K}")


def quantise(x_raw, K):
    """Assign values in [-1, 1] to the nearest bin centre.

    Boundary values go to the higher-index bin.  Returns the 1-based bin
    indices; bin k's centre is BinGeometry(K).centers[k - 1].
    """
    x_raw = np.asarray(x_raw, dtype=np.float64)
    if np.any(x_raw < -1.0) or np.any(x_raw > 1.0):
        raise ValueError("values outside [-1, 1]")
    idx = np.floor((x_raw + 1.0) * K / 2.0).astype(np.int64) + 1
    return np.clip(idx, 1, K)


# Edges of bin_probs_from_gaussian's (rows, K+1) edge grid per pass, as
# many rows as fit whole.  At K=256 a pass is 128 rows, whose 260 KB
# float64 temporaries stay in a core's L2 cache; on a 2-core x86_64 VM 2048
# rows at K=256 took 11.5 ms in 128-row passes, 11.8 ms in 256, 12.8 ms in
# 64, 17 ms in 1024 and 23 ms in one.  Its callers are eval's loss_n and
# recon (EVAL_CHUNK * D rows a call, 8192 for 8x8 images), sampling (one
# row per stream and dimension) and the harness.
EDGES_PER_PASS = 128 * 257


def bin_probs_from_gaussian(mu_x, sigma_x, K):
    """Per-bin masses of clipped N(mu_x, sigma_x^2) rows; shapes (D,)->(D, K)."""
    mu_x = np.atleast_1d(np.asarray(mu_x, dtype=np.float64))
    sigma_x = np.broadcast_to(np.asarray(sigma_x, dtype=np.float64), mu_x.shape)
    sigma_x = np.maximum(sigma_x, 1e-20)  # degenerate widths collapse to one-hot rows
    geom = BinGeometry(K)
    edges = np.concatenate([geom.centers - 1.0 / K, [1.0]])  # K+1 edges
    probs = np.empty(mu_x.shape + (K,))
    rows = max(1, EDGES_PER_PASS // (K + 1))
    for s in range(0, mu_x.shape[0], rows):
        r = slice(s, s + rows)
        z = edges[None, :] - mu_x[r, None]
        z /= sigma_x[r, None] * _SQRT2
        cdf = erf_vec(z)
        cdf += 1.0
        cdf *= 0.5
        cdf[:, 0] = 0.0   # left edge is exactly -1: clipped
        cdf[:, -1] = 1.0  # right edge is exactly +1: clipped
        np.subtract(cdf[:, 1:], cdf[:, :-1], out=probs[r])
    return np.maximum(probs, 0.0, out=probs)


check_data = continuous.check_data
net_input = continuous.net_input
prior = continuous.prior
update = continuous.update


def net_widths(cfg):
    """The network's (state, output) widths: D belief means in, a (noise
    mean, log noise std) pair per dimension out."""
    if cfg.K < 2:
        raise ValueError(f"discretised data needs K >= 2 bins, got K={cfg.K}")
    return cfg.D, 2 * cfg.D


def render(cfg, samples, alphabet):
    """PGM grey levels (B, D) of a (B, D) batch of bin centres.  At K=256
    bin k is byte k - 1, the inverse of ``data.ingest_bytes``, so 8-bit
    data round-trips; other bin counts scale as ``continuous.render`` does."""
    if alphabet is not None:
        raise ValueError("an alphabet decodes discrete samples, but the model is discretised")
    if cfg.K != 256:
        return continuous.render(cfg, samples, None)
    return (quantise(samples, 256) - 1).astype(np.uint8)


def flow_sample(rng, cfg, x, t, z=None):
    """Belief means at times t: the continuous flow (continuous.flow_sample)."""
    return continuous.flow_sample(rng, cfg, x, t, z)


def output_map(cfg, mu, t, net_out):
    """Data-space Gaussians (mu_x, sigma_x), each (B, D), from the network's
    (noise mean, log noise std) outputs (B, 2D) at belief means mu and
    times t; a unit Gaussian at zero on rows below t_min.  Also returns
    the live rows and the noise scale (continuous.noise_terms) for the
    gradient.
    """
    D = mu.shape[1]
    g, live, ratio = continuous.noise_terms(cfg, t, mu.shape[0])
    mu_eps, ln_sigma_eps = net_out[:, :D], net_out[:, D:]
    mu_x = np.where(live, mu / g - ratio * mu_eps, 0.0)
    sigma_x = np.where(live, ratio * np.exp(ln_sigma_eps), 1.0)
    return mu_x, sigma_x, live, ratio


# expected_centre sums f = erf, exp(-u^2) and u exp(-u^2) over edges spaced
# h in u.  Rows with h <= _H_WIDE take Euler-Maclaurin with one correction
# per _BERNOULLI term: against math.fsum on 500 rows with h in [0.15, 0.25]
# and mu_x near +-1, 6 terms missed by 4.6e-13 of the largest u exp(-u^2)
# sum (K=256), 8 by 1.2e-15, and 9 read rounding at K = 5, 16 and 256.
# Spans b - a < 1 take the integrals as _TAYLOR_TERMS of a series about the
# midpoint: 12 terms read rounding for spans up to 1, 11 missed by 1.8e-15.
# Other rows gather _WINDOW edges from the first with u > -_U_SAT; erf_vec
# is exactly -1 or +1 beyond them.
_H_WIDE = 0.25
_TAYLOR_TERMS = 13
_U_SAT = 6.0
_WINDOW = int(np.ceil(2 * _U_SAT / _H_WIDE)) + 1
_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000,
              1 / 74724249600, -3617 / 10670622842880000, 43867 / 5109094217170944000)  # B_2k/(2k)!
_SQRT_PI = np.sqrt(np.pi)
# f^(n) = (-1)^(n+1) _DERIV[i] H_(n-1+i)(u) exp(-u^2) for n >= 1 and the
# i-th f of erf, exp(-u^2) and u exp(-u^2)
_DERIV = np.array([[2.0 / _SQRT_PI], [-1.0], [-0.5]])


def _em_sums(m, c, edges, K):
    """The (3, rows) sums of f over the edges of wide rows, from the span
    [a, b] of u and the derivatives of f at a, b and the midpoint."""
    a, b = (edges[0] - m) / c, (edges[-1] - m) / c
    h, w = (2.0 / K) / c, (b - a) / 2
    ends = np.stack([a, b, (a + b) / 2])
    e = erf_vec(ends)
    # H_k(u) exp(-u^2) by H_k+1 = 2u H_k - 2k H_k-1; past |u| = 26.5 all are < 1e-260
    u = np.clip(ends, -26.5, 26.5)
    g = [np.exp(-u * u)]
    g.append(2.0 * u * g[0])
    for k in range(1, max(2 * len(_BERNOULLI), 2 * _TAYLOR_TERMS - 1)):
        g.append(2.0 * u * g[k] - 2.0 * k * g[k - 1])
    g = np.array(g)
    # half the end terms, then B_2k/(2k)! h^(2k-1) (f^(2k-1)(b) - f^(2k-1)(a))
    s = np.stack([e[0] + e[1], g[0, 0] + g[0, 1], (g[1, 0] + g[1, 1]) / 2]) / 2
    hk = h
    for k, coef in enumerate(_BERNOULLI, 1):
        s += coef * hk * _DERIV * (g[2 * k - 2 : 2 * k + 1, 1] - g[2 * k - 2 : 2 * k + 1, 0])
        hk = hk * h * h
    # the integrals over [a, b] divided by h: on narrow spans (K-2) times
    # sum_k f^(2k)(mid) w^2k/(2k+1)!, else the antiderivatives, taking
    # u erf(u) as |u| - |u| erfc(|u|) so that far rows do not cancel
    taylor = np.stack([e[2], g[0, 2], g[1, 2] / 2])
    wk = np.ones_like(w)
    for k in range(1, _TAYLOR_TERMS):
        wk = wk * (w * w) / (2 * k * (2 * k + 1))
        taylor -= _DERIV * g[2 * k - 1 : 2 * k + 2, 2] * wk
    tail = np.abs(ends[:2]) * (1.0 - np.abs(e[:2])) - g[0, :2] / _SQRT_PI
    full = np.stack([((edges[0] + edges[-1]) / 2 - np.clip(m, edges[0], edges[-1])) * K - (tail[1] - tail[0]) / h,
                     (_SQRT_PI / 2) * (e[1] - e[0]) / h, (g[0, 0] - g[0, 1]) / (2.0 * h)])
    return s + np.where(w < 0.5, (K - 2) * taylor, full)


def expected_centre(mu_x, sigma_x, K, grad=False):
    """Expected bin centre k_hat of clipped N(mu_x, sigma_x^2), elementwise
    over same-shape arrays, and with grad its derivatives by mu_x and by
    sigma_x (else None, None).  Summing by parts over the K-1 interior
    edges e_j of the uniform bins gives k_hat = -(1/K) sum_j erf(u_j),
    u_j = (e_j - mu_x) / (sigma_x sqrt 2), whose derivatives are sums of
    exp(-u_j^2) and u_j exp(-u_j^2).  Rows with edge spacing h <= 0.25 in u
    (sigma_x >= 0.022 at K=256) sum by Euler-Maclaurin in closed form; the
    others on a window of 49 edges, with -1 or +1 for each edge outside it.
    """
    shape = np.shape(mu_x)
    m = np.ravel(mu_x)
    sig = np.maximum(sigma_x, 1e-20).ravel()  # degenerate widths give a step at mu_x
    c = sig * _SQRT2
    edges = BinGeometry(K).centers[1:] - 1.0 / K
    wide = (2.0 / K) / c <= _H_WIDE
    sums = np.empty((3, m.size))
    sums[:, wide] = _em_sums(m[wide], c[wide], edges, K)
    W, m, c = min(_WINDOW, K - 1), m[~wide], c[~wide]
    j0 = np.minimum(np.searchsorted(edges, m - _U_SAT * c), K - 1 - W)
    u = (edges[j0[:, None] + np.arange(W)] - m[:, None]) / c[:, None]
    pdf = np.exp(-np.minimum(u * u, 700.0))  # subnormal exps are 15-150x slower
    sums[:, ~wide] = np.sum(erf_vec(u), axis=1) + (K - 1 - W - 2 * j0), np.sum(pdf, axis=1), np.sum(pdf * u, axis=1)
    centre = (sums[0] / -K).reshape(shape)
    if not grad:
        return centre, None, None
    scale = (2.0 / (K * np.sqrt(np.pi))) / sig
    return centre, (scale * sums[1] / _SQRT2).reshape(shape), (scale * sums[2]).reshape(shape)


def loss_inf(cfg, x, state, t, net_out, grad=False):
    """Continuous-time loss (alpha(t) / 2) |x - k_hat|^2 per row of a (B, D)
    batch at belief means state, k_hat being the expected bin centre under
    the output bin masses; with grad, also its gradient w.r.t. net_out."""
    B, D = x.shape
    mu_x, sigma_x, live, ratio = output_map(cfg, state, t, net_out)
    w = 0.5 * np.full(B, cfg.schedule.alpha(t))
    centre, dkhat_dmu, dkhat_dsig = expected_centre(mu_x, sigma_x, cfg.K, grad)
    resid = x - centre
    loss = w * np.sum(resid * resid, axis=1)
    if not grad:
        return loss
    dL_dkhat = w[:, None] * 2.0 * (centre - x)
    d_mu_eps = np.where(live, dL_dkhat * dkhat_dmu * (-ratio), 0.0)
    d_ln_sigma = np.where(live, dL_dkhat * dkhat_dsig * sigma_x, 0.0)
    return loss, np.concatenate([d_mu_eps, d_ln_sigma], axis=1)


def net_out(predictor, cfg, state, t):
    """(noise mean, log noise std) pairs (B, 2D) on every row, as continuous.net_out."""
    return forward_rows(predictor, state, t, 2 * cfg.D)


def probs(predictor, cfg, state, t):
    """Bin masses (B, D, K) at belief means state and times t; a unit Gaussian
    at zero below t_min."""
    mu_x, sigma_x = output_map(cfg, state, t, net_out(predictor, cfg, state, t))[:2]
    return bin_probs_from_gaussian(mu_x.ravel(), sigma_x.ravel(), cfg.K).reshape(*mu_x.shape, cfg.K)


def receiver_log_likelihood(y, probs, K, alpha):
    """Log-density of observations under the per-dimension mixture receiver.

    y: (..., D) sender draws; probs: (..., D, K) bin masses; alpha: one
    accuracy, or one per row of a (B, D) y.  Each dimension mixes
    Gaussians at the bin centres with variance 1/alpha; summed over D.
    """
    geom = BinGeometry(K)
    y = np.asarray(y, dtype=np.float64)
    var = 1.0 / alpha if np.isscalar(alpha) else np.repeat(1.0 / np.asarray(alpha), y.shape[-1])
    with np.errstate(divide="ignore"):
        logw = np.log(probs).reshape(-1, K)
    return np.sum(mixture_logpdf(y.ravel(), logw, geom.centers, var).reshape(y.shape), axis=-1)


def loss_n(rng, predictor, cfg, x, n, i):
    """n-step loss estimates (B,), in nats, for a (B, D) batch of bin
    centres at step i of n: one int for every row, or (B,) ints.

    Each row draws one (2, D) block of noise, the flow state's and then
    the sender sample's, whatever its step, so a row's loss depends only on
    its own stream position; all rows are drawn in one call.  The
    predictor runs once on the batch.  Row b equals the b-th of B one-row
    calls as in continuous.loss_n.
    """
    x = np.asarray(x, dtype=np.float64)
    t = step_time(i, n)
    alpha = cfg.schedule.step_alpha(i, n)
    var = 1.0 / alpha
    z = rng.standard_normal((x.shape[0], 2) + x.shape[1:])
    p = continuous.flow_sample(rng, cfg, x, t, z[:, 0])
    y = gaussian_sample(rng, x, var if np.isscalar(var) else var[:, None], z[:, 1])
    recv = receiver_log_likelihood(y, probs(predictor, cfg, p, t), cfg.K, alpha)
    return n * (log_gaussian_pdf(y, x, var) - recv)


def recon(rng, predictor, cfg, x):
    """Reconstruction loss estimates (B,), in nats, for a (B, D) batch of
    bin centres: -log of the true bins' masses at a flow state drawn at t=1
    for each row."""
    x = np.asarray(x, dtype=np.float64)
    idx = quantise(x, cfg.K)
    p = continuous.flow_sample(rng, cfg, x, 1.0)
    return neg_log_true_class(probs(predictor, cfg, p, 1.0), idx)


def estimate(predictor, cfg, state, t, rng):
    """The sampler's estimate at belief means state and time t: bin centres
    (B, D) drawn from the output bin masses with one (B, D, 1) block of
    categorical uniforms from rng."""
    u = rng.uniform((state.shape[0], cfg.D, 1))
    return BinGeometry(cfg.K).centers[sample_categorical_rows(probs(predictor, cfg, state, t), u) - 1]
