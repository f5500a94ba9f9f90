"""Optimizer, EMA, head gradients, the loop and checkpoint round-trips."""

import ast
import bisect
import contextvars
import dataclasses
import hashlib
import inspect
import itertools
import math
import operator
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bflow import cli, harness, numerics, schedule, training
from bflow import continuous as cts
from bflow import discrete as dd
from bflow import discretised as dsc
from bflow.data import toy_glyphs, toy_strings
from bflow.kernels import erf_vec
from bflow.numerics import Rng, softmax_rows
from bflow.predictor import (MLP, ConstantPredictor, CtsDatumPredictor, DiscretisedDatumPredictor, PredictorSpec,
                             inversion_bound)
from bflow.schedule import ContinuousSigma, DiscreteQuadratic, FlowConfig, loss_cts, sample_chain, step_time
from bflow.training import TrainConfig, Worker, adamw_step

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestAdamW:
    def test_zero_grad_no_decay_is_identity(self):
        p = np.array([1.0, -2.0])
        p2, m, v, _ = adamw_step(p.copy(), np.zeros(2), np.zeros(2), np.zeros(2), p.copy(),
                                 1, 1e-3, 0.0, 0.9, 0.98, 0.99)
        np.testing.assert_array_equal(p2, p)

    def test_zero_grad_decay_scales(self):
        p = np.array([1.0, -2.0])
        lr, wd = 1e-2, 0.1
        p2, _, _, _ = adamw_step(p.copy(), np.zeros(2), np.zeros(2), np.zeros(2), p.copy(),
                                 1, lr, wd, 0.9, 0.98, 0.99)
        # m and v stay 0, so the update term is exactly 0 and only the
        # decay factor 1 - lr*wd touches the parameters
        np.testing.assert_array_equal(p2, p * (1 - lr * wd))

    def test_zero_ema_decay_copies_params(self):
        state = {name: np.full(5, i + 1.0) for i, name in enumerate(("params", "grads", "m", "v", "ema"))}
        p, _, _, ema = adamw_step(*state.values(), 3, 1e-2, 0.1, 0.9, 0.98, 0.0)
        np.testing.assert_array_equal(ema, p)

    def test_three_step_hand_trace(self):
        # single scalar parameter, constant gradient, no decay; the oracle
        # below replays the update rule and the EMA by hand
        lr, b1, b2, eps, d = 0.1, 0.9, 0.98, 1e-8, 0.5
        g = 0.5
        p = np.array([1.0])
        m = np.zeros(1)
        v = np.zeros(1)
        ema = np.array([1.0])
        p_ref, m_ref, v_ref, ema_ref = 1.0, 0.0, 0.0, 1.0
        for step in (1, 2, 3):
            p, m, v, ema = adamw_step(p, np.array([g]), m, v, ema, step, lr, 0.0, b1, b2, d, eps)
            m_ref = b1 * m_ref + (1 - b1) * g
            v_ref = b2 * v_ref + (1 - b2) * g * g
            mh = m_ref / (1 - b1**step)
            vh = v_ref / (1 - b2**step)
            p_ref = p_ref - lr * mh / (np.sqrt(vh) + eps)
            ema_ref = d * ema_ref + (1 - d) * p_ref
            assert p[0] == pytest.approx(p_ref, rel=1e-14)
            assert ema[0] == pytest.approx(ema_ref, rel=1e-14)
        # first step moves by about -lr regardless of gradient scale
        first = adamw_step(np.array([0.0]), np.array([g]), np.zeros(1), np.zeros(1), np.zeros(1),
                           1, lr, 0.0, b1, b2, 0.0, eps)[0]
        assert first[0] == pytest.approx(-lr, rel=1e-6)

    def test_peak_allocation_is_the_two_scratch_chunks(self):
        # the strings model's 291,760 parameters, with the decay pass on: one
        # parameter-sized temporary would add 2.3 MB.  The slack covers the
        # chunk views and loop objects, a few KiB.
        state = [np.full(291_760, 0.5) for _ in range(5)]
        tracemalloc.start()
        try:
            adamw_step(*state, 1, 1e-3, 0.01, 0.9, 0.98, 0.99)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * training.ADAMW_CHUNK * 8 + 16_384

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adamw_step(np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(2), np.zeros(2),
                       1, 1e-3, 0.0, 0.9, 0.98, 0.99)

    def test_returns_the_arrays_passed_in(self):
        arrays = [np.full(5, 0.5) for _ in range(5)]
        out = adamw_step(*arrays, 1, 1e-3, 0.01, 0.9, 0.98, 0.99)
        assert len(out) == 4
        for got, passed in zip(out, [arrays[0], *arrays[2:]]):
            assert got is passed

    @staticmethod
    def _state(n=6):
        return {name: np.full(n, i + 1.0) for i, name in enumerate(("params", "grads", "m", "v", "ema"))}

    @pytest.mark.parametrize("a,b", [("params", "ema"), ("m", "v"), ("grads", "m"), ("params", "grads")])
    def test_shared_memory_rejected(self, a, b):
        # b overlaps a by all but one element: an in-place pass would read
        # values it has already overwritten
        state = self._state()
        buf = np.arange(7.0)
        state[a], state[b] = buf[:6], buf[1:]
        before = {k: x.copy() for k, x in state.items()}
        with pytest.raises(ValueError, match=f"{a} and {b} share memory"):
            adamw_step(*state.values(), 1, 1e-3, 0.01, 0.9, 0.98, 0.99)
        for k, x in state.items():
            assert _same_bits(x, before[k]), k

    def test_same_array_twice_rejected(self):
        state = self._state()
        state["v"] = state["m"]
        with pytest.raises(ValueError, match="m and v share memory"):
            adamw_step(*state.values(), 1, 1e-3, 0.01, 0.9, 0.98, 0.99)

    def test_non_contiguous_rejected(self):
        state = self._state()
        state["grads"] = np.ones(12)[::2]
        with pytest.raises(ValueError, match="grads must be a C-contiguous float64 array"):
            adamw_step(*state.values(), 1, 1e-3, 0.01, 0.9, 0.98, 0.99)

    def test_non_float64_rejected(self):
        state = self._state()
        state["ema"] = state["ema"].astype(np.float32)
        with pytest.raises(ValueError, match="ema must be a C-contiguous float64 array"):
            adamw_step(*state.values(), 1, 1e-3, 0.01, 0.9, 0.98, 0.99)

    def test_shape_mismatch_names_the_array(self):
        state = self._state()
        state["v"] = np.zeros((2, 3))
        with pytest.raises(ValueError, match=r"v has shape \(2, 3\), params \(6,\)"):
            adamw_step(*state.values(), 1, 1e-3, 0.01, 0.9, 0.98, 0.99)


def _adamw_ema_reference(params, grads, m, v, ema, step, lr, weight_decay, beta1, beta2, ema_decay, eps=1e-8,
                         worker=None):
    """adamw_step out of place on the calling thread: the same operation
    order, so the same bits, with parameter-sized temporaries in place of
    the chunked passes."""
    m = beta1 * m + (1.0 - beta1) * grads
    v = beta2 * v + (1.0 - beta2) * grads * grads
    root_c2 = math.sqrt(1.0 - beta2**step)
    scale = lr * root_c2 / (1.0 - beta1**step)
    params = params * (1.0 - lr * weight_decay) - m * scale / (np.sqrt(v) + eps * root_c2)
    ema = ema_decay * ema + (1.0 - ema_decay) * params
    return params, m, v, ema


def _adamw_ema_old_order(params, grads, m, v, ema, step, lr, weight_decay, beta1, beta2, ema_decay, eps=1e-8):
    """The textbook order that adamw_step used before folding the bias
    corrections into one step scale; also returns the update term u."""
    m = beta1 * m + (1.0 - beta1) * grads
    v = beta2 * v + (1.0 - beta2) * grads * grads
    m_hat = m / (1.0 - beta1**step)
    v_hat = v / (1.0 - beta2**step)
    u = lr * m_hat / (np.sqrt(v_hat) + eps)
    params = params - u - lr * weight_decay * params
    ema = ema_decay * ema + (1.0 - ema_decay) * params
    return params, m, v, ema, u


def _make_config(modality, **kw):
    base = dict(
        modality=modality,
        D=3,
        batch_size=4,
        steps=5,
        learning_rate=1e-3,
        seed=11,
        hidden=(8, 8),
    )
    if modality == "continuous":
        base["sigma1"] = 0.02
    elif modality == "discretised":
        base["sigma1"] = 0.2
        base["K"] = 8
    else:
        base["beta1"] = 2.0
        base["K"] = 4
    base.update(kw)
    return TrainConfig(**base)


def _random_batch(rng, config):
    if config.modality == "discrete":
        return rng.integers(1, config.K + 1, size=(config.batch_size, config.D))
    return rng.uniform(size=(config.batch_size, config.D)) * 1.6 - 0.8


def _mean_head_loss(mlp, config, state):
    """Mean continuous-time loss of the batch, for finite differences."""
    out = mlp.forward_batch(state["state_in"], state["t"])
    return float(training.head_loss_and_grad(config, state, out)[0].mean())


class TestHeadGradients:
    def test_binary_discrete_head(self):
        config = _make_config("discrete", K=2)
        mlp = MLP(config.predictor_spec(), seed=4)
        r = Rng(200)
        x = _random_batch(r, config)
        state = training.sample_head_state(r, config, x)
        _, grad = training.batch_loss_and_grad(mlp, config, state)
        h = 1e-5
        rng = np.random.default_rng(1)
        for j in rng.choice(mlp.spec.n_params, size=25, replace=False):
            saved = mlp.params[j]
            mlp.params[j] = saved + h
            lp = _mean_head_loss(mlp, config, state)
            mlp.params[j] = saved - h
            lm = _mean_head_loss(mlp, config, state)
            mlp.params[j] = saved
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(grad[j]), 1e-6)
            assert abs(grad[j] - fd) / denom < 1e-5

    def test_discretised_head_at_k256_matches_central_differences(self):
        # targets (mu_x, sigma_x) per dimension: widths below one bin
        # (2/K ~ 0.0078) and means outside [-1, 1]
        K = 256
        mu_x = np.array([0.3, -1.003, 1.01, -1.5, 0.52, 0.999, -0.2, 1.2])
        sigma_x = np.array([0.002, 0.005, 0.02, 0.3, 0.004, 0.0015, 1.5, 0.05])
        D = mu_x.size
        t = np.array([0.1, 0.5, 0.9])
        config = _make_config("discretised", D=D, K=K, batch_size=t.size,
                              schedule_preset="cts-256bin")
        rng = np.random.default_rng(9)
        mu = rng.normal(size=(t.size, D)) * 0.5
        x = dsc.BinGeometry(K).centers[rng.integers(0, K, size=(t.size, D))]
        g = 1.0 - config.sigma1 ** (2.0 * t[:, None])
        ratio = np.sqrt((1.0 - g) / g)
        net_out = np.concatenate([(mu / g - mu_x) / ratio, np.log(sigma_x / ratio)], axis=1)
        state = {"t": t, "theta": mu, "state_in": mu, "x": x}
        _, d_out = training.head_loss_and_grad(config, state, net_out)
        for b in range(t.size):
            for j in range(2 * D):
                # a step of 1e-4 sigma_x in mu_x, or of 1e-4 in ln sigma_x
                h = 1e-4 * (sigma_x[j] / ratio[b, 0] if j < D else 1.0)
                step = np.zeros_like(net_out)
                step[b, j] = h
                lp = training.head_loss_and_grad(config, state, net_out + step)[0][b]
                lm = training.head_loss_and_grad(config, state, net_out - step)[0][b]
                fd = (lp - lm) / (2 * h)
                tol = 1e-6 * max(abs(fd), abs(d_out[b, j])) + 1e-7 * np.max(np.abs(d_out[b]))
                assert abs(d_out[b, j] - fd) <= tol


def _dsc_output_map_reference(config, state, net_out):
    """Time weight, live rows, noise ratio and data-space Gaussians of the
    discretised head, restated."""
    t, mu = state["t"], state["theta"]
    B, D = mu.shape
    w = -np.log(config.sigma1) * config.sigma1 ** (-2.0 * t)
    g = 1.0 - config.sigma1 ** (2.0 * t)
    live = t >= config.t_min
    mu_eps, ln_sigma_eps = net_out[:, :D], net_out[:, D:]
    ratio = np.zeros(B)
    ratio[live] = np.sqrt((1.0 - g[live]) / g[live])
    mu_x = np.where(live[:, None], mu / np.maximum(g, 1e-300)[:, None] - ratio[:, None] * mu_eps, 0.0)
    sigma_x = np.where(live[:, None], ratio[:, None] * np.exp(ln_sigma_eps), 1.0)
    return w, live, ratio, mu_x, sigma_x


def _dsc_head_from_centre(state, w, live, ratio, sigma_x, k_hat, dkhat_dmu, dkhat_dsig):
    x = state["x"]
    resid = x - k_hat
    loss = w * np.sum(resid * resid, axis=1)
    dL_dkhat = w[:, None] * 2.0 * (k_hat - x)
    d_mu_eps = np.where(live[:, None], dL_dkhat * dkhat_dmu * (-ratio[:, None]), 0.0)
    d_ln_sigma = np.where(live[:, None], dL_dkhat * dkhat_dsig * sigma_x, 0.0)
    return loss, np.concatenate([d_mu_eps, d_ln_sigma], axis=1)


# B_2k for k = 1..9: the Euler-Maclaurin coefficients are B_2k / (2k)!
_BERNOULLI_2K = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66),
                 Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510), Fraction(43867, 798))


def _row_exp(v):
    return float(np.exp(np.array([v]))[0])


def _row_erf(v):
    return float(erf_vec(np.array([v]))[0])


def _row_hermite_gauss(u, n):
    u = min(max(u, -26.5), 26.5)
    g = [_row_exp(-u * u)]
    g.append(2.0 * u * g[0])
    for k in range(1, n):
        g.append(2.0 * u * g[k] - 2.0 * k * g[k - 1])
    return g


def _row_window_sum(x):
    """A window's sum as the batched head takes it, np.add.reduceat over the
    row's own segment; 0.0 for an empty window."""
    return float(np.add.reduceat(x, [0])[0]) if x.size else 0.0


def _row_sums(m, sig, K):
    """erf(u_j), exp(-u_j^2) and u_j exp(-u_j^2) summed over one row's
    interior edges in the form of dsc.expected_centre, one row at a time:
    Euler-Maclaurin in closed form for edge spacings h <= h*, and up to
    h_far when both ends lie at |u| >= u_far, with the terms the row needs;
    otherwise the edges from m - U c to m + U c, each edge beyond them
    counted as -1 or +1, and erf split into its nearest integer and the
    remainder."""
    edges = [float(e) for e in dsc.BinGeometry(K).centers[1:] - 1.0 / K]
    c = sig * math.sqrt(2.0)
    h = (2.0 / K) / c
    a, b = (edges[0] - m) / c, (edges[-1] - m) / c
    far = min(abs(a), abs(b)) >= dsc._U_FAR
    if h > dsc._H_WIDE and not (far and h <= dsc._H_FAR):
        lo = bisect.bisect_left(edges, m - dsc._U_SAT * c)
        hi = bisect.bisect_right(edges, m + dsc._U_SAT * c)
        u = (np.array(edges[lo:hi]) - m) / c
        pdf = np.exp(-(u * u))
        e = erf_vec(u)
        whole = np.rint(e)
        sums = [_row_window_sum(v) for v in (e - whole, pdf, pdf * u, whole)]
        return sums[0] + (sums[3] + ((K - 1 - hi) - lo)), sums[1], sums[2]
    mid, w = (a + b) / 2, (b - a) / 2
    n = max(2 * len(_BERNOULLI_2K), 2 * dsc._TAYLOR_TERMS - 1)
    ga, gb, gm = (_row_hermite_gauss(v, n) for v in (a, b, mid))
    ea, eb = _row_erf(a), _row_erf(b)
    s = [(ea + eb) / 2, (ga[0] + gb[0]) / 2, (ga[1] + gb[1]) / 4]
    deriv = (2.0 / math.sqrt(math.pi), -1.0, -0.5)
    hk = h
    for k in range(1, 1 + (0 if far else sum(h >= t for t in dsc._H_TERM))):
        coef = float(_BERNOULLI_2K[k - 1] / math.factorial(2 * k))
        for i in range(3):
            s[i] += coef * deriv[i] * hk * (gb[2 * k - 2 + i] - ga[2 * k - 2 + i])
        hk = hk * (h * h)
    if w < 0.5:  # Taylor series of the integrals about the midpoint
        wk, acc = 1.0, None
        for k in range(1, dsc._TAYLOR_TERMS):
            wk = wk * ((w * w) / (2.0 * k * (2 * k + 1)))
            terms = [deriv[i] * gm[2 * k - 1 + i] * wk for i in range(3)]
            acc = terms if acc is None else [x + y for x, y in zip(acc, terms)]
        t = [_row_erf(mid) - acc[0], gm[0] - acc[1], gm[1] / 2 - acc[2]]
        return tuple(sk + (K - 2) * tk for sk, tk in zip(s, t))
    tail_a = abs(a) * (1.0 - abs(ea)) - ga[0] / math.sqrt(math.pi)
    tail_b = abs(b) * (1.0 - abs(eb)) - gb[0] / math.sqrt(math.pi)
    full = (((edges[0] + edges[-1]) / 2 - min(max(m, edges[0]), edges[-1])) * K - (tail_b - tail_a) / h,
            (math.sqrt(math.pi) / 2) * (eb - ea) / h, (ga[0] - gb[0]) / (2.0 * h))
    return tuple(sk + fk for sk, fk in zip(s, full))


def _dsc_head_reference(config, state, net_out):
    """The discretised head with each of the B*D rows' edge sums taken by
    _row_sums: the reference for bitwise equality."""
    K = config.K
    w, live, ratio, mu_x, sigma_x = _dsc_output_map_reference(config, state, net_out)
    sig = np.maximum(sigma_x, 1e-20)
    sums = np.array([_row_sums(float(m), float(s), K) for m, s in zip(mu_x.ravel(), sig.ravel())])
    sums = sums.T.reshape((3,) + mu_x.shape)
    scale = (2.0 / (K * np.sqrt(np.pi))) / sig
    return _dsc_head_from_centre(state, w, live, ratio, sigma_x, sums[0] / -K,
                                 scale * sums[1] / np.sqrt(2.0), scale * sums[2])


def _dsc_head_dense_reference(config, state, net_out):
    """The discretised head in closed form, k_hat = -(1/K) sum_j erf(u_j)
    over the interior edges, each batch row on its whole (D, K-1) edge
    grid: a second oracle."""
    K = config.K
    w, live, ratio, mu_x, sigma_x = _dsc_output_map_reference(config, state, net_out)
    edges = dsc.BinGeometry(K).centers[1:] - 1.0 / K
    k_hat, dkhat_dmu, dkhat_dsig = (np.empty_like(mu_x) for _ in range(3))
    for b in range(mu_x.shape[0]):
        sig = np.maximum(sigma_x[b], 1e-20)
        u = (edges[None, :] - mu_x[b][:, None]) / (sig[:, None] * np.sqrt(2.0))
        k_hat[b] = np.sum(erf_vec(u), axis=1) / -K
        e = np.exp(-np.minimum(u * u, 700.0))
        scale = (2.0 / (K * np.sqrt(np.pi))) / sig
        dkhat_dmu[b] = scale * np.sum(e, axis=1) / np.sqrt(2.0)
        dkhat_dsig[b] = scale * np.sum(e * u, axis=1)
    return _dsc_head_from_centre(state, w, live, ratio, sigma_x, k_hat, dkhat_dmu, dkhat_dsig)


def _dsc_head_bin_mass_reference(config, state, net_out):
    """The discretised head from the bin masses, k_hat = sum_k p_k c_k, and
    their derivatives from the pdf at every edge: a second oracle, which
    differs from the closed form in summation order and the exp floor."""
    K = config.K
    w, live, ratio, mu_x, sigma_x = _dsc_output_map_reference(config, state, net_out)
    geom = dsc.BinGeometry(K)
    probs = np.stack([dsc.bin_probs_from_gaussian(mu_x[b], sigma_x[b], K) for b in range(mu_x.shape[0])])
    edges = np.concatenate([geom.centers - 1.0 / K, [1.0]])
    sig = np.maximum(sigma_x, 1e-20)
    zed = (edges[None, None, :] - mu_x[..., None]) / sig[..., None]
    with np.errstate(under="ignore"):
        phi = np.exp(-0.5 * zed * zed) / (sig[..., None] * np.sqrt(2 * np.pi))
    phi[..., 0] = 0.0
    phi[..., -1] = 0.0
    dP_dmu = -(phi[..., 1:] - phi[..., :-1])
    dP_dsig = -(phi[..., 1:] * zed[..., 1:] - phi[..., :-1] * zed[..., :-1])
    return _dsc_head_from_centre(state, w, live, ratio, sigma_x, probs @ geom.centers,
                                 dP_dmu @ geom.centers, dP_dsig @ geom.centers)


# The head against the dense closed form: on the two cases below the loss
# read within 3.6e-16 relative and the gradient within 8.2e-15 of its
# largest entry (K=256), where the dense form itself misses the bin-mass
# form by 9.0e-15; the bounds keep a factor of 2-3 over those readings.
DENSE_LOSS_RTOL = 1e-15
DENSE_GRAD_TOL = 2e-14


class TestDiscretisedHeadReference:
    """The batched head gives the same bits as the per-row reference of its
    Euler-Maclaurin and edge-window sums, agrees with the dense closed form
    over every edge, and with the bin-mass form, to rounding."""

    def _assert_same_bits(self, config, state, net_out):
        loss, d_out = training.head_loss_and_grad(config, state, net_out)
        assert np.isfinite(loss).all() and np.isfinite(d_out).all()
        ref_loss, ref_d_out = _dsc_head_reference(config, state, net_out)
        np.testing.assert_array_equal(loss.view(np.uint64), ref_loss.view(np.uint64))
        np.testing.assert_array_equal(d_out.view(np.uint64), ref_d_out.view(np.uint64))
        dense_loss, dense_d_out = _dsc_head_dense_reference(config, state, net_out)
        np.testing.assert_allclose(loss, dense_loss, rtol=DENSE_LOSS_RTOL, atol=0)
        assert np.max(np.abs(d_out - dense_d_out)) <= DENSE_GRAD_TOL * np.max(np.abs(dense_d_out))
        mass_loss, mass_d_out = _dsc_head_bin_mass_reference(config, state, net_out)
        np.testing.assert_allclose(loss, mass_loss, rtol=1e-10, atol=0)
        assert np.max(np.abs(d_out - mass_d_out)) <= 1e-12 * np.max(np.abs(mass_d_out))

    def test_extreme_states(self):
        from bflow.discretised import BinGeometry

        B, D, K = 6, 70, 16
        config = _make_config("discretised", D=D, K=K, batch_size=B)
        rng = np.random.default_rng(5)
        x = BinGeometry(K).centers[rng.integers(0, K, size=(B, D))]
        # t = 0 and 1e-9 lie below t_min = 1e-6; t = 1 has the narrowest flow
        t = np.array([0.0, 1e-9, 0.03, 0.4, 0.9, 1.0])
        mu = rng.normal(size=(B, D)) * 3.0
        # mu_eps of +-40 puts mu_x far outside [-1, 1]; ln_sigma_eps of -80
        # hits the 1e-20 floor on sigma_x and +25 makes sigma_x very wide
        mu_eps = rng.choice([0.0, 0.5, -2.0, 40.0, -40.0], size=(B, D))
        ln_sigma_eps = rng.choice([-80.0, -6.0, 0.0, 2.0, 25.0], size=(B, D))
        state = {"t": t, "theta": mu, "state_in": mu, "x": x}
        net_out = np.concatenate([mu_eps, ln_sigma_eps], axis=1)
        self._assert_same_bits(config, state, net_out)

    def test_sampled_states_at_k256(self):
        config = _make_config("discretised", D=64, K=256, batch_size=3,
                              schedule_preset="cts-256bin")
        mlp = MLP(config.predictor_spec(), seed=8)
        r = Rng(303)
        x = _random_batch(r, config)
        state = training.sample_head_state(r, config, x)
        self._assert_same_bits(config, state, mlp.forward_batch(state["state_in"], state["t"]))


class TestDiscretisedHeadCost:
    """The head's erf work per row does not grow with K: the dense edge grid
    would take 255 elements a row at K=256 and 1023 at K=1024, and a fixed
    49-edge window 49 a narrow row at any K."""

    def test_erf_elements_per_training_batch(self, monkeypatch):
        counts = []

        def counted_erf(x):
            counts.append(np.size(x))
            return erf_vec(x)

        monkeypatch.setattr(dsc, "erf_vec", counted_erf)
        config = _make_config("discretised", D=64, K=256, batch_size=32, hidden=(256, 256),
                              schedule_preset="cts-256bin")
        mlp = MLP(config.predictor_spec(), seed=9)
        r = Rng(304)
        state = training.sample_head_state(r, config, _random_batch(r, config))
        net_out = mlp.forward_batch(state["state_in"], state["t"])
        training.head_loss_and_grad(config, state, net_out)
        at_256 = sum(counts)
        # a fixed 49-edge window on every row with h > h*, and erf at both
        # ends and the midpoint of the others, takes 53248 elements on this
        # batch; the rows' own windows read 8578 here and 10529 at K=1024, so
        # a third of the fixed window's count leaves a margin of 1.7 or more
        mu_x, sigma_x = dsc.output_map(config.flow, state["theta"], state["t"], net_out)[:2]
        narrow = np.count_nonzero((2.0 / 256) / (np.maximum(sigma_x, 1e-20) * math.sqrt(2.0)) > dsc._H_WIDE)
        fixed_window = 49 * narrow + 3 * (sigma_x.size - narrow)
        assert 0 < at_256 <= fixed_window / 3
        counts.clear()
        dsc.expected_centre(mu_x, sigma_x, 1024, grad=True)
        assert sum(counts) <= fixed_window / 3


def _dd_flow_row_reference(rng, x, t, sched, K):
    """One (D, K) discrete flow draw of summed logits at a float t, written
    per row; a row at t = 0 draws its block too."""
    beta = sched.beta(t)
    onehot = np.eye(K)[np.asarray(x) - 1]
    z = rng.standard_normal(onehot.shape)
    return beta * (K * onehot - 1.0) + np.sqrt(beta * K) * z


def _cts_flow_row_reference(rng, cfg, x, t):
    """One (D,) continuous flow mean at a float t; a row at t = 0 draws its
    block too."""
    g = 1.0 - cfg.schedule.sigma1 ** (2.0 * t)
    z = rng.standard_normal(x.shape)
    return g * x + np.sqrt(g * (1.0 - g)) * z


def _sample_head_state_reference(rng, config, x_batch):
    """The training state draw as one discrete flow draw and one encoding per
    batch row, and the continuous flow written out over the batch: the
    reference for bitwise equality with the batched flow ops."""
    B = x_batch.shape[0]
    t = rng.uniform(size=B)
    if config.modality == "discrete":
        K = config.K
        logits = np.stack([_dd_flow_row_reference(rng, x_batch[b], float(t[b]), config.schedule, K)
                           for b in range(B)])
        probs = [softmax_rows(row) for row in logits]
        state_in = np.stack([2.0 * th[:, 0] - 1.0 if K == 2 else (2.0 * th - 1.0).ravel() for th in probs])
        return {"t": t, "theta": logits, "state_in": state_in, "x": x_batch}
    g = 1.0 - config.sigma1 ** (2.0 * t)
    z = rng.standard_normal(x_batch.shape)
    mu = g[:, None] * x_batch + np.sqrt(np.maximum(g * (1.0 - g), 0.0))[:, None] * z
    mu[g == 0.0] = 0.0
    return {"t": t, "theta": mu, "state_in": mu, "x": x_batch}


def _after(seed, n):
    """The next standard normal of a fresh Rng(seed) after n of them: an rng
    of that seed that has drawn n normals draws it next."""
    rng = Rng(seed)
    rng.standard_normal(n)
    return rng.standard_normal()


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestBatchedFlow:
    """The batched flow draws give the bits of the per-row draws they replace."""

    # row 2 sits at t = 0: it is exactly the prior, and draws its block too
    T = np.array([0.3, 0.9, 0.0, 1.0, 0.05, 0.6])

    @pytest.mark.parametrize("K", [2, 27])
    def test_discrete_rows_equal_per_row_draws(self, K):
        sched = DiscreteQuadratic(3.0)
        cfg = FlowConfig(sched, 5, K)
        x = Rng(40).integers(1, K + 1, size=(6, 5))
        r_batch, r_ref, r_item = Rng(41), Rng(41), Rng(41)
        batched = dd.flow_sample(r_batch, cfg, x, self.T)
        ref = np.stack([_dd_flow_row_reference(r_ref, x[b], float(self.T[b]), sched, K) for b in range(6)])
        items = np.stack([dd.flow_sample(r_item, cfg, x[b][None], float(self.T[b]))[0] for b in range(6)])
        assert _same_bits(batched, ref) and _same_bits(items, ref)
        assert np.all(batched[2] == 0.0) and np.all(softmax_rows(batched[2]) == 1.0 / K)
        assert [r.standard_normal() for r in (r_batch, r_ref, r_item)] == [_after(41, 6 * 5 * K)] * 3

    def test_continuous_rows_equal_per_row_draws(self):
        cfg = FlowConfig(ContinuousSigma(0.02), D=5)
        x = Rng(42).uniform(size=(6, 5)) * 2.0 - 1.0
        r_batch, r_rows, r_ref, r_item = Rng(43), Rng(43), Rng(43), Rng(43)
        batched = cts.flow_sample(r_batch, cfg, x, self.T)
        rows = np.concatenate([cts.flow_sample(r_rows, cfg, x[b : b + 1], self.T[b : b + 1]) for b in range(6)])
        assert _same_bits(batched, rows)
        assert np.all(batched[2] == 0.0)
        # a float t is the per-item op, computed in float arithmetic as before
        ref = np.stack([_cts_flow_row_reference(r_ref, cfg, x[b], float(self.T[b])) for b in range(6)])
        items = np.stack([cts.flow_sample(r_item, cfg, x[b][None], float(self.T[b]))[0] for b in range(6)])
        assert _same_bits(items, ref)
        assert [r.standard_normal() for r in (r_batch, r_rows, r_ref, r_item)] == [_after(43, 6 * 5)] * 4

    @pytest.mark.parametrize("modality,K", [("discrete", 27), ("discrete", 2),
                                            ("continuous", 0), ("discretised", 16)])
    def test_sample_head_state_matches_reference(self, modality, K):
        kw = {"K": K} if K else {}
        config = _make_config(modality, D=7, batch_size=16, **kw)
        x = _random_batch(Rng(44), config)
        state = training.sample_head_state(Rng(45), config, x)
        ref = _sample_head_state_reference(Rng(45), config, x)
        assert state.keys() == ref.keys()
        for key in state:
            assert _same_bits(state[key], ref[key]), key

    @pytest.mark.parametrize("name", ["strings", "glyphs"])
    def test_train_matches_reference_driven_run(self, name, monkeypatch):
        # params, EMA, moments and loss history, with eval losses every 15 steps
        run = cli.load_run_config(CONFIG_DIR / f"train_{name}.cfg", ("steps=30", "eval_every=15"))
        config = cli.train_config_from_run(run)
        items = {"strings": toy_strings, "glyphs": toy_glyphs}[name]().items
        got = training.train(Rng(7), items, config)
        monkeypatch.setattr(training, "sample_head_state", _sample_head_state_reference)
        ref = training.train(Rng(7), items, config)
        for field in ("ema_params", "moments_m", "moments_v"):
            assert _same_bits(getattr(got, field), getattr(ref, field)), field
        assert _same_bits(got.mlp.params, ref.mlp.params)
        assert got.history == ref.history


class TestInPlaceOptimizer:
    """train() with the in-place chunked adamw_step gives the bits of a run
    driven by the same update out of place, and one step lands within a few
    roundings of the textbook order."""

    @staticmethod
    def _config(case, seed):
        if case == "strings":  # 291,760 parameters: 17 full chunks and a partial one
            run = cli.load_run_config(CONFIG_DIR / "train_strings.cfg",
                                      ("steps=30", "eval_every=15", f"seed={seed}"))
            return cli.train_config_from_run(run), toy_strings().items
        if case == "discretised":  # 43,392 parameters, weight decay on
            config = _make_config("discretised", D=64, K=16, hidden=(128, 128), batch_size=8,
                                  steps=20, weight_decay=0.05, ema_decay=0.9, seed=seed)
        else:  # fewer parameters than one chunk
            config = _make_config("continuous", steps=20, weight_decay=0.02, ema_decay=0.9, seed=seed)
        return config, Rng(seed).uniform(size=(12, config.D)) * 1.6 - 0.8

    @pytest.mark.parametrize("seed", [1, 7, 37])
    @pytest.mark.parametrize("case", ["strings", "discretised", "small"])
    def test_train_matches_out_of_place_reference(self, case, seed, monkeypatch):
        config, items = self._config(case, seed)
        n = config.predictor_spec().n_params
        assert n < training.ADAMW_CHUNK if case == "small" else n % training.ADAMW_CHUNK != 0
        got = training.train(Rng(seed), items, config)
        monkeypatch.setattr(training, "adamw_step", _adamw_ema_reference)
        ref = training.train(Rng(seed), items, config)
        for field in ("ema_params", "moments_m", "moments_v"):
            assert _same_bits(getattr(got, field), getattr(ref, field)), field
        assert _same_bits(got.mlp.params, ref.mlp.params)
        assert got.history == ref.history

    @pytest.mark.parametrize("case", ["strings", "discretised", "small"])
    def test_one_step_matches_the_old_order(self, case):
        # from a trained state, one step of adamw_step against the order with
        # m/c1, v/c2 and a separate decay term: m and v keep their bits, and p
        # moves by a few roundings of |p| + |u|.  A bound in ulps of the new p
        # would mean nothing where p - u cancels.  The EMA sum can also round
        # the other way, an ulp of the EMA, which may sit far from p.
        config, items = self._config(case, 7)
        trained = training.train(Rng(7), items, config)
        rng = Rng(8)
        batch = items[rng.integers(0, len(items), size=config.batch_size)]
        _, grad = training.batch_loss_and_grad(trained.mlp, config, training.sample_head_state(rng, config, batch))
        args = (config.steps + 1, config.learning_rate, config.weight_decay, *training.ADAM_BETAS, config.ema_decay)
        p0, m0, v0, ema0 = trained.mlp.params, trained.moments_m, trained.moments_v, trained.ema_params
        old_p, old_m, old_v, old_ema, u = _adamw_ema_old_order(p0, grad, m0, v0, ema0, *args)
        p, m, v, ema = adamw_step(p0.copy(), grad, m0.copy(), v0.copy(), ema0.copy(), *args)
        assert _same_bits(m, old_m) and _same_bits(v, old_v)
        bound = 8 * np.finfo(np.float64).eps * (np.abs(p0) + np.abs(u))
        assert np.all(np.abs(p - old_p) <= bound)
        assert np.all(np.abs(ema - old_ema) <= bound + 8 * np.finfo(np.float64).eps * np.abs(ema0))


def _cpus(monkeypatch, count):
    """Make train() see ``count`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _bounded(fn, timeout=120.0):
    """fn() on a helper thread joined within ``timeout`` seconds, so a
    deadlock fails the test instead of hanging the suite; returns fn's
    result or raises its error."""
    out = {}

    def target():
        try:
            out["value"] = fn()
        except BaseException as exc:
            out["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"no result within {timeout} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


def _strings_config(steps, seed=7):
    run = cli.load_run_config(CONFIG_DIR / "train_strings.cfg", (f"steps={steps}", "eval_every=0", f"seed={seed}"))
    return cli.train_config_from_run(run)


class TestWorker:
    """A Worker thread shares the optimizer step (AdamW + EMA), and every
    result keeps the bits of the caller-only path.  Each test runs its
    threads under ``_bounded``, so a deadlock fails it within two minutes."""

    HALF = training.ADAMW_CHUNK // 2

    @staticmethod
    def _state(n, seed):
        rng = np.random.default_rng(seed)
        state = [rng.standard_normal(n) for _ in range(5)]
        state[3] = np.abs(state[3])  # v >= 0
        return state

    @staticmethod
    def _first_mismatch(n, seed, steps):
        """Steps of adamw_step, split with a Worker and on the caller alone,
        from the same state; the first step whose bits differ, or None."""
        serial, split = TestWorker._state(n, seed), TestWorker._state(n, seed)
        worker = Worker()
        try:
            for step in range(1, steps + 1):
                adamw_step(*serial, step, 1e-3, 0.01, 0.9, 0.98, 0.99)
                adamw_step(*split, step, 1e-3, 0.01, 0.9, 0.98, 0.99, worker=worker)
                if not all(_same_bits(a, b) for a, b in zip(serial, split)):
                    return step
        finally:
            worker.close()
        return None

    @pytest.mark.parametrize("n", [
        1000,            # one short pass: the caller walks it alone
        HALF,            # exactly one pass
        HALF + 1,        # two passes of half a pass each
        4 * HALF,        # an exact multiple: two whole passes a half
        3 * HALF,        # an odd number of whole passes
        3 * HALF + 7,    # an odd length: the halves differ by one element
    ])
    def test_split_step_matches_caller_only(self, n):
        assert _bounded(lambda: self._first_mismatch(n, n, 3)) is None

    def test_split_steps_match_under_constant_thread_switching(self):
        # a switch interval of a microsecond hands the GIL over between
        # nearly every pair of bytecodes, and two callers with a worker each
        # put four threads on the cores, so the halves interleave as finely
        # as they can; 200 steps must keep the caller-only bits
        results = ["unfinished", "unfinished"]

        def caller(i):
            results[i] = self._first_mismatch(3 * self.HALF + 7, 11 + i, 200)

        def run():
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _bounded(run)
        finally:
            sys.setswitchinterval(interval)
        assert results == [None, None]

    def test_split_step_allocates_the_two_scratch_chunks(self):
        def run():
            state = [np.full(291_760, 0.5) for _ in range(5)]
            worker = Worker()
            tracemalloc.start()
            try:
                adamw_step(*state, 1, 1e-3, 0.01, 0.9, 0.98, 0.99, worker=worker)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                worker.close()

        assert _bounded(run) <= 2 * training.ADAMW_CHUNK * 8 + 16_384

    @pytest.mark.parametrize("case", ["strings", "small"])
    def test_train_on_one_and_two_cpus_gives_the_same_bits(self, case, monkeypatch):
        if case == "strings":  # two halves of five passes each
            config, items = _strings_config(20), toy_strings().items
        else:  # 8-wide layers: one AdamW pass, so the step stays unsplit on two CPUs
            config = _make_config("continuous", steps=20, weight_decay=0.02, ema_decay=0.9)
            items = Rng(3).uniform(size=(12, config.D)) * 1.6 - 0.8
        runs = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            runs.append(_bounded(lambda: training.train(Rng(9), items, config)))
        one, two = runs
        for field in ("ema_params", "moments_m", "moments_v"):
            assert _same_bits(getattr(one, field), getattr(two, field)), field
        assert _same_bits(one.mlp.params, two.mlp.params)
        assert one.history == two.history

    def test_errors_and_errstate_reach_the_submitter(self):
        big = np.full(4, 1e300)
        out = np.empty(4)

        def run():
            worker = Worker()
            try:
                with np.errstate(over="raise"):
                    worker.submit(np.multiply, big, big, out)
                    with pytest.raises(FloatingPointError):
                        worker.wait()
                with np.errstate(over="ignore"):
                    worker.submit(np.multiply, big, big, out)
                    worker.wait()
            finally:
                worker.close()

        _bounded(run)
        assert np.all(out == np.inf)

    def test_calls_run_in_submission_order(self):
        seen = []

        def run():
            worker = Worker()
            try:
                for i in range(100):
                    worker.submit(seen.append, i)
                worker.wait()
            finally:
                worker.close()

        _bounded(run)
        assert seen == list(range(100))

    def test_wait_raises_the_first_error_after_every_call_finished(self):
        finished = []

        def slow():
            time.sleep(0.2)
            finished.append("slow")

        def run():
            worker = Worker()
            try:
                worker.submit(math.sqrt, -1.0)  # ValueError
                worker.submit(slow)
                worker.submit(operator.truediv, 1, 0)  # ZeroDivisionError
                with pytest.raises(ValueError):
                    worker.wait()
                return list(finished)  # as it was when wait() raised
            finally:
                worker.close()

        assert _bounded(run) == ["slow"]

    def test_arguments_are_freed_on_the_submitting_thread(self):
        # The helper must drop every reference it took for a call, the
        # copied context included, before the call counts as finished; the
        # submitter holds the arguments until wait() returns.  Here the
        # context holds an object whose release sleeps, so a helper that
        # released the context after wait() returned would still hold the
        # array once the submitter dropped it, and free it itself.
        slow_var = contextvars.ContextVar("slow_var")

        class SlowToFree:
            def __del__(self):
                time.sleep(0.05)

        freed_on = []

        def run():
            worker = Worker()
            try:
                for _ in range(5):
                    a = np.zeros(4)
                    weakref.finalize(a, lambda: freed_on.append(threading.current_thread().name))
                    token = slow_var.set(SlowToFree())
                    worker.submit(np.copyto, a, 1.0)
                    slow_var.reset(token)  # only the call's copied context holds it now
                    worker.wait()
                    del a
            finally:
                worker.close()
            return threading.current_thread().name

        submitter = _bounded(run)
        assert freed_on == [submitter] * 5

    @pytest.mark.parametrize("how", ["returns", "raises", "worker raises"])
    def test_no_thread_outlives_train(self, how, monkeypatch):
        _cpus(monkeypatch, 2)
        # the worker's case needs more than one AdamW pass, so that the step splits
        hidden = (256, 256) if how == "worker raises" else (8, 8)
        config = _make_config("continuous", steps=5, learning_rate=1e160 if how == "raises" else 1e-3, hidden=hidden)
        data = Rng(3).uniform(size=(8, config.D)) - 0.5
        if how == "worker raises":
            adamw_passes = training._adamw_passes

            def fail_on_the_worker(*args):
                if threading.current_thread().name.startswith("bflow-worker"):
                    raise ArithmeticError("AdamW pass failed on the worker")
                adamw_passes(*args)

            monkeypatch.setattr(training, "_adamw_passes", fail_on_the_worker)

        left = []

        def run():
            # counted on the calling thread the moment train returns or raises
            before = threading.active_count()
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    training.train(Rng(4), data, config)
            finally:
                left.append(threading.active_count() - before)
                left.extend(t.name for t in threading.enumerate() if t.name.startswith("bflow-worker"))

        if how == "returns":
            _bounded(run)
        else:
            with pytest.raises(RuntimeError if how == "raises" else ArithmeticError):
                _bounded(run)
        assert left == [0]


# A child process that prints its OpenBLAS thread count before and after
# importing bflow, read through numerics.py loaded on its own (importing
# bflow.numerics would import bflow first), then trains 20 steps of the
# strings spec, samples four streams from its EMA network and prints a
# digest of each output.
_TRAIN_AND_SAMPLE = """
import hashlib, importlib.util, sys
import numpy as np
spec = importlib.util.spec_from_file_location("numerics_alone", sys.argv[2])
numerics_alone = importlib.util.module_from_spec(spec)
spec.loader.exec_module(numerics_alone)
get_threads = numerics_alone.openblas_thread_calls()[1]
before = get_threads()
from bflow import cli, training
print("threads", before, get_threads())
from bflow.data import toy_strings
from bflow.numerics import Rng
from bflow.schedule import sample_chain

config = cli.train_config_from_run(cli.load_run_config(sys.argv[1], ("steps=20", "eval_every=0", "seed=5")))
result = training.train(Rng(5), toy_strings().items, config)
streams = [Rng(5).split(i) for i in range(4)]
samples = sample_chain(training.OPS[config.modality], streams, training.ema_predictor(result), config.flow, 20)
for name, a in (("params", result.mlp.params), ("ema", result.ema_params), ("m", result.moments_m),
                ("v", result.moments_v), ("samples", samples)):
    print(name, hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest())
"""


@pytest.mark.skipif(training._usable_cpus() < 2, reason="OpenBLAS runs one thread on one CPU, so both runs are alike")
def test_outputs_do_not_depend_on_the_blas_thread_count(child_env):
    # OpenBLAS splits some of the strings spec's training products by
    # thread count, so unless bflow runs it at one thread the parameters
    # differ between these processes; the samples alone can still agree
    digests = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _TRAIN_AND_SAMPLE, str(CONFIG_DIR / "train_strings.cfg"), numerics.__file__],
            capture_output=True, text=True, env=dict(child_env, OPENBLAS_NUM_THREADS=threads), timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        # OpenBLAS ran the thread count asked for until bflow set it to one
        assert lines[0] == f"threads {threads} 1"
        digests.append(lines[1:])
    assert len(digests[0]) == 5
    assert digests[0] == digests[1]


class TestTrainLoop:
    def test_zero_learning_rate_keeps_params(self):
        config = _make_config("discrete", learning_rate=0.0, weight_decay=0.0, steps=8)
        r = Rng(1)
        data = Rng(2).integers(1, config.K + 1, size=(16, config.D))
        init = MLP(config.predictor_spec(), seed=config.seed).params.copy()
        result = training.train(r, data, config)
        np.testing.assert_array_equal(result.mlp.params, init)

    def test_determinism(self):
        config = _make_config("continuous", steps=6)
        data = Rng(3).uniform(size=(10, config.D)) - 0.5
        a = training.train(Rng(5), data, config)
        b = training.train(Rng(5), data, config)
        assert np.array_equal(a.mlp.params, b.mlp.params)
        assert a.history == b.history

    def test_loss_decreases_on_constant_dataset(self):
        config = _make_config(
            "continuous", D=2, steps=400, learning_rate=3e-3, sigma1=0.1,
            batch_size=32, hidden=(16, 16), weight_decay=0.0, t_min=1e-3,
        )
        data = np.tile([[0.4, -0.2]], (4, 1))
        result = training.train(Rng(6), data, config)
        first = np.mean([h[1] for h in result.history[:20]])
        last = np.mean([h[1] for h in result.history[-20:]])
        assert last < first * 0.2

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            training.train(Rng(0), np.zeros((0, 3)), _make_config("continuous"))

    def test_out_of_range_dataset_rejected(self):
        config = _make_config("discrete")
        with pytest.raises(ValueError):
            training.train(Rng(0), np.array([[0, 1, 2]]), config)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_dataset_rejected(self, bad):
        # NaN fails every range comparison, so only an explicit finiteness
        # check stops it before the first step
        config = _make_config("continuous", D=2)
        with pytest.raises(ValueError, match=r"non-finite values \(1 of 4\), the first (nan|inf) at index \(0, 1\)"):
            training.train(Rng(0), np.array([[0.1, bad], [0.2, 0.3]]), config)

    def test_non_finite_loss_aborts_with_step(self):
        # an absurd learning rate overflows the parameters within a few
        # steps; the abort message must carry the step and batch stream id
        config = _make_config("continuous", learning_rate=1e160, steps=50)
        data = Rng(3).uniform(size=(8, config.D)) - 0.5
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match=r"step \d+ \(batch stream id \d+"):
                training.train(Rng(4), data, config)

    def test_non_finite_loss_aborts_with_step_on_two_threads(self, monkeypatch):
        # the strings spec's 291,760 parameters take both halves of the
        # split step.  A decay factor 1 - lr*wd of -1e8 overflows the
        # worker's half of the parameters steps before the loss turns
        # non-finite, so numpy's errstate must reach the worker thread, or
        # its ufuncs warn instead of the step's error being raised
        _cpus(monkeypatch, 2)
        config = TrainConfig(modality="discrete", D=16, K=27, beta1=3.0, learning_rate=1e10,
                             weight_decay=0.01, steps=50, hidden=(256, 256))
        assert config.predictor_spec().n_params > training.ADAMW_CHUNK
        data = toy_strings().items

        def run():
            with np.errstate(over="ignore", invalid="ignore"):
                training.train(Rng(4), data, config)

        with pytest.raises(RuntimeError, match=r"step \d+ \(batch stream id \d+"):
            _bounded(run)

    def test_eval_column_is_evaluates_inf_row_alone(self, monkeypatch):
        # train once computed evaluate's recon row as well, and threw it away
        config = _make_config("discrete", steps=4, eval_every=4)
        data = Rng(3).integers(1, config.K + 1, size=(6, config.D))
        monkeypatch.setattr(dd, "recon", lambda *a: pytest.fail("train computed a recon row"))
        result = training.train(Rng(7), data, config)
        monkeypatch.undo()
        erng = Rng(7).split(10**9 + 4)
        items, ema = data[erng.integers(0, 6, size=6)], MLP(result.mlp.spec, params=result.ema_params)
        assert result.history[-1][2] == training.evaluate(erng, ema, config, items, n_values=(), passes=4)[0]["nats"]

    def test_history_csv_shape(self):
        config = _make_config("continuous", steps=4, eval_every=2)
        data = Rng(3).uniform(size=(6, config.D)) - 0.5
        result = training.train(Rng(7), data, config)
        csv = training.history_to_csv(result.history)
        lines = csv.strip().split("\n")
        assert lines[0] == "step,train_loss,eval_loss"
        assert len(lines) == 5
        assert lines[2].count(",") == 2 and not lines[1].endswith(",,")


class TestEMA:
    def test_converges_to_frozen_params(self):
        # zero gradients without weight decay make the AdamW update exactly
        # 0, so the parameters stay parked while the EMA gap decays
        # geometrically: 1e-4 * 0.999**10_000 = 4.5e-9 < 1e-8
        decay = 0.999
        params = np.array([0.3])
        ema = params + 1e-4
        grads, m, v = np.zeros(1), np.zeros(1), np.zeros(1)
        for step in range(1, 10_001):
            training.adamw_step(params, grads, m, v, ema, step, 1e-3, 0.0, 0.9, 0.98, decay)
        assert params[0] == 0.3
        assert np.max(np.abs(ema - params)) < 1e-8

    def test_ema_tracks_training(self):
        config = _make_config("continuous", steps=5, ema_decay=0.5)
        data = Rng(3).uniform(size=(6, config.D)) - 0.5
        result = training.train(Rng(8), data, config)
        assert not np.array_equal(result.ema_params, result.mlp.params)


class TestNatsBitsReporting:
    def test_conversion_consistency(self):
        config = _make_config("discrete", steps=3)
        data = Rng(9).integers(1, config.K + 1, size=(6, config.D))
        result = training.train(Rng(10), data, config)
        rows = training.evaluate(Rng(11), training.ema_predictor(result), config, data, n_values=(4,), passes=1)
        for r in rows:
            assert r["bits_per_dim"] == pytest.approx(r["nats_per_dim"] / np.log(2), rel=1e-12)
            assert r["nats_per_dim"] == pytest.approx(r["nats"] / config.D, rel=1e-12)

    def test_csv_fields_are_numbers(self):
        # every field after the row label reads back with float() as the
        # table's value, bit for bit
        config = _make_config("discrete", steps=3)
        data = Rng(9).integers(1, config.K + 1, size=(6, config.D))
        result = training.train(Rng(10), data, config)
        rows = training.evaluate(Rng(11), training.ema_predictor(result), config, data, n_values=(4,), passes=1)
        lines = training.eval_rows_to_csv(rows).splitlines()
        keys = lines[0].split(",")
        assert len(lines) == 1 + len(rows)
        for line, r in zip(lines[1:], rows):
            label, *fields = line.split(",")
            assert label == r["label"]
            assert [float(f) for f in fields] == [r[k] for k in keys[1:]]


class _RowLocal:
    """Outputs elementwise in (state, t), so a row's output does not depend
    on the rows batched with it; an MLP's matrix products can change in the
    last bit with the number of rows."""

    def __init__(self, spec):
        self.reps = spec.output_width // spec.state_width

    def forward_batch(self, X, t):
        t = np.broadcast_to(np.reshape(t, (-1, 1)), (len(X), 1))
        return np.tile(0.7 * np.asarray(X) - 0.3 + t, (1, self.reps))


def _eval_case(modality):
    """(config, dataset, row-local predictor) with 7 items."""
    config = _make_config(modality, recon_sigma=0.3 if modality == "continuous" else 0.0)
    if modality == "discrete":
        data = Rng(60).integers(1, config.K + 1, size=(7, config.D))
    else:
        data = dsc.BinGeometry(8).centers[Rng(60).integers(0, 8, size=(7, config.D))]
    return config, data, _RowLocal(config.predictor_spec())


def _oracle_case(modality):
    """(config, datum (D,), a predictor that knows it) on _eval_case's config."""
    config = _eval_case(modality)[0]
    if modality == "continuous":
        x = np.array([0.3, -0.5, 0.8])
        return config, x, CtsDatumPredictor(x, config.sigma1)
    if modality == "discretised":
        x = dsc.BinGeometry(config.K).centers[[1, 6, 3]]
        return config, x, DiscretisedDatumPredictor(x, 1e-9, config.sigma1)
    x = np.array([1, 3, 2])
    return config, x, ConstantPredictor.one_hot(x, config.K, sharpness=800.0)


class TestRowIndependence:
    """Results depend only on (seed, item): with a row-local predictor, a
    row's loss does not move when another row's step or value changes."""

    @pytest.mark.parametrize("modality", ["continuous", "discretised", "discrete"])
    def test_loss_n_row_ignores_other_rows_steps(self, modality):
        config, data, pred = _eval_case(modality)
        steps = np.array([4, 7, 2, 9, 5, 3, 8])
        base = training.item_losses(Rng(70), pred, config, data, 10, steps)
        for b in range(len(data)):
            for step in (1, 6):
                moved = steps.copy()
                moved[b] = step
                got = training.item_losses(Rng(70), pred, config, data, 10, moved)
                keep = np.arange(len(data)) != b
                assert got[keep].tobytes() == base[keep].tobytes()

    @pytest.mark.parametrize("modality", ["continuous", "discretised"])
    def test_mlp_row_ignores_another_row_below_t_min(self, modality):
        # at the bundled mixture's widths, whose output is 2 wide, the last
        # rows of a one-thread OpenBLAS product round differently at 127
        # rows than at 128, so a network that skipped the rows below t_min
        # moved another row's loss when one row's step became 1.  The
        # discretised model takes D=1 to keep that output width; late steps
        # and times keep the estimates off the clip at -1 and 1
        config = cli.train_config_from_run(cli.load_run_config(CONFIG_DIR / "train_mixture.cfg"))
        if modality == "discretised":
            config = TrainConfig(**dataclasses.asdict(config) | dict(modality="discretised", D=1, K=16,
                                                                     recon_sigma=0.0))
        mlp = MLP(config.predictor_spec(), seed=config.seed)
        mlp.params += 0.3 * Rng(80).standard_normal(mlp.spec.n_params)
        items = dsc.BinGeometry(16).centers[Rng(81).integers(0, 16, size=(128, config.D))]
        steps = Rng(82).integers(6, 11, size=128)
        times = 0.5 + 0.5 * Rng(83).uniform(size=128)
        base_n = training.item_losses(Rng(84), mlp, config, items, 10, steps)
        base_inf = training.item_losses(Rng(85), mlp, config, items, "inf", times)
        for b in (0, 45, 90, 127):
            keep = np.arange(128) != b
            moved = steps.copy()
            moved[b] = 1
            got = training.item_losses(Rng(84), mlp, config, items, 10, moved)
            assert got[keep].tobytes() == base_n[keep].tobytes()
            moved = times.copy()
            moved[b] = config.t_min / 2
            got = training.item_losses(Rng(85), mlp, config, items, "inf", moved)
            assert got[keep].tobytes() == base_inf[keep].tobytes()

    @pytest.mark.parametrize("modality", ["continuous", "discretised", "discrete"])
    def test_evaluate_item_ignores_other_items_values(self, modality, monkeypatch):
        config, data, pred = _eval_case(modality)
        changed = data.copy()
        changed[2] = changed[2] % config.K + 1 if modality == "discrete" else -changed[2]
        per_item = []
        for ds in (data, changed):
            calls = []
            real = training.item_losses
            monkeypatch.setattr(training, "item_losses", lambda *a: calls.append(real(*a)) or calls[-1])
            # n=3 puts about a third of the items at step 1, t=0
            training.evaluate(Rng(71), pred, config, ds, n_values=(3, 10), passes=2)
            monkeypatch.undo()
            per_item.append(np.stack(calls))
        keep = np.arange(len(data)) != 2
        assert per_item[1][:, keep].tobytes() == per_item[0][:, keep].tobytes()
        assert not np.array_equal(per_item[1][:, 2], per_item[0][:, 2])


def _cts_oracle_pass(config, pred, x, label, prng):
    """The continuous datum oracle's estimate error (1, D) at one evaluate
    pass over the one-item dataset x, rebuilt from the pass's stream prng,
    and a bound on the pass's loss: the op's weight times the squared
    inversion bound, or |x|^2 below t_min, where the estimate is zero."""
    sched = config.schedule
    if label == "recon":
        t, weight = 1.0, 1.0 / (2.0 * config.recon_sigma**2)
    elif label == "inf":
        t = prng.uniform(size=1)
        weight = sched.alpha(t) / 2
    else:
        n = int(label)
        i = prng.integers(1, n + 1, size=1)
        t, weight = step_time(i, n), n * sched.step_alpha(i, n) / 2
    state = cts.flow_sample(prng, config.flow, x, t)
    err = x - cts.estimate(pred, config.flow, state, t, None)
    g, live, _ = cts.noise_terms(config.flow, t, 1)
    bound = np.where(live, inversion_bound(x, state, g), np.abs(x))
    assert np.all(np.abs(err) <= bound)
    return err, float(np.sum(weight * np.vecdot(bound, bound)) * (1 + 1e-12))


class TestEvaluate:
    def test_perfect_oracle_all_zero(self):
        config = _make_config("discrete", K=4)
        x = np.array([[1, 3, 2]])
        pred = ConstantPredictor.one_hot(x[0], 4, sharpness=800.0)
        rows = training.evaluate(Rng(12), pred, config, x, n_values=(2, 8), passes=3)
        for r in rows:
            assert r["nats"] == 0.0
            assert r["se_nats"] == 0.0

    def test_perfect_oracle_near_zero_continuous(self):
        # the prediction is pinned to zero below t_min, so the step-1 cost of
        # a nonzero datum is real: only the zero datum is near-perfect at
        # every step.  Elsewhere the datum oracle's estimate is the datum up
        # to the inversion's rounding, so a row is exactly zero when every
        # pass's estimate on its draw is exact, and within the weight times
        # the squared rounding bound otherwise
        config = _make_config("continuous", recon_sigma=0.25)
        cases = ((np.array([[0.3, -0.5, 0.8]]), (), {"inf", "recon"}), (np.zeros((1, 3)), (2, 8), {"8", "inf"}))
        for x, n_values, exact in cases:
            pred = CtsDatumPredictor(x[0], config.sigma1)
            rows = training.evaluate(Rng(12), pred, config, x, n_values=n_values, passes=3)
            assert [r["label"] for r in rows] == [str(n) for n in n_values] + ["inf", "recon"]
            for li, r in enumerate(rows):
                errs, bounds = zip(*(_cts_oracle_pass(config, pred, x, r["label"], Rng(12).split(li * 1_000_003 + p))
                                     for p in range(3)))
                if r["label"] in exact:
                    assert r["nats"] == 0.0 and r["se_nats"] == 0.0 and not np.any(errs)
                else:
                    assert np.any(errs) and 0.0 < r["nats"] <= max(bounds) and r["se_nats"] <= max(bounds)

    def test_perfect_oracle_near_zero_discretised(self):
        # below t_min the output is a unit Gaussian at zero, so n-step rows
        # pay for step 1; the continuous-time and reconstruction rows vanish
        config = _make_config("discretised", K=16)
        x = dsc.BinGeometry(16).centers[[[3, 12, 7]]]
        pred = DiscretisedDatumPredictor(x[0], 1e-9, config.sigma1)
        rows = training.evaluate(Rng(12), pred, config, x, n_values=(), passes=3)
        assert [r["label"] for r in rows] == ["inf", "recon"]
        for r in rows:
            assert abs(r["nats"]) < 1e-9

    @pytest.mark.parametrize("modality", ["continuous", "discretised", "discrete"])
    def test_table_independent_of_chunk_size(self, modality, monkeypatch):
        config, data, pred = _eval_case(modality)
        # n=3 puts about a third of the items at step 1, t=0
        tables = []
        for chunk in (2, 3, 7, 64):
            monkeypatch.setattr(training, "EVAL_CHUNK", chunk)
            tables.append(training.evaluate(Rng(61), pred, config, data, n_values=(3, 10), passes=2))
        assert all(t == tables[0] for t in tables[1:])
        assert [r["samples"] for r in tables[0]] == [14] * 4

    @pytest.mark.parametrize("modality", ["continuous", "discretised", "discrete"])
    def test_row_is_mean_of_direct_batched_call(self, modality):
        config, data, pred = _eval_case(modality)
        rows = training.evaluate(Rng(62), pred, config, data, n_values=(6,), passes=2)
        mod, cfg = training.OPS[modality], config.flow
        want = {"6": [], "inf": [], "recon": []}
        for p in range(2):
            prng = Rng(62).split(p)
            want["6"].append(mod.loss_n(prng, pred, cfg, data, 6, prng.integers(1, 7, size=7)))
            prng = Rng(62).split(1_000_003 + p)
            want["inf"].append(loss_cts(mod, prng, pred, cfg, data, prng.uniform(size=7)))
            prng = Rng(62).split(2 * 1_000_003 + p)
            want["recon"].append(mod.recon(prng, pred, cfg, data))
        assert {r["label"]: r["nats"] for r in rows} == {k: float(np.concatenate(v).mean()) for k, v in want.items()}

    def test_rows_cover_requested_grid(self):
        config = _make_config("discrete", K=4)
        data = Rng(13).integers(1, 5, size=(3, config.D))
        pred = MLP(config.predictor_spec(), seed=1)
        rows = training.evaluate(Rng(14), pred, config, data, n_values=(10, 25), passes=1)
        assert [r["label"] for r in rows] == ["10", "25", "inf", "recon"]

    def test_continuous_recon_row_needs_noise_std(self):
        config = _make_config("continuous")
        data = Rng(13).uniform(size=(3, config.D)) - 0.5
        pred = MLP(config.predictor_spec(), seed=1)
        rows = training.evaluate(Rng(14), pred, config, data, n_values=(4,), passes=1)
        assert [r["label"] for r in rows] == ["4", "inf"]
        config2 = _make_config("continuous", recon_sigma=0.25)
        rows2 = training.evaluate(Rng(14), pred, config2, data, n_values=(4,), passes=1)
        assert [r["label"] for r in rows2] == ["4", "inf", "recon"]

    def test_se_scaling_with_passes(self):
        # quadrupling the pass count halves the reported standard error
        config = _make_config("discrete", K=4, D=2)
        data = Rng(15).integers(1, 5, size=(8, 2))
        pred = MLP(config.predictor_spec(), seed=2)
        r1 = training.evaluate(Rng(16), pred, config, data, n_values=(), passes=2)
        r4 = training.evaluate(Rng(16), pred, config, data, n_values=(), passes=8)
        se1 = r1[0]["se_nats"]
        se4 = r4[0]["se_nats"]
        assert se4 == pytest.approx(se1 / 2, rel=0.35)

    @pytest.mark.parametrize("passes", [0, -1])
    def test_passes_below_one_rejected(self, passes):
        # zero or negative passes once returned an empty table
        config = _make_config("discrete", K=4, D=2)
        pred = MLP(config.predictor_spec(), seed=2)
        with pytest.raises(ValueError, match=f"passes must be >= 1, got {passes}"):
            training.evaluate(Rng(16), pred, config, np.ones((3, 2), dtype=np.int64), passes=passes)

    @pytest.mark.parametrize("n", [2.5, 0, -3, math.nan])
    def test_step_count_not_a_whole_number_from_one_rejected(self, n):
        # 2.5 once scored n = 2 under the label "2", and 0 raised numpy's "low >= high"
        config = _make_config("discrete", K=4, D=2)
        pred = MLP(config.predictor_spec(), seed=2)
        with pytest.raises(ValueError, match=f"step counts must be whole numbers >= 1, got {n}"):
            training.evaluate(Rng(16), pred, config, np.ones((3, 2), dtype=np.int64), n_values=(10, n))

    def test_empty_dataset_rejected(self):
        # as train does; evaluate once returned an empty table
        config = _make_config("discrete", K=4, D=2)
        pred = MLP(config.predictor_spec(), seed=2)
        with pytest.raises(ValueError, match="dataset is empty"):
            training.evaluate(Rng(16), pred, config, np.ones((0, 2), dtype=np.int64))

    @pytest.mark.parametrize("modality, items, message", [
        ("discrete", [[1.5, 2.0], [2.9, 1.0]], r"class indices must be whole numbers, the first 1\.5 at index \(0, 0\)"),
        ("discrete", [[0, 1]], r"class indices outside 1\.\.3"),
        ("continuous", [[0.1, np.nan]], r"non-finite values \(1 of 2\), the first nan at index \(0, 1\)"),
    ], ids=["fractional-class", "class-0", "nan"])
    def test_evaluate_checks_the_dataset_as_train_does(self, modality, items, message):
        # evaluate once ran no data check: [[1.5, 2.9]] gave the table of [[1, 2]]
        config = _make_config(modality, D=2, **({"K": 3} if modality == "discrete" else {}))
        pred = MLP(config.predictor_spec(), seed=2)
        for run in (lambda x: training.train(Rng(0), x, config), lambda x: training.evaluate(Rng(16), pred, config, x)):
            with pytest.raises(ValueError, match=message):
                run(np.array(items))


class TestCheckpoint:
    def test_round_trip_byte_identical(self, tmp_path):
        config = _make_config("continuous", steps=4)
        data = Rng(17).uniform(size=(6, config.D)) - 0.5
        result = training.train(Rng(18), data, config)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        training.save_checkpoint(p1, result)
        # the loaded history is empty: the step comes from the header
        loaded, header = training.load_checkpoint(p1)
        training.save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_params_restored(self, tmp_path):
        config = _make_config("discrete", steps=3)
        data = Rng(19).integers(1, config.K + 1, size=(6, config.D))
        result = training.train(Rng(20), data, config)
        path = tmp_path / "c.ckpt"
        training.save_checkpoint(path, result)
        loaded, _ = training.load_checkpoint(path)
        np.testing.assert_array_equal(loaded.mlp.params, result.mlp.params)
        np.testing.assert_array_equal(loaded.ema_params, result.ema_params)
        np.testing.assert_array_equal(loaded.moments_v, result.moments_v)
        assert loaded.config == config

    @pytest.mark.parametrize("step", [None, -1], ids=["missing", "negative"])
    def test_bad_step_named(self, tmp_path, step):
        import json
        import struct

        path = self._saved_checkpoint(tmp_path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16 : 16 + hlen])
        header.pop("step") if step is None else header.update(step=step)
        hb = json.dumps(header).encode("utf-8")
        path.write_bytes(raw[:8] + struct.pack("<Q", len(hb)) + hb + raw[16 + hlen :])
        with pytest.raises(ValueError, match=f"checkpoint step must be an int >= 0, got {step}"):
            training.load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"nope" + b"\0" * 64)
        with pytest.raises(ValueError):
            training.load_checkpoint(path)

    def _saved_checkpoint(self, tmp_path):
        config = _make_config("continuous", steps=2)
        data = Rng(21).uniform(size=(6, config.D)) - 0.5
        path = tmp_path / "t.ckpt"
        training.save_checkpoint(path, training.train(Rng(22), data, config))
        return path

    def test_header_holds_config_and_no_layout(self, tmp_path):
        import json
        import struct

        raw = self._saved_checkpoint(tmp_path).read_bytes()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16 : 16 + hlen])
        assert struct.unpack("<I", raw[4:8]) == (4,) and header["version"] == 4
        assert set(header) == {"version", "config", "run_config", "step"}
        assert set(header["config"]) == {f.name for f in dataclasses.fields(TrainConfig)}

    def test_payload_is_the_four_arrays_in_order(self, tmp_path):
        import struct

        config = _make_config("discrete", steps=2)
        result = training.train(Rng(25), Rng(26).integers(1, config.K + 1, size=(6, config.D)), config)
        path = tmp_path / "p.ckpt"
        training.save_checkpoint(path, result)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        arrays = (result.mlp.params, result.ema_params, result.moments_m, result.moments_v)
        assert raw[16 + hlen :] == b"".join(a.astype("<f8").tobytes() for a in arrays)
        loaded, _ = training.load_checkpoint(path)
        got = (loaded.mlp.params, loaded.ema_params, loaded.moments_m, loaded.moments_v)
        for a, b in itertools.combinations(got, 2):  # adamw_step rejects shared memory
            assert not np.shares_memory(a, b)
        assert all(a.flags.c_contiguous for a in got)

    def test_version_2_rejected(self, tmp_path):
        # a version-2 header carries the deleted activation, time-feature and
        # Adam-beta keys; the version check names the file's version first
        import json
        import struct

        raw = self._saved_checkpoint(tmp_path).read_bytes()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16 : 16 + hlen])
        header["config"].update(activation="silu", time_feature="fourier", adam_beta1=0.9, adam_beta2=0.98)
        hb = json.dumps(header).encode("utf-8")
        path = tmp_path / "v2.ckpt"
        path.write_bytes(raw[:4] + struct.pack("<IQ", 2, len(hb)) + hb + raw[16 + hlen :])
        with pytest.raises(ValueError, match="unsupported checkpoint version 2"):
            training.load_checkpoint(path)

    def test_version_1_rejected(self, tmp_path):
        import struct

        path = self._saved_checkpoint(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
        with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
            training.load_checkpoint(path)

    def test_version_3_rejected(self, tmp_path):
        import struct

        path = self._saved_checkpoint(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + struct.pack("<I", 3) + raw[8:])
        with pytest.raises(ValueError, match="unsupported checkpoint version 3"):
            training.load_checkpoint(path)

    def _payload_message(self, path, found):
        n = training.load_checkpoint(path)[0].mlp.spec.n_params
        return rf"checkpoint payload is {found} bytes, expected {32 * n}: params, EMA, m and v of {n} float64"

    @pytest.mark.parametrize("cut", [200, 203])
    def test_truncated_payload_names_byte_counts(self, tmp_path, cut):
        import struct

        path = self._saved_checkpoint(tmp_path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        message = self._payload_message(path, len(raw) - 16 - hlen - cut)
        path.write_bytes(raw[:-cut])
        with pytest.raises(ValueError, match=message):
            training.load_checkpoint(path)

    @pytest.mark.parametrize("at, byte, why", [(20, 0xFF, "invalid start byte"), (16, ord(" "), "Extra data")])
    def test_corrupt_header_named(self, tmp_path, at, byte, why):
        # a byte that is not UTF-8, and a blanked opening brace
        path = self._saved_checkpoint(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[at] = byte
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"checkpoint JSON header is corrupt: .*{why}"):
            training.load_checkpoint(path)

    def test_file_shrunk_after_its_size_was_read_named(self, tmp_path, monkeypatch):
        # the sizes are checked against fstat before the arrays are read; a
        # file cut between the two leaves the last array short
        path = self._saved_checkpoint(tmp_path)
        path.write_bytes(path.read_bytes()[:-8])
        fstat = training.os.fstat
        grown = lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + 8)
        monkeypatch.setattr(training, "os", SimpleNamespace(fstat=grown))
        with pytest.raises(ValueError, match="checkpoint file shrank while it was read"):
            training.load_checkpoint(path)

    @pytest.mark.parametrize("header", [b"5", b"null", b'["config"]'])
    def test_header_that_is_no_object_named(self, tmp_path, header):
        # valid JSON, but no object to hold a config
        import struct

        path = tmp_path / "h.ckpt"
        path.write_bytes(training.CHECKPOINT_MAGIC + struct.pack("<IQ", 4, len(header)) + header)
        with pytest.raises(ValueError, match="checkpoint header lacks config"):
            training.load_checkpoint(path)

    @pytest.mark.parametrize("extra", [3, 16])
    def test_extended_payload_names_byte_counts(self, tmp_path, extra):
        # part of one float64 value, and two whole ones
        import struct

        path = self._saved_checkpoint(tmp_path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        message = self._payload_message(path, len(raw) - 16 - hlen + extra)
        path.write_bytes(raw + bytes(extra))
        with pytest.raises(ValueError, match=message):
            training.load_checkpoint(path)

    @pytest.mark.parametrize("array", ["params", "EMA", "m", "v"])
    def test_non_finite_array_named(self, tmp_path, array):
        # a checkpoint whose EMA held NaN once loaded, and sampling from it
        # drew class 1 in every dimension
        import struct

        path = self._saved_checkpoint(tmp_path)
        raw = bytearray(path.read_bytes())
        (hlen,) = struct.unpack("<Q", raw[8:16])
        n = (len(raw) - 16 - hlen) // 32
        start = 16 + hlen + 8 * n * ["params", "EMA", "m", "v"].index(array)
        for index, value in ((5, math.nan), (9, -math.inf)):
            raw[start + 8 * index : start + 8 * index + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(raw))
        message = rf"checkpoint {array} holds non-finite values \(2 of {n}\), the first nan at index \(5,\)"
        with pytest.raises(ValueError, match=message):
            training.load_checkpoint(path)

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        config = _make_config("discrete", steps=2, hidden=(4,), schedule_preset="binary", K=2)
        items = Rng(23).integers(1, 3, size=(6, config.D))
        path = tmp_path_factory.mktemp("ckpt") / "f.ckpt"
        training.save_checkpoint(path, training.train(Rng(24), items, config))
        return path, path.read_bytes()

    @given(draw=st.data())
    @settings(max_examples=400, deadline=None)
    def test_damaged_file_loads_or_raises_value_error(self, saved, damaged, draw):
        # truncated, extended or bit-flipped: no exception but ValueError escapes
        path, raw = saved
        path.write_bytes(draw.draw(damaged(raw)))
        try:
            training.load_checkpoint(path)
        except ValueError:
            pass


# the required parameters of every modality module's op set
OP_SET = {
    "net_widths": ["cfg"],
    "flow_sample": ["rng", "cfg", "x", "t"],
    "net_input": ["cfg", "state"],
    "loss_inf": ["cfg", "x", "state", "t", "net_out"],
    "loss_n": ["rng", "predictor", "cfg", "x", "n", "i"],
    "net_out": ["predictor", "cfg", "state", "t"],
    "recon": ["rng", "predictor", "cfg", "x"],
    "render": ["cfg", "samples", "alphabet"],
    "prior": ["cfg", "B"],
    "estimate": ["predictor", "cfg", "state", "t", "rng"],
    "update": ["cfg", "state", "estimate", "i", "n", "rng"],
}


class TestOpSet:
    @staticmethod
    def _required(fn):
        params = inspect.signature(fn).parameters.values()
        return [p.name for p in params if p.default is inspect.Parameter.empty]

    @pytest.mark.parametrize("modality", tuple(training.OPS))
    def test_module_exports_the_op_set(self, modality):
        ops = training.OPS[modality]
        assert {name: self._required(getattr(ops, name)) for name in OP_SET} == OP_SET

    def test_table_covers_the_modalities(self):
        assert tuple(training.OPS) == ("continuous", "discretised", "discrete")

    def test_ops_read_no_attribute_by_name(self):
        # continuous data once had a data-predicting mode that a predictor
        # switched on by an attribute the ops read by name; every op now
        # treats every predictor alike, and without getattr or hasattr no
        # per-predictor mode can come back
        found = []
        for module in (*training.OPS.values(), schedule):
            tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
            found += [(module.__name__, ast.unparse(node)) for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in ("getattr", "hasattr")]
        assert found == []

    def test_ops_draw_from_one_rng(self):
        # estimate and update once looped over a list of per-stream Rngs;
        # every op now draws (B, ...) blocks from one rng, and the sampler
        # hands its streams over as one numerics.RowStreams
        found = []
        for module in (*training.OPS.values(), schedule):
            tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
            found += [(module.__name__, ast.unparse(node)) for node in ast.walk(tree)
                      if isinstance(node, (ast.comprehension, ast.For)) and "rng" in ast.unparse(node.iter)]
        assert found == []

    @pytest.mark.parametrize("modality, K", [("continuous", 0), ("discretised", 8), ("discrete", 2), ("discrete", 4)])
    def test_estimate_and_update_take_one_rng(self, modality, K):
        # a plain Rng on a 5-row batch, and the harness's noise rows: one
        # stand-in whose unit draws move one coordinate of the update each
        config = _make_config(modality, K=K, batch_size=5)
        ops, cfg = training.OPS[modality], config.flow
        state = ops.flow_sample(Rng(86), cfg, _random_batch(Rng(87), config), 0.5)
        estimate = ops.estimate(MLP(config.predictor_spec(), seed=88), cfg, state, 0.5, Rng(89))
        assert estimate.shape == (5, 3)
        assert ops.update(cfg, state, estimate, 2, 4, Rng(90)).shape == state.shape
        width = state[0].size
        rows = ops.update(cfg, ops.prior(cfg, 1 + width), np.repeat(estimate[:1], 1 + width, axis=0), 2, 4,
                          harness._unit_noise(1, width)[0]).reshape(1 + width, -1)
        jac = rows[1:] - rows[0]
        assert np.all(jac == np.diag(np.diag(jac))) and np.all(np.diag(jac) > 0)

    @pytest.mark.parametrize("modality, K", [("continuous", 0), ("discretised", 8), ("discrete", 2), ("discrete", 4)])
    def test_states_are_plain_arrays(self, modality, K):
        # a belief state is one float64 array: the Gaussian means, or the
        # summed logits; so a state class with stored fields (a precision
        # beside the means, probabilities beside the logits) cannot come
        # back unnoticed
        config = _make_config(modality, K=K, batch_size=5)
        ops = training.OPS[modality]
        x = _random_batch(Rng(83), config)
        states = (ops.prior(config.flow, 5), ops.flow_sample(Rng(84), config.flow, x, 0.5),
                  ops.flow_sample(Rng(84), config.flow, x, Rng(85).uniform(size=5)))
        for state in states:
            assert type(state) is np.ndarray and state.dtype == np.float64 and state.flags.c_contiguous
            assert state.shape == ((5, 3, K) if modality == "discrete" else (5, 3))

    @pytest.mark.parametrize("modality, K", [("continuous", 0), ("discretised", 8), ("discrete", 2), ("discrete", 4)])
    def test_net_widths_match_net_input_and_loss_gradient(self, modality, K):
        config = _make_config(modality, K=K, batch_size=5)
        ops = training.OPS[modality]
        state_width, output_width = ops.net_widths(config.flow)
        x = _random_batch(Rng(80), config)
        state = training.sample_head_state(Rng(81), config, x)
        assert state["state_in"].shape == (5, state_width)
        net_out = 0.1 * Rng(82).standard_normal((5, output_width))
        _, d_out = ops.loss_inf(config.flow, x, state["theta"], state["t"], net_out, grad=True)
        assert d_out.shape == (5, output_width)
        spec = config.predictor_spec()
        assert (spec.state_width, spec.output_width) == (state_width, output_width)


class _GivenNoise:
    """A stand-in rng whose one normal draw is a given block."""

    def __init__(self, z):
        self.z = z

    def standard_normal(self, shape):
        assert shape == self.z.shape
        return self.z


def _log_normal(y, mean, var):
    return -0.5 * np.log(2.0 * np.pi * var) - (y - mean) ** 2 / (2.0 * var)


def _log_sum_exp(a, axis):
    top = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(top, axis) + np.log(np.sum(np.exp(a - top), axis=axis))


def _softmax(a):
    return np.exp(a - _log_sum_exp(a, -1)[..., None])


def _loss_n_written_out(modality, config, pred, x, z, n, i):
    """n times the sender minus the receiver log-density of the sender draw,
    summed over dimensions, at rows x and steps i (B,) of n, from the flow
    noise z[:, 0] and the sender noise z[:, 1]; for continuous data, whose
    receiver is the sender moved to x_hat, the closed form n alpha / 2
    |x - x_hat|^2 at the flow noise z."""
    t, alpha = (i - 1) / n, config.flow.schedule.step_alpha(i, n)
    B, D, K = x.shape[0], config.D, config.K
    if modality == "discrete":
        beta, a = (config.beta1 * t * t)[:, None, None], alpha[:, None, None]
        e = (x[..., None] == np.arange(1, K + 1)).astype(np.float64)
        state = beta * (K * e - 1.0) + np.sqrt(beta * K) * z[:, 0]
        y = a * (K * e - 1.0) + np.sqrt(a * K) * z[:, 1]
        probs = _softmax(pred.forward_batch((2.0 * _softmax(state) - 1.0).reshape(B, D * K), t).reshape(B, D, K))
        # the log-density of y under each class j's sender, mean alpha (K e_j - 1)
        means = a[..., None] * (K * np.eye(K) - 1.0)
        component = np.sum(_log_normal(y[:, :, None, :], means, (a * K)[..., None]), axis=-1)
        sender = np.sum(_log_normal(y, a * (K * e - 1.0), a * K), axis=-1)
        return n * np.sum(sender - _log_sum_exp(np.log(probs) + component, -1), axis=1)
    g = (1.0 - config.sigma1 ** (2.0 * t))[:, None]
    mu = g * x + np.sqrt(g * (1.0 - g)) * (z if modality == "continuous" else z[:, 0])
    out = pred.forward_batch(mu, t)
    ratio = np.sqrt((1.0 - g) / g)
    if modality == "continuous":
        x_hat = np.clip(mu / g - ratio * out, -1.0, 1.0)
        return n * alpha / 2.0 * np.sum((x - x_hat) ** 2, axis=1)
    mean, std = mu / g - ratio * out[:, :D], ratio * np.exp(out[:, D:])
    edges = np.linspace(-1.0, 1.0, K + 1)
    cdf = 0.5 * (1.0 + np.vectorize(math.erf)((edges - mean[..., None]) / (std[..., None] * math.sqrt(2.0))))
    cdf[..., 0], cdf[..., -1] = 0.0, 1.0  # the tails fold into the end bins
    var = 1.0 / alpha[:, None]
    y = x + np.sqrt(var) * z[:, 1]
    centres = (edges[:-1] + edges[1:]) / 2.0
    receiver = _log_sum_exp(np.log(np.diff(cdf, axis=-1)) + _log_normal(y[..., None], centres, var[..., None]), -1)
    return n * np.sum(_log_normal(y, x, var) - receiver, axis=1)


def _record_precisions(monkeypatch):
    """The (precision, new precision) pairs of every cts.bayes_update call
    from here on, in call order."""
    real, seen = cts.bayes_update, []

    def recording(mean, y, alpha, precision, new_precision):
        seen.append((precision, new_precision))
        return real(mean, y, alpha, precision, new_precision)

    monkeypatch.setattr(cts, "bayes_update", recording)
    return seen


def _assert_precisions_chain(seen, sched, n):
    """The n updates of one sampling run weigh the prior at 1, each later
    step at the last one's new precision, gain the step's accuracy, and end
    at 1 + beta(1) exactly."""
    starts, ends = zip(*seen)
    assert len(seen) == n and starts[0] == 1.0 and starts[1:] == ends[:-1]
    assert ends[-1] == 1.0 + sched.beta(1.0)
    np.testing.assert_allclose(np.subtract(ends, starts), sched.step_alpha(np.arange(1, n + 1), n), rtol=1e-12)


class TestOpContract:
    """The op set's contract, checked once for every modality of
    training.OPS on _eval_case's batch and row-local predictor."""

    @staticmethod
    def _loss_n_rows(modality, seed, x, i):
        """Batched loss_n on rows x at steps i, and the one-row calls on a
        second stream of the same seed; both streams after the calls."""
        config, _, pred = _eval_case(modality)
        ops, cfg = training.OPS[modality], config.flow
        a, b = Rng(seed), Rng(seed)
        got = ops.loss_n(a, pred, cfg, x, 10, i)
        want = [ops.loss_n(b, pred, cfg, row[None], 10, int(k))[0]
                for row, k in zip(x, np.broadcast_to(i, len(x)))]
        return got, want, a, b

    @staticmethod
    def _normals_per_row(modality):
        """Normals one loss_n row draws: the flow block, then for the
        mixture receivers the sender block."""
        cfg = _eval_case(modality)[0].flow
        return cfg.D * {"continuous": 1, "discretised": 2, "discrete": 2 * cfg.K}[modality]

    @pytest.mark.parametrize("modality", tuple(training.OPS))
    def test_one_step_matches_sequential_calls(self, modality):
        """Batched loss_n draws each row's noise as one-row calls on the
        same stream do."""
        x = _eval_case(modality)[1]
        got, want, a, b = self._loss_n_rows(modality, 20, x, 4)
        assert np.array_equal(got, want)
        assert a.standard_normal() == b.standard_normal() == _after(20, len(x) * self._normals_per_row(modality))

    @pytest.mark.parametrize("modality", tuple(training.OPS))
    def test_first_step_single_row_draws_its_blocks(self, modality):
        """Step 1 sits at t = 0, where the flow state is the prior; the row
        still draws its flow block, scaled by zero, and any sender block."""
        x = _eval_case(modality)[1][:1]
        got, want, a, b = self._loss_n_rows(modality, 21, x, 1)
        assert got[0] == want[0]
        assert a.standard_normal() == b.standard_normal() == _after(21, self._normals_per_row(modality))

    @pytest.mark.parametrize("modality", tuple(training.OPS))
    def test_mixed_steps_match_per_row_calls(self, modality):
        """Per-row steps make t an array, and numpy's vectorised power can
        differ from Python's in the last bit, so rows agree to 1e-12."""
        x = _eval_case(modality)[1]
        got, want, a, b = self._loss_n_rows(modality, 22, x, np.arange(len(x)) % 10 + 1)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert a.standard_normal() == b.standard_normal() == _after(22, len(x) * self._normals_per_row(modality))

    @pytest.mark.parametrize("modality", tuple(training.OPS))
    def test_loss_n_at_given_noise(self, modality):
        """loss_n on a given noise block equals its formula written out, with
        a predictor that reads the belief state, at steps 2 to 9 of 10."""
        config, x, pred = _eval_case(modality)
        n, i = 10, np.arange(len(x)) % 8 + 2
        shape = x.shape + ((config.K,) if modality == "discrete" else ())
        z = Rng(30).standard_normal(shape if modality == "continuous" else (shape[0], 2) + shape[1:])
        got = training.OPS[modality].loss_n(_GivenNoise(z), pred, config.flow, x, n, i)
        np.testing.assert_allclose(got, _loss_n_written_out(modality, config, pred, x, z, n, i), rtol=1e-12)

    @pytest.mark.parametrize("modality", tuple(training.OPS))
    def test_seed_determinism(self, modality):
        config, _, pred = _eval_case(modality)
        ops = training.OPS[modality]
        a, b = (sample_chain(ops, [Rng(14)], pred, config.flow, 10, return_state=True) for _ in range(2))
        assert all(_same_bits(u, v) for u, v in zip(a, b))

    @pytest.mark.parametrize("modality", ["continuous", "discretised"])
    def test_final_precision(self, modality, monkeypatch):
        config, _, pred = _eval_case(modality)
        seen = _record_precisions(monkeypatch)
        for n in (1, 7, 32):
            seen.clear()
            sample_chain(training.OPS[modality], [Rng(15)], pred, config.flow, n)
            _assert_precisions_chain(seen, config.flow.schedule, n)

    # the most a perfect oracle pays at a draw of loss_n, loss_cts and recon:
    # the discrete output saturates to a one-hot, the discretised n-step loss
    # is n times a difference of two O(1) log-densities, and the continuous
    # estimate is off by the noise inversion's rounding, squared and weighted
    PERFECT_TOL = {"continuous": (1e-24, 1e-24, 0.0), "discretised": (1e-12, 0.0, 0.0), "discrete": (0.0, 0.0, 0.0)}

    @pytest.mark.parametrize("modality", tuple(training.OPS))
    def test_perfect_predictor_costs_nothing(self, modality):
        """An oracle that knows the datum pays nothing at 50 draws of each
        loss, up to the rounding of its estimates.  Step 1 is left out: it
        sits below t_min, where the output maps ignore the network."""
        config, x, pred = _oracle_case(modality)
        ops, cfg, rows, r = training.OPS[modality], config.flow, np.tile(x, (50, 1)), Rng(12)
        losses = (ops.loss_n(r, pred, cfg, rows, 8, r.integers(2, 9, size=50)),
                  loss_cts(ops, r, pred, cfg, rows, r.uniform(size=50)), ops.recon(r, pred, cfg, rows))
        for loss, tol in zip(losses, self.PERFECT_TOL[modality]):
            assert np.all(np.abs(loss) <= tol), loss

    @pytest.mark.parametrize("modality", tuple(training.OPS))
    def test_wrong_predictor_width_rejected(self, modality):
        config, x, _ = _eval_case(modality)
        ops, cfg = training.OPS[modality], config.flow
        state = ops.flow_sample(Rng(16), cfg, x, 0.5)
        width = ops.net_widths(cfg)[1]
        for wrong in (width - 1, width + 1):
            with pytest.raises(ValueError, match="predictor returned shape"):
                ops.estimate(ConstantPredictor(np.zeros(wrong)), cfg, state, 0.5, Rng(17))


def _bundled_config(name):
    return cli.train_config_from_run(cli.load_run_config(CONFIG_DIR / f"{name}.cfg"))


# perfbench's train-image-k256 model
_IMAGE_K256 = dict(modality="discretised", D=64, K=256, schedule_preset="cts-256bin", hidden=(256, 256))


class TestTrainConfig:
    @pytest.mark.parametrize("make, n_params, sha256", [
        (lambda: _bundled_config("train_strings"), 291_760,
         "de5767f95e15c59fa0a46a0255706865f0ffe14b2613110d501f481dec28983e"),
        (lambda: _bundled_config("train_glyphs"), 102_976,
         "89b07e49944fffac89aa67671fafb0dabfe1d8ac1f7595b053c6065b2003201e"),
        (lambda: _bundled_config("train_mixture"), 5_762,
         "c60f12236acda3b08e6b257a18de9bf59fc7de7cf4b925e477885300bfe7279f"),
        (lambda: TrainConfig(**_IMAGE_K256), 119_424,
         "6bc448fa53b0e4b81c8ebfbf15ec219bec1936e07aea69b27b179555ebefd7fa"),
    ], ids=["strings", "glyphs", "mixture", "image-k256"])
    def test_initial_network_unchanged(self, make, n_params, sha256):
        # the parameter count and initial vector from when PredictorSpec
        # derived the widths from the modality name itself
        config = make()
        mlp = MLP(config.predictor_spec(), config.seed)
        assert mlp.params.size == n_params
        assert hashlib.sha256(mlp.params.tobytes()).hexdigest() == sha256

    def test_field_count(self):
        assert len(dataclasses.fields(TrainConfig)) == 17
        names = [f.name for f in dataclasses.fields(PredictorSpec)]
        assert names == ["state_width", "output_width", "hidden", "n_freqs"]

    def test_unknown_schedule_preset_named(self):
        msg = "schedule_preset 'foo' is not a discrete preset; expected one of binary, chars27"
        with pytest.raises(ValueError, match=msg):
            _make_config("discrete", schedule_preset="foo")

    @pytest.mark.parametrize("modality, preset", [("discrete", "cts-256bin"), ("continuous", "binary"),
                                                  ("discretised", "chars27")])
    def test_preset_of_the_other_family_rejected(self, modality, preset):
        # a continuous preset once set sigma1 on a discrete config and trained with its beta1
        with pytest.raises(ValueError, match=f"schedule_preset {preset!r} is not a {modality} preset"):
            _make_config(modality, schedule_preset=preset)

    @pytest.mark.parametrize("modality, K, message", [
        ("continuous", 5, "continuous data takes no class count, got K=5"),
        ("discrete", 1, "discrete data needs K >= 2, got K=1"),
        ("discretised", 0, "discretised data needs K >= 2 bins, got K=0"),
    ])
    def test_class_count_checked_when_built(self, modality, K, message, monkeypatch):
        # the modality's net_widths runs once, in TrainConfig, not first in train
        monkeypatch.setattr(training, "MLP", lambda *a, **k: pytest.fail("built a network"))
        with pytest.raises(ValueError, match=message):
            TrainConfig(modality=modality, D=4, K=K, **({"beta1": 1.0} if modality == "discrete" else {"sigma1": 0.1}))

    def test_preset_of_the_family_applies(self):
        assert _make_config("discrete", schedule_preset="chars27").beta1 == 0.75
        assert _make_config("discretised", schedule_preset="cts-16bin").sigma1 == math.sqrt(0.001)

    @pytest.mark.parametrize("name, value, low", [("batch_size", 0, 1), ("steps", 0, 1), ("steps", -3, 1),
                                                  ("eval_every", -1, 0), ("D", 0, 1), ("D", -2, 1)])
    def test_count_below_its_floor_rejected(self, name, value, low):
        with pytest.raises(ValueError, match=f"{name} must be >= {low}, got {value}"):
            _make_config("continuous", **{name: value})

    def test_hidden_width_of_one_accepted(self):
        assert _make_config("continuous", hidden=(1,)).predictor_spec().hidden == (1,)

    @pytest.mark.parametrize("value", [-0.3, math.nan])
    def test_recon_sigma_below_zero_rejected(self, value):
        # a negative one once dropped a continuous model's recon row silently
        with pytest.raises(ValueError, match=f"recon_sigma must be >= 0, got {value}"):
            _make_config("continuous", recon_sigma=value)

    @pytest.mark.parametrize("modality, key, value", [
        ("discrete", "t_min", 0.01), ("discrete", "sigma1", 0.1),
        ("continuous", "beta1", 1.0), ("discretised", "recon_sigma", 0.3),
    ])
    def test_field_the_modality_ignores_rejected(self, modality, key, value):
        # no discrete op reads t_min, so a discrete t_min was once dropped silently
        with pytest.raises(ValueError, match=f"{modality} data takes no {key}, got {value}"):
            _make_config(modality, **{key: value})

    @pytest.mark.parametrize("name, value", [
        ("learning_rate", -1e-3), ("learning_rate", math.inf), ("learning_rate", math.nan),
        ("weight_decay", -0.01), ("weight_decay", math.inf), ("weight_decay", math.nan),
    ])
    def test_optimizer_setting_outside_its_range_rejected(self, name, value):
        # a NaN weight decay once turned every parameter NaN at step 1 and
        # surfaced only as a non-finite loss at step 2
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 0, got {value}"):
            _make_config("continuous", **{name: value})

    @pytest.mark.parametrize("value", [1.0, -0.5, math.inf, math.nan])
    def test_ema_decay_outside_its_range_rejected(self, value):
        with pytest.raises(ValueError, match=rf"ema_decay must lie in \[0, 1\), got {value}"):
            _make_config("continuous", ema_decay=value)
