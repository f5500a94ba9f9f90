"""The numeric kernels against direct references."""

import math

import numpy as np
import pytest

from bflow import kernels


def test_erf_matches_libm():
    x = np.concatenate([
        np.linspace(-6.5, 6.5, 20001),
        np.array([0.0, 0.46875, -0.46875, 4.0, -4.0, 30.0, -30.0, 1e-300]),
    ])
    out = kernels.erf_vec(x)
    ref = np.array([math.erf(v) for v in x])
    assert np.max(np.abs(out - ref)) < 1e-12


def test_logsumexp_rows_vs_naive():
    rng = np.random.default_rng(7)
    m = rng.uniform(-5, 5, size=(50, 9))
    out = kernels.logsumexp_rows(m)
    naive = np.log(np.sum(np.exp(m), axis=1))
    np.testing.assert_allclose(out, naive, rtol=0, atol=1e-12)


def test_logsumexp_rows_handles_neg_inf():
    m = np.array([[-np.inf, 0.0], [-np.inf, -np.inf], [-1e9, 0.0]])
    out = kernels.logsumexp_rows(m)
    assert out[0] == 0.0
    assert out[1] == -np.inf
    assert abs(out[2]) < 1e-12


def test_mixture_logpdf_vs_naive():
    rng = np.random.default_rng(11)
    y = rng.uniform(-2, 2, size=40)
    means = np.linspace(-1, 1, 5)
    w = rng.uniform(0.1, 1.0, size=(40, 5))
    w /= w.sum(axis=1, keepdims=True)
    var = 0.3
    out = kernels.mixture_logpdf(y, np.log(w), means, var)
    dens = np.sum(
        w * np.exp(-0.5 * (y[:, None] - means[None, :]) ** 2 / var) / np.sqrt(2 * np.pi * var),
        axis=1,
    )
    np.testing.assert_allclose(out, np.log(dens), rtol=0, atol=1e-12)


def test_mixture_logpdf_zero_weights():
    # one-hot weight rows: mixture collapses to a single Gaussian
    y = np.array([0.3, -0.2])
    means = np.array([-0.5, 0.5])
    with np.errstate(divide="ignore"):
        logw = np.log(np.array([[1.0, 0.0], [0.0, 1.0]]))
    out = kernels.mixture_logpdf(y, logw, means, 0.1)
    ref = -0.5 * np.log(2 * np.pi * 0.1) - 0.5 * (y - np.array([-0.5, 0.5])) ** 2 / 0.1
    np.testing.assert_allclose(out, ref, atol=1e-12)


def test_public_dispatch_shapes():
    x = np.linspace(-2, 2, 12).reshape(3, 4)
    assert kernels.erf_vec(x).shape == (3, 4)
    with pytest.raises(ValueError):
        kernels.mixture_logpdf(np.zeros(3), np.zeros((2, 4)), np.zeros(4), 1.0)
