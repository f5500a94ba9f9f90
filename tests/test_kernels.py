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


def test_logsumexp_rows_nan_row_stays_nan():
    finite = np.array([[0.3, -1.7, 2.2]])
    m = np.concatenate([[[np.nan, 0.0, 1.0]], np.full((1, 3), -np.inf), finite])
    out = kernels.logsumexp_rows(m)
    assert np.isnan(out[0])
    assert out[1] == -np.inf
    assert out[2:].tobytes() == kernels.logsumexp_rows(finite).tobytes()


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


def _erf_three_branch(x):
    """All three Cody branches on every element, then a select: the plain
    form that erf_vec must match bit for bit."""
    P0, Q0, P1, Q1, P2, Q2 = (kernels._P0, kernels._Q0, kernels._P1, kernels._Q1,
                              kernels._P2, kernels._Q2)
    x = np.ascontiguousarray(x, dtype=np.float64)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        ax = np.abs(x)
        z = x * x
        n0 = (((P0[4] * z + P0[3]) * z + P0[2]) * z + P0[1]) * z + P0[0]
        d0 = (((Q0[4] * z + Q0[3]) * z + Q0[2]) * z + Q0[1]) * z + Q0[0]
        v0 = x * n0 / d0
        n1 = np.full_like(ax, P1[8])
        d1 = np.full_like(ax, Q1[8])
        for i in range(7, -1, -1):
            n1 = n1 * ax + P1[i]
            d1 = d1 * ax + Q1[i]
        expterm = np.exp(-np.minimum(ax * ax, 750.0))
        v1 = 1.0 - expterm * n1 / d1
        zt = 1.0 / np.maximum(ax * ax, 1e-300)
        n2 = np.full_like(ax, P2[5])
        d2 = np.full_like(ax, Q2[5])
        for i in range(4, -1, -1):
            n2 = n2 * zt + P2[i]
            d2 = d2 * zt + Q2[i]
        v2 = 1.0 - expterm * (kernels._INV_SQRT_PI + zt * n2 / d2) / np.maximum(ax, 1e-300)
        return np.where(ax <= 0.46875, v0, np.copysign(np.where(ax <= 4.0, v1, v2), x))


def _neighbours(c, n=64):
    """c and the n floats on either side of it."""
    out = [c]
    lo = hi = c
    for _ in range(n):
        lo = np.nextafter(lo, -np.inf)
        hi = np.nextafter(hi, np.inf)
        out += [lo, hi]
    return np.array(out)


def _assert_same_bits(out, ref):
    assert out.shape == ref.shape
    np.testing.assert_array_equal(out.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("edge", [0.46875, 4.0, 6.0])
def test_erf_bitwise_equal_to_three_branch_reference_at_branch_edges(edge):
    parts = []
    for c in (edge, -edge):
        parts += [np.linspace(c - 1e-2, c + 1e-2, 200_001), _neighbours(c)]
    x = np.concatenate(parts)
    _assert_same_bits(kernels.erf_vec(x), _erf_three_branch(x))


def test_erf_bitwise_equal_to_three_branch_reference_over_range_and_specials():
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123,
                     0x7FF0000000000001], dtype=np.uint64).view(np.float64)
    tiny = np.finfo(np.float64).smallest_subnormal
    x = np.concatenate([
        np.linspace(-40.0, 40.0, 800_001),
        np.geomspace(tiny, 1e300, 20_001),
        -np.geomspace(tiny, 1e300, 20_001),
        nans,
        [np.inf, -np.inf, 0.0, -0.0, tiny, -tiny, 1e-310, -1e-310,
         np.finfo(np.float64).max, -np.finfo(np.float64).max],
    ])
    out = kernels.erf_vec(x)
    _assert_same_bits(out, _erf_three_branch(x))
    assert np.isnan(out[np.isnan(x)]).all()
    # non-contiguous 2-D input keeps its shape and its bits
    grid = np.linspace(-7.0, 7.0, 48).reshape(6, 8)[::2, ::2]
    assert not grid.flags["C_CONTIGUOUS"] and grid.shape == (3, 4)
    _assert_same_bits(kernels.erf_vec(grid), _erf_three_branch(grid))
