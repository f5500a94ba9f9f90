"""The numeric kernels against direct references."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bflow import kernels
from bflow.numerics import ROWS_MIN, row_max, row_sum, softmax_rows


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


def _softmax_reference(logits):
    """The row softmax before row_max and row_sum, kept to pin its bits."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _logsumexp_reference(m):
    """The row log-sum-exp before row_max and row_sum, kept to pin its bits."""
    hi = np.max(m, axis=1)
    empty = hi == -np.inf
    if empty.any():
        out = np.full(m.shape[0], -np.inf)
        out[~empty] = _logsumexp_reference(m[~empty])
        return out
    return hi + np.log(np.sum(np.exp(m - hi[:, None]), axis=1))


@st.composite
def _row_batches(draw):
    """(rows, K) arrays on both sides of ROWS_MIN with NaN rows, +inf
    entries, all -inf rows and rows of tied -0.0 and +0.0 mixed in."""
    rows = draw(st.one_of(st.integers(1, ROWS_MIN - 1), st.integers(ROWS_MIN, 3 * ROWS_MIN),
                          st.sampled_from([ROWS_MIN - 1, ROWS_MIN])))
    K = draw(st.sampled_from([*range(1, 10), 27]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.standard_normal((rows, K)) * draw(st.sampled_from([1e-3, 1.0, 30.0, 800.0]))
    specials = st.tuples(st.integers(0, rows - 1), st.integers(0, K - 1),
                         st.sampled_from(["nan", "+inf", "-inf", "-inf row", "zero tie"]))
    for r, c, kind in draw(st.lists(specials, max_size=8)):
        if kind == "nan":
            m[r, c] = np.nan
        elif kind == "+inf":
            m[r, c] = np.inf
        elif kind == "-inf":
            m[r, c] = -np.inf
        elif kind == "-inf row":
            m[r] = -np.inf
        else:
            m[r] = -np.abs(m[r])
            m[r, rng.random(K) < 0.5] = 0.0
            m[r, c] = -0.0
    return m


@given(_row_batches())
@settings(max_examples=300, deadline=None)
def test_row_kernels_bitwise_equal_to_numpy_reductions(m):
    K = m.shape[1]
    with np.errstate(all="ignore"):
        _assert_same_bits(softmax_rows(m), _softmax_reference(m))
        _assert_same_bits(kernels.logsumexp_rows(m), _logsumexp_reference(m))
        _assert_same_bits(row_max(m), m.max(axis=-1))
        _assert_same_bits(row_sum(m), m.sum(axis=-1))
        if m.shape[0] % 2 == 0:  # (B, D, K) batches are gated on B*D rows
            m3 = m.reshape(-1, 2, K)
            _assert_same_bits(softmax_rows(m3), _softmax_reference(m3))
            _assert_same_bits(row_sum(m3), m3.sum(axis=-1))


def test_row_sum_of_negative_zeros_is_positive_zero():
    # numpy's sum starts from +0.0, so a row of -0.0 sums to +0.0
    m = np.full((ROWS_MIN, 3), -0.0)
    _assert_same_bits(row_sum(m), np.zeros(ROWS_MIN))


@pytest.mark.parametrize("K", [2, 3, 5, 27])
def test_row_kernels_do_not_depend_on_batch_size(K):
    # a batch of ROWS_MIN + 17 rows reduces over columns and one row alone
    # reduces per row; row i must come out the same either way
    rows = ROWS_MIN + 17
    rng = np.random.default_rng(K)
    m = rng.standard_normal((rows, K)) * 20.0
    soft = softmax_rows(m)
    m[5] = -np.inf  # logsumexp_rows gathers the other rows
    lse = kernels.logsumexp_rows(m)
    for i in range(rows):
        one = slice(i, i + 1)
        if i != 5:
            _assert_same_bits(softmax_rows(m[one]), soft[one])
        _assert_same_bits(kernels.logsumexp_rows(m[one]), lse[one])


def test_mixture_logpdf_does_not_depend_on_batch_size():
    rows = ROWS_MIN + 17
    rng = np.random.default_rng(3)
    y = rng.uniform(-2, 2, size=rows)
    logw = np.log(softmax_rows(rng.standard_normal((rows, 3))))
    means = np.array([-1.0, 0.0, 1.0])
    var = rng.uniform(0.1, 1.0, size=rows)
    mix = kernels.mixture_logpdf(y, logw, means, var)
    for i in range(rows):
        one = slice(i, i + 1)
        _assert_same_bits(kernels.mixture_logpdf(y[one], logw[one], means, var[one]), mix[one])
