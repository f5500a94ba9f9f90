"""Hot numeric kernels in vectorised numpy.

The Monte-Carlo property checks and the mixture-receiver losses spend most
of their time in three elementwise/row-wise kernels: the error function,
row-wise log-sum-exp and the log-density of a 1-D Gaussian mixture.

The error function is evaluated locally via Cody's rational Chebyshev
approximations (three ranges: |x| <= 0.46875, 0.46875 < |x| <= 4, |x| > 4)
so that results are identical across platforms and do not depend on the
host libm.  Max absolute error is ~2e-16 against high-precision references.
"""

import numpy as np

# Cody's coefficients: P0/Q0 for |x| <= 0.46875 (erf), P1/Q1 for the mid
# range and P2/Q2 for the far tail (both via erfc).
_P0 = (3.209377589138469472562e3, 3.774852376853020208137e2,
       1.138641541510501556495e2, 3.161123743870565596947e0,
       1.857777061846031526730e-1)
_Q0 = (2.844236833439170622273e3, 1.282616526077372275645e3,
       2.440246379344441733056e2, 2.360129095234412093499e1, 1.0)
_P1 = (1.23033935479799725272e3, 2.05107837782607146532e3,
       1.71204761263407058314e3, 8.81952221241769090411e2,
       2.98635138197400131132e2, 6.61191906371416294775e1,
       8.88314979438837594118e0, 5.64188496988670089180e-1,
       2.15311535474403846343e-8)
_Q1 = (1.23033935480374942043e3, 3.43936767414372163696e3,
       4.36261909014324715820e3, 3.29079923573345962678e3,
       1.62138957456669018874e3, 5.37181101862009857509e2,
       1.17693950891312499305e2, 1.57449261107098347253e1, 1.0)
_P2 = (-6.58749161529837803157e-4, -1.60837851487422766278e-2,
       -1.25781726111229246204e-1, -3.60344899949804439429e-1,
       -3.05326634961232344035e-1, -1.63153871373020978498e-2)
_Q2 = (2.33520497626869185443e-3, 6.05183413124413191178e-2,
       5.27905102951428412248e-1, 1.87295284992346047209e0,
       2.56852019228982242072e0, 1.0)
_INV_SQRT_PI = 5.6418958354775628695e-1


def erf_vec(x):
    """Elementwise erf of a float64 array, shape preserved."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        ax = np.abs(x)
        # near zero
        z = x * x
        n0 = (((_P0[4] * z + _P0[3]) * z + _P0[2]) * z + _P0[1]) * z + _P0[0]
        d0 = (((_Q0[4] * z + _Q0[3]) * z + _Q0[2]) * z + _Q0[1]) * z + _Q0[0]
        v0 = x * n0 / d0
        # mid range, via erfc
        n1 = np.full_like(ax, _P1[8])
        d1 = np.full_like(ax, _Q1[8])
        for i in range(7, -1, -1):
            n1 = n1 * ax + _P1[i]
            d1 = d1 * ax + _Q1[i]
        expterm = np.exp(-np.minimum(ax * ax, 750.0))
        v1 = 1.0 - expterm * n1 / d1
        # far tail, via erfc
        zt = 1.0 / np.maximum(ax * ax, 1e-300)
        n2 = np.full_like(ax, _P2[5])
        d2 = np.full_like(ax, _Q2[5])
        for i in range(4, -1, -1):
            n2 = n2 * zt + _P2[i]
            d2 = d2 * zt + _Q2[i]
        v2 = 1.0 - expterm * (_INV_SQRT_PI + zt * n2 / d2) / np.maximum(ax, 1e-300)
        return np.where(ax <= 0.46875, v0, np.copysign(np.where(ax <= 4.0, v1, v2), x))


def logsumexp_rows(m):
    """Row-wise log(sum(exp(m))) for a 2-D array, stable for large negatives."""
    m = np.ascontiguousarray(m, dtype=np.float64)
    out = np.empty(m.shape[0])
    hi = np.max(m, axis=1)
    finite = hi > -np.inf
    out[~finite] = -np.inf
    if np.any(finite):
        mf = m[finite]
        hf = hi[finite]
        out[finite] = hf + np.log(np.sum(np.exp(mf - hf[:, None]), axis=1))
    return out


def mixture_logpdf(y, logw, means, var):
    """Log-density of per-row Gaussian mixtures at scalar observations.

    y: (M,) observations; logw: (M, K) log mixture weights per row;
    means: (K,) component means; var: shared scalar variance.  Rows with
    some zero weights are fine as long as one weight is positive.
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    logw = np.ascontiguousarray(logw, dtype=np.float64)
    means = np.ascontiguousarray(means, dtype=np.float64)
    if logw.shape != (y.shape[0], means.shape[0]):
        raise ValueError("logw must have shape (len(y), len(means))")
    var = float(var)
    d = y[:, None] - means[None, :]
    with np.errstate(under="ignore"):
        t = logw - d * d * (0.5 / var)
    out = logsumexp_rows(t)
    out += -0.5 * np.log(2.0 * np.pi * var)
    return out
