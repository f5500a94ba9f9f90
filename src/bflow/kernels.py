"""Hot numeric kernels in vectorised numpy.

Two kernels: the elementwise error function and row-wise log-sum-exp.
erf's main users are the discretised head (the expected bin centre) and
the bin masses of its n-step loss, reconstruction loss and sampler;
log-sum-exp runs in the discretised and the discrete log-ratios, the
sender-to-receiver scores of the two n-step losses.

Log-sum-exp takes each row's maximum and sum through ``numerics.row_max``
and ``numerics.row_sum``.  numpy reduces a short last axis row by row, at
5-15 ns an element, so for K < 8 columns and at least ``ROWS_MIN`` rows
they reduce over the K column views instead, one elementwise ufunc call a
column.  For fewer than 8 terms numpy itself sums left to right from
+0.0, which is the column order, and a maximum does not depend on the
order, so both paths give the same bits and batch size cannot move a
result; smaller batches and rows of 8 or more run numpy's own reductions.

The error function is evaluated locally via Cody's rational Chebyshev
approximations (three ranges: |x| <= 0.46875, 0.46875 < |x| <= 4, |x| > 4)
so that results are identical across platforms and do not depend on the
host libm.  Max absolute error is ~2e-16 against high-precision references.

Each element runs only the branch its range needs: the indices of a range
(``np.flatnonzero`` of its mask) gather its elements, that range's
polynomials run on them alone, and the results are scattered back by the
same indices, which costs a fraction of a boolean-mask gather.  From
|x| >= 6 on the result is exactly copysign(1, x), since erfc(6) ~ 2e-17 is
below half an ulp of 1 and the tail formula rounds to 1 there.  A branch
performs the same operations in the same order on an element as the form
that evaluates all three branches on every element and selects one, so
every output bit is unchanged; the tests keep that form as the reference.
NaN fails every range comparison, falls into the computed tail branch and
stays NaN.
"""

import numpy as np

from .numerics import row_max, row_sum

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


def _horner(x, coef):
    """The polynomial with coefficients coef, constant term first, at x."""
    p = x * coef[-1]
    p += coef[-2]
    for c in coef[-3::-1]:
        p *= x
        p += c
    return p


def erf_vec(x):
    """Elementwise erf of a float64 array, shape preserved."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = np.copysign(1.0, x)  # |x| >= 6: erfc(6) ~ 2e-17 rounds away
    xf, of = x.reshape(-1), out.reshape(-1)
    ax = np.abs(xf)
    near = ax <= 0.46875
    mid = ax <= 4.0
    # NaN fails every comparison, so it lands in the tail branch and stays NaN
    tail = np.flatnonzero(~(mid | (ax >= 6.0)))
    mid = np.flatnonzero(mid > near)  # in mid and not near
    near = np.flatnonzero(near)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        # near zero
        xs = xf[near]
        z = xs * xs
        of[near] = xs * _horner(z, _P0) / _horner(z, _Q0)
        # mid range, via erfc; here and in the tail a*a < 36, so exp(-a*a),
        # 1/(a*a) and the division by a need no clamping
        a = ax[mid]
        v = np.exp(-(a * a))
        v *= _horner(a, _P1)
        v /= _horner(a, _Q1)
        of[mid] = np.copysign(1.0 - v, xf[mid])
        # far tail, via erfc
        a = ax[tail]
        a2 = a * a
        zt = 1.0 / a2
        v = zt * _horner(zt, _P2) / _horner(zt, _Q2)
        v += _INV_SQRT_PI
        v *= np.exp(-a2)
        v /= a
        of[tail] = np.copysign(1.0 - v, xf[tail])
    return out


def logsumexp_rows(m):
    """Row-wise log(sum(exp(m))) for a 2-D array, stable for large negatives."""
    m = np.ascontiguousarray(m, dtype=np.float64)
    hi = row_max(m)
    empty = hi == -np.inf
    if empty.any():
        # all -inf rows give -inf; the rest are gathered, which costs a
        # copy, so only a batch that has such rows pays it.  A row holding
        # NaN has a NaN maximum, is not empty, and stays NaN
        out = np.full(m.shape[0], -np.inf)
        out[~empty] = logsumexp_rows(m[~empty])
        return out
    return hi + np.log(row_sum(np.exp(m - hi[:, None])))

