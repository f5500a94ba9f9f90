"""Host-speed calibration, independent of bflow.

The reference host (a 2-core x86_64 VM) runs the same code up to 20%
slower or faster from one half-minute to the next.  The change shows in CPU
time as well as in wall time, and a second process running at the same
time sees it too, so it comes from the host.  The benchmark times this
fixed loop before and after each unit of work and scales the unit's rate
by the mean of the two readings over ``REF_S``.

The loop mixes the kinds of work that bflow does: a small matmul, streaming
elementwise passes over 2.4 MB arrays, many small-array numpy calls, and
page faults on 50 MB of freshly mapped memory, as the verify harness's
Monte-Carlo arrays fault in.  The arrays are allocated once.  The fresh
pages come from ``mmap`` directly, so the heap allocator's state, which the
program under test changes, cannot change the reading.  Each map is 2.4 MB
and unmapped at once, so the loop adds little to the peak resident set.
"""

import mmap
import time

import numpy as np

# Median reading on the reference host, one BLAS thread.
REF_S = 0.074

_gen = np.random.default_rng(0)
_A, _W = _gen.standard_normal((32, 300)), _gen.standard_normal((300, 256))
_V, _S = _gen.standard_normal(300_000), _gen.standard_normal((16, 27))
_OUT, _T = np.empty((32, 256)), np.empty(300_000)
_FRESH_MAPS = 21
_FRESH_BYTES = 2_400_000


def seconds():
    """Wall time of one pass of the fixed calibration loop."""
    t0 = time.perf_counter()
    for _ in range(80):
        np.matmul(_A, _W, out=_OUT)
    for _ in range(20):
        np.multiply(_V, _V, out=_T)
        np.add(_T, 1.0, out=_T)
        np.sqrt(_T, out=_T)
        np.divide(_T, _V, out=_T)
    for _ in range(800):
        z = np.exp(_S - _S.max(axis=1, keepdims=True))
        z / z.sum(axis=1, keepdims=True)
    for _ in range(_FRESH_MAPS):
        with mmap.mmap(-1, _FRESH_BYTES) as buf:
            page = np.frombuffer(buf, dtype=np.float64)
            page[:] = 1.0
            del page
    return time.perf_counter() - t0
