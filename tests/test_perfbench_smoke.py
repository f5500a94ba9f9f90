"""Smoke test of the benchmark's workloads (perfbench/workloads.py).

At seed 1 each workload runs its own set-up, one unit of work and its own
correctness check, then the same unit traced through ``workloads.install``,
which must give the untraced unit's outputs.  verify runs only its two
loss-convergence properties.  The eval-sample-strings unit makes the
positional call ``discrete.generate(rng, pred, sched, n, K, D)``, so this
also pins that signature.  perfbench is imported, never changed.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SEED = 1


def _check_unit(wl, state, rep):
    _, out = wl.unit(state, rep)
    checks = workloads.Checks()
    wl.check(state, out, checks)
    assert checks.attempted > 0 and checks.failures == []
    tracer = Tracer()
    workloads.install(tracer)
    try:
        _, traced = wl.unit(state, rep)
    finally:
        tracer.restore()
    assert len(tracer.start) > 0
    assert wl.same_output(out, traced)


@pytest.mark.parametrize("name", ["train-strings", "train-image-k256", "eval-sample-strings"])
def test_unit_passes_its_check_and_traces_transparently(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    _check_unit(wl, wl.setup(SEED, str(tmp_path), {}), 0)


@pytest.mark.parametrize("prop", ["loss-convergence-discretised", "loss-convergence-discrete"])
def test_verify_unit_passes_its_check_and_traces_transparently(prop, tmp_path):
    wl = workloads.WORKLOADS["verify"]
    _check_unit(wl, wl.setup(SEED, str(tmp_path), {}), workloads.harness.ALL_PROPERTIES.index(prop))
