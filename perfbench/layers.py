"""Per-layer metrics derived from the spans of a traced run.

Every traced run reports the full set; a layer that the workload never
calls reads 0.  Totals cover the traced repeats of the workload's unit of
work; ``*_per_step`` values divide by the training steps traced.

A training step is measured from one ``training.sample_head_state`` call to
the next (the last step ends with ``training.train``).  Its traced phases
are the direct children of ``training.train`` in that interval: state
sampling, ``MLP.forward_batch``, ``head_loss_and_grad``,
``MLP.backward_batch`` and ``adamw_step``.  The rest of the step, mostly the
EMA update that sits inline in ``train()``, is reported as
``training.unattributed_ms_per_step``; it can only be attributed by a span
inside the program.
"""

import numpy as np

from bflow import harness

SELF_MS_PER_STEP = (
    "training.sample_head_state", "discrete.flow_sample", "training.adamw_step",
    "training.head_loss_and_grad", "discretised.bin_probs_from_gaussian",
    "predictor.forward_batch", "predictor.backward_batch",
)
CALLS_PER_STEP = ("discrete.flow_sample", "discretised.bin_probs_from_gaussian")
SELF_MS = (
    "predictor.forward", "predictor.forward_batch", "discrete.loss_n_step", "discrete.loss_cts_time",
    "discrete.reconstruction_loss", "discrete.output_distribution", "discrete.generate",
    "discrete.bayes_update", "numerics.sample_categorical_rows", "kernels.erf_vec",
    "kernels.logsumexp_rows", "kernels.mixture_logpdf", "discretised.loss_n_step",
    "continuous.flow_sample", "numerics.softmax_rows", "numerics.gaussian_sample",
)
KERNEL_COUNTS = (
    ("kernels.erf_vec", "elements"), ("kernels.erf_vec", "bytes_computed"),
    ("kernels.logsumexp_rows", "rows"), ("kernels.logsumexp_rows", "bytes_computed"),
    ("kernels.mixture_logpdf", "elements"), ("kernels.mixture_logpdf", "bytes_computed"),
)
SETUP_MS = ("data.ingest_bytes", "data.load_dataset", "training.save_checkpoint", "training.load_checkpoint")


def step_breakdown(tracer):
    """(step seconds, traced phase seconds) for every traced training step."""
    a = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}
    steps, phases = [], []
    for ti in np.flatnonzero(a["name_id"] == ids.get("training.train", -1)):
        kids = np.flatnonzero(a["parent"] == ti)
        heads = kids[a["name_id"][kids] == ids.get("training.sample_head_state", -1)]
        starts = a["start"][heads]
        steps.append(np.diff(np.append(starts, a["end"][ti])))
        which = np.searchsorted(starts, a["start"][kids], side="right") - 1
        dur = (a["end"] - a["start"])[kids]
        keep = which >= 0
        phases.append(np.bincount(which[keep], weights=dur[keep], minlength=starts.size))
    if not steps:
        return np.zeros(0), np.zeros(0)
    return np.concatenate(steps), np.concatenate(phases)


def property_seconds(tracer):
    """Seconds of each check called directly by ``harness.run_all``, in call order."""
    a = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}
    runs = np.flatnonzero(a["name_id"] == ids.get("harness.run_all", -1))
    kids = np.flatnonzero(np.isin(a["parent"], runs) & (a["name_id"] == ids.get("harness.check", -1)))
    return (a["end"] - a["start"])[kids]


def metrics(tracer, setup_timings, reports, overhead):
    """Every per-layer metric as name -> (value, unit)."""
    totals = tracer.totals()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def tot(name):
        return totals.get(name, zero)

    step_s, phase_s = step_breakdown(tracer)
    n_steps = step_s.size

    def per_step(v):
        return v / n_steps if n_steps else 0.0

    m = {}
    pct = (lambda q: float(np.percentile(step_s, q)) * 1e3) if n_steps else (lambda q: 0.0)
    m["training.step_ms.p50"] = (pct(50), "ms")
    m["training.step_ms.p95"] = (pct(95), "ms")
    for name in SELF_MS_PER_STEP:
        m[f"{name}.self_ms_per_step"] = (per_step(tot(name)["self_s"] * 1e3), "ms")
    for name in CALLS_PER_STEP:
        m[f"{name}.calls_per_step"] = (per_step(tot(name)["calls"]), "count")
    m["training.unattributed_ms_per_step"] = (per_step(float(np.sum(step_s - phase_s)) * 1e3), "ms")
    m["training.phase_coverage"] = (float(phase_s.sum() / step_s.sum()) if n_steps else 0.0, "ratio")

    fb = tot("predictor.forward_batch")
    m["predictor.forward.calls"] = (tot("predictor.forward")["calls"], "count")
    rows = tracer.counts["predictor.forward_batch"]["rows"]
    m["predictor.forward_batch.rows_per_call"] = (rows / fb["calls"] if fb["calls"] else 0.0, "rows")
    for name in SELF_MS:
        m[f"{name}.self_ms"] = (tot(name)["self_s"] * 1e3, "ms")
    m["training.evaluate.self_s"] = (tot("training.evaluate")["self_s"], "s")
    for name in ("kernels.erf_vec", "kernels.logsumexp_rows", "kernels.mixture_logpdf"):
        m[f"{name}.calls"] = (tot(name)["calls"], "count")
    for name, key in KERNEL_COUNTS:
        m[f"{name}.{key}"] = (tracer.counts[name][key], "B" if key == "bytes_computed" else "count")

    by_id = {}
    if reports is not None:
        seconds = property_seconds(tracer)
        by_id = {r.property_id: (float(s), r.statistic / r.tolerance) for r, s in zip(reports, seconds, strict=True)}
    for pid in harness.ALL_PROPERTIES:
        s, ratio = by_id.get(pid, (0.0, 0.0))
        m[f"harness.{pid}.s"] = (s, "s")
        m[f"harness.{pid}.stat_to_tol"] = (ratio, "ratio")

    for name in SETUP_MS:
        vals = setup_timings.get(name)
        m[f"{name}.ms"] = (float(np.median(vals)) * 1e3 if vals else 0.0, "ms")

    untraced_s, traced_s, ops = overhead
    m["trace.untraced_ops_per_s"] = (ops / untraced_s, "1/s")
    m["trace.traced_ops_per_s"] = (ops / traced_s, "1/s")
    m["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return m
