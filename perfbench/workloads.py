"""The four benchmark workloads, their set-up and their correctness checks.

Each workload is a closed loop with one caller in one process.  Its inputs
are generated from the seed alone, and the program sees only those inputs.

* ``train-strings``: ``training.train`` on the bundled strings config
  (discrete, D=16, K=27, B=32).  AdamW + EMA and the per-item
  ``discrete.flow_sample`` loop dominate; no erf or mixture kernel runs, so
  a kernel change must read as no change here.
* ``train-image-k256``: ``training.train`` on seed-generated 8x8 8-bit
  images (discretised, D=64, K=256, preset ``cts-256bin``).  The bin masses
  (``discretised.bin_probs_from_gaussian`` -> ``kernels.erf_vec``) dominate.
* ``eval-sample-strings``: ``training.evaluate`` and ``discrete.generate``
  on a strings model trained in set-up; the B=1 ``MLP.forward`` path with
  no backward pass and no optimizer.
* ``verify``: ``harness.run_all(seed)``, all 13 properties; the mixture
  log-density, the continuous flow and the Monte-Carlo estimators, no MLP.

A workload is measured untraced for the end-to-end numbers.  The traced
run wraps the public callables listed by ``trace_points`` and repeats a
fixed amount of work with and without the wrappers, so the per-layer
numbers, the tracing overhead and the transparency check all come from
one process.
"""

import math
import os
import time

import numpy as np

from bflow import cli, continuous, data, discrete, discretised, harness, kernels, predictor, training
from bflow.numerics import Rng

LN2 = math.log(2.0)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STRINGS_CONFIG = os.path.join(ROOT, "configs", "train_strings.cfg")

# Sizing (2-core host, one BLAS thread): a strings unit takes ~1.1 s, a
# K=256 image unit ~1.5 s and an eval-and-sample unit ~0.9 s, so a 15 s
# run holds several and reports their median.  A verify pass takes ~40 s.
STRINGS_STEPS = 100
IMAGE_STEPS = 20
IMAGE_COUNT = 256
FIXTURE_STEPS = 150
EVAL_N_VALUES = (10, 100)
EVAL_PASSES = 32
SAMPLE_COUNT = 16
SAMPLE_STEPS = 100
SETUP_REPEATS = 3
TRACED_REPEATS = 3


class Checks:
    """Counts checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


# ---------------------------------------------------------------------------
# Trace points: the names callers look up, so every call goes through them
# ---------------------------------------------------------------------------


def _rows_arg1(args, kwargs):
    return {"rows": int(np.shape(args[1])[0])}


def _erf_counts(args, kwargs):
    n = int(np.size(args[0]))
    return {"elements": n, "bytes_computed": 16 * n}  # float64 in + out


def _lse_counts(args, kwargs):
    rows, cols = np.shape(args[0])
    return {"rows": rows, "elements": rows * cols, "bytes_computed": 8 * (rows * cols + rows)}


def _mixture_counts(args, kwargs):
    y, logw, means = args[0], args[1], args[2]
    m, k = np.shape(logw)
    return {"rows": m, "elements": m * k, "bytes_computed": 8 * (2 * np.size(y) + m * k + np.size(means))}


def trace_points():
    """(owner, attribute, span name, counter) for every traced callable."""
    kernel_points = []
    for owner in (kernels, discrete, discretised, harness):
        for attr, counter in (("erf_vec", _erf_counts), ("logsumexp_rows", _lse_counts),
                              ("mixture_logpdf", _mixture_counts)):
            if attr in owner.__dict__:
                kernel_points.append((owner, attr, f"kernels.{attr}", counter))
    numeric_points = []
    for owner in (training, discrete, discretised, continuous, harness):
        for attr in ("softmax_rows", "gaussian_sample", "sample_categorical_rows"):
            if attr in owner.__dict__:
                numeric_points.append((owner, attr, f"numerics.{attr}", None))
    points = [
        (training, "train", "training.train", None),
        (training, "sample_head_state", "training.sample_head_state", None),
        (training, "head_loss_and_grad", "training.head_loss_and_grad", None),
        (training, "adamw_step", "training.adamw_step", None),
        (training, "evaluate", "training.evaluate", None),
        (training, "ema_predictor", "training.ema_predictor", None),
        (predictor.MLP, "forward_batch", "predictor.forward_batch", _rows_arg1),
        (predictor.MLP, "forward", "predictor.forward", None),
        (predictor.MLP, "backward_batch", "predictor.backward_batch", _rows_arg1),
        (continuous, "flow_sample", "continuous.flow_sample", None),
        (discretised, "bin_probs_from_gaussian", "discretised.bin_probs_from_gaussian", None),
        (discretised, "loss_n_step", "discretised.loss_n_step", None),
        (discretised, "loss_cts_time", "discretised.loss_cts_time", None),
        (discretised, "output_distribution", "discretised.output_distribution", None),
        (harness, "run_all", "harness.run_all", None),
    ]
    for attr in ("flow_sample", "loss_n_step", "loss_cts_time", "reconstruction_loss",
                 "output_distribution", "generate", "bayes_update"):
        points.append((discrete, attr, f"discrete.{attr}", None))
    for attr in sorted(harness.__dict__):
        if attr.startswith("check_"):
            points.append((harness, attr, "harness.check", None))
    return points + kernel_points + numeric_points


def install(tracer):
    for owner, attr, name, counter in trace_points():
        tracer.patch(owner, attr, name, counter)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _timed(timings, name, fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    timings.setdefault(name, []).append(time.perf_counter() - t0)
    return out


def strings_config(seed, steps):
    run_cfg = cli.load_run_config(STRINGS_CONFIG, (f"steps={steps}", "eval_every=0", f"seed={seed}"))
    return cli.train_config_from_run(run_cfg)


def strings_dataset(config, workdir, timings):
    """The bundled strings written and read back through the dataset format."""
    path = os.path.join(workdir, "toy_strings.ds")
    data.save_dataset(path, data.toy_strings())
    ds = _timed(timings, "data.load_dataset", data.load_dataset, path)
    if (ds.modality, ds.D, ds.K) != (config.modality, config.D, config.K):
        raise ValueError("strings dataset does not match the bundled config")
    return ds.items


def image_config(seed):
    return training.TrainConfig(
        modality="discretised", D=64, K=256, schedule_preset="cts-256bin",
        batch_size=32, steps=IMAGE_STEPS, learning_rate=1e-3, seed=seed, hidden=(256, 256),
    )


def image_bytes(seed, count=IMAGE_COUNT):
    """8x8 8-bit images: a random linear ramp and one Gaussian blob plus noise."""
    gen = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:8, 0:8] / 7.0 - 0.5
    ramp = gen.uniform(-1.0, 1.0, size=(count, 2))
    level = gen.uniform(60.0, 190.0, size=count)
    blob_at = gen.uniform(-0.5, 0.5, size=(count, 2))
    blob_amp = gen.uniform(-80.0, 80.0, size=count)
    img = (
        level[:, None, None]
        + 90.0 * (ramp[:, 0, None, None] * xx + ramp[:, 1, None, None] * yy)
        + blob_amp[:, None, None] * np.exp(
            -((xx - blob_at[:, 0, None, None]) ** 2 + (yy - blob_at[:, 1, None, None]) ** 2) / 0.08
        )
        + gen.normal(0.0, 6.0, size=(count, 8, 8))
    )
    return np.clip(np.rint(img), 0, 255).astype(np.uint8).tobytes()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    pass_units = None  # or: one pass of this many units, run whole

    def setup(self, seed, workdir, timings):
        """Build the inputs; ``timings`` collects the set-up layer times."""
        raise NotImplementedError

    def unit(self, state, rep):
        """One unit of work; returns (operations, outputs to check)."""
        raise NotImplementedError

    def check(self, state, outputs, checks):
        raise NotImplementedError

    def summary(self, state, first_outputs, ops_per_s, unit_times):
        """The workload's own end-to-end values, each (value, unit)."""
        raise NotImplementedError

    @staticmethod
    def same_output(a, b):
        """Whether two outputs of the same unit are bit-identical."""
        raise NotImplementedError


class TrainWorkload(Workload):
    def unit(self, state, rep):
        config = state["config"]
        try:
            result = training.train(Rng(config.seed).split(rep), state["dataset"], config)
        except RuntimeError as exc:  # train() stops at the first non-finite loss
            return config.steps, exc
        return config.steps, result

    def check(self, state, result, checks):
        if isinstance(result, RuntimeError):
            checks.expect(False, f"training stopped: {result}")
            return
        losses = np.array([h[1] for h in result.history])
        checks.expect(losses.size == state["config"].steps and np.all(np.isfinite(losses)),
                      "non-finite or missing train loss")

    def summary(self, state, first, ops_per_s, unit_times):
        losses = [h[1] for h in first.history] if not isinstance(first, RuntimeError) else [math.nan]
        tail = losses[-max(1, len(losses) // 10):]
        return {
            "train_steps_per_s": (ops_per_s, "steps/s"),
            "train_loss_final": (float(np.mean(tail)), "nats"),
        }

    @staticmethod
    def same_output(a, b):
        if isinstance(a, RuntimeError) or isinstance(b, RuntimeError):
            return str(a) == str(b)
        return (np.array_equal(a.mlp.params, b.mlp.params)
                and np.array_equal(a.ema_params, b.ema_params))


class TrainStrings(TrainWorkload):
    name = "train-strings"

    def setup(self, seed, workdir, timings):
        config = strings_config(seed, STRINGS_STEPS)
        return {"config": config, "dataset": strings_dataset(config, workdir, timings)}


class TrainImage(TrainWorkload):
    name = "train-image-k256"

    def setup(self, seed, workdir, timings):
        config = image_config(seed)
        ds = _timed(timings, "data.ingest_bytes", data.ingest_bytes, image_bytes(seed), 64, "discretised", 256)
        path = os.path.join(workdir, "images.ds")
        data.save_dataset(path, ds)
        ds = _timed(timings, "data.load_dataset", data.load_dataset, path)
        # training.train takes bin centres; the CLI's 1-based indices are rejected
        centres = discretised.BinGeometry(ds.K).centers[ds.items - 1]
        return {"config": config, "dataset": centres}


class EvalSampleStrings(Workload):
    name = "eval-sample-strings"

    def setup(self, seed, workdir, timings):
        config = strings_config(seed, FIXTURE_STEPS)
        items = strings_dataset(config, workdir, timings)
        result = training.train(Rng(seed), items, config)
        ckpt = os.path.join(workdir, "model.ckpt")
        _timed(timings, "training.save_checkpoint", training.save_checkpoint, ckpt, result)
        loaded, _ = _timed(timings, "training.load_checkpoint", training.load_checkpoint, ckpt)
        if not np.array_equal(loaded.ema_params, result.ema_params):
            raise ValueError("checkpoint round trip changed the EMA parameters")
        return {"result": loaded, "dataset": items, "seed": seed}

    def unit(self, state, rep):
        result, items = state["result"], state["dataset"]
        config = result.config
        rng = Rng(state["seed"]).split(rep)
        t0 = time.perf_counter()
        pred = training.ema_predictor(result)
        rows = training.evaluate(rng.split(0), pred, config, items, n_values=EVAL_N_VALUES, passes=EVAL_PASSES)
        t1 = time.perf_counter()
        samples = [
            discrete.generate(rng.split(1 + i), pred, config.schedule, SAMPLE_STEPS, config.K, config.D)
            for i in range(SAMPLE_COUNT)
        ]
        t2 = time.perf_counter()
        loss_samples = sum(r["samples"] for r in rows)
        state.setdefault("eval", []).append((loss_samples, t1 - t0))
        state.setdefault("sample", []).append((SAMPLE_COUNT * SAMPLE_STEPS, t2 - t1))
        return loss_samples + SAMPLE_COUNT * SAMPLE_STEPS, (rows, samples)

    def check(self, state, outputs, checks):
        rows, samples = outputs
        config = state["result"].config
        expected = EVAL_PASSES * len(state["dataset"])
        for r in rows:
            finite = all(math.isfinite(r[k]) for k in ("nats", "se_nats", "nats_per_dim", "bits_per_dim"))
            checks.expect(finite and r["samples"] == expected and r["bits_per_dim"] == r["nats_per_dim"] / LN2,
                          f"eval row {r['label']}: {r}")
        checks.expect(len(rows) == len(EVAL_N_VALUES) + 2, "eval table lacks rows")
        for s in samples:
            checks.expect(s.shape == (config.D,) and np.all((s >= 1) & (s <= config.K)),
                          "generated class index outside 1..K")

    def summary(self, state, first, ops_per_s, unit_times):
        rows, _ = first
        inf = next(r for r in rows if r["label"] == "inf")
        ev = np.array(state["eval"])
        sm = np.array(state["sample"])
        return {
            "eval_loss_samples_per_s": (float(np.median(ev[:, 0] / ev[:, 1])), "samples/s"),
            "eval_bits_per_dim": (inf["bits_per_dim"], "bits/dim"),
            "eval_inf_se_nats": (inf["se_nats"], "nats"),
            "sample_steps_per_s": (float(np.median(sm[:, 0] / sm[:, 1])), "steps/s"),
        }

    @staticmethod
    def same_output(a, b):
        return a[0] == b[0] and all(np.array_equal(x, y) for x, y in zip(a[1], b[1]))


class Verify(Workload):
    """``harness.run_all(seed)`` one property at a time (its name filter
    selects exactly one), so host speed can be calibrated between them."""

    name = "verify"
    pass_units = len(harness.ALL_PROPERTIES)

    def setup(self, seed, workdir, timings):
        return {"seed": seed, "reports": []}

    def unit(self, state, rep):
        reports = harness.run_all(state["seed"], name_filter=harness.ALL_PROPERTIES[rep])
        state["reports"].extend(reports)
        return len(reports), reports

    def check(self, state, reports, checks):
        for r in reports:
            checks.expect(r.passed, f"verify property {r.property_id} failed: {r.summary()}")

    def summary(self, state, first, ops_per_s, unit_times):
        reports = state["reports"]
        if sorted(r.property_id for r in reports) != sorted(harness.ALL_PROPERTIES):
            raise RuntimeError("verify did not run every property exactly once")
        worst = max(reports, key=lambda r: r.statistic / r.tolerance)
        return {
            "verify_s": (float(sum(unit_times)), "s"),
            "verify_max_stat_to_tol": (worst.statistic / worst.tolerance, "ratio"),
            "verify_worst_property": (worst.property_id, ""),
        }

    @staticmethod
    def same_output(a, b):
        return [r.to_line() for r in a] == [r.to_line() for r in b]


WORKLOADS = {w.name: w for w in (TrainStrings(), TrainImage(), EvalSampleStrings(), Verify())}

