"""Training: continuous-time loss minimisation with AdamW and an EMA of
the parameters, plus loss-table evaluation and a versioned checkpoint
format.

The modality modules share one op set over one ``FlowConfig``, which
``TrainConfig`` builds once; every call here finds the module in ``OPS``.

Training always minimises the continuous-time loss; the n-step losses are
evaluation-only.  Each step draws one time per batch item and the whole
batch's flow state in one call of the modality's ``flow_sample``, runs the
network once over the batch on ``net_input`` of that state, and
backpropagates the analytic gradient of the modality's ``loss_inf``
through the recorded tape, which writes the gradient straight into one
flat vector.  ``adamw_step`` then updates the parameters, both moments and
the EMA in place, in one cache-sized pass per chunk of the vector, so a
step allocates no parameter-sized temporaries beyond that gradient.
Evaluation scores a chunk of items per call of ``schedule.loss_cts`` over
the modality's ops (the same ``loss_inf``, without the gradient), or of
its batched ``loss_n`` or ``recon``.

When the process may run on two or more CPUs, ``train`` starts one
``Worker``, a one-thread ``concurrent.futures.ThreadPoolExecutor``, for
the run and joins it before it returns or raises.  numpy releases the GIL
inside its ufuncs and BLAS calls, so the two threads compute at once:
``adamw_step`` splits the vectors into two contiguous halves, the caller
walking one and the worker the other, and ``MLP.backward_batch`` hands a
layer's weight and bias gradient to the worker while the caller computes
the next layer's delta.  Every element gets the same operations in the
same order and every product is the same BLAS call on the same shapes,
run at one BLAS thread (``numerics.use_one_blas_thread``), so the results
depend neither on the number of CPUs nor on the BLAS thread setting.

The gradients are deterministic functions of the sampled state, so they
can be checked against central finite differences; the test suite does
exactly that for all three modalities.
"""

import contextvars
import itertools
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import continuous as cts
from . import discrete as dd
from . import discretised as dsc
from .predictor import MLP, PredictorSpec
from .schedule import PRESETS, ContinuousSigma, DiscreteQuadratic, FlowConfig, loss_cts

CHECKPOINT_MAGIC = b"BFCK"
CHECKPOINT_VERSION = 4

# the modality modules, one op set each over one FlowConfig
OPS = {"continuous": cts, "discretised": dsc, "discrete": dd}


@dataclass
class TrainConfig:
    modality: str
    D: int
    K: int = 0
    sigma1: float = 0.0       # continuous/discretised schedules
    beta1: float = 0.0        # discrete schedule
    schedule_preset: str = ""  # overrides sigma1/beta1 when set
    batch_size: int = 32
    steps: int = 1000
    learning_rate: float = 1e-4
    weight_decay: float = 0.01
    ema_decay: float = 0.9999
    seed: int = 0
    eval_every: int = 0
    hidden: tuple = (256, 256)
    n_freqs: int = 8
    t_min: float = 1e-6
    recon_sigma: float = 0.0  # continuous reconstruction noise; caller-set

    def __post_init__(self):
        if self.modality not in OPS:
            raise ValueError(f"unknown modality {self.modality!r}; expected one of {', '.join(OPS)}")
        for name in ("learning_rate", "weight_decay"):
            if not 0.0 <= getattr(self, name) < math.inf:  # NaN fails
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.ema_decay < 1.0:
            raise ValueError(f"ema_decay must lie in [0, 1), got {self.ema_decay}")
        for name, low in (("D", 1), ("batch_size", 1), ("steps", 1), ("eval_every", 0), ("n_freqs", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not self.recon_sigma >= 0.0:  # NaN fails
            raise ValueError(f"recon_sigma must be >= 0, got {self.recon_sigma}")
        # the other family's schedule field, discrete data's t_min and the continuous-only noise keep defaults
        ignored = ["sigma1", "t_min"] if self.modality == "discrete" else ["beta1"]
        ignored += ["recon_sigma"] if self.modality != "continuous" else []
        for f in fields(self):
            if f.name in ignored and getattr(self, f.name) != f.default:
                raise ValueError(f"{self.modality} data takes no {f.name}, got {getattr(self, f.name)}")
        if any(width < 1 for width in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {','.join(map(str, self.hidden))}")
        if self.schedule_preset:  # its sigma1 or beta1 replaces the field's
            family = DiscreteQuadratic if self.modality == "discrete" else ContinuousSigma
            names = [name for name, sched in PRESETS.items() if isinstance(sched, family)]
            if self.schedule_preset not in names:
                raise ValueError(
                    f"schedule_preset {self.schedule_preset!r} is not a {self.modality} preset; "
                    f"expected one of {', '.join(names)}"
                )
            for name, value in vars(PRESETS[self.schedule_preset]).items():
                setattr(self, name, value)
        # built once; not fields, so asdict and the checkpoint header omit
        # them.  net_widths rejects a K that the modality cannot take.
        sched = DiscreteQuadratic(self.beta1) if self.modality == "discrete" else ContinuousSigma(self.sigma1)
        self.flow = FlowConfig(sched, self.D, self.K, self.t_min, self.recon_sigma)
        self.widths = OPS[self.modality].net_widths(self.flow)

    @property
    def schedule(self):
        return self.flow.schedule

    @property
    def has_recon(self):  # the continuous reconstruction loss needs a noise std
        return self.modality != "continuous" or self.recon_sigma > 0

    def predictor_spec(self):
        return PredictorSpec(*self.widths, tuple(self.hidden), self.n_freqs)


# (beta1, beta2) of every training run's adamw_step.
ADAM_BETAS = (0.9, 0.98)


class Worker:
    """One helper thread that runs ``submit(fn, *args)`` calls in submission
    order, each in a copy of the submitter's ``contextvars`` context, so
    numpy's ``errstate`` reaches it.  ``wait()`` lets every call finish,
    then re-raises the first error; until it returns, the submitter must
    not write into an array a pending call uses, and it holds each call's
    arguments, so none is freed on the helper.  ``close()`` joins it."""

    def __init__(self):
        from concurrent.futures import ThreadPoolExecutor  # not at module level: a one-CPU run never needs it
        self._executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="bflow-worker")
        self._pending = []

    def submit(self, fn, *args):
        box = [(contextvars.copy_context(), fn, args)]  # _run empties it: the executor keeps it past the call
        self._pending.append((args, self._executor.submit(_run, box)))

    def wait(self):
        pending, self._pending = self._pending, []
        for error in [future.exception() for _, future in pending]:  # the list waits for every call
            if error is not None:
                raise error

    def close(self):
        self._executor.shutdown()


def _run(box):
    context, fn, args = box.pop()
    context.run(fn, *args)


def _usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Elements of each of adamw_step's two scratch buffers.  A pass walks at
# most ADAMW_CHUNK // 2 elements and touches seven slices of that many
# float64 values (params, grads, m, v, ema and a slice of each scratch
# buffer, 1.75 MiB at 32k), which stay in a core's L2 cache, so each state
# element travels to and from memory once per step.  A step split with a
# Worker gives each half its own half of both buffers; a step on one
# thread allocates only one half.  For the 291k-parameter strings model
# on a 2-core x86_64 VM (2 MiB of L2 a core, one BLAS thread; medians of
# 20 interleaved rounds of 100 calls) the update took 2.75, 2.40, 2.26
# and 2.37 ms on one thread in passes of 8k, 16k, 32k and 64k elements,
# and 3.98, 2.29, 1.51 and 1.48 ms split between two.  Below 32k the GIL
# handoffs between a split step's ufunc calls eat its gain.
ADAMW_CHUNK = 65536


def _adamw_passes(flat, s1, s2, lo, hi, width, beta1, beta2, ema_decay, scale, eps_c, shrink):
    """adamw_step's update of elements lo to hi of the five flat vectors,
    in passes of at most ``width`` elements through the scratch buffers s1
    and s2, each at least that long."""
    for s in range(lo, hi, width):
        p, g, mc, vc, ec = (a[s : min(s + width, hi)] for a in flat)
        t1, t2 = s1[: p.size], s2[: p.size]
        np.multiply(mc, beta1, out=mc)
        np.multiply(g, 1.0 - beta1, out=t1)
        np.add(mc, t1, out=mc)
        np.multiply(vc, beta2, out=vc)
        np.multiply(g, 1.0 - beta2, out=t1)
        np.multiply(t1, g, out=t1)
        np.add(vc, t1, out=vc)
        np.sqrt(vc, out=t2)
        np.add(t2, eps_c, out=t2)
        np.multiply(mc, scale, out=t1)
        np.divide(t1, t2, out=t1)
        if shrink != 1.0:  # p * 1.0 is p, bit for bit
            np.multiply(p, shrink, out=p)
        np.subtract(p, t1, out=p)
        np.multiply(ec, ema_decay, out=ec)
        np.multiply(p, 1.0 - ema_decay, out=t1)
        np.add(ec, t1, out=ec)


def adamw_step(params, grads, m, v, ema, step, lr, weight_decay, beta1, beta2, ema_decay, eps=1e-8, worker=None):
    """One decoupled-weight-decay adaptive-moment update with bias
    correction, then the EMA of the updated parameters.

    Updates ``params``, ``m``, ``v`` and ``ema`` in place and returns them
    as (params, m, v, ema).  It walks the vectors in passes of at most
    ADAMW_CHUNK // 2 elements with ``out=`` ufuncs into two scratch
    buffers: a pass's working set stays in L2 cache, so the update
    allocates no full-size temporaries and reads and writes the state
    once.  Given a ``Worker`` and more than one pass of elements, it
    splits the vectors at their middle: the worker walks the second half
    while the caller walks the first, each in its own slice of the two
    scratch buffers.  Otherwise the caller walks the whole vectors.  Per
    element it computes

        m = b1*m + (1-b1)*g
        v = b2*v + ((1-b2)*g)*g
        p = p*shrink - (m*scale) / (sqrt(v) + eps_c)
        ema = d*ema + (1-d)*p

    in that operation order, with c1 = 1 - b1**step, c2 = 1 - b2**step and
    the per-step scalars scale = lr*sqrt(c2)/c1, eps_c = eps*sqrt(c2) and
    shrink = 1 - lr*wd.  That is Adam's update lr*(m/c1) / (sqrt(v/c2) + eps)
    with the bias corrections folded into one step scale (Kingma & Ba, the
    note under Algorithm 1) and the decoupled weight decay as a factor
    (Loshchilov & Hutter).  A pass makes 15 ufunc calls: three for m,
    four for v, four for the update, one to subtract it, three for the
    EMA, and a 16th, ``p *= shrink``, unless shrink is 1.  No element's
    value depends on the pass it falls in or on the thread that walks it.

    The five arrays must be distinct, non-overlapping, C-contiguous float64
    arrays of one shape: an in-place update on aliased arrays would corrupt
    the state silently, so that raises ValueError.
    """
    arrays = {"params": params, "grads": grads, "m": m, "v": v, "ema": ema}
    for name, a in arrays.items():
        if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.c_contiguous):
            raise ValueError(f"{name} must be a C-contiguous float64 array")
        if a.shape != params.shape:
            raise ValueError(f"{name} has shape {a.shape}, params {params.shape}")
    for (a, x), (b, y) in itertools.combinations(arrays.items(), 2):
        # contiguous arrays share memory exactly when their extents overlap
        if np.may_share_memory(x, y):
            raise ValueError(f"{a} and {b} share memory")
    c1 = 1.0 - beta1**step
    root_c2 = math.sqrt(1.0 - beta2**step)
    scalars = (beta1, beta2, ema_decay, lr * root_c2 / c1, eps * root_c2, 1.0 - lr * weight_decay)
    n = params.size
    flat = [a.reshape(-1) for a in (params, grads, m, v, ema)]
    if worker is None or n <= ADAMW_CHUNK // 2:
        width = min(n, ADAMW_CHUNK // 2)
        _adamw_passes(flat, np.empty(width), np.empty(width), 0, n, width, *scalars)
        return params, m, v, ema
    mid = n // 2
    width = min(n - mid, ADAMW_CHUNK // 2)
    s1, s2 = np.empty(2 * width), np.empty(2 * width)
    worker.submit(_adamw_passes, flat, s1[width:], s2[width:], mid, n, width, *scalars)
    try:
        _adamw_passes(flat, s1[:width], s2[:width], 0, mid, width, *scalars)
    finally:
        worker.wait()
    return params, m, v, ema


# ---------------------------------------------------------------------------
# The training head: one (time, flow state) draw per batch item, then the
# modality's continuous-time loss with its gradient w.r.t. the raw network
# output.  Both are the modality modules' batched ops.
# ---------------------------------------------------------------------------


def sample_head_state(rng, config, x_batch):
    """Draw (t, flow state theta, network input) for one batch."""
    t = rng.uniform(size=x_batch.shape[0])
    ops = OPS[config.modality]
    theta = ops.flow_sample(rng, config.flow, x_batch, t)
    return {"t": t, "theta": theta, "state_in": ops.net_input(config.flow, theta), "x": x_batch}


def head_loss_and_grad(config, state, net_out):
    """Per-item continuous-time losses and dLoss/dOutput for the batch."""
    return OPS[config.modality].loss_inf(config.flow, state["x"], state["theta"], state["t"], net_out, grad=True)


def batch_loss_and_grad(mlp, config, state, worker=None):
    """Mean loss over the batch and its gradient w.r.t. MLP parameters;
    ``worker`` as in ``MLP.backward_batch``."""
    out = mlp.forward_batch(state["state_in"], state["t"], record=True)
    loss, d_out = head_loss_and_grad(config, state, out)
    grad = mlp.backward_batch(d_out / loss.shape[0], worker=worker)
    return float(loss.mean()), grad


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    mlp: MLP
    ema_params: np.ndarray
    moments_m: np.ndarray
    moments_v: np.ndarray
    history: list = field(default_factory=list)  # (step, train_loss, eval_loss|None)
    config: TrainConfig = None
    step: int = 0  # the optimizer steps taken, which a checkpoint keeps


def check_dataset(config, dataset):
    """The dataset as an array; raise unless it holds items, every value is
    finite and the modality's ``check_data`` accepts it."""
    dataset = np.asarray(dataset)
    if dataset.size == 0:
        raise ValueError("dataset is empty")
    _check_finite("dataset", dataset)
    OPS[config.modality].check_data(config.flow, dataset)
    return dataset


def _check_finite(what, array):
    """Raise unless every value of array is finite, naming what and the first bad value."""
    bad = np.argwhere(~np.isfinite(array))
    if bad.size:
        raise ValueError(
            f"{what} holds non-finite values ({len(bad)} of {array.size}), "
            f"the first {array[tuple(bad[0])]} at index {tuple(bad[0].tolist())}"
        )


def train(rng, dataset, config):
    """Minimise the continuous-time loss over the dataset.

    Every step uses the substream ``rng.split(step)``, so the diagnostic on
    a non-finite loss pins down the exact batch randomness.  The history's
    eval loss, every ``eval_every`` steps, is the ∞ row of ``evaluate`` at
    the EMA on up to 64 items drawn from ``rng.split(10**9 + step)``.  On two or more
    usable CPUs one ``Worker`` shares the backward pass and the optimizer
    step for the whole run; it is joined before train returns or raises,
    and the results are the same bits as on one CPU.
    """
    dataset = check_dataset(config, dataset)
    mlp = MLP(config.predictor_spec(), seed=config.seed)
    ema = mlp.params.copy()
    m = np.zeros_like(mlp.params)
    v = np.zeros_like(mlp.params)
    history = []
    worker = Worker() if _usable_cpus() >= 2 else None
    try:
        for step in range(1, config.steps + 1):
            srng = rng.split(step)
            idx = srng.integers(0, len(dataset), size=config.batch_size)
            state = sample_head_state(srng, config, dataset[idx])
            loss, grad = batch_loss_and_grad(mlp, config, state, worker)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite loss at step {step} (batch stream id {step}, seed {config.seed})"
                )
            mlp.params, m, v, ema = adamw_step(
                mlp.params, grad, m, v, ema, step,
                config.learning_rate, config.weight_decay, *ADAM_BETAS, config.ema_decay, worker=worker,
            )
            eval_loss = None
            if config.eval_every and step % config.eval_every == 0:
                erng = rng.split(10**9 + step)
                items = dataset[erng.integers(0, len(dataset), size=min(len(dataset), 64))]
                eval_loss = evaluate_row(erng, MLP(mlp.spec, params=ema), config, items, 0, "inf", 4)["nats"]
            history.append((step, loss, eval_loss))
    finally:
        if worker is not None:
            worker.close()
    return TrainResult(mlp=mlp, ema_params=ema, moments_m=m, moments_v=v, history=history, config=config,
                       step=config.steps)


def history_to_csv(history):
    lines = ["step,train_loss,eval_loss"]
    for step, train_loss, eval_loss in history:
        ev = "" if eval_loss is None else f"{eval_loss!r}"
        lines.append(f"{step},{train_loss!r},{ev}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Evaluation tables
# ---------------------------------------------------------------------------


def item_losses(rng, predictor, config, x, kind, arg):
    """Per-item losses (B,), in nats, for a (B, D) batch by one batched op:
    kind "inf" is loss_cts at times arg (B,), "recon" is recon, and an int
    n is loss_n at steps arg (B,) of n."""
    ops = OPS[config.modality]
    if kind == "inf":
        return loss_cts(ops, rng, predictor, config.flow, x, arg)
    if kind == "recon":
        return ops.recon(rng, predictor, config.flow, x)
    return ops.loss_n(rng, predictor, config.flow, x, kind, arg)


# Items per batched loss call in evaluate, to bound memory: one unchunked pass
# over 10,000 8x8 images at K=256 would allocate about 1.3 GB of bin masses, a
# chunk of 128 images 17 MB.  The draws do not depend on it: a pass draws every
# item's step or time first, then each item's noise in dataset order.
EVAL_CHUNK = 128


def evaluate(rng, predictor, config, dataset, n_values=(10, 25, 50, 100), passes=2):
    """Loss table: one row per step count plus the continuous-time limit
    and the reconstruction loss, each sampled once per item per pass.

    Pass p of table row li draws a step or time for every item from
    ``rng.split(li * 1_000_003 + p)``, then the items' noise, EVAL_CHUNK
    items per call.  Every item draws the same size of noise block at any
    step or time, t = 0 included, and the network sees every item's row,
    so an item's loss depends only on the seed, the item and its position,
    not on the other items' steps.  The recon row is left out unless
    config.has_recon.

    Returns a list of dicts with nats, nats per dimension, bits per
    dimension and the standard error of the mean.
    """
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    if bad := [n for n in n_values if not (n >= 1 and n % 1 == 0)]:  # NaN fails
        raise ValueError(f"step counts must be whole numbers >= 1, got {bad[0]}")
    dataset = check_dataset(config, dataset)
    kinds = [int(n) for n in n_values] + ["inf", "recon"][: 2 if config.has_recon else 1]
    return [evaluate_row(rng, predictor, config, dataset, li, kind, passes) for li, kind in enumerate(kinds)]


def evaluate_row(rng, predictor, config, dataset, li, kind, passes):
    """Row li of ``evaluate``'s table, of kind an int n, "inf" or "recon",
    over a dataset array that ``check_dataset`` passed."""
    N = len(dataset)
    samples = []
    for p in range(passes):
        prng = rng.split(li * 1_000_003 + p)
        if kind == "inf":
            arg = prng.uniform(size=N)
        elif kind != "recon":
            arg = prng.integers(1, kind + 1, size=N)
        for s in range(0, N, EVAL_CHUNK):
            part = None if kind == "recon" else arg[s : s + EVAL_CHUNK]
            samples.append(item_losses(prng, predictor, config, dataset[s : s + EVAL_CHUNK], kind, part))
    samples = np.concatenate(samples)
    mean = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(samples.size)) if samples.size > 1 else 0.0
    return {"label": str(kind), "nats": mean, "se_nats": se, "nats_per_dim": mean / config.D,
            "bits_per_dim": mean / config.D / math.log(2.0), "samples": int(samples.size)}


def format_eval_table(rows):
    head = f"{'steps':>8} {'nats':>12} {'se':>10} {'nats/dim':>10} {'bits/dim':>10}"
    lines = [head, "-" * len(head)]
    for r in rows:
        label = "∞" if r["label"] == "inf" else r["label"]
        lines.append(
            f"{label:>8} {r['nats']:>12.4f} {r['se_nats']:>10.4f} "
            f"{r['nats_per_dim']:>10.4f} {r['bits_per_dim']:>10.4f}"
        )
    return "\n".join(lines)


def eval_rows_to_csv(rows):
    lines = ["steps,nats,se_nats,nats_per_dim,bits_per_dim,samples"]
    for r in rows:
        lines.append(
            f"{r['label']},{r['nats']!r},{r['se_nats']!r},"
            f"{r['nats_per_dim']!r},{r['bits_per_dim']!r},{r['samples']}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Checkpoints: magic | u32 version | u64 header length | JSON header |
# payload.  The header's config fixes the parameter count n, so the payload
# is the parameters, the EMA and the two AdamW moments, each n little-endian
# float64, in that order.
# ---------------------------------------------------------------------------


def save_checkpoint(path, result, run_config=None):
    """Write the versioned container; ``run_config`` is an optional raw
    key-value snapshot (paths, display shape) stored for provenance."""
    header = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(result.config),
        "run_config": run_config or {},
        "step": result.step,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, len(header_bytes)) + header_bytes)
        for arr in (result.mlp.params, result.ema_params, result.moments_m, result.moments_v):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint; a truncated, inconsistent or non-finite one raises ValueError.

    Every returned array is its own C-contiguous copy, as ``adamw_step``
    requires.  The header's length and the payload's size are checked
    against the file's size before they are read, and each array is read
    straight into its own buffer, so a load holds no second copy of the
    payload and a damaged length field allocates nothing.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        fixed = fh.read(16)
        if fixed[:4] != CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint file (magic {fixed[:4]!r})")
        if len(fixed) < 16:
            raise ValueError("checkpoint truncated inside its fixed header")
        version, hlen = struct.unpack_from("<IQ", fixed, 4)
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        if size - 16 < hlen:
            raise ValueError(f"checkpoint truncated inside its {hlen}-byte JSON header")
        try:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except ValueError as exc:
            raise ValueError(f"checkpoint JSON header is corrupt: {exc}") from None
        if not isinstance(header, dict) or "config" not in header:
            raise ValueError("checkpoint header lacks config")
        if type(step := header.get("step")) is not int or step < 0:
            raise ValueError(f"checkpoint step must be an int >= 0, got {step!r}")
        try:
            cfg_dict = dict(header["config"])
            cfg_dict["hidden"] = tuple(cfg_dict["hidden"])
            config = TrainConfig(**cfg_dict)
            n = config.predictor_spec().n_params
        except (KeyError, TypeError) as exc:
            raise ValueError(f"checkpoint config is malformed: {exc!r}") from None
        payload = size - 16 - hlen
        if payload != 32 * n:
            raise ValueError(
                f"checkpoint payload is {payload} bytes, expected {32 * n}: "
                f"params, EMA, m and v of {n} float64 values each"
            )
        params, ema, m, v = arrays = [np.empty(n, dtype="<f8") for _ in range(4)]
        for name, arr in zip(("params", "EMA", "m", "v"), arrays):
            if fh.readinto(arr) != arr.nbytes:
                raise ValueError("checkpoint file shrank while it was read")
            _check_finite(f"checkpoint {name}", arr)
    mlp = MLP(config.predictor_spec(), params=params)
    return TrainResult(mlp=mlp, ema_params=ema, moments_m=m, moments_v=v, config=config, step=step), header


def ema_predictor(result):
    """The evaluation-time predictor: the MLP carrying the EMA parameters."""
    return MLP(result.config.predictor_spec(), params=result.ema_params.copy())
