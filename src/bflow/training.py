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

The gradients are deterministic functions of the sampled state, so they
can be checked against central finite differences; the test suite does
exactly that for all three modalities.
"""

import itertools
import json
import math
import struct
from dataclasses import asdict, dataclass, field

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
        # the other family's schedule field, and the continuous-only noise
        ignored = ["sigma1" if self.modality == "discrete" else "beta1"]
        ignored += ["recon_sigma"] if self.modality != "continuous" else []
        for name in ignored:
            if getattr(self, name) != 0.0:
                raise ValueError(f"{self.modality} data takes no {name}, got {getattr(self, name)}")
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

# Elements per pass of adamw_step.  A pass touches seven 128 KiB float64
# slices (params, grads, m, v, ema and the two scratch buffers, 256 KiB of
# the 896 KiB), which stay in a core's L2 cache, so each state element
# travels to and from memory once per step.  For the 291k-parameter strings
# model on a 2-core x86_64 VM (2 MiB of L2 a core) the 15-pass update took
# 2.03 ms in 8k-element passes, 1.86 ms in 16k, 1.81 ms in 32k and 1.89 ms
# in 64k (medians of 12 to 16 alternating rounds of 200 calls); 32k doubles
# the scratch for a gain inside the rounds' spread.
ADAMW_CHUNK = 16384


def adamw_step(params, grads, m, v, ema, step, lr, weight_decay, beta1, beta2, ema_decay, eps=1e-8):
    """One decoupled-weight-decay adaptive-moment update with bias
    correction, then the EMA of the updated parameters.

    Updates ``params``, ``m``, ``v`` and ``ema`` in place and returns them
    as (params, m, v, ema).  It walks the vectors ADAMW_CHUNK elements at a
    time with ``out=`` ufuncs into two chunk-sized scratch buffers: a
    chunk's working set stays in L2 cache, so the update allocates no
    full-size temporaries and reads and writes the state once.  Per element
    it computes

        m = b1*m + (1-b1)*g
        v = b2*v + ((1-b2)*g)*g
        p = p*shrink - (m*scale) / (sqrt(v) + eps_c)
        ema = d*ema + (1-d)*p

    in that operation order, with c1 = 1 - b1**step, c2 = 1 - b2**step and
    the per-step scalars scale = lr*sqrt(c2)/c1, eps_c = eps*sqrt(c2) and
    shrink = 1 - lr*wd.  That is Adam's update lr*(m/c1) / (sqrt(v/c2) + eps)
    with the bias corrections folded into one step scale (Kingma & Ba, the
    note under Algorithm 1) and the decoupled weight decay as a factor
    (Loshchilov & Hutter).  A chunk takes 15 passes: three for m, four for
    v, four for the update, one to subtract it, three for the EMA, and a
    16th, ``p *= shrink``, unless shrink is 1.

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
    scale = lr * root_c2 / c1
    eps_c = eps * root_c2
    shrink = 1.0 - lr * weight_decay
    n = params.size
    s1 = np.empty(min(n, ADAMW_CHUNK))
    s2 = np.empty_like(s1)
    flat = [a.reshape(-1) for a in (params, grads, m, v, ema)]
    for s in range(0, n, ADAMW_CHUNK):
        p, g, mc, vc, ec = (a[s : s + ADAMW_CHUNK] for a in flat)
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


def batch_loss_and_grad(mlp, config, state):
    """Mean loss over the batch and its gradient w.r.t. MLP parameters."""
    out = mlp.forward_batch(state["state_in"], state["t"], record=True)
    loss, d_out = head_loss_and_grad(config, state, out)
    grad = mlp.backward_batch(d_out / loss.shape[0])
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


def train(rng, dataset, config):
    """Minimise the continuous-time loss over the dataset.

    Every step uses the substream ``rng.split(step)``, so the diagnostic on
    a non-finite loss pins down the exact batch randomness.
    """
    dataset = np.asarray(dataset)
    if dataset.size == 0:
        raise ValueError("dataset is empty")
    bad = np.argwhere(~np.isfinite(dataset))
    if bad.size:
        raise ValueError(
            f"dataset holds non-finite values ({len(bad)} of {dataset.size}), "
            f"the first {dataset[tuple(bad[0])]} at index {tuple(bad[0].tolist())}"
        )
    OPS[config.modality].check_data(config.flow, dataset)
    mlp = MLP(config.predictor_spec(), seed=config.seed)
    ema = mlp.params.copy()
    m = np.zeros_like(mlp.params)
    v = np.zeros_like(mlp.params)
    history = []
    for step in range(1, config.steps + 1):
        srng = rng.split(step)
        idx = srng.integers(0, len(dataset), size=config.batch_size)
        state = sample_head_state(srng, config, dataset[idx])
        loss, grad = batch_loss_and_grad(mlp, config, state)
        if not np.isfinite(loss):
            raise RuntimeError(
                f"non-finite loss at step {step} (batch stream id {step}, seed {config.seed})"
            )
        mlp.params, m, v, ema = adamw_step(
            mlp.params, grad, m, v, ema, step,
            config.learning_rate, config.weight_decay, *ADAM_BETAS, config.ema_decay,
        )
        eval_loss = None
        if config.eval_every and step % config.eval_every == 0:
            eval_loss = estimate_mean_loss(rng.split(10**9 + step), mlp, ema, config, dataset)
        history.append((step, loss, eval_loss))
    return TrainResult(mlp=mlp, ema_params=ema, moments_m=m, moments_v=v, history=history, config=config)


def estimate_mean_loss(rng, mlp, params, config, dataset, n_draws=4):
    """Mean continuous-time loss of mlp's network under the given parameter
    vector; mlp itself is left as it is."""
    net = MLP(mlp.spec, params=params)
    take = min(len(dataset), 64)
    losses = []
    for _ in range(n_draws):
        x_batch = dataset[rng.integers(0, len(dataset), size=take)]
        t = rng.uniform(size=take)
        losses.append(item_losses(rng, net, config, x_batch, "inf", t).mean())
    return float(np.mean(losses))


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
    step or time, t = 0 included, so an item's loss depends only on the
    seed, the item and its position, not on the other items' steps.  The
    recon row is left out unless config.has_recon.

    Returns a list of dicts with nats, nats per dimension, bits per
    dimension and the standard error of the mean.
    """
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    dataset = np.asarray(dataset)
    N = len(dataset)
    rows = []
    for li, kind in enumerate([int(n) for n in n_values] + ["inf", "recon"]):
        if kind == "recon" and not config.has_recon:
            continue
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
        if not samples:
            continue
        samples = np.concatenate(samples)
        mean = float(samples.mean())
        se = float(samples.std(ddof=1) / np.sqrt(samples.size)) if samples.size > 1 else 0.0
        rows.append({
            "label": str(kind),
            "nats": mean,
            "se_nats": se,
            "nats_per_dim": mean / config.D,
            "bits_per_dim": mean / config.D / math.log(2.0),
            "samples": int(samples.size),
        })
    return rows


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
        "step": len(result.history),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, len(header_bytes)) + header_bytes)
        for arr in (result.mlp.params, result.ema_params, result.moments_m, result.moments_v):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint; a truncated or inconsistent file raises ValueError.

    Every returned array is its own C-contiguous copy, as ``adamw_step``
    requires.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"not a checkpoint file (magic {raw[:4]!r})")
    if len(raw) < 16:
        raise ValueError("checkpoint truncated inside its fixed header")
    version, hlen = struct.unpack_from("<IQ", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    if len(raw) - 16 < hlen:
        raise ValueError(f"checkpoint truncated inside its {hlen}-byte JSON header")
    try:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        header = json.loads(raw[16 : 16 + hlen].decode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"checkpoint JSON header is corrupt: {exc}") from None
    if "config" not in header:
        raise ValueError("checkpoint header lacks config")
    try:
        cfg_dict = dict(header["config"])
        cfg_dict["hidden"] = tuple(cfg_dict["hidden"])
        config = TrainConfig(**cfg_dict)
        n = config.predictor_spec().n_params
    except (KeyError, TypeError) as exc:
        raise ValueError(f"checkpoint config is malformed: {exc!r}") from None
    blob = raw[16 + hlen :]
    if len(blob) != 32 * n:
        raise ValueError(
            f"checkpoint payload is {len(blob)} bytes, expected {32 * n}: "
            f"params, EMA, m and v of {n} float64 values each"
        )
    params, ema, m, v = (row.copy() for row in np.frombuffer(blob, dtype="<f8").reshape(4, n))
    mlp = MLP(config.predictor_spec(), params=params)
    return TrainResult(mlp=mlp, ema_params=ema, moments_m=m, moments_v=v, history=[], config=config), header


def ema_predictor(result):
    """The evaluation-time predictor: the MLP carrying the EMA parameters."""
    return MLP(result.config.predictor_spec(), params=result.ema_params.copy())
