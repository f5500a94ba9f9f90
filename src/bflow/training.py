"""Training: continuous-time loss minimisation with AdamW and an EMA of
the parameters, plus loss-table evaluation and a versioned checkpoint
format.

Training always minimises the continuous-time loss; the n-step losses are
evaluation-only.  Each step draws one (time, flow state) pair per batch
item, runs the network once over the whole batch, and backpropagates the
modality head's analytic gradient through the recorded tape.

The gradient heads are deterministic functions of the sampled state, so
their output can be checked against central finite differences; the test
suite does exactly that for all three modalities.
"""

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import continuous as cts
from . import discrete as dd
from . import discretised as dsc
from .numerics import softmax_rows
from .predictor import MLP, PredictorSpec
from .schedule import PRESETS, ContinuousSigma, DiscreteQuadratic

CHECKPOINT_MAGIC = b"BFCK"
CHECKPOINT_VERSION = 1


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
    adam_beta1: float = 0.9
    adam_beta2: float = 0.98
    ema_decay: float = 0.9999
    seed: int = 0
    eval_every: int = 0
    hidden: tuple = (256, 256)
    activation: str = "silu"
    time_feature: str = "fourier"
    n_freqs: int = 8
    t_min: float = 1e-6
    recon_sigma: float = 0.0  # continuous reconstruction noise; caller-set

    def __post_init__(self):
        if not (0 < self.learning_rate or self.learning_rate == 0.0):
            raise ValueError("learning_rate must be non-negative")
        for name in ("adam_beta1", "adam_beta2", "ema_decay"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise ValueError(f"{name} must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if self.schedule_preset:
            sched = PRESETS[self.schedule_preset]
            if isinstance(sched, ContinuousSigma):
                object.__setattr__(self, "sigma1", sched.sigma1)
            else:
                object.__setattr__(self, "beta1", sched.beta1)
        self.schedule  # validates the relevant parameter

    @property
    def schedule(self):
        if self.modality == "discrete":
            return DiscreteQuadratic(self.beta1)
        return ContinuousSigma(self.sigma1)

    def predictor_spec(self):
        return PredictorSpec(
            modality=self.modality,
            D=self.D,
            K=self.K,
            hidden=tuple(self.hidden),
            activation=self.activation,
            time_feature=self.time_feature,
            n_freqs=self.n_freqs,
        )

    def cts_config(self):
        return cts.CtsConfig(sigma1=self.sigma1, D=self.D, t_min=self.t_min)


def adamw_step(params, grads, m, v, step, lr, weight_decay, beta1, beta2, eps=1e-8):
    """One decoupled-weight-decay adaptive-moment update with bias correction.

    Returns (params', m', v'); inputs are not modified.
    """
    if params.shape != grads.shape or params.shape != m.shape or params.shape != v.shape:
        raise ValueError("parameter/gradient/moment shapes do not match")
    m = beta1 * m + (1.0 - beta1) * grads
    v = beta2 * v + (1.0 - beta2) * grads * grads
    m_hat = m / (1.0 - beta1**step)
    v_hat = v / (1.0 - beta2**step)
    params = params - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * weight_decay * params
    return params, m, v


# ---------------------------------------------------------------------------
# Modality heads: loss and gradient w.r.t. the raw network output, given the
# sampled (t, flow state).  Each matches the corresponding sampling op
# exactly, including clipping and the t_min branch.
# ---------------------------------------------------------------------------


def sample_head_state(rng, config, x_batch):
    """Draw (t, flow state, network input) for one batch."""
    B = x_batch.shape[0]
    t = rng.uniform(size=B)
    if config.modality == "discrete":
        sched = config.schedule
        K = config.K
        theta = np.empty((B, config.D, K))
        for b in range(B):
            theta[b] = dd.flow_sample(rng, x_batch[b], float(t[b]), sched, K)
        state_in = np.stack([dd.encode_theta(theta[b], K) for b in range(B)])
        return {"t": t, "theta": theta, "state_in": state_in, "x": x_batch}
    cfg = config.cts_config()
    g = 1.0 - cfg.sigma1 ** (2.0 * t)
    z = rng.standard_normal(x_batch.shape)
    mu = g[:, None] * x_batch + np.sqrt(np.maximum(g * (1.0 - g), 0.0))[:, None] * z
    mu[g == 0.0] = 0.0
    return {"t": t, "mu": mu, "state_in": mu, "x": x_batch}


def head_loss_and_grad(config, state, net_out):
    """Per-item continuous-time losses and dLoss/dOutput for the batch."""
    if config.modality == "continuous":
        return _cts_head(config, state, net_out)
    if config.modality == "discretised":
        return _dsc_head(config, state, net_out)
    return _dd_head(config, state, net_out)


def _cts_head(config, state, net_out):
    cfg = config.cts_config()
    x, t, mu = state["x"], state["t"], state["mu"]
    B, D = x.shape
    w = -np.log(cfg.sigma1) * cfg.sigma1 ** (-2.0 * t)
    g = 1.0 - cfg.sigma1 ** (2.0 * t)
    live = t >= cfg.t_min
    ratio = np.zeros(B)
    ratio[live] = np.sqrt((1.0 - g[live]) / g[live])
    x_raw = np.where(live[:, None], mu / np.maximum(g, 1e-300)[:, None] - ratio[:, None] * net_out, 0.0)
    inside = (x_raw > cfg.x_min) & (x_raw < cfg.x_max)
    x_hat = np.clip(x_raw, cfg.x_min, cfg.x_max)
    resid = x - x_hat
    loss = w * np.sum(resid * resid, axis=1)
    d_out = np.where(inside & live[:, None], w[:, None] * 2.0 * (x_hat - x) * (-ratio[:, None]), 0.0)
    return loss, d_out


def _dsc_head(config, state, net_out):
    cfg = config.cts_config()
    K = config.K
    x, t, mu = state["x"], state["t"], state["mu"]
    B, D = x.shape
    w = -np.log(cfg.sigma1) * cfg.sigma1 ** (-2.0 * t)
    g = 1.0 - cfg.sigma1 ** (2.0 * t)
    live = t >= cfg.t_min
    mu_eps, ln_sigma_eps = net_out[:, :D], net_out[:, D:]
    ratio = np.zeros(B)
    ratio[live] = np.sqrt((1.0 - g[live]) / g[live])
    mu_x = np.where(live[:, None], mu / np.maximum(g, 1e-300)[:, None] - ratio[:, None] * mu_eps, 0.0)
    sigma_x = np.where(live[:, None], ratio[:, None] * np.exp(ln_sigma_eps), 1.0)

    geom = dsc.BinGeometry(K)
    # the bin masses are elementwise in (mu_x, sigma_x): one call for the batch
    probs = dsc.bin_probs_from_gaussian(mu_x.ravel(), sigma_x.ravel(), K).reshape(B, D, K)
    k_hat = probs @ geom.centers
    resid = x - k_hat
    loss = w * np.sum(resid * resid, axis=1)

    # d k_hat / d mu_x and / d sigma_x via the Gaussian pdf at interior edges,
    # in passes of dsc.ROWS_PER_PASS rows of the (B*D, K+1) edge grid
    edges = np.concatenate([geom.centers - 1.0 / K, [1.0]])
    m = mu_x.ravel()
    sig = np.maximum(sigma_x, 1e-20).ravel()
    den = sig * np.sqrt(2 * np.pi)
    dP_dmu = np.empty((B * D, K))
    dP_dsig = np.empty((B * D, K))
    for s in range(0, B * D, dsc.ROWS_PER_PASS):
        r = slice(s, s + dsc.ROWS_PER_PASS)
        zed = (edges[None, :] - m[r, None]) / sig[r, None]
        # exp(-zed^2 / 2) is exactly 0 for |zed| >= 38.61, so the pdf is only
        # evaluated inside the band; NaN stays in the band and keeps its NaN
        band = ~(np.abs(zed) >= 39.0)
        zb = zed[band]
        phi = np.zeros_like(zed)
        with np.errstate(under="ignore"):
            phi[band] = np.exp(-0.5 * zb * zb) / np.broadcast_to(den[r, None], zed.shape)[band]
        phi[:, 0] = 0.0   # boundary edges are clipped: no density flows through
        phi[:, -1] = 0.0
        np.subtract(phi[:, 1:], phi[:, :-1], out=dP_dmu[r])
        np.negative(dP_dmu[r], out=dP_dmu[r])
        np.multiply(phi, zed, out=zed)
        np.subtract(zed[:, 1:], zed[:, :-1], out=dP_dsig[r])
        np.negative(dP_dsig[r], out=dP_dsig[r])
    # the reductions run on the full (B, D, K) arrays: their summation order,
    # and so their bits, depend on the shape
    dP_dmu = dP_dmu.reshape(B, D, K)
    dP_dsig = dP_dsig.reshape(B, D, K)
    dkhat_dmu = dP_dmu @ geom.centers
    dkhat_dsig = dP_dsig @ geom.centers
    dL_dkhat = w[:, None] * 2.0 * (k_hat - x)
    d_mu_eps = np.where(live[:, None], dL_dkhat * dkhat_dmu * (-ratio[:, None]), 0.0)
    d_ln_sigma = np.where(live[:, None], dL_dkhat * dkhat_dsig * sigma_x, 0.0)
    return loss, np.concatenate([d_mu_eps, d_ln_sigma], axis=1)


def _dd_head(config, state, net_out):
    sched = config.schedule
    K = config.K
    x, t = state["x"], state["t"]
    B, D = x.shape
    weight = 0.5 * K * np.array([sched.alpha(float(tb)) for tb in t])
    eye = np.eye(K)
    onehot = eye[np.asarray(x, dtype=np.int64) - 1]  # (B, D, K)
    if K == 2:
        p1 = 1.0 / (1.0 + np.exp(-net_out))
        e1 = onehot[..., 0]
        # |e - p|^2 = 2 (e1 - p1)^2 per dimension
        loss = weight * 2.0 * np.sum((e1 - p1) ** 2, axis=1)
        d_out = weight[:, None] * 4.0 * (p1 - e1) * p1 * (1.0 - p1)
        return loss, d_out
    logits = net_out.reshape(B, D, K)
    p = softmax_rows(logits)
    diff = p - onehot
    loss = weight * np.sum(diff * diff, axis=(1, 2))
    dL_dp = weight[:, None, None] * 2.0 * diff
    inner = np.sum(dL_dp * p, axis=2, keepdims=True)
    d_logits = p * (dL_dp - inner)
    return loss, d_logits.reshape(B, D * K)


def batch_loss_and_grad(mlp, config, state):
    """Mean loss over the batch and its gradient w.r.t. MLP parameters."""
    out = mlp.forward_batch(state["state_in"], state["t"], record=True)
    loss, d_out = head_loss_and_grad(config, state, out)
    grad = mlp.backward_batch(d_out / loss.shape[0])
    return float(loss.mean()), grad


def batch_loss(mlp, config, state):
    """Mean loss only (used by finite-difference checks)."""
    out = mlp.forward_batch(state["state_in"], state["t"])
    loss, _ = head_loss_and_grad(config, state, out)
    return float(loss.mean())


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
    final_rng_state: dict = None


def train(rng, dataset, config):
    """Minimise the continuous-time loss over the dataset.

    Every step uses the substream ``rng.split(step)``, so the diagnostic on
    a non-finite loss pins down the exact batch randomness.
    """
    dataset = np.asarray(dataset)
    if dataset.size == 0:
        raise ValueError("dataset is empty")
    if config.modality == "discrete":
        if np.any(dataset < 1) or np.any(dataset > config.K):
            raise ValueError("class indices outside 1..K")
    else:
        if np.any(np.abs(dataset) > 1.0):
            raise ValueError("values outside [-1, 1]")
    mlp = MLP(config.predictor_spec(), seed=config.seed)
    ema = mlp.params.copy()
    m = np.zeros_like(mlp.params)
    v = np.zeros_like(mlp.params)
    history = []
    for step in range(1, config.steps + 1):
        srng = rng.split(step)
        idx = srng.integers(0, len(dataset), size=config.batch_size)
        x_batch = dataset[idx]
        if config.modality != "discrete":
            x_batch = np.asarray(x_batch, dtype=np.float64)
        state = sample_head_state(srng, config, x_batch)
        loss, grad = batch_loss_and_grad(mlp, config, state)
        if not np.isfinite(loss):
            raise RuntimeError(
                f"non-finite loss at step {step} (batch stream id {step}, seed {config.seed})"
            )
        mlp.params, m, v = adamw_step(
            mlp.params, grad, m, v, step,
            config.learning_rate, config.weight_decay,
            config.adam_beta1, config.adam_beta2,
        )
        ema = config.ema_decay * ema + (1.0 - config.ema_decay) * mlp.params
        eval_loss = None
        if config.eval_every and step % config.eval_every == 0:
            eval_loss = estimate_mean_loss(rng.split(10**9 + step), mlp, ema, config, dataset)
        history.append((step, loss, eval_loss))
    return TrainResult(
        mlp=mlp, ema_params=ema, moments_m=m, moments_v=v,
        history=history, config=config, final_rng_state=rng.state(),
    )


def estimate_mean_loss(rng, mlp, params, config, dataset, n_draws=4):
    """Mean continuous-time loss under the given parameter vector."""
    saved = mlp.params
    mlp.params = params
    try:
        take = min(len(dataset), 64)
        losses = []
        for _ in range(n_draws):
            idx = rng.integers(0, len(dataset), size=take)
            x_batch = dataset[idx]
            if config.modality != "discrete":
                x_batch = np.asarray(x_batch, dtype=np.float64)
            state = sample_head_state(rng, config, x_batch)
            out = mlp.forward_batch(state["state_in"], state["t"])
            loss, _ = head_loss_and_grad(config, state, out)
            losses.append(loss.mean())
        return float(np.mean(losses))
    finally:
        mlp.params = saved


def history_to_csv(history):
    lines = ["step,train_loss,eval_loss"]
    for step, train_loss, eval_loss in history:
        ev = "" if eval_loss is None else f"{eval_loss!r}"
        lines.append(f"{step},{train_loss!r},{ev}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Evaluation tables
# ---------------------------------------------------------------------------


def _loss_ops(config):
    if config.modality == "continuous":
        cfg = config.cts_config()
        return {
            "n": lambda rng, pred, x, n: cts.loss_n_step(rng, pred, cfg, x, n),
            "inf": lambda rng, pred, x: cts.loss_cts_time(rng, pred, cfg, x),
            "recon": lambda rng, pred, x: (
                cts.reconstruction_loss(rng, pred, cfg, x, config.recon_sigma)
                if config.recon_sigma > 0 else None
            ),
        }
    if config.modality == "discretised":
        cfg = config.cts_config()
        K = config.K
        return {
            "n": lambda rng, pred, x, n: dsc.loss_n_step(rng, pred, cfg, x, n, K),
            "inf": lambda rng, pred, x: dsc.loss_cts_time(rng, pred, cfg, x, K),
            "recon": lambda rng, pred, x: dsc.reconstruction_loss(rng, pred, cfg, x, K),
        }
    sched = config.schedule
    K = config.K
    return {
        "n": lambda rng, pred, x, n: dd.loss_n_step(rng, pred, sched, x, n, K),
        "inf": lambda rng, pred, x: dd.loss_cts_time(rng, pred, sched, x, K),
        "recon": lambda rng, pred, x: dd.reconstruction_loss(rng, pred, sched, x, K),
    }


def evaluate(rng, predictor, config, dataset, n_values=(10, 25, 50, 100), passes=2):
    """Loss table: one row per step count plus the continuous-time limit
    and the reconstruction loss, each sampled once per item per pass.

    Returns a list of dicts with nats, nats per dimension, bits per
    dimension and the standard error of the mean.
    """
    dataset = np.asarray(dataset)
    ops = _loss_ops(config)
    ln2 = np.log(2.0)
    rows = []
    labels = [str(n) for n in n_values] + ["inf", "recon"]
    for li, label in enumerate(labels):
        samples = []
        for p in range(passes):
            prng = rng.split(li * 1_000_003 + p)
            for item in dataset:
                x = item if config.modality == "discrete" else np.asarray(item, dtype=np.float64)
                if label == "inf":
                    val = ops["inf"](prng, predictor, x)
                elif label == "recon":
                    val = ops["recon"](prng, predictor, x)
                    if val is None:
                        break
                else:
                    val = ops["n"](prng, predictor, x, int(label))
                samples.append(val)
        if not samples:
            continue
        samples = np.asarray(samples)
        mean = float(samples.mean())
        se = float(samples.std(ddof=1) / np.sqrt(samples.size)) if samples.size > 1 else 0.0
        rows.append({
            "label": label,
            "nats": mean,
            "se_nats": se,
            "nats_per_dim": mean / config.D,
            "bits_per_dim": mean / config.D / ln2,
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
# float64 payload sections.  The header's "sections" map gives the offset
# and element count of every array in the payload, so the layout is fully
# self-describing.
# ---------------------------------------------------------------------------


_SECTIONS = ("params", "ema", "m", "v")


def _jsonable_rng_state(state):
    def conv(v):
        if isinstance(v, dict):
            return {k: conv(x) for k, x in v.items()}
        if isinstance(v, np.ndarray):
            return [int(x) for x in v.ravel()]
        if isinstance(v, (np.integer,)):
            return int(v)
        return v

    return conv(state)


def save_checkpoint(path, result, run_config=None):
    """Write the versioned container; ``run_config`` is an optional raw
    key-value snapshot (paths, display shape) stored for provenance."""
    config = result.config
    mlp = result.mlp
    sections = {}
    payload = []
    offset = 0
    for name, arr in zip(
        _SECTIONS, (mlp.params, result.ema_params, result.moments_m, result.moments_v)
    ):
        sections[name] = [offset, int(arr.size)]
        payload.append(np.ascontiguousarray(arr, dtype="<f8"))
        offset += int(arr.size)
    header = {
        "version": CHECKPOINT_VERSION,
        "spec": asdict(config.predictor_spec()),
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in asdict(config).items()},
        "run_config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in (run_config or {}).items()},
        "step": len(result.history),
        "layout": [[name, list(shape), off] for name, shape, off in mlp.layout],
        "sections": sections,
        "rng_state": _jsonable_rng_state(result.final_rng_state) if result.final_rng_state else None,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for arr in payload:
            fh.write(arr.tobytes())


def load_checkpoint(path):
    """Read a checkpoint; a truncated or inconsistent file raises ValueError."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint file (magic {magic!r})")
        prefix = fh.read(12)
        if len(prefix) != 12:
            raise ValueError("checkpoint truncated inside its fixed header")
        version, hlen = struct.unpack("<IQ", prefix)
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        raw = fh.read(hlen)
        if len(raw) != hlen:
            raise ValueError(f"checkpoint truncated inside its {hlen}-byte JSON header")
        header = json.loads(raw.decode("utf-8"))
        blob = fh.read()
    missing = [k for k in ("config", "sections") if k not in header]
    if missing:
        raise ValueError(f"checkpoint header lacks {', '.join(missing)}")
    flat = np.frombuffer(blob, dtype="<f8", count=len(blob) // 8)
    cfg_dict = dict(header["config"])
    cfg_dict["hidden"] = tuple(cfg_dict["hidden"])
    config = TrainConfig(**cfg_dict)
    mlp = MLP(config.predictor_spec(), seed=config.seed)
    sec = header["sections"]
    for name in _SECTIONS:
        if name not in sec:
            raise ValueError(f"checkpoint has no section {name!r}")
        off, count = sec[name]
        if count != mlp.n_params:
            raise ValueError(
                f"checkpoint section {name!r} holds {count} values; the model has {mlp.n_params}"
            )
        if off < 0 or off + count > flat.size:
            raise ValueError(
                f"checkpoint section {name!r} spans values {off}..{off + count} "
                f"but the payload holds {flat.size}"
            )

    def take(name):
        off, count = sec[name]
        return flat[off : off + count].copy()

    mlp.params = take("params")
    result = TrainResult(
        mlp=mlp,
        ema_params=take("ema"),
        moments_m=take("m"),
        moments_v=take("v"),
        history=[],
        config=config,
        final_rng_state=header.get("rng_state"),
    )
    return result, header


def ema_predictor(result):
    """The evaluation-time predictor: the MLP carrying the EMA parameters."""
    mlp = MLP(result.config.predictor_spec(), seed=result.config.seed)
    mlp.params = result.ema_params.copy()
    return mlp
