"""Optimizer, EMA, head gradients, the loop and checkpoint round-trips."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bflow import cli, training
from bflow import continuous as cts
from bflow import discrete as dd
from bflow import discretised as dsc
from bflow.data import toy_glyphs, toy_mixture, toy_strings
from bflow.numerics import Rng, gaussian_sample, softmax_rows
from bflow.predictor import MLP, ConstantPredictor, DiscretisedDatumPredictor
from bflow.schedule import DiscreteQuadratic
from bflow.training import TrainConfig, adamw_step
from oracle_predictors import DiscreteOneHotPredictor

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestAdamW:
    def test_zero_grad_no_decay_is_identity(self):
        p = np.array([1.0, -2.0])
        p2, m, v, _ = adamw_step(p.copy(), np.zeros(2), np.zeros(2), np.zeros(2), p.copy(),
                                 1, 1e-3, 0.0, 0.9, 0.98, 0.99)
        np.testing.assert_array_equal(p2, p)

    def test_zero_grad_decay_scales(self):
        p = np.array([1.0, -2.0])
        lr, wd = 1e-2, 0.1
        p2, _, _, _ = adamw_step(p.copy(), np.zeros(2), np.zeros(2), np.zeros(2), p.copy(),
                                 1, lr, wd, 0.9, 0.98, 0.99)
        np.testing.assert_allclose(p2, p * (1 - lr * wd), rtol=1e-15)

    def test_three_step_hand_trace(self):
        # single scalar parameter, constant gradient, no decay; the oracle
        # below replays the update rule and the EMA by hand
        lr, b1, b2, eps, d = 0.1, 0.9, 0.98, 1e-8, 0.5
        g = 0.5
        p = np.array([1.0])
        m = np.zeros(1)
        v = np.zeros(1)
        ema = np.array([1.0])
        p_ref, m_ref, v_ref, ema_ref = 1.0, 0.0, 0.0, 1.0
        for step in (1, 2, 3):
            p, m, v, ema = adamw_step(p, np.array([g]), m, v, ema, step, lr, 0.0, b1, b2, d, eps)
            m_ref = b1 * m_ref + (1 - b1) * g
            v_ref = b2 * v_ref + (1 - b2) * g * g
            mh = m_ref / (1 - b1**step)
            vh = v_ref / (1 - b2**step)
            p_ref = p_ref - lr * mh / (np.sqrt(vh) + eps)
            ema_ref = d * ema_ref + (1 - d) * p_ref
            assert p[0] == pytest.approx(p_ref, rel=1e-14)
            assert ema[0] == pytest.approx(ema_ref, rel=1e-14)
        # first step moves by about -lr regardless of gradient scale
        first = adamw_step(np.array([0.0]), np.array([g]), np.zeros(1), np.zeros(1), np.zeros(1),
                           1, lr, 0.0, b1, b2, 0.0, eps)[0]
        assert first[0] == pytest.approx(-lr, rel=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adamw_step(np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(2), np.zeros(2),
                       1, 1e-3, 0.0, 0.9, 0.98, 0.99)

    def test_returns_the_arrays_passed_in(self):
        arrays = [np.full(5, 0.5) for _ in range(5)]
        out = adamw_step(*arrays, 1, 1e-3, 0.01, 0.9, 0.98, 0.99)
        assert len(out) == 4
        for got, passed in zip(out, [arrays[0], *arrays[2:]]):
            assert got is passed

    @staticmethod
    def _state(n=6):
        return {name: np.full(n, i + 1.0) for i, name in enumerate(("params", "grads", "m", "v", "ema"))}

    @pytest.mark.parametrize("a,b", [("params", "ema"), ("m", "v"), ("grads", "m"), ("params", "grads")])
    def test_shared_memory_rejected(self, a, b):
        # b overlaps a by all but one element: an in-place pass would read
        # values it has already overwritten
        state = self._state()
        buf = np.arange(7.0)
        state[a], state[b] = buf[:6], buf[1:]
        before = {k: x.copy() for k, x in state.items()}
        with pytest.raises(ValueError, match=f"{a} and {b} share memory"):
            adamw_step(*state.values(), 1, 1e-3, 0.01, 0.9, 0.98, 0.99)
        for k, x in state.items():
            assert _same_bits(x, before[k]), k

    def test_same_array_twice_rejected(self):
        state = self._state()
        state["v"] = state["m"]
        with pytest.raises(ValueError, match="m and v share memory"):
            adamw_step(*state.values(), 1, 1e-3, 0.01, 0.9, 0.98, 0.99)

    def test_non_contiguous_rejected(self):
        state = self._state()
        state["grads"] = np.ones(12)[::2]
        with pytest.raises(ValueError, match="grads must be a C-contiguous float64 array"):
            adamw_step(*state.values(), 1, 1e-3, 0.01, 0.9, 0.98, 0.99)

    def test_non_float64_rejected(self):
        state = self._state()
        state["ema"] = state["ema"].astype(np.float32)
        with pytest.raises(ValueError, match="ema must be a C-contiguous float64 array"):
            adamw_step(*state.values(), 1, 1e-3, 0.01, 0.9, 0.98, 0.99)

    def test_shape_mismatch_names_the_array(self):
        state = self._state()
        state["v"] = np.zeros((2, 3))
        with pytest.raises(ValueError, match=r"v has shape \(2, 3\), params \(6,\)"):
            adamw_step(*state.values(), 1, 1e-3, 0.01, 0.9, 0.98, 0.99)


def _adamw_ema_reference(params, grads, m, v, ema, step, lr, weight_decay, beta1, beta2, ema_decay, eps=1e-8):
    """The out-of-place update plus the separate EMA line that the in-place
    chunked adamw_step replaced, kept to pin its bits."""
    m = beta1 * m + (1.0 - beta1) * grads
    v = beta2 * v + (1.0 - beta2) * grads * grads
    m_hat = m / (1.0 - beta1**step)
    v_hat = v / (1.0 - beta2**step)
    params = params - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * weight_decay * params
    ema = ema_decay * ema + (1.0 - ema_decay) * params
    return params, m, v, ema


def _make_config(modality, **kw):
    base = dict(
        modality=modality,
        D=3,
        batch_size=4,
        steps=5,
        learning_rate=1e-3,
        seed=11,
        hidden=(8, 8),
    )
    if modality == "continuous":
        base["sigma1"] = 0.02
    elif modality == "discretised":
        base["sigma1"] = 0.2
        base["K"] = 8
    else:
        base["beta1"] = 2.0
        base["K"] = 4
    base.update(kw)
    return TrainConfig(**base)


def _random_batch(rng, config):
    if config.modality == "discrete":
        return rng.integers(1, config.K + 1, size=(config.batch_size, config.D))
    return rng.uniform(size=(config.batch_size, config.D)) * 1.6 - 0.8


def _mean_head_loss(mlp, config, state):
    """Mean continuous-time loss of the batch, for finite differences."""
    out = mlp.forward_batch(state["state_in"], state["t"])
    return float(training.head_loss_and_grad(config, state, out)[0].mean())


class TestHeadGradients:
    @pytest.mark.parametrize("modality", ["continuous", "discretised", "discrete"])
    def test_matches_central_finite_differences(self, modality):
        config = _make_config(modality)
        mlp = MLP(config.predictor_spec(), seed=3)
        r = Rng(100)
        x = _random_batch(r, config)
        state = training.sample_head_state(r, config, x)
        _, grad = training.batch_loss_and_grad(mlp, config, state)
        h = 1e-5
        rng = np.random.default_rng(0)
        idxs = rng.choice(mlp.n_params, size=50, replace=False)
        for j in idxs:
            saved = mlp.params[j]
            mlp.params[j] = saved + h
            lp = _mean_head_loss(mlp, config, state)
            mlp.params[j] = saved - h
            lm = _mean_head_loss(mlp, config, state)
            mlp.params[j] = saved
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(grad[j]), 1e-6)
            assert abs(grad[j] - fd) / denom < 1e-5

    def test_binary_discrete_head(self):
        config = _make_config("discrete", K=2)
        mlp = MLP(config.predictor_spec(), seed=4)
        r = Rng(200)
        x = _random_batch(r, config)
        state = training.sample_head_state(r, config, x)
        _, grad = training.batch_loss_and_grad(mlp, config, state)
        h = 1e-5
        rng = np.random.default_rng(1)
        for j in rng.choice(mlp.n_params, size=25, replace=False):
            saved = mlp.params[j]
            mlp.params[j] = saved + h
            lp = _mean_head_loss(mlp, config, state)
            mlp.params[j] = saved - h
            lm = _mean_head_loss(mlp, config, state)
            mlp.params[j] = saved
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(grad[j]), 1e-6)
            assert abs(grad[j] - fd) / denom < 1e-5

    def test_head_matches_sampling_op(self):
        # the head's loss must equal the sampling op evaluated at the same
        # (t, flow state) for the continuous modality
        from bflow import continuous as cts

        config = _make_config("continuous")
        mlp = MLP(config.predictor_spec(), seed=5)
        r = Rng(300)
        x = _random_batch(r, config)
        state = training.sample_head_state(r, config, x)
        out = mlp.forward_batch(state["state_in"], state["t"])
        loss_vec, _ = training.head_loss_and_grad(config, state, out)
        cfg = config.cts_config()
        for b in range(config.batch_size):
            p = cts.CtsParams(mean=state["mu"][b], precision=1.0)
            x_hat = cts.output_prediction(mlp, cfg, p, float(state["t"][b]))
            resid = x[b] - x_hat
            w = -np.log(cfg.sigma1) * cfg.sigma1 ** (-2 * state["t"][b])
            assert loss_vec[b] == pytest.approx(w * resid @ resid, rel=1e-12)

    def test_discretised_head_matches_sampling_op(self):
        from bflow import continuous as cts
        from bflow import discretised as dsc

        config = _make_config("discretised")
        mlp = MLP(config.predictor_spec(), seed=6)
        r = Rng(301)
        x = _random_batch(r, config)
        state = training.sample_head_state(r, config, x)
        out = mlp.forward_batch(state["state_in"], state["t"])
        loss_vec, _ = training.head_loss_and_grad(config, state, out)
        cfg = config.cts_config()
        for b in range(config.batch_size):
            p = cts.CtsParams(mean=state["mu"][b], precision=1.0)
            probs = dsc.output_distribution(mlp, cfg, p, float(state["t"][b]), config.K)
            resid = x[b] - dsc.k_hat(probs, config.K)
            w = -np.log(cfg.sigma1) * cfg.sigma1 ** (-2 * state["t"][b])
            assert loss_vec[b] == pytest.approx(w * resid @ resid, rel=1e-10)

    def test_discrete_head_matches_sampling_op(self):
        from bflow import discrete as dd

        config = _make_config("discrete")
        mlp = MLP(config.predictor_spec(), seed=7)
        r = Rng(302)
        x = _random_batch(r, config)
        state = training.sample_head_state(r, config, x)
        out = mlp.forward_batch(state["state_in"], state["t"])
        loss_vec, _ = training.head_loss_and_grad(config, state, out)
        sched = config.schedule
        for b in range(config.batch_size):
            probs = dd.output_distribution(mlp, state["theta"][b], float(state["t"][b]), config.K)
            resid = dd.one_hot(x[b], config.K) - probs
            ref = 0.5 * config.K * sched.alpha(float(state["t"][b])) * float(np.sum(resid * resid))
            assert loss_vec[b] == pytest.approx(ref, rel=1e-10)


def _dsc_head_reference(config, state, net_out):
    """The discretised head as one bin_probs call per batch row and the pdf
    over the whole edge grid: the reference for bitwise equality."""
    from bflow import discretised as dsc

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
    probs = np.stack([dsc.bin_probs_from_gaussian(mu_x[b], sigma_x[b], K) for b in range(B)])
    k_hat = probs @ geom.centers
    resid = x - k_hat
    loss = w * np.sum(resid * resid, axis=1)
    edges = np.concatenate([geom.centers - 1.0 / K, [1.0]])
    sig = np.maximum(sigma_x, 1e-20)
    zed = (edges[None, None, :] - mu_x[..., None]) / sig[..., None]
    with np.errstate(under="ignore"):
        phi = np.exp(-0.5 * zed * zed) / (sig[..., None] * np.sqrt(2 * np.pi))
    phi[..., 0] = 0.0
    phi[..., -1] = 0.0
    dP_dmu = -(phi[..., 1:] - phi[..., :-1])
    dP_dsig = -(phi[..., 1:] * zed[..., 1:] - phi[..., :-1] * zed[..., :-1])
    dkhat_dmu = dP_dmu @ geom.centers
    dkhat_dsig = dP_dsig @ geom.centers
    dL_dkhat = w[:, None] * 2.0 * (k_hat - x)
    d_mu_eps = np.where(live[:, None], dL_dkhat * dkhat_dmu * (-ratio[:, None]), 0.0)
    d_ln_sigma = np.where(live[:, None], dL_dkhat * dkhat_dsig * sigma_x, 0.0)
    return loss, np.concatenate([d_mu_eps, d_ln_sigma], axis=1)


class TestDiscretisedHeadReference:
    """The batched head gives the same bits as the per-row reference.  B*D
    spans several passes of dsc.ROWS_PER_PASS rows, the last one partial."""

    def _assert_same_bits(self, config, state, net_out):
        loss, d_out = training.head_loss_and_grad(config, state, net_out)
        ref_loss, ref_d_out = _dsc_head_reference(config, state, net_out)
        np.testing.assert_array_equal(loss.view(np.uint64), ref_loss.view(np.uint64))
        np.testing.assert_array_equal(d_out.view(np.uint64), ref_d_out.view(np.uint64))

    def test_extreme_states(self):
        from bflow.discretised import BinGeometry

        B, D, K = 6, 70, 16
        config = _make_config("discretised", D=D, K=K, batch_size=B)
        rng = np.random.default_rng(5)
        x = BinGeometry(K).centers[rng.integers(0, K, size=(B, D))]
        # t = 0 and 1e-9 lie below t_min = 1e-6; t = 1 has the narrowest flow
        t = np.array([0.0, 1e-9, 0.03, 0.4, 0.9, 1.0])
        mu = rng.normal(size=(B, D)) * 3.0
        # mu_eps of +-40 puts mu_x far outside [-1, 1]; ln_sigma_eps of -80
        # hits the 1e-20 floor on sigma_x and +25 makes sigma_x very wide
        mu_eps = rng.choice([0.0, 0.5, -2.0, 40.0, -40.0], size=(B, D))
        ln_sigma_eps = rng.choice([-80.0, -6.0, 0.0, 2.0, 25.0], size=(B, D))
        state = {"t": t, "mu": mu, "state_in": mu, "x": x}
        net_out = np.concatenate([mu_eps, ln_sigma_eps], axis=1)
        self._assert_same_bits(config, state, net_out)

    def test_sampled_states_at_k256(self):
        config = _make_config("discretised", D=64, K=256, batch_size=3,
                              schedule_preset="cts-256bin")
        mlp = MLP(config.predictor_spec(), seed=8)
        r = Rng(303)
        x = _random_batch(r, config)
        state = training.sample_head_state(r, config, x)
        self._assert_same_bits(config, state, mlp.forward_batch(state["state_in"], state["t"]))


def _dd_flow_row_reference(rng, x, t, sched, K):
    """One (D, K) discrete flow draw at a float t, written per row."""
    beta = sched.beta(t)
    if beta == 0.0:
        return np.full((x.size, K), 1.0 / K)
    onehot = np.eye(K)[np.asarray(x) - 1]
    return softmax_rows(gaussian_sample(rng, beta * (K * onehot - 1.0), beta * K))


def _cts_flow_row_reference(rng, cfg, x, t):
    """One (D,) continuous flow mean at a float t."""
    g = 1.0 - cfg.sigma1 ** (2.0 * t)
    if g == 0.0:
        return np.zeros_like(x)
    return gaussian_sample(rng, g * x, g * (1.0 - g))


def _sample_head_state_reference(rng, config, x_batch):
    """The training state draw as one discrete flow draw and one encoding per
    batch row, and the continuous flow written out over the batch: the
    reference for bitwise equality with the batched flow ops."""
    B = x_batch.shape[0]
    t = rng.uniform(size=B)
    if config.modality == "discrete":
        K = config.K
        theta = np.stack([_dd_flow_row_reference(rng, x_batch[b], float(t[b]), config.schedule, K)
                          for b in range(B)])
        state_in = np.stack([2.0 * th[:, 0] - 1.0 if K == 2 else (2.0 * th - 1.0).ravel() for th in theta])
        return {"t": t, "theta": theta, "state_in": state_in, "x": x_batch}
    cfg = config.cts_config()
    g = 1.0 - cfg.sigma1 ** (2.0 * t)
    z = rng.standard_normal(x_batch.shape)
    mu = g[:, None] * x_batch + np.sqrt(np.maximum(g * (1.0 - g), 0.0))[:, None] * z
    mu[g == 0.0] = 0.0
    return {"t": t, "mu": mu, "state_in": mu, "x": x_batch}


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestBatchedFlow:
    """The batched flow draws give the bits of the per-row draws they replace."""

    # row 2 sits at t = 0: it is the prior and consumes no draws
    T = np.array([0.3, 0.9, 0.0, 1.0, 0.05, 0.6])

    @pytest.mark.parametrize("K", [2, 27])
    def test_discrete_rows_equal_per_row_draws(self, K):
        sched = DiscreteQuadratic(3.0)
        x = Rng(40).integers(1, K + 1, size=(6, 5))
        r_batch, r_ref, r_item = Rng(41), Rng(41), Rng(41)
        batched = dd.flow_sample(r_batch, x, self.T, sched, K)
        ref = np.stack([_dd_flow_row_reference(r_ref, x[b], float(self.T[b]), sched, K) for b in range(6)])
        items = np.stack([dd.flow_sample(r_item, x[b], float(self.T[b]), sched, K) for b in range(6)])
        assert _same_bits(batched, ref) and _same_bits(items, ref)
        assert np.all(batched[2] == 1.0 / K)
        assert r_batch.draws == r_ref.draws == r_item.draws == 5 * 5 * K

    def test_continuous_rows_equal_per_row_draws(self):
        cfg = cts.CtsConfig(sigma1=0.02, D=5)
        x = Rng(42).uniform(size=(6, 5)) * 2.0 - 1.0
        r_batch, r_rows, r_ref, r_item = Rng(43), Rng(43), Rng(43), Rng(43)
        batched = cts.flow_sample(r_batch, cfg, x, self.T)
        rows = np.concatenate([cts.flow_sample(r_rows, cfg, x[b : b + 1], self.T[b : b + 1]).mean
                               for b in range(6)])
        assert _same_bits(batched.mean, rows)
        assert np.all(batched.mean[2] == 0.0) and batched.precision[2] == 1.0
        # a float t is the per-item op, computed in float arithmetic as before
        ref = np.stack([_cts_flow_row_reference(r_ref, cfg, x[b], float(self.T[b])) for b in range(6)])
        items = np.stack([cts.flow_sample(r_item, cfg, x[b], float(self.T[b])).mean for b in range(6)])
        assert _same_bits(items, ref)
        assert r_batch.draws == r_rows.draws == r_ref.draws == r_item.draws == 5 * 5

    @pytest.mark.parametrize("modality,K", [("discrete", 27), ("discrete", 2),
                                            ("continuous", 0), ("discretised", 16)])
    def test_sample_head_state_matches_reference(self, modality, K):
        kw = {"K": K} if K else {}
        config = _make_config(modality, D=7, batch_size=16, **kw)
        x = _random_batch(Rng(44), config)
        state = training.sample_head_state(Rng(45), config, x)
        ref = _sample_head_state_reference(Rng(45), config, x)
        assert state.keys() == ref.keys()
        for key in state:
            assert _same_bits(state[key], ref[key]), key

    @pytest.mark.parametrize("name", ["strings", "glyphs"])
    def test_train_matches_reference_driven_run(self, name, monkeypatch):
        # params, EMA, moments and loss history, with eval losses every 15 steps
        run = cli.load_run_config(CONFIG_DIR / f"train_{name}.cfg", ("steps=30", "eval_every=15"))
        config = cli.train_config_from_run(run)
        items = {"strings": toy_strings, "glyphs": toy_glyphs}[name]().items
        got = training.train(Rng(7), items, config)
        monkeypatch.setattr(training, "sample_head_state", _sample_head_state_reference)
        ref = training.train(Rng(7), items, config)
        for field in ("ema_params", "moments_m", "moments_v"):
            assert _same_bits(getattr(got, field), getattr(ref, field)), field
        assert _same_bits(got.mlp.params, ref.mlp.params)
        assert got.history == ref.history


class TestInPlaceOptimizer:
    """train() with the in-place chunked adamw_step gives the bits of a run
    driven by the out-of-place update and EMA line it replaced."""

    @staticmethod
    def _config(case, seed):
        if case == "strings":  # 291,760 parameters: 17 full chunks and a partial one
            run = cli.load_run_config(CONFIG_DIR / "train_strings.cfg",
                                      ("steps=30", "eval_every=15", f"seed={seed}"))
            return cli.train_config_from_run(run), toy_strings().items
        if case == "discretised":  # 43,392 parameters, weight decay on
            config = _make_config("discretised", D=64, K=16, hidden=(128, 128), batch_size=8,
                                  steps=20, weight_decay=0.05, ema_decay=0.9, seed=seed)
        else:  # fewer parameters than one chunk
            config = _make_config("continuous", steps=20, weight_decay=0.02, ema_decay=0.9, seed=seed)
        return config, Rng(seed).uniform(size=(12, config.D)) * 1.6 - 0.8

    @pytest.mark.parametrize("seed", [1, 7, 37])
    @pytest.mark.parametrize("case", ["strings", "discretised", "small"])
    def test_train_matches_out_of_place_reference(self, case, seed, monkeypatch):
        config, items = self._config(case, seed)
        n = MLP(config.predictor_spec()).n_params
        assert n < training.ADAMW_CHUNK if case == "small" else n % training.ADAMW_CHUNK != 0
        got = training.train(Rng(seed), items, config)
        monkeypatch.setattr(training, "adamw_step", _adamw_ema_reference)
        ref = training.train(Rng(seed), items, config)
        for field in ("ema_params", "moments_m", "moments_v"):
            assert _same_bits(getattr(got, field), getattr(ref, field)), field
        assert _same_bits(got.mlp.params, ref.mlp.params)
        assert got.history == ref.history


class TestTrainLoop:
    def test_zero_learning_rate_keeps_params(self):
        config = _make_config("discrete", learning_rate=0.0, weight_decay=0.0, steps=8)
        r = Rng(1)
        data = Rng(2).integers(1, config.K + 1, size=(16, config.D))
        init = MLP(config.predictor_spec(), seed=config.seed).params.copy()
        result = training.train(r, data, config)
        np.testing.assert_array_equal(result.mlp.params, init)

    def test_determinism(self):
        config = _make_config("continuous", steps=6)
        data = Rng(3).uniform(size=(10, config.D)) - 0.5
        a = training.train(Rng(5), data, config)
        b = training.train(Rng(5), data, config)
        assert np.array_equal(a.mlp.params, b.mlp.params)
        assert a.history == b.history

    def test_loss_decreases_on_constant_dataset(self):
        config = _make_config(
            "continuous", D=2, steps=400, learning_rate=3e-3, sigma1=0.1,
            batch_size=32, hidden=(16, 16), weight_decay=0.0, t_min=1e-3,
        )
        data = np.tile([[0.4, -0.2]], (4, 1))
        result = training.train(Rng(6), data, config)
        first = np.mean([h[1] for h in result.history[:20]])
        last = np.mean([h[1] for h in result.history[-20:]])
        assert last < first * 0.2

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            training.train(Rng(0), np.zeros((0, 3)), _make_config("continuous"))

    def test_out_of_range_dataset_rejected(self):
        config = _make_config("discrete")
        with pytest.raises(ValueError):
            training.train(Rng(0), np.array([[0, 1, 2]]), config)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_dataset_rejected(self, bad):
        # NaN fails every range comparison, so only an explicit finiteness
        # check stops it before the first step
        config = _make_config("continuous", D=2)
        with pytest.raises(ValueError, match=r"non-finite values \(1 of 4\), the first (nan|inf) at index \(0, 1\)"):
            training.train(Rng(0), np.array([[0.1, bad], [0.2, 0.3]]), config)

    def test_non_finite_loss_aborts_with_step(self):
        # an absurd learning rate overflows the parameters within a few
        # steps; the abort message must carry the step and batch stream id
        config = _make_config("continuous", learning_rate=1e160, steps=50)
        data = Rng(3).uniform(size=(8, config.D)) - 0.5
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match=r"step \d+ \(batch stream id \d+"):
                training.train(Rng(4), data, config)

    def test_history_csv_shape(self):
        config = _make_config("continuous", steps=4, eval_every=2)
        data = Rng(3).uniform(size=(6, config.D)) - 0.5
        result = training.train(Rng(7), data, config)
        csv = training.history_to_csv(result.history)
        lines = csv.strip().split("\n")
        assert lines[0] == "step,train_loss,eval_loss"
        assert len(lines) == 5
        assert lines[2].count(",") == 2 and not lines[1].endswith(",,")


class TestEMA:
    def test_converges_to_frozen_params(self):
        # park the raw parameters, then run many EMA updates; the gap decays
        # geometrically, so a small initial gap lands below 1e-8 after 1e5
        decay = 0.9999
        params = np.array([0.3])
        ema = params + 1e-4
        for _ in range(100_000):
            ema = decay * ema + (1 - decay) * params
        assert np.max(np.abs(ema - params)) < 1e-8

    def test_ema_tracks_training(self):
        config = _make_config("continuous", steps=5, ema_decay=0.5)
        data = Rng(3).uniform(size=(6, config.D)) - 0.5
        result = training.train(Rng(8), data, config)
        assert not np.array_equal(result.ema_params, result.mlp.params)


class TestNatsBitsReporting:
    def test_conversion_consistency(self):
        config = _make_config("discrete", steps=3)
        data = Rng(9).integers(1, config.K + 1, size=(6, config.D))
        result = training.train(Rng(10), data, config)
        rows = training.evaluate(Rng(11), training.ema_predictor(result), config, data, n_values=(4,), passes=1)
        for r in rows:
            assert r["bits_per_dim"] == pytest.approx(r["nats_per_dim"] / np.log(2), rel=1e-12)
            assert r["nats_per_dim"] == pytest.approx(r["nats"] / config.D, rel=1e-12)


class _RowLocal:
    """Outputs elementwise in (state, t), so a row's output does not depend
    on the rows batched with it; an MLP's matrix products can change in the
    last bit with the number of rows."""

    def __init__(self, spec):
        self.reps = spec.output_width // spec.state_width

    def forward_batch(self, X, t):
        t = np.broadcast_to(np.reshape(t, (-1, 1)), (len(X), 1))
        return np.tile(0.7 * np.asarray(X) - 0.3 + t, (1, self.reps))


def _eval_case(modality):
    """(config, dataset, row-local predictor) with 7 items."""
    config = _make_config(modality, recon_sigma=0.3)
    if modality == "discrete":
        data = Rng(60).integers(1, config.K + 1, size=(7, config.D))
    else:
        data = dsc.BinGeometry(8).centers[Rng(60).integers(0, 8, size=(7, config.D))]
    return config, data, _RowLocal(config.predictor_spec())


class TestEvaluate:
    def test_perfect_oracle_all_zero(self):
        config = _make_config("discrete", K=4)
        x = np.array([[1, 3, 2]])
        pred = DiscreteOneHotPredictor(x[0], 4, sharpness=800.0)
        rows = training.evaluate(Rng(12), pred, config, x, n_values=(2, 8), passes=3)
        for r in rows:
            assert r["nats"] == 0.0
            assert r["se_nats"] == 0.0

    def test_perfect_oracle_all_zero_continuous(self):
        # the prediction is pinned to zero below t_min, so the step-1 cost of
        # a nonzero datum is real: only the zero datum is perfect at every step
        config = _make_config("continuous", recon_sigma=0.25)
        for x, n_values in ((np.array([[0.3, -0.5, 0.8]]), ()), (np.zeros((1, 3)), (2, 8))):
            pred = ConstantPredictor(x[0], predicts_data=True)
            rows = training.evaluate(Rng(12), pred, config, x, n_values=n_values, passes=3)
            assert [r["label"] for r in rows] == [str(n) for n in n_values] + ["inf", "recon"]
            for r in rows:
                assert r["nats"] == 0.0
                assert r["se_nats"] == 0.0

    def test_perfect_oracle_near_zero_discretised(self):
        # below t_min the output is a unit Gaussian at zero, so n-step rows
        # pay for step 1; the continuous-time and reconstruction rows vanish
        config = _make_config("discretised", K=16)
        x = dsc.BinGeometry(16).centers[[[3, 12, 7]]]
        pred = DiscretisedDatumPredictor(x[0], 1e-9, config.sigma1)
        rows = training.evaluate(Rng(12), pred, config, x, n_values=(), passes=3)
        assert [r["label"] for r in rows] == ["inf", "recon"]
        for r in rows:
            assert abs(r["nats"]) < 1e-9

    @pytest.mark.parametrize("modality", ["continuous", "discretised", "discrete"])
    def test_table_independent_of_chunk_size(self, modality, monkeypatch):
        config, data, pred = _eval_case(modality)
        # n=3 puts about a third of the items at step 1, t=0
        tables = []
        for chunk in (2, 3, 7, 64):
            monkeypatch.setattr(training, "EVAL_CHUNK", chunk)
            tables.append(training.evaluate(Rng(61), pred, config, data, n_values=(3, 10), passes=2))
        assert all(t == tables[0] for t in tables[1:])
        assert [r["samples"] for r in tables[0]] == [14] * 4

    @pytest.mark.parametrize("modality", ["continuous", "discretised", "discrete"])
    def test_row_is_mean_of_direct_batched_call(self, modality):
        config, data, pred = _eval_case(modality)
        rows = training.evaluate(Rng(62), pred, config, data, n_values=(6,), passes=2)
        if modality == "discrete":
            mod, spec = dd, config.schedule
        else:
            mod, spec = (cts if modality == "continuous" else dsc), config.cts_config()
        K = () if modality == "continuous" else (config.K,)
        want = {"6": [], "inf": [], "recon": []}
        for p in range(2):
            prng = Rng(62).split(p)
            want["6"].append(mod.loss_n(prng, pred, spec, data, 6, *K, prng.integers(1, 7, size=7)))
            prng = Rng(62).split(1_000_003 + p)
            want["inf"].append(mod.loss_cts(prng, pred, spec, data, *K, prng.uniform(size=7)))
            prng = Rng(62).split(2 * 1_000_003 + p)
            want["recon"].append(mod.recon(prng, pred, spec, data, config.K if K else config.recon_sigma))
        assert {r["label"]: r["nats"] for r in rows} == {k: float(np.concatenate(v).mean()) for k, v in want.items()}

    def test_rows_cover_requested_grid(self):
        config = _make_config("discrete", K=4)
        data = Rng(13).integers(1, 5, size=(3, config.D))
        pred = MLP(config.predictor_spec(), seed=1)
        rows = training.evaluate(Rng(14), pred, config, data, n_values=(10, 25), passes=1)
        assert [r["label"] for r in rows] == ["10", "25", "inf", "recon"]

    def test_continuous_recon_row_needs_noise_std(self):
        config = _make_config("continuous")
        data = Rng(13).uniform(size=(3, config.D)) - 0.5
        pred = MLP(config.predictor_spec(), seed=1)
        rows = training.evaluate(Rng(14), pred, config, data, n_values=(4,), passes=1)
        assert [r["label"] for r in rows] == ["4", "inf"]
        config2 = _make_config("continuous", recon_sigma=0.25)
        rows2 = training.evaluate(Rng(14), pred, config2, data, n_values=(4,), passes=1)
        assert [r["label"] for r in rows2] == ["4", "inf", "recon"]

    def test_se_scaling_with_passes(self):
        # quadrupling the pass count halves the reported standard error
        config = _make_config("discrete", K=4, D=2)
        data = Rng(15).integers(1, 5, size=(8, 2))
        pred = MLP(config.predictor_spec(), seed=2)
        r1 = training.evaluate(Rng(16), pred, config, data, n_values=(), passes=2)
        r4 = training.evaluate(Rng(16), pred, config, data, n_values=(), passes=8)
        se1 = r1[0]["se_nats"]
        se4 = r4[0]["se_nats"]
        assert se4 == pytest.approx(se1 / 2, rel=0.35)


def _estimate_mean_loss_reference(rng, mlp, params, config, dataset, n_draws=4):
    """estimate_mean_loss as it was before it called the loss_cts dispatch:
    the training head's state draw, a forward pass and the head's loss."""
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
            state = training.sample_head_state(rng, config, x_batch)
            out = mlp.forward_batch(state["state_in"], state["t"])
            losses.append(training.head_loss_and_grad(config, state, out)[0].mean())
        return float(np.mean(losses))
    finally:
        mlp.params = saved


class TestEstimateMeanLoss:
    @pytest.mark.parametrize("name", ["strings", "glyphs", "mixture", "discretised"])
    def test_matches_frozen_head_reference(self, name):
        if name == "discretised":
            config = _make_config("discretised", D=6, K=16)
            items = dsc.BinGeometry(16).centers[Rng(70).integers(0, 16, size=(40, 6))]
        else:
            config = cli.train_config_from_run(cli.load_run_config(CONFIG_DIR / f"train_{name}.cfg", ()))
            items = {"strings": toy_strings, "glyphs": toy_glyphs, "mixture": toy_mixture}[name]().items
        mlp = MLP(config.predictor_spec(), seed=config.seed)
        params = mlp.params + 0.05 * Rng(71).standard_normal(mlp.n_params)
        for seed in range(5):
            got = training.estimate_mean_loss(Rng(seed), mlp, params, config, items)
            assert _same_bits(got, _estimate_mean_loss_reference(Rng(seed), mlp, params, config, items))


class TestCheckpoint:
    def test_round_trip_byte_identical(self, tmp_path):
        config = _make_config("continuous", steps=4)
        data = Rng(17).uniform(size=(6, config.D)) - 0.5
        result = training.train(Rng(18), data, config)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        training.save_checkpoint(p1, result)
        loaded, header = training.load_checkpoint(p1)
        loaded.history = result.history
        training.save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_params_restored(self, tmp_path):
        config = _make_config("discrete", steps=3)
        data = Rng(19).integers(1, config.K + 1, size=(6, config.D))
        result = training.train(Rng(20), data, config)
        path = tmp_path / "c.ckpt"
        training.save_checkpoint(path, result)
        loaded, _ = training.load_checkpoint(path)
        np.testing.assert_array_equal(loaded.mlp.params, result.mlp.params)
        np.testing.assert_array_equal(loaded.ema_params, result.ema_params)
        np.testing.assert_array_equal(loaded.moments_v, result.moments_v)
        assert loaded.config == config

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"nope" + b"\0" * 64)
        with pytest.raises(ValueError):
            training.load_checkpoint(path)

    def _saved_checkpoint(self, tmp_path):
        config = _make_config("continuous", steps=2)
        data = Rng(21).uniform(size=(6, config.D)) - 0.5
        path = tmp_path / "t.ckpt"
        training.save_checkpoint(path, training.train(Rng(22), data, config))
        return path

    @pytest.mark.parametrize("cut", [200, 203])
    def test_truncated_payload_names_section(self, tmp_path, cut):
        path = self._saved_checkpoint(tmp_path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ValueError, match="section 'v'"):
            training.load_checkpoint(path)

    def test_header_without_sections_rejected(self, tmp_path):
        import json
        import struct

        path = self._saved_checkpoint(tmp_path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16 : 16 + hlen])
        del header["sections"]
        hb = json.dumps(header).encode("utf-8")
        path.write_bytes(raw[:8] + struct.pack("<Q", len(hb)) + hb + raw[16 + hlen :])
        with pytest.raises(ValueError, match="sections"):
            training.load_checkpoint(path)

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        config = _make_config("discrete", steps=2, hidden=(4,), schedule_preset="binary", K=2)
        items = Rng(23).integers(1, 3, size=(6, config.D))
        path = tmp_path_factory.mktemp("ckpt") / "f.ckpt"
        training.save_checkpoint(path, training.train(Rng(24), items, config))
        return path, path.read_bytes()

    @given(draw=st.data())
    @settings(max_examples=400, deadline=None)
    def test_damaged_file_loads_or_raises_value_error(self, saved, damaged, draw):
        # truncated, extended or bit-flipped: no exception but ValueError escapes
        path, raw = saved
        path.write_bytes(draw.draw(damaged(raw)))
        try:
            training.load_checkpoint(path)
        except ValueError:
            pass
