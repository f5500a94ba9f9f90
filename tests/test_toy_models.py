"""Behaviour of small trained models: eval tables, reconstruction share,
generation statistics.  Models are trained once per module and shared.
Batched generation is checked against one-stream calls on small random
MLPs."""

import numpy as np
import pytest

from bflow import cli, data
from bflow import discrete as dd
from bflow import discretised as dsc
from bflow import training
from bflow.numerics import Rng
from bflow.predictor import MLP, DiscretisedDatumPredictor
from bflow.schedule import ContinuousSigma, FlowConfig


@pytest.fixture(scope="module")
def char_model():
    """27-symbol model memorising the first 8 characters of the toy strings."""
    items = data.toy_strings().items[:, :8]
    config = training.TrainConfig(
        modality="discrete", D=8, K=27, beta1=3.0, batch_size=32,
        steps=1200, learning_rate=2e-3, weight_decay=0.0, seed=5,
        hidden=(128, 128), ema_decay=0.99,
    )
    result = training.train(Rng(6), items, config)
    return result, items


@pytest.fixture(scope="module")
def binary_model():
    """Two equiprobable symbols at D=1."""
    items = np.array([[1], [2]])
    config = training.TrainConfig(
        modality="discrete", D=1, K=2, beta1=3.0, batch_size=32,
        steps=400, learning_rate=3e-3, weight_decay=0.0, seed=9,
        hidden=(32, 32), ema_decay=0.99,
    )
    result = training.train(Rng(10), items, config)
    return result, items


class TestEvalTableBehaviour:
    def test_losses_non_increasing_in_steps(self, char_model):
        result, items = char_model
        predictor = training.ema_predictor(result)
        rows = training.evaluate(
            Rng(31), predictor, result.config, items, n_values=(5, 20, 80), passes=400,
        )
        by_label = {r["label"]: r for r in rows}
        seq = [by_label[l] for l in ("5", "20", "80")]
        for a, b in zip(seq, seq[1:]):
            slack = 2 * np.hypot(a["se_nats"], b["se_nats"])
            assert b["nats"] <= a["nats"] + slack

    def test_n100_close_to_continuous_limit(self, char_model):
        # stratify the step index: the uniform index draw dominates the
        # sampling variance and stratification removes it without touching
        # the estimated expectation
        result, items = char_model
        predictor = training.ema_predictor(result)
        cfg = result.config.flow
        rng = Rng(32)
        n = 100
        # 40 repeats of every item at every step i = 1..n
        x = np.repeat(np.tile(items, (40, 1)), n, axis=0)
        i = np.tile(np.arange(1, n + 1), 40 * len(items))
        ln_mean = float(np.mean(dd.loss_n(rng, predictor, cfg, x, n, i)))
        x = np.tile(items, (4000, 1))
        linf_mean = float(np.mean(dd.loss_cts(rng, predictor, cfg, x, rng.uniform(size=len(x)))))
        assert ln_mean == pytest.approx(linf_mean, rel=0.05)


class TestGenerationStatistics:
    def test_binary_marginal_near_half(self, binary_model):
        result, _ = binary_model
        predictor = training.ema_predictor(result)
        rng = Rng(55)
        n_samples = 10_000
        out = dd.generate([rng.split(j) for j in range(n_samples)], predictor, result.config.schedule, 10, 2, 1)
        ones = int(np.sum(out[:, 0] == 1))
        assert abs(ones / n_samples - 0.5) <= 0.03

    def test_discretised_datum_oracle_generation_frequency(self):
        cfg = FlowConfig(ContinuousSigma(np.sqrt(0.001)), D=1, K=16)
        geom = dsc.BinGeometry(cfg.K)
        target = np.array([geom.center(13)])
        pred = DiscretisedDatumPredictor(target, 0.01, cfg.schedule.sigma1)
        rng = Rng(66)
        hits = sum(
            dsc.generate(rng.split(j), pred, cfg, 50)[0] == target[0] for j in range(200)
        )
        assert hits / 200 > 0.99


class TestReconstructionShare:
    def test_small_relative_to_total_when_noise_dominates(self):
        # measurement noise sigma > 2 * sigma1: the final transmission is
        # nearly free next to the accumulated step costs of the bundled
        # four-mode mixture toy
        config = training.TrainConfig(
            modality="continuous", D=2, sigma1=0.1, batch_size=128,
            steps=1500, learning_rate=3e-3, weight_decay=0.0, seed=11,
            hidden=(64, 64), t_min=1e-3, n_freqs=10, recon_sigma=0.3,
        )
        items = data.toy_mixture().items
        result = training.train(Rng(6), items, config)
        predictor = result.mlp
        rng = Rng(77)
        recon = np.mean(training.item_losses(rng, predictor, config, np.tile(items[:64], (20, 1)), "recon", None))
        total = training.estimate_mean_loss(Rng(88), result.mlp, result.mlp.params, config, items, n_draws=200)
        assert recon / (recon + total) < 0.02


_SMALL_CONFIGS = {
    "continuous": dict(D=4, sigma1=0.1, t_min=1e-3),
    "discretised": dict(D=4, K=16, sigma1=0.1),
    "discrete": dict(D=6, K=27, beta1=3.0),
}


def _random_mlp(modality, seed, **overrides):
    """A small MLP whose output layer is random too (at init it is zero)."""
    config = training.TrainConfig(modality=modality, hidden=(32, 32), **(_SMALL_CONFIGS[modality] | overrides))
    mlp = MLP(config.predictor_spec(), seed=seed)
    _, (fan_in, _), off = mlp.layout[-2]
    mlp.params[off:] = 2.0 * Rng(seed).standard_normal(mlp.n_params - off) / np.sqrt(fan_in)
    return config, mlp


def _generate(rng, pred, config, n):
    if config.modality == "discrete":
        return dd.generate(rng, pred, config.schedule, n, config.K, config.D)
    return training.OPS[config.modality].generate(rng, pred, config.flow, n)


class TestBatchedGenerate:
    @pytest.mark.parametrize("modality", tuple(training.OPS))
    def test_rows_equal_one_stream_calls(self, modality):
        # classes and bin centres match exactly; continuous rows carry the
        # last-bit differences of MLP products over different row counts
        config, pred = _random_mlp(modality, 3)
        batched = _generate([Rng(40).split(j) for j in range(5)], pred, config, 20)
        assert batched.shape == (5, config.D)
        for j in range(5):
            one = _generate(Rng(40).split(j), pred, config, 20)
            if modality == "continuous":
                np.testing.assert_allclose(batched[j], one, rtol=1e-12)
            else:
                np.testing.assert_array_equal(batched[j], one)

    @pytest.mark.parametrize("modality, K", [("continuous", 0), ("discretised", 16), ("discrete", 27),
                                             ("discrete", 2), ("discretised", 256)],
                             ids=["continuous", "discretised", "discrete", "discrete-K2", "discretised-K256"])
    def test_cli_count_writes_one_stream_bytes(self, modality, K, tmp_path):
        config, pred = _random_mlp(modality, 4, K=K)
        ckpt = tmp_path / "m.ckpt"
        moments = np.zeros_like(pred.params)
        training.save_checkpoint(
            ckpt, training.TrainResult(pred, pred.params.copy(), moments, moments.copy(), config=config)
        )
        args = ["--count", "4", "--steps", "12", "--seed", "9", "--out", str(tmp_path / "s")]
        assert cli.main(["sample", "--checkpoint", str(ckpt), *args]) == 0
        for j in range(4):
            out = _generate(Rng(9).split(j), pred, config, 12)
            if modality == "discrete" and K == 27:  # the 27-symbol alphabet, a to z then space
                got = (tmp_path / "s" / f"sample_{j:03d}.txt").read_bytes()
                assert got == ("".join(" " if k == 27 else chr(ord("a") + k - 1) for k in out) + "\n").encode()
                continue
            if modality == "discrete":  # class k of K as grey level (k - 1) * (255 // (K - 1))
                levels = (out - 1) * (255 // (K - 1))
            elif K == 256:  # bin k, centred at (2k - 1)/256 - 1, is byte k - 1
                levels = (out + 1.0) * 128.0 - 0.5
            else:  # [-1, 1] scaled to 0..255 and rounded
                levels = np.rint((out + 1.0) * 127.5)
            assert np.all((0 <= levels) & (levels <= 255) & (levels == np.round(levels)))
            w, h = (2, 2) if config.D == 4 else (config.D, 1)
            ref = f"P5\n{w} {h}\n255\n".encode() + levels.astype(np.uint8).tobytes()
            assert (tmp_path / "s" / f"sample_{j:03d}.pgm").read_bytes() == ref
