"""Acceptance criteria, one test per criterion.

Each test enforces the stated tolerance and runtime budget and prints one
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s`` to see
the lines as they complete).
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from bflow import data
from bflow import discrete as dd
from bflow import discretised as dsc
from bflow import harness, training
from bflow.harness import FiniteMSimulator
from bflow.numerics import Rng, softmax_rows
from bflow.predictor import MLP
from bflow.schedule import PRESETS, ContinuousSigma, DiscreteQuadratic, sample_chain

SEED = 7


def _mean_head_loss(mlp, config, state):
    """Mean continuous-time loss of the batch, for finite differences."""
    out = mlp.forward_batch(state["state_in"], state["t"])
    return float(training.head_loss_and_grad(config, state, out)[0].mean())


def _report(n, elapsed, detail):
    print(f"\n[criterion {n:2d}] PASS ({elapsed:6.1f}s): {detail}")


def test_criterion_01_exact_identities():
    t0 = time.time()
    gen = np.random.default_rng(SEED)
    # discrete update additivity at 1e-12 over 1000 random cases: beliefs
    # from summed logits, two observations against their sum
    worst = 0.0
    for _ in range(1000):
        K = int(gen.integers(2, 8))
        logits = np.log(gen.dirichlet(np.ones(K), size=2))
        ya = gen.normal(0, 3, size=(2, K))
        yb = gen.normal(0, 3, size=(2, K))
        two = softmax_rows(logits + ya + yb)
        one = softmax_rows(logits + (ya + yb))
        worst = max(worst, float(np.max(np.abs(two - one))))
    assert worst < 1e-12
    # finite-count posterior equals the summed-logit update at 1e-10
    ident_worst = 0.0
    for _ in range(200):
        K = int(gen.integers(2, 6))
        sim = FiniteMSimulator(m=int(gen.integers(10, 2000)), K=K, alpha=0.25)
        theta = gen.dirichlet(np.ones(K))
        counts = gen.multinomial(sim.m, np.full(K, 1.0 / K))
        post = sim.posterior_from_counts(theta, counts)
        y = (counts - sim.m / K) * np.log(1.0 + sim.omega * K / (1.0 - sim.omega))
        h = softmax_rows(np.log(theta) + y)
        ident_worst = max(ident_worst, float(np.max(np.abs(post - h))))
    assert ident_worst < 1e-10
    elapsed = time.time() - t0
    assert elapsed < 10
    _report(1, elapsed, f"update additivity {worst:.1e}, count-posterior {ident_worst:.1e}")


def test_criterion_02_distributional_additivity_and_flow():
    t0 = time.time()
    reports = [
        harness.check_additivity(SEED, "continuous"),
        harness.check_additivity(SEED, "discrete"),
        harness.check_flow_equivalence(SEED, "continuous"),
        harness.check_flow_equivalence(SEED, "discrete"),
    ]
    for r in reports:
        assert r.passed, r.summary()
        assert r.tolerance <= 0.015
        assert r.samples >= 100_000
    elapsed = time.time() - t0
    assert elapsed < 120
    _report(2, elapsed, "; ".join(f"{r.property_id}={r.statistic:.2e}" for r in reports))


def test_criterion_03_kl_closed_form_continuous():
    t0 = time.time()
    r = harness.check_kl_closed_forms(SEED, "continuous")
    assert r.passed, r.summary()
    assert r.statistic <= 1e-12
    assert r.samples == 5 * harness.GATE_TRIALS
    elapsed = time.time() - t0
    assert elapsed < 120
    _report(3, elapsed, f"worst relative error {r.statistic:.1e} over 5 configs")


def test_criterion_04_loss_convergence_all_modalities():
    t0 = time.time()
    tolerances = {"continuous": 0.005, "discretised": 0.01, "discrete": 0.01}
    details = []
    for modality, tol in tolerances.items():
        r = harness.check_loss_convergence(SEED, modality)
        assert r.passed, r.summary()
        assert r.tolerance == tol
        details.append(f"{modality}: final gap {r.statistic:.2%}")
    elapsed = time.time() - t0
    assert elapsed < 300
    _report(4, elapsed, "; ".join(details))


def test_criterion_05_multinomial_limit():
    t0 = time.time()
    details = []
    for K in (2, 5):
        r = harness.check_finite_m_limit(SEED, K=K)
        assert r.passed, r.summary()
        details.append(f"K={K}: {r.detail.split(' identity')[0]}")
    elapsed = time.time() - t0
    assert elapsed < 120
    _report(5, elapsed, "; ".join(details))


def _seed_offset(name):
    return sum(ord(c) for c in name)


def test_criterion_06_gradient_correctness():
    t0 = time.time()
    worst_overall = 0.0
    for modality in ("continuous", "discretised", "discrete"):
        kwargs = dict(modality=modality, D=3, batch_size=4, steps=1, seed=SEED, hidden=(8, 8))
        if modality == "continuous":
            kwargs["sigma1"] = 0.02
        elif modality == "discretised":
            kwargs.update(sigma1=0.2, K=8)
        else:
            kwargs.update(beta1=2.0, K=4)
        config = training.TrainConfig(**kwargs)
        mlp = MLP(config.predictor_spec(), seed=3)
        r = Rng(100 + _seed_offset(modality))
        if modality == "discrete":
            x = r.integers(1, config.K + 1, size=(4, 3))
        else:
            x = r.uniform(size=(4, 3)) * 1.6 - 0.8
        state = training.sample_head_state(r, config, x)
        _, grad = training.batch_loss_and_grad(mlp, config, state)
        h = 1e-5
        gen = np.random.default_rng(0)
        for j in gen.choice(mlp.n_params, size=50, replace=False):
            saved = mlp.params[j]
            mlp.params[j] = saved + h
            lp = _mean_head_loss(mlp, config, state)
            mlp.params[j] = saved - h
            lm = _mean_head_loss(mlp, config, state)
            mlp.params[j] = saved
            fd = (lp - lm) / (2 * h)
            rel = abs(grad[j] - fd) / max(abs(fd), abs(grad[j]), 1e-6)
            worst_overall = max(worst_overall, rel)
            assert rel < 1e-5, f"{modality} param {j}: analytic {grad[j]} vs fd {fd}"
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(6, elapsed, f"worst relative gradient error {worst_overall:.2e} over 150 parameters")


def test_criterion_07_bin_centre_golden_value():
    t0 = time.time()
    assert dsc.BinGeometry(256).center(110) == -0.14453125
    _report(7, time.time() - t0, "centre(110 of 256) == -0.14453125 exactly")


def test_criterion_08_schedule_checks():
    t0 = time.time()
    # telescoping at 1e-10
    for sched in (ContinuousSigma(0.001), DiscreteQuadratic(0.75)):
        total = sched.beta(1.0)
        for n in (1, 2, 7, 100):
            s = sum(sched.step_alpha(i, n) for i in range(1, n + 1))
            assert abs(s - total) <= 1e-10 * max(1.0, total)
    # entropy linearity: ln(1 + beta(t)) exactly affine in t
    s = ContinuousSigma(0.001)
    for t in np.linspace(0, 1, 101):
        assert np.log1p(s.beta(float(t))) == pytest.approx(-2.0 * t * np.log(0.001), rel=1e-12, abs=1e-12)
    # presets
    assert PRESETS["cts-256bin"].sigma1 == 0.001
    assert PRESETS["cts-16bin"].sigma1 == pytest.approx(np.sqrt(0.001), rel=1e-15)
    assert PRESETS["binary"].beta1 == 3.0
    assert PRESETS["chars27"].beta1 == 0.75
    _report(8, time.time() - t0, "telescoping, entropy linearity and presets all hold")


def test_criterion_09_toy_training():
    t0 = time.time()
    # discrete toy: 4 strings over the 27-symbol alphabet
    ds = data.toy_strings()
    config = training.TrainConfig(
        modality="discrete", D=16, K=27, beta1=3.0, batch_size=32,
        steps=2000, learning_rate=1e-3, weight_decay=0.0, seed=5,
        hidden=(256, 256), ema_decay=0.99,
    )
    mlp0 = MLP(config.predictor_spec(), seed=config.seed)
    init_loss = training.estimate_mean_loss(Rng(99), mlp0, mlp0.params, config, ds.items, n_draws=50)
    result = training.train(Rng(6), ds.items, config)
    final_loss = training.estimate_mean_loss(Rng(99), result.mlp, result.mlp.params, config, ds.items, n_draws=50)
    assert final_loss < 0.1 * init_loss
    train_elapsed = time.time() - t0
    assert train_elapsed < 300

    # 100 samples of 100 steps, one stream each, drawn in one batched call
    predictor = training.ema_predictor(result)
    targets = {tuple(row) for row in ds.items}
    gen_rng = Rng(77)
    samples = sample_chain(dd, [gen_rng.split(j) for j in range(100)], predictor, config.flow, 100)
    hits = sum(tuple(row) in targets for row in samples)
    assert hits >= 90

    # continuous toy: one constant datum, loss under 1% of initial
    cfg2 = training.TrainConfig(
        modality="continuous", D=2, sigma1=0.1, batch_size=128,
        steps=2000, learning_rate=3e-3, weight_decay=0.0, seed=11,
        hidden=(64, 64), t_min=1e-3, n_freqs=10,
    )
    datum = np.tile([[0.4, -0.2]], (1, 1))
    mlp0 = MLP(cfg2.predictor_spec(), seed=cfg2.seed)
    init2 = training.estimate_mean_loss(Rng(991), mlp0, mlp0.params, cfg2, datum, n_draws=6000)
    res2 = training.train(Rng(6), datum, cfg2)
    final2 = training.estimate_mean_loss(Rng(991), res2.mlp, res2.mlp.params, cfg2, datum, n_draws=6000)
    assert final2 < 0.01 * init2
    elapsed = time.time() - t0
    _report(
        9, elapsed,
        f"discrete toy {init_loss:.0f}->{final_loss:.1f} nats ({final_loss / init_loss:.1%}), "
        f"samples {hits}/100 memorised; continuous toy {init2:.2f}->{final2:.4f} ({final2 / init2:.2%})",
    )


def test_criterion_10_determinism(tmp_path, child_env):
    t0 = time.time()
    toys = data.write_toys(tmp_path / "toys")
    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text(
        "modality = discrete\nD = 16\nK = 27\nbeta1 = 3.0\nbatch_size = 16\n"
        "steps = 20\nlearning_rate = 0.002\nweight_decay = 0.0\nema_decay = 0.99\n"
        "seed = 5\nhidden = 32,32\n"
        f"dataset = {toys['strings']}\n"
    )

    def run(args):
        proc = subprocess.run(
            [sys.executable, "-m", "bflow.cli", *args],
            capture_output=True, text=True, cwd=tmp_path, env=child_env,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    for tag in ("a", "b"):
        run(["train", "--config", str(cfg_path), "--out", f"run_{tag}"])
        run([
            "sample", "--checkpoint", f"run_{tag}/model.ckpt", "--count", "2",
            "--steps", "8", "--seed", "21", "--out", f"samp_{tag}",
        ])
        run([
            "eval", "--checkpoint", f"run_{tag}/model.ckpt", "--dataset", str(toys["strings"]),
            "--n", "4", "--passes", "1", "--seed", "3", "--out", f"eval_{tag}.csv",
        ])
        run(["verify", "--seed", "7", "--filter", "schedule-telescoping", "--report", f"rep_{tag}.jsonl"])

    pairs = [
        ("run_a/model.ckpt", "run_b/model.ckpt"),
        ("run_a/history.csv", "run_b/history.csv"),
        ("samp_a/sample_000.txt", "samp_b/sample_000.txt"),
        ("samp_a/sample_001.txt", "samp_b/sample_001.txt"),
        ("eval_a.csv", "eval_b.csv"),
        ("rep_a.jsonl", "rep_b.jsonl"),
    ]
    for a, b in pairs:
        assert (tmp_path / a).read_bytes() == (tmp_path / b).read_bytes(), f"{a} differs from {b}"

    # checkpoint save -> load -> save is byte-identical
    result, header = training.load_checkpoint(tmp_path / "run_a/model.ckpt")
    result.history = [(i, 0.0, None) for i in range(20)]  # restore the step count
    training.save_checkpoint(tmp_path / "roundtrip.ckpt", result, run_config=header["run_config"])
    assert (tmp_path / "roundtrip.ckpt").read_bytes() == (tmp_path / "run_a/model.ckpt").read_bytes()
    _report(10, time.time() - t0, "train/sample/eval/verify byte-identical across runs; checkpoint round-trips")
