"""Discrete-data operations: sender moments, update algebra, losses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bflow import continuous as cts
from bflow import discrete as dd
from bflow import discretised as dsc
from bflow import harness
from bflow.numerics import Rng, RowStreams, log_gaussian_pdf, softmax_rows
from bflow.predictor import MLP, ConstantPredictor, PredictorSpec
from bflow.schedule import ContinuousSigma, DiscreteQuadratic, FlowConfig, loss_cts, sample_chain

SCHED = DiscreteQuadratic(0.75)


class TestSenderSample:
    def test_block_mean_and_variance_formula(self):
        m = dd.sender_mean(np.array([1]), 4.0, 2)
        np.testing.assert_allclose(m, [[4.0, -4.0]])
        # a draw's exact moments, from its values at the harness's noise rows
        alpha, K = 1.5, 3
        rows = dd.sender_sample(harness._unit_noise(1, K)[0], np.full((1 + K, 1), 2), alpha, K)
        mean, cov = harness._affine_moments(rows)
        assert np.abs(mean - alpha * (K * np.eye(K)[1] - 1)).max() < 1e-12
        assert np.abs(cov - alpha * K * np.eye(K)).max() < 1e-12

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            dd.sender_sample(Rng(0), np.array([1]), 0.0, 2)

    def test_index_domain(self):
        with pytest.raises(ValueError):
            dd.sender_mean(np.array([0]), 1.0, 2)
        with pytest.raises(ValueError):
            dd.sender_mean(np.array([3]), 1.0, 2)

    @pytest.mark.parametrize("op", ["loss_n", "recon", "one_hot", "log_ratio"])
    def test_fractional_class_named(self, op):
        # the ops once cast x to int64, so [[1.5, 2.9]] scored as [[1, 2]]
        cfg, x, pred = FlowConfig(SCHED, 2, 4), np.array([[2.0, 1.5], [2.9, 1.0]]), ConstantPredictor(np.zeros(8))
        calls = {
            "loss_n": lambda: dd.loss_n(Rng(1), pred, cfg, x, 10, 4),
            "recon": lambda: dd.recon(Rng(1), pred, cfg, x),
            "one_hot": lambda: dd.one_hot(x, 4),
            "log_ratio": lambda: dd.log_ratio(np.zeros((2, 2, 4)), x, np.full((2, 2, 4), 0.25), 0.5, 4),
        }
        with pytest.raises(ValueError, match=r"class indices must be whole numbers, the first 1\.5 at index \(0, 1\)"):
            calls[op]()


class TestBayesUpdate:
    """The sampler's update: the summed logits plus one sender draw."""

    def test_uniform_prior_gives_softmax(self):
        cfg, x = FlowConfig(SCHED, 2, 4), np.array([[1, 3]])
        state = dd.prior(cfg, 1)
        np.testing.assert_array_equal(softmax_rows(state), 0.25)
        y = dd.sender_sample(None, x, SCHED.step_alpha(1, 4), 4, Rng(1).standard_normal((1, 2, 4)))
        after = dd.update(cfg, state, x, 1, 4, Rng(1))
        np.testing.assert_array_equal(after, y)
        np.testing.assert_allclose(dd.net_input(cfg, after), 2 * softmax_rows(y).reshape(1, -1) - 1, atol=1e-15)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_exact_additivity(self, seed):
        # each update adds its stream's sender draw to the logits, bit for bit
        gen = np.random.default_rng(seed)
        K, B, D, n = int(gen.integers(2, 8)), 3, 2, 5
        cfg = FlowConfig(SCHED, D, K)
        rngs, copies = ([Rng(seed).split(b) for b in range(B)] for _ in range(2))
        state = dd.prior(cfg, B)
        want = dd.prior(cfg, B)
        for i in (1, 2):
            x = gen.integers(1, K + 1, size=(B, D))
            state = dd.update(cfg, state, x, i, n, RowStreams(rngs))
            z = np.array([r.standard_normal((D, K)) for r in copies])
            want = want + dd.sender_sample(None, x, SCHED.step_alpha(i, n), K, z)
        np.testing.assert_array_equal(state, want)

    def test_rows_stay_on_simplex(self):
        # summed logits grow without bound, and their softmax stays a row
        # of probabilities
        cfg, r = FlowConfig(DiscreteQuadratic(2000.0), 4, 6), Rng(3)
        state = dd.prior(cfg, 1)
        for i in range(1, 201):
            state = dd.update(cfg, state, r.integers(1, 7, size=(1, 4)), i, 200, r)
            theta = softmax_rows(state)
            assert np.all(theta >= 0)
            np.testing.assert_allclose(theta.sum(axis=-1), 1.0, atol=1e-9)
        assert np.abs(state).max() > 500 and theta.max() == 1.0


class TestFlowSample:
    def test_concentrates_at_high_accuracy(self):
        sched = DiscreteQuadratic(100.0)
        r = Rng(5)
        hits = 0
        for _ in range(200):
            theta = softmax_rows(dd.flow_sample(r, FlowConfig(sched, 1, 3), np.array([2])[None], 1.0))[0]
            if theta[0, 1] > 0.999:
                hits += 1
        assert hits / 200 > 0.99


def _output_probs(pred, state, t, K):
    """Class probabilities (D, K) at one summed-logit state: the batched map
    on one row."""
    return dd.output_map(dd.net_out(pred, FlowConfig(SCHED, len(state), K), np.asarray(state)[None], t), K)[0]


class TestOutputDistribution:
    def test_zero_logits_uniform(self):
        pred = ConstantPredictor(np.zeros(8))
        probs = _output_probs(pred, np.zeros((2, 4)), 0.5, 4)
        np.testing.assert_allclose(probs, 0.25, atol=1e-12)

    def test_binary_zero_logit(self):
        pred = ConstantPredictor(np.zeros(3))
        probs = _output_probs(pred, np.zeros((3, 2)), 0.5, 2)
        np.testing.assert_allclose(probs, 0.5, atol=1e-12)

    def test_rows_sum_to_one_random_logits(self):
        rng = np.random.default_rng(7)
        pred = ConstantPredictor(rng.normal(0, 30, size=12))
        probs = _output_probs(pred, np.zeros((3, 4)), 0.2, 4)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_binary_sigmoid_equals_two_class_softmax(self):
        # the K=2 sigmoid path on class-1 logits z (B, D) must equal the
        # softmax path on the logit pairs (z, 0), class 2 included
        z = np.random.default_rng(8).normal(0, 4, size=(5, 3))
        p_sig = dd.output_map(z, 2)
        p_soft = softmax_rows(np.stack([z, np.zeros_like(z)], axis=-1))
        assert p_sig.shape == (5, 3, 2)
        np.testing.assert_allclose(p_sig, p_soft, atol=1e-12)

    def test_network_input_rescaled(self):
        seen = {}

        class Capture:
            def forward_batch(self, X, t):
                seen["state"] = np.array(X[0])
                return np.zeros((1, 6))

        theta = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
        with np.errstate(divide="ignore"):
            _output_probs(Capture(), np.log(theta), 0.1, 3)
        np.testing.assert_allclose(seen["state"], (2 * theta - 1).ravel())


class TestLossNStep:
    def test_one_hot_correct_zero_every_draw(self):
        x = np.array([1, 3, 2])
        pred = ConstantPredictor.one_hot(x, 4, sharpness=800.0)
        r = Rng(10)
        i = r.integers(1, 7, size=50)
        assert np.all(dd.loss_n(r, pred, FlowConfig(SCHED, 3, 4), np.tile(x, (50, 1)), 6, i) == 0.0)

    def test_binary_quadrature_oracle(self):
        # K=2, D=1: MC mean vs numeric integration of the mixture KL
        K, n, i = 2, 4, 3
        x = np.array([1])
        p_star = np.array([0.65, 0.35])
        pred = ConstantPredictor.from_probs(np.tile(p_star, (1, 1)))
        sched = DiscreteQuadratic(2.0)
        alpha = sched.step_alpha(i, n)
        r = Rng(11)
        trials = 150_000
        mc = dd.loss_n(r, pred, FlowConfig(sched, 1, K), np.tile(x, (trials, 1)), n, i) / n

        # 2-D Gaussian mixture KL collapses to 1-D: with u = y + alpha,
        # the log ratio is u_x - lse(log w + u); u ~ N(alpha K e_x, alpha K I)
        gh_x, gh_w = np.polynomial.hermite_e.hermegauss(64)
        gh_w = gh_w / math.sqrt(2 * math.pi)
        s = math.sqrt(alpha * K)
        ref = 0.0
        for za, wa in zip(gh_x, gh_w):
            u1 = alpha * K + s * za
            u2 = s * gh_x
            m = np.stack([np.full(64, math.log(p_star[0]) + u1), math.log(p_star[1]) + u2], axis=1)
            hi = m.max(axis=1, keepdims=True)
            lse = (hi + np.log(np.exp(m - hi).sum(axis=1, keepdims=True))).ravel()
            ref += wa * float((gh_w * (u1 - lse)).sum())
        se = mc.std(ddof=1) / math.sqrt(trials)
        assert abs(mc.mean() - ref) <= 3 * se

    def test_first_step_deterministic_structure(self):
        # i=1 uses t=0: flow is exactly uniform, so with a fixed seed the
        # estimate is a deterministic function of the sender draw only
        x = np.array([2])
        pred = ConstantPredictor.from_probs(np.tile(np.array([0.3, 0.3, 0.4]), (1, 1)))
        cfg = FlowConfig(SCHED, 1, 3)
        a = dd.loss_n(Rng(12), pred, cfg, x[None], 5, 1)
        b = dd.loss_n(Rng(12), pred, cfg, x[None], 5, 1)
        assert a == b


class TestLogRatio:
    """log_ratio against the sender density minus the K-component mixture
    density, each written out with log_gaussian_pdf."""

    K, D = 4, 3

    def _reference(self, y, x, probs, alpha):
        eye = np.eye(self.K)
        total = 0.0
        for d in range(self.D):
            send = log_gaussian_pdf(y[d], alpha * (self.K * eye[x[d] - 1] - 1.0), alpha * self.K)
            comps = [math.log(probs[d, k]) + log_gaussian_pdf(y[d], alpha * (self.K * eye[k] - 1.0), alpha * self.K)
                     for k in range(self.K)]
            total += send - np.logaddexp.reduce(comps)
        return total

    def test_matches_written_out_densities(self):
        gen = np.random.default_rng(9)
        for alpha in (0.05, 0.7, 4.0):
            x = gen.integers(1, self.K + 1, size=(5, self.D))
            probs = gen.dirichlet(np.ones(self.K), size=(5, self.D))
            y = dd.sender_sample(Rng(30), x, alpha, self.K)
            got = dd.log_ratio(y, x, probs, alpha, self.K)
            want = [self._reference(y[b], x[b], probs[b], alpha) for b in range(5)]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_nan_probability_gives_nan(self):
        x = np.array([[1, 2, 3]])
        probs = np.full((1, self.D, self.K), 1.0 / self.K)
        probs[0, 1, 2] = np.nan
        y = dd.sender_sample(Rng(31), x, 0.5, self.K)
        assert np.isnan(dd.log_ratio(y, x, probs, 0.5, self.K)[0])


class TestLossCtsTime:
    def test_one_hot_correct_zero(self):
        x = np.array([2, 2])
        pred = ConstantPredictor.one_hot(x, 3, sharpness=800.0)
        assert loss_cts(dd, Rng(13), pred, FlowConfig(SCHED, 2, 3), x[None], 0.6)[0] == 0.0

    def test_uniform_output_closed_form(self):
        K, D = 4, 3
        x = np.array([1, 2, 4])
        pred = ConstantPredictor(np.zeros(K * D))
        t = 0.37
        got = loss_cts(dd, Rng(14), pred, FlowConfig(SCHED, D, K), x[None], t)[0]
        expected = SCHED.beta1 * t * (K - 1) * D
        assert got == pytest.approx(expected, rel=1e-12)


class TestReconstructionLoss:
    def test_one_hot_correct_zero(self):
        x = np.array([3])
        pred = ConstantPredictor.one_hot(x, 4, sharpness=800.0)
        assert dd.recon(Rng(15), pred, FlowConfig(SCHED, 1, 4), x[None])[0] == 0.0

    def test_uniform_value(self):
        K, D = 5, 4
        x = np.array([1, 2, 3, 4])
        pred = ConstantPredictor(np.zeros(K * D))
        got = dd.recon(Rng(16), pred, FlowConfig(SCHED, D, K), x[None])[0]
        assert got == pytest.approx(D * math.log(K), rel=1e-12)

    def test_direct_log_prob_oracle(self):
        rng = np.random.default_rng(17)
        K, D = 4, 3
        logits = rng.normal(size=(D, K))
        pred = ConstantPredictor(logits.ravel())
        x = np.array([2, 1, 4])
        got = dd.recon(Rng(18), pred, FlowConfig(SCHED, D, K), x[None])[0]
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        ref = -sum(math.log(probs[d, x[d] - 1]) for d in range(D))
        assert got == pytest.approx(ref, abs=1e-12)


class TestGenerate:
    def test_forced_class(self):
        x = np.array([3, 1])
        pred = ConstantPredictor.one_hot(x, 4, sharpness=800.0)
        out = dd.generate(Rng(19), pred, SCHED, 8, 4, 2)
        np.testing.assert_array_equal(out, x)

    def test_theta_rows_remain_simplex(self):
        pred = ConstantPredictor(np.zeros(6))
        _, logits = sample_chain(dd, [Rng(21)], pred, FlowConfig(DiscreteQuadratic(50.0), 2, 3), 40, return_state=True)
        theta = softmax_rows(logits[0])
        np.testing.assert_allclose(theta.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(theta >= 0)


def _generate_reference(rngs, predictor, sched, n, K, D):
    """discrete.generate as its loop stood before the buffers were reused:
    per-stream arrays rebuilt every step, softmax and the categorical draw
    in their allocating forms, and the sender draw written out, so that
    none of the ops under test builds the reference."""

    def softmax(a):
        e = np.exp(a - np.max(a, axis=-1, keepdims=True))
        return e / np.sum(e, axis=-1, keepdims=True)

    B = len(rngs)
    logits = np.zeros((B, D, K))
    theta = np.full((B, D, K), 1.0 / K)
    for i in range(1, n + 2):
        u = np.array([r.uniform(size=(D, 1)) for r in rngs])
        X = 2.0 * theta[..., 0] - 1.0 if K == 2 else (2.0 * theta - 1.0).reshape(B, -1)
        out = predictor.forward_batch(X, (i - 1) / n)
        if K == 2:
            p1 = 1.0 / (1.0 + np.exp(-out))
            probs = np.stack([p1, 1.0 - p1], axis=-1)
        else:
            probs = softmax(out.reshape(B, D, K))
        cum = np.cumsum(probs, axis=-1)
        cum[..., -1] = np.maximum(cum[..., -1], 1.0)
        k = 1 + np.sum(u > cum, axis=-1).astype(np.int64)
        if i > n:
            break
        z = np.array([r.standard_normal((D, K)) for r in rngs])
        alpha = sched.step_alpha(i, n)
        onehot = (k[..., None] == np.arange(1, K + 1)).astype(np.float64)
        logits += alpha * (K * onehot - 1.0) + np.sqrt(alpha * K) * z
        theta = softmax(logits)
    return k, theta


class _LoggedRng(Rng):
    """Stream j of seed 34 that logs each draw's kind and size."""

    def __init__(self, j):
        super().__init__(34, (j,))
        self.log = []

    def uniform(self, size=None, out=None):
        self.log.append(("uniform", int(np.prod(size))))
        return super().uniform(size, out)

    def standard_normal(self, size=None, out=None):
        self.log.append(("normal", int(np.prod(size))))
        return super().standard_normal(size, out)


class TestGenerateMatchesReference:
    """The shared sampler over the discrete ops gives the reference loop's
    samples and states bit for bit, for one stream and for a batch of
    streams."""

    @staticmethod
    def _mlp(cfg):
        mlp = MLP(PredictorSpec(*dd.net_widths(cfg), hidden=(16, 16)), seed=3)
        mlp.params += 0.5 * Rng(31).standard_normal(mlp.spec.n_params)
        return mlp

    @pytest.mark.parametrize("K, D", [(27, 4), (2, 5)])
    @pytest.mark.parametrize("n", [1, 12])
    def test_bits(self, K, D, n):
        sched = DiscreteQuadratic(3.0)
        cfg = FlowConfig(sched, D, K)
        mlp = self._mlp(cfg)
        for streams in (lambda: [Rng(32)], lambda: [Rng(33).split(j) for j in range(5)]):
            k, logits = sample_chain(dd, streams(), mlp, cfg, n, return_state=True)
            k_ref, theta_ref = _generate_reference(streams(), mlp, sched, n, K, D)
            assert np.array_equal(k, k_ref) and np.array_equal(softmax_rows(logits), theta_ref)
            # generate runs one stream: each stream's run is its row of the batch
            for b, rng in enumerate(streams()):
                assert np.array_equal(dd.generate(rng, mlp, sched, n, K, D), k_ref[b])

    def test_hot_sender_leaves_the_reference(self, monkeypatch):
        # the reference writes its sender draw out, so a sender drawing at
        # 1.1x the scheduled accuracy moves the sampler alone
        sched = DiscreteQuadratic(3.0)
        cfg = FlowConfig(sched, 4, 27)
        mlp = self._mlp(cfg)
        real = dd.sender_sample
        monkeypatch.setattr(dd, "sender_sample", lambda rng, x, alpha, K, z=None: real(rng, x, 1.1 * alpha, K, z))
        streams = lambda: [Rng(33).split(j) for j in range(5)]
        k, logits = sample_chain(dd, streams(), mlp, cfg, 12, return_state=True)
        k_ref, theta_ref = _generate_reference(streams(), mlp, sched, 12, 27, 4)
        assert not (np.array_equal(k, k_ref) and np.array_equal(softmax_rows(logits), theta_ref))

    @pytest.mark.parametrize("B", [1, 3])
    def test_stream_layout(self, B):
        """Byte-identical samples rest on this layout, for each modality: the
        predictor's call times, one call per step and one at t = 1, and per
        stream the draws of each step in order, (n + 1) D categorical
        uniforms for discrete and discretised data and n sender blocks of
        D K or D normals.  Continuous data draws no uniform."""
        n, K, D = 6, 5, 3
        sigma = ContinuousSigma(0.02)
        cases = [  # ops, config, output width, draws of a step
            (dd, FlowConfig(SCHED, D, K), D * K, [("uniform", D), ("normal", D * K)]),
            (dsc, FlowConfig(sigma, D, K), 2 * D, [("uniform", D), ("normal", D)]),
            (cts, FlowConfig(sigma, D), D, [("normal", D)]),
        ]
        for ops, cfg, width, step in cases:
            calls = []

            class Counting(ConstantPredictor):
                def forward_batch(self, X, t):
                    calls.append(t)
                    return super().forward_batch(X, t)

            rngs = [_LoggedRng(j) for j in range(B)]
            sample_chain(ops, rngs, Counting(np.zeros(width)), cfg, n)
            assert calls == [(i - 1) / n for i in range(1, n + 2)]
            final = [("uniform", D)] if ops is not cts else []
            assert [r.log for r in rngs] == [step * n + final] * B
