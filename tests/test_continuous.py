"""Continuous-data operations: updates, flow, losses, sampling."""

from dataclasses import replace

import numpy as np
import pytest

from bflow import continuous as cts
from bflow.numerics import Rng
from bflow.predictor import MLP, CtsDatumPredictor, PredictorSpec
from bflow.schedule import ContinuousSigma, FlowConfig, loss_cts, sample_chain, step_time
from oracle_predictors import ConstantPredictor, inversion_bound

CFG = FlowConfig(ContinuousSigma(0.02), D=1)


class TestBayesUpdate:
    def test_direct_arithmetic(self):
        mean = cts.bayes_update(cts.prior(CFG, 1)[0], np.array([1.0]), 1.0, 1.0, 2.0)
        assert mean[0] == pytest.approx(0.5)

    def test_small_alpha_continuity(self):
        mean = cts.bayes_update(np.array([0.3]), np.array([1.0]), 1e-12, 4.0, 4.0 + 1e-12)
        assert mean[0] == pytest.approx(0.3, abs=1e-11)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            cts.bayes_update(cts.prior(CFG, 1)[0], np.array([0.0]), 0.0, 1.0, 1.0)

    def test_sequential_vs_merged_observation(self):
        # two updates equal one update with the precision-weighted merged
        # observation at the combined accuracy
        base = np.array([0.1, -0.4])
        ya, yb = np.array([0.7, 0.2]), np.array([-0.3, 0.5])
        aa, ab = 0.8, 1.7
        two = cts.bayes_update(cts.bayes_update(base, ya, aa, 2.0, 2.0 + aa), yb, ab, 2.0 + aa, 2.0 + aa + ab)
        merged = cts.bayes_update(base, (ya * aa + yb * ab) / (aa + ab), aa + ab, 2.0, 2.0 + aa + ab)
        np.testing.assert_allclose(two, merged, atol=1e-12)


class TestFlowSample:
    def test_degenerate_at_zero(self):
        assert cts.flow_sample(Rng(0), CFG, np.array([[0.9]]), 0.0)[0, 0] == 0.0

    def test_range_precondition(self):
        with pytest.raises(ValueError):
            cts.flow_sample(Rng(0), CFG, np.array([[1.5]]), 0.5)


class TestOutputPrediction:
    def test_below_tmin_is_zero(self):
        pred = ConstantPredictor(np.array([9.9]))
        assert cts.estimate(pred, CFG, np.array([[0.7]]), 0.0, None)[0, 0] == 0.0

    def test_noise_inversion_recovers_datum(self):
        x = np.array([0.43])
        pred = CtsDatumPredictor(x, CFG.schedule.sigma1)
        r = Rng(4)
        for t in (0.2, 0.6, 0.95):
            p = cts.flow_sample(r, CFG, x[None], t)
            np.testing.assert_allclose(cts.estimate(pred, CFG, p, t, None)[0], x, atol=1e-12)

    def test_zero_noise_estimate(self):
        # gamma = 0.5 at t = ln(0.5)/(2 ln sigma1); x_hat = mean / gamma
        t = np.log(0.5) / (2 * np.log(CFG.schedule.sigma1))
        pred = ConstantPredictor(np.array([0.0]))
        assert cts.estimate(pred, CFG, np.array([[0.3]]), t, None)[0, 0] == pytest.approx(0.6, rel=1e-12)

    def test_clipping(self):
        pred = CtsDatumPredictor(np.array([5.0]), CFG.schedule.sigma1)
        assert cts.estimate(pred, CFG, cts.prior(CFG, 1), 0.5, None)[0, 0] == cts.X_MAX


class TestLossNStep:
    def test_perfect_oracle_costs_its_estimate_error(self):
        # away from the t=0 step (where the prediction is pinned to zero)
        # the datum oracle's loss is the step weight, as loss_n writes it,
        # times |x - x_hat|^2 for the estimate at the flow state drawn from
        # the same stream; x_hat is x up to the inversion's rounding, and
        # exactly x on most rows, whose loss is exactly zero
        x = np.array([0.31, -0.6])
        cfg = FlowConfig(ContinuousSigma(0.02), D=2)
        s1 = cfg.schedule.sigma1
        pred = CtsDatumPredictor(x, s1)
        X = np.tile(x, (20, 1))
        for n in (2, 5, 30):
            i = Rng(n).integers(2, n + 1, size=20)
            got = cts.loss_n(Rng(5), pred, cfg, X, n, i)
            t = step_time(i, n)
            state = cts.flow_sample(Rng(5), cfg, X, t)
            err = x - cts.estimate(pred, cfg, state, t, None)
            weight = n * (1.0 - s1 ** (2.0 / n)) / (2.0 * s1 ** (2.0 * i / n))
            assert np.array_equal(got, weight * np.vecdot(err, err))
            assert np.all(np.abs(err) <= inversion_bound(x, state, cfg.schedule.gamma(t)[:, None]))
            assert 0 < np.sum(got == 0.0) < len(got)
        # the zero datum is perfectly predicted at i=1, where t < t_min masks the output
        zero = np.zeros((1, 2))
        zpred = CtsDatumPredictor(zero[0], s1)
        for n in (1, 2, 5, 30):
            assert cts.loss_n(Rng(6), zpred, cfg, zero, n, 1)[0] == 0.0

    def test_single_step_closed_form(self):
        # n=1 forces i=1, t=0, zero prediction
        x = np.array([0.5])
        pred = CtsDatumPredictor(x, CFG.schedule.sigma1)
        expected = (1 - CFG.schedule.sigma1**2) / 2 * 0.25 / CFG.schedule.sigma1**2
        assert cts.loss_n(Rng(6), pred, CFG, x[None], 1, 1)[0] == pytest.approx(expected, rel=1e-12)

    def test_mean_matches_quadrature_oracle(self):
        # biased datum predictor: residual is constant, so the expectation
        # over (i, noise) reduces to a sum over i computable exactly
        x = np.array([0.4])
        e = 0.1
        pred = CtsDatumPredictor(x + e, CFG.schedule.sigma1)
        n = 8
        r = Rng(7)
        trials = 100_000
        mc = cts.loss_n(r, pred, CFG, np.tile(x, (trials, 1)), n, r.integers(1, n + 1, size=trials)).mean()
        sched = CFG.schedule
        exact = 0.0
        for i in range(1, n + 1):
            res2 = x[0] ** 2 if i == 1 else e**2
            exact += sched.step_alpha(i, n) / 2 * res2
        assert abs(mc - exact) / exact < 0.01

    def test_index_domain(self):
        with pytest.raises(ValueError):
            cts.loss_n(Rng(0), ConstantPredictor(np.zeros(1)), CFG, np.zeros((1, 1)), 4, 5)


class TestLossCtsTime:
    def test_perfect_predictor_zero(self):
        x = np.array([0.2])
        pred = CtsDatumPredictor(x, CFG.schedule.sigma1)
        assert loss_cts(cts, Rng(8), pred, CFG, x[None], 0.7)[0] == 0.0

    def test_constant_error_closed_form(self):
        x = np.array([0.1, 0.2])
        cfg = FlowConfig(ContinuousSigma(0.02), D=2)
        e = 0.05
        pred = CtsDatumPredictor(x + e, cfg.schedule.sigma1)
        t = 0.43
        expected = -np.log(cfg.schedule.sigma1) * cfg.schedule.sigma1 ** (-2 * t) * 2 * e**2
        assert loss_cts(cts, Rng(9), pred, cfg, x[None], t)[0] == pytest.approx(expected, rel=1e-12)


class TestReconstructionLoss:
    def test_perfect_zero(self):
        x = np.array([0.9])
        pred = CtsDatumPredictor(x, CFG.schedule.sigma1)
        assert cts.recon(Rng(10), pred, replace(CFG, recon_sigma=0.1), x[None])[0] == 0.0

    def test_constant_error(self):
        x = np.array([0.0])
        pred = CtsDatumPredictor(x + 0.2, CFG.schedule.sigma1)
        got = cts.recon(Rng(11), pred, replace(CFG, recon_sigma=0.5), x[None])[0]
        assert got == pytest.approx(0.2**2 / (2 * 0.25), rel=1e-12)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            cts.recon(Rng(0), ConstantPredictor(np.zeros(1)), CFG, np.zeros((1, 1)))


class TestGenerate:
    def test_constant_oracle_converges(self):
        c = 0.37
        pred = CtsDatumPredictor(np.array([c]), CFG.schedule.sigma1)
        out = sample_chain(cts, [Rng(12)], pred, CFG, 50)
        assert abs(out[0, 0] - c) <= 3 * CFG.schedule.sigma1

    def test_predictor_called_exactly_twice_for_one_step(self):
        calls = []

        class Counting(CtsDatumPredictor):
            def forward_batch(self, X, t):
                calls.append(t)
                return super().forward_batch(X, t)

        pred = Counting(np.array([0.1]), CFG.schedule.sigma1)
        sample_chain(cts, [Rng(13)], pred, CFG, 1)
        # the step's estimate at t = 0, below t_min, where the output map
        # masks the network's output, and the sample's at t = 1
        assert calls == [0.0, 1.0]

    def test_output_in_range(self):
        pred = ConstantPredictor(np.array([3.0]))
        out = sample_chain(cts, [Rng(16)], pred, CFG, 5)
        assert cts.X_MIN <= out[0, 0] <= cts.X_MAX


def _sample_chain_reference(rngs, cfg, n, estimate):
    """continuous.sample_chain as it stood before the noise buffer was
    reused: the per-stream noise rebuilt with np.array every step, the
    precision carried from step to step, and the sender draw and Bayesian
    update written out, so that none of the ops under test builds the
    reference."""
    sched = cfg.schedule
    mean, precision = np.zeros((len(rngs), cfg.D)), 1.0
    for i in range(1, n + 1):
        x_hat = estimate(mean, (i - 1) / n)
        alpha = sched.step_alpha(i, n)
        z = np.array([r.standard_normal(cfg.D) for r in rngs])
        y = x_hat + np.sqrt(1.0 / alpha) * z
        new_precision = 1.0 + sched.beta(i / n)
        mean, precision = (mean * precision + y * alpha) / new_precision, new_precision
    return estimate(mean, 1.0), mean


class TestSampleChainMatchesReference:
    cfg = FlowConfig(ContinuousSigma(0.02), D=3)

    @classmethod
    def _estimate(cls):
        """cts.estimate on a perturbed MLP, as the reference's estimate."""
        mlp = MLP(PredictorSpec(3, 3, hidden=(16, 16)), seed=5)
        mlp.params += 0.5 * Rng(51).standard_normal(mlp.n_params)
        return mlp, lambda mean, t: cts.estimate(mlp, cls.cfg, mean, t, None)

    @pytest.mark.parametrize("n", [1, 9])
    def test_bits(self, n):
        mlp, estimate = self._estimate()
        for streams in (lambda: [Rng(52)], lambda: [Rng(53).split(j) for j in range(5)]):
            out, p = sample_chain(cts, streams(), mlp, self.cfg, n, return_state=True)
            ref, p_ref = _sample_chain_reference(streams(), self.cfg, n, estimate)
            assert np.array_equal(out, ref) and np.array_equal(p, p_ref)

    @pytest.mark.parametrize("op, mutant", [
        ("bayes_update", lambda real: lambda mean, y, alpha, p, new_p: real(mean, y, alpha, 1.05 * p, new_p)),
        ("gaussian_sample", lambda real: lambda rng, mean, var, z=None: real(rng, mean, 1.1 * var, z)),
    ], ids=["hot-prior-precision", "hot-sender-variance"])
    def test_mutant_leaves_the_reference(self, monkeypatch, op, mutant):
        # the reference writes the update and the sender draw out, so a
        # mutant of either op moves the sampler alone
        mlp, estimate = self._estimate()
        monkeypatch.setattr(cts, op, mutant(getattr(cts, op)))
        streams = lambda: [Rng(53).split(j) for j in range(5)]
        out, p = sample_chain(cts, streams(), mlp, self.cfg, 9, return_state=True)
        ref, p_ref = _sample_chain_reference(streams(), self.cfg, 9, estimate)
        assert not (np.array_equal(out, ref) and np.array_equal(p, p_ref))
