"""Continuous-data operations: updates, flow, losses, sampling."""

from dataclasses import replace

import numpy as np
import pytest

from bflow import continuous as cts
from bflow.numerics import Rng, gaussian_sample, log_gaussian_pdf
from bflow.predictor import MLP, ConstantPredictor, PredictorSpec
from bflow.schedule import ContinuousSigma, FlowConfig
from oracle_predictors import CtsDatumPredictor

CFG = FlowConfig(ContinuousSigma(0.02), D=1)


class TestBayesUpdate:
    def test_direct_arithmetic(self):
        p = cts.bayes_update(cts.prior(1), np.array([1.0]), 1.0)
        assert p.precision == 2.0
        assert p.mean[0] == pytest.approx(0.5)

    def test_small_alpha_continuity(self):
        base = cts.CtsParams(mean=np.array([0.3]), precision=4.0)
        p = cts.bayes_update(base, np.array([1.0]), 1e-12)
        assert p.mean[0] == pytest.approx(0.3, abs=1e-11)
        assert p.precision == pytest.approx(4.0, abs=1e-11)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            cts.bayes_update(cts.prior(1), np.array([0.0]), 0.0)

    def test_sequential_vs_merged_observation(self):
        # two updates equal one update with the precision-weighted merged
        # observation at the combined accuracy
        base = cts.CtsParams(mean=np.array([0.1, -0.4]), precision=2.0)
        ya, yb = np.array([0.7, 0.2]), np.array([-0.3, 0.5])
        aa, ab = 0.8, 1.7
        two = cts.bayes_update(cts.bayes_update(base, ya, aa), yb, ab)
        merged = cts.bayes_update(base, (ya * aa + yb * ab) / (aa + ab), aa + ab)
        np.testing.assert_allclose(two.mean, merged.mean, atol=1e-12)
        assert two.precision == pytest.approx(merged.precision, rel=1e-15)

    def test_precision_additivity_exact_for_dyadic(self):
        base = cts.prior(1)
        y = np.array([0.5])
        for aa, ab in [(0.25, 0.5), (1.0, 2.0), (0.125, 0.375)]:
            two = cts.bayes_update(cts.bayes_update(base, y, aa), y, ab)
            one = cts.bayes_update(base, y, aa + ab)
            assert two.precision == one.precision


class TestFlowSample:
    def test_degenerate_at_zero(self):
        p = cts.flow_sample(Rng(0), CFG, np.array([[0.9]]), 0.0)
        assert p.mean[0, 0] == 0.0
        assert p.precision[0] == 1.0

    def test_moments_at_one(self):
        r = Rng(1)
        x = np.array([0.8])
        g = 1 - 0.02**2
        draws = np.array([cts.flow_sample(r, CFG, x[None], 1.0).mean[0, 0] for _ in range(100_000)])
        se = np.sqrt(g * (1 - g) / draws.size)
        assert abs(draws.mean() - g * 0.8) < 4 * se

    def test_precision_is_closed_form(self):
        p = cts.flow_sample(Rng(2), CFG, np.array([[0.0]]), 0.6)
        assert p.precision[0] == 1.0 + CFG.schedule.beta(0.6)

    def test_matches_sequential_updates(self):
        # flow at t must agree with n sequential noisy updates in
        # distribution; compare mean/variance of the belief mean
        r = Rng(3)
        x = np.array([0.5])
        t, n, trials = 0.5, 64, 100_000
        sched = CFG.schedule
        direct = np.array([cts.flow_sample(r, CFG, x[None], t).mean[0, 0] for _ in range(trials)])
        seq = np.zeros(trials)
        means = np.zeros(trials)
        prec = np.ones(trials)
        for i in range(1, n + 1):
            a = sched.beta(t * i / n) - sched.beta(t * (i - 1) / n)
            y = gaussian_sample(r, np.broadcast_to(x, (trials,)), 1.0 / a)
            means = (means * prec + y * a) / (prec + a)
            prec = prec + a
        seq = means
        assert abs(direct.mean() - seq.mean()) / abs(seq.mean()) < 0.01
        assert abs(direct.var() - seq.var()) / seq.var() < 0.03

    def test_range_precondition(self):
        with pytest.raises(ValueError):
            cts.flow_sample(Rng(0), CFG, np.array([[1.5]]), 0.5)


class TestOutputPrediction:
    def test_below_tmin_is_zero(self):
        pred = ConstantPredictor(np.array([9.9]))
        p = cts.CtsParams(mean=np.array([0.7]), precision=1.0)
        assert cts._x_hat(pred, CFG, p.mean[None], 0.0)[0, 0] == 0.0

    def test_noise_inversion_recovers_datum(self):
        x = np.array([0.43])
        pred = CtsDatumPredictor(x, CFG.schedule.sigma1)
        r = Rng(4)
        for t in (0.2, 0.6, 0.95):
            p = cts.flow_sample(r, CFG, x[None], t)
            np.testing.assert_allclose(cts._x_hat(pred, CFG, p.mean, t)[0], x, atol=1e-12)

    def test_zero_noise_estimate(self):
        # gamma = 0.5 at t = ln(0.5)/(2 ln sigma1); x_hat = mean / gamma
        t = np.log(0.5) / (2 * np.log(CFG.schedule.sigma1))
        pred = ConstantPredictor(np.array([0.0]))
        p = cts.CtsParams(mean=np.array([0.3]), precision=1.0)
        assert cts._x_hat(pred, CFG, p.mean[None], t)[0, 0] == pytest.approx(0.6, rel=1e-12)

    def test_wrong_width_rejected(self):
        pred = ConstantPredictor(np.zeros(3))
        p = cts.prior(1)
        with pytest.raises(ValueError):
            cts._x_hat(pred, CFG, p.mean[None], 0.5)

    def test_clipping(self):
        pred = ConstantPredictor(np.array([5.0]), predicts_data=True)
        p = cts.prior(1)
        assert cts._x_hat(pred, CFG, p.mean[None], 0.5)[0, 0] == cts.X_MAX


class TestLossNStep:
    def test_perfect_predictor_zero_for_all_n(self):
        # away from the t=0 step (where the prediction is pinned to zero)
        # a perfect predictor gives exactly zero loss
        x = np.array([0.31, -0.6])
        cfg = FlowConfig(ContinuousSigma(0.02), D=2)
        pred = ConstantPredictor(x, predicts_data=True)
        r = Rng(5)
        for n in (2, 5, 30):
            i = r.integers(2, n + 1, size=20)
            assert np.all(cts.loss_n(r, pred, cfg, np.tile(x, (20, 1)), n, i) == 0.0)
        # the zero datum is perfectly predicted even at i=1 (t < t_min branch)
        zero = np.zeros((1, 2))
        zpred = ConstantPredictor(zero[0], predicts_data=True)
        for n in (1, 2, 5, 30):
            assert cts.loss_n(r, zpred, cfg, zero, n, r.integers(1, n + 1, size=1))[0] == 0.0

    def test_single_step_closed_form(self):
        # n=1 forces i=1, t=0, zero prediction
        x = np.array([0.5])
        pred = ConstantPredictor(x, predicts_data=True)
        expected = (1 - CFG.schedule.sigma1**2) / 2 * 0.25 / CFG.schedule.sigma1**2
        assert cts.loss_n(Rng(6), pred, CFG, x[None], 1, 1)[0] == pytest.approx(expected, rel=1e-12)

    def test_mean_matches_quadrature_oracle(self):
        # biased datum predictor: residual is constant, so the expectation
        # over (i, noise) reduces to a sum over i computable exactly
        x = np.array([0.4])
        e = 0.1
        pred = ConstantPredictor(x + e, predicts_data=True)
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


class TestLossNBatch:
    """Batched loss_n draws each row's noise as one-row loss_n calls on
    the same stream do."""

    cfg = FlowConfig(ContinuousSigma(0.02), D=2)
    x = np.random.default_rng(3).uniform(-1, 1, size=(16, 2))
    pred = CtsDatumPredictor(np.array([0.3, -0.2]), 0.02)

    def test_one_step_matches_sequential_calls(self):
        a, b = Rng(20), Rng(20)
        got = cts.loss_n(a, self.pred, self.cfg, self.x, 10, 4)
        want = [cts.loss_n(b, self.pred, self.cfg, row[None], 10, 4)[0] for row in self.x]
        assert np.array_equal(got, want)
        assert a.draws == b.draws == 32

    def test_first_step_single_row_draws_nothing(self):
        """Step 1 sits at t=0, where the flow state is the prior; the row
        still draws its flow noise, scaled by zero."""
        a, b = Rng(21), Rng(21)
        got = cts.loss_n(a, self.pred, self.cfg, self.x[:1], 10, 1)
        assert got[0] == cts.loss_n(b, self.pred, self.cfg, self.x[:1], 10, 1)[0]
        assert a.draws == b.draws == 2

    def test_mixed_steps_match_per_row_calls(self):
        """Per-row steps make t an array, and numpy's vectorised power can
        differ from Python's in the last bit, so rows agree to 1e-12."""
        i = np.arange(16) % 10 + 1
        a, b = Rng(22), Rng(22)
        got = cts.loss_n(a, self.pred, self.cfg, self.x, 10, i)
        want = [cts.loss_n(b, self.pred, self.cfg, row[None], 10, int(k))[0] for row, k in zip(self.x, i)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert a.draws == b.draws


class TestLossCtsTime:
    def test_perfect_predictor_zero(self):
        x = np.array([0.2])
        pred = ConstantPredictor(x, predicts_data=True)
        assert cts.loss_cts(Rng(8), pred, CFG, x[None], 0.7)[0] == 0.0

    def test_constant_error_closed_form(self):
        x = np.array([0.1, 0.2])
        cfg = FlowConfig(ContinuousSigma(0.02), D=2)
        e = 0.05
        pred = ConstantPredictor(x + e, predicts_data=True)
        t = 0.43
        expected = -np.log(cfg.schedule.sigma1) * cfg.schedule.sigma1 ** (-2 * t) * 2 * e**2
        assert cts.loss_cts(Rng(9), pred, cfg, x[None], t)[0] == pytest.approx(expected, rel=1e-12)


class TestReconstructionLoss:
    def test_perfect_zero(self):
        x = np.array([0.9])
        pred = ConstantPredictor(x, predicts_data=True)
        assert cts.recon(Rng(10), pred, replace(CFG, recon_sigma=0.1), x[None])[0] == 0.0

    def test_constant_error(self):
        x = np.array([0.0])
        pred = ConstantPredictor(x + 0.2, predicts_data=True)
        got = cts.recon(Rng(11), pred, replace(CFG, recon_sigma=0.5), x[None])[0]
        assert got == pytest.approx(0.2**2 / (2 * 0.25), rel=1e-12)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            cts.recon(Rng(0), ConstantPredictor(np.zeros(1)), CFG, np.zeros((1, 1)))


class TestGenerate:
    def test_constant_oracle_converges(self):
        c = 0.37
        pred = ConstantPredictor(np.array([c]), predicts_data=True)
        out = cts.generate(Rng(12), pred, CFG, 50)
        assert abs(out[0] - c) <= 3 * CFG.schedule.sigma1

    def test_predictor_called_exactly_twice_for_one_step(self):
        calls = []

        class Counting(ConstantPredictor):
            def forward_batch(self, X, t):
                calls.append(t)
                return super().forward_batch(X, t)

        pred = Counting(np.array([0.1]), predicts_data=True)
        cts.generate(Rng(13), pred, CFG, 1)
        # first call lands below t_min so only the t=1 call reaches the
        # predictor; the loop itself runs twice
        assert len(calls) == 1
        cts.generate(Rng(13), pred, CFG, 2)

    def test_deterministic_under_seed(self):
        pred = CtsDatumPredictor(np.array([0.2]), CFG.schedule.sigma1)
        a = cts.generate(Rng(14), pred, CFG, 10)
        b = cts.generate(Rng(14), pred, CFG, 10)
        assert np.array_equal(a, b)

    def test_final_precision(self):
        pred = ConstantPredictor(np.array([0.0]), predicts_data=True)
        for n in (1, 7, 32):
            _, p = cts.generate(Rng(15), pred, CFG, n, return_params=True)
            assert p.precision == 1.0 + CFG.schedule.beta(1.0)

    def test_output_in_range(self):
        pred = ConstantPredictor(np.array([3.0]))
        out = cts.generate(Rng(16), pred, CFG, 5)
        assert cts.X_MIN <= out[0] <= cts.X_MAX


def _sample_chain_reference(rng, cfg, n, estimate):
    """continuous.sample_chain as it stood before the noise buffer was
    reused: the per-stream noise rebuilt with np.array every step."""
    sched = cfg.schedule
    rngs = [rng] if isinstance(rng, Rng) else list(rng)
    p = cts.CtsParams(mean=np.zeros((len(rngs), cfg.D)), precision=1.0)
    for i in range(1, n + 1):
        x_hat = estimate(p.mean, (i - 1) / n, rngs)
        alpha = sched.step_alpha(i, n)
        z = np.array([r.standard_normal(cfg.D) for r in rngs])
        p = cts.bayes_update(p, gaussian_sample(None, x_hat, 1.0 / alpha, z), alpha, 1.0 + sched.beta(i / n))
    out = estimate(p.mean, 1.0, rngs)
    if isinstance(rng, Rng):
        out, p = out[0], cts.CtsParams(mean=p.mean[0], precision=p.precision)
    return out, p


class TestSampleChainMatchesReference:
    @pytest.mark.parametrize("n", [1, 9])
    def test_bits(self, n):
        cfg = FlowConfig(ContinuousSigma(0.02), D=3)
        mlp = MLP(PredictorSpec(3, 3, hidden=(16, 16)), seed=5)
        mlp.params += 0.5 * Rng(51).standard_normal(mlp.n_params)
        for rng in (lambda: Rng(52), lambda: [Rng(53).split(j) for j in range(5)]):
            out, p = cts.generate(rng(), mlp, cfg, n, return_params=True)
            ref, p_ref = _sample_chain_reference(rng(), cfg, n, lambda mean, t, rngs: cts._x_hat(mlp, cfg, mean, t))
            assert np.array_equal(out, ref) and np.array_equal(p.mean, p_ref.mean) and p.precision == p_ref.precision


class TestAdditivityDistribution:
    def test_two_stage_vs_one_stage_moments(self):
        # belief mean after (a_a then a_b) matches a single a_a + a_b update
        # in distribution; precision part is exact
        r = Rng(17)
        x = np.array([0.5])
        aa, ab = 1.0, 1.0
        trials = 400_000
        base = cts.prior(1)

        ya = gaussian_sample(r, np.full(trials, x[0]), 1 / aa)
        m1 = (base.mean[0] * base.precision + ya * aa) / (base.precision + aa)
        p1 = base.precision + aa
        yb = gaussian_sample(r, np.full(trials, x[0]), 1 / ab)
        m2 = (m1 * p1 + yb * ab) / (p1 + ab)

        yc = gaussian_sample(r, np.full(trials, x[0]), 1 / (aa + ab))
        m_one = (base.mean[0] * base.precision + yc * (aa + ab)) / (base.precision + aa + ab)

        assert p1 + ab == base.precision + (aa + ab)
        assert abs(m2.mean() - m_one.mean()) / abs(m_one.mean()) < 0.01
        assert abs(m2.var() - m_one.var()) / m_one.var() < 0.01


class TestKlClosedForm:
    def test_mc_log_ratio_matches_quadratic(self):
        # KL(sender || receiver) for Dirac outputs has the closed form
        # alpha/2 |x - x_hat|^2; verify by Monte-Carlo log-ratio at D=1
        r = Rng(18)
        rng_cfg = np.random.default_rng(0)
        for _ in range(5):
            x = float(rng_cfg.uniform(-1, 1))
            x_hat = float(rng_cfg.uniform(-1, 1))
            alpha = float(rng_cfg.uniform(0.5, 4.0))
            n = 1_000_000
            y = gaussian_sample(r, np.full(n, x), 1 / alpha)
            log_ratio = (-0.5 * alpha * (y - x) ** 2) - (-0.5 * alpha * (y - x_hat) ** 2)
            closed = alpha / 2 * (x - x_hat) ** 2
            se = log_ratio.std(ddof=1) / np.sqrt(n)
            assert abs(log_ratio.mean() - closed) <= 3 * se

    def test_zero_when_estimate_equals_datum(self):
        assert 0.5 * 1.3 * (0.4 - 0.4) ** 2 == 0.0
