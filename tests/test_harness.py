"""The verification suite itself: checks pass, reports are stable, and
seeded mutations of the formulas are detected."""

import json
import tracemalloc

import numpy as np
import pytest

from bflow import continuous as cts
from bflow import discrete as dd
from bflow import discretised as dsc
from bflow import harness, numerics
from bflow.harness import FiniteMSimulator
from bflow.numerics import Rng
from bflow.predictor import MLP, PredictorSpec
from bflow.schedule import ContinuousSigma, DiscreteQuadratic, FlowConfig, sample_chain

# the properties whose main statistic is exact: moments from noise rows
AFFINE = ("additivity-continuous", "additivity-discrete", "flow-equivalence-continuous",
          "flow-equivalence-discrete", "finite-m-limit-K2", "finite-m-limit-K5")


class TestReports:
    def test_line_format_fixed_field_order(self):
        r = harness.check_schedule_telescoping(3)
        record = json.loads(r.to_line())
        assert list(record.keys()) == [
            "property_id", "modality", "statistic", "tolerance",
            "passed", "samples", "seed", "params", "detail",
        ]

    def test_reproducible_given_seed(self):
        a = harness.check_additivity(11, "continuous")
        b = harness.check_additivity(11, "continuous")
        assert a.to_line() == b.to_line()

    def test_summary_marks(self):
        r = harness.check_schedule_telescoping(3)
        assert r.summary().startswith("[PASS]")


class TestIndividualChecks:
    def test_finite_m_domain_guard(self):
        with pytest.raises(ValueError):
            FiniteMSimulator(m=1, K=2, alpha=4.0).omega

    def test_alpha_recorded(self):
        sim = FiniteMSimulator(m=10_000, K=2, alpha=0.25)
        assert sim.alpha == pytest.approx(sim.m * sim.omega**2, rel=1e-12)


class TestExactMoments:
    """The noise-row moments of the flow ops against their closed forms."""

    def test_continuous_flow(self):
        cfg, x = FlowConfig(ContinuousSigma(0.02), D=1), 0.5
        for t in (0.5, 1.0):
            state = cts.flow_sample(harness._unit_noise(1, 1)[0], cfg, np.full((2, 1), x), t)
            mean, cov = harness._affine_moments(state)
            g = cfg.schedule.gamma(t)
            assert abs(mean[0] - g * x) < 1e-12 and abs(cov[0, 0] - g * (1 - g)) < 1e-12

    def test_discrete_flow(self):
        K, t = 3, 0.7
        sched = DiscreteQuadratic(2.0)
        noise = harness._unit_noise(1, K)[0]
        state = dd.flow_sample(noise, FlowConfig(sched, K + 1, K), np.ones((1, K + 1), dtype=np.int64), t)[0]
        mean, cov = harness._affine_moments(state)
        beta = sched.beta(t)
        assert np.abs(mean - dd.sender_mean(1, beta, K)).max() < 1e-12
        assert np.abs(cov - beta * K * np.eye(K)).max() < 1e-12

    def test_multinomial_moments_match_sampled(self):
        sim = FiniteMSimulator(m=50, K=3, alpha=0.25)
        mean, cov = sim.centred_moments(2)
        y = sim.sample_y(np.random.default_rng(0), 2, 200_000)
        y -= y.mean(axis=1, keepdims=True)
        assert np.abs(y.mean(0) - mean).max() < 5 * np.sqrt(cov.diagonal().max() / y.shape[0])
        assert np.abs(np.cov(y.T) - cov).max() < 0.02 * np.abs(cov).max()


def _full_rule_log_ratio_means(alphas, x, probs, K, nodes=24):
    """E[dd.log_ratio] by a K-dim product Gauss-Hermite rule over
    the raw sender noise, shared by every dimension, nodes weighing under
    1e-20 left out: the rule the discrete loss strata used before they
    integrated over the K - 1 noise differences only."""
    points, weights = harness._hermgauss(nodes)
    grid = lambda v: np.stack(np.meshgrid(*([v] * K), indexing="ij"), axis=-1).reshape(-1, K)
    w = grid(weights).prod(axis=1)
    keep = w > 1e-20
    z = np.repeat(grid(points)[keep][:, None, :], x.size, axis=1)
    xs = np.tile(x, (keep.sum(), 1))
    return np.array([np.sum(w[keep] * dd.log_ratio(dd.sender_sample(None, xs, a, K, z=z), xs, probs, a, K))
                     for a in alphas])


class TestDiscreteStrata:
    """loss-convergence-discrete's setting: mass 1/2 on each true class."""

    K, x = 3, np.array([1, 2])
    probs = np.stack([np.roll([0.5, 1 / 3, 1 / 6], xi - 1) for xi in x])

    def test_difference_rule_matches_full_product_rule(self):
        sched = DiscreteQuadratic(0.75)
        # one accuracy on the 80-node side of the rule's 0.1 split
        alphas = np.array([sched.step_alpha(1, 16), sched.step_alpha(9, 16), sched.step_alpha(2, 4)])
        got = harness._dd_log_ratio_means(alphas, self.x, self.probs, self.K)
        want = _full_rule_log_ratio_means(alphas, self.x, self.probs, self.K)
        assert np.all(np.abs(got / want - 1.0) < 1e-12), (got, want)

    def test_difference_rule_converged_where_the_24_node_full_rule_is_not(self):
        alpha = np.array([0.75])
        got = harness._dd_log_ratio_means(alpha, self.x, self.probs, self.K)[0]
        fine = _full_rule_log_ratio_means(alpha, self.x, self.probs, self.K, nodes=40)[0]
        coarse = _full_rule_log_ratio_means(alpha, self.x, self.probs, self.K)[0]
        assert abs(got / fine - 1.0) < 1e-12
        assert abs(coarse / fine - 1.0) > 1e-10


class TestSeedSweep:
    def test_affine_properties_pass_with_seed_free_exact_statistics(self):
        reports = {pid: [harness.run_all(seed, pid)[0] for seed in range(20)] for pid in AFFINE}
        for pid, rs in reports.items():
            assert all(r.passed for r in rs), [r.summary() for r in rs if not r.passed]
            assert len({r.statistic for r in rs}) == 1, pid

    def test_kl_properties_pass_with_exact_statistics(self):
        # 26 and 37 failed the sampled z-score design of these checks
        for pid in ("kl-closed-form-continuous", "kl-closed-form-discretised"):
            rs = [harness.run_all(seed, pid)[0] for seed in (*range(20), 26, 37)]
            assert all(r.passed and r.statistic <= harness.EXACT_TOL for r in rs), [r.summary() for r in rs]


class TestBoundedMemory:
    """The loss-convergence strata and gates run in row blocks of at most
    harness.BLOCK_BYTES of temporaries."""

    LOSS = ("loss-convergence-continuous", "loss-convergence-discretised", "loss-convergence-discrete")

    def test_reports_do_not_depend_on_the_block_size(self, monkeypatch):
        default = [harness.run_all(7, pid)[0].to_line() for pid in self.LOSS]
        blocks, in_blocks = [], harness._in_blocks

        def counted(f, rows, row_bytes):
            calls = []
            out = in_blocks(lambda s: calls.append(s) or f(s), rows, row_bytes)
            blocks.append(len(calls))
            return out

        monkeypatch.setattr(harness, "_in_blocks", counted)
        monkeypatch.setattr(harness, "BLOCK_BYTES", 1 << 16)
        assert [harness.run_all(7, pid)[0].to_line() for pid in self.LOSS] == default
        # two strata groups and a gate of each of the two modalities, and
        # every one of the six calls cut into several blocks
        assert len(blocks) == 6 and min(blocks) >= 4, blocks

    def test_every_property_peaks_under_16_mib(self):
        peaks = {}
        for pid in harness.ALL_PROPERTIES:
            tracemalloc.start()
            try:
                harness.run_all(7, pid)
                peaks[pid] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert max(peaks.values()) <= 16 << 20, {pid: f"{b / 2**20:.1f} MiB" for pid, b in peaks.items()}


class TestRunAll:
    def test_filter_selects_subset(self):
        reports = harness.run_all(7, name_filter="additivity")
        assert {r.property_id for r in reports} == {"additivity-continuous", "additivity-discrete"}

    def test_unknown_filter_rejected(self):
        with pytest.raises(ValueError):
            harness.run_all(7, name_filter="no-such-property")

    def test_checks_looked_up_at_call_time(self, monkeypatch):
        # a wrapper installed on the module attribute is the check that runs
        marker = harness.PropertyReport("schedule-telescoping", "both", 0.0, 1.0, True, 0, 7)
        monkeypatch.setattr(harness, "check_schedule_telescoping", lambda seed: marker)
        assert harness.run_all(7, "schedule-telescoping") == [marker]

    def test_property_ids_are_a_tuple_of_report_ids(self):
        assert isinstance(harness.ALL_PROPERTIES, tuple)
        assert harness.ALL_PROPERTIES == tuple(harness.CHECKS)


class TestMutationSensitivity:
    """Seeded formula mutations of the production ops must turn at least
    one report red."""

    def test_scaled_cts_time_weight_detected(self, monkeypatch):
        # a 1% error in the continuous-time weight breaks convergence
        real = cts.loss_inf
        monkeypatch.setattr(cts, "loss_inf", lambda *a, **k: 1.01 * real(*a, **k))
        assert not harness.check_loss_convergence(7, "continuous").passed

    def test_missing_n_factor_detected(self, monkeypatch):
        real = cts.loss_n
        monkeypatch.setattr(cts, "loss_n", lambda rng, pred, cfg, x, n, i: real(rng, pred, cfg, x, n, i) / n)
        assert not harness.check_loss_convergence(7, "continuous").passed

    def test_wrong_alpha_weighting_detected(self, monkeypatch):
        # pretend the per-step accuracy were 10% hotter than the schedule
        real = cts.loss_n
        monkeypatch.setattr(cts, "loss_n", lambda *a: 1.1 * real(*a))
        assert not harness.check_loss_convergence(7, "continuous").passed

    def test_unclipped_cdf_detected(self, monkeypatch):
        def unclipped(mu, sigma, K):
            from bflow.kernels import erf_vec

            mu = np.atleast_1d(mu)
            sigma = np.broadcast_to(np.asarray(sigma, dtype=np.float64), mu.shape)
            geom = dsc.BinGeometry(K)
            edges = np.concatenate([geom.centers - 1.0 / K, [1.0]])
            z = (edges[None, :] - mu[:, None]) / (sigma[:, None] * np.sqrt(2))
            cdf = 0.5 * (1.0 + erf_vec(z))  # tails never folded back in
            return np.diff(cdf, axis=1)

        monkeypatch.setattr(dsc, "bin_probs_from_gaussian", unclipped)
        assert not harness.check_kl_closed_forms(7, "discretised").passed

    def test_shifted_mixture_receiver_detected(self, monkeypatch):
        # a bias far below the sampled standard error (about 1e-3 nats)
        real = dsc.receiver_log_likelihood
        monkeypatch.setattr(dsc, "receiver_log_likelihood", lambda *a: real(*a) + 1e-6)
        r = harness.check_kl_closed_forms(7, "discretised")
        assert not r.passed and r.statistic > r.tolerance, r.summary()

    @pytest.mark.parametrize("modality", ["continuous", "discretised"])
    def test_biased_kl_sender_caught_by_gate(self, monkeypatch, modality):
        real = numerics.gaussian_sample
        monkeypatch.setattr(harness, "gaussian_sample", lambda rng, mean, var, z=None: real(rng, mean + 0.05, var, z))
        r = harness.check_kl_closed_forms(7, modality)
        assert not r.passed and r.statistic < r.tolerance, r.summary()
        assert float(r.detail.split("gate=")[1].split("se")[0]) > harness.GATE_SE

    def test_receiver_weights_ignored_detected(self, monkeypatch):
        real = dd.log_ratio
        monkeypatch.setattr(dd, "log_ratio", lambda y, x, probs, alpha, K: real(y, x, np.full(K, 1 / K), alpha, K))
        r = harness.check_loss_convergence(7, "discrete")
        assert not r.passed, r.summary()

    def test_mc_gate_detects_op_drift(self, monkeypatch):
        # an op whose samples are biased away from the verified expectation
        real = dsc.loss_n
        monkeypatch.setattr(dsc, "loss_n", lambda *a: real(*a) + 0.1)
        r = harness.check_loss_convergence(7, "discretised")
        assert not r.passed and "mc_gate" in r.detail

    def test_drifting_cts_update_detected(self, monkeypatch):
        # a Bayesian update that weighs the prior means at a precision 5% hot
        real = cts.bayes_update
        monkeypatch.setattr(cts, "bayes_update", lambda mean, y, alpha, precision, new_precision:
                            real(mean, y, alpha, 1.05 * precision, new_precision))
        assert not harness.check_additivity(7, "continuous").passed

    def test_hot_discrete_sender_detected(self, monkeypatch):
        # a sender drawing at 1.1x the scheduled accuracy; the sampler's
        # update draws through the same op, so its samples move too
        cfg = FlowConfig(DiscreteQuadratic(0.75), 4, 27)
        mlp = MLP(PredictorSpec(*dd.net_widths(cfg), hidden=(16, 16)), seed=3)
        mlp.params += 0.5 * Rng(31).standard_normal(mlp.n_params)
        rngs = lambda: [Rng(33).split(j) for j in range(5)]
        honest = sample_chain(dd, rngs(), mlp, cfg, 12, return_state=True)
        real = dd.sender_sample
        monkeypatch.setattr(dd, "sender_sample", lambda rng, x, alpha, K, z=None: real(rng, x, 1.1 * alpha, K, z))
        assert not harness.check_flow_equivalence(7, "discrete").passed
        hot = sample_chain(dd, rngs(), mlp, cfg, 12, return_state=True)
        assert not np.array_equal(hot[1], honest[1]) and not np.array_equal(hot[0], honest[0])

    def test_non_affine_noise_caught_by_gate(self, monkeypatch):
        # noise z + 0.2 (z^3 - z) is exact at the noise rows' z in {0, 1},
        # so only the sampled gates can see it
        real, real_sender = numerics.gaussian_sample, dd.sender_sample
        bend = lambda z: z + 0.2 * (z**3 - z)

        def cubic(rng, mean, var, z=None):
            if z is None:
                z = rng.standard_normal(np.shape(mean))
            return real(None, mean, var, bend(z))

        def cubic_sender(rng, x, alpha, K, z=None):
            if z is None:
                z = rng.standard_normal(np.shape(x) + (K,))
            return real_sender(None, x, alpha, K, bend(z))

        for module in (numerics, cts, harness):
            monkeypatch.setattr(module, "gaussian_sample", cubic)
        monkeypatch.setattr(dd, "sender_sample", cubic_sender)
        for pid in AFFINE[:4]:
            r = harness.run_all(7, pid)[0]
            assert not r.passed and r.statistic < r.tolerance, r.summary()
            assert float(r.detail.split("gate=")[1].split("se")[0]) > harness.GATE_SE

    def test_scaled_count_observations_caught_by_gate(self, monkeypatch):
        real = FiniteMSimulator.sample_y
        monkeypatch.setattr(FiniteMSimulator, "sample_y", lambda self, *a: 1.02 * real(self, *a))
        for K in (2, 5):
            r = harness.check_finite_m_limit(7, K)
            assert not r.passed and r.statistic < r.tolerance, r.summary()

    def test_biased_count_weight_breaks_the_limit(self, monkeypatch):
        # a log-odds weight 1% off makes the errors level off instead of vanishing
        hot = property(lambda self: 1.0 + 1.01 * self.omega * self.K / (1.0 - self.omega))
        monkeypatch.setattr(FiniteMSimulator, "xi", hot)
        for K in (2, 5):
            assert not harness.check_finite_m_limit(7, K).passed
