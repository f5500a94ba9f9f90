"""The verification suite itself: checks pass, reports are stable, and
seeded mutations of the formulas are detected."""

import json

import numpy as np
import pytest

from bflow import continuous as cts
from bflow import discrete as dd
from bflow import discretised as dsc
from bflow import harness
from bflow.harness import FiniteMSimulator
from bflow.numerics import Rng


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
    def test_additivity_continuous(self):
        r = harness.check_additivity(7, "continuous")
        assert r.passed and r.statistic < r.tolerance

    def test_additivity_rejects_zero_accuracy(self):
        with pytest.raises(ValueError):
            harness.check_additivity(7, "continuous", alpha_a=0.0)

    def test_additivity_discrete(self):
        r = harness.check_additivity(7, "discrete")
        assert r.passed

    def test_flow_equivalence_both(self):
        assert harness.check_flow_equivalence(7, "continuous").passed
        assert harness.check_flow_equivalence(7, "discrete").passed

    def test_kl_closed_forms(self):
        assert harness.check_kl_closed_forms(7, "continuous").passed
        assert harness.check_kl_closed_forms(7, "discretised").passed

    def test_finite_m_limit(self):
        # full trial count: the 1% gate sits only just above the sampling
        # noise floor for K=2, where the construction is essentially exact
        for K in (2, 5):
            r = harness.check_finite_m_limit(7, K=K)
            assert r.passed, r.detail

    def test_finite_m_domain_guard(self):
        with pytest.raises(ValueError):
            FiniteMSimulator(m=1, K=2, alpha=4.0).omega

    def test_alpha_recorded(self):
        sim = FiniteMSimulator(m=10_000, K=2, alpha=0.25)
        assert sim.alpha == pytest.approx(sim.m * sim.omega**2, rel=1e-12)

    @pytest.mark.parametrize("modality", ["continuous", "discretised", "discrete"])
    def test_loss_convergence(self, modality):
        r = harness.check_loss_convergence(7, modality)
        assert r.passed, r.detail

    def test_schedule_checks(self):
        assert harness.check_schedule_telescoping(7).passed
        assert harness.check_schedule_entropy(7).passed


class TestRunAll:
    def test_filter_selects_subset(self):
        reports = harness.run_all(7, name_filter="additivity")
        assert {r.property_id for r in reports} == {"additivity-continuous", "additivity-discrete"}

    def test_unknown_filter_rejected(self):
        with pytest.raises(ValueError):
            harness.run_all(7, name_filter="no-such-property")


class TestMutationSensitivity:
    """Seeded formula mutations must turn at least one report red."""

    def test_scaled_cts_time_weight_detected(self):
        # a 1% error in the continuous-time weight breaks convergence
        cfg = cts.CtsConfig(sigma1=0.02, D=1)
        x = np.array([0.5])
        from bflow.predictor import ConstantPredictor

        pred = ConstantPredictor(x + 0.1, predicts_data=True)
        mutated = lambda r, ts: 1.01 * cts.loss_cts(r, pred, cfg, np.tile(x, (ts.size, 1)), ts)
        r = harness.check_loss_convergence(7, "continuous", loss_inf_fn=mutated)
        assert not r.passed

    def test_missing_n_factor_detected(self):
        cfg = cts.CtsConfig(sigma1=0.02, D=1)
        x = np.array([0.5])
        from bflow.predictor import ConstantPredictor

        pred = ConstantPredictor(x + 0.1, predicts_data=True)
        mutated = lambda r, n, i, B: cts.loss_n(r, pred, cfg, np.tile(x, (B, 1)), n, i) / n
        r = harness.check_loss_convergence(7, "continuous", loss_n_fn=mutated)
        assert not r.passed

    def test_wrong_alpha_weighting_detected(self):
        # pretend the per-step accuracy were 10% hotter than the schedule
        cfg = cts.CtsConfig(sigma1=0.02, D=1)
        x = np.array([0.5])
        from bflow.predictor import ConstantPredictor

        pred = ConstantPredictor(x + 0.1, predicts_data=True)
        mutated = lambda r, n, i, B: 1.1 * cts.loss_n(r, pred, cfg, np.tile(x, (B, 1)), n, i)
        r = harness.check_loss_convergence(7, "continuous", loss_n_fn=mutated)
        assert not r.passed

    def test_unclipped_cdf_detected(self):
        def unclipped(mu, sigma, K):
            from bflow.kernels import erf_vec

            mu = np.atleast_1d(mu)
            sigma = np.broadcast_to(np.asarray(sigma, dtype=np.float64), mu.shape)
            geom = dsc.BinGeometry(K)
            edges = np.concatenate([geom.centers - 1.0 / K, [1.0]])
            z = (edges[None, :] - mu[:, None]) / (sigma[:, None] * np.sqrt(2))
            cdf = 0.5 * (1.0 + erf_vec(z))  # tails never folded back in
            return np.diff(cdf, axis=1)

        r = harness.check_kl_closed_forms(7, "discretised", bin_probs_fn=unclipped)
        assert not r.passed

    def test_mc_gate_detects_op_drift(self):
        # an op whose samples are biased away from the verified expectation
        from bflow.predictor import DiscretisedDatumPredictor

        cfg = cts.CtsConfig(sigma1=0.2, D=1)
        geom = dsc.BinGeometry(16)
        x = np.array([geom.center(11)])
        pred = DiscretisedDatumPredictor(x + 0.15, 0.06, cfg.sigma1)
        drifted = lambda r, n, i, B: dsc.loss_n(r, pred, cfg, np.tile(x, (B, 1)), n, 16, i) + 0.1
        r = harness.check_loss_convergence(7, "discretised", loss_n_fn=drifted)
        assert not r.passed

    def test_drifting_cts_update_detected(self, monkeypatch):
        # a Bayesian update whose posterior precision runs 5% hot
        real = cts.bayes_update

        def drifting(p, y, alpha):
            q = real(p, y, alpha)
            return cts.CtsParams(mean=q.mean, precision=1.05 * q.precision)

        monkeypatch.setattr(cts, "bayes_update", drifting)
        r = harness.check_additivity(7, "continuous", trials=200_000)
        assert not r.passed

    def test_hot_discrete_sender_detected(self, monkeypatch):
        # a sender drawing at 1.1x the scheduled accuracy
        real = dd.sender_sample
        monkeypatch.setattr(dd, "sender_sample", lambda rng, x, alpha, K: real(rng, x, 1.1 * alpha, K))
        r = harness.check_flow_equivalence(7, "discrete")
        assert not r.passed
