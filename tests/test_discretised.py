"""Discretised-data operations: bins, CDF clipping, mixture losses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bflow import continuous as cts
from bflow import discretised as dsc
from bflow.numerics import Rng, gaussian_sample, neg_log_true_class
from bflow.predictor import DiscretisedDatumPredictor
from bflow.schedule import ContinuousSigma, FlowConfig, loss_cts, sample_chain
from oracle_predictors import ConstantPredictor

CFG = FlowConfig(ContinuousSigma(math.sqrt(0.001)), D=1, K=16)


def _simpson(f, a, b, n=4096):
    xs = np.linspace(a, b, n + 1)
    ys = f(xs)
    h = (b - a) / n
    return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum())


class TestBinGeometry:
    def test_edges(self):
        g = dsc.BinGeometry(16)
        assert g.center(1) - 1 / 16 == -1.0
        assert g.center(16) + 1 / 16 == 1.0
        assert np.all(np.diff(g.centers) > 0)

    def test_centre_formula(self):
        g = dsc.BinGeometry(4)
        np.testing.assert_allclose(g.centers, [-0.75, -0.25, 0.25, 0.75])

    def test_bad_index(self):
        with pytest.raises(ValueError):
            dsc.BinGeometry(4).center(5)

    @pytest.mark.parametrize("K", [2, 3, 5, 16, 27, 255, 256, 1000, 1024])
    def test_centre_reads_the_centre_table(self, K):
        # center(k) is a float of centers[k - 1], the closed form's bits
        g = dsc.BinGeometry(K)
        got = [g.center(k) for k in range(1, K + 1)]
        assert all(type(c) is float for c in got)
        assert got == [(2.0 * k - 1.0) / K - 1.0 for k in range(1, K + 1)]


class TestQuantise:
    def test_byte_level_golden_value(self):
        idx = dsc.quantise(np.array([-0.14453125]), 256)
        cents = dsc.BinGeometry(256).centers[idx - 1]
        assert idx[0] == 110
        assert cents[0] == -0.14453125

    def test_two_bins(self):
        idx = dsc.quantise(np.array([-0.3]), 2)
        cents = dsc.BinGeometry(2).centers[idx - 1]
        assert idx[0] == 1
        assert cents[0] == -0.5

    @pytest.mark.parametrize("K", [2, 16, 256])
    def test_centres_are_fixed_points(self, K):
        g = dsc.BinGeometry(K)
        idx = dsc.quantise(g.centers, K)
        cents = g.centers[idx - 1]
        np.testing.assert_array_equal(idx, np.arange(1, K + 1))
        np.testing.assert_array_equal(cents, g.centers)

    def test_tie_goes_to_higher_bin(self):
        # 0.0 is the shared edge of bins 8 and 9 for K=16
        idx = dsc.quantise(np.array([0.0]), 16)
        assert idx[0] == 9

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            dsc.quantise(np.array([1.01]), 16)

    @given(st.floats(-1, 1), st.sampled_from([2, 5, 16, 256]))
    @settings(max_examples=200, deadline=None)
    def test_nearest_centre_property(self, x, K):
        idx = dsc.quantise(np.array([x]), K)
        g = dsc.BinGeometry(K)
        cent = g.centers[idx - 1]
        best = np.min(np.abs(g.centers - x))
        assert abs(abs(cent[0] - x) - best) < 1e-12


class TestDiscretisedCdf:
    """The Gaussian CDF clipped to [-1, 1], read off bin_probs_from_gaussian
    as the cumulative bin mass at each bin edge."""

    @staticmethod
    def _cdf_at_edges(mu, sigma, K):
        probs = dsc.bin_probs_from_gaussian(np.array([mu]), np.array([sigma]), K)[0]
        return np.concatenate([[0.0], np.cumsum(probs)])

    def test_clipping(self):
        # 0 at -1 and 1 at +1; a Gaussian far below -1 puts all its mass in bin 1
        cdf = self._cdf_at_edges(0.3, 2.0, 16)
        assert cdf[0] == 0.0
        assert cdf[-1] == pytest.approx(1.0, abs=1e-15)
        assert self._cdf_at_edges(-5.0, 0.1, 16)[1] == 1.0

    def test_symmetry(self):
        assert self._cdf_at_edges(0.0, 1.0, 16)[8] == pytest.approx(0.5)

    def test_quadrature_oracle(self):
        rng = np.random.default_rng(1)
        K = 16
        edges = np.linspace(-1.0, 1.0, K + 1)
        for _ in range(10):
            mu = float(rng.uniform(-0.8, 0.8))
            sig = float(rng.uniform(0.05, 0.8))
            k = int(rng.integers(1, K))

            def pdf(v):
                return np.exp(-0.5 * (v - mu) ** 2 / sig**2) / (sig * math.sqrt(2 * math.pi))

            # mass on [-1, edge k] plus the left tail clipped into -1
            tail = 0.5 * (1 + math.erf((-1 - mu) / (sig * math.sqrt(2))))
            ref = tail + _simpson(pdf, -1.0, edges[k], 8192)
            assert self._cdf_at_edges(mu, sig, K)[k] == pytest.approx(ref, abs=1e-8)

    @pytest.mark.parametrize("K", [2, 16, 256])
    def test_masses_do_not_depend_on_the_pass_size(self, K, monkeypatch):
        # erf is elementwise and each mass a difference within its row, so
        # the rows one pass carries cannot move a bit of any mass
        gen = np.random.default_rng(K)
        rows = 300
        mu = gen.uniform(-1.3, 1.3, rows)
        sigma = np.exp(gen.uniform(np.log(1e-3), 0.0, rows))
        default = dsc.bin_probs_from_gaussian(mu, sigma, K)
        for budget in (K + 1, rows * (K + 1)):  # one row a pass, and all rows in one
            monkeypatch.setattr(dsc, "EDGES_PER_PASS", budget)
            np.testing.assert_array_equal(dsc.bin_probs_from_gaussian(mu, sigma, K), default)


class TestOutputDistribution:
    def test_prior_branch_below_tmin(self):
        pred = ConstantPredictor(np.full(2, 99.0))
        probs = dsc.probs(pred, CFG, cts.prior(CFG, 1), 0.0)[0]
        # standard-normal masses with tails folded into the end bins
        g = dsc.BinGeometry(16)
        expect = np.zeros(16)
        for k in range(1, 17):
            lo = -np.inf if k == 1 else g.center(k) - 1 / 16
            hi = np.inf if k == 16 else g.center(k) + 1 / 16
            expect[k - 1] = 0.5 * (math.erf(hi / math.sqrt(2)) - math.erf(lo / math.sqrt(2)))
        np.testing.assert_allclose(probs[0], expect, atol=1e-12)
        assert probs[0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_width_one_hot(self):
        x = np.array([dsc.BinGeometry(16).center(5)])
        pred = DiscretisedDatumPredictor(x, 1e-9, CFG.schedule.sigma1)
        p = cts.flow_sample(Rng(0), CFG, x[None], 0.5)
        probs = dsc.probs(pred, CFG, p, 0.5)[0]
        assert probs[0, 4] == 1.0
        assert probs[0].sum() == 1.0

    def test_quadrature_oracle_row_masses(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            mu = float(rng.uniform(-0.5, 0.5))
            sig = float(rng.uniform(0.05, 0.5))
            probs = dsc.bin_probs_from_gaussian(np.array([mu]), np.array([sig]), 8)

            def pdf(v):
                return np.exp(-0.5 * (v - mu) ** 2 / sig**2) / (sig * math.sqrt(2 * math.pi))

            g = dsc.BinGeometry(8)
            for k in range(2, 8):
                ref = _simpson(pdf, g.center(k) - 1 / 8, g.center(k) + 1 / 8, 2048)
                assert probs[0, k - 1] == pytest.approx(ref, abs=1e-8)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        mus = rng.uniform(-2, 2, size=20)
        sigs = rng.uniform(0.01, 2.0, size=20)
        probs = dsc.bin_probs_from_gaussian(mus, sigs, 16)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


class TestKHat:
    def test_one_hot_row(self):
        g = dsc.BinGeometry(16)
        probs = np.zeros((1, 16))
        probs[0, 6] = 1.0
        assert (probs @ g.centers)[0] == g.center(7)

    def test_uniform_row_is_zero(self):
        probs = np.full((1, 16), 1 / 16)
        assert (probs @ dsc.BinGeometry(16).centers)[0] == pytest.approx(0.0, abs=1e-15)

    def test_dot_product_oracle(self):
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(16), size=3)
        g = dsc.BinGeometry(16)
        ref = np.array([sum(probs[d, k] * g.center(k + 1) for k in range(16)) for d in range(3)])
        np.testing.assert_allclose(probs @ g.centers, ref, atol=1e-12)

    def test_range(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(16), size=50)
        kh = probs @ dsc.BinGeometry(16).centers
        assert np.all(kh >= -1 + 1 / 16) and np.all(kh <= 1 - 1 / 16)


class TestExpectedCentre:
    """expected_centre at K=256 against oracles summed exactly with
    math.fsum."""

    K = 256

    @staticmethod
    def _oracle(m, s, K):
        """k_hat from math.erfc bin masses times centres, and sigma_x times
        its derivatives by mu_x and sigma_x from the edge sums of exp(-u^2)
        and u exp(-u^2)."""
        g = dsc.BinGeometry(K)
        edges = g.centers[1:] - 1.0 / K
        c = max(s, 1e-20) * math.sqrt(2.0)
        cdf = [0.0] + [0.5 * math.erfc((m - e) / c) for e in edges] + [1.0]
        centre = math.fsum((cdf[k + 1] - cdf[k]) * x for k, x in enumerate(g.centers))
        u = [(e - m) / c for e in edges]
        pdf = [math.exp(-v * v) for v in u]
        scale = 2.0 / (K * math.sqrt(math.pi))
        return centre, scale * math.fsum(pdf) / math.sqrt(2.0), scale * math.fsum(v * p for v, p in zip(u, pdf))

    def _rows(self):
        """Random rows, with k_hat near -1 and +1 and the narrowest and
        widest sigma_x; then rows on each side of the wide-row threshold h*
        on the edge spacing h = (2/K) / (sigma_x sqrt 2) and exactly at it,
        wide rows, mu_x far outside [-1, 1] and sigma_x at or below the
        1e-20 floor, each at 15 mu_x."""
        K = self.K
        rng = np.random.default_rng(12)
        mu = rng.uniform(-1.3, 1.3, size=200)
        sigma = np.exp(rng.uniform(math.log(1e-5), math.log(3.0), size=200))
        mu[:24] = np.repeat([-1.2, -1.0, -0.995, 0.995, 1.0, 1.2], 4)
        sigma[:24] = np.tile([1e-3, 1e-2, 5e-2, 0.2], 6)
        sigma[24:40] = 1e-5
        sigma[40:56] = 3.0
        h_star = dsc._H_WIDE
        s_star = (2.0 / K) / (h_star * math.sqrt(2.0))
        while (2.0 / K) / (s_star * math.sqrt(2.0)) != h_star:
            s_star = np.nextafter(s_star, 0.0 if (2.0 / K) / (s_star * math.sqrt(2.0)) < h_star else 1.0)
        sides = [(2.0 / K) / (h * math.sqrt(2.0)) for h in (h_star * (1 - 1e-9), h_star * (1 + 1e-9), 0.2, 0.3)]
        sigmas = [s_star, np.nextafter(s_star, 0.0), np.nextafter(s_star, 1.0), *sides,
                  20.0, 1e3, 1e10, 1e-20, 1e-25, 0.0]
        mus = [-1.3, -1.0, -0.99, -0.3, 0.0, 0.002, 0.5, 0.995, 1.0, 1.2, 3.0, -40.0, 40.0, 1e3, -1e3]
        return (np.concatenate([mu, np.tile(mus, len(sigmas))]),
                np.concatenate([sigma, np.repeat(sigmas, len(mus))]))

    def test_closed_form_matches_fsum_of_bin_masses(self):
        mu, sigma = self._rows()
        ref = np.array([self._oracle(float(m), float(s), self.K)[0] for m, s in zip(mu, sigma)])
        assert np.max(np.abs(ref[:24])) > 1.0 - 2.0 / self.K
        assert np.any((2.0 / self.K) / (np.maximum(sigma, 1e-20) * math.sqrt(2.0)) == dsc._H_WIDE)
        centre, d_mu, d_sig = dsc.expected_centre(mu, sigma, self.K)
        assert d_mu is None and d_sig is None
        assert np.max(np.abs(centre - ref)) <= 4e-16

    def test_gradient_sums_match_fsum(self):
        # sigma_x times each derivative: on these rows the largest miss read
        # 4.2e-16 of the largest value, about two roundings of a value near
        # 1, so the bound is 1e-15 of it
        mu, sigma = self._rows()
        ref = np.array([self._oracle(float(m), float(s), self.K) for m, s in zip(mu, sigma)])
        _, d_mu, d_sig = dsc.expected_centre(mu, sigma, self.K, grad=True)
        sig = np.maximum(sigma, 1e-20)
        for got, want in ((d_mu * sig, ref[:, 1]), (d_sig * sig, ref[:, 2])):
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


class TestLossNStep:
    def test_one_hot_correct_is_zero_every_draw(self):
        K = 16
        g = dsc.BinGeometry(K)
        x = np.array([g.center(11)])
        pred = DiscretisedDatumPredictor(x, 1e-9, CFG.schedule.sigma1)
        r = Rng(6)
        i = r.integers(2, 9, size=50)
        assert np.all(np.abs(dsc.loss_n(r, pred, CFG, np.tile(x, (50, 1)), 8, i)) < 1e-9)

    def test_two_bin_quadrature_oracle(self):
        # K=2, D=1: Monte-Carlo mean must match numeric integration of the
        # KL between the sender Gaussian and the two-component mixture
        K = 2
        g = dsc.BinGeometry(K)
        x = np.array([g.center(2)])
        cfg = FlowConfig(ContinuousSigma(0.4), D=1, K=K)
        pred = DiscretisedDatumPredictor(x - 0.3, 0.45, cfg.schedule.sigma1)
        n, i = 4, 3
        alpha = cfg.schedule.step_alpha(i, n)
        r = Rng(7)
        trials = 200_000
        mc = dsc.loss_n(r, pred, cfg, np.tile(x, (trials, 1)), n, i) / n

        t = (i - 1) / n
        p = cts.flow_sample(Rng(8), cfg, x[None], t)
        probs = dsc.probs(pred, cfg, p, t)[0, 0]

        def integrand(y):
            send = np.exp(-0.5 * alpha * (y - x[0]) ** 2) * math.sqrt(alpha / (2 * math.pi))
            recv = sum(
                probs[k] * np.exp(-0.5 * alpha * (y - g.center(k + 1)) ** 2) * math.sqrt(alpha / (2 * math.pi))
                for k in range(K)
            )
            out = np.zeros_like(y)
            mask = send > 0
            out[mask] = send[mask] * (np.log(send[mask]) - np.log(recv[mask]))
            return out

        width = 8 / math.sqrt(alpha)
        ref = _simpson(integrand, x[0] - width, x[0] + width, 16384)
        se = mc.std(ddof=1) / math.sqrt(trials)
        assert abs(mc.mean() - ref) <= 3 * se

    def test_scales_with_step_accuracy(self):
        # with t held fixed, doubling n picks the step accuracy from the
        # schedule at the same time point
        sched = CFG.schedule
        assert sched.step_alpha(3, 8) == pytest.approx(sched.beta(3 / 8) - sched.beta(2 / 8), rel=1e-10)
        assert sched.step_alpha(6, 16) == pytest.approx(sched.beta(6 / 16) - sched.beta(5 / 16), rel=1e-10)


class TestLossCtsTime:
    def test_one_hot_correct_is_zero(self):
        K = 16
        g = dsc.BinGeometry(K)
        x = np.array([g.center(3)])
        pred = DiscretisedDatumPredictor(x, 1e-9, CFG.schedule.sigma1)
        assert loss_cts(dsc, Rng(9), pred, CFG, x[None], 0.5)[0] == pytest.approx(0.0, abs=1e-12)


class TestReconstructionLoss:
    def test_one_hot_correct_zero(self):
        K = 16
        x = np.array([dsc.BinGeometry(K).center(9)])
        pred = DiscretisedDatumPredictor(x, 1e-9, CFG.schedule.sigma1)
        assert dsc.recon(Rng(10), pred, CFG, x[None])[0] == 0.0

    def test_uniform_value(self):
        K = 16
        probs = np.full((1, 3, K), 1 / K)
        got = neg_log_true_class(probs, np.array([[4, 1, 16]]))[0]
        assert got == pytest.approx(3 * math.log(K), rel=1e-12)

    def test_floor_keeps_loss_finite(self):
        K = 16
        g = dsc.BinGeometry(K)
        x = np.array([g.center(1)])
        # predictor concentrated on the wrong bin: true-bin mass underflows
        pred = DiscretisedDatumPredictor(np.array([g.center(16)]), 1e-9, CFG.schedule.sigma1)
        got = dsc.recon(Rng(13), pred, CFG, x[None])[0]
        assert np.isfinite(got) and got == 1e6


class TestGenerate:
    def test_forced_bin(self):
        K = 16
        g = dsc.BinGeometry(K)
        target = np.array([g.center(13)])
        pred = DiscretisedDatumPredictor(target, 1e-9, CFG.schedule.sigma1)
        out = sample_chain(dsc, [Rng(14)], pred, CFG, 12)
        assert out[0, 0] == g.center(13)


class TestKlOrdering:
    def test_mixture_receiver_beats_dirac_when_concentrated(self):
        # when the output mass sits in the correct bin, the bin-aware
        # receiver prices the message below the point-estimate receiver
        K = 16
        g = dsc.BinGeometry(K)
        r = Rng(17)
        configs = [(11, 0.02, 0.02), (5, 0.03, 0.025), (9, 0.01, 0.015), (3, 0.025, 0.03), (14, 0.02, 0.01)]
        for k_true, off, s in configs:
            x = g.center(k_true)
            mu_pred = x + off  # still inside the bin (half-width 1/16)
            alpha = 400.0
            probs = dsc.bin_probs_from_gaussian(np.array([mu_pred]), np.array([s]), K)
            n = 1_000_000
            y = gaussian_sample(r, np.full(n, x), 1 / alpha)
            with np.errstate(divide="ignore"):
                logw = np.broadcast_to(np.log(probs[0]), (n, K))
            from bflow.kernels import mixture_logpdf

            recv = mixture_logpdf(y, np.ascontiguousarray(logw), g.centers, 1 / alpha)
            send = -0.5 * alpha * (y - x) ** 2 + 0.5 * math.log(alpha / (2 * math.pi))
            mix_kl = (send - recv).mean()
            se = (send - recv).std(ddof=1) / math.sqrt(n)
            dirac_kl = alpha / 2 * (x - mu_pred) ** 2
            assert mix_kl <= dirac_kl + 3 * se
