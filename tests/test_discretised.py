"""Discretised-data operations: bins, CDF clipping, mixture losses."""

import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bflow import continuous as cts
from bflow import discretised as dsc
from bflow.numerics import ROWS_MIN, Rng, gaussian_sample, neg_log_true_class
from bflow.predictor import ConstantPredictor, DiscretisedDatumPredictor
from bflow.schedule import ContinuousSigma, FlowConfig, loss_cts, sample_chain

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

    @pytest.mark.parametrize("K", [2, 3, 4, 5, 16, 27, 255, 256, 1000, 1024])
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
        1e-20 floor, each at 15 mu_x; rows about h_far have near and far
        ends among them."""
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
        h_far = dsc._H_FAR
        hs = (h_star * (1 - 1e-9), h_star * (1 + 1e-9), 0.2, 0.3, 0.4, h_far * (1 - 1e-9), h_far * (1 + 1e-9))
        sides = [(2.0 / K) / (h * math.sqrt(2.0)) for h in hs]
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


    def test_nan_rows_stay_nan(self):
        # a NaN mean or width falls in no edge window; its row must not read
        # as the saturated edges' finite count
        mu = np.array([np.nan, 0.1, np.nan, 0.3])
        sigma = np.array([1e-3, np.nan, 1.0, 1e-3])
        out = np.array(dsc.expected_centre(mu, sigma, self.K, grad=True))
        assert np.isnan(out[:, :3]).all() and np.isfinite(out[:, 3]).all()

    def test_em_terms_a_row_skips_are_below_2_to_the_minus_60(self):
        """Term k of Euler-Maclaurin is B_2k/(2k)! h^(2k-1) times the
        differences of H_n(u) exp(-u^2) at the ends, n = 2k-2..2k, scaled
        by 2/sqrt(pi), 1 or 1/2.  Below its h threshold Cramer's bound
        |H_n(u)| exp(-u^2) <= 1.0865 sqrt(2^n n!) keeps it under 2^-60, and
        so does |H_n(u)| exp(-u^2) at |u| >= u_far for any h <= h_far."""
        from numpy.polynomial.hermite import hermval

        deriv = (2.0 / math.sqrt(math.pi), 1.0, 0.5)
        u = np.linspace(dsc._U_FAR, dsc._U_FAR + 30.0, 30001)
        for k, (coef, h) in enumerate(zip(dsc._BERNOULLI, dsc._H_TERM), 1):
            orders = [2 * k - 2 + i for i in range(3)]
            cramer = max(d * 1.0865 * math.sqrt(2.0**n * math.factorial(n)) for d, n in zip(deriv, orders))
            assert 2 * abs(coef) * h ** (2 * k - 1) * cramer <= 2.0**-60
            far = max(d * np.max(np.abs(hermval(u, np.eye(n + 1)[n])) * np.exp(-u * u)) for d, n in zip(deriv, orders))
            assert 2 * abs(coef) * dsc._H_FAR ** (2 * k - 1) * far <= 2.0**-60

    @pytest.mark.parametrize("K", [16, 256])
    def test_each_row_alone_in_a_batch_and_shuffled(self, K):
        """A row's (centre, d/dmu, d/dsigma) bits do not depend on the rows
        computed with it: alone, in a 2048-row batch and in that batch
        shuffled.  Rows sit on both sides of h* and h_far, with near and
        far ends; sigma_x at and below the 1e-20 floor puts mu_x exactly on
        an edge, where the centre is that edge."""
        rng = np.random.default_rng(21)
        edges = dsc.BinGeometry(K).centers[1:] - 1.0 / K
        mu = rng.uniform(-1.3, 1.3, size=2048)
        h = np.exp(rng.uniform(math.log(1e-3), math.log(3.0), size=2048))
        sides = [dsc._H_WIDE, dsc._H_FAR]
        h[:128] = np.repeat([x * f for x in sides for f in (1 - 1e-9, 1.0, 1 + 1e-9, 1.1)], 16)
        sigma = (2.0 / K) / (h * math.sqrt(2.0))
        on_edge = np.arange(128, 160)
        mu[on_edge] = edges[rng.integers(0, K - 1, size=on_edge.size)]
        sigma[on_edge] = np.tile([1e-20, 1e-25, 0.0, 1e-21], 8)
        batch = np.array(dsc.expected_centre(mu, sigma, K, grad=True))
        perm = rng.permutation(mu.size)
        shuffled = np.empty_like(batch)
        shuffled[:, perm] = dsc.expected_centre(mu[perm], sigma[perm], K, grad=True)
        alone = np.array([dsc.expected_centre(mu[i : i + 1], sigma[i : i + 1], K, grad=True)
                          for i in range(mu.size)])[..., 0].T
        assert np.array_equal(batch.view(np.uint64), alone.view(np.uint64))
        assert np.array_equal(shuffled.view(np.uint64), alone.view(np.uint64))
        ref = [self._oracle(float(m), float(s), K)[0] for m, s in zip(mu[on_edge], sigma[on_edge])]
        np.testing.assert_allclose(batch[0, on_edge], mu[on_edge], rtol=0, atol=4e-16)
        np.testing.assert_allclose(batch[0, on_edge], ref, rtol=0, atol=4e-16)


def _two_density_ratio(y, x, probs, alpha, K):
    """The sender minus the receiver log-density of (B, D) draws, summed
    over D, each density written out and the mixture summed directly."""
    centres = dsc.BinGeometry(K).centers
    a = np.broadcast_to(alpha, np.shape(y))[..., None]
    normal = lambda mean: np.exp(-0.5 * a * (y[..., None] - mean) ** 2) * np.sqrt(a / (2 * math.pi))
    return np.sum(np.log(normal(x[..., None])[..., 0]) - np.log(np.sum(probs * normal(centres), axis=-1)), axis=-1)


def _decimal_ratio(y, x, p, alpha, K):
    """The sender minus the receiver log-density of one draw y of datum x
    at accuracy alpha, receiver masses p, in 40-digit decimal arithmetic:
    the densities' shared normaliser cancels, and the receiver's log-sum-exp
    is taken about its largest term."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        y, x, half = Decimal(float(y)), Decimal(float(x)), Decimal(float(alpha)) / 2
        terms = [Decimal(float(pk)).ln() - half * (y - Decimal(2 * k - 1) / K + 1) ** 2
                 for k, pk in enumerate(p, 1) if pk > 0]
        top = max(terms)
        return float(-half * (y - x) ** 2 - top - sum((t - top).exp() for t in terms).ln())


def _accuracy_grid(K, alpha, rows=60):
    """(y, x, probs) rows at the accuracy alpha, one or one per row: data x
    on bin centres, receivers centred 3 to 6 bins away from x, every third
    row with one bin's mass set to zero (and at K=256 many more underflow),
    y drawn from the sender."""
    gen = np.random.default_rng(K)
    x = dsc.BinGeometry(K).centers[gen.integers(0, K, rows)]
    mu = np.clip(x + gen.choice([-1.0, 1.0], rows) * gen.uniform(3, 6, rows) * 2 / K, -1.0, 1.0)
    probs = dsc.bin_probs_from_gaussian(mu, gen.uniform(0.3, 4.0, rows) * 2 / K, K)
    probs[::3, gen.integers(0, K)] = 0.0
    return x + gen.standard_normal(rows) / np.sqrt(alpha), x, probs


class TestLogRatio:
    # the largest error of log_ratio against the decimal reference, relative
    # to max(1, |ratio|), measured 3.7e-16 on this grid (the two-density
    # form, log_gaussian_pdf less the mixture's log-sum-exp, read 1.05e-15);
    # the bound leaves 2.7x
    DECIMAL_TOL = 1e-15

    def test_matches_two_density_formula(self):
        rng = np.random.default_rng(11)
        K, B, D = 5, 40, 3
        y = rng.uniform(-2, 2, size=(B, D))
        x = dsc.BinGeometry(K).centers[rng.integers(0, K, size=(B, D))]
        probs = rng.uniform(0.1, 1.0, size=(B, D, K))
        probs /= probs.sum(axis=-1, keepdims=True)
        alpha = rng.uniform(0.3, 3.0, size=(B, 1))
        np.testing.assert_allclose(dsc.log_ratio(y, x, probs, alpha, K),
                                   _two_density_ratio(y, x, probs, alpha, K), rtol=0, atol=1e-12)
        np.testing.assert_allclose(dsc.log_ratio(y, x, probs, 0.7, K),
                                   _two_density_ratio(y, x, probs, 0.7, K), rtol=0, atol=1e-12)

    def test_zero_mass_bins(self):
        # one-hot rows collapse the receiver to one Gaussian; a row with
        # some zero masses mixes only the others
        y, x = np.array([[0.3], [-0.2], [0.1]]), np.array([[0.75], [-0.75], [0.25]])
        probs = np.array([[[1.0, 0.0, 0.0, 0.0]], [[0.0, 1.0, 0.0, 0.0]], [[0.0, 0.25, 0.0, 0.75]]])
        alpha, centres = 10.0, dsc.BinGeometry(4).centers
        got = dsc.log_ratio(y, x, probs, alpha, 4)
        one_gaussian = alpha / 2 * ((y[:2, 0] - centres[:2]) ** 2 - (y[:2, 0] - x[:2, 0]) ** 2)
        np.testing.assert_allclose(got[:2], one_gaussian, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got[2:], _two_density_ratio(y[2:], x[2:], probs[2:], alpha, 4), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("K", [2, 16])
    def test_row_alone_matches_its_batch_row(self, K):
        # a batch of ROWS_MIN + 17 rows of two dimensions reduces over
        # columns and one row alone per row; row b must come out the same
        B = ROWS_MIN + 17
        rng = np.random.default_rng(3)
        x = dsc.BinGeometry(K).centers[rng.integers(0, K, size=(B, 2))]
        alpha = rng.uniform(0.5, 50.0, size=(B, 1))
        y = x + rng.standard_normal((B, 2)) / np.sqrt(alpha)
        probs = dsc.bin_probs_from_gaussian(rng.uniform(-1, 1, 2 * B), rng.uniform(0.01, 1.0, 2 * B), K)
        probs = probs.reshape(B, 2, K)
        batch = dsc.log_ratio(y, x, probs, alpha, K)
        for b in range(B):
            one = slice(b, b + 1)
            alone = dsc.log_ratio(y[one], x[one], probs[one], alpha[one], K)
            assert alone.tobytes() == batch[one].tobytes()

    def test_shape_mismatch_raises(self):
        y = np.zeros((3, 2))
        with pytest.raises(ValueError, match="K=4 bin masses"):
            dsc.log_ratio(y, y, np.full((3, 2, 5), 0.2), 1.0, 4)
        with pytest.raises(ValueError):
            dsc.log_ratio(y, np.zeros((3, 3)), np.full((3, 2, 4), 0.25), 1.0, 4)

    @pytest.mark.parametrize("K", [2, 16, 256])
    def test_matches_decimal_reference(self, K):
        # one accuracy per row from 0.05 to 1e6, then one for all rows
        for alpha in (np.geomspace(0.05, 1e6, 60), 0.05, 1e6):
            y, x, probs = _accuracy_grid(K, alpha)
            ref = [_decimal_ratio(*row, K) for row in zip(y, x, probs, np.broadcast_to(alpha, y.shape))]
            a = alpha if np.isscalar(alpha) else alpha[:, None]
            got = dsc.log_ratio(y[:, None], x[:, None], probs[:, None], a, K)
            assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= self.DECIMAL_TOL


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
            ratio = dsc.log_ratio(gaussian_sample(r, np.full((n, 1), x), 1 / alpha), x, probs, alpha, K)
            mix_kl = ratio.mean()
            se = ratio.std(ddof=1) / math.sqrt(n)
            dirac_kl = alpha / 2 * (x - mu_pred) ** 2
            assert mix_kl <= dirac_kl + 3 * se
