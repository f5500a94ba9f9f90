"""Predictor contracts: widths, determinism, tape gradients, oracles."""

import numpy as np
import pytest

from bflow import continuous as cts
from bflow import discrete as dd
from bflow import discretised as dsc
from bflow.numerics import Rng
from bflow.predictor import MLP, ConstantPredictor, PredictorSpec, time_features
from bflow.schedule import ContinuousSigma, DiscreteQuadratic, FlowConfig
from oracle_predictors import CtsDatumPredictor, CtsPosteriorPredictor, DiscreteOneHotPredictor


class TestSpecWidths:
    def test_continuous(self):
        cfg = FlowConfig(ContinuousSigma(0.02), D=5)
        assert cts.net_widths(cfg) == (5, 5)

    def test_discretised(self):
        cfg = FlowConfig(ContinuousSigma(0.02), D=5, K=16)
        assert dsc.net_widths(cfg) == (5, 10)

    def test_discrete(self):
        assert dd.net_widths(FlowConfig(DiscreteQuadratic(3.0), D=4, K=3)) == (12, 12)

    def test_discrete_binary(self):
        assert dd.net_widths(FlowConfig(DiscreteQuadratic(3.0), D=4, K=2)) == (4, 4)

    def test_fourier_width_independent_of_head(self):
        assert PredictorSpec(3, 3).input_width == 3 + 16
        assert PredictorSpec(3, 6, n_freqs=3).input_width == 3 + 6

    def test_invalid(self):
        with pytest.raises(ValueError, match="K >= 2"):
            dd.net_widths(FlowConfig(DiscreteQuadratic(3.0), D=3, K=1))


class TestTimeFeatures:
    def test_fourier_shape_and_values(self):
        s = PredictorSpec(1, 1)
        f = time_features(s, 0.5)
        assert f.shape == (1, 16)
        assert f[0, 0] == pytest.approx(np.sin(np.pi * 0.5))
        assert f[0, 8] == pytest.approx(np.cos(np.pi * 0.5))


class TestMLP:
    def test_zero_params_zero_output(self):
        mlp = MLP(PredictorSpec(3, 3, hidden=(4,)), seed=0)
        mlp.params = np.zeros_like(mlp.params)
        np.testing.assert_array_equal(mlp.forward_batch(np.ones((1, 3)), 0.5), np.zeros((1, 3)))

    def test_deterministic(self):
        spec = PredictorSpec(3, 3, hidden=(8, 8))
        a = MLP(spec, seed=7)
        b = MLP(spec, seed=7)
        x = np.array([[0.1, -0.2, 0.4]])
        assert np.array_equal(a.forward_batch(x, 0.3), b.forward_batch(x, 0.3))
        assert np.array_equal(a.params, b.params)

    @pytest.mark.parametrize("hidden", [(), (4,), (8, 5, 3)])
    def test_given_params_taken_as_is(self, hidden):
        spec = PredictorSpec(3, 6, hidden=hidden, n_freqs=2)
        drawn = MLP(spec, seed=7)
        assert spec.n_params == drawn.n_params
        flat = np.arange(spec.n_params, dtype=np.float64)
        built = MLP(spec, params=flat)
        assert built.params is flat
        drawn.params = flat.copy()
        x = np.array([[0.1, -0.2, 0.4]])
        assert np.array_equal(built.forward_batch(x, 0.3), drawn.forward_batch(x, 0.3))
        with pytest.raises(ValueError, match="params must be a float64 array"):
            MLP(spec, params=flat[:-1])

    def test_wrong_input_width(self):
        mlp = MLP(PredictorSpec(3, 3, hidden=(4,)), seed=0)
        with pytest.raises(ValueError):
            mlp.forward_batch(np.zeros((1, 5)), 0.1)

    def test_backward_requires_forward(self):
        mlp = MLP(PredictorSpec(2, 2, hidden=(4,)), seed=1)
        with pytest.raises(ValueError):
            mlp.backward_batch(np.zeros((1, 2)))

    def test_linear_layer_gradient_analytic(self):
        # single linear layer: grad of sum(out * up) is input (x) outer up
        spec = PredictorSpec(2, 2, hidden=())
        mlp = MLP(spec, seed=3)
        x = np.array([[0.5, -1.0]])
        t = np.array([0.25])
        mlp.forward_batch(x, t, record=True)
        up = np.array([[2.0, -3.0]])
        grad = mlp.backward_batch(up)
        w = {name: grad[off : off + int(np.prod(shape))].reshape(shape) for name, shape, off in mlp.layout}
        inp = np.concatenate([x[0], time_features(spec, t)[0]])
        np.testing.assert_allclose(w["W0"], np.outer(inp, up[0]), atol=1e-14)
        np.testing.assert_allclose(w["b0"], up[0], atol=1e-14)

    def test_zero_upstream_zero_gradient(self):
        mlp = MLP(PredictorSpec(3, 6, hidden=(8,)), seed=4)
        mlp.forward_batch(np.ones((2, 3)), np.array([0.2, 0.8]), record=True)
        grad = mlp.backward_batch(np.zeros((2, 6)))
        assert np.all(grad == 0.0)

    @pytest.mark.parametrize("spec", [PredictorSpec(3, 3, hidden=(6, 5))], ids=["silu"])
    def test_tape_gradient_vs_finite_differences(self, spec):
        mlp = MLP(spec, seed=5)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(4, 3))
        t = rng.uniform(size=4)
        up = rng.normal(size=(4, 3))
        mlp.forward_batch(X, t, record=True)
        grad = mlp.backward_batch(up)
        h = 1e-6
        idxs = rng.choice(mlp.n_params, size=40, replace=False)
        for j in idxs:
            saved = mlp.params[j]
            mlp.params[j] = saved + h
            up_plus = float(np.sum(mlp.forward_batch(X, t) * up))
            mlp.params[j] = saved - h
            up_minus = float(np.sum(mlp.forward_batch(X, t) * up))
            mlp.params[j] = saved
            fd = (up_plus - up_minus) / (2 * h)
            assert abs(grad[j] - fd) <= 1e-5 * max(1.0, abs(fd))


def _forward_reference(mlp, X, t):
    """forward_batch as it stood before the layer views were cached: views
    rebuilt per call, z = h @ W + b, and SiLU as z * (1 / (1 + exp(-z)))
    with a new array per step."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    ang = (2.0 ** np.arange(mlp.spec.n_freqs))[None, :] * np.pi * t[:, None]
    feats = np.concatenate([np.sin(ang), np.cos(ang)], axis=1)
    h = np.concatenate([X, np.broadcast_to(feats, (X.shape[0], feats.shape[1]))], axis=1)
    w = {name: mlp.params[off : off + int(np.prod(shape))].reshape(shape) for name, shape, off in mlp.layout}
    n_layers = len(mlp.layout) // 2
    for li in range(n_layers):
        h = h @ w[f"W{li}"] + w[f"b{li}"]
        if li < n_layers - 1:
            h = h * (1.0 / (1.0 + np.exp(-h)))
    return h


def _perturbed_mlp(spec, seed=2):
    mlp = MLP(spec, seed=seed)
    mlp.params += 0.3 * Rng(seed + 100).standard_normal(mlp.n_params)
    return mlp


class TestParamsContract:
    """``params`` is a whole C-contiguous float64 vector; assigning one builds
    the layer views, and in-place edits reach them."""

    SPEC = PredictorSpec(12, 12, hidden=(8, 6))

    @pytest.mark.parametrize("make, fault", [
        (lambda n: np.zeros(n + 1), r"shape \(\d+,\), got float64 \(\d+,\)"),
        (lambda n: np.zeros(n - 1), r"shape \(\d+,\), got float64 \(\d+,\)"),
        (lambda n: np.zeros((1, n)), r"got float64 \(1, \d+\)"),
        (lambda n: np.zeros(n, dtype=np.int64), r"float64 array .* got int64"),
        (lambda n: np.zeros(n, dtype=np.float32), r"float64 array .* got float32"),
        (lambda n: [0.0] * n, r"got list"),
        (lambda n: np.zeros(2 * n)[::2], r"C-contiguous"),
    ], ids=["too-long", "too-short", "2-d", "int64", "float32", "list", "strided"])
    def test_rejected(self, make, fault):
        # a too-long vector once had its tail ignored, and backward_batch
        # returned a gradient of its length with uninitialised values there
        mlp = MLP(self.SPEC, seed=1)
        before = mlp.params
        with pytest.raises(ValueError, match=fault):
            mlp.params = make(mlp.n_params)
        assert mlp.params is before

    @pytest.mark.parametrize("spec", [SPEC], ids=["silu-fourier"])
    def test_assignment_matches_fresh_mlp(self, spec):
        q = _perturbed_mlp(spec, seed=4).params.copy()
        mlp = _perturbed_mlp(spec, seed=9)
        mlp.params = q
        fresh = MLP(spec, seed=9)
        fresh.params = q.copy()
        X = Rng(3).uniform(size=(5, spec.state_width))
        t = Rng(4).uniform(size=5)
        out = mlp.forward_batch(X, t, record=True)
        assert np.array_equal(out, fresh.forward_batch(X, t, record=True))
        up = Rng(5).standard_normal(out.shape)
        assert np.array_equal(mlp.backward_batch(up), fresh.backward_batch(up))

    def test_in_place_edit_moves_output(self):
        mlp = MLP(self.SPEC, seed=1)
        X = np.full((1, 12), 0.25)
        before = mlp.forward_batch(X, 0.5)
        # the output layer's weights start at zero, so output 0 is its bias
        last_bias = mlp.layout[-1][2]
        mlp.params[last_bias] += 0.125
        after = mlp.forward_batch(X, 0.5)
        assert after[0, 0] == before[0, 0] + 0.125
        assert np.array_equal(after[0, 1:], before[0, 1:])

    @pytest.mark.parametrize("spec", [
        PredictorSpec(108, 108, hidden=(16, 16)),
        PredictorSpec(3, 6, hidden=(7,), n_freqs=3),
    ], ids=["silu-fourier", "silu-fourier3"])
    @pytest.mark.parametrize("rows", [1, 7])
    def test_forward_bits_match_reference(self, spec, rows):
        mlp = _perturbed_mlp(spec)
        X = 2.0 * Rng(6).uniform(size=(rows, spec.state_width)) - 1.0
        for t in (0.0, 0.37, Rng(7).uniform(size=rows)):
            assert np.array_equal(mlp.forward_batch(X, t), _forward_reference(mlp, X, t))


class TestOracles:
    def test_constant(self):
        p = ConstantPredictor(np.array([1.0, 2.0]))
        np.testing.assert_array_equal(p.forward_batch(np.zeros((1, 9)), 0.9), [[1.0, 2.0]])

    def test_discrete_one_hot_softmaxes_to_one_hot(self):
        p = DiscreteOneHotPredictor(np.array([2, 1]), 3)
        logits = p.forward_batch(np.zeros((1, 6)), 0.5).reshape(2, 3)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        sm = e / e.sum(axis=1, keepdims=True)
        assert abs(sm[0, 1] - 1.0) < 1e-6
        assert abs(sm[1, 0] - 1.0) < 1e-6

    def test_posterior_oracle_single_atom(self):
        cfg = FlowConfig(ContinuousSigma(0.02), D=2)
        c = np.array([[0.3, -0.1]])
        oracle = CtsPosteriorPredictor(c, cfg.schedule.sigma1)
        p = cts.flow_sample(Rng(0), cfg, c[0][None], 0.4)
        np.testing.assert_allclose(cts._x_hat(oracle, cfg, p.mean, 0.4)[0], c[0], atol=1e-10)

    def test_posterior_oracle_symmetry(self):
        cfg = FlowConfig(ContinuousSigma(0.02), D=1)
        data = np.array([[-0.6], [0.6]])
        oracle = CtsPosteriorPredictor(data, cfg.schedule.sigma1)
        assert oracle.posterior_mean(np.array([0.0]), 0.5)[0] == pytest.approx(0.0, abs=1e-12)

    def test_posterior_oracle_enumeration(self):
        # brute-force posterior mean over 8 atoms
        rng = np.random.default_rng(1)
        data = rng.uniform(-1, 1, size=(8, 3))
        sigma1 = 0.05
        oracle = CtsPosteriorPredictor(data, sigma1)
        t = 0.35
        g = 1 - sigma1 ** (2 * t)
        mean = np.array([0.2, -0.3, 0.05])
        w = np.exp(-np.sum((mean - g * data) ** 2, axis=1) / (2 * g * (1 - g)))
        w /= w.sum()
        ref = w @ data
        np.testing.assert_allclose(oracle.posterior_mean(mean, t), ref, atol=1e-10)

    def test_datum_oracle_perfect_recovery(self):
        cfg = FlowConfig(ContinuousSigma(0.02), D=1)
        x = np.array([0.7])
        oracle = CtsDatumPredictor(x, cfg.schedule.sigma1)
        p = cts.flow_sample(Rng(2), cfg, x[None], 0.8)
        np.testing.assert_allclose(cts._x_hat(oracle, cfg, p.mean, 0.8)[0], x, atol=1e-12)
