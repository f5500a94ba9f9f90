"""Schedule closed forms: values, derivatives, step sizes and domains.

Telescoping, the affine log precision and the presets are acceptance
criterion 08 and the schedule-* verify properties."""

import math

import numpy as np
import pytest

from bflow.schedule import ContinuousSigma, DiscreteQuadratic


class TestBeta:
    def test_quadratic_value(self):
        assert DiscreteQuadratic(3.0).beta(0.5) == pytest.approx(0.75)

    def test_sigma_at_one(self):
        s = ContinuousSigma(0.02)
        assert s.beta(1.0) == pytest.approx(0.02**-2 - 1)

    def test_zero_at_zero(self):
        assert ContinuousSigma(0.5).beta(0.0) == 0.0
        assert DiscreteQuadratic(2.0).beta(0.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            ContinuousSigma(0.5).beta(1.5)
        with pytest.raises(ValueError):
            DiscreteQuadratic(1.0).beta(-0.1)

    def test_monotone_on_grid(self):
        for s in (ContinuousSigma(0.01), DiscreteQuadratic(0.75)):
            vals = [s.beta(t) for t in np.linspace(0, 1, 1000)]
            assert all(b > a for a, b in zip(vals, vals[1:]))


class TestAlpha:
    def test_quadratic_value(self):
        assert DiscreteQuadratic(0.75).alpha(1.0) == pytest.approx(1.5)

    def test_central_difference_oracle(self):
        s = ContinuousSigma(0.03)
        h = 1e-6
        t = 0.37
        fd = (s.beta(t + h) - s.beta(t - h)) / (2 * h)
        assert abs(s.alpha(t) - fd) / s.alpha(t) < 1e-6

    def test_positive_at_zero(self):
        assert ContinuousSigma(0.001).alpha(0.0) == pytest.approx(-2 * math.log(0.001))

    def test_derivative_consistency_grid(self):
        h = 1e-6
        for s in (ContinuousSigma(0.05), DiscreteQuadratic(3.0)):
            for t in np.linspace(0.01, 0.99, 100):
                fd = (s.beta(t + h) - s.beta(t - h)) / (2 * h)
                assert abs(s.alpha(t) - fd) / s.alpha(t) < 1e-5


class TestStepAlpha:
    def test_single_step_is_total(self):
        assert DiscreteQuadratic(3.0).step_alpha(1, 1) == pytest.approx(3.0)
        s = ContinuousSigma(0.1)
        assert s.step_alpha(1, 1) == pytest.approx(s.beta(1.0))

    def test_matches_beta_differences(self):
        s = ContinuousSigma(0.2)
        n = 10
        for i in range(1, n + 1):
            diff = s.beta(i / n) - s.beta((i - 1) / n)
            assert s.step_alpha(i, n) == pytest.approx(diff, rel=1e-12)

    def test_index_domain(self):
        with pytest.raises(ValueError):
            DiscreteQuadratic(1.0).step_alpha(0, 4)
        with pytest.raises(ValueError):
            DiscreteQuadratic(1.0).step_alpha(5, 4)


class TestConstruction:
    def test_sigma_range_enforced(self):
        with pytest.raises(ValueError):
            ContinuousSigma(0.0)
        with pytest.raises(ValueError):
            ContinuousSigma(1.0)

    def test_beta1_positive(self):
        with pytest.raises(ValueError):
            DiscreteQuadratic(0.0)
