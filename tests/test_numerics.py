"""RNG determinism, sampling moments and the stable primitives."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bflow.kernels import erf_vec
from bflow.numerics import (
    Rng,
    RowStreams,
    gaussian_sample,
    log_gaussian_pdf,
    sample_categorical_rows,
    softmax_rows,
    use_one_blas_thread,
)



class TestRng:
    def test_same_seed_same_sequence(self):
        a = Rng(123).standard_normal(64)
        b = Rng(123).standard_normal(64)
        assert np.array_equal(a, b)

    def test_split_reproducible_and_distinct(self):
        root = Rng(5)
        s1 = root.split(1).standard_normal(32)
        s1_again = Rng(5).split(1).standard_normal(32)
        s2 = Rng(5).split(2).standard_normal(32)
        assert np.array_equal(s1, s1_again)
        assert not np.array_equal(s1, s2)

    def test_cross_process_reproducibility(self, child_env):
        code = (
            "from bflow.numerics import Rng; import numpy as np; "
            "print(','.join(f'{v!r}' for v in Rng(99).split(3).standard_normal(8)))"
        )
        runs = [
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=child_env
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("draw", ["standard_normal", "uniform"])
    def test_draw_into_out_is_the_returned_draw(self, draw):
        # RowStreams writes each stream's draw into its row of one array
        a, b, out = Rng(6), Rng(6), np.full((2, 3, 4), np.nan)
        got = getattr(a, draw)((3, 4), out=out[1, ...])
        assert got.base is out and np.array_equal(out[1], getattr(b, draw)((3, 4)))
        assert np.isnan(out[0]).all() and getattr(a, draw)() == getattr(b, draw)()


class TestRowStreams:
    def test_row_b_is_stream_b_own_draw(self):
        # two draws of each kind in turn: row b of each is stream b's next draw
        rng = RowStreams([Rng(7).split(b) for b in range(4)])
        draws = [rng.uniform((4, 5, 1)), rng.standard_normal((4, 2, 3)), rng.uniform((4, 5, 1)),
                 rng.standard_normal((4, 3))]
        for b in range(4):
            own = Rng(7).split(b)
            want = [own.uniform((5, 1)), own.standard_normal((2, 3)), own.uniform((5, 1)), own.standard_normal(3)]
            for got, ref in zip(draws, want):
                assert np.array_equal(got[b], ref)

    @pytest.mark.parametrize("draw", ["standard_normal", "uniform"])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_leading_size_must_be_the_stream_count(self, draw, rows):
        rng = RowStreams([Rng(8), Rng(9)])
        with pytest.raises(ValueError, match=f"a draw of {rows} rows from 2 streams"):
            getattr(rng, draw)((rows, 4))


class TestGaussianSample:
    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            gaussian_sample(Rng(0), np.zeros(2), 0.0)

    @pytest.mark.parametrize("var", [np.nan, np.array([1.0, np.nan, 2.0])], ids=["scalar", "one-of-three"])
    def test_rejects_nan_variance(self, var):
        # a NaN compares false both ways, so only "not all positive" rejects it
        with pytest.raises(ValueError, match="variance must be positive"):
            gaussian_sample(Rng(0), np.zeros(3), var)
        with pytest.raises(ValueError):
            gaussian_sample(Rng(0), np.zeros(2), np.array([1.0, -1.0]))

    def test_moments_scalar_variance(self):
        r = Rng(2024)
        draws = gaussian_sample(r, np.zeros(1_000_000), 1.0)
        assert abs(draws.mean()) < 5 * math.sqrt(1.0 / 1_000_000)

    def test_tight_gaussian_near_mean(self):
        r = Rng(3)
        draws = gaussian_sample(r, np.full(10_000, 5.0), 1e-12)
        assert np.all(np.abs(draws - 5.0) < 1e-4)

    def test_per_dimension_variances(self):
        r = Rng(4)
        draws = gaussian_sample(r, np.tile([1.0, 2.0], (1_000_000, 1)), np.array([1.0, 4.0]))
        # independent sample-moment oracle
        emp = draws.var(axis=0, ddof=1)
        assert abs(emp[0] - 1.0) / 1.0 < 0.05
        assert abs(emp[1] - 4.0) / 4.0 < 0.05


class TestErf:
    def test_series_oracle(self):
        # Maclaurin series with fsum, accurate to ~1e-13 for |x| <= 3
        def erf_series(x):
            terms = []
            term = x
            n = 0
            while abs(term) > 1e-22:
                terms.append(term / (2 * n + 1))
                n += 1
                term = -term * x * x / n
            return 2.0 / math.sqrt(math.pi) * math.fsum(terms)

        xs = np.linspace(-3, 3, 61)
        for x, got in zip(xs, erf_vec(xs)):
            assert abs(got - erf_series(float(x))) < 1e-12


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax_rows(np.zeros((1, 3))), np.full((1, 3), 1 / 3), atol=1e-15)

    def test_extreme_logits_no_overflow(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))[0]
        assert out[0] == pytest.approx(1.0)
        assert out[1] < 1e-300 or out[1] == 0.0
        assert np.isfinite(out).all()

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8), st.floats(-100, 100))
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance_and_simplex(self, v, c):
        v = np.array([v])
        a = softmax_rows(v)
        b = softmax_rows(v + c)
        np.testing.assert_allclose(a, b, atol=1e-12)
        assert abs(a.sum() - 1.0) <= 1e-12
        assert np.all(a > 0)

    def test_rows_variant(self):
        rows = softmax_rows(np.array([[0.0, 1.0], [5.0, 5.0]]))
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)


class TestLogGaussianPdf:
    def test_standard_peak(self):
        assert log_gaussian_pdf(np.zeros(1), np.zeros(1), 1.0) == pytest.approx(-0.5 * math.log(2 * math.pi))

    def test_factorisation(self):
        y = np.array([0.3, -1.2])
        m = np.array([0.1, 0.4])
        parts = sum(log_gaussian_pdf(y[i : i + 1], m[i : i + 1], 0.7) for i in range(2))
        assert log_gaussian_pdf(y, m, 0.7) == pytest.approx(parts, abs=1e-12)

    def test_matches_direct_pdf_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            y, m = rng.normal(size=2)
            var = float(rng.uniform(0.1, 3.0))
            direct = math.log(math.exp(-((y - m) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var))
            assert abs(log_gaussian_pdf(np.array([y]), np.array([m]), var) - direct) < 1e-10

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            log_gaussian_pdf(np.zeros(1), np.zeros(1), 0.0)

    @pytest.mark.parametrize("var", [np.nan, np.array([1.0, np.nan])], ids=["scalar", "one-per-row"])
    def test_rejects_nan_variance(self, var):
        with pytest.raises(ValueError, match="variance must be positive"):
            log_gaussian_pdf(np.zeros((2, 1)), np.zeros((2, 1)), var)

    @pytest.mark.parametrize("per_row_var", [False, True])
    def test_one_dimension_matches_vecdot_bits(self, per_row_var):
        # the (N, 1) path squares the one residual instead of calling vecdot
        rng = np.random.default_rng(6)
        y = rng.normal(size=(1000, 1)) * 10.0 ** rng.integers(-160, 160, size=(1000, 1))
        y[:4, 0] = [np.nan, np.inf, -0.0, 1e200]
        m = rng.normal(size=(1000, 1))
        var = rng.uniform(1e-3, 5.0, size=1000) if per_row_var else 0.37
        resid = y - m
        with np.errstate(over="ignore", invalid="ignore"):
            ref = -0.5 * np.log(2.0 * np.pi * np.asarray(var)) - 0.5 * np.vecdot(resid, resid) / var
            got = log_gaussian_pdf(y, m, var)
        np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_sample_categorical_rows_frequencies():
    r = Rng(77)
    probs = np.tile([0.2, 0.5, 0.3], (1, 1))
    draws = sample_categorical_rows(probs, r.uniform(size=(20000, 1, 1))).ravel()
    freq = np.bincount(draws, minlength=4)[1:] / draws.size
    np.testing.assert_allclose(freq, [0.2, 0.5, 0.3], atol=0.02)


def test_a_missing_blas_thread_setter_is_one_line_on_stderr(monkeypatch, tmp_path, capsys):
    # a numpy without bundled OpenBLAS beside it: nothing to set
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    use_one_blas_thread()
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and "cannot set the thread count of numpy's BLAS" in out.err
    # it names the BLAS numpy reports, not a variable of one BLAS
    assert np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"] in out.err
    assert "OPENBLAS_NUM_THREADS" not in out.err
