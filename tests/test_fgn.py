import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate as sint
from scipy import fft as sfft
from scipy.linalg import matmul_toeplitz
from hypothesis import given
from hypothesis import strategies as st

from fraclab import (
    FgnCovariance,
    fgn_autocovariance,
    fou_autocovariance_expansion,
    stationary_fou_variance,
    unit_autocovariance,
)
from fraclab import fgn
from fraclab.grids import NumericFailure
from oracles import (
    dense_covariance,
    dense_quadratic,
    dense_solve,
    refined_toeplitz_first_column,
)


class TestUnitAutocovariance:
    def test_lag_zero_is_one(self):
        for h in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert unit_autocovariance(h, np.array([0]))[0] == pytest.approx(1.0)

    def test_half_is_white_noise(self):
        g = unit_autocovariance(0.5, np.arange(6))
        np.testing.assert_allclose(g, [1, 0, 0, 0, 0, 0], atol=1e-15)

    def test_matches_direct_formula(self):
        # 0.5 * (|k+1|^2H - 2|k|^2H + |k-1|^2H), straight evaluation
        for h in (0.3, 0.7):
            k = np.arange(1, 50, dtype=float)
            direct = 0.5 * ((k + 1) ** (2 * h) - 2 * k ** (2 * h) + (k - 1) ** (2 * h))
            np.testing.assert_allclose(
                unit_autocovariance(h, np.arange(1, 50)), direct, rtol=1e-12
            )

    def test_far_lag_series_continuous_at_switch(self):
        # the far-lag evaluation must agree with the direct formula where
        # both are accurate (the direct formula still has ~7 good digits
        # at k = 10^4)
        for h in (0.3, 0.7):
            k = np.array([9_999, 10_000, 10_001], dtype=np.int64)
            kf = k.astype(float)
            direct = 0.5 * (
                (kf + 1) ** (2 * h) - 2 * kf ** (2 * h) + (kf - 1) ** (2 * h)
            )
            np.testing.assert_allclose(
                unit_autocovariance(h, k), direct, rtol=1e-6
            )

    def test_far_lag_matches_asymptotic_power_law(self):
        # gamma(k) ~ H(2H-1) k^(2H-2) for large k
        for h in (0.3, 0.7):
            k = np.array([10**6])
            lead = h * (2 * h - 1) * float(k[0]) ** (2 * h - 2)
            assert unit_autocovariance(h, k)[0] == pytest.approx(lead, rel=1e-4)

    def test_summability_signs(self):
        # negatively correlated below H=1/2, positively above
        g3 = unit_autocovariance(0.3, np.arange(1, 10))
        g7 = unit_autocovariance(0.7, np.arange(1, 10))
        assert np.all(g3 < 0)
        assert np.all(g7 > 0)


class TestFgnCovariance:
    def test_self_similarity_scaling(self):
        base = dense_covariance(FgnCovariance(0.7, 1.0, 16))
        scaled = dense_covariance(FgnCovariance(0.7, 0.01, 16))
        np.testing.assert_allclose(scaled, 0.01 ** (2 * 0.7) * base, rtol=1e-12)

    def test_matrix_is_toeplitz_and_spd(self):
        cov = FgnCovariance(0.3, 0.5, 32)
        m = dense_covariance(cov)
        for k in range(32):
            diag = np.diagonal(m, k)
            np.testing.assert_allclose(diag, diag[0], rtol=1e-14)
        assert np.all(np.linalg.eigvalsh(m) > 0)

    def test_solve_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for h in (0.3, 0.5, 0.7):
            cov = FgnCovariance(h, 0.1, 24)
            rhs = rng.standard_normal(24)
            np.testing.assert_allclose(
                cov.solve(rhs), dense_solve(dense_covariance(cov), rhs), rtol=1e-9, atol=1e-12
            )

    def test_solve_accepts_matrix_rhs(self):
        rng = np.random.default_rng(12)
        cov = FgnCovariance(0.7, 1.0, 16)
        rhs = rng.standard_normal((5, 16))
        np.testing.assert_allclose(
            cov.solve(rhs), dense_solve(dense_covariance(cov), rhs.T).T, rtol=1e-9, atol=1e-12
        )

    def test_quadratic_form_matches_dense_oracle(self):
        rng = np.random.default_rng(13)
        cov = FgnCovariance(0.3, 1.0, 20)
        u = rng.standard_normal(20)
        v = rng.standard_normal(20)
        assert cov.quadratic_form(u) == pytest.approx(
            dense_quadratic(dense_covariance(cov), u), rel=1e-9
        )
        assert cov.quadratic_form(u, v) == pytest.approx(
            dense_quadratic(dense_covariance(cov), u, v), rel=1e-9
        )

    def test_inverse_spectral_norm_dense_oracle(self):
        for h in (0.3, 0.7):
            cov = FgnCovariance(h, 1.0, 64)
            expected = 1.0 / np.linalg.eigvalsh(dense_covariance(cov)).min()
            assert cov.inverse_spectral_norm() == pytest.approx(expected, rel=1e-8)

    def test_inverse_spectral_norm_exact_at_half(self):
        # Sigma = delta * I, so the norm is exactly 1/delta
        for delta in (1.0, 0.25, 0.004):
            cov = FgnCovariance(0.5, delta, 48)
            assert cov.inverse_spectral_norm() == pytest.approx(1.0 / delta, rel=1e-12)

    def test_lanczos_branch_agrees_with_dense_path(self):
        # a size past the old dense/iterative cutoff of 2048: the bisection
        # has one path at every N, checked here against a dense eigensolve
        import scipy.linalg as sla

        cov_big = FgnCovariance(0.7, 1.0, 2050)
        lam_min = sla.eigvalsh(
            dense_covariance(cov_big), subset_by_index=[0, 0], driver="evr"
        )[0]
        assert cov_big.inverse_spectral_norm() == pytest.approx(
            1.0 / lam_min, rel=1e-6
        )

    def test_fgn_autocovariance_scales_unit_values(self):
        g = fgn_autocovariance(0.7, 0.1, 5)
        np.testing.assert_allclose(
            g, 0.1 ** 1.4 * unit_autocovariance(0.7, np.arange(6)), rtol=1e-13
        )

    @pytest.mark.parametrize("hurst", [0.0, 1.0, -0.2, 1.4])
    def test_invalid_hurst_rejected(self, hurst):
        with pytest.raises(ValueError):
            FgnCovariance(hurst, 1.0, 8)

    @pytest.mark.parametrize("delta", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="delta"):
            FgnCovariance(0.7, delta, 8)

    def test_first_row_is_built_on_first_read(self):
        cov = FgnCovariance(0.7, 0.1, 6)
        cov.quadratic_form(np.ones(6))  # the generator path never reads it
        assert "first_row" not in vars(cov)
        np.testing.assert_array_equal(cov.first_row, fgn_autocovariance(0.7, 0.1, 5))
        assert cov.first_row is cov.first_row


operator_cases = st.tuples(
    st.integers(1, 512),
    st.floats(0.005, 0.995),
    st.floats(1e-3, 10.0),
    st.integers(0, 2**32 - 1),
)


def _case(case):
    size, hurst, delta, seed = case
    return FgnCovariance(hurst, delta, size), np.random.default_rng(seed)


def _cg_column(hurst, size):
    """The unit-step first row and CG's Sigma_1^{-1} e_1 at the generator's
    embedding length."""
    row = unit_autocovariance(hurst, np.arange(size))
    fft_len = sfft.next_fast_len(2 * size - 1, real=True)
    return row, fgn._cg_first_column(row, fft_len)


class TestGeneratorOperator:
    """The Gohberg-Semencul operator against dense oracles."""

    @given(operator_cases)
    def test_solve_matches_dense_solve(self, case):
        cov, rng = _case(case)
        dense = dense_covariance(cov)
        for rhs in (rng.standard_normal(cov.size), rng.standard_normal((3, cov.size))):
            want = dense_solve(dense, rhs.T).T
            np.testing.assert_allclose(
                cov.solve(rhs), want, rtol=1e-9, atol=1e-9 * np.abs(want).max()
            )

    @given(operator_cases)
    def test_quadratic_forms_match_dense(self, case):
        cov, rng = _case(case)
        dense = dense_covariance(cov)
        u = rng.standard_normal(cov.size)
        v = rng.standard_normal(cov.size)
        quu, qvv = dense_quadratic(dense, u), dense_quadratic(dense, v)
        assert cov.quadratic_form(u) == pytest.approx(quu, rel=1e-9)
        # u'S^{-1}v may be near zero, so compare on its Cauchy-Schwarz scale
        assert cov.quadratic_form(u, v) == pytest.approx(
            dense_quadratic(dense, u, v), abs=1e-9 * math.sqrt(quu * qvv)
        )

    @pytest.mark.parametrize("hurst, size", [(0.3, 1), (0.3, 40), (0.5, 57), (0.7, 320), (0.7, 2000)])
    def test_rows_equal_the_one_dimensional_form(self, hurst, size):
        # rows share each batched FFT but keep their own dot products: row j
        # is the 1-D form of row j, bit for bit
        cov = FgnCovariance(hurst, 0.1, size)
        u, v = np.random.default_rng(size).standard_normal((2, 7, size))
        quu, quv = cov.quadratic_form(u), cov.quadratic_form(u, v)
        assert quu.shape == quv.shape == (7,)
        for j in range(7):
            assert quu[j] == cov.quadratic_form(u[j])
            assert quv[j] == cov.quadratic_form(u[j], v[j])

    def test_row_shapes_are_checked(self):
        # solves and quadratic forms share one check: a vector of length N or
        # a (rows, N) block of finite entries
        cov = FgnCovariance(0.7, 1.0, 8)
        for u, v in ((np.ones((2, 7)), None), (np.ones((2, 2, 8)), None), (np.ones((2, 8)), np.ones((3, 8)))):
            with pytest.raises(ValueError, match="shape"):
                cov.quadratic_form(u, v)
        # a column-major (N, k) block with k != N has the wrong row length
        for rhs in (np.ones(7), np.ones((2, 2, 8)), np.ones((8, 3))):
            with pytest.raises(ValueError, match="shape"):
                cov.solve(rhs)
        for bad in (np.nan, np.inf, -np.inf):
            row = np.ones(8)
            row[3] = bad
            for w in (row, np.stack([np.ones(8), row])):
                with pytest.raises(ValueError, match="non-finite"):
                    cov.solve(w)
                with pytest.raises(ValueError, match="non-finite"):
                    cov.quadratic_form(w)
                with pytest.raises(ValueError, match="non-finite"):
                    cov.quadratic_form(np.ones(w.shape), w)

    @given(operator_cases)
    def test_solve_is_self_similar(self, case):
        cov, rng = _case(case)
        unit = FgnCovariance(cov.hurst, 1.0, cov.size)
        rhs = rng.standard_normal(cov.size)
        np.testing.assert_allclose(
            cov.solve(rhs),
            cov.delta ** (-2 * cov.hurst) * unit.solve(rhs),
            rtol=1e-12,
        )

    @given(operator_cases)
    def test_step_scaling_holds_to_a_few_ulp(self, case):
        # Sigma_delta = delta^(2H) Sigma_1, and both read the one cached
        # unit-step generator: solves (vector or matrix) and quadratic forms
        # differ from the scaled unit-step ones only in how the scale rounds
        cov, rng = _case(case)
        unit = FgnCovariance(cov.hurst, 1.0, cov.size)
        scale = cov.delta ** (-2 * cov.hurst)
        ulps = 4 * np.finfo(float).eps
        for rhs in (rng.standard_normal(cov.size), rng.standard_normal((3, cov.size))):
            want = scale * unit.solve(rhs)
            assert np.all(np.abs(cov.solve(rhs) - want) <= ulps * np.abs(want))
        u = rng.standard_normal(cov.size)
        want = scale * unit.quadratic_form(u)
        assert abs(cov.quadratic_form(u) - want) <= ulps * want

    @pytest.mark.parametrize("size", [1, 2, 3, 64, 2048, 2049])
    def test_inverse_spectral_norm_matches_eigvalsh(self, size):
        import scipy.linalg as sla

        cov = FgnCovariance(0.7, 0.5, size)
        lam_min = sla.eigvalsh(
            dense_covariance(cov), subset_by_index=[0, 0], driver="evr"
        )[0]
        assert cov.inverse_spectral_norm() == pytest.approx(1.0 / lam_min, rel=1e-11)

    def test_inverse_spectral_norm_interlaces(self):
        # Cauchy interlacing: lambda_min cannot rise when a row is added
        small = FgnCovariance(0.7, 1.0, 2048).inverse_spectral_norm()
        assert FgnCovariance(0.7, 1.0, 2049).inverse_spectral_norm() >= small

    @pytest.mark.parametrize(
        "hurst", [0.001, 0.01, 0.05, 0.2, 0.5, 0.8, 0.95, 0.99, 0.999]
    )
    def test_cg_generator_matches_durbin(self, hurst):
        # at the ends of the H range the two solvers part by more than 1e-12:
        # near H = 0 the rounding of CG's FFT products is amplified by
        # 1/lambda_min, about 3e6 at N = 4096; near H = 1 Durbin's own error
        # is the larger one
        rtol = 1e-12 if 0.05 <= hurst <= 0.95 else 1e-10
        for size in (1, 2, 3, 64, 1000, 4096):
            row, x = _cg_column(hurst, size)
            want, _ = fgn._durbin(row)
            assert np.linalg.norm(x - want) <= rtol * np.linalg.norm(want)
            e1 = np.eye(1, size).ravel()
            assert np.linalg.norm(matmul_toeplitz(row, x) - e1) <= 1e-11

    def test_generator_is_exact_at_half(self):
        fgn._unit_generator.cache_clear()
        try:
            for size in (1, 2, 64, 4096):
                assert fgn._unit_generator(0.5, size).x0 == 1.0
                _, x = _cg_column(0.5, size)
                np.testing.assert_array_equal(x, np.eye(1, size).ravel())
        finally:
            fgn._unit_generator.cache_clear()

    def test_durbin_builds_the_generator_near_zero_hurst(self):
        # CG's x is off by 5e-11 here (test_cg_generator_matches_durbin)
        fgn._unit_generator.cache_clear()
        try:
            gen = fgn._unit_generator(0.001, 4096)
        finally:
            fgn._unit_generator.cache_clear()
        want = refined_toeplitz_first_column(unit_autocovariance(0.001, np.arange(4096)))
        x = sfft.irfft(gen.x_hat, gen.fft_len)[:4096]
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)

    def test_durbin_builds_the_generator_past_the_cg_cap(self, monkeypatch):
        monkeypatch.setattr(fgn, "_CG_MAX_ITER", 0)
        fgn._unit_generator.cache_clear()
        try:
            for hurst, size in ((0.3, 100), (0.8, 257)):
                gen = fgn._unit_generator(hurst, size)
                x, _ = fgn._durbin(unit_autocovariance(hurst, np.arange(size)))
                assert gen.x0 == x[0]
                np.testing.assert_array_equal(gen.x_hat, sfft.rfft(x, gen.fft_len))
        finally:
            fgn._unit_generator.cache_clear()

    def test_durbin_reports_singular_order(self):
        x, order = fgn._durbin(np.array([1.0, 1.0, 1.0]))
        assert x is None and order == 1

    def test_singular_covariance_raises_numeric_failure(self, monkeypatch):
        monkeypatch.setattr(fgn, "unit_autocovariance", lambda h, lags: np.ones(len(lags)))
        fgn._unit_generator.cache_clear()
        try:
            cov = FgnCovariance(0.6, 1.0, 3)
            with pytest.raises(NumericFailure, match="H=0.6, N=3.*order 1 "):
                cov.solve(np.ones(3))
        finally:
            fgn._unit_generator.cache_clear()

    def test_numerically_indefinite_covariance_raises(self):
        # near H = 1 the unit covariance tends to the all-ones matrix
        with pytest.raises(NumericFailure, match="not numerically positive definite"):
            FgnCovariance(1.0 - 1e-12, 1.0, 1024).quadratic_form(np.ones(1024))

    def test_memory_is_linear_in_size(self):
        size = 4096
        rhs = np.random.default_rng(3).standard_normal(size)
        fgn._unit_generator.cache_clear()
        tracemalloc.start()
        try:
            cov = FgnCovariance(0.7, 0.01, size)
            cov.solve(rhs)
            cov.quadratic_form(rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense matrix alone would be 8 N^2 = 134 MB
        assert peak < 64 * size * 8

    def test_steps_share_one_generator(self):
        fgn._unit_generator.cache_clear()
        a = FgnCovariance(0.7, 0.01, 100)
        b = FgnCovariance(0.7, 2.5, 100)
        assert a.cholesky is b.cholesky
        info = fgn._unit_generator.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


class TestFouAutocovarianceExpansion:
    def _quadrature_covariance(self, hurst, sigma, s):
        # E[Y_t Y_{t+s}] for the stationary unit-rate fOU: the spectral /
        # moving-average double integral, evaluated numerically:
        #   E[Y_0 Y_s] = sigma^2 H(2H-1) int_0^inf int_0^inf
        #       e^-(u+v) |s + v - u|^(2H-2) du dv     (H > 1/2)
        h = hurst

        def inner(u):
            f = lambda v: math.exp(-v) * abs(s + v - u) ** (2 * h - 2)
            val, _ = sint.quad(f, 0, 50, points=[max(u - s, 0.0)], limit=200)
            return math.exp(-u) * val

        val, _ = sint.quad(inner, 0, 50, limit=200)
        return sigma * sigma * h * (2 * h - 1) * val

    def test_leading_term_against_quadrature(self):
        # one-term expansion ~ sigma^2 H(2H-1) s^(2H-2) should match the
        # quadrature value ever better as the lag grows
        h, sigma = 0.7, 1.3
        rel = []
        for s in (10.0, 30.0):
            exact = self._quadrature_covariance(h, sigma, s)
            approx = fou_autocovariance_expansion(h, sigma, s, terms=2)
            rel.append(abs(approx - exact) / abs(exact))
        assert rel[1] < rel[0]
        assert rel[1] < 5e-3

    def test_first_term_is_power_law(self):
        h, sigma, s = 0.7, 1.0, 50.0
        expected = 0.5 * sigma**2 * (2 * h) * (2 * h - 1) * s ** (2 * h - 2)
        assert fou_autocovariance_expansion(h, sigma, s, terms=1) == pytest.approx(
            expected, rel=1e-12
        )

    def test_half_rejected(self):
        with pytest.raises(ValueError):
            fou_autocovariance_expansion(0.5, 1.0, 10.0, 1)


class TestStationaryFouVariance:
    def test_half_closed_form(self):
        # at H = 1/2 the classical beta^2 / (2 lam)
        assert stationary_fou_variance(0.5, 2.0, 3.0) == pytest.approx(9.0 / 4.0)

    def test_quadrature_oracle(self):
        # Var Y = beta^2 H(2H-1) int_0^inf int_0^inf e^-(lam)(u+v) |v-u|^(2H-2)
        h, lam, beta = 0.7, 1.7, 0.9

        def inner(u):
            f = lambda v: math.exp(-lam * v) * abs(v - u) ** (2 * h - 2)
            val, _ = sint.quad(f, 0, 60 / lam, points=[u], limit=200)
            return math.exp(-lam * u) * val

        val, _ = sint.quad(inner, 0, 60 / lam, limit=200)
        oracle = beta * beta * h * (2 * h - 1) * val
        assert stationary_fou_variance(h, lam, beta) == pytest.approx(oracle, rel=1e-6)

    def test_scaling_in_lam(self):
        a = stationary_fou_variance(0.7, 1.0, 1.0)
        b = stationary_fou_variance(0.7, 2.0, 1.0)
        assert b == pytest.approx(a * 2.0 ** (-1.4), rel=1e-12)
