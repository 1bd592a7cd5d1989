import math

import numpy as np
import pytest
import scipy.integrate as sint

from fraclab import (
    FgnCovariance,
    fgn_autocovariance,
    fou_autocovariance_expansion,
    stationary_fou_variance,
    unit_autocovariance,
)
from oracles import dense_quadratic, dense_solve


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
        base = FgnCovariance(0.7, 1.0, 16).matrix
        scaled = FgnCovariance(0.7, 0.01, 16).matrix
        np.testing.assert_allclose(scaled, 0.01 ** (2 * 0.7) * base, rtol=1e-12)

    def test_matrix_is_toeplitz_and_spd(self):
        cov = FgnCovariance(0.3, 0.5, 32)
        m = cov.matrix
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
                cov.solve(rhs), dense_solve(cov.matrix, rhs), rtol=1e-9, atol=1e-12
            )

    def test_solve_accepts_matrix_rhs(self):
        rng = np.random.default_rng(12)
        cov = FgnCovariance(0.7, 1.0, 16)
        rhs = rng.standard_normal((16, 5))
        np.testing.assert_allclose(
            cov.solve(rhs), dense_solve(cov.matrix, rhs), rtol=1e-9, atol=1e-12
        )

    def test_quadratic_form_matches_dense_oracle(self):
        rng = np.random.default_rng(13)
        cov = FgnCovariance(0.3, 1.0, 20)
        u = rng.standard_normal(20)
        v = rng.standard_normal(20)
        assert cov.quadratic_form(u) == pytest.approx(
            dense_quadratic(cov.matrix, u), rel=1e-9
        )
        assert cov.quadratic_form(u, v) == pytest.approx(
            dense_quadratic(cov.matrix, u, v), rel=1e-9
        )

    def test_inverse_spectral_norm_dense_oracle(self):
        for h in (0.3, 0.7):
            cov = FgnCovariance(h, 1.0, 64)
            expected = 1.0 / np.linalg.eigvalsh(cov.matrix).min()
            assert cov.inverse_spectral_norm() == pytest.approx(expected, rel=1e-8)

    def test_inverse_spectral_norm_exact_at_half(self):
        # Sigma = delta * I, so the norm is exactly 1/delta
        for delta in (1.0, 0.25, 0.004):
            cov = FgnCovariance(0.5, delta, 48)
            assert cov.inverse_spectral_norm() == pytest.approx(1.0 / delta, rel=1e-12)

    def test_lanczos_branch_agrees_with_dense_path(self):
        # force the iterative branch by exceeding the dense cutoff
        import scipy.linalg as sla

        cov_big = FgnCovariance(0.7, 1.0, 2050)
        lam_min = sla.eigvalsh(cov_big.matrix, subset_by_index=[0, 0], driver="evr")[0]
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
