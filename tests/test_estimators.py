"""Estimator tests: closed-form values of the whitened variance estimator
and its two-scale expectation, distributional sanity of the chi-square
identity, the second-difference ratio estimator on exact fractional paths,
and the admissible subsampling windows."""

import math

import numpy as np
import pytest

from fraclab import (
    FgnCovariance,
    NumericFailure,
    SamplingGrid,
    SeedSpec,
    Trajectory,
    admissible_alpha,
    decimated,
    expected_bias_h_half,
    hurst_hat,
    sample_fgn,
    sigma2_hat,
)
from fraclab.estimators import sigma2_hat_rows
from oracles import dense_covariance, dense_quadratic


def fbm_trajectory(hurst, grid, seed, sigma=1.0):
    db = sample_fgn(hurst, grid, seed).values
    return Trajectory(grid, np.concatenate([[0.0], np.cumsum(sigma * db)]))


class TestSigma2Hat:
    def test_white_noise_closed_form(self):
        # at hurst 1/2 the whitening is diagonal: dx' dx / (N delta)
        grid = SamplingGrid(delta=0.25, count=12)
        rng = np.random.default_rng(0)
        traj = Trajectory(grid, np.cumsum(rng.standard_normal(13)))
        dx = np.diff(traj.values)
        expected = float(dx @ dx) / (12 * 0.25)
        assert sigma2_hat(traj, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_matches_dense_oracle(self):
        grid = SamplingGrid(delta=0.1, count=24)
        rng = np.random.default_rng(1)
        traj = Trajectory(grid, np.cumsum(rng.standard_normal(25)))
        dx = np.diff(traj.values)
        sigma_mat = dense_covariance(FgnCovariance(0.7, 0.1, 24))
        expected = dense_quadratic(sigma_mat, dx) / 24
        assert sigma2_hat(traj, 0.7) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("hurst", [0.3, 0.7])
    def test_unbiased_on_exact_fractional_data(self, hurst):
        # N sigma2_hat / sigma^2 is chi-square(N) on exact data; check the
        # mean over 400 replicates (tolerance ~4 standard errors)
        grid = SamplingGrid(delta=0.1, count=100)
        cov = FgnCovariance(hurst, 0.1, 100)
        sigma = 1.3
        vals = [
            sigma2_hat(fbm_trajectory(hurst, grid, SeedSpec(2, r), sigma), hurst, cov=cov)
            for r in range(400)
        ]
        rel = np.mean(vals) / sigma**2
        assert abs(rel - 1.0) < 4.0 * math.sqrt(2.0 / (100 * 400)) + 0.005

    def test_cov_mismatch_rejected(self):
        grid = SamplingGrid(delta=0.1, count=10)
        traj = Trajectory(grid, np.zeros(11))
        with pytest.raises(ValueError, match="does not match"):
            sigma2_hat(traj, 0.7, cov=FgnCovariance(0.7, 0.1, 11))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rows_rejected(self, bad):
        # the row kernel raises, as sigma2_hat does on the same path, and
        # returns no NaN
        grid = SamplingGrid(1.0, 4)
        values = np.array([[0.0, 1.0, 0.5, 2.0, 0.5], [0.0, bad, 1.0, 2.0, 0.5]])
        for rows in (values, values[1:]):
            with pytest.raises(ValueError, match="non-finite"):
                sigma2_hat_rows(rows, grid, 0.7)


class TestExpectedBias:
    def test_frozen_values(self):
        # sigma^2 (1 + r (e^{-1/r} - 1)) at r = eps/delta
        assert expected_bias_h_half(1.0, 0.1, 1.0) == pytest.approx(0.9000045, abs=1e-6)
        assert expected_bias_h_half(1.0, 1.0, 1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-12
        )
        assert expected_bias_h_half(1.0, 10.0, 1.0) == pytest.approx(0.0483742, abs=1e-6)

    def test_depends_on_ratio_only(self):
        assert expected_bias_h_half(1.0, 0.2, 0.02) == pytest.approx(
            expected_bias_h_half(1.0, 10.0, 1.0), rel=1e-12
        )

    def test_sigma_scaling(self):
        assert expected_bias_h_half(2.0, 1.0, 1.0) == pytest.approx(
            4.0 * expected_bias_h_half(1.0, 1.0, 1.0), rel=1e-14
        )

    def test_monotone_decreasing_in_ratio(self):
        vals = [expected_bias_h_half(1.0, r, 1.0) for r in (0.1, 0.5, 1, 2, 5, 10)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert expected_bias_h_half(1.0, 1e-8, 1.0) == pytest.approx(1.0, abs=1e-7)

    def test_validation(self):
        with pytest.raises(ValueError, match="sigma"):
            expected_bias_h_half(0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            expected_bias_h_half(1.0, 0.0, 1.0)


class TestHurstHat:
    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7])
    def test_recovers_exponent_on_exact_path(self, hurst):
        grid = SamplingGrid(delta=1.0, count=4096)
        traj = fbm_trajectory(hurst, grid, SeedSpec(3))
        assert abs(hurst_hat(traj) - hurst) < 0.05

    def test_scale_and_step_invariance(self):
        grid = SamplingGrid(delta=1.0, count=256)
        traj = fbm_trajectory(0.7, grid, SeedSpec(4))
        est = hurst_hat(traj)
        scaled = Trajectory(grid, 17.0 * traj.values)
        assert hurst_hat(scaled) == pytest.approx(est, rel=1e-12)
        other = Trajectory(SamplingGrid(delta=0.01, count=256), traj.values)
        assert hurst_hat(other) == pytest.approx(est, rel=1e-12)

    def test_count_validation(self):
        with pytest.raises(ValueError, match="even"):
            hurst_hat(Trajectory(SamplingGrid(delta=1.0, count=5), np.arange(6.0) ** 2))
        with pytest.raises(ValueError, match=">= 4"):
            hurst_hat(Trajectory(SamplingGrid(delta=1.0, count=2), np.array([0.0, 1.0, 4.0])))

    def test_degenerate_path_fails_loudly(self):
        # a linear trajectory has no curvature at any scale
        grid = SamplingGrid(delta=1.0, count=8)
        with pytest.raises(NumericFailure, match="degenerate"):
            hurst_hat(Trajectory(grid, np.linspace(0.0, 4.0, 9)))


class TestAdmissibleAlpha:
    def test_consistency_window(self):
        assert admissible_alpha(0.7) == (0.0, 1.0)
        assert admissible_alpha(0.5) == (0.0, 1.0)
        lo, hi = admissible_alpha(0.3)
        assert (lo, hi) == (0.0, pytest.approx(3.0 / 7.0, rel=1e-14))

    def test_clt_window(self):
        lo, hi = admissible_alpha(0.7, kind="clt")
        assert (lo, hi) == (0.0, pytest.approx(7.0 / 12.0, rel=1e-14))
        lo, hi = admissible_alpha(0.3, kind="clt")
        assert (lo, hi) == (0.0, pytest.approx(0.25, rel=1e-14))

    def test_clt_window_is_narrower(self):
        for h in (0.3, 0.5, 0.7, 0.9):
            assert admissible_alpha(h, "clt")[1] <= admissible_alpha(h)[1]

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            admissible_alpha(0.7, kind="rate")
        with pytest.raises(ValueError, match="hurst"):
            admissible_alpha(1.0)


class TestDecimated:
    def test_grid_and_values(self):
        grid = SamplingGrid(delta=0.5, count=6)
        traj = Trajectory(grid, np.arange(7.0))
        half = decimated(traj)
        assert half.grid.delta == 1.0
        assert half.grid.count == 3
        np.testing.assert_array_equal(half.values, [0.0, 2.0, 4.0, 6.0])

    def test_odd_count_rejected(self):
        grid = SamplingGrid(delta=0.5, count=5)
        with pytest.raises(ValueError, match="even"):
            decimated(Trajectory(grid, np.arange(6.0)))
