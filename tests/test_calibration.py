"""Calibration-map tests: closed-form spot checks, exact round trips between
the forward solution map and the inverse calibration (also as a property
over scales, steps and theta = 0), the theta -> 0 limit, and the dyadic
convergence diagnostic."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fraclab import (
    FouParams,
    IncrementVector,
    SamplingGrid,
    SeedSpec,
    Trajectory,
    convergence_diagnostic,
    forward_map,
    interpolation_calibration,
    inverse_calibration,
    phi_ratio,
)
from fraclab import calibration


class TestPhiRatio:
    def test_zero_theta_is_one(self):
        assert phi_ratio(0.0, 0.3) == 1.0

    def test_hand_value(self):
        assert phi_ratio(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)
        # depends on theta and delta only through the product
        assert phi_ratio(2.0, 0.5) == phi_ratio(1.0, 1.0)

    def test_continuous_at_zero(self):
        assert phi_ratio(1e-12, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="theta"):
            phi_ratio(-0.1, 1.0)
        with pytest.raises(ValueError, match="delta"):
            phi_ratio(1.0, 0.0)


class TestInterpolationCalibration:
    def test_gradients_are_scaled_differences(self):
        grid = SamplingGrid(delta=0.5, count=3)
        driver = Trajectory(grid, np.array([0.0, 1.0, 1.0, -2.0]))
        c = interpolation_calibration(driver)
        np.testing.assert_allclose(c.values, [2.0, 0.0, -6.0], rtol=1e-15)
        assert c.grid is grid

    def test_rebuilds_driver(self):
        rng = np.random.default_rng(1)
        grid = SamplingGrid(delta=0.25, count=12)
        driver = Trajectory(grid, np.concatenate([[0.0], np.cumsum(rng.standard_normal(12))]))
        c = interpolation_calibration(driver).values
        rebuilt = driver.values[0] + np.concatenate([[0.0], np.cumsum(grid.delta * c)])
        np.testing.assert_allclose(rebuilt, driver.values, rtol=1e-14, atol=1e-15)


class TestInverseCalibration:
    def test_single_cell_hand_value(self):
        # theta = sigma = delta = 1, x: 0 -> 1: gradient 1/(1 - e^{-1})
        grid = SamplingGrid(delta=1.0, count=1)
        c = inverse_calibration(Trajectory(grid, np.array([0.0, 1.0])), 1.0, 1.0)
        assert c.values[0] == pytest.approx(1.0 / (1.0 - math.exp(-1.0)), rel=1e-14)
        assert c.values[0] == pytest.approx(1.581976706869326, rel=1e-12)

    def test_zero_theta_matches_interpolation(self):
        rng = np.random.default_rng(2)
        grid = SamplingGrid(delta=0.2, count=20)
        x = Trajectory(grid, np.cumsum(rng.standard_normal(21)))
        c0 = inverse_calibration(x, 0.0, 1.0).values
        np.testing.assert_allclose(
            c0, interpolation_calibration(x).values, rtol=1e-15
        )

    def test_continuous_in_theta_at_zero(self):
        rng = np.random.default_rng(3)
        grid = SamplingGrid(delta=0.2, count=20)
        x = Trajectory(grid, np.cumsum(rng.standard_normal(21)))
        c0 = inverse_calibration(x, 0.0, 1.3).values
        c_eps = inverse_calibration(x, 1e-8, 1.3).values
        np.testing.assert_allclose(c_eps, c0, rtol=1e-6, atol=1e-8)

    def test_scale_invariance(self):
        # scaling trajectory and sigma together leaves the gradients alone
        rng = np.random.default_rng(4)
        grid = SamplingGrid(delta=0.1, count=15)
        values = np.cumsum(rng.standard_normal(16))
        a = inverse_calibration(Trajectory(grid, values), 0.7, 1.0).values
        b = inverse_calibration(Trajectory(grid, 3.0 * values), 0.7, 3.0).values
        np.testing.assert_allclose(a, b, rtol=1e-14)

    def test_sigma_validation(self):
        grid = SamplingGrid(delta=1.0, count=1)
        x = Trajectory(grid, np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="sigma"):
            inverse_calibration(x, 1.0, 0.0)


class TestForwardMap:
    def test_zero_gradients_decay(self):
        # no drive: pure exponential decay of the start value
        grid = SamplingGrid(delta=1.0, count=2)
        zero = IncrementVector(grid, np.zeros(2))
        x = forward_map(1.0, zero, 1.0, 1.0)
        np.testing.assert_allclose(
            x.values, [1.0, math.exp(-1.0), math.exp(-2.0)], rtol=1e-14
        )

    def test_zero_theta_integrates_gradients(self):
        grid = SamplingGrid(delta=0.5, count=4)
        c = IncrementVector(grid, np.array([1.0, -2.0, 0.5, 3.0]))
        x = forward_map(0.7, c, 0.0, 2.0)
        expected = 0.7 + np.concatenate(
            [[0.0], np.cumsum(2.0 * 0.5 * c.values)]
        )
        np.testing.assert_allclose(x.values, expected, rtol=1e-14)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(5)
        grid = SamplingGrid(delta=0.25, count=10)
        c = IncrementVector(grid, rng.standard_normal(10))
        base = forward_map(0.4, c, 1.1, 1.0).values
        scaled = forward_map(3.0 * 0.4, c, 1.1, 3.0).values
        np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-14)

    @pytest.mark.parametrize("theta", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("delta", [1.0, 0.1, 0.01])
    def test_inverse_recovers_gradients(self, theta, delta):
        rng = np.random.default_rng(6)
        grid = SamplingGrid(delta=delta, count=25)
        c = IncrementVector(grid, rng.standard_normal(25))
        x = forward_map(-0.8, c, theta, 1.7)
        recovered = inverse_calibration(x, theta, 1.7)
        np.testing.assert_allclose(recovered.values, c.values, rtol=1e-11, atol=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 0.5, 2.0])
    def test_forward_recovers_trajectory(self, theta):
        rng = np.random.default_rng(7)
        grid = SamplingGrid(delta=0.2, count=25)
        x = Trajectory(grid, np.cumsum(rng.standard_normal(26)))
        c = inverse_calibration(x, theta, 0.9)
        rebuilt = forward_map(float(x.values[0]), c, theta, 0.9)
        np.testing.assert_allclose(rebuilt.values, x.values, rtol=1e-11, atol=1e-12)

    @given(
        x0=st.floats(-100.0, 100.0),
        theta=st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
        sigma=st.floats(1e-2, 1e2),
        delta=st.floats(1e-4, 1.0),
        count=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_property(self, x0, theta, sigma, delta, count, seed):
        # inverse_calibration undoes forward_map to roundoff: each gradient
        # is a difference of two path values over sigma delta phi, so its
        # error scale is eps times the path's size over that step
        grid = SamplingGrid(delta=delta, count=count)
        c = IncrementVector(grid, np.random.default_rng(seed).standard_normal(count))
        x = forward_map(x0, c, theta, sigma)
        assert x.values[0] == x0
        back = inverse_calibration(x, theta, sigma).values
        step = sigma * delta * phi_ratio(theta, delta)
        bound = 32 * np.finfo(float).eps * (np.abs(x.values).max() / step + np.abs(c.values))
        assert np.all(np.abs(back - c.values) <= bound)


class TestConvergenceDiagnostic:
    def test_structure_and_determinism(self):
        params = FouParams(theta=1.0, sigma=1.0, hurst=0.7)
        a = convergence_diagnostic(params, SeedSpec(0), delta0=0.5, n_max=3, horizon=2.0)
        b = convergence_diagnostic(params, SeedSpec(0), delta0=0.5, n_max=3, horizon=2.0)
        assert len(a.levels) == 4
        np.testing.assert_array_equal(
            [lv.distance for lv in a.levels], [lv.distance for lv in b.levels]
        )
        deltas = [lv.delta for lv in a.levels]
        np.testing.assert_allclose(deltas, [0.5, 0.25, 0.125, 0.0625], rtol=1e-12)
        assert all(np.isfinite(lv.distance) and lv.distance > 0 for lv in a.levels)
        assert a.level == 2
        assert a.p == pytest.approx(0.5 * (1.0 / 0.7 + 3.0))

    def test_gap_shrinks_under_refinement(self):
        params = FouParams(theta=1.0, sigma=1.0, hurst=0.7)
        d = convergence_diagnostic(params, SeedSpec(1), delta0=0.5, n_max=4, horizon=2.0)
        gaps = [lv.mean_abs_gap for lv in d.levels]
        assert gaps[-1] < gaps[0] / 4

    def test_distance_keeps_shrinking_at_the_finest_step(self):
        # the trajectory must come from the map the inverse calibration undoes;
        # a different one-step scheme leaves an O(theta delta) floor that stalls
        # the distance at the finest refinement
        params = FouParams(theta=1.0, sigma=1.0, hurst=0.7)
        ratios = []
        for r in range(8):
            d = convergence_diagnostic(params, SeedSpec(0, r), n_max=5, horizon=2.0)
            ratios.append(d.levels[-1].distance / d.levels[-2].distance)
        assert np.mean(ratios) < 0.75

    def test_zero_theta_calibrations_coincide(self):
        # at theta = 0 both calibrations return the same gradients, so the
        # reconstructed driver is exact at every level
        params = FouParams(theta=0.0, sigma=1.3, hurst=0.7)
        d = convergence_diagnostic(params, SeedSpec(2), delta0=0.5, n_max=3, horizon=2.0)
        for lv in d.levels:
            assert lv.mean_abs_gap < 1e-12
            assert lv.distance < 1e-10

    def test_explicit_p_honoured_and_validated(self):
        params = FouParams(theta=1.0, sigma=1.0, hurst=0.7)
        d = convergence_diagnostic(
            params, SeedSpec(3), delta0=0.5, n_max=2, horizon=1.0, p=3.0
        )
        assert d.p == 3.0
        for bad in (1.2, 3.5):
            with pytest.raises(ValueError, match="p must lie"):
                convergence_diagnostic(
                    params, SeedSpec(3), delta0=0.5, n_max=2, horizon=1.0, p=bad
                )

    def test_level_three_for_rough_driver(self):
        params = FouParams(theta=0.5, sigma=1.0, hurst=0.3)
        d = convergence_diagnostic(params, SeedSpec(4), delta0=0.5, n_max=2, horizon=1.0)
        assert d.level == 3
        assert 1.0 / 0.3 < d.p <= 4.0

    def test_parameter_validation(self):
        params = FouParams(theta=1.0, sigma=1.0, hurst=0.7)
        with pytest.raises(ValueError, match="delta0"):
            convergence_diagnostic(params, SeedSpec(0), delta0=0.0)
        with pytest.raises(ValueError, match="n_max"):
            convergence_diagnostic(params, SeedSpec(0), n_max=0)
        with pytest.raises(ValueError, match="whole number"):
            convergence_diagnostic(
                params, SeedSpec(0), delta0=0.5, n_max=2, horizon=1.3
            )

    def test_oversized_finest_level_rejected_before_sampling(self, monkeypatch):
        # cal.levels = 19: 4 194 305 nodes at the finest level, days of
        # p-variation work, refused before the 2^24-cell driver is drawn
        def never(*args, **kwargs):
            raise AssertionError("sampled before the size check")

        monkeypatch.setattr(calibration, "sample_fgn", never)
        params = FouParams(theta=1.0, sigma=1.0, hurst=0.7)
        with pytest.raises(ValueError, match="PVAR_CAP"):
            convergence_diagnostic(params, SeedSpec(0), n_max=19)
