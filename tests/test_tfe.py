"""Trajectory-fitting tests: the closed-form averaged path, hand values and
minima of the fitting loss, noiseless and noisy drift recovery, agreement
with a golden-section search on the same grid, the root of L' to roundoff,
bounded memory, failure on unidentifiable data, and the strong-averaging
diagnostic."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fraclab import (
    NumericFailure,
    SamplingGrid,
    SeedSpec,
    TfeInstance,
    Trajectory,
    averaged_trajectory,
    sample_tfe_system,
    sup_node_error,
    tfe_estimate,
    tfe_loss,
)
from fraclab.optimize import golden_section_minimize
from oracles import tfe_slope_root


class TestAveragedTrajectory:
    def test_closed_form_values(self):
        grid = SamplingGrid(delta=0.5, count=4)
        traj = averaged_trajectory(2.0, 3.0, grid)
        np.testing.assert_allclose(
            traj.values, 3.0 * np.exp(-2.0 * np.array([0, 0.5, 1, 1.5, 2])), rtol=1e-14
        )

    def test_zero_theta_is_constant(self):
        grid = SamplingGrid(delta=0.5, count=4)
        np.testing.assert_array_equal(averaged_trajectory(0.0, -1.5, grid).values, -1.5)

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError, match="theta"):
            averaged_trajectory(-1.0, 1.0, SamplingGrid(delta=1.0, count=2))


class TestTfeLoss:
    def test_zero_at_generating_drift(self):
        grid = SamplingGrid(delta=0.25, count=8)
        data = averaged_trajectory(1.3, 2.0, grid)
        assert tfe_loss(1.3, data) == pytest.approx(0.0, abs=1e-28)
        assert tfe_loss(0.9, data) > 1e-4

    def test_hand_value(self):
        # one cell, x: 1 -> 0.5, fitted e^{-theta}: gap^2 at theta = 1
        grid = SamplingGrid(delta=1.0, count=1)
        data = Trajectory(grid, np.array([1.0, 0.5]))
        expected = (0.5 - np.exp(-1.0)) ** 2
        assert tfe_loss(1.0, data) == pytest.approx(expected, rel=1e-14)

    def test_initial_node_does_not_contribute(self):
        # the fit is anchored at the data's own start, so only later nodes
        # enter the sum
        grid = SamplingGrid(delta=1.0, count=2)
        data = Trajectory(grid, np.array([5.0, 0.0, 0.0]))
        assert tfe_loss(10.0, data) == pytest.approx(
            (5.0 * np.exp(-10.0)) ** 2 + (5.0 * np.exp(-20.0)) ** 2, rel=1e-12
        )

    def test_negative_theta_rejected(self):
        grid = SamplingGrid(delta=1.0, count=1)
        with pytest.raises(ValueError, match="theta"):
            tfe_loss(-0.5, Trajectory(grid, np.array([1.0, 0.5])))


class TestTfeEstimate:
    def test_noiseless_recovery(self):
        grid = SamplingGrid(delta=0.1, count=30)
        data = averaged_trajectory(1.7, 1.0, grid)
        instance = TfeInstance(theta=1.7, x0=1.0, bounds=(0.0, 10.0))
        assert abs(tfe_estimate(data, instance) - 1.7) < 1e-7

    def test_recovery_from_simulated_system(self):
        # small scale separation and weak noise: the estimate lands near the
        # generating drift
        grid = SamplingGrid(delta=0.1, count=30)
        sample = sample_tfe_system(1.0, 1e-6, 1e-4, 0.7, grid, SeedSpec(5))
        instance = TfeInstance(theta=1.0, x0=1.0, bounds=(0.0, 5.0))
        assert abs(tfe_estimate(sample.slow, instance) - 1.0) < 0.1

    def test_flat_loss_fails_loudly(self):
        # at x0 = 0 the fitted path is 0 at every drift, whatever the data
        grid = SamplingGrid(delta=0.1, count=10)
        instance = TfeInstance(theta=1.0, x0=0.0)
        for later in (np.zeros(10), np.linspace(0.5, -2.0, 10)):
            flat = Trajectory(grid, np.concatenate([[0.0], later]))
            with pytest.raises(NumericFailure, match=r"flat fitting loss.*x0=0\.0"):
                tfe_estimate(flat, instance)

    @given(
        theta=st.floats(0.05, 6.0),
        x0=st.floats(0.1, 5.0),
        sign=st.sampled_from([-1.0, 1.0]),
        noise=st.sampled_from([0.0, 1e-3, 0.1, 1.0]),
        count=st.integers(1, 300),
        lo=st.floats(-3.0, 2.0),
        width=st.floats(0.5, 20.0),
        seed=st.integers(0, 2**16),
    )
    def test_matches_golden_section_on_the_same_grid(
        self, theta, x0, sign, noise, count, lo, width, seed
    ):
        grid = SamplingGrid(delta=1.0 / count, count=count)
        clean = averaged_trajectory(theta, sign * x0, grid).values
        jitter = noise * np.random.default_rng(seed).standard_normal(count)
        data = Trajectory(grid, np.concatenate([clean[:1], clean[1:] + jitter]))
        hi = max(lo, 0.0) + width
        instance = TfeInstance(theta=theta, x0=sign * x0, bounds=(lo, hi))
        got = tfe_estimate(data, instance)
        ref, ref_loss = golden_section_minimize(
            lambda th: tfe_loss(th, data), max(lo, 0.0), hi
        )
        # golden section ranks loss values, so under its tol of 1e-8 it can
        # place the minimiser no closer than where L'' d^2 / 2 reaches the
        # loss's rounding error
        t, x = grid.nodes[1:], data.values[1:]
        fitted = data.values[0] * np.exp(-ref * t)
        curv = 2 * np.sum((t * fitted) ** 2 - t**2 * fitted * (x - fitted))
        blur = np.sqrt(32 * np.finfo(float).eps * ref_loss / abs(curv))
        assert max(lo, 0.0) <= got <= hi
        assert abs(got - ref) <= 1e-8 + blur
        assert tfe_loss(got, data) <= ref_loss * (1 + 1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_interior_minimum_is_the_root_of_the_slope(self, seed):
        # losses tie to within eps L over ~1e-8 of the minimiser, so the fit
        # must return the converged root of L', stable under a 1e-15 relative
        # perturbation of the data, not whichever iterate rounded lowest
        grid = SamplingGrid(delta=0.1, count=100)
        clean = averaged_trajectory(1.0, 1.0, grid).values
        rng = np.random.default_rng(seed)
        values = clean + np.concatenate([[0.0], 0.05 * rng.standard_normal(100)])
        instance = TfeInstance(theta=1.0, x0=1.0, bounds=(0.0, 5.0))
        got = tfe_estimate(Trajectory(grid, values), instance)
        assert abs(got - tfe_slope_root(Trajectory(grid, values), got)) <= 1e-12
        nudged = values * (1.0 + 1e-15 * rng.choice([-1.0, 1.0], values.size))
        assert abs(tfe_estimate(Trajectory(grid, nudged), instance) - got) <= 1e-12

    def test_rising_data_returns_the_lower_bound(self):
        # the loss is least at a negative drift, so the fit stops at 0
        grid = SamplingGrid(delta=0.05, count=40)
        data = Trajectory(grid, 0.8 * np.exp(0.3 * grid.nodes))
        for lo in (-2.0, 0.0):
            instance = TfeInstance(theta=1.0, x0=0.8, bounds=(lo, 5.0))
            assert tfe_estimate(data, instance) == 0.0
        instance = TfeInstance(theta=1.0, x0=0.8, bounds=(0.25, 5.0))
        assert tfe_estimate(data, instance) == 0.25

    def test_memory_is_linear_in_size(self):
        # a long trajectory: the grid losses are taken in row blocks, far
        # below the 64 n doubles of one unblocked grid
        n = 2**18
        grid = SamplingGrid(delta=1.0 / n, count=n)
        data = averaged_trajectory(1.3, 1.0, grid)
        instance = TfeInstance(theta=1.3, x0=1.0)
        tracemalloc.start()
        try:
            got = tfe_estimate(data, instance)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(got - 1.3) < 1e-9
        assert peak < 8 * n * 8

    def test_bounds_clamped_to_nonnegative(self):
        grid = SamplingGrid(delta=0.1, count=20)
        data = averaged_trajectory(0.5, 1.0, grid)
        instance = TfeInstance(theta=0.5, x0=1.0, bounds=(-3.0, 4.0))
        assert abs(tfe_estimate(data, instance) - 0.5) < 1e-6
        bad = TfeInstance(theta=0.5, x0=1.0, bounds=(-3.0, -1.0))
        with pytest.raises(ValueError, match="intersect"):
            tfe_estimate(data, bad)

    def test_instance_validation(self):
        with pytest.raises(ValueError, match="theta"):
            TfeInstance(theta=0.0, x0=1.0)
        with pytest.raises(ValueError, match="interval"):
            TfeInstance(theta=1.0, x0=1.0, bounds=(2.0, 2.0))
        with pytest.raises(ValueError, match="interval"):
            TfeInstance(theta=1.0, x0=1.0, bounds=(0.0, np.inf))


class TestSupNodeError:
    def test_matches_manual_maximum(self):
        grid = SamplingGrid(delta=0.1, count=15)
        sample = sample_tfe_system(1.2, 0.001, 0.01, 0.7, grid, SeedSpec(6), x0=0.8)
        manual = float(
            np.max(
                np.abs(
                    sample.slow.values - 0.8 * np.exp(-1.2 * grid.nodes)
                )
            )
        )
        assert sup_node_error(sample) == pytest.approx(manual, rel=1e-14)

    def test_shrinks_with_scale_separation(self):
        grid = SamplingGrid(delta=0.1, count=15)
        errs = [
            sup_node_error(
                sample_tfe_system(1.0, 0.0, eps, 0.7, grid, SeedSpec(7))
            )
            for eps in (1e-1, 1e-3, 1e-5)
        ]
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 0.01
