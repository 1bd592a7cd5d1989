"""Shifted-Gram trace tests: brute-force dense reconstruction of the Gram
matrices, the exact identity-block and white-noise values, the Wick moment
identity re-derived through the double-window quadratic-form formula, Monte
Carlo agreement, and the scan's flagging mechanics."""

import math

import numpy as np
import pytest
import scipy.linalg as sla

from fraclab import (
    FgnCovariance,
    SeedSpec,
    build_shift_gram,
    conjecture_scan,
    q_moment,
    shift_gram_stack,
    unit_autocovariance,
)
from fraclab.traces import cross_covariance_window
from oracles import dense_covariance


def dense_gram(hurst, size, shift):
    """G^{shift,0} from first principles with dense nested-loop matrices."""
    gamma = unit_autocovariance(hurst, np.arange(2 * size))
    sigma = np.empty((size, size))
    window = np.empty((size, size))
    for i in range(size):
        for j in range(size):
            sigma[i, j] = gamma[abs(i - j)]
            window[i, j] = gamma[abs(shift + i - j)]
    return np.linalg.solve(sigma, window)


class TestCrossCovarianceWindow:
    def test_zero_shift_is_increment_covariance(self):
        got = cross_covariance_window(0.7, 12, 0, 0)
        np.testing.assert_allclose(
            got, dense_covariance(FgnCovariance(0.7, 1.0, 12)), rtol=1e-14
        )

    def test_entries_from_scalar_formula(self):
        hurst, size, k, l = 0.3, 6, 3, 1
        gamma = unit_autocovariance(hurst, np.arange(2 * size))
        got = cross_covariance_window(hurst, size, k, l)
        for i in range(size):
            for j in range(size):
                assert got[i, j] == pytest.approx(
                    gamma[abs(k + i - l - j)], rel=1e-14
                )

    def test_shift_validation(self):
        with pytest.raises(ValueError, match="shifts"):
            cross_covariance_window(0.7, 8, 9, 0)
        with pytest.raises(ValueError, match="shifts"):
            cross_covariance_window(0.7, 8, 0, -1)


class TestShiftGram:
    @pytest.mark.parametrize("hurst", [0.3, 0.7])
    @pytest.mark.parametrize("shift", [0, 1, 5])
    def test_matches_dense_reconstruction(self, hurst, shift):
        g = build_shift_gram(hurst, 12, shift)
        np.testing.assert_allclose(
            g.matrix, dense_gram(hurst, 12, shift), rtol=1e-9, atol=1e-12
        )

    @pytest.mark.parametrize("size", [8, 64, 256])
    @pytest.mark.parametrize("hurst", [0.3, 0.55, 0.7])
    def test_zero_shift_trace_is_size(self, size, hurst):
        g = build_shift_gram(hurst, size, 0)
        assert abs(g.trace - size) / size < 1e-8

    def test_white_noise_traces_vanish(self):
        # at hurst 1/2 the Gram matrices are pure shifts: all k >= 1 traces
        # and all off-diagonal pair traces are exactly zero
        grams = [build_shift_gram(0.5, 16, k) for k in range(5)]
        for k in range(1, 5):
            assert abs(grams[k].trace) < 1e-10
            for l in range(k):
                assert abs(grams[k].pair_trace(grams[l])) < 1e-10
        assert grams[0].pair_trace(grams[0]) == pytest.approx(16.0, rel=1e-12)

    def test_pair_trace_symmetric_and_explicit(self):
        a = build_shift_gram(0.7, 10, 2)
        b = build_shift_gram(0.7, 10, 4)
        assert a.pair_trace(b) == pytest.approx(b.pair_trace(a), rel=1e-10)
        assert a.pair_trace(b) == pytest.approx(
            float(np.trace(a.matrix @ b.matrix)), rel=1e-10
        )

    def test_pair_trace_mismatch_rejected(self):
        a = build_shift_gram(0.7, 10, 2)
        b = build_shift_gram(0.7, 12, 2)
        with pytest.raises(ValueError, match="matching"):
            a.pair_trace(b)

    def test_stack_matches_individual_builds(self):
        stack = shift_gram_stack(0.7, 16, 4)
        assert stack.shape == (5, 16, 16)
        for k in range(5):
            np.testing.assert_allclose(
                stack[k], build_shift_gram(0.7, 16, k).matrix, rtol=1e-11, atol=1e-13
            )

    def test_shift_validation(self):
        with pytest.raises(ValueError, match="shift"):
            build_shift_gram(0.7, 8, 9)
        with pytest.raises(ValueError, match="k_max"):
            shift_gram_stack(0.7, 8, 9)


class TestQMoment:
    def test_unshifted_moment_is_chi_square(self):
        # k = l = 0: Q is a chi-square(N) variable, second moment N^2 + 2N
        for hurst in (0.3, 0.5, 0.7):
            r = q_moment(hurst, 16, 0, 0)
            assert r.analytic == pytest.approx(16.0**2 + 32.0, rel=1e-9)

    @pytest.mark.parametrize("hurst", [0.3, 0.7])
    @pytest.mark.parametrize("kl", [(1, 0), (3, 2), (5, 5)])
    def test_matches_double_window_wick_formula(self, hurst, kl):
        # independent re-derivation: write both quadratic forms against the
        # full double-length vector w ~ N(0, Sigma_2N) through selection
        # matrices, then apply the general Gaussian quadratic-form identity
        #   E[(w'Aw)(w'Bw)] = Tr(A S) Tr(B S) + Tr(A S (B + B') S)
        k, l = kl
        size = 10
        gamma = unit_autocovariance(hurst, np.arange(2 * size))
        big = sla.toeplitz(gamma)
        sinv = np.linalg.inv(big[:size, :size])

        def selector(shift):
            p = np.zeros((size, 2 * size))
            p[np.arange(size), shift + np.arange(size)] = 1.0
            return p

        a = selector(k).T @ sinv @ selector(0)
        b = selector(l).T @ sinv @ selector(0)
        expected = float(
            np.trace(a @ big) * np.trace(b @ big)
            + np.trace(a @ big @ (b + b.T) @ big)
        )
        assert q_moment(hurst, size, k, l).analytic == pytest.approx(
            expected, rel=1e-9
        )

    @pytest.mark.parametrize("hurst", [0.3, 0.7])
    def test_monte_carlo_agrees(self, hurst):
        for k, l in ((0, 0), (1, 0), (3, 2)):
            r = q_moment(hurst, 16, k, l, samples=4000, seed=SeedSpec(8))
            assert r.monte_carlo is not None and r.std_error is not None
            assert abs(r.monte_carlo - r.analytic) < 5.0 * r.std_error
            assert r.samples == 4000

    def test_no_sampling_by_default(self):
        r = q_moment(0.7, 8, 1, 0)
        assert r.monte_carlo is None
        assert r.std_error is None
        assert r.samples == 0

    def test_shift_validation(self):
        with pytest.raises(ValueError, match="shifts"):
            q_moment(0.7, 8, 9, 0)


class TestConjectureScan:
    def test_small_grid_passes(self):
        report = conjecture_scan([0.3, 0.7], [8, 16, 32], k_max=4)
        assert report.ok
        assert report.counterexamples == []
        assert len(report.cells) == 6
        for cell in report.cells:
            assert abs(cell.trace_zero - cell.size) / cell.size < 1e-6
            assert cell.traces.shape == (5,)
            assert cell.pair_traces.shape == (5, 5)

    def test_white_noise_row_is_exactly_flat(self):
        report = conjecture_scan([0.5], [8, 16], k_max=4)
        assert report.ok
        for cell in report.cells:
            assert cell.max_abs_trace < 1e-10
            assert cell.max_abs_pair_trace < 1e-10

    def test_tiny_growth_factor_flags(self):
        report = conjecture_scan([0.7], [8, 16], k_max=4, growth_factor=1e-6)
        assert not report.ok
        assert any("potential counterexample" in f for f in report.counterexamples)

    def test_sizes_deduplicated_and_sorted(self):
        report = conjecture_scan([0.7], [16, 8, 16], k_max=2)
        assert [c.size for c in report.cells] == [8, 16]

    def test_k_max_capped_by_size(self):
        report = conjecture_scan([0.7], [4], k_max=16)
        assert report.cells[0].traces.shape == (5,)

    def test_size_cap_enforced_and_overridable(self):
        with pytest.raises(ValueError, match="exceeds the scan cap"):
            conjecture_scan([0.7], [600], k_max=1)
        report = conjecture_scan([0.7], [514], k_max=1, max_size=600)
        assert report.cells[0].size == 514

    def test_input_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            conjecture_scan([], [8])
        with pytest.raises(ValueError, match="non-empty"):
            conjecture_scan([0.7], [])
        with pytest.raises(ValueError, match="size"):
            conjecture_scan([0.7], [1])
        with pytest.raises(ValueError, match="growth_factor"):
            conjecture_scan([0.7], [8], growth_factor=0.0)
