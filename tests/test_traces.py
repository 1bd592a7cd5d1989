"""Shifted-Gram trace tests: the scan cell's traces and pair traces against
dense reconstructions of the Gram matrices and, above the dense range,
against prediction coefficients from an independent Toeplitz solver; the
exact identity-block and white-noise values, the cell's memory and work
bounds, the Wick moment identity re-derived through the double-window
quadratic-form formula, Monte Carlo agreement, and the scan's flagging
mechanics."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given
from hypothesis import strategies as st

from fraclab import SeedSpec, conjecture_scan, q_moment, unit_autocovariance
from fraclab.traces import PAIR_CAP, SAMPLE_CAP, SOLVE_CAP, _scan_cell, scan_report
from oracles import dense_gram


def dense_tables(hurst, size, k_max):
    """Tr(A_k) and Tr(A_k A_l), k, l = 0..k_max, from dense Gram matrices."""
    grams = [dense_gram(hurst, size, k) for k in range(k_max + 1)]
    traces = np.array([np.trace(g) for g in grams])
    pairs = np.array([[np.trace(a @ b) for b in grams] for a in grams])
    return traces, pairs


class TestShiftGram:
    @pytest.mark.parametrize("hurst", [0.3, 0.7])
    @pytest.mark.parametrize("shift", [0, 1, 5])
    def test_matches_dense_reconstruction(self, hurst, shift):
        cell = _scan_cell(hurst, 12, shift)
        traces, pairs = dense_tables(hurst, 12, shift)
        np.testing.assert_allclose(cell.traces, traces, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(cell.pair_traces, pairs, rtol=1e-9, atol=1e-12)

    @given(
        size=st.integers(2, 40),
        hurst=st.floats(0.02, 0.98),
        data=st.data(),
    )
    def test_cell_matches_dense_tables(self, size, hurst, data):
        k_max = data.draw(st.integers(0, size))
        cell = _scan_cell(hurst, size, k_max)
        traces, pairs = dense_tables(hurst, size, k_max)
        np.testing.assert_allclose(cell.traces, traces, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(cell.pair_traces, pairs, rtol=1e-9, atol=1e-10)

    @pytest.mark.parametrize("size", [8, 64, 256])
    @pytest.mark.parametrize("hurst", [0.3, 0.55, 0.7])
    def test_zero_shift_trace_is_size(self, size, hurst):
        cell = _scan_cell(hurst, size, 0)
        assert abs(cell.trace_zero - size) / size < 1e-12

    def test_white_noise_traces_vanish(self):
        # at hurst 1/2 the Gram matrices are pure shifts: all k >= 1 traces
        # and all off-diagonal pair traces are exactly zero
        cell = _scan_cell(0.5, 16, 4)
        assert np.all(np.abs(cell.traces[1:]) < 1e-10)
        off = ~np.eye(5, dtype=bool)
        assert np.all(np.abs(cell.pair_traces[off]) < 1e-10)
        assert cell.pair_traces[0, 0] == pytest.approx(16.0, rel=1e-12)

    def test_pair_trace_symmetric_and_explicit(self):
        cell = _scan_cell(0.7, 10, 4)
        np.testing.assert_array_equal(cell.pair_traces, cell.pair_traces.T)
        assert cell.pair_traces[2, 4] == pytest.approx(
            float(np.trace(dense_gram(0.7, 10, 2) @ dense_gram(0.7, 10, 4))),
            rel=1e-10,
        )

    def test_large_cell_matches_prediction_coefficients(self):
        # above the dense range: E[:, q] = Sigma^{-1} w_q from an independent
        # Levinson solver, and the traces in closed form over the identity
        # rows, with s = k + l and D_s(n) = sum_{p<n} E[N - s + p, p]:
        #   Tr(A_k)     = D_k(k)                       (k >= 1; Tr(A_0) = N)
        #   Tr(A_k A_l) = [k = l = 0] N + D_s(k) + D_s(l)
        #                 + Tr(E[N-l:, :k] E[N-k:, :l])
        hurst, size, k_max = 0.7, 4096, 16
        gamma = unit_autocovariance(hurst, np.arange(size + k_max))
        tail = gamma[size + np.arange(k_max)[None, :] - np.arange(size)[:, None]]
        e = sla.solve_toeplitz(gamma[:size], tail)

        def diag_sum(s, n):
            return sum(e[size - s + p, p] for p in range(n))

        traces = np.array([size] + [diag_sum(k, k) for k in range(1, k_max + 1)])
        pairs = np.array(
            [
                [
                    (size if k == l == 0 else 0.0)
                    + diag_sum(k + l, k)
                    + diag_sum(k + l, l)
                    + np.trace(e[size - l :, :k] @ e[size - k :, :l])
                    for l in range(k_max + 1)
                ]
                for k in range(k_max + 1)
            ]
        )
        cell = _scan_cell(hurst, size, k_max)
        np.testing.assert_allclose(cell.traces, traces, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(cell.pair_traces, pairs, rtol=1e-9, atol=1e-10)

    def test_peak_memory_bounded(self):
        # the solved block is (3 k_max + 1) x N doubles: no N x N array, and
        # the peak scales with k_max N
        for size, k_max in ((1024, 4), (4096, 4), (4096, 16)):
            _scan_cell(0.7, size, k_max)  # warm the generator cache
            tracemalloc.start()
            try:
                _scan_cell(0.7, size, k_max)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 8 * (3 * k_max + 1) * size

    def test_shift_validation(self):
        with pytest.raises(ValueError, match="k_max"):
            _scan_cell(0.7, 8, 9)

    def test_work_bounds_checked_before_solving(self):
        # by arithmetic: (w + k_max) N is just over SOLVE_CAP at N = 21400,
        # k_max = 16, and at N = k_max = 512 the block is within it while
        # the pair table's (k_max + 1)^2 w^2 is far above PAIR_CAP
        assert 49 * 21399 <= SOLVE_CAP < 49 * 21400
        assert 1024 * 512 <= SOLVE_CAP and (513 * 512) ** 2 > PAIR_CAP
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="N=21400, k_max=16.*SOLVE_CAP"):
                _scan_cell(0.7, 21400, 16)
            with pytest.raises(ValueError, match="N=512, k_max=512.*PAIR_CAP"):
                _scan_cell(0.7, 512, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e5


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

    @pytest.mark.parametrize("samples", [-5, 1])
    def test_sample_count_validation(self, samples):
        # one draw has no standard error; a negative count is meaningless
        with pytest.raises(ValueError, match="samples"):
            q_moment(0.7, 8, 1, 0, samples=samples)

    def test_sample_budget_checked_before_drawing(self):
        # criterion 14's 10^4 samples at N = 64 fit; one more row of 64 over
        # the budget is refused before any draw
        assert 10_000 * 64 <= SAMPLE_CAP < (SAMPLE_CAP // 64 + 1) * 64
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="SAMPLE_CAP"):
                q_moment(0.7, 64, 1, 0, samples=SAMPLE_CAP // 64 + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e5


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

    def test_largest_cell_checked_before_scanning(self, monkeypatch):
        # k_max = 1 caps N at SOLVE_CAP / 4; the N = 8 cell is never solved
        def solve_nothing(*args):
            raise AssertionError("a cell was solved before the bound check")

        monkeypatch.setattr("fraclab.traces._scan_cell", solve_nothing)
        size = SOLVE_CAP // 4 + 1
        with pytest.raises(ValueError, match=f"N={size}, k_max=1.*SOLVE_CAP"):
            conjecture_scan([0.7], [8, size], k_max=1)

    def test_above_old_dense_range(self):
        report = conjecture_scan([0.3, 0.7], [1024, 2048, 4096], k_max=16)
        assert report.ok
        for cell in report.cells:
            assert abs(cell.trace_zero - cell.size) / cell.size < 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            conjecture_scan([], [8])
        with pytest.raises(ValueError, match="non-empty"):
            conjecture_scan([0.7], [])
        with pytest.raises(ValueError, match="size"):
            conjecture_scan([0.7], [1])
        with pytest.raises(ValueError, match="growth_factor"):
            conjecture_scan([0.7], [8], growth_factor=0.0)

    @pytest.mark.parametrize("factor", [math.nan, math.inf, -1.0])
    def test_growth_factor_must_be_finite_and_positive(self, factor):
        # a NaN factor would make every growth comparison false and so
        # switch the boundedness check off
        with pytest.raises(ValueError, match="finite and positive"):
            conjecture_scan([0.7], [8, 16], k_max=4, growth_factor=factor)
        cells = conjecture_scan([0.7], [8, 16], k_max=4).cells
        with pytest.raises(ValueError, match="finite and positive"):
            scan_report(cells, factor)
