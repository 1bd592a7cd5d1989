"""Sampler tests: exact structural identities of the simulated chains plus
statistical covariance checks against the analytic autocovariance, with
fixed seeds so every tolerance is a deterministic margin."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
import scipy.fft
from scipy.fft import next_fast_len
from scipy.integrate import quad
from scipy.linalg import toeplitz
from scipy.signal import lfilter
from scipy.special import gamma as gamma_fn

from fraclab import (
    FouParams,
    MultiscaleParams,
    NumericFailure,
    SamplingGrid,
    SeedSpec,
    expected_bias_h_half,
    fgn_autocovariance,
    fou_autocovariance_expansion,
    sample_approximate_model,
    sample_fgn,
    sample_physical_fbm,
    sample_slow_component,
    sample_stationary_fou,
    sample_tfe_system,
    stationary_fou_variance,
    unit_autocovariance,
    unit_fou_autocovariance,
)
from fraclab import fgn, simulate
from fraclab.grids import STREAM_BROWNIAN, STREAM_DRIVER
from oracles import (
    ar1_mpmath,
    fou_autocovariance_hyp1f2,
    fou_autocovariance_ray_quadrature,
    fou_integral_hyp1f2,
    naive_circulant_fgn,
    physical_fbm_node_law,
    tfe_scheme_node_law,
)


def pooled_autocovariance(rows: np.ndarray, lag: int) -> float:
    """Mean of x_k x_{k+lag} over all positions and replicates (rows)."""
    if lag == 0:
        return float(np.mean(rows * rows))
    return float(np.mean(rows[:, :-lag] * rows[:, lag:]))


class TestDeterminism:
    def test_same_seed_reproduces(self):
        grid = SamplingGrid(delta=0.5, count=32)
        seed = SeedSpec(99)
        a = sample_fgn(0.7, grid, seed).values
        b = sample_fgn(0.7, grid, seed).values
        np.testing.assert_array_equal(a, b)

    def test_replicates_differ(self):
        grid = SamplingGrid(delta=0.5, count=32)
        a = sample_fgn(0.7, grid, SeedSpec(99, replicate=0)).values
        b = sample_fgn(0.7, grid, SeedSpec(99, replicate=1)).values
        assert np.max(np.abs(a - b)) > 1e-3

    def test_streams_differ(self):
        grid = SamplingGrid(delta=0.5, count=32)
        seed = SeedSpec(99)
        a = sample_fgn(0.7, grid, seed, stream=0).values
        b = sample_fgn(0.7, grid, seed, stream=1).values
        assert np.max(np.abs(a - b)) > 1e-3

    def test_fou_path_reproduces(self):
        grid = SamplingGrid(delta=0.25, count=16)
        seed = SeedSpec(7)
        a = sample_stationary_fou(1.5, 0.8, 0.7, grid, seed).values
        b = sample_stationary_fou(1.5, 0.8, 0.7, grid, seed).values
        np.testing.assert_array_equal(a, b)


class TestSampleFgn:
    @pytest.mark.parametrize("hurst", [0.3, 0.7])
    @pytest.mark.parametrize("count", [1, 2, 5, 7, 1025])
    def test_matches_naive_circulant_embedding(self, hurst, count):
        # the half-spectrum inverse real FFT gives the same realisation as
        # the full mirrored spectrum through a forward FFT; this pins the
        # draw order, the sign of the imaginary parts and the embedding
        # half-size m = next_fast_len(count): 7 pads to 8 and 1025 to 1080,
        # while the 5-smooth counts 1, 2 and 5 embed at m = count
        delta, seed = 0.2, SeedSpec(8)
        got = sample_fgn(hurst, SamplingGrid(delta=delta, count=count), seed).values
        expected = delta**hurst * naive_circulant_fgn(
            seed.rng(STREAM_DRIVER), hurst, count, next_fast_len(count, real=True)
        )
        np.testing.assert_allclose(
            got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max()
        )

    def test_only_smooth_fft_lengths(self, monkeypatch):
        # every transform the sampler runs has length 2 next_fast_len(n),
        # with no prime factor above 5 (2n = 2^7 3 2731 at n = 524352)
        lengths = []

        def recording(fft, length):
            def wrapped(a, n=None, *args, **kwargs):
                lengths.append(length(a) if n is None else n)
                return fft(a, n, *args, **kwargs)

            return wrapped

        monkeypatch.setattr(scipy.fft, "rfft", recording(scipy.fft.rfft, len))
        monkeypatch.setattr(
            scipy.fft, "irfft", recording(scipy.fft.irfft, lambda a: 2 * (len(a) - 1))
        )
        for count in (1, 7, 1025, 5551, 524352):
            simulate._circulant_roots.cache_clear()
            lengths.clear()
            sample_fgn(0.7, SamplingGrid(delta=1.0, count=count), SeedSpec(3))
            assert len(lengths) == 2
            for length in lengths:
                assert length == 2 * next_fast_len(count, real=True)
                for p in (2, 3, 5):
                    while length % p == 0:
                        length //= p
                assert length == 1, f"count {count}: prime factor above 5"

    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7])
    def test_batch_equals_successive_streams(self, hurst):
        # a generator listed once per row draws in row order, as successive
        # one-row calls would, and each row is transformed alone:
        # bit-identical streams and the same generator state after
        loop_rng, batch_rng = np.random.default_rng(8), np.random.default_rng(8)
        loop = np.stack(
            [simulate._unit_stream([loop_rng], hurst, 100)[0] for _ in range(300)]
        )
        batch = simulate._unit_stream([batch_rng] * 300, hurst, 100)
        np.testing.assert_array_equal(batch, loop)
        assert loop_rng.random() == batch_rng.random()

    @pytest.mark.parametrize(
        "hurst, law",
        [
            (0.5, 0.0),  # i.i.d. normals, no embedding
            (0.3, 0.0),
            (0.7, 0.0),
            (0.7, 2.5),  # the slow component's increments
            (0.7, 40.0),  # ... at an embedding grown past n
            (0.7, simulate._CellSum(0.9, 4)),
            (0.3, simulate._FastSlowPair(3.0)),
        ],
    )
    def test_rows_equal_single_generator_streams(self, hurst, law):
        # one row per generator, each drawn from its own generator and then
        # transformed with the others: row j is the stream of generator j alone
        n = 77
        rows = simulate._unit_stream(
            [np.random.default_rng(s) for s in range(6)], hurst, n, law
        )
        assert rows.shape[0] == 6
        for j, row in enumerate(rows):
            np.testing.assert_array_equal(
                row, simulate._unit_stream([np.random.default_rng(j)], hurst, n, law)[0]
            )

    def test_hurst_half_is_scaled_white_noise(self):
        # at H = 1/2 the increments are the raw normal stream times
        # sqrt(delta); pin the draw order, it is part of the contract
        grid = SamplingGrid(delta=0.25, count=50)
        seed = SeedSpec(11)
        x = sample_fgn(0.5, grid, seed).values
        expected = math.sqrt(0.25) * seed.rng(STREAM_DRIVER).standard_normal(50)
        np.testing.assert_array_equal(x, expected)

    def test_invalid_hurst_rejected(self):
        grid = SamplingGrid(delta=1.0, count=8)
        for h in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError, match="hurst"):
                sample_fgn(h, grid, SeedSpec(0))

    @pytest.mark.parametrize("hurst", [0.3, 0.7])
    def test_small_n_covariance(self, hurst):
        # short streams: pooled lag-0/1/2 moments across 3000 replicates of
        # length 64 against the analytic autocovariance.  Tolerances sit
        # near 5 standard errors of the pooled estimator.
        grid = SamplingGrid(delta=1.0, count=64)
        rows = np.stack(
            [sample_fgn(hurst, grid, SeedSpec(42, r)).values for r in range(3000)]
        )
        gamma = fgn_autocovariance(hurst, 1.0, 2)
        for lag in range(3):
            assert abs(pooled_autocovariance(rows, lag) - gamma[lag]) < 0.03

    @pytest.mark.parametrize("hurst", [0.3, 0.7])
    def test_padded_full_covariance(self, hurst):
        # n = 7 embeds at m = 8 and keeps the first 7 samples: the full 7x7
        # sample covariance of 20000 replicates against the Toeplitz matrix
        # of the analytic autocovariance, entrywise within 5 standard errors
        count, reps = 7, 20000
        grid = SamplingGrid(delta=1.0, count=count)
        rows = np.stack(
            [sample_fgn(hurst, grid, SeedSpec(71, r)).values for r in range(reps)]
        )
        sample_cov = rows.T @ rows / reps
        cov = toeplitz(fgn_autocovariance(hurst, 1.0, count - 1))
        var = np.diag(cov)
        stderr = np.sqrt((np.outer(var, var) + cov**2) / reps)
        assert np.all(np.abs(sample_cov - cov) < 5.0 * stderr)

    @pytest.mark.parametrize("hurst", [0.3, 0.7])
    def test_padded_small_n_covariance(self, hurst):
        # n = 67 embeds at m = 72: pooled lag-0/1/2 moments as in the
        # unpadded small-n test
        grid = SamplingGrid(delta=1.0, count=67)
        rows = np.stack(
            [sample_fgn(hurst, grid, SeedSpec(43, r)).values for r in range(3000)]
        )
        gamma = fgn_autocovariance(hurst, 1.0, 2)
        for lag in range(3):
            assert abs(pooled_autocovariance(rows, lag) - gamma[lag]) < 0.03

    @pytest.mark.parametrize("hurst", [0.3, 0.7])
    def test_large_n_covariance(self, hurst):
        # long streams: same pooled-moment comparison
        grid = SamplingGrid(delta=1.0, count=2000)
        rows = np.stack(
            [sample_fgn(hurst, grid, SeedSpec(17, r)).values for r in range(60)]
        )
        gamma = fgn_autocovariance(hurst, 1.0, 2)
        for lag in range(3):
            assert abs(pooled_autocovariance(rows, lag) - gamma[lag]) < 0.035

    def test_delta_scaling_between_branches(self):
        # increments at step delta have variance delta^(2H) times the unit
        # one whatever the stream length; quick pooled-variance version
        hurst, delta = 0.7, 0.01
        small = SamplingGrid(delta=delta, count=512)
        rows = np.stack(
            [sample_fgn(hurst, small, SeedSpec(5, r)).values for r in range(400)]
        )
        v = pooled_autocovariance(rows, 0)
        assert abs(v / delta ** (2 * hurst) - 1.0) < 0.05


class TestApproximateModel:
    def test_zero_theta_is_scaled_fractional_sum(self):
        # theta = 0: the chain is exactly sigma * cumulative fGn from 0,
        # on the same stream
        grid = SamplingGrid(delta=0.1, count=40)
        seed = SeedSpec(23)
        params = FouParams(theta=0.0, sigma=1.7, hurst=0.7)
        path = sample_approximate_model(params, grid, seed).values
        db = sample_fgn(0.7, grid, seed).values
        expected = np.concatenate([[0.0], 1.7 * np.cumsum(db)])
        np.testing.assert_allclose(path, expected, rtol=1e-13, atol=1e-15)

    def test_regression_identity_recovers_driver(self):
        # with an explicit start there is no burn-in, so inverting the
        # one-step regression must return the driving fGn exactly
        grid = SamplingGrid(delta=0.2, count=60)
        seed = SeedSpec(31)
        params = FouParams(theta=1.3, sigma=0.9, hurst=0.3)
        path = sample_approximate_model(params, grid, seed, initial=2.0).values
        assert path[0] == 2.0
        u = params.theta * grid.delta
        a = math.exp(-u)
        phi = -math.expm1(-u) / u
        recon = (path[1:] - a * path[:-1]) / (params.sigma * phi)
        db = sample_fgn(0.3, grid, seed).values
        np.testing.assert_allclose(recon, db, rtol=1e-10, atol=1e-13)

    def test_burn_in_reaches_stationarity(self):
        # with no explicit start the observed window should already be
        # stationary: compare Var(x_first) and Var(x_last) against the
        # closed-form stationary variance of the chain,
        #   sigma^2 phi^2 * sum_{i,j >= 0} a^(i+j) gamma(i - j),
        # truncated far past convergence (a = e^{-1} here)
        theta, sigma, hurst, delta = 2.0, 1.3, 0.7, 0.5
        u = theta * delta
        a = math.exp(-u)
        phi = -math.expm1(-u) / u
        k_max = 60
        gamma = fgn_autocovariance(hurst, delta, k_max - 1)
        idx = np.arange(k_max)
        weights = a ** (idx[:, None] + idx[None, :])
        var_stat = sigma**2 * phi**2 * float(
            np.sum(weights * gamma[np.abs(idx[:, None] - idx[None, :])])
        )

        grid = SamplingGrid(delta=delta, count=8)
        params = FouParams(theta=theta, sigma=sigma, hurst=hurst)
        rows = np.stack(
            [
                sample_approximate_model(params, grid, SeedSpec(67, r)).values
                for r in range(6000)
            ]
        )
        assert abs(np.mean(rows[:, 0])) < 5 * math.sqrt(var_stat / 6000)
        for col in (0, -1):
            v = float(np.mean(rows[:, col] ** 2))
            assert abs(v / var_stat - 1.0) < 0.10

    def test_burn_in_is_capped(self):
        # 19 / (theta delta) burn-in cells: refused above the cap before
        # anything is allocated, also when the count overflows; an explicit
        # start needs no burn-in
        grid = SamplingGrid(delta=0.01, count=10)
        cap = simulate._MAX_BURN_IN_CELLS
        for theta in (1e-9, 1e-300, 5e-324):  # theta * delta underflows to 0 at the last
            params = FouParams(theta=theta, sigma=1.0, hurst=0.7)
            with pytest.raises(ValueError, match=rf"cap of {cap}"):
                sample_approximate_model(params, grid, SeedSpec(0))
            path = sample_approximate_model(params, grid, SeedSpec(0), initial=0.5)
            assert np.all(np.isfinite(path.values))
        theta = 19.0 / (cap * grid.delta)
        path = sample_approximate_model(FouParams(theta, 1.0, 0.5), grid, SeedSpec(0))
        assert path.values.shape == (11,)

    @staticmethod
    def one_replicate_chain(params, grid, seed, stream, initial):
        """The chain as one replicate's fGn draw and 1-D recursion build it."""
        u = params.theta * grid.delta
        phi = 1.0 if u == 0.0 else -math.expm1(-u) / u
        burn = 0 if u == 0.0 or initial is not None else math.ceil(19.0 / u)
        extended = SamplingGrid(delta=grid.delta, count=burn + grid.count)
        db = sample_fgn(params.hurst, extended, seed, stream=stream).values
        x0 = 0.0 if initial is None else initial
        return simulate._ar1(math.exp(-u), x0, params.sigma * phi * db)[burn:]

    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("theta, initial", [(1.3, None), (0.0, None), (0.8, -0.4)])
    def test_paths_equal_one_replicate_at_a_time(self, hurst, theta, initial):
        # each row draws from its own seed (one listed twice draws the same
        # path) and equals the one-row sampler and the one-replicate chain
        # bit for bit, burn-in, theta = 0 and an explicit start alike
        params = FouParams(theta=theta, sigma=0.9, hurst=hurst)
        grid = SamplingGrid(delta=0.1, count=57)
        seeds = [SeedSpec(9, r) for r in (4, 0, 7, 4)]
        paths = simulate.sample_approximate_paths(params, grid, seeds, stream=5, initial=initial)
        assert paths.shape == (4, 58)
        for path, seed in zip(paths, seeds):
            one = sample_approximate_model(params, grid, seed, stream=5, initial=initial)
            np.testing.assert_array_equal(path, one.values)
            np.testing.assert_array_equal(
                path, self.one_replicate_chain(params, grid, seed, 5, initial)
            )


class TestAr1:
    """The first-order recursion every sampler and the forward map run."""

    @pytest.mark.parametrize("decay", [0.0, 5e-324, math.exp(-41.0), 0.5, 0.999, 1.0])
    @pytest.mark.parametrize("length", [1, 2, 1000, 10**5])
    def test_matches_lfilter(self, decay, length):
        # the doubling scan against the sequential filter, relative to the
        # path's running RMS: both round differently, neither loses digits
        rng = np.random.default_rng(length)
        start, drive = rng.standard_normal(), rng.standard_normal(length)
        got = simulate._ar1(decay, start, drive)
        want = lfilter([1.0], [1.0, -decay], np.concatenate(([start], drive)))
        assert got[0] == start
        running_rms = np.sqrt(np.cumsum(want**2) / np.arange(1, length + 2))
        assert np.max(np.abs(got - want) / running_rms) <= 1e-13
        if decay == 0.0:
            np.testing.assert_array_equal(got[1:], drive)

    @pytest.mark.parametrize("decay", [0.5, 0.999, 1.0])
    def test_scan_and_lfilter_match_mpmath(self, decay):
        # both within a few eps of the running RMS of the exact recursion
        rng = np.random.default_rng(17)
        start, drive = rng.standard_normal(), rng.standard_normal(2000)
        exact = ar1_mpmath(decay, start, drive)
        running_rms = np.sqrt(np.cumsum(exact**2) / np.arange(1, drive.size + 2))
        for got in (
            simulate._ar1(decay, start, drive),
            lfilter([1.0], [1.0, -decay], np.concatenate(([start], drive))),
        ):
            assert np.max(np.abs(got - exact) / running_rms) <= 32 * np.finfo(float).eps

    def test_empty_drive_is_the_start(self):
        np.testing.assert_array_equal(simulate._ar1(0.5, 2.5, np.empty(0)), [2.5])

    @pytest.mark.parametrize("decay", [0.0, 0.5, 0.999, 1.0])
    def test_rows_equal_one_row_scans(self, decay):
        # one scan along the last axis of a (rows, n) drive
        drive = np.random.default_rng(3).standard_normal((5, 333))
        got = simulate._ar1(decay, 0.25, drive)
        assert got.shape == (5, 334)
        for row, one in zip(got, drive):
            np.testing.assert_array_equal(row, simulate._ar1(decay, 0.25, one))


class TestStationaryFou:
    def test_brownian_case_moments(self):
        # at H = 1/2 the node values are a stationary AR(1) with
        # Var = beta^2/(2 lam) and lag-1 autocovariance Var * e^{-lam delta}
        lam, beta, delta, count = 1.2, 0.9, 0.25, 40
        grid = SamplingGrid(delta=delta, count=count)
        rows = np.stack(
            [
                sample_stationary_fou(lam, beta, 0.5, grid, SeedSpec(13, r)).values
                for r in range(1500)
            ]
        )
        var = beta**2 / (2 * lam)
        assert abs(pooled_autocovariance(rows, 0) / var - 1.0) < 0.08
        expected_lag1 = var * math.exp(-lam * delta)
        assert abs(pooled_autocovariance(rows, 1) - expected_lag1) < 0.08 * var

    def test_brownian_variance_formula(self):
        assert stationary_fou_variance(0.5, 2.0, 3.0) == pytest.approx(9.0 / 4.0)

    def test_variance_matches_formula(self):
        # H = 0.7 draws against the closed-form stationary variance
        # beta^2 lam^(-2H) H Gamma(2H)
        lam, beta, hurst, delta, count = 2.0, 1.1, 0.7, 0.25, 40
        grid = SamplingGrid(delta=delta, count=count)
        rows = np.stack(
            [
                sample_stationary_fou(lam, beta, hurst, grid, SeedSpec(29, r)).values
                for r in range(800)
            ]
        )
        target = stationary_fou_variance(hurst, lam, beta)
        assert target == pytest.approx(
            beta**2 * lam ** (-2 * hurst) * hurst * gamma_fn(2 * hurst)
        )
        assert abs(pooled_autocovariance(rows, 0) / target - 1.0) < 0.10

    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.95])
    def test_is_the_fast_component_of_the_pair(self, hurst):
        # eps = 1/lam and sigma = beta lam^-H, on the same draws
        lam, beta, grid, seed = 2.0, 1.1, SamplingGrid(delta=0.25, count=30), SeedSpec(5)
        path = sample_stationary_fou(lam, beta, hurst, grid, seed)
        params = MultiscaleParams(sigma=beta / lam**hurst, hurst=hurst, epsilon=1.0 / lam)
        pair = sample_physical_fbm(params, grid, seed)
        np.testing.assert_array_equal(path.values, pair.fast.values)

    def test_parameter_validation(self):
        grid = SamplingGrid(delta=0.5, count=8)
        seed = SeedSpec(0)
        with pytest.raises(ValueError, match="lam"):
            sample_stationary_fou(0.0, 1.0, 0.7, grid, seed)
        with pytest.raises(ValueError, match="beta"):
            sample_stationary_fou(1.0, -1.0, 0.7, grid, seed)
        with pytest.raises(ValueError, match="hurst"):
            sample_stationary_fou(1.0, 1.0, 1.0, grid, seed)
        # 1/(lam delta) overflows; beta lam^-H overflows
        with pytest.raises(ValueError, match="finite"):
            sample_stationary_fou(5e-324, 1.0, 0.7, grid, seed)
        with pytest.raises(ValueError, match="sigma=inf"):
            sample_stationary_fou(1e-300, 1e300, 0.9, grid, seed)


class TestPhysicalFbm:
    def test_reconstruction_identity(self):
        # slow = driver - eps^H (fast - fast_0) holds exactly at the nodes,
        # and the driver starts at zero
        params = MultiscaleParams(sigma=1.5, hurst=0.7, epsilon=0.01)
        grid = SamplingGrid(delta=0.05, count=20)
        s = sample_physical_fbm(params, grid, SeedSpec(41))
        assert s.driver.values[0] == 0.0
        expected = s.driver.values - 0.01**0.7 * (s.fast.values - s.fast.values[0])
        np.testing.assert_allclose(s.slow.values, expected, rtol=1e-12, atol=1e-14)

    def test_driver_increment_variance(self):
        # the driver is sigma times an exact fractional Brownian motion at
        # the nodes regardless of eps; check the increment variance
        params = MultiscaleParams(sigma=1.5, hurst=0.7, epsilon=0.01)
        grid = SamplingGrid(delta=0.05, count=20)
        incs = np.stack(
            [
                np.diff(sample_physical_fbm(params, grid, SeedSpec(59, r)).driver.values)
                for r in range(400)
            ]
        )
        target = params.sigma**2 * grid.delta ** (2 * params.hurst)
        assert abs(pooled_autocovariance(incs, 0) / target - 1.0) < 0.12

    def test_deviation_shrinks_with_eps(self):
        # sup |slow - driver| = eps^H sup |fast - fast_0| with an O(1) fast
        # component, so the deviation scales like eps^H
        grid = SamplingGrid(delta=0.05, count=20)
        sup = {}
        for eps in (1e-2, 1e-4):
            params = MultiscaleParams(sigma=1.5, hurst=0.7, epsilon=eps)
            s = sample_physical_fbm(params, grid, SeedSpec(43))
            sup[eps] = float(np.max(np.abs(s.slow.values - s.driver.values)))
            assert sup[eps] < 10.0 * eps**0.7
        assert sup[1e-4] < sup[1e-2]

    def test_tiny_epsilon_needs_no_sub_grid(self):
        # eps/delta = 1e-5: the law embeds at the count's own half-size, with
        # its fOU integral in the asymptotic branch (e^x overflows past
        # x = 709), and its node law is the oracle's
        params = MultiscaleParams(sigma=1.0, hurst=0.7, epsilon=1e-6)
        grid = SamplingGrid(delta=0.1, count=5)
        s = sample_physical_fbm(params, grid, SeedSpec(2))
        assert s.slow.values.shape == s.fast.values.shape == s.driver.values.shape == (6,)
        law = simulate._FastSlowPair(params.epsilon / grid.delta)
        assert simulate._embedding_half_size(0.7, law, 6) == 6
        _, cov = _physical_fbm_node_law(params, grid)
        want = physical_fbm_node_law(1.0, 0.7, 1e-6, 0.1, 5)
        assert np.max(np.abs(cov - want)) <= 1e-10 * np.max(np.abs(want))


class TestFouAutocovariance:
    # both branches of r: the closed form (0 < u < 40) and the asymptotic
    # expansion (u >= 40)
    LAGS = np.concatenate([np.geomspace(1e-8, 2.0, 12), np.linspace(2.1, 59.9, 28)])

    @pytest.mark.parametrize("hurst", [0.1, 0.3, 0.7, 0.9])
    def test_matches_hyp1f2(self, hurst):
        pytest.importorskip("mpmath")
        got = unit_fou_autocovariance(hurst, self.LAGS)
        expected = [fou_autocovariance_hyp1f2(hurst, u) for u in self.LAGS]
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "hurst", [1e-3, 0.45, 0.49, 0.499, 0.4999, 0.5001, 0.501, 0.51, 0.55, 0.999]
    )
    def test_error_bound(self, hurst):
        # the docstring's bound, 1e-12 |r| + 1e-14 r(0), on both branches:
        # relative away from H = 1/2, absolute near it, where r is small
        # against the closed form's cancelling halves (and H = 0.45 has r's
        # zero inside (2, 40))
        pytest.importorskip("mpmath")
        lags = np.concatenate([np.geomspace(1e-8, 2.0, 12), np.geomspace(2.05, 39.9, 30), [45.0]])
        got = unit_fou_autocovariance(hurst, lags)
        expected = np.array([fou_autocovariance_hyp1f2(hurst, u) for u in lags])
        bound = 1e-12 * np.abs(expected) + 1e-14 * stationary_fou_variance(hurst, 1.0, 1.0)
        assert np.all(np.abs(got - expected) <= bound)

    @pytest.mark.parametrize("hurst", [0.4999, 0.49999, 0.5001])
    def test_finite_next_to_half(self, hurst):
        # r ~ e^(-u)/2 there, tiny against the closed form's cancelling
        # halves, and must come out finite and without an exception
        lags = np.linspace(0.01, 39.99, 200)
        got = unit_fou_autocovariance(hurst, lags)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, 0.5 * np.exp(-lags), rtol=0.0, atol=1e-4)

    @pytest.mark.parametrize("hurst", [0.1, 0.3, 0.7, 0.9])
    def test_quadrature_meets_expansion_on_the_overlap(self, hurst):
        # past u = 40 the closed form, the expansion r uses there and the
        # spectral integral by quadrature agree to 1e-12
        lags = np.linspace(40.0, 60.0, 9)
        by_expansion = fou_autocovariance_expansion(hurst, 1.0, lags, None)
        by_quadrature = [fou_autocovariance_ray_quadrature(hurst, u) for u in lags]
        by_closed_form = fgn._fou_closed_form(hurst, lags)
        np.testing.assert_allclose(by_closed_form, by_expansion, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(by_quadrature, by_expansion, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(unit_fou_autocovariance(hurst, lags), by_expansion)

    def test_half_is_exponential(self):
        lags = np.linspace(0.0, 80.0, 161)
        np.testing.assert_array_equal(
            unit_fou_autocovariance(0.5, lags), 0.5 * np.exp(-lags)
        )

    @pytest.mark.parametrize("hurst", [0.02, 0.3, 0.7, 0.98])
    def test_lag_zero_is_the_stationary_variance(self, hurst):
        assert unit_fou_autocovariance(hurst, [0.0])[0] == stationary_fou_variance(
            hurst, 1.0, 1.0
        )

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            unit_fou_autocovariance(0.7, [1.0, -1.0])


class TestFouIntegral:
    # I(x) = int_0^x r: the incomplete-gamma form below x = 40, the
    # asymptotic tail shared with r from 40 on, summed until its terms stop
    # shrinking or changing the sum (e^x overflows from x = 710 on)
    LAGS = np.concatenate([np.geomspace(1e-3, 39.0, 12), [40.0, 60.0, 300.0, 709.0, 710.0, 1000.0]])

    @pytest.mark.parametrize("hurst", [0.1, 0.3, 0.7, 0.95])
    def test_matches_hyp1f2(self, hurst):
        pytest.importorskip("mpmath")
        got = fgn._unit_fou_integral(
            hurst, self.LAGS, unit_fou_autocovariance(hurst, self.LAGS)
        )
        expected = [fou_integral_hyp1f2(hurst, x) for x in self.LAGS]
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_half_is_closed_form(self):
        x = np.concatenate([np.linspace(0.0, 39.5, 80), [40.0, 800.0]])
        got = fgn._unit_fou_integral(0.5, x, 0.5 * np.exp(-x))
        np.testing.assert_allclose(got, -0.5 * np.expm1(-x), rtol=1e-13, atol=1e-16)


@pytest.fixture
def fresh_roots():
    simulate._circulant_roots.cache_clear()
    simulate._embedding_half_size.cache_clear()
    yield
    simulate._circulant_roots.cache_clear()
    simulate._embedding_half_size.cache_clear()


class TestSlowComponent:
    @pytest.mark.parametrize("hurst", [0.3, 0.7])
    @pytest.mark.parametrize("m", [1, 8, 1080])
    def test_ratio_zero_roots_are_fgn_roots(self, hurst, m, fresh_roots):
        # ratio 0 is plain fGn: the recipe the fGn sampler has always used,
        # bit for bit
        row = unit_autocovariance(hurst, np.arange(m + 1))
        lam = np.fft.rfft(np.concatenate([row, row[-2:0:-1]])).real / (2 * m)
        expected = np.sqrt(np.clip(lam, 0.0, None))
        np.testing.assert_array_equal(simulate._circulant_roots(hurst, 0.0, m), expected)

    def test_law_at_prototype_point(self):
        # H = 0.7, eps = 0.05, delta = 0.25: below fGn's 0.1436 at lag 0
        g = 0.25**1.4 * simulate._slow_unit_autocovariance(0.7, 0.2, 5)
        np.testing.assert_allclose(
            g, [0.12831, 0.05286, 0.02752, 0.02109, 0.01763, 0.01538], atol=6e-6
        )

    @pytest.mark.parametrize(
        "hurst, ratio, m", [(0.3, 0.2, 5), (0.5, 10.0, 1), (0.7, 2.0, 64), (0.95, 0.01, 8)]
    )
    def test_supplied_r_is_the_evaluated_one(self, hurst, ratio, m):
        # the pair law hands the slow row the r it has evaluated: the same
        # row, bit for bit, as the slow law evaluating r itself
        r = unit_fou_autocovariance(hurst, np.arange(m + 2) / ratio)
        np.testing.assert_array_equal(
            simulate._slow_unit_autocovariance(hurst, ratio, m, r),
            simulate._slow_unit_autocovariance(hurst, ratio, m),
        )

    @pytest.mark.parametrize("ratio", [0.1, 1.0, 10.0])
    def test_brownian_lag_zero_is_the_known_bias(self, ratio):
        # at H = 1/2, g(0) is the mean of sigma2_hat on the slow component,
        # 1 + r (e^{-1/r} - 1)
        g0 = simulate._slow_unit_autocovariance(0.5, ratio, 1)[0]
        assert g0 == pytest.approx(expected_bias_h_half(1.0, ratio, 1.0), rel=1e-14)

    @pytest.mark.parametrize("hurst, ratio", [(0.3, 0.2), (0.7, 2.0)])
    def test_lag_zero_is_the_integrated_fast_covariance(self, hurst, ratio):
        # Var(X_delta) = 2 eps^(2H-2) int_0^delta (delta - s) R_Y(s) ds with
        # R_Y(s) = sigma^2 r(s/eps): the variance of the time integral,
        # independent of the second-difference form g is built from
        pytest.importorskip("mpmath")
        eps = ratio  # delta = 1
        integral, _ = quad(
            lambda s: (1.0 - s) * fou_autocovariance_hyp1f2(hurst, s / eps),
            0.0, 1.0, epsabs=0.0, epsrel=1e-11, limit=200,
        )
        expected = 2.0 * eps ** (2 * hurst - 2) * integral
        g0 = simulate._slow_unit_autocovariance(hurst, ratio, 1)[0]
        assert g0 == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("hurst, eps", [(0.3, 0.05), (0.7, 0.5), (0.7, 2.5)])
    def test_padded_full_covariance(self, hurst, eps):
        # n = 7 embeds at m = 8, or at m = 64 at eps/delta = 10, where the
        # embedding at 8, 16 and 32 is not non-negative definite: the full
        # 7x7 sample covariance of the increments over 20000 replicates
        # against sigma^2 delta^(2H) g, entrywise within 5 standard errors
        count, reps, sigma, delta = 7, 20000, 1.3, 0.25
        params = MultiscaleParams(sigma=sigma, hurst=hurst, epsilon=eps)
        grid = SamplingGrid(delta=delta, count=count)
        rows = np.stack(
            [
                np.diff(sample_slow_component(params, grid, SeedSpec(73, r)).values)
                for r in range(reps)
            ]
        )
        sample_cov = rows.T @ rows / reps
        g = simulate._slow_unit_autocovariance(hurst, eps / delta, count - 1)
        cov = sigma**2 * delta ** (2 * hurst) * toeplitz(g)
        var = np.diag(cov)
        stderr = np.sqrt((np.outer(var, var) + cov**2) / reps)
        assert np.all(np.abs(sample_cov - cov) < 5.0 * stderr)

    def test_matches_physical_sampler(self):
        # the slow component of the pair sampler has this law exactly: its
        # node increments' covariance, read from its unit-normal responses,
        # is sigma^2 delta^(2H) g, which lies away from fGn's
        hurst, eps, delta, count = 0.7, 0.05, 0.25, 32
        params = MultiscaleParams(sigma=1.0, hurst=hurst, epsilon=eps)
        grid = SamplingGrid(delta=delta, count=count)
        _, cov = _sampler_node_law(
            lambda seed: np.diff(sample_physical_fbm(params, grid, seed).slow.values)
        )
        g = delta ** (2 * hurst) * simulate._slow_unit_autocovariance(hurst, eps / delta, count - 1)
        assert np.max(np.abs(cov - toeplitz(g))) <= 1e-12 * g[0]
        assert abs(fgn_autocovariance(hurst, delta, 0)[0] - g[0]) > 0.1 * g[0]

    def test_non_psd_embedding_raises(self, monkeypatch, fresh_roots):
        # an autocovariance no embedding size makes non-negative definite:
        # the doubling stops at its cap and names the size it reached
        params = MultiscaleParams(sigma=1.0, hurst=0.7, epsilon=0.05)
        grid = SamplingGrid(delta=0.25, count=8)
        sizes = []

        def indefinite(hurst, ratio, m):
            # circulant eigenvalues 1 + 1.8 cos(theta) reach -0.8
            sizes.append(m)
            return np.concatenate([[1.0, 0.9], np.zeros(m - 1)])

        monkeypatch.setattr(simulate, "_slow_unit_autocovariance", indefinite)
        cap = simulate._MAX_GROWN_HALF_SIZE
        with pytest.raises(NumericFailure, match=rf"H=0\.7, eps/delta=0\.2, m={cap}\)"):
            sample_slow_component(params, grid, SeedSpec(0))
        assert sizes == [8 * 2**k for k in range(14)]
        # from a length that is not a power of two the 5-smooth doubling
        # (108, 216, ..., 55 296) is clamped at the cap, never passing it
        sizes.clear()
        with pytest.raises(NumericFailure, match=rf"m={cap}\)"):
            sample_slow_component(params, SamplingGrid(delta=0.25, count=108), SeedSpec(0))
        assert sizes == [108 * 2**k for k in range(10)] + [cap]
        # a NaN autocovariance fails the same check instead of sampling NaN
        monkeypatch.setattr(
            simulate, "_slow_unit_autocovariance",
            lambda hurst, ratio, m: np.full(m + 1, np.nan),
        )
        with pytest.raises(NumericFailure, match=rf"m={cap}\)"):
            sample_slow_component(params, grid, SeedSpec(1))

    @pytest.mark.parametrize("hurst, eps", [(0.5, 0.01), (0.7, 0.05), (0.7, 10.0)])
    def test_paths_equal_one_seed_at_a_time(self, hurst, eps):
        params = MultiscaleParams(sigma=1.3, hurst=hurst, epsilon=eps)
        grid = SamplingGrid(delta=0.25, count=57)
        seeds = [SeedSpec(9, r) for r in (4, 0, 7)]
        paths = simulate.sample_slow_paths(params, grid, seeds, stream=3)
        assert paths.shape == (3, 58)
        for path, seed in zip(paths, seeds):
            np.testing.assert_array_equal(
                path, sample_slow_component(params, grid, seed, stream=3).values
            )

    def test_deterministic_in_inputs(self):
        params = MultiscaleParams(sigma=1.3, hurst=0.3, epsilon=0.01)
        grid = SamplingGrid(delta=0.05, count=40)
        a = sample_slow_component(params, grid, SeedSpec(5, 2))
        b = sample_slow_component(params, grid, SeedSpec(5, 2))
        np.testing.assert_array_equal(a.values, b.values)
        assert a.values[0] == 0.0 and a.grid == grid
        c = sample_slow_component(params, grid, SeedSpec(5, 3))
        d = sample_slow_component(params, grid, SeedSpec(5, 2), stream=3)
        assert np.max(np.abs(a.values - c.values)) > 1e-3
        assert np.max(np.abs(a.values - d.values)) > 1e-3


class TestTfeSystem:
    def test_shapes_and_initial_conditions(self):
        grid = SamplingGrid(delta=0.1, count=12)
        s = sample_tfe_system(
            1.0, 0.01, 0.05, 0.7, grid, SeedSpec(3), x0=0.4, y0=-1.2
        )
        assert s.slow.values.shape == (13,)
        assert s.fast.values.shape == (13,)
        assert s.slow.values[0] == 0.4
        assert s.fast.values[0] == -1.2
        assert (s.theta, s.eta, s.epsilon, s.hurst) == (1.0, 0.01, 0.05, 0.7)

    def test_deterministic_and_stream_separated(self):
        grid = SamplingGrid(delta=0.1, count=12)
        a = sample_tfe_system(1.0, 0.01, 0.05, 0.7, grid, SeedSpec(3))
        b = sample_tfe_system(1.0, 0.01, 0.05, 0.7, grid, SeedSpec(3))
        np.testing.assert_array_equal(a.slow.values, b.slow.values)
        c = sample_tfe_system(1.0, 0.01, 0.05, 0.7, grid, SeedSpec(3), stream=5)
        assert np.max(np.abs(a.slow.values - c.slow.values)) > 1e-6

    def test_noiseless_averaging_limit(self):
        # eta = 0 and fast eps: the slow line averages towards the
        # deterministic decay x0 e^{-theta t}, with O(sqrt(eps)) fluctuation
        grid = SamplingGrid(delta=0.05, count=20)
        target = np.exp(-1.0 * grid.nodes)
        err = {}
        for eps in (1e-2, 1e-4):
            s = sample_tfe_system(1.0, 0.0, eps, 0.7, grid, SeedSpec(19))
            err[eps] = float(np.max(np.abs(s.slow.values - target)))
        assert err[1e-2] < 0.5
        assert err[1e-4] < 0.05
        assert err[1e-4] < err[1e-2]

    def test_zero_eta_consumes_no_fractional_stream(self):
        # at eta = 0 the fractional stream is never drawn, so the slow line
        # is a deterministic functional of the fast one; adding noise with
        # the same seed perturbs it by exactly the accumulated noise terms
        grid = SamplingGrid(delta=0.1, count=10)
        base = sample_tfe_system(0.8, 0.0, 0.05, 0.7, grid, SeedSpec(23))
        noisy = sample_tfe_system(0.8, 1e-4, 0.05, 0.7, grid, SeedSpec(23))
        np.testing.assert_array_equal(base.fast.values, noisy.fast.values)
        assert np.max(np.abs(base.slow.values - noisy.slow.values)) > 0
        assert np.max(np.abs(base.slow.values - noisy.slow.values)) < 0.1

    def test_parameter_validation(self):
        grid = SamplingGrid(delta=0.1, count=8)
        seed = SeedSpec(0)
        with pytest.raises(ValueError, match="theta"):
            sample_tfe_system(-1.0, 0.01, 0.05, 0.7, grid, seed)
        with pytest.raises(ValueError, match="eta"):
            sample_tfe_system(1.0, -0.01, 0.05, 0.7, grid, seed)
        with pytest.raises(ValueError, match="epsilon"):
            sample_tfe_system(1.0, 0.01, 0.0, 0.7, grid, seed)
        for h in (0.5, 0.3, 1.0):
            with pytest.raises(ValueError, match="hurst"):
                sample_tfe_system(1.0, 0.01, 0.05, h, grid, seed)

    def test_cell_sum_embeds_at_default_legs(self, fresh_roots):
        # tfe-sweep's legs (delta = 0.01, 100 cells, refine 4, theta = 1):
        # the cell-sum law passes the floor check at the minimal half-size
        for eps in (1e-2, 1e-3, 1e-4, 1e-5):
            m = simulate._substeps_per_cell(1.0 / eps, 0.01, 4, None)
            th = 0.01 / m
            law = simulate._CellSum(1.0 - th + 0.5 * th * th, m)
            assert simulate._embedding_half_size(0.7, law, 100) == 100
        assert m == 4000

    def test_cell_sum_at_one_substep_is_fgn(self, fresh_roots):
        law = simulate._CellSum(0.9, 1)
        np.testing.assert_array_equal(
            simulate._circulant_roots(0.7, law, 64), simulate._circulant_roots(0.7, 0.0, 64)
        )

    def test_unembeddable_cell_sum_names_its_law(self, fresh_roots):
        # overflowing weights give a NaN autocovariance: the doubling stops
        # at its cap and the failure names the law
        law = simulate._CellSum(1e200, 4)
        cap = simulate._MAX_GROWN_HALF_SIZE
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericFailure, match=rf"substeps=4\), m={cap}\)"):
                simulate._unit_stream([np.random.default_rng(0)], 0.7, 8, law)

    def test_no_sub_grid_arrays(self):
        # eps = 1e-5 at delta = 0.1 takes 160 000 sub-steps per cell: once
        # the laws are cached, a draw allocates O(count), far below the
        # count * m doubles of a sub-grid
        grid = SamplingGrid(delta=0.1, count=10)
        sample_tfe_system(1.0, 0.01, 1e-5, 0.7, grid, SeedSpec(1))
        tracemalloc.start()
        try:
            sample_tfe_system(1.0, 0.01, 1e-5, 0.7, grid, SeedSpec(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 10 * 160_000 / 100

    def test_substep_count_is_capped(self):
        # a non-finite or oversized sub-grid is refused before any allocation
        with pytest.raises(ValueError, match="finite"):
            simulate._substeps_per_cell(math.inf, 0.01, 16, None)
        cap = simulate._MAX_SUBSTEPS
        assert cap >= 160_000
        with pytest.raises(ValueError, match=rf"cap of {cap}"):
            simulate._substeps_per_cell(1e9, 0.01, 16, None)
        assert simulate._substeps_per_cell(1e9, 0.01, 16, 1000) == 1000
        grid = SamplingGrid(delta=0.01, count=100)
        for eps in (1e-9, 5e-324):
            with pytest.raises(ValueError, match="sub-steps|finite"):
                sample_tfe_system(1.0, 0.01, eps, 0.7, grid, SeedSpec(0))


class _ProbeRng:
    """Stands in for a generator: every normal it hands out is 0, except the
    one at index ``unit`` of its sequence, which is 1."""

    def __init__(self, unit: int):
        self.unit, self.used = unit, 0

    def standard_normal(self, size=None):
        n = 1 if size is None else int(np.prod(size))
        out = np.zeros(n)
        if 0 <= self.unit - self.used < n:
            out[self.unit - self.used] = 1.0
        self.used += n
        return out[0] if size is None else out.reshape(size)


class _ProbeSeed:
    """A seed whose generators are probes: unit normal ``unit`` on ``stream``."""

    def __init__(self, stream: int = -1, unit: int = -1):
        self.stream, self.unit, self.rngs = stream, unit, {}

    def rng(self, stream: int) -> _ProbeRng:
        self.rngs[stream] = _ProbeRng(self.unit if stream == self.stream else -1)
        return self.rngs[stream]


def _sampler_node_law(nodes) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the vector ``nodes(seed)`` that a sampler
    draws: it is linear in its standard normals, so the mean is its value at
    zero normals and the covariance is J J' over the unit-normal responses."""
    counter = _ProbeSeed()
    mean = nodes(counter)
    cols = [
        nodes(_ProbeSeed(stream, i)) - mean
        for stream, rng in counter.rngs.items()
        for i in range(rng.used)
    ]
    jac = np.array(cols).T
    return mean, jac @ jac.T


class TestTfeNodeLaw:
    """The node draw against the sub-grid scheme it aggregates, stepped one
    sub-step at a time (``oracles.tfe_scheme_node_law``)."""

    @given(
        st.floats(0.0, 3.0),
        st.sampled_from([0.0, 1e-3, 0.1, 1.0]),
        st.floats(1e-3, 2.0),
        st.floats(0.51, 0.99),
        st.floats(0.01, 0.5),
        st.integers(1, 8),
        st.integers(1, 20),
        st.one_of(st.none(), st.floats(-2.0, 2.0)),
    )
    def test_matches_the_sub_grid_scheme(
        self, theta, eta, eps, hurst, delta, count, cap, y0
    ):
        grid = SamplingGrid(delta=delta, count=count)

        def nodes(seed):
            s = sample_tfe_system(
                theta, eta, eps, hurst, grid, seed, x0=0.7, y0=y0, refine=1, max_substeps=cap
            )
            return np.concatenate([s.slow.values, s.fast.values])

        mean, cov = _sampler_node_law(nodes)
        m = simulate._substeps_per_cell(1.0 / eps, delta, 1, cap)
        want_mean, want_cov = tfe_scheme_node_law(
            theta, eta, eps, hurst, delta, count, m, 0.7, y0
        )
        assert np.max(np.abs(cov - want_cov)) <= 1e-12 * np.max(np.abs(want_cov))
        assert np.max(np.abs(mean - want_mean)) <= 1e-12 * np.max(np.abs(want_mean))

    def test_eta_draws_one_value_per_cell(self):
        # the fast generator gives the start and two normals per cell; the
        # driver one circulant stream of the cell sums, at half-size count
        grid = SamplingGrid(delta=0.1, count=10)
        seed = _ProbeSeed()
        sample_tfe_system(1.0, 0.01, 1e-3, 0.7, grid, seed)
        assert seed.rngs[STREAM_BROWNIAN].used == 1 + 2 * 10
        assert seed.rngs[STREAM_DRIVER].used == 2 * 10


def _physical_fbm_node_law(params, grid) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of (Y_0..Y_n, sigma B_1..sigma B_n) as
    sample_physical_fbm draws them."""

    def nodes(seed):
        s = sample_physical_fbm(params, grid, seed)
        return np.concatenate([s.fast.values, s.driver.values[1:]])

    return _sampler_node_law(nodes)


def _clipping_bound(params, grid) -> np.ndarray:
    """Bound on how far clipping the pair embedding's negative eigenvalues
    moves each entry of the (Y, sigma B) node covariance: kappa a_i a_j.

    Per frequency the clipped part of the spectrum is D^(1/2) V diag(w-) V^H
    D^(1/2) with D the components' spectral maxima, so a unit-covariance
    entry of components (a, b) moves by at most s_a s_b kappa, kappa the
    clipped eigenvalue mass over the 2m frequencies and s = sqrt(diag D);
    a node's a_i sums |coefficient| * s over the unit values it is built
    from.  Zero when the embedding is non-negative definite."""
    sigma, hurst, eps = params.sigma, params.hurst, params.epsilon
    law = simulate._FastSlowPair(eps / grid.delta)
    m = simulate._embedding_half_size(hurst, law, grid.count + 1)
    spectrum = simulate._pair_unit_spectrum(hurst, law.ratio, m)
    s = np.sqrt(spectrum[:, [0, 1], [0, 1]].real.max(axis=0))
    w = np.linalg.eigvalsh(spectrum / (s[:, None] * s))
    mass = np.full(m + 1, 2.0)
    mass[[0, m]] = 1.0
    kappa = float(mass @ np.clip(-w, 0.0, None).sum(axis=1))
    k = np.arange(1, grid.count + 1)
    a = np.concatenate([
        np.full(grid.count + 1, sigma * s[0]),
        sigma * grid.delta**hurst * k * s[1] + 2.0 * sigma * eps**hurst * s[0],
    ])
    return kappa * np.outer(a, a)


class TestPhysicalFbmNodeLaw:
    """The pair sampler's node law against ``oracles.physical_fbm_node_law``:
    fast block from r, driver block fBm, cross block by quadrature (the
    closed Brownian pair at H = 1/2)."""

    @given(
        st.one_of(st.just(0.5), st.floats(0.3, 0.95)),
        st.floats(-1.0, 2.0),
        st.floats(0.01, 1.0),
        st.integers(1, 5),
    )
    @example(0.95, 1.5, 0.25, 5)  # an embedding with clipped eigenvalues
    def test_matches_the_oracle(self, hurst, log_ratio, delta, count):
        # exact up to the embedding's clipped negative eigenvalues, which
        # the floor admits at H >= 0.8 and eps/delta >= 30 (see
        # _clipping_bound); read with the driver's and the slow
        # increments' identities
        sigma, eps = 1.3, delta * 10.0**log_ratio
        params = MultiscaleParams(sigma=sigma, hurst=hurst, epsilon=eps)
        grid = SamplingGrid(delta=delta, count=count)
        mean, cov = _physical_fbm_node_law(params, grid)
        want = physical_fbm_node_law(sigma, hurst, eps, delta, count)
        slack = 1e-10 * np.max(np.abs(want)) + _clipping_bound(params, grid)
        assert not mean.any()
        assert np.all(np.abs(cov - want) <= slack)

        n = count
        driver = np.zeros((n, 2 * n + 1))  # sigma (B_k - B_(k-1))
        driver[:, n + 1 :] = np.eye(n) - np.eye(n, k=-1)
        slow = driver.copy()  # minus eps^H (Y_k - Y_(k-1))
        slow[:, : n + 1] = -(eps**hurst) * (np.eye(n, n + 1, k=1) - np.eye(n, n + 1))
        unit = sigma**2 * delta ** (2 * hurst)
        targets = (
            (driver, toeplitz(unit * unit_autocovariance(hurst, np.arange(n)))),
            (slow, toeplitz(unit * simulate._slow_unit_autocovariance(hurst, eps / delta, n - 1))),
        )
        for rows, target in targets:
            bound = np.abs(rows) @ slack @ np.abs(rows).T
            assert np.all(np.abs(rows @ cov @ rows.T - target) <= bound)

    @pytest.mark.parametrize("ratio", [0.1, 1.0, 10.0, 100.0])
    def test_brownian_pair_is_closed_form(self, ratio):
        sigma, delta, count = 0.9, 0.25, 6
        params = MultiscaleParams(sigma=sigma, hurst=0.5, epsilon=ratio * delta)
        _, cov = _physical_fbm_node_law(params, SamplingGrid(delta=delta, count=count))
        want = physical_fbm_node_law(sigma, 0.5, ratio * delta, delta, count)
        assert np.max(np.abs(cov - want)) <= 1e-12 * np.max(np.abs(want))

    def test_reach_at_a_hundred_cells(self, fresh_roots):
        # every (H, eps/delta) samples; its half-size is the slow law's
        # (100, or 200 and 800 and 400 and 3200 where that doubles) rounded
        # up to 5-smooth 108 at 101 pairs, or one doubling above it
        half_sizes = {
            (0.5, 1.0): 108, (0.5, 10.0): 108, (0.5, 100.0): 216,
            (0.7, 1.0): 108, (0.7, 10.0): 108, (0.7, 100.0): 864,
            (0.95, 1.0): 108, (0.95, 10.0): 864, (0.95, 100.0): 3456,
        }
        grid = SamplingGrid(delta=0.25, count=100)
        for (hurst, ratio), m in half_sizes.items():
            params = MultiscaleParams(sigma=1.0, hurst=hurst, epsilon=ratio * 0.25)
            s = sample_physical_fbm(params, grid, SeedSpec(0))
            assert np.all(np.isfinite(s.driver.values))
            law = simulate._FastSlowPair(ratio)
            assert simulate._embedding_half_size(hurst, law, 101) == m

    def test_draws_one_stream_of_pairs(self):
        # one generator, two rows of 2m normals for the n + 1 pairs
        seed = _ProbeSeed()
        params = MultiscaleParams(sigma=1.0, hurst=0.7, epsilon=0.25)
        sample_physical_fbm(params, SamplingGrid(delta=0.25, count=100), seed)
        assert list(seed.rngs) == [STREAM_DRIVER]
        assert seed.rngs[STREAM_DRIVER].used == 2 * 2 * 108

    def test_floor_is_per_component(self, monkeypatch, fresh_roots):
        # a dip of -1e-6 of the slow component's own scale fails, although
        # it is -1e-10 of the fast component's
        def spectrum(hurst, ratio, m):
            out = np.zeros((m + 1, 2, 2), dtype=complex)
            out[:, 0, 0], out[:, 1, 1] = 1.0, 1e-4
            out[1, 1, 1] = -1e-10
            return out

        monkeypatch.setattr(simulate, "_pair_unit_spectrum", spectrum)
        law = simulate._FastSlowPair(2.0)
        with pytest.raises(NumericFailure, match=r"fast/slow pair eps/delta=2\.0, m=8\)"):
            simulate._circulant_roots(0.7, law, 8)

    def test_unembeddable_pair_names_its_law(self, monkeypatch, fresh_roots):
        # a NaN spectrum fails the same check: the doubling stops at its cap
        monkeypatch.setattr(
            simulate, "_pair_unit_spectrum",
            lambda hurst, ratio, m: np.full((m + 1, 2, 2), np.nan, dtype=complex),
        )
        cap = simulate._MAX_GROWN_HALF_SIZE
        params = MultiscaleParams(sigma=1.0, hurst=0.7, epsilon=0.5)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericFailure, match=rf"pair eps/delta=2\.0, m={cap}\)"):
                sample_physical_fbm(params, SamplingGrid(delta=0.25, count=7), SeedSpec(0))
