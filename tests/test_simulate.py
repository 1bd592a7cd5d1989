"""Sampler tests: exact structural identities of the simulated chains plus
statistical covariance checks against the analytic autocovariance, with
fixed seeds so every tolerance is a deterministic margin."""

import math

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.linalg import toeplitz
from scipy.special import gamma as gamma_fn

from fraclab import (
    FouParams,
    MultiscaleParams,
    SamplingGrid,
    SeedSpec,
    fgn_autocovariance,
    sample_approximate_model,
    sample_fgn,
    sample_physical_fbm,
    sample_stationary_fou,
    sample_tfe_system,
    stationary_fou_variance,
)
from fraclab import simulate
from fraclab.grids import STREAM_BROWNIAN, STREAM_DRIVER
from oracles import naive_circulant_fgn


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

        monkeypatch.setattr(np.fft, "rfft", recording(np.fft.rfft, len))
        monkeypatch.setattr(
            np.fft, "irfft", recording(np.fft.irfft, lambda a: 2 * (len(a) - 1))
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


class TestStationaryFou:
    def test_brownian_case_moments(self):
        # H = 1/2 uses the exact per-cell bivariate-normal sampler: the node
        # values are a stationary AR(1) with Var = beta^2/(2 lam) and lag-1
        # autocovariance Var * e^{-lam delta}
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

    def test_refined_variance_matches_formula(self):
        # H = 0.7 refined recursion against the closed-form stationary
        # variance beta^2 lam^(-2H) H Gamma(2H); refine is high enough that the
        # kernel bias sits well inside the statistical tolerance
        lam, beta, hurst, delta, count = 2.0, 1.1, 0.7, 0.25, 40
        grid = SamplingGrid(delta=delta, count=count)
        rows = np.stack(
            [
                sample_stationary_fou(
                    lam, beta, hurst, grid, SeedSpec(29, r), refine=64
                ).values
                for r in range(800)
            ]
        )
        target = stationary_fou_variance(hurst, lam, beta)
        assert target == pytest.approx(
            beta**2 * lam ** (-2 * hurst) * hurst * gamma_fn(2 * hurst)
        )
        assert abs(pooled_autocovariance(rows, 0) / target - 1.0) < 0.10

    def test_refined_agrees_with_exact_at_half(self):
        # the generic refined path must reproduce the Brownian law the
        # exact sampler realises; compare pooled variances
        lam, beta, delta, count = 1.0, 1.0, 0.5, 20
        grid = SamplingGrid(delta=delta, count=count)
        var = beta**2 / (2 * lam)
        for method in ("exact", "refined"):
            rows = np.stack(
                [
                    sample_stationary_fou(
                        lam, beta, 0.5, grid, SeedSpec(37, r), method=method
                    ).values
                    for r in range(600)
                ]
            )
            assert abs(pooled_autocovariance(rows, 0) / var - 1.0) < 0.10

    def test_parameter_validation(self):
        grid = SamplingGrid(delta=0.5, count=8)
        seed = SeedSpec(0)
        with pytest.raises(ValueError, match="lam"):
            sample_stationary_fou(0.0, 1.0, 0.7, grid, seed)
        with pytest.raises(ValueError, match="beta"):
            sample_stationary_fou(1.0, -1.0, 0.7, grid, seed)
        with pytest.raises(ValueError, match="hurst"):
            sample_stationary_fou(1.0, 1.0, 1.0, grid, seed)
        with pytest.raises(ValueError, match="refine"):
            sample_stationary_fou(1.0, 1.0, 0.7, grid, seed, refine=0)
        with pytest.raises(ValueError, match="max_substeps"):
            sample_stationary_fou(1.0, 1.0, 0.7, grid, seed, max_substeps=0)
        with pytest.raises(ValueError, match="method"):
            sample_stationary_fou(1.0, 1.0, 0.7, grid, seed, method="euler")
        with pytest.raises(ValueError, match="exact"):
            sample_stationary_fou(1.0, 1.0, 0.7, grid, seed, method="exact")


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

    def test_max_substeps_cap(self):
        # the cap keeps the sub-grid bounded for tiny eps; shape contract only
        params = MultiscaleParams(sigma=1.0, hurst=0.7, epsilon=1e-6)
        grid = SamplingGrid(delta=0.1, count=5)
        s = sample_physical_fbm(params, grid, SeedSpec(2), max_substeps=8)
        assert s.slow.values.shape == (6,)
        assert s.fast.values.shape == (6,)
        assert s.driver.values.shape == (6,)


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
