"""Quasi-likelihood tests: a closed-form single-observation value, the exact
relation to the full Gaussian log density, finite-difference checks of the
analytic scores, the small-step expansion limits, and the profile estimator's
stationarity, optimality (also against a brute-force argmax of the profiled
likelihood), equivariance and recovery properties."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fraclab import (
    FgnCovariance,
    FouLikelihood,
    FouParams,
    SamplingGrid,
    SeedSpec,
    Trajectory,
    expansion_terms,
    log_likelihood,
    profile_mle,
    sample_approximate_model,
    score,
)
from oracles import central_difference, dense_covariance, gaussian_loglik


def make_path(seed: int, delta: float, count: int, hurst=0.7, theta=1.0, sigma=1.0):
    grid = SamplingGrid(delta=delta, count=count)
    params = FouParams(theta=theta, sigma=sigma, hurst=hurst)
    return grid, sample_approximate_model(params, grid, SeedSpec(seed))


class TestLogLikelihood:
    def test_single_observation_closed_form(self):
        # one unit step from 0 to 1 at theta=0, sigma=1: the quasi-increment
        # is standard normal up to the model constant, ell = -1/2
        grid = SamplingGrid(delta=1.0, count=1)
        traj = Trajectory(grid, np.array([0.0, 1.0]))
        for hurst in (0.3, 0.5, 0.7):
            params = FouParams(theta=0.0, sigma=1.0, hurst=hurst)
            assert log_likelihood(traj, params) == pytest.approx(-0.5, rel=1e-14)

    def test_matches_full_gaussian_density(self):
        # ell drops exactly the parameter-free terms of the full normal log
        # density of the quasi-increments: half the covariance log-det and
        # the 2-pi constant
        grid, traj = make_path(0, 0.1, 60)
        theta, sigma, hurst = 0.8, 1.3, 0.7
        params = FouParams(theta=theta, sigma=sigma, hurst=hurst)
        ell = log_likelihood(traj, params)

        u = theta * grid.delta
        phi = -math.expm1(-u) / u
        x = traj.values
        quasi = x[1:] - math.exp(-u) * x[:-1]
        sigma_mat = dense_covariance(FgnCovariance(hurst, grid.delta, grid.count))
        full = gaussian_loglik(quasi, sigma**2 * phi**2 * sigma_mat)
        _, logdet = np.linalg.slogdet(sigma_mat)
        expected = full + 0.5 * logdet + 0.5 * grid.count * math.log(2 * math.pi)
        assert ell == pytest.approx(expected, rel=1e-12)

    def test_prebuilt_cov_matches_and_validates(self):
        grid, traj = make_path(1, 0.2, 30)
        params = FouParams(theta=0.5, sigma=1.0, hurst=0.6)
        cov = FgnCovariance(0.6, 0.2, 30)
        assert log_likelihood(traj, params, cov=cov) == log_likelihood(traj, params)
        with pytest.raises(ValueError, match="does not match"):
            FouLikelihood(0.6, grid, cov=FgnCovariance(0.6, 0.2, 29))

    def test_contexts_share_the_generator_per_hurst_and_size(self):
        # no covariance passed: the cached generator is shared across steps
        a = FouLikelihood(0.6, SamplingGrid(delta=0.2, count=30))
        b = FouLikelihood(0.6, SamplingGrid(delta=0.05, count=30))
        assert a.cov is not b.cov
        assert a.cov.cholesky is b.cov.cholesky

    def test_parameter_validation(self):
        # the dataclass blocks bad parameters at the wrapper level, so the
        # direct context methods carry their own checks
        grid, traj = make_path(2, 0.2, 10)
        ctx = FouLikelihood(0.7, grid)
        with pytest.raises(ValueError, match="theta"):
            ctx.log_likelihood(traj, -0.1, 1.0)
        with pytest.raises(ValueError, match="sigma"):
            ctx.log_likelihood(traj, 1.0, 0.0)

    def test_grid_mismatch_rejected(self):
        grid, traj = make_path(3, 0.2, 10)
        other = SamplingGrid(delta=0.2, count=11)
        ctx = FouLikelihood(0.7, other)
        with pytest.raises(ValueError, match="grid"):
            ctx.log_likelihood(traj, 1.0, 1.0)


class TestScore:
    @pytest.mark.parametrize(
        "hurst,theta,sigma",
        [
            (0.3, 0.5, 1.0),
            (0.3, 2.0, 0.7),
            (0.5, 1.0, 1.0),
            (0.6, 0.0, 1.2),
            (0.7, 0.3, 0.9),
            (0.7, 1.5, 1.5),
            (0.8, 0.8, 2.0),
        ],
    )
    def test_matches_central_differences(self, hurst, theta, sigma):
        # the score holds the derivatives of delta * ell
        grid, traj = make_path(4, 0.1, 50, hurst=hurst)
        ctx = FouLikelihood(hurst, grid)
        s = ctx.score(traj, theta, sigma)

        def f_theta(t):
            return grid.delta * ctx.log_likelihood(traj, t, sigma)

        def f_sigma(sg):
            return grid.delta * ctx.log_likelihood(traj, theta, sg)

        if theta == 0.0:
            # second-order one-sided difference (negative theta is rejected)
            h = 1e-6
            fd_theta = (
                -3.0 * f_theta(0.0) + 4.0 * f_theta(h) - f_theta(2.0 * h)
            ) / (2.0 * h)
        else:
            fd_theta = central_difference(f_theta, theta, 1e-6)
        fd_sigma = central_difference(f_sigma, sigma, 1e-6)
        assert s.d_theta == pytest.approx(fd_theta, rel=2e-6, abs=1e-8)
        assert s.d_sigma == pytest.approx(fd_sigma, rel=2e-6, abs=1e-8)

    def test_sigma_score_vanishes_at_profiled_sigma(self):
        # sigma_hat(theta)^2 = Q/(N phi^2) makes the bracket in d_sigma
        # exactly zero
        grid, traj = make_path(5, 0.1, 40)
        ctx = FouLikelihood(0.7, grid)
        for theta in (0.0, 0.7, 2.0):
            sigma_hat = math.sqrt(ctx.profile_sigma2(traj, theta))
            s = ctx.score(traj, theta, sigma_hat)
            assert abs(s.d_sigma) < 1e-10


class TestExpansion:
    def test_zero_theta_collapses_to_leading_term(self):
        # every first-order term carries a factor theta
        grid, traj = make_path(6, 0.1, 40)
        terms = expansion_terms(traj, FouParams(theta=0.0, sigma=1.2, hurst=0.7))
        assert terms.ell1 == 0.0
        assert terms.value == pytest.approx(terms.ell0 / grid.delta, rel=1e-13)
        assert abs(terms.residual) < 1e-9 * abs(terms.value)

    def test_leading_term_is_theta_free(self):
        grid, traj = make_path(7, 0.1, 40)
        t1 = expansion_terms(traj, FouParams(theta=0.5, sigma=1.0, hurst=0.7))
        t2 = expansion_terms(traj, FouParams(theta=2.5, sigma=1.0, hurst=0.7))
        assert t1.ell0 == t2.ell0

    def test_residual_shrinks_with_step(self):
        # same horizon, finer observation: the left-over term is O(delta)
        means = []
        for delta, count in ((0.1, 20), (0.025, 80)):
            grid = SamplingGrid(delta=delta, count=count)
            params = FouParams(theta=1.0, sigma=1.0, hurst=0.7)
            cov = FgnCovariance(0.7, delta, count)
            res = [
                abs(
                    expansion_terms(
                        sample_approximate_model(params, grid, SeedSpec(8, r)),
                        params,
                        cov=cov,
                    ).residual
                )
                for r in range(30)
            ]
            means.append(np.mean(res))
        assert means[1] < means[0]


class TestProfileMle:
    def test_scores_vanish_at_optimum(self):
        grid, traj = make_path(9, 0.05, 200)
        ctx = FouLikelihood(0.7, grid)
        fit = ctx.profile_mle(traj)
        s = ctx.score(traj, fit.theta_hat, fit.sigma_hat)
        assert abs(s.d_sigma) < 1e-9
        assert abs(s.d_theta) < 1e-3
        assert fit.sigma_hat == pytest.approx(math.sqrt(fit.sigma2_hat), rel=1e-15)
        assert fit.loglik == pytest.approx(
            ctx.log_likelihood(traj, fit.theta_hat, fit.sigma_hat), rel=1e-15
        )

    def test_theta_score_vanishes_exactly(self):
        # the closed form lands on the interior stationary point itself,
        # not within a search tolerance of it
        for seed in range(9, 19):
            grid, traj = make_path(seed, 0.05, 200)
            ctx = FouLikelihood(0.7, grid)
            fit = ctx.profile_mle(traj)
            assert 0.0 < fit.theta_hat < 10.0
            assert abs(ctx.score(traj, fit.theta_hat, fit.sigma_hat).d_theta) < 1e-10

    def test_bounds_cutting_off_the_optimum_are_hit_exactly(self):
        grid, traj = make_path(9, 0.05, 200)
        ctx = FouLikelihood(0.7, grid)
        free = ctx.profile_mle(traj).theta_hat
        below = ctx.profile_mle(traj, theta_bounds=(0.0, 0.5 * free))
        above = ctx.profile_mle(traj, theta_bounds=(2.0 * free, 10.0))
        assert below.theta_hat == 0.5 * free
        assert above.theta_hat == 2.0 * free
        for fit in (below, above):
            assert fit.sigma2_hat == pytest.approx(
                ctx.profile_sigma2(traj, fit.theta_hat), rel=1e-12
            )

    def test_beats_parameter_grid(self):
        grid, traj = make_path(10, 0.05, 150)
        ctx = FouLikelihood(0.7, grid)
        fit = ctx.profile_mle(traj)
        for theta in np.linspace(0.0, 5.0, 21):
            for sigma in np.linspace(0.5, 2.0, 16):
                assert fit.loglik >= ctx.log_likelihood(traj, theta, sigma) - 1e-9

    @given(
        seed=st.integers(0, 2**32 - 1),
        hurst=st.floats(0.2, 0.9),
        theta=st.floats(0.0, 3.0),
        delta=st.floats(0.01, 0.2),
        count=st.integers(20, 200),
        hi=st.floats(0.5, 10.0),
    )
    def test_closed_form_matches_brute_force_argmax(
        self, seed, hurst, theta, delta, count, hi
    ):
        # the profiled likelihood on a dense theta grid, sigma^2 profiled
        # point by point: the closed form is at least its best value and
        # lies within one grid step of its argmax (the profile is unimodal)
        grid = SamplingGrid(delta=delta, count=count)
        params = FouParams(theta=theta, sigma=1.0, hurst=hurst)
        traj = sample_approximate_model(params, grid, SeedSpec(seed), initial=0.0)
        ctx = FouLikelihood(hurst, grid)
        fit = ctx.profile_mle(traj, theta_bounds=(0.0, hi))
        thetas = np.linspace(0.0, hi, 1001)
        profile = [
            ctx.log_likelihood(traj, th, math.sqrt(ctx.profile_sigma2(traj, th)))
            for th in thetas
        ]
        best = int(np.argmax(profile))
        assert fit.loglik >= profile[best] - 1e-12 * abs(profile[best])
        assert abs(fit.theta_hat - thetas[best]) <= thetas[1]

    def test_scale_equivariance(self):
        # doubling the data doubles sigma_hat and leaves theta_hat alone
        grid, traj = make_path(11, 0.05, 150)
        doubled = Trajectory(grid, 2.0 * traj.values)
        a = profile_mle(traj, 0.7)
        b = profile_mle(doubled, 0.7)
        assert b.theta_hat == a.theta_hat
        assert b.sigma_hat == pytest.approx(2.0 * a.sigma_hat, rel=1e-12)

    def test_recovers_truth_in_simulation(self):
        # 200 replicates at T=20, delta=0.05: the estimator mean sits within
        # three standard errors of the true parameters
        grid = SamplingGrid(delta=0.05, count=400)
        params = FouParams(theta=1.0, sigma=1.0, hurst=0.7)
        cov = FgnCovariance(0.7, 0.05, 400)
        theta_hats, sigma_hats = [], []
        for r in range(200):
            traj = sample_approximate_model(params, grid, SeedSpec(12, r))
            fit = profile_mle(traj, 0.7, cov=cov)
            theta_hats.append(fit.theta_hat)
            sigma_hats.append(fit.sigma_hat)
        for values, truth in ((theta_hats, 1.0), (sigma_hats, 1.0)):
            se = np.std(values, ddof=1) / math.sqrt(len(values))
            assert abs(np.mean(values) - truth) < 3.0 * se + 0.02

    def test_degenerate_data_rejected(self):
        grid = SamplingGrid(delta=0.1, count=20)
        flat = Trajectory(grid, np.zeros(21))
        with pytest.raises(ValueError, match="degenerate"):
            profile_mle(flat, 0.7)
        # quadratic forms overflowing to inf/NaN must not yield a NaN fit
        huge = Trajectory(grid, 1e200 * np.arange(21.0))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="degenerate"):
                profile_mle(huge, 0.7)

    def test_bounds_validation(self):
        grid, traj = make_path(13, 0.1, 20)
        with pytest.raises(ValueError, match="bounds"):
            profile_mle(traj, 0.7, theta_bounds=(-1.0, 2.0))
        with pytest.raises(ValueError, match="bounds"):
            profile_mle(traj, 0.7, theta_bounds=(2.0, 2.0))

    def test_boundary_solution_at_zero_theta(self):
        # driftless data pushes the estimate to the lower bound region
        grid = SamplingGrid(delta=0.1, count=100)
        params = FouParams(theta=0.0, sigma=1.0, hurst=0.7)
        traj = sample_approximate_model(params, grid, SeedSpec(14), initial=0.0)
        fit = profile_mle(traj, 0.7, theta_bounds=(0.0, 5.0))
        assert fit.theta_hat < 1.0


class TestFunctionalWrappers:
    def test_wrappers_match_context_methods(self):
        grid, traj = make_path(15, 0.1, 30)
        params = FouParams(theta=0.9, sigma=1.1, hurst=0.7)
        ctx = FouLikelihood(0.7, grid)
        assert log_likelihood(traj, params) == ctx.log_likelihood(traj, 0.9, 1.1)
        s1, s2 = score(traj, params), ctx.score(traj, 0.9, 1.1)
        assert (s1.d_theta, s1.d_sigma) == (s2.d_theta, s2.d_sigma)
        e1, e2 = expansion_terms(traj, params), ctx.expansion_terms(traj, 0.9, 1.1)
        assert (e1.value, e1.ell0, e1.ell1) == (e2.value, e2.ell0, e2.ell1)
        f1, f2 = profile_mle(traj, 0.7), ctx.profile_mle(traj)
        assert (f1.theta_hat, f1.sigma_hat) == (f2.theta_hat, f2.sigma_hat)
