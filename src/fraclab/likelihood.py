"""Approximate log-likelihood of the discretely observed mean-reverting
model under fractional noise, its exact parameter scores, the small-step
expansion into leading and first-order terms, and the profile maximum
likelihood estimator.

Throughout, phi = (1 - e^{-theta delta})/(theta delta), the quasi-increment
is (D_theta x)_k = x_k - x_{k-1} e^{-theta delta}, Sigma is the fGn increment
covariance at the observation step, and

    ell(theta, sigma) = - (D_theta x)' Sigma^{-1} (D_theta x) / (2 sigma^2 phi^2)
                        - N log(sigma phi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import phi_ratio
from .fgn import FgnCovariance, _checked_covariance, _row_dots
from .grids import FouParams, Trajectory, _require_finite

__all__ = [
    "FouLikelihood",
    "ScoreVector",
    "ExpansionTerms",
    "ProfileMleResult",
    "log_likelihood",
    "score",
    "expansion_terms",
    "profile_mle",
]


def _phi_prime(u: float) -> float:
    """d/du of (1 - e^-u)/u.  Series below u = 1e-4 (the closed form loses
    half its digits to cancellation there), closed form above."""
    if u < 0:
        raise ValueError(f"u must be >= 0, got {u}")
    if u < 1e-4:
        return -0.5 + u / 3.0 - u * u / 8.0 + u**3 / 30.0
    em = math.exp(-u)
    return (em * (1.0 + u) - 1.0) / (u * u)


@dataclass(frozen=True)
class ScoreVector:
    """Derivatives of delta * ell at the evaluation point."""

    d_theta: float
    d_sigma: float


@dataclass(frozen=True)
class ExpansionTerms:
    """value = ell, and the expansion ell = ell0/delta + ell1 + residual."""

    value: float
    ell0: float
    ell1: float
    residual: float


@dataclass(frozen=True)
class ProfileMleResult:
    theta_hat: float
    sigma_hat: float
    sigma2_hat: float
    loglik: float


class FouLikelihood:
    """Likelihood context for one (hurst, grid) pair; every evaluation goes
    through one increment covariance.  Its Toeplitz generator is cached per
    (hurst, N), so contexts on the same (hurst, N) share it with no help from
    the caller; ``cov`` is only for a caller that already holds a covariance
    of this (hurst, grid)."""

    def __init__(self, hurst: float, grid, cov: FgnCovariance | None = None):
        if not 0.0 < hurst < 1.0:
            raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
        self.hurst = float(hurst)
        self.grid = grid
        self.cov = _checked_covariance(hurst, grid, cov)

    # -- helpers ---------------------------------------------------------

    def _values(self, trajectory: Trajectory) -> np.ndarray:
        if trajectory.grid != self.grid:
            raise ValueError("trajectory grid does not match the likelihood grid")
        return trajectory.values

    def _node_rows(self, values: np.ndarray) -> np.ndarray:
        """``values`` as floats if they are count + 1 finite node values, or a
        (rows, count + 1) block of them."""
        values = np.asarray(values, dtype=float)
        nodes = self.grid.count + 1
        if values.ndim not in (1, 2) or values.shape[-1] != nodes:
            raise ValueError(
                f"node values must have shape ({nodes},) or (rows, {nodes}), got {values.shape}"
            )
        _require_finite(values, "trajectory values")
        return values

    def _phi(self, theta: float, sigma: float = 1.0) -> float:
        """phi(theta delta) once theta and sigma are checked; ValueError
        unless sigma^2 phi^2 > 0, which every evaluation divides by (the
        profiled ones, with sigma = 1, by phi^2)."""
        if theta < 0 or not np.isfinite(theta):
            raise ValueError(f"theta must be >= 0, got {theta}")
        if sigma <= 0 or not np.isfinite(sigma):
            raise ValueError(f"sigma must be positive, got {sigma}")
        phi = phi_ratio(theta, self.grid.delta)
        if not sigma * sigma * phi * phi > 0:
            raise ValueError(
                f"sigma^2 phi^2 underflows to 0 at theta={theta}, sigma={sigma}, "
                f"delta={self.grid.delta}"
            )
        return phi

    def _quasi_increment(self, x: np.ndarray, theta: float) -> np.ndarray:
        decay = math.exp(-theta * self.grid.delta)
        return x[..., 1:] - decay * x[..., :-1]

    # -- evaluations -----------------------------------------------------
    #
    # Each ``*_rows`` method takes node values, count + 1 of them or a
    # (rows, count + 1) block, and gives a float per statistic or an array
    # of one per row.  The rows share each batched Toeplitz transform and
    # take their own contiguous dots, so row j equals, bit for bit, the call
    # on values[j], which is what the Trajectory methods make.

    def log_likelihood(self, trajectory: Trajectory, theta: float, sigma: float) -> float:
        return self.log_likelihood_rows(self._values(trajectory), theta, sigma)

    def log_likelihood_rows(self, values: np.ndarray, theta: float, sigma: float):
        """ell at (theta, sigma) of each row of node values."""
        phi = self._phi(theta, sigma)
        x = self._node_rows(values)
        n = self.grid.count
        quad = self.cov.quadratic_form(self._quasi_increment(x, theta))
        return -quad / (2.0 * sigma * sigma * phi * phi) - n * math.log(sigma * phi)

    def score(self, trajectory: Trajectory, theta: float, sigma: float) -> ScoreVector:
        """Exact derivatives of delta * ell in theta and sigma."""
        return ScoreVector(*self.score_rows(self._values(trajectory), theta, sigma))

    def score_rows(self, values: np.ndarray, theta: float, sigma: float):
        """(d_theta, d_sigma) of :meth:`score` for each row of node values."""
        phi = self._phi(theta, sigma)
        x = self._node_rows(values)
        n = self.grid.count
        delta = self.grid.delta
        horizon = self.grid.horizon
        u = theta * delta
        dphi_dtheta = delta * _phi_prime(u)
        decay = math.exp(-u)

        quasi = self._quasi_increment(x, theta)
        solved = self.cov.solve(quasi)
        quad = _row_dots(quasi, solved)
        # d/dtheta of the quasi-increment is delta * e^-u * (lagged values)
        cross = delta * decay * _row_dots(x[..., :-1], solved)

        sig2phi2 = sigma * sigma * phi * phi
        d_theta = (
            delta * dphi_dtheta * quad / (sig2phi2 * phi)
            - delta * n * dphi_dtheta / phi
            - delta * cross / sig2phi2
        )
        d_sigma = (horizon / sigma) * (quad / (n * sig2phi2) - 1.0)
        return d_theta, d_sigma

    def expansion_terms(
        self, trajectory: Trajectory, theta: float, sigma: float
    ) -> ExpansionTerms:
        """Split ell into its 1/delta leading term and the O(1) correction:

        ell0 = -(T / 2 sigma^2 N) dx' S dx - T log sigma
        ell1 = -(theta T / 2 sigma^2) [ dx'S dx/N + 2 dx'S xl/N
                                        + theta T xl'S xl/N^2 - sigma^2 ]

        with S = Sigma^{-1}, dx the plain increments and xl the lagged node
        values (x_0 .. x_{N-1}); residual = ell - ell0/delta - ell1 = O(delta).
        """
        return ExpansionTerms(*self.expansion_rows(self._values(trajectory), theta, sigma))

    def expansion_rows(self, values: np.ndarray, theta: float, sigma: float):
        """(value, ell0, ell1, residual) of :meth:`expansion_terms` for each
        row of node values."""
        value = self.log_likelihood_rows(values, theta, sigma)
        x = self._node_rows(values)
        n = self.grid.count
        horizon = self.grid.horizon
        sig2 = sigma * sigma

        dx = np.diff(x, axis=-1)
        lag = x[..., :-1]
        solved_dx = self.cov.solve(dx)
        a1 = _row_dots(dx, solved_dx)
        a2 = _row_dots(lag, solved_dx)
        a3 = self.cov.quadratic_form(lag)

        ell0 = -horizon * a1 / (2.0 * sig2 * n) - horizon * math.log(sigma)
        ell1 = (
            -theta
            * horizon
            / (2.0 * sig2)
            * (a1 / n + 2.0 * a2 / n + theta * horizon * a3 / (n * n) - sig2)
        )
        return value, ell0, ell1, value - ell0 / self.grid.delta - ell1

    def profile_sigma2(self, trajectory: Trajectory, theta: float) -> float:
        """sigma^2 maximising ell at fixed theta:
        (D_theta x)' Sigma^{-1} (D_theta x) / (N phi^2)."""
        phi = self._phi(theta)
        x = self._values(trajectory)
        quad = self.cov.quadratic_form(self._quasi_increment(x, theta))
        return quad / (self.grid.count * phi * phi)

    def profile_mle(
        self,
        trajectory: Trajectory,
        *,
        theta_bounds: tuple[float, float] = (0.0, 10.0),
    ) -> ProfileMleResult:
        """Joint MLE by profiling sigma out, in closed form.

        The profiled likelihood is -N/2 - (N/2) log(Q(theta)/N) with
        Q(theta) = (D_theta x)' Sigma^{-1} (D_theta x) = q_hh - 2 a q_hl + a^2 q_ll,
        a convex parabola in a = e^{-theta delta}, which falls as theta rises.
        Its minimiser a = q_hl/q_ll maps to theta = log(q_ll/q_hl)/delta,
        clipped to the bounds in theta so the estimate lies exactly in them;
        q_hl <= 0 puts the optimum at a <= 0, i.e. at the upper bound, and
        q_ll = 0 (zero lagged data) leaves Q flat, resolved to the lower bound.
        """
        lo, hi = map(float, theta_bounds)
        if lo < 0 or not hi > lo:
            raise ValueError(f"theta bounds must satisfy 0 <= lo < hi, got {theta_bounds}")
        x = self._values(trajectory)
        n = self.grid.count
        delta = self.grid.delta

        head = x[1:]
        lag = x[:-1]
        solved_head = self.cov.solve(head)
        q_hh = float(head @ solved_head)
        q_hl = float(lag @ solved_head)
        q_ll = self.cov.quadratic_form(lag)

        if q_ll <= 0.0:
            theta_hat = lo
        elif q_hl <= 0.0:
            theta_hat = hi
        else:
            theta_hat = min(max(math.log(q_ll / q_hl) / delta, lo), hi)
        a = math.exp(-theta_hat * delta)
        q_min = q_hh - 2.0 * a * q_hl + a * a * q_ll
        phi = phi_ratio(theta_hat, delta)
        # phi^2 underflows at a huge upper bound: the variance is then unbounded
        sigma2 = q_min / (n * phi * phi) if phi * phi > 0 else math.inf
        if not 0 < sigma2 < math.inf:  # also catches NaN from overflowing data
            raise ValueError("degenerate data: profiled variance is not positive and finite")
        sigma_hat = math.sqrt(sigma2)
        loglik = self.log_likelihood(trajectory, theta_hat, sigma_hat)
        return ProfileMleResult(
            theta_hat=theta_hat,
            sigma_hat=sigma_hat,
            sigma2_hat=sigma2,
            loglik=loglik,
        )


# -- functional wrappers -------------------------------------------------


def _context(trajectory: Trajectory, hurst: float, cov: FgnCovariance | None):
    return FouLikelihood(hurst, trajectory.grid, cov=cov)


def log_likelihood(
    trajectory: Trajectory, params: FouParams, *, cov: FgnCovariance | None = None
) -> float:
    return _context(trajectory, params.hurst, cov).log_likelihood(
        trajectory, params.theta, params.sigma
    )


def score(
    trajectory: Trajectory, params: FouParams, *, cov: FgnCovariance | None = None
) -> ScoreVector:
    return _context(trajectory, params.hurst, cov).score(
        trajectory, params.theta, params.sigma
    )


def expansion_terms(
    trajectory: Trajectory, params: FouParams, *, cov: FgnCovariance | None = None
) -> ExpansionTerms:
    return _context(trajectory, params.hurst, cov).expansion_terms(
        trajectory, params.theta, params.sigma
    )


def profile_mle(
    trajectory: Trajectory,
    hurst: float,
    *,
    theta_bounds: tuple[float, float] = (0.0, 10.0),
    cov: FgnCovariance | None = None,
) -> ProfileMleResult:
    return _context(trajectory, hurst, cov).profile_mle(
        trajectory, theta_bounds=theta_bounds
    )
