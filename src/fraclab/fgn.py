"""Autocovariance of fractional Gaussian noise and the Toeplitz machinery
built on it: covariance matrices, Cholesky-based quadratic forms, inverse
spectral norms, and the power-law expansion of the stationary
Ornstein-Uhlenbeck autocovariance under fractional driving.

The increment autocovariance at step delta and lag k is

    gamma(k) = 0.5 * delta^(2H) * (|k+1|^(2H) - 2|k|^(2H) + |k-1|^(2H)),

so gamma(0) = delta^(2H) and, for H = 1/2, gamma(k) = 0 for every k >= 1
(the covariance matrix is exactly delta * I).
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh
from scipy.special import gamma as gamma_fn

from .grids import NumericFailure

__all__ = [
    "fgn_autocovariance",
    "unit_autocovariance",
    "FgnCovariance",
    "fou_autocovariance_expansion",
    "stationary_fou_variance",
]

# Beyond this lag the direct second difference of k^(2H) has lost about half
# its digits in float64; a two-term binomial series in 1/k^2 is exact to
# machine precision there.
_SERIES_LAG = 10_000


def unit_autocovariance(hurst: float, lags: np.ndarray) -> np.ndarray:
    """gamma(k) at unit step for the given (non-negative, integer) lags."""
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    k = np.asarray(lags, dtype=float)
    if k.size and k.min() < 0:
        raise ValueError("lags must be non-negative")
    a = 2.0 * hurst
    out = np.empty_like(k)

    small = k < _SERIES_LAG
    ks = k[small]
    out[small] = 0.5 * (
        np.abs(ks + 1.0) ** a - 2.0 * np.abs(ks) ** a + np.abs(ks - 1.0) ** a
    )

    if not small.all():
        kl = k[~small]
        c2 = a * (a - 1.0) / 2.0
        c4 = a * (a - 1.0) * (a - 2.0) * (a - 3.0) / 24.0
        out[~small] = kl ** (a - 2.0) * (c2 + c4 / (kl * kl))

    # exact zero at k >= 1 for H = 1/2 (cancellation is exact in float too,
    # but make the contract explicit)
    if hurst == 0.5:
        out[k >= 1.0] = 0.0
    return out


def fgn_autocovariance(hurst: float, delta: float, max_lag: int) -> np.ndarray:
    """Autocovariance vector gamma(0..max_lag) at step delta.

    Scales the unit-step values by delta^(2H), so the self-similarity
    identity Sigma_{delta,N} = delta^(2H) * Sigma_{1,N} holds exactly,
    entry by entry, in floating point.
    """
    if not (delta > 0 and np.isfinite(delta)):
        raise ValueError(f"delta must be positive, got {delta}")
    if max_lag < 0:
        raise ValueError(f"max_lag must be >= 0, got {max_lag}")
    unit = unit_autocovariance(hurst, np.arange(max_lag + 1))
    return delta ** (2.0 * hurst) * unit


class FgnCovariance:
    """Toeplitz covariance of N consecutive fGn increments at step delta.

    Factorisations are cached: the lower Cholesky factor is computed once on
    first use and reused by every quadratic form / solve.  The inverse matrix
    is never formed.
    """

    def __init__(self, hurst: float, delta: float, size: int):
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        self.hurst = float(hurst)
        self.delta = float(delta)
        self.size = int(size)
        self.first_row = fgn_autocovariance(hurst, delta, size - 1)
        self._matrix: np.ndarray | None = None
        self._chol: np.ndarray | None = None

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = sla.toeplitz(self.first_row)
        return self._matrix

    @property
    def cholesky(self) -> np.ndarray:
        """Lower-triangular L with L L^T = Sigma."""
        if self._chol is None:
            try:
                self._chol = sla.cholesky(self.matrix, lower=True)
            except sla.LinAlgError as exc:
                raise NumericFailure(
                    f"fGn covariance (H={self.hurst}, delta={self.delta}, "
                    f"N={self.size}) is not numerically positive definite: {exc}"
                ) from exc
        return self._chol

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Sigma^{-1} rhs via two triangular solves (rhs may be a matrix)."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.size:
            raise ValueError(
                f"rhs has leading dimension {rhs.shape[0]}, expected {self.size}"
            )
        low = self.cholesky
        tmp = sla.solve_triangular(low, rhs, lower=True)
        return sla.solve_triangular(low, tmp, lower=True, trans="T")

    def quadratic_form(self, u: np.ndarray, v: np.ndarray | None = None) -> float:
        """u^T Sigma^{-1} v (v defaults to u), via triangular solves only."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.size,):
            raise ValueError(f"u must have shape ({self.size},), got {u.shape}")
        low = self.cholesky
        a = sla.solve_triangular(low, u, lower=True)
        if v is None:
            return float(a @ a)
        v = np.asarray(v, dtype=float)
        if v.shape != (self.size,):
            raise ValueError(f"v must have shape ({self.size},), got {v.shape}")
        b = sla.solve_triangular(low, v, lower=True)
        return float(a @ b)

    def inverse_spectral_norm(self, tol: float = 1e-10, max_iter: int = 20_000) -> float:
        """||Sigma^{-1}||_2 = 1 / lambda_min(Sigma).

        Dense symmetric eigensolve up to size 2048; beyond that, Lanczos
        iteration on Sigma^{-1} through the cached factorisation (the
        bottom of the Toeplitz spectrum clusters, so plain power iteration
        would stall).
        """
        if self.size <= 2048:
            lam_min = sla.eigvalsh(
                self.matrix, subset_by_index=[0, 0], driver="evr"
            )[0]
            if lam_min <= 0:
                raise NumericFailure(
                    f"minimum eigenvalue {lam_min} is not positive "
                    f"(H={self.hurst}, delta={self.delta}, N={self.size})"
                )
            return 1.0 / lam_min
        op = LinearOperator(
            (self.size, self.size), matvec=self.solve, dtype=float
        )
        rng = np.random.default_rng(0)
        try:
            vals = eigsh(
                op,
                k=1,
                which="LM",
                tol=tol,
                maxiter=max_iter,
                v0=rng.standard_normal(self.size),
                # the extremes of the Toeplitz spectrum cluster, so restarted
                # Lanczos needs a generous subspace to converge
                ncv=min(self.size, 128),
                return_eigenvectors=False,
            )
        except ArpackNoConvergence as exc:
            raise NumericFailure(
                f"Lanczos iteration on the inverse covariance did not "
                f"converge to {tol} within {max_iter} restarts "
                f"(N={self.size}): {exc}"
            ) from exc
        mu = float(vals[0])
        if mu <= 0:
            raise NumericFailure(
                f"computed inverse spectral norm {mu} is not positive "
                f"(H={self.hurst}, delta={self.delta}, N={self.size})"
            )
        return mu


def fou_autocovariance_expansion(
    hurst: float, sigma: float, lag_over_eps: float, terms: int
) -> float:
    """Power-law tail of the stationary covariance E[Y_t Y_{t+s}] of the
    fast component, as a partial sum:

        0.5 * sigma^2 * sum_{n=1..terms} (prod_{k=0}^{2n-1} (2H-k)) * (s/eps)^(2H-2n)

    Valid for H != 1/2 (at H = 1/2 the covariance decays exponentially and
    every polynomial coefficient vanishes); s/eps should be large - the series
    is asymptotic, not convergent.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    if hurst == 0.5:
        raise ValueError("the power-law expansion is undefined at hurst = 0.5")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if lag_over_eps <= 0:
        raise ValueError(f"lag_over_eps must be positive, got {lag_over_eps}")
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    a = 2.0 * hurst
    total = 0.0
    coeff = 1.0
    for n in range(1, terms + 1):
        coeff *= (a - (2 * n - 2)) * (a - (2 * n - 1))
        total += coeff * lag_over_eps ** (a - 2 * n)
    return 0.5 * sigma * sigma * total


def stationary_fou_variance(hurst: float, lam: float, beta: float) -> float:
    """Exact stationary variance beta^2 * lam^(-2H) * H * Gamma(2H) of the
    fractionally driven Ornstein-Uhlenbeck process with mean reversion lam
    and noise scale beta (reduces to beta^2/(2*lam) at H = 1/2)."""
    if lam <= 0 or beta <= 0:
        raise ValueError("lam and beta must be positive")
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    return beta * beta * lam ** (-2.0 * hurst) * hurst * gamma_fn(2.0 * hurst)
