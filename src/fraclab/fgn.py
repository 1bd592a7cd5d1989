"""Autocovariance of fractional Gaussian noise and the Toeplitz machinery
built on it: a Gohberg-Semencul operator for the inverse covariance
(solves and quadratic forms by FFT in O(N) memory), its spectral norm, and
the power-law expansion of the stationary Ornstein-Uhlenbeck
autocovariance under fractional driving.

The increment autocovariance at step delta and lag k is

    gamma(k) = 0.5 * delta^(2H) * (|k+1|^(2H) - 2|k|^(2H) + |k-1|^(2H)),

so gamma(0) = delta^(2H) and, for H = 1/2, gamma(k) = 0 for every k >= 1
(the covariance matrix is exactly delta * I).
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np
from scipy import fft as sfft
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


def _durbin(
    first_row: np.ndarray, shift: float = 0.0
) -> tuple[np.ndarray | None, int | None]:
    """Durbin's recursion on T - shift * I, T symmetric Toeplitz with first
    row ``first_row``, in O(N^2) time and O(N) memory.

    T - shift * I is positive definite exactly when every reflection
    coefficient has |kappa_k| < 1.  Returns ``(x, None)`` with
    x = (T - shift * I)^{-1} e_1 then, else ``(None, k)`` with k the first
    order at which |kappa_k| >= 1 (0 when the diagonal is not positive).
    """
    row = np.asarray(first_row, dtype=float)
    t0 = row[0] - shift
    if not t0 > 0:
        return None, 0
    rho = row[1:] / t0
    rev = rho[::-1]
    m = rho.size
    y = np.empty(m)  # Yule-Walker solution of the leading order-k block
    beta = 1.0  # prod (1 - kappa_j^2): the normalised prediction error
    for k in range(m):
        kappa = -(rho[k] + rev[m - k :] @ y[:k]) / beta
        if not abs(kappa) < 1.0:
            return None, k + 1
        if k:
            y[:k] += kappa * y[k - 1 :: -1]
        y[k] = kappa
        beta *= 1.0 - kappa * kappa
    return np.concatenate(([1.0], y)) / (t0 * beta), None


class _Generator(NamedTuple):
    """x0 * Sigma_1^{-1} = L(x) L(x)^T - L(y) L(y)^T (Gohberg & Semencul
    1972), with x = Sigma_1^{-1} e_1, y = (0, x_{N-1}, ..., x_1) and L(v)
    lower-triangular Toeplitz with first column v.  x and y are held as
    real FFTs at a length >= 2N - 1, so no product wraps around."""

    x0: float
    x_hat: np.ndarray
    y_hat: np.ndarray
    fft_len: int


@functools.lru_cache(maxsize=32)
def _unit_generator(hurst: float, size: int) -> _Generator:
    """The read-only generator at unit step: Sigma_delta = delta^(2H)
    Sigma_1, so every step shares one entry and only scales results."""
    x, order = _durbin(unit_autocovariance(hurst, np.arange(size)))
    if x is None:
        raise NumericFailure(
            f"fGn covariance (H={hurst}, N={size}) is not numerically positive "
            f"definite: Durbin's reflection coefficient of order {order} "
            f"has modulus >= 1"
        )
    y = np.zeros(size)
    y[1:] = x[:0:-1]
    fft_len = sfft.next_fast_len(2 * size - 1, real=True)
    x_hat = sfft.rfft(x, fft_len)
    y_hat = sfft.rfft(y, fft_len)
    x_hat.flags.writeable = False
    y_hat.flags.writeable = False
    return _Generator(float(x[0]), x_hat, y_hat, fft_len)


# bisection on lambda_min stops at this width relative to its upper end
_LAMBDA_MIN_RTOL = 1e-13


class FgnCovariance:
    """Toeplitz covariance Sigma of N consecutive fGn increments at step delta.

    Solves and quadratic forms are a few real FFTs through the generator in
    ``cholesky``; neither Sigma nor its inverse is formed, so memory is O(N).
    """

    def __init__(self, hurst: float, delta: float, size: int):
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        self.hurst = float(hurst)
        self.delta = float(delta)
        self.size = int(size)
        self.first_row = fgn_autocovariance(hurst, delta, size - 1)
        self._chol: _Generator | None = None

    @property
    def cholesky(self) -> _Generator:
        """The Gohberg-Semencul generator of the unit-step inverse (see
        ``_Generator``): a triangular-Toeplitz J-factorisation held as O(N)
        FFT data, not a dense factor.  Built once per (hurst, N) by Durbin's
        recursion; NumericFailure, naming the failing order, when Sigma is
        not numerically positive definite."""
        if self._chol is None:
            self._chol = _unit_generator(self.hurst, self.size)
        return self._chol

    def _scale(self, gen: _Generator) -> float:
        # Sigma_delta^{-1} = delta^(-2H) Sigma_1^{-1}
        return self.delta ** (-2.0 * self.hurst) / gen.x0

    def _transposed(self, gen: _Generator, rhs: np.ndarray):
        """L(x)^T rhs and L(y)^T rhs along axis 0."""
        shape = (-1,) + (1,) * (rhs.ndim - 1)
        rhs_hat = sfft.rfft(rhs, gen.fft_len, axis=0)
        return tuple(
            sfft.irfft(
                np.conj(v_hat).reshape(shape) * rhs_hat, gen.fft_len, axis=0
            )[: self.size]
            for v_hat in (gen.x_hat, gen.y_hat)
        )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Sigma^{-1} rhs by four triangular-Toeplitz products (rhs may be
        a matrix; columns are solved independently)."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim == 0 or rhs.shape[0] != self.size:
            raise ValueError(
                f"rhs has shape {rhs.shape}, expected leading dimension {self.size}"
            )
        gen = self.cholesky
        shape = (-1,) + (1,) * (rhs.ndim - 1)
        a, b = self._transposed(gen, rhs)
        m = gen.fft_len
        out_hat = gen.x_hat.reshape(shape) * sfft.rfft(a, m, axis=0)
        out_hat -= gen.y_hat.reshape(shape) * sfft.rfft(b, m, axis=0)
        return sfft.irfft(out_hat, m, axis=0)[: self.size] * self._scale(gen)

    def _vector(self, w: np.ndarray, name: str) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        if w.shape != (self.size,):
            raise ValueError(f"{name} must have shape ({self.size},), got {w.shape}")
        return w

    def quadratic_form(self, u: np.ndarray, v: np.ndarray | None = None) -> float:
        """u^T Sigma^{-1} v (v defaults to u) as
        (<L(x)^T u, L(x)^T v> - <L(y)^T u, L(y)^T v>) delta^(-2H) / x0."""
        gen = self.cholesky
        au, bu = self._transposed(gen, self._vector(u, "u"))
        if v is None:
            av, bv = au, bu
        else:
            av, bv = self._transposed(gen, self._vector(v, "v"))
        return float((au @ av - bu @ bv) * self._scale(gen))

    def inverse_spectral_norm(self) -> float:
        """||Sigma^{-1}||_2 = 1 / lambda_min(Sigma), one path at every N:
        lambda_min of the unit-step matrix is bisected on mu in
        (0, gamma(0)] with Durbin's recursion on Sigma_1 - mu * I as the only
        test, to a relative width of 1e-13, then scaled by delta^(2H)
        (Cybenko & Van Loan, SIAM J. Sci. Stat. Comput. 7, 1986)."""
        self.cholesky  # NumericFailure unless Sigma is positive definite
        row = unit_autocovariance(self.hurst, np.arange(self.size))
        lo, hi = 0.0, float(row[0])
        while hi - lo > _LAMBDA_MIN_RTOL * hi:
            mid = 0.5 * (lo + hi)
            if _durbin(row, mid)[0] is None:
                hi = mid
            else:
                lo = mid
        return 1.0 / (self.delta ** (2.0 * self.hurst) * 0.5 * (lo + hi))


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
