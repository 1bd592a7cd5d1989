"""Autocovariance of fractional Gaussian noise and the Toeplitz machinery
built on it: a Gohberg-Semencul operator for the inverse covariance
(solves and quadratic forms by FFT in O(N) memory; its generator comes
from preconditioned conjugate gradients, with Durbin's recursion as the
positive-definiteness certificate), its spectral norm, and the stationary
Ornstein-Uhlenbeck autocovariance r under fractional driving and its
integral I, each in closed form below lag 40 and by one shared power-law
expansion from there on.

The increment autocovariance at step delta and lag k is

    gamma(k) = 0.5 * delta^(2H) * (|k+1|^(2H) - 2|k|^(2H) + |k-1|^(2H)),

so gamma(0) = delta^(2H) and, for H = 1/2, gamma(k) = 0 for every k >= 1
(the covariance matrix is exactly delta * I).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np
from scipy import fft as sfft
from scipy.special import gamma as gamma_fn
from scipy.special import gammaincc, hyp1f1

from .grids import NumericFailure

__all__ = [
    "fgn_autocovariance",
    "unit_autocovariance",
    "FgnCovariance",
    "fou_autocovariance_expansion",
    "stationary_fou_variance",
    "unit_fou_autocovariance",
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
    The certificate of positive definiteness: it decides where CG gives up,
    and it is the test in the bisection for lambda_min.
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


# CG's bound on its recursive residual norm (e_1 has unit norm) and its
# iteration cap, past which Durbin's recursion decides
_CG_TOL = 1e-15
_CG_MAX_ITER = 200
# Below this H, Durbin's recursion builds the generator without trying CG:
# there 1/lambda_min amplifies the rounding of CG's FFT products.  Relative
# error of x at N = 4096 against a residual-refined Levinson solve, CG /
# Durbin: 5.0e-11 / 5.9e-13 at H = 0.001, 2.4e-12 / 7.3e-13 at H = 0.01,
# 2.5e-13 / 3.5e-13 at H = 0.05.  At H = 0.001, N = 16384 CG is also the
# slower, 955 ms against 400 ms.
_CG_MIN_HURST = 0.05


def _cg_first_column(row: np.ndarray, fft_len: int) -> np.ndarray | None:
    """x = T^{-1} e_1, T symmetric Toeplitz with first row ``row`` (row[0] > 0),
    by CG preconditioned with T. Chan's optimal circulant
    c_j = ((N - j) t_j + j t_{N-j}) / N (Chan & Ng, SIAM Review 38, 1996);
    T is applied by FFT at its circulant embedding of length ``fft_len``.
    None, for Durbin's recursion to decide, where an eigenvalue of c or a
    curvature p^T T p is not positive, or at the iteration cap."""
    n = row.size
    x = np.eye(1, n)[0] / row[0]
    r = np.concatenate(([0.0], -row[1:] / row[0]))  # e_1 - T x, exactly
    j = np.arange(n)
    flipped = np.concatenate(([0.0], row[:0:-1]))  # t_{N-j} at j >= 1
    circ = sfft.rfft(((n - j) * row + j * flipped) / n).real
    if not circ.min() > 0:
        return None
    embedding = np.concatenate((row, np.zeros(fft_len - 2 * n + 1), flipped[1:]))
    t_hat = sfft.rfft(embedding).real
    p, rz_old = np.zeros(n), 1.0
    for _ in range(_CG_MAX_ITER):
        if r @ r <= _CG_TOL**2:
            return x
        z = sfft.irfft(sfft.rfft(r) / circ, n)
        rz = r @ z
        p = z + (rz / rz_old) * p
        q = sfft.irfft(t_hat * sfft.rfft(p, fft_len), fft_len)[:n]
        curvature = p @ q
        if not curvature > 0:
            return None
        x += (rz / curvature) * p
        r -= (rz / curvature) * q
        rz_old = rz
    return None


@functools.lru_cache(maxsize=32)
def _unit_generator(hurst: float, size: int) -> _Generator:
    """The read-only generator at unit step: Sigma_delta = delta^(2H)
    Sigma_1, so every step shares one entry and only scales results.
    x = Sigma_1^{-1} e_1 by CG in O(N log N), by Durbin where CG gives up
    and below H = _CG_MIN_HURST."""
    row = unit_autocovariance(hurst, np.arange(size))
    fft_len = sfft.next_fast_len(2 * size - 1, real=True)
    x = _cg_first_column(row, fft_len) if hurst >= _CG_MIN_HURST else None
    if x is None:
        x, order = _durbin(row)
    if x is None:
        raise NumericFailure(
            f"fGn covariance (H={hurst}, N={size}) is not numerically positive "
            f"definite: Durbin's reflection coefficient of order {order} "
            f"has modulus >= 1"
        )
    y = np.zeros(size)
    y[1:] = x[:0:-1]
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
    Both take a vector or a (rows, N) block, with one result per row.
    """

    def __init__(self, hurst: float, delta: float, size: int):
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        if not (delta > 0 and np.isfinite(delta)):
            raise ValueError(f"delta must be positive, got {delta}")
        if not 0.0 < hurst < 1.0:
            raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
        self.hurst = float(hurst)
        self.delta = float(delta)
        self.size = int(size)
        self._chol: _Generator | None = None

    @functools.cached_property
    def first_row(self) -> np.ndarray:
        """gamma(0..N-1) at step delta, built on first read: solves and
        quadratic forms go through the generator and never read it."""
        return fgn_autocovariance(self.hurst, self.delta, self.size - 1)

    @property
    def cholesky(self) -> _Generator:
        """The Gohberg-Semencul generator of the unit-step inverse (see
        ``_Generator``): a triangular-Toeplitz J-factorisation held as O(N)
        FFT data, not a dense factor.  Built once per (hurst, N) by
        preconditioned CG in O(N log N) (``_unit_generator``), with Durbin's
        recursion as the fallback; NumericFailure, naming Durbin's failing
        order, when Sigma is not numerically positive definite."""
        if self._chol is None:
            self._chol = _unit_generator(self.hurst, self.size)
        return self._chol

    def _scale(self, gen: _Generator) -> float:
        # Sigma_delta^{-1} = delta^(-2H) Sigma_1^{-1}
        return self.delta ** (-2.0 * self.hurst) / gen.x0

    def _rows(self, w: np.ndarray, name: str) -> np.ndarray:
        """``w`` as floats if it is a finite N-vector or (rows, N) block."""
        w = np.asarray(w, dtype=float)
        if w.ndim not in (1, 2) or w.shape[-1] != self.size:
            raise ValueError(
                f"{name} must have shape ({self.size},) or (rows, {self.size}), "
                f"got {w.shape}"
            )
        if not np.isfinite(w).all():
            raise ValueError(f"{name} has non-finite entries")
        return w

    def _transposed(self, gen: _Generator, rows: np.ndarray):
        """L(x)^T w and L(y)^T w for ``rows``' vector w, or for each of its rows."""
        rows_hat = sfft.rfft(rows, gen.fft_len)
        return tuple(
            sfft.irfft(np.conj(v_hat) * rows_hat, gen.fft_len)[..., : self.size]
            for v_hat in (gen.x_hat, gen.y_hat)
        )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Sigma^{-1} rhs by four triangular-Toeplitz products: for a vector,
        or for each row of a (rows, N) block, the rows sharing each batched
        FFT."""
        rhs = self._rows(rhs, "rhs")
        gen = self.cholesky
        a, b = self._transposed(gen, rhs)
        m = gen.fft_len
        out_hat = gen.x_hat * sfft.rfft(a, m)
        out_hat -= gen.y_hat * sfft.rfft(b, m)
        return sfft.irfft(out_hat, m)[..., : self.size] * self._scale(gen)

    def quadratic_form(
        self, u: np.ndarray, v: np.ndarray | None = None
    ) -> float | np.ndarray:
        """u^T Sigma^{-1} v (v defaults to u) as
        (<L(x)^T u, L(x)^T v> - <L(y)^T u, L(y)^T v>) delta^(-2H) / x0.

        For (rows, N) arrays, one value per row: the rows share each batched
        FFT, and each row's inner products are its own contiguous dot
        products, so row j equals the 1-D call on u[j] (and v[j]) bit for
        bit."""
        u = self._rows(u, "u")
        if v is not None:
            v = self._rows(v, "v")
            if v.shape != u.shape:
                raise ValueError(f"v has shape {v.shape}, u has shape {u.shape}")
        gen = self.cholesky
        au, bu = self._transposed(gen, u)
        av, bv = (au, bu) if v is None else self._transposed(gen, v)
        return (_row_dots(au, av) - _row_dots(bu, bv)) * self._scale(gen)

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


def _row_dots(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """a @ b as a float for vectors; for (rows, N) arrays one value per row,
    each its own contiguous dot a[j] @ b[j], so that row j equals the 1-D
    call bit for bit (a reduction over the block would not)."""
    if a.ndim == 1:
        return float(a @ b)
    return np.array([u @ v for u, v in zip(a, b)])


def _checked_covariance(hurst: float, grid, cov: FgnCovariance | None) -> FgnCovariance:
    """``cov`` if it is the covariance of fGn at ``hurst`` on ``grid``, a new
    one if it is None (the generator behind it is shared per (hurst, N)
    anyway); ValueError if it belongs to another (hurst, delta, count)."""
    if cov is None:
        return FgnCovariance(hurst, grid.delta, grid.count)
    if (cov.hurst, cov.delta, cov.size) != (hurst, grid.delta, grid.count):
        raise ValueError(
            "prebuilt covariance does not match (hurst, delta, count) = "
            f"({hurst}, {grid.delta}, {grid.count})"
        )
    return cov


def fou_autocovariance_expansion(
    hurst: float, sigma: float, lag_over_eps, terms: int | None
):
    """Power-law tail of the stationary covariance E[Y_t Y_{t+s}] of the
    fast component, as a partial sum:

        0.5 * sigma^2 * sum_{n=1..terms} (prod_{k=0}^{2n-1} (2H-k)) * (s/eps)^(2H-2n)

    Valid for H != 1/2 (at H = 1/2 the covariance decays exponentially and
    every polynomial coefficient vanishes); s/eps should be large - the series
    is asymptotic, not convergent.  ``terms=None`` sums, at each lag, while
    the terms shrink and still change the sum, which is the series' best
    value.  ``lag_over_eps`` may be an array; a scalar gives a float.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    if hurst == 0.5:
        raise ValueError("the power-law expansion is undefined at hurst = 0.5")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    u = np.asarray(lag_over_eps, dtype=float)
    if not np.all(u > 0):
        raise ValueError(f"lag_over_eps must be positive, got {lag_over_eps}")
    if terms is not None and terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    out = 0.5 * sigma * sigma * _asymptotic_tail(2.0 * hurst, u, 2, terms)
    return float(out) if out.ndim == 0 else out


def _asymptotic_tail(a: float, u: np.ndarray, first: int, terms: int | None) -> np.ndarray:
    """sum_{k = first, first + 2, ...} c_k u^(a-k), c_k = prod_{i<k} (a - i):
    the power-law tail of r (first = 2) and of its integral I (first = 1).
    ``terms=None`` sums, at each u, while the terms shrink and still change
    the sum; else the first ``terms`` terms."""
    total = np.zeros_like(u)
    active = np.ones(u.shape, dtype=bool)
    last = np.full(u.shape, np.inf)
    coeff = math.prod(a - i for i in range(first))
    k = first
    while active.any() and (terms is None or k < first + 2 * terms):
        term = coeff * u ** (a - k)
        if terms is None:
            size = np.abs(term)
            active &= (size < last) & (size > _EPS * np.abs(total))
            last = size
        total += np.where(active, term, 0.0)
        coeff *= (a - k) * (a - (k + 1))
        k += 2
    return total


# r(u) and I(x) are evaluated in closed form below _EXPANSION_MIN_U and by
# their asymptotic expansions from there on, where the smallest term is below
# 1e-14 of the sum (and e^x, which the closed forms scale by, would overflow
# past 709).
_EXPANSION_MIN_U = 40.0
_EPS = float(np.finfo(float).eps)


def unit_fou_autocovariance(hurst: float, lags) -> np.ndarray:
    """r(u) = E[Y_0 Y_u] of the stationary fractionally driven
    Ornstein-Uhlenbeck process at unit mean reversion and noise scale
    (Cheridito, Kawaguchi & Maejima, EJP 8, 2003), at lags u >= 0:

        r(u) = Gamma(2H+1) sin(pi H) / pi * integral_0^inf cos(u y) y^(1-2H) / (1 + y^2) dy
             = Gamma(2H+1) / 2 * [cosh u - sum_n u^(2H+2n) / Gamma(2H+2n+1)]
             = Gamma(a+1) / 4 * [e^u Q(a, u) + e^(-u) - e^(-u) u^a 1F1(a; a+1; u) / Gamma(a+1)],

    a = 2H, Q the regularised upper incomplete gamma function: the sum's
    terms in every power u^(a+k) give e^u P(a, u), the alternating ones
    Kummer's transform of u^a 1F1(1; a+1; -u) / Gamma(a+1).  So r(0) =
    H Gamma(2H) and r(u) = e^(-u) / 2 at H = 1/2.  At lam and beta the
    covariance is beta^2 lam^(-2H) r(lam s).  Two regimes: the closed form
    below u = 40 and the asymptotic expansion from there on.  The error is
    at most 1e-12 |r(u)| + 1e-14 r(0) at every H: 1e-12 relative away from
    H = 1/2 and from the zero r crosses for H < 1/2, and 1e-14 r(0) absolute
    near H = 1/2, where r ~ e^(-u)/2 + H(2H-1) u^(2H-2) is small against the
    closed form's two halves, each of order u^(2H-1), that cancel to it.
    Its integral I is ``_unit_fou_integral``.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    u = np.asarray(lags, dtype=float)
    if u.size and not u.min() >= 0:
        raise ValueError("lags must be non-negative")
    if hurst == 0.5:
        return 0.5 * np.exp(-u)
    out = np.empty_like(u)
    large = u >= _EXPANSION_MIN_U
    out[large] = fou_autocovariance_expansion(hurst, 1.0, u[large], None)
    out[~large] = _fou_closed_form(hurst, u[~large])
    out[u == 0.0] = stationary_fou_variance(hurst, 1.0, 1.0)
    return out


def _fou_closed_form(hurst: float, u: np.ndarray) -> np.ndarray:
    """r(u) at 0 <= u < 709 by ``unit_fou_autocovariance``'s incomplete-gamma
    and Kummer form, one numpy expression."""
    a = 2.0 * hurst
    scale = gamma_fn(a + 1.0)
    return 0.25 * scale * (
        np.exp(u) * gammaincc(a, u) + np.exp(-u) * (1.0 - u**a * hyp1f1(a, a + 1.0, u) / scale)
    )


def _unit_fou_integral(hurst: float, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """I(x) = int_0^x r at x >= 0, given r(x), r the unit fOU autocovariance:
    [e^x Gamma(2H+1, x) - x^(2H)] / 2 - r(x), from Y_t = int_0^inf e^-u
    (B_t - B_(t-u)) du, below _EXPANSION_MIN_U.  From there on the even
    terms of its asymptotic expansion cancel r's, leaving
    0.5 sum_j c_(2j+1) x^(2H-2j-1) (``_asymptotic_tail``)."""
    a = 2.0 * hurst
    out = np.empty_like(x)
    small = x < _EXPANSION_MIN_U
    xs = x[small]
    upper = gamma_fn(a + 1.0) * gammaincc(a + 1.0, xs)
    out[small] = 0.5 * (np.exp(xs) * upper - xs**a) - r[small]
    out[~small] = 0.5 * _asymptotic_tail(a, x[~small], 1, None)
    return out


def stationary_fou_variance(hurst: float, lam: float, beta: float) -> float:
    """Exact stationary variance beta^2 * lam^(-2H) * H * Gamma(2H) of the
    fractionally driven Ornstein-Uhlenbeck process with mean reversion lam
    and noise scale beta (reduces to beta^2/(2*lam) at H = 1/2)."""
    if lam <= 0 or beta <= 0:
        raise ValueError("lam and beta must be positive")
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    return beta * beta * lam ** (-2.0 * hurst) * hurst * gamma_fn(2.0 * hurst)
