"""Independent reference implementations used to validate the library.

Everything here is deliberately naive: dense inverses instead of Cholesky
solves, exhaustive enumeration instead of dynamic programming, dense
quadrature instead of closed forms.  Slow and obviously correct.
"""

from __future__ import annotations

from itertools import chain, combinations

import numpy as np
import scipy.linalg as sla


def dense_covariance(cov) -> np.ndarray:
    """The dense Toeplitz matrix of an FgnCovariance, built from its first row."""
    return sla.toeplitz(cov.first_row)


def dense_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Sigma^{-1} rhs through a dense factorization."""
    return np.linalg.solve(matrix, rhs)


def dense_quadratic(matrix: np.ndarray, u: np.ndarray, v: np.ndarray | None = None) -> float:
    """u^T Sigma^{-1} v through an explicit dense inverse."""
    inv = np.linalg.inv(matrix)
    return float(u @ inv @ (u if v is None else v))


def gaussian_loglik(x: np.ndarray, cov: np.ndarray) -> float:
    """Full multivariate normal log density at x (mean zero)."""
    n = x.shape[0]
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    return float(
        -0.5 * (x @ np.linalg.solve(cov, x))
        - 0.5 * logdet
        - 0.5 * n * np.log(2.0 * np.pi)
    )


def central_difference(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def naive_circulant_fgn(
    rng: np.random.Generator, hurst: float, n: int, m: int | None = None
) -> np.ndarray:
    """Unit-step fGn of length n by the textbook Davies-Harte recipe at
    embedding half-size m >= n (default n): the full 2m-circulant eigenvalues
    by a forward FFT, a fully mirrored Hermitian vector of complex normals,
    a forward FFT of it, and its first n values.

    Draws m+1 real parts (bins 0..m), then m-1 imaginary parts (bins
    1..m-1).
    """
    m = n if m is None else m
    assert m >= n
    k = np.arange(m + 1, dtype=float)
    a = 2.0 * hurst
    row = 0.5 * (np.abs(k + 1) ** a - 2.0 * np.abs(k) ** a + np.abs(k - 1) ** a)
    circ = np.concatenate([row, row[-2:0:-1]])
    lam = np.fft.fft(circ).real / (2 * m)
    assert lam.min() > -1e-12 * lam.max()
    roots = np.sqrt(np.clip(lam, 0.0, None))
    re = rng.standard_normal(m + 1)
    im = rng.standard_normal(m - 1)
    z = np.empty(2 * m, dtype=complex)
    z[0] = roots[0] * re[0]
    z[m] = roots[m] * re[m]
    z[1:m] = roots[1:m] * (re[1:m] + 1j * im) / np.sqrt(2.0)
    z[m + 1 :] = np.conj(z[1:m][::-1])
    return np.fft.fft(z)[:n].real


def exhaustive_p_variation(values: np.ndarray, p: float) -> float:
    """p-variation by enumerating every node partition (2^(N-1) subsets)."""
    z = np.asarray(values, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    n = z.shape[0] - 1
    assert n <= 12, "exhaustive enumeration is exponential"
    interior = range(1, n)
    best = 0.0
    for subset in chain.from_iterable(
        combinations(interior, r) for r in range(n)
    ):
        pts = [0, *subset, n]
        total = sum(
            float(np.linalg.norm(z[b] - z[a])) ** p for a, b in zip(pts, pts[1:])
        )
        best = max(best, total)
    return best ** (1.0 / p)


def quadrature_signature(samples: np.ndarray, level: int, refine: int = 2000) -> dict:
    """Iterated integrals of the piecewise-linear path through ``samples``
    by composite-trapezoid cumulative quadrature on a dense sub-grid.

    Returns {word: value} for all words up to ``level`` letters (letters are
    0-based coordinate indices).
    """
    samples = np.asarray(samples, dtype=float)
    segs, dim = samples.shape[0] - 1, samples.shape[1]
    # dense polyline: refine points per segment
    frac = np.linspace(0.0, 1.0, refine, endpoint=False)
    dense = np.concatenate(
        [
            samples[i] + np.outer(frac, samples[i + 1] - samples[i])
            for i in range(segs)
        ]
        + [samples[-1:]],
        axis=0,
    )
    dx = np.diff(dense, axis=0)

    def integrate(f: np.ndarray, j: int) -> np.ndarray:
        avg = 0.5 * (f[:-1] + f[1:])
        out = np.concatenate([[0.0], np.cumsum(avg * dx[:, j])])
        return out

    results: dict[tuple, float] = {}
    frontier = {(): np.ones(dense.shape[0])}
    for _ in range(level):
        nxt = {}
        for word, path in frontier.items():
            for j in range(dim):
                new = integrate(path, j)
                nxt[word + (j,)] = new
                results[word + (j,)] = float(new[-1])
        frontier = nxt
    return results
