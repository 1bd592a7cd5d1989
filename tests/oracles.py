"""Independent reference implementations used to validate the library.

Everything here is deliberately naive: dense inverses instead of Cholesky
solves, exhaustive enumeration instead of dynamic programming, dense
quadrature instead of closed forms.  Slow and obviously correct.
"""

from __future__ import annotations

import cmath
import math
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


def dense_gram(hurst: float, size: int, shift: int) -> np.ndarray:
    """A_shift = Sigma^{-1} C^{shift,0} at unit step from first principles,
    with dense nested-loop matrices and a dense solve."""
    from fraclab import unit_autocovariance

    gamma = unit_autocovariance(hurst, np.arange(2 * size))
    sigma = np.empty((size, size))
    window = np.empty((size, size))
    for i in range(size):
        for j in range(size):
            sigma[i, j] = gamma[abs(i - j)]
            window[i, j] = gamma[abs(shift + i - j)]
    return np.linalg.solve(sigma, window)


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


def fou_autocovariance_hyp1f2(hurst: float, u: float) -> float:
    """Unit stationary fOU autocovariance in closed form, in mpmath:

        r(u) = Gamma(2H+1)/2 [cosh u - u^(2H)/Gamma(2H+1) 1F2(1; H+1/2, H+1; u^2/4)],

    at 30 digits beyond the e^u the two terms cancel down from."""
    import mpmath

    with mpmath.workdps(30 + int(u / math.log(10.0))):
        h, x = mpmath.mpf(hurst), mpmath.mpf(u)
        g = mpmath.gamma(2 * h + 1)
        value = g / 2 * (
            mpmath.cosh(x) - x ** (2 * h) / g * mpmath.hyp1f2(1, h + 0.5, h + 1, x * x / 4)
        )
        return float(value)


def fou_autocovariance_ray_quadrature(hurst: float, u: float) -> float:
    """Unit stationary fOU autocovariance at u > 0 from its spectral form

        r(u) = Gamma(2H+1) sin(pi H) / pi * integral_0^inf cos(u y) y^(1-2H) / (1 + y^2) dy

    by quadrature.  The real-axis integrand oscillates and decays only like
    y^(-1-2H), so the integral of e^(iuz) z^(1-2H) / (1 + z^2) is taken
    along the ray z = s e^(i pi/3) instead (Cauchy: the pole at z = i stays
    outside the sector, and the arc vanishes since the power is below 1).
    There the integrand decays like e^(-u s sin(pi/3)); [0, 1] carries the
    s^(1-2H) endpoint weight.  Asserts quad's own error estimate is below
    1e-12 of the two pieces' magnitude, which fails near H = 1/2, where r
    is nearly 0 against them."""
    from scipy.integrate import quad

    ray = cmath.exp(1j * math.pi / 3.0)
    a = 1.0 - 2.0 * hurst
    lead = ray ** (a + 1.0)

    def smooth(s: float) -> float:
        z = s * ray
        return (lead * cmath.exp(1j * u * z) / (1.0 + z * z)).real

    head, head_err, *_ = quad(
        smooth, 0.0, 1.0, weight="alg", wvar=(a, 0.0),
        epsabs=0.0, epsrel=1e-13, limit=200, full_output=1,
    )
    tail, tail_err, *_ = quad(
        lambda s: s**a * smooth(s), 1.0, np.inf,
        epsabs=0.0, epsrel=1e-13, limit=200, full_output=1,
    )
    assert head_err + tail_err <= 1e-12 * (abs(head) + abs(tail)), (hurst, u)
    scale = math.gamma(2.0 * hurst + 1.0) * math.sin(math.pi * hurst) / math.pi
    return scale * (head + tail)


def fou_integral_hyp1f2(hurst: float, x: float) -> float:
    """integral_0^x r(u) du of the unit stationary fOU autocovariance, the
    series of ``fou_autocovariance_hyp1f2`` integrated term by term:

        Gamma(2H+1)/2 [sinh x - x^(2H+1)/Gamma(2H+2) 1F2(1; H+1, H+3/2; x^2/4)],

    in mpmath at 30 digits beyond the e^x the two terms cancel down from."""
    import mpmath

    with mpmath.workdps(30 + int(x / math.log(10.0))):
        h, y = mpmath.mpf(hurst), mpmath.mpf(x)
        series = y ** (2 * h + 1) / mpmath.gamma(2 * h + 2) * mpmath.hyp1f2(1, h + 1, h + 1.5, y * y / 4)
        return float(mpmath.gamma(2 * h + 1) / 2 * (mpmath.sinh(y) - series))


def ar1_mpmath(decay: float, start: float, drive) -> np.ndarray:
    """y_0 = start, y_k = decay y_(k-1) + drive_(k-1), run term by term at
    40 digits on the exact binary inputs and rounded once at the end."""
    import mpmath

    with mpmath.workdps(40):
        d, y = mpmath.mpf(decay), mpmath.mpf(start)
        out = [y]
        for u in drive:
            y = d * y + mpmath.mpf(float(u))
            out.append(y)
        return np.array([float(v) for v in out])


def refined_toeplitz_first_column(row: np.ndarray, block: int = 256) -> np.ndarray:
    """x = T^{-1} e_1 for the symmetric Toeplitz T with first row ``row``:
    Levinson's solve, refined once with the residual e_1 - T x summed in
    long double over dense row blocks."""
    n = row.size
    e1 = np.eye(1, n)[0]
    x = sla.solve_toeplitz(row, e1)
    wide, xl = row.astype(np.longdouble), x.astype(np.longdouble)
    residual = e1.astype(np.longdouble)
    for lo in range(0, n, block):
        rows = np.arange(lo, min(lo + block, n))
        residual[rows] -= wide[np.abs(rows[:, None] - np.arange(n))] @ xl
    return x + sla.solve_toeplitz(row, residual.astype(float))


def segment_product_signature(samples, level: int, start: int = 0, stop=None):
    """The signature of a piecewise-linear path as the running product of
    its segments' exponentials, one tensor_multiply per segment."""
    from fraclab import segment_signature, tensor_multiply, tensor_unit

    pts = np.asarray(samples, dtype=float).reshape(len(samples), -1)
    stop = pts.shape[0] - 1 if stop is None else stop
    sig = tensor_unit(pts.shape[1], level)
    for j in range(start, stop):
        sig = tensor_multiply(sig, segment_signature(pts[j + 1] - pts[j], level))
    return sig


def rep_signature_check(params: dict, seed) -> list:
    """One signature-check replicate through the one-path functions: the
    signature of the random path, its halves at the drawn split multiplied
    by tensor_multiply, and shuffle_residuals."""
    from fraclab.experiments import ResultRow
    from fraclab.grids import STREAM_AUX
    from fraclab import pwl_signature, shuffle_residuals, tensor_multiply

    dim = params["sig.dimension"]
    segments = params["sig.segments"]
    level = params["sig.level"]
    rng = seed.rng(STREAM_AUX)
    steps = 0.5 * rng.standard_normal((segments, dim))
    samples = np.vstack([np.zeros(dim), np.cumsum(steps, axis=0)])

    sig = pwl_signature(samples, level)
    split = int(rng.integers(1, segments))
    left = pwl_signature(samples, level, 0, split)
    right = pwl_signature(samples, level, split, segments)
    product = tensor_multiply(left, right)

    scale = max(1.0, max(float(np.max(np.abs(arr))) for arr in sig.data))
    gap = max(float(np.max(np.abs(x - y))) for x, y in zip(product.data, sig.data))
    shuffle = float(np.max(shuffle_residuals(sig) / scale))

    common = dict(experiment="signature-check", replicate=seed.replicate)
    return [
        ResultRow(statistic="chen_residual", value=gap / scale, **common),
        ResultRow(statistic="shuffle_residual", value=shuffle, **common),
    ]


def tfe_slope_root(data, guess: float) -> float:
    """A root, found from ``guess``, of the tfe loss's derivative
    L'(theta) = -2 x_0 sum_k (x_k - x_0 e^(-theta t_k)) t_k e^(-theta t_k),
    without its constant factor: mpmath findroot at 40 digits on the exact
    binary data."""
    import mpmath

    with mpmath.workdps(40):
        x0 = mpmath.mpf(float(data.values[0]))
        pairs = [
            (mpmath.mpf(float(x)), mpmath.mpf(float(t)))
            for x, t in zip(data.values[1:], data.grid.nodes[1:])
        ]

        def slope(theta):
            return mpmath.fsum(
                (x - x0 * mpmath.exp(-theta * t)) * t * mpmath.exp(-theta * t)
                for x, t in pairs
            )

        return float(mpmath.findroot(slope, mpmath.mpf(guess)))


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


def column_pvar_sup(increment_fn, n: int, q: float) -> float:
    """sup over node partitions of sum |D(t_i, t_{i+1})|^q by the
    column-by-column dynamic program: increment_fn(j) -> |D(i, j)| for i < j."""
    best = np.zeros(n + 1)
    for j in range(1, n + 1):
        gains = increment_fn(j) ** q
        best[j] = np.max(best[:j] + gains)
    return float(best[n])


def column_p_variation(values: np.ndarray, p: float) -> float:
    """p-variation over node partitions by the column-by-column program."""
    z = np.asarray(values, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    n = z.shape[0] - 1
    return column_pvar_sup(lambda j: np.linalg.norm(z[j] - z[:j], axis=1), n, p) ** (1.0 / p)


def column_rough_distance(za: np.ndarray, zb: np.ndarray, level: int, p: float) -> float:
    """Inhomogeneous p-variation distance of two scalar lifts by the
    column-by-column program, one level at a time."""
    n = len(za) - 1
    worst = 0.0
    for m in range(1, level + 1):
        fact = math.factorial(m)

        def increment_fn(j, m=m, fact=fact):
            return np.abs((za[j] - za[:j]) ** m - (zb[j] - zb[:j]) ** m) / fact

        worst = max(worst, column_pvar_sup(increment_fn, n, p / m) ** (m / p))
    return worst


def column_holder_distance(za, zb, level: int, alpha: float, times) -> float:
    """Holder-type distance of two scalar lifts, one column j at a time."""
    worst = 0.0
    for m in range(1, level + 1):
        fact = math.factorial(m)
        for j in range(1, len(za)):
            gap = np.abs((za[j] - za[:j]) ** m - (zb[j] - zb[:j]) ** m) / fact
            ratio = gap ** (1.0 / m) / (times[j] - times[:j]) ** alpha
            worst = max(worst, float(ratio.max()))
    return worst


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


def tfe_scheme_node_law(
    theta: float,
    eta: float,
    epsilon: float,
    hurst: float,
    delta: float,
    count: int,
    substeps: int,
    x0: float,
    y0: float | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of (X_0..X_count, Y_0..Y_count) under the
    two-timescale sub-grid scheme, stepped one sub-step at a time as linear
    maps of its inputs: with h = delta/substeps, b = e^{-h/eps},
    a = 1 - theta h + (theta h)^2/2 and c = sqrt(eta) (1 - theta h/2) h^H,

        y_{j+1} = b y_j + sqrt(1 - b^2) xi_j,
        x_{j+1} = a x_j + (h/2) ((1 - theta h) y_j + y_{j+1}) + c g_j,

    xi i.i.d. N(0, 1), g unit fGn with its dense Toeplitz covariance, and
    y_0 ~ N(0, 1) when ``y0`` is None."""
    n = count * substeps
    h = delta / substeps
    th = theta * h
    b = math.exp(-h / epsilon)
    s = math.sqrt(1.0 - b * b)
    a = 1.0 - th + 0.5 * th * th
    c = math.sqrt(eta) * (1.0 - 0.5 * th) * h**hurst
    # coefficients over the inputs (1, y_0, xi_0..xi_{n-1}, g_0..g_{n-1})
    x = np.zeros(2 + 2 * n)
    y = np.zeros(2 + 2 * n)
    x[0] = x0
    y[1] = 1.0
    xs, ys = [x], [y]
    for j in range(n):
        y_next = b * y
        y_next[2 + j] += s
        x = a * x + 0.5 * h * ((1.0 - th) * y + y_next)
        x[2 + n + j] += c
        y = y_next
        if (j + 1) % substeps == 0:
            xs.append(x)
            ys.append(y)
    maps = np.array(xs + ys)
    k = np.arange(n, dtype=float)
    a2 = 2.0 * hurst
    gamma = 0.5 * (np.abs(k + 1) ** a2 - 2.0 * np.abs(k) ** a2 + np.abs(k - 1) ** a2)
    inputs = np.zeros((2 + 2 * n, 2 + 2 * n))
    inputs[2 : 2 + n, 2 : 2 + n] = np.eye(n)
    inputs[2 + n :, 2 + n :] = sla.toeplitz(gamma)
    if y0 is None:
        inputs[1, 1] = 1.0
        mean = maps[:, 0]
    else:
        mean = maps[:, 0] + y0 * maps[:, 1]
    return mean, maps @ inputs @ maps.T


def physical_fbm_node_law(
    sigma: float, hurst: float, epsilon: float, delta: float, count: int
) -> np.ndarray:
    """Covariance of (Y_0..Y_count, sigma B_1..sigma B_count) for the slow/fast
    system's stationary fast component Y (mean reversion lam = 1/eps, noise
    scale beta = sigma eps^-H) and its fBm driver, built entry by entry.

    The Y block is sigma^2 r(|j - k| delta / eps), r from
    ``unit_fou_autocovariance``; the driver block is the fBm covariance.  The
    cross block sums c(l) = Cov(sigma (B_i - B_(i-1)), Y_(i+l)) over cells,
    each by quadrature of the integration-by-parts form
    Y_t = beta lam int_0^inf e^(-lam u) (B_t - B_(t-u)) du.  At H = 1/2 the
    whole law is the closed Brownian pair instead: per cell, the increment
    and I = int e^(-lam (t - s)) dB_s are bivariate normal with
    Var(I) = (1 - a^2)/(2 lam), Cov = (1 - a)/lam, a = e^(-lam delta),
    independent across cells and of Y_0 ~ N(0, beta^2 / (2 lam))."""
    from scipy.integrate import quad

    from fraclab import unit_fou_autocovariance

    n = count
    lam, beta = 1.0 / epsilon, sigma / epsilon**hurst
    if hurst == 0.5:
        a = math.exp(-lam * delta)
        # inputs (Y_0, dB_1..dB_n, I_1..I_n) and their covariance
        inputs = np.zeros((1 + 2 * n, 1 + 2 * n))
        inputs[0, 0] = beta * beta / (2.0 * lam)
        cells = np.arange(n)
        inputs[1 + cells, 1 + cells] = delta
        inputs[1 + n + cells, 1 + n + cells] = (1.0 - a * a) / (2.0 * lam)
        inputs[1 + cells, 1 + n + cells] = inputs[1 + n + cells, 1 + cells] = (1.0 - a) / lam
        maps = np.zeros((2 * n + 1, 1 + 2 * n))
        for k in range(n + 1):
            maps[k, 0] = a**k
            for j in range(k):
                maps[k, 1 + n + j] = beta * a ** (k - 1 - j)
        for k in range(1, n + 1):
            maps[n + k, 1 : 1 + k] = sigma
        return maps @ inputs @ maps.T

    h2 = 2.0 * hurst
    cov = np.empty((2 * n + 1, 2 * n + 1))
    lags = np.abs(np.subtract.outer(np.arange(n + 1), np.arange(n + 1)))
    cov[: n + 1, : n + 1] = sigma**2 * unit_fou_autocovariance(hurst, lags * delta / epsilon)
    t = delta * np.arange(1, n + 1)
    cov[n + 1 :, n + 1 :] = 0.5 * sigma**2 * (
        t[:, None] ** h2 + t[None, :] ** h2 - np.abs(np.subtract.outer(t, t)) ** h2
    )

    def c(ell: int) -> float:
        # Cov(B_a - B_b, B_t - B_(t-u)) with a - t = -ell delta, b - t = -(ell+1) delta
        def kernel(u: float) -> float:
            return 0.5 * (
                abs(u - ell * delta) ** h2 + abs((ell + 1) * delta) ** h2
                - abs(ell * delta) ** h2 - abs(u - (ell + 1) * delta) ** h2
            )

        # quadrature between the kinks, each piece cut where e^(-lam u) has
        # fallen by e^-60 from its start
        kinks = sorted(k for k in (ell * delta, (ell + 1) * delta) if k > 0.0)
        total = 0.0
        for lo, hi in zip([0.0, *kinks], [*kinks, np.inf]):
            total += quad(
                lambda u: math.exp(-lam * u) * kernel(u), lo, min(hi, lo + 60.0 * epsilon),
                epsabs=0.0, epsrel=1e-13, limit=400, full_output=1,
            )[0]
        return sigma * beta * lam * total

    cross = {ell: c(ell) for ell in range(-n, n + 1)}
    for j in range(n + 1):
        for k in range(1, n + 1):
            cov[j, n + k] = cov[n + k, j] = sum(cross[j - i] for i in range(1, k + 1))
    return cov
