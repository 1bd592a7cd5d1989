"""Exact samplers for fractional Gaussian noise, the stationary fractionally
driven Ornstein-Uhlenbeck process, the slow/fast system whose slow component
approximates fractional Brownian motion, and the two-timescale estimation
test system.

Every fractional stream comes from one engine: the exact 2m-circulant
embedding of a stationary increment law at the 5-smooth half-size
m = ``scipy.fft.next_fast_len(n, real=True)`` >= n, truncated to the first n
samples.  The law is unit fGn (i.i.d. normals at H = 1/2), the slow
component's node increments for :func:`sample_slow_component`, whose
autocovariance adds the second difference of the stationary fOU covariance
to fGn's, unit fGn summed over the sub-steps of a cell with geometric
weights, the fractional part of :func:`sample_tfe_system`'s cell law, or
the bivariate law of a fast value and the next cell's slow increment, from
which :func:`sample_physical_fbm` and :func:`sample_stationary_fou` read
the slow, fast and driver paths.  No sampler runs a sub-grid.  Chains
linear in their past (the approximate model, both lines of the two-timescale
system, and the calibration forward map) run one first-order recursion.

Sampling is deterministic in (parameters, grid, seed): the same inputs always
reproduce the same values bit for bit.  Replicates draw from independent
sub-streams derived via :class:`~fraclab.grids.SeedSpec`.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import fft as sfft
from scipy.special import gamma as gamma_fn
from scipy.special import gammaincc

from .fgn import unit_autocovariance, unit_fou_autocovariance
from .grids import (
    STREAM_BROWNIAN,
    STREAM_DRIVER,
    FouParams,
    IncrementVector,
    MultiscaleParams,
    NumericFailure,
    SamplingGrid,
    SeedSpec,
    Trajectory,
    _require_finite,
)

__all__ = [
    "sample_fgn",
    "sample_stationary_fou",
    "sample_approximate_model",
    "PhysicalFbmSample",
    "sample_physical_fbm",
    "sample_slow_component",
    "sample_slow_paths",
    "TfeSystemSample",
    "sample_tfe_system",
]

# e^-19 < 1e-8: burn-in long enough that the dropped infinite past is
# invisible at double precision statistics.
_BURN_IN_DECADES = 19.0
_SQRT_HALF = math.sqrt(0.5)
# Largest embedding half-size reached by doubling: it bounds the time and
# memory an unembeddable law takes before NumericFailure.  eps/delta = 1000
# embeds by m = 4096 at H = 0.7 and by m = 32768 at H = 0.98.
_MAX_GROWN_HALF_SIZE = 2**16
# Most sub-steps per observation cell the two-timescale cell law is built
# with (eps = 1e-5 at delta = 0.1 and refine 16 needs 160 000).
_MAX_SUBSTEPS = 2**20
# Most burn-in cells the approximate model prepends (the experiments' fits
# need at most 3 800).
_MAX_BURN_IN_CELLS = 2**20
# Embedding eigenvalue floor, relative to each component's largest one.
_EMBEDDING_FLOOR = -1e-8
# The fOU integral's asymptotic expansion is summed from this argument on,
# where its first 20 terms all shrink.
_INTEGRAL_EXPANSION_MIN_X = 40.0
# Lags per block when a cell-sum autocovariance is evaluated: bounds its
# transient memory at about this many doubles per temporary.
_LAG_BLOCK = 2**16


class _CellSum(NamedTuple):
    """Law key of unit fGn summed over ``substeps`` sub-steps with weights
    a^(substeps-1-i), i = 0..substeps-1: one value per cell."""

    a: float
    substeps: int


class _FastSlowPair(NamedTuple):
    """Law key of (Y_k / sigma, (X_{k+1} - X_k) / (sigma delta^H)) at
    ratio = eps/delta: a fast value and the next cell's slow increment."""

    ratio: float


# A unit law: eps/delta for the slow component's increments (0 is fGn), or a key.
_Law = float | _CellSum | _FastSlowPair


@functools.lru_cache(maxsize=8)
def _fou_row(hurst: float, ratio: float, size: int) -> np.ndarray:
    """r(k / ratio), k < size, r the unit fOU autocovariance; cached, as the
    slow and pair laws read the same lags."""
    row = unit_fou_autocovariance(hurst, np.arange(size) / ratio)
    row.flags.writeable = False
    return row


def _slow_unit_autocovariance(hurst: float, ratio: float, m: int) -> np.ndarray:
    """g(0..m): autocovariance of the slow component's node increments in
    units of sigma^2 delta^(2H), at ratio = eps/delta (0 gives unit fGn):

        g(k) = gamma_1(k) + ratio^(2H) [r((k+1)/ratio) - 2 r(k/ratio) + r(|k-1|/ratio)],

    with r the unit stationary fOU autocovariance.  X_t - X_0 =
    sigma B^H_t - eps^H (Y_t - Y_0) has stationary increments; its cross
    terms with B^H equal twice the Y-increment covariance by time
    reversibility, which leaves the second difference of r with a plus sign.
    """
    lags = np.arange(m + 1)
    row = unit_autocovariance(hurst, lags)
    if ratio > 0.0:
        with np.errstate(over="ignore"):
            scale = np.float64(ratio) ** (2.0 * hurst)
        if not np.isfinite(scale):
            raise ValueError(f"(eps/delta)^(2H) is not finite at eps/delta={ratio}")
        r = _fou_row(hurst, ratio, m + 2)
        row += scale * (r[1:] - 2.0 * r[:-1] + r[np.abs(lags - 1)])
    return row


def _cell_unit_autocovariance(hurst: float, law: _CellSum, m: int) -> np.ndarray:
    """R(0..m): autocovariance of V_k = sum_i a^(s-1-i) g_{ks+i} over cells,
    with g unit fGn and s = law.substeps:

        R(l) = sum_{|d| < s} W(d) gamma_1(|l s - d|),
        W(d) = a^|d| sum_{q < s-|d|} a^(2q)   (s - |d| at a = 1),

    W being the autocorrelation of the weights.  Lags are taken in blocks,
    so memory is O(s), not O(m s)."""
    a, s = law
    d = np.arange(1 - s, s)
    partial = np.cumsum(a ** (2.0 * np.arange(s)))
    weight = a ** np.abs(d) * partial[s - 1 - np.abs(d)]
    row = np.empty(m + 1)
    block = max(1, _LAG_BLOCK // d.size)
    for start in range(0, m + 1, block):
        lags = np.arange(start, min(start + block, m + 1))
        row[lags] = unit_autocovariance(hurst, np.abs(lags[:, None] * s - d)) @ weight
    return row


def _unit_fou_integral(hurst: float, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """I(x) = int_0^x r at x >= 0, given r(x), r the unit fOU autocovariance:
    [e^x Gamma(2H+1, x) - x^(2H)] / 2 - r(x), from Y_t = int_0^inf e^-u
    (B_t - B_(t-u)) du.  From _INTEGRAL_EXPANSION_MIN_X on (e^x overflows
    past 709) the even terms of its asymptotic series cancel r's, leaving
    0.5 sum_j c_(2j+1) x^(2H-2j-1), c_k = prod_(i<k) (2H - i)."""
    a = 2.0 * hurst
    out = np.empty_like(x)
    small = x < _INTEGRAL_EXPANSION_MIN_X
    xs = x[small]
    upper = gamma_fn(a + 1.0) * gammaincc(a + 1.0, xs)
    out[small] = 0.5 * (np.exp(xs) * upper - xs**a) - r[small]
    xl = x[~small]
    total = np.zeros_like(xl)
    coeff = a
    for j in range(20):
        total += coeff * xl ** (a - 2 * j - 1)
        coeff *= (a - 2 * j - 1) * (a - 2 * j - 2)
    out[~small] = 0.5 * total
    return out


def _pair_unit_spectrum(hurst: float, ratio: float, m: int) -> np.ndarray:
    """(m+1, 2, 2) spectrum of the 2m-circulant embedding of the
    :class:`_FastSlowPair` law (Y_k, D_k), D_k the slow increment over cell
    k+1: Cov(Y_j, Y_(j+l)) = r(|l| / ratio), Cov(D_j, D_(j+l)) = g(|l|)
    (``_slow_unit_autocovariance``) and, since X_t - X_0 = eps^(H-1) int Y,
    Cov(Y_j, D_(j+l)) = ratio^H [I((l+1) / ratio) - I(l / ratio)] with I
    (``_unit_fou_integral``) odd: symmetric about lag -1/2, so its circulant
    row wraps at lag m onto the mean of lags m and -m.  Entry [a, b] is
    conj(DFT(c_ab)) / 2m: an inverse real FFT of G w, G G^H = spectrum and
    w complex normal, has covariance c."""
    r = _fou_row(hurst, ratio, m + 2)
    fast, slow = r[: m + 1], _slow_unit_autocovariance(hurst, ratio, m)
    cross = ratio**hurst * np.diff(_unit_fou_integral(hurst, np.arange(m + 2) / ratio, r))
    cross_row = np.concatenate(
        [cross[:m], [0.5 * (cross[m] + cross[m - 1])], cross[: m - 1][::-1]]
    )
    spectrum = np.empty((m + 1, 2, 2), dtype=complex)
    spectrum[:, 0, 0] = sfft.rfft(np.concatenate([fast, fast[-2:0:-1]])).real
    spectrum[:, 1, 1] = sfft.rfft(np.concatenate([slow, slow[-2:0:-1]])).real
    spectrum[:, 1, 0] = sfft.rfft(cross_row)
    spectrum[:, 0, 1] = spectrum[:, 1, 0].conj()
    return spectrum / (2 * m)


@functools.lru_cache(maxsize=16)
def _circulant_roots(hurst: float, law: _Law, m: int) -> np.ndarray:
    """sqrt of the eigenvalues 0..m of the 2m-circulant embedding of the
    unit-law autocovariance at half-size m (m+1..2m-1 mirror 1..m-1); for
    a :class:`_FastSlowPair` a (m+1, 2, 2) factor G with G G^H the spectrum.
    NumericFailure below _EMBEDDING_FLOOR times a component's largest
    eigenvalue, or at NaN.  Cached per (hurst, law, m), so stream lengths
    that round up to the same m share an entry; bounded so sweeps over many
    sizes cannot accumulate unbounded memory.
    """
    if isinstance(law, _FastSlowPair):
        spectrum = _pair_unit_spectrum(hurst, law.ratio, m)
        # one unit per component: the floor is against each one's own scale
        scale = np.sqrt(spectrum[:, [0, 1], [0, 1]].real.max(axis=0))
        spectrum /= scale[:, None] * scale
        if np.isfinite(spectrum).all():
            lam, vectors = np.linalg.eigh(spectrum)
        else:
            lam = np.full(1, np.nan)
        name, floor = f"fast/slow pair eps/delta={law.ratio}", _EMBEDDING_FLOOR
    else:
        if isinstance(law, _CellSum):
            row, name = _cell_unit_autocovariance(hurst, law, m), law
        else:
            row, name = _slow_unit_autocovariance(hurst, law, m), f"eps/delta={law}"
        circ = np.concatenate([row, row[-2:0:-1]])  # length 2m
        lam = sfft.rfft(circ).real / (2 * m)
        floor = _EMBEDDING_FLOOR * lam.max()
    if not lam.min() >= floor:  # also true for NaN
        raise NumericFailure(
            f"circulant embedding (H={hurst}, {name}, m={m}) has "
            f"eigenvalue {lam.min():.3e}; cannot sample exactly"
        )
    roots = np.sqrt(np.clip(lam, 0.0, None))
    if isinstance(law, _FastSlowPair):
        # G = D^(1/2) V sqrt(L) V^H for the normalised spectrum V L V^H
        roots = scale[:, None] * (vectors * roots[:, None, :]) @ vectors.conj().swapaxes(1, 2)
    roots.flags.writeable = False
    return roots


@functools.lru_cache(maxsize=64)
def _embedding_half_size(hurst: float, law: _Law, n: int) -> int:
    """The half-size m >= n a length-n stream embeds at: the 5-smooth
    next_fast_len(n, real=True), doubled while the embedding is not
    non-negative definite (Wood & Chan, JCGS 3, 1994), which happens for
    the slow component when eps/delta is large against n.  The first n
    samples of any longer stream are still exact.  NumericFailure once m,
    clamped at the 5-smooth _MAX_GROWN_HALF_SIZE, reaches it."""
    m = sfft.next_fast_len(n, real=True)
    while True:
        try:
            _circulant_roots(hurst, law, m)
            return m
        except NumericFailure:
            if m >= _MAX_GROWN_HALF_SIZE:
                raise
            m = min(sfft.next_fast_len(2 * m, real=True), _MAX_GROWN_HALF_SIZE)


def _draw_rows(rngs, shape: tuple) -> np.ndarray:
    """Standard normals of ``shape``, row j ``rngs[j].standard_normal(shape[1:])``."""
    z = np.empty(shape)
    for j, rng in enumerate(rngs):
        z[j] = rng.standard_normal(shape[1:])
    return z


def _unit_stream(
    rngs: Sequence[np.random.Generator], hurst: float, n: int, law: _Law = 0.0
) -> np.ndarray:
    """Exact streams of length n with a unit law (see ``_circulant_roots``),
    one per generator along a leading row axis: unit-step fGn at law 0, the
    slow component's increments at law eps/delta > 0, cell sums at a
    :class:`_CellSum`, (2, n) fast values and slow increments at a
    :class:`_FastSlowPair`.  Row j draws from ``rngs[j]``, in row order, so a
    generator listed twice draws twice; the rows share every step after the
    draw, one batched inverse FFT among them, and row j equals, bit for bit,
    a call with ``[rngs[j]]`` made in its turn.

    Unit fGn at H = 1/2 reduces to i.i.d. standard normals.  Every other law
    uses the 2m-circulant embedding (Davies-Harte; Wood & Chan, JCGS 3,
    1994; bivariate: Chan & Wood, Stat. Comput. 9, 1999) at the half-size
    m >= n of ``_embedding_half_size``, drawn as a Hermitian half-spectrum
    through an inverse real FFT.  It is exact where its eigenvalues are
    non-negative (those above _EMBEDDING_FLOOR are clipped at 0), and the
    first n samples of a length-m stationary stream are a length-n one.
    """
    if n < 1:
        raise ValueError(f"stream length must be >= 1, got {n}")
    lead = (len(rngs),)
    if hurst == 0.5 and law == 0.0:
        return _draw_rows(rngs, lead + (n,))
    m = _embedding_half_size(hurst, law, n)
    roots = _circulant_roots(hurst, law, m)
    if roots.ndim == 3:  # one row of normals per component of the pair
        lead += (2,)
    # Complex normals on bins 0..m: bins 0 and m are real.  Draw order (real
    # parts 0..m, then imaginary parts 1..m-1) is part of the contract.
    # irfft's kernel is the conjugate of the forward FFT's, so the imaginary
    # parts enter with a minus sign to give the forward-FFT realisation.
    z = _draw_rows(rngs, lead + (2 * m,))
    z[..., 1:m] *= _SQRT_HALF
    z[..., m + 1 :] *= -_SQRT_HALF
    half = np.empty(lead + (m + 1,), dtype=complex)
    half.imag[..., 0] = half.imag[..., m] = 0.0
    if roots.ndim == 3:
        half.real, half.imag[..., 1:m] = z[..., : m + 1], z[..., m + 1 :]
        half = np.einsum("fab,...bf->...af", roots, half)
    else:
        np.multiply(z[..., : m + 1], roots, out=half.real)
        np.multiply(z[..., m + 1 :], roots[1:m], out=half.imag[..., 1:m])
    return sfft.irfft(half, 2 * m, norm="forward")[..., :n]


def sample_fgn(
    hurst: float,
    grid: SamplingGrid,
    seed: SeedSpec,
    *,
    stream: int = STREAM_DRIVER,
) -> IncrementVector:
    """Exact fGn increments at the grid's step, one per cell."""
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    rng = seed.rng(stream)
    values = grid.delta**hurst * _unit_stream([rng], hurst, grid.count)[0]
    return IncrementVector(grid, values)


def _ar1(decay: float, start: float, drive: np.ndarray) -> np.ndarray:
    """y_0 = start, y_k = decay y_(k-1) + drive_(k-1): a doubling scan whose
    pass at shift s adds decay^s y_(k-s), so y_k then sums its last 2s terms;
    it stops once s reaches len(y) or decay^s underflows to 0."""
    y = np.empty(len(drive) + 1)
    y[0], y[1:] = start, drive
    s = 1
    while s < y.size and (power := decay**s) != 0.0:
        y[s:] += power * y[:-s]
        s *= 2
    return y


def _substeps_per_cell(
    lam: float, delta: float, refine: int, max_substeps: int | None
) -> int:
    """Sub-steps per observation cell: at least `refine`, scaled up so the
    kernel sees lam*h <= 1/refine, optionally capped; ValueError above
    _MAX_SUBSTEPS."""
    if refine < 1:
        raise ValueError(f"refine must be >= 1, got {refine}")
    scale = refine * lam * delta
    if not math.isfinite(scale):
        raise ValueError(f"refine * lam * delta must be finite, got {scale}")
    m = max(refine, math.ceil(scale))
    if max_substeps is not None:
        if max_substeps < 1:
            raise ValueError(f"max_substeps must be >= 1, got {max_substeps}")
        m = min(m, max_substeps)
    if m > _MAX_SUBSTEPS:
        raise ValueError(
            f"{m} sub-steps per cell exceed the cap of {_MAX_SUBSTEPS}; "
            "raise epsilon, lower delta or refine, or set max_substeps"
        )
    return m


def sample_stationary_fou(
    lam: float,
    beta: float,
    hurst: float,
    grid: SamplingGrid,
    seed: SeedSpec,
    *,
    stream: int = STREAM_DRIVER,
) -> Trajectory:
    """Stationary fractionally driven Ornstein-Uhlenbeck path at the nodes,
    exact: mean reversion ``lam`` > 0, noise scale ``beta`` > 0, covariance
    beta^2 lam^(-2H) r(lam s) (``unit_fou_autocovariance``), variance
    beta^2 lam^(-2H) H Gamma(2H).  It is the fast component of
    :func:`sample_physical_fbm` at eps = 1/lam, sigma = beta lam^(-H)."""
    if lam <= 0 or not np.isfinite(lam):
        raise ValueError(f"lam must be positive, got {lam}")
    if beta <= 0 or not np.isfinite(beta):
        raise ValueError(f"beta must be positive, got {beta}")
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    y, _ = _fast_slow_nodes(beta / lam**hurst, hurst, 1.0 / lam, grid, seed.rng(stream))
    return Trajectory(grid, y)


def sample_approximate_model(
    params: FouParams,
    grid: SamplingGrid,
    seed: SeedSpec,
    *,
    stream: int = STREAM_DRIVER,
    initial: float | None = None,
) -> Trajectory:
    """Sample the discrete chain the quasi-likelihood is exact for:

        x_k = e^{-theta delta} x_{k-1} + sigma * phi * (B^H_k - B^H_{k-1}),

    with phi = (1 - e^{-theta delta}) / (theta delta).

    With ``initial=None`` and theta > 0 the chain starts from numerical
    stationarity: a burn-in window long enough for the zero start to decay
    below 1e-8 is prepended and driven by the *same* fractional stream, so
    the noise memory across the observed window is the stationary one
    (ValueError above _MAX_BURN_IN_CELLS).  At theta = 0 the chain is
    sigma * B^H from ``initial`` (default 0).
    """
    theta, sigma, hurst = params.theta, params.sigma, params.hurst
    delta = grid.delta
    u = theta * delta
    phi = 1.0 if u == 0.0 else -math.expm1(-u) / u

    if theta == 0.0 or initial is not None:
        burn = 0
        x0 = 0.0 if initial is None else float(initial)
    else:
        burn = _BURN_IN_DECADES / u
        if not burn <= _MAX_BURN_IN_CELLS:
            raise ValueError(f"{burn:.3g} burn-in cells exceed the cap of {_MAX_BURN_IN_CELLS}")
        burn = math.ceil(burn)
        x0 = 0.0
    extended = SamplingGrid(delta=delta, count=burn + grid.count)
    db = sample_fgn(hurst, extended, seed, stream=stream).values

    path = _ar1(math.exp(-u), x0, sigma * phi * db)
    return Trajectory(grid, path[burn:].copy())


@dataclass(frozen=True)
class PhysicalFbmSample:
    """Joint sample of the slow/fast system on one grid.

    ``slow`` is X (started at 0), ``fast`` the stationary fast component Y,
    ``driver`` holds sigma * B^H at the nodes (zero at t = 0).  The exact
    reconstruction X_t - X_0 = sigma B^H_t - eps^H (Y_t - Y_0) holds at every
    node by construction.
    """

    params: MultiscaleParams
    grid: SamplingGrid
    slow: Trajectory
    fast: Trajectory
    driver: Trajectory


def _fast_slow_nodes(sigma: float, hurst: float, eps: float, grid: SamplingGrid, rng):
    """(Y_0..Y_n, X_1 - X_0..X_n - X_(n-1)) from one :class:`_FastSlowPair`
    stream of n + 1 pairs.  For the fOU process sigma = beta lam^-H and
    eps = 1/lam, which may overflow."""
    ratio = eps / grid.delta
    if not (0.0 < ratio < math.inf and math.isfinite(sigma)):
        raise ValueError(f"eps/delta={ratio} and sigma={sigma} must be finite and > 0")
    z = _unit_stream([rng], hurst, grid.count + 1, _FastSlowPair(ratio))[0]
    return sigma * z[0], (sigma * grid.delta**hurst) * z[1, :-1]


def sample_physical_fbm(
    params: MultiscaleParams,
    grid: SamplingGrid,
    seed: SeedSpec,
    *,
    stream: int = STREAM_DRIVER,
) -> PhysicalFbmSample:
    """Sample the slow/fast pair whose slow component deviates from
    sigma * B^H by eps^H times a stationary increment, exactly at the nodes:
    Y and the slow increments are one bivariate stream
    (``_pair_unit_spectrum``), X is their cumulative sum and the driver
    X + eps^H (Y - Y_0).  X has the law, not the draws, of
    :func:`sample_slow_component`."""
    eps, sigma, hurst = params.epsilon, params.sigma, params.hurst
    y, dx = _fast_slow_nodes(sigma, hurst, eps, grid, seed.rng(stream))
    x = np.concatenate(([0.0], np.cumsum(dx)))
    driver = x + eps**hurst * (y - y[0])
    return PhysicalFbmSample(
        params=params,
        grid=grid,
        slow=Trajectory(grid, x),
        fast=Trajectory(grid, y),
        driver=Trajectory(grid, driver),
    )


def sample_slow_component(
    params: MultiscaleParams,
    grid: SamplingGrid,
    seed: SeedSpec,
    *,
    stream: int = STREAM_DRIVER,
) -> Trajectory:
    """The slow component X of the slow/fast system at the nodes (X_0 = 0),
    drawn exactly from its Gaussian law with no sub-grid.

    X_t = eps^(H-1) int_0^t Y ds has stationary increments whose node
    autocovariance is sigma^2 delta^(2H) g(k) at ratio = eps/delta (see
    ``_slow_unit_autocovariance``), sampled by the same circulant embedding
    as fGn.  It has the law of ``sample_physical_fbm(...).slow`` but one
    univariate stream, so not its draws: use ``sample_physical_fbm`` when
    the fast component or the driver is read with X.  It is the one-row
    case of :func:`sample_slow_paths`.
    """
    return Trajectory(grid, sample_slow_paths(params, grid, [seed], stream=stream)[0])


def sample_slow_paths(
    params: MultiscaleParams,
    grid: SamplingGrid,
    seeds: Sequence[SeedSpec],
    *,
    stream: int = STREAM_DRIVER,
) -> np.ndarray:
    """(len(seeds), count + 1) node values of the slow component, row j
    equal, bit for bit, to ``sample_slow_component(params, grid, seeds[j],
    stream=stream).values``: each row draws from its own seed's stream, and
    the rows share one batched transform.  Its memory is a few arrays of
    len(seeds) rows of 2m doubles, m the embedding half-size."""
    eps, sigma, hurst = params.epsilon, params.sigma, params.hurst
    rngs = [seed.rng(stream) for seed in seeds]
    increments = _unit_stream(rngs, hurst, grid.count, eps / grid.delta)
    increments *= sigma * grid.delta**hurst
    paths = np.zeros((len(rngs), grid.count + 1))
    np.cumsum(increments, axis=-1, out=paths[:, 1:])
    _require_finite(paths, "trajectory values")
    return paths


@functools.lru_cache(maxsize=32)
def _tfe_cell_law(
    rate: float, th: float, m: int
) -> tuple[float, float, float, float, float, float, float]:
    """The sub-grid scheme of :func:`sample_tfe_system` aggregated over the m
    sub-steps of one cell, at rate = h/eps and th = theta h.

    With b = e^-rate, s = sqrt(1 - b^2), a = 1 - th + th^2/2 and xi_j
    i.i.d. N(0, 1), the scheme's sub-steps

        y_{j+1} = b y_j + s xi_j,
        x_{j+1} = a x_j + (h/2) [(1 - th) y_j + y_{j+1}] + noise_j

    give per cell Y_{k+1} = b^m Y_k + sum_j v_j xi_j and
    X_{k+1} = a^m X_k + (h/2) (p Y_k + sum_j u_j xi_j) + noise, with
    v_j = s b^(m-1-j), u_j = s [a^(m-1-j) + (1 - th + b) t_j],
    p = (1 - th + b) t_{-1} and t_i = sum_{j>i} a^(m-1-j) b^(j-1-i).  The
    pair of xi sums is i.i.d. N(0, Q) over cells, drawn through the
    Cholesky factor of Q, whose residual is clipped at 0 (rank 1 at m = 1).

    Returns (a, a^m, b^m, p, l11, l21, l22).
    """
    b = math.exp(-rate)
    s = math.sqrt(-math.expm1(-2.0 * rate))
    a = 1.0 - th + 0.5 * th * th
    # t_{m-1-k}, k = 0..m, by the reversed recursion t_{i-1} = a^(m-1-i) + b t_i
    t = _ar1(b, 0.0, a ** np.arange(m))[::-1]
    v = s * b ** np.arange(m - 1, -1, -1.0)
    u = s * (a ** np.arange(m - 1, -1, -1.0) + (1.0 - th + b) * t[1:])
    l11 = math.sqrt(v @ v)
    l21 = (v @ u) / l11 if l11 > 0.0 else 0.0
    l22 = math.sqrt(max(u @ u - l21 * l21, 0.0))
    return a, a**m, b**m, (1.0 - th + b) * t[0], l11, l21, l22


@dataclass(frozen=True)
class TfeSystemSample:
    """Sample of the two-timescale test system.

    Slow line  dX = (-theta X + Y) dt + sqrt(eta) dB^H,  X_0 = x0;
    fast line  dY = -(1/eps) Y dt + sqrt(2/eps) dB,      Y stationary,
    with B independent of B^H and unit stationary variance for Y.
    """

    theta: float
    eta: float
    epsilon: float
    hurst: float
    grid: SamplingGrid
    slow: Trajectory
    fast: Trajectory


def sample_tfe_system(
    theta: float,
    eta: float,
    epsilon: float,
    hurst: float,
    grid: SamplingGrid,
    seed: SeedSpec,
    *,
    x0: float = 1.0,
    y0: float | None = None,
    refine: int = 16,
    max_substeps: int | None = None,
    stream: int = 0,
) -> TfeSystemSample:
    """Draw the two-timescale system at the nodes from the exact law of its
    sub-grid scheme, with no sub-grid arrays.

    The scheme takes h = delta/m with m from ``refine``/``max_substeps``:
    the fast component is stepped with its exact transition (Brownian
    case), the slow line by the explicit trapezoid rule on the drift with
    the fractional noise sqrt(eta) (1 - theta h/2) h^H g_j added per
    sub-step, g unit fGn.  Its node law is a linear recursion per cell
    (``_tfe_cell_law``) whose fractional part is the :class:`_CellSum` of g,
    one circulant stream of one value per cell; each line is then one
    first-order recursion across cells from y0 or x0.  ``y0=None`` draws the
    stationary start N(0, 1); the fast generator then draws 2 * count
    normals.  At eta = 0 no fractional stream is generated.
    """
    if theta < 0 or not np.isfinite(theta):
        raise ValueError(f"theta must be >= 0, got {theta}")
    if eta < 0 or not np.isfinite(eta):
        raise ValueError(f"eta must be >= 0, got {eta}")
    if epsilon <= 0 or not np.isfinite(epsilon):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0.5 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (1/2, 1), got {hurst}")

    m = _substeps_per_cell(1.0 / epsilon, grid.delta, refine, max_substeps)
    h = grid.delta / m
    th = theta * h
    a, a_cell, b_cell, p, l11, l21, l22 = _tfe_cell_law(h / epsilon, th, m)

    fast_rng = seed.rng(stream + STREAM_BROWNIAN)
    if y0 is None:
        y0 = float(fast_rng.standard_normal())
    z = fast_rng.standard_normal((2, grid.count))
    y = _ar1(b_cell, y0, l11 * z[0])
    drive = (0.5 * h) * (p * y[:-1] + l21 * z[0] + l22 * z[1])
    if eta > 0.0:
        driver_rng = seed.rng(stream + STREAM_DRIVER)
        noise = _unit_stream([driver_rng], hurst, grid.count, _CellSum(a, m))[0]
        drive += (math.sqrt(eta) * (1.0 - 0.5 * th) * h**hurst) * noise
    x = _ar1(a_cell, x0, drive)

    return TfeSystemSample(
        theta=theta,
        eta=eta,
        epsilon=epsilon,
        hurst=hurst,
        grid=grid,
        slow=Trajectory(grid, x),
        fast=Trajectory(grid, y),
    )
