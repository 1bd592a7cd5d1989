"""Exact and refined samplers for fractional Gaussian noise, the stationary
fractionally driven Ornstein-Uhlenbeck process, the slow/fast system whose
slow component approximates fractional Brownian motion, and the two-timescale
estimation test system.

Every fractional stream comes from one engine: the exact 2m-circulant
embedding of the fGn covariance at the 5-smooth half-size
m = ``scipy.fft.next_fast_len(n, real=True)`` >= n, truncated to the first n
samples (i.i.d. normals at H = 1/2).

Sampling is deterministic in (parameters, grid, seed): the same inputs always
reproduce the same values bit for bit.  Replicates draw from independent
sub-streams derived via :class:`~fraclab.grids.SeedSpec`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len
from scipy.signal import lfilter

from .fgn import unit_autocovariance
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
)

__all__ = [
    "sample_fgn",
    "sample_stationary_fou",
    "sample_approximate_model",
    "PhysicalFbmSample",
    "sample_physical_fbm",
    "TfeSystemSample",
    "sample_tfe_system",
]

# e^-19 < 1e-8: burn-in long enough that the dropped infinite past is
# invisible at double precision statistics.
_BURN_IN_DECADES = 19.0


@functools.lru_cache(maxsize=16)
def _circulant_roots(hurst: float, m: int) -> np.ndarray:
    """sqrt of the eigenvalues 0..m of the 2m-circulant embedding of the
    unit-step fGn covariance (eigenvalues m+1..2m-1 mirror 1..m-1).

    Cached per (hurst, m), so stream lengths that round up to the same m
    share an entry; bounded so sweeps over many sizes cannot accumulate
    unbounded memory.
    """
    row = unit_autocovariance(hurst, np.arange(m + 1))
    circ = np.concatenate([row, row[-2:0:-1]])  # length 2m
    lam = np.fft.rfft(circ).real / (2 * m)
    floor = -1e-8 * lam.max()
    if lam.min() < floor:
        raise NumericFailure(
            f"circulant embedding for fGn (H={hurst}, m={m}) has "
            f"eigenvalue {lam.min():.3e}; cannot sample exactly"
        )
    roots = np.sqrt(np.clip(lam, 0.0, None))
    roots.flags.writeable = False
    return roots


def _unit_fgn(rng: np.random.Generator, hurst: float, n: int) -> np.ndarray:
    """One exact unit-step fGn stream of length n.

    H = 1/2 reduces to i.i.d. standard normals.  Every other H uses the
    2m-circulant embedding (Davies-Harte) at the 5-smooth half-size
    m = next_fast_len(n, real=True) >= n, drawn as a Hermitian half-spectrum
    through an inverse real FFT.  It is exact because its eigenvalues are
    checked non-negative, and the first n samples of a length-m fGn stream
    are a length-n fGn stream.
    """
    if n < 1:
        raise ValueError(f"stream length must be >= 1, got {n}")
    if hurst == 0.5:
        return rng.standard_normal(n)
    m = next_fast_len(n, real=True)
    roots = _circulant_roots(hurst, m)
    # Complex normals on bins 0..m: bins 0 and m are real.  Draw order (real
    # parts 0..m, then imaginary parts 1..m-1) is part of the contract.
    # irfft's kernel is the conjugate of the forward FFT's, so the imaginary
    # parts enter with a minus sign to give the forward-FFT realisation.
    re = rng.standard_normal(m + 1)
    im = rng.standard_normal(m - 1)
    half = re.astype(complex)
    half[1:m] = (re[1:m] - 1j * im) / math.sqrt(2.0)
    half *= roots
    return np.fft.irfft(half, 2 * m)[:n] * (2 * m)


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
    values = grid.delta**hurst * _unit_fgn(rng, hurst, grid.count)
    return IncrementVector(grid, values)


def _substeps_per_cell(
    lam: float, delta: float, refine: int, max_substeps: int | None
) -> int:
    """Sub-steps per observation cell: at least `refine`, scaled up so the
    kernel sees lam*h <= 1/refine, optionally capped."""
    if refine < 1:
        raise ValueError(f"refine must be >= 1, got {refine}")
    m = max(refine, math.ceil(refine * lam * delta))
    if max_substeps is not None:
        if max_substeps < 1:
            raise ValueError(f"max_substeps must be >= 1, got {max_substeps}")
        m = min(m, max_substeps)
    return m


def _fou_joint_refined(
    lam: float,
    beta: float,
    hurst: float,
    grid: SamplingGrid,
    rng: np.random.Generator,
    refine: int,
    max_substeps: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """(Y at nodes, driver B^H at nodes) via the refined recursion.

    The stationary process is realised by running the exact one-step solution

        Y_{t+h} = e^{-lam h} Y_t + beta * integral_t^{t+h} e^{-lam(t+h-s)} dB^H_s

    on a sub-grid of h = delta/m, approximating the kernel by its left-point
    value e^{-lam h} on each sub-step, from a zero start across a burn-in
    prefix long enough that e^{-lam L} < 1e-8.  B^H is the running sum of the
    same increment stream, zeroed at the first observation node.
    """
    m = _substeps_per_cell(lam, grid.delta, refine, max_substeps)
    h = grid.delta / m
    burn_cells = max(1, math.ceil(_BURN_IN_DECADES / (lam * grid.delta)))
    n_fine = (grid.count + burn_cells) * m

    db = h**hurst * _unit_fgn(rng, hurst, n_fine)
    a = math.exp(-lam * h)
    y = lfilter([1.0], [1.0, -a], (a * beta) * db)

    node_idx = (burn_cells + np.arange(grid.count + 1)) * m - 1
    y_nodes = y[node_idx]

    b_fine = np.cumsum(db)
    b_nodes = b_fine[node_idx]
    b_nodes = b_nodes - b_nodes[0]
    return y_nodes, b_nodes


def _fou_joint_exact_brownian(
    lam: float,
    beta: float,
    grid: SamplingGrid,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """(Y at nodes, driver B at nodes) for H = 1/2, exact at any step.

    With a Brownian driver the pair (increment, kernel-weighted integral) is
    bivariate normal per cell with

        Var(dB) = delta,  Var(I) = (1 - a^2)/(2 lam),  Cov = (1 - a)/lam,

    a = e^{-lam delta}, independent across cells and of the stationary start
    Y_0 ~ N(0, beta^2/(2 lam)), so the joint law at the nodes is sampled with
    no refinement and no burn-in truncation.
    """
    delta = grid.delta
    n = grid.count
    a = math.exp(-lam * delta)
    var_i = -math.expm1(-2.0 * lam * delta) / (2.0 * lam)
    cov_ib = -math.expm1(-lam * delta) / lam
    resid_sd = math.sqrt(max(var_i - cov_ib * cov_ib / delta, 0.0))

    y0 = math.sqrt(beta * beta / (2.0 * lam)) * rng.standard_normal()
    db = math.sqrt(delta) * rng.standard_normal(n)
    xi = rng.standard_normal(n)
    kernel_int = (cov_ib / delta) * db + resid_sd * xi

    y_rest, _ = lfilter(
        [1.0], [1.0, -a], beta * kernel_int, zi=np.array([a * y0])
    )
    y_nodes = np.concatenate([[y0], y_rest])
    b_nodes = np.concatenate([[0.0], np.cumsum(db)])
    return y_nodes, b_nodes


def _fou_joint(
    lam: float,
    beta: float,
    hurst: float,
    grid: SamplingGrid,
    rng: np.random.Generator,
    refine: int,
    max_substeps: int | None,
    method: str,
) -> tuple[np.ndarray, np.ndarray]:
    if method not in ("auto", "exact", "refined"):
        raise ValueError(f"unknown method {method!r}")
    if method == "exact" and hurst != 0.5:
        raise ValueError("the exact sampler is only available at hurst = 0.5")
    if method == "auto":
        method = "exact" if hurst == 0.5 else "refined"
    if method == "exact":
        return _fou_joint_exact_brownian(lam, beta, grid, rng)
    return _fou_joint_refined(lam, beta, hurst, grid, rng, refine, max_substeps)


def sample_stationary_fou(
    lam: float,
    beta: float,
    hurst: float,
    grid: SamplingGrid,
    seed: SeedSpec,
    *,
    refine: int = 16,
    max_substeps: int | None = None,
    method: str = "auto",
    stream: int = STREAM_DRIVER,
) -> Trajectory:
    """Stationary fractionally driven Ornstein-Uhlenbeck path at the nodes.

    Mean reversion ``lam`` > 0, noise scale ``beta`` > 0.  Stationary variance
    beta^2 * lam^(-2H) * H * Gamma(2H).  ``method="auto"`` picks the exact
    Brownian-case sampler at H = 1/2 and the refined recursion otherwise;
    ``method="refined"`` forces the generic path (useful for cross-checks).
    """
    if lam <= 0 or not np.isfinite(lam):
        raise ValueError(f"lam must be positive, got {lam}")
    if beta <= 0 or not np.isfinite(beta):
        raise ValueError(f"beta must be positive, got {beta}")
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    rng = seed.rng(stream)
    y_nodes, _ = _fou_joint(lam, beta, hurst, grid, rng, refine, max_substeps, method)
    return Trajectory(grid, y_nodes)


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
    the noise memory across the observed window is the stationary one.  At
    theta = 0 the chain is sigma * B^H from ``initial`` (default 0).
    """
    theta, sigma, hurst = params.theta, params.sigma, params.hurst
    delta = grid.delta
    u = theta * delta
    phi = 1.0 if u == 0.0 else -math.expm1(-u) / u

    if theta == 0.0 or initial is not None:
        burn = 0
        x0 = 0.0 if initial is None else float(initial)
    else:
        burn = math.ceil(_BURN_IN_DECADES / u)
        x0 = 0.0
    extended = SamplingGrid(delta=delta, count=burn + grid.count)
    db = sample_fgn(hurst, extended, seed, stream=stream).values

    decay = math.exp(-u)
    rest, _ = lfilter(
        [1.0], [1.0, -decay], sigma * phi * db, zi=np.array([decay * x0])
    )
    path = np.concatenate([[x0], rest])
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


def sample_physical_fbm(
    params: MultiscaleParams,
    grid: SamplingGrid,
    seed: SeedSpec,
    *,
    refine: int = 16,
    max_substeps: int | None = None,
    method: str = "auto",
    stream: int = STREAM_DRIVER,
) -> PhysicalFbmSample:
    """Sample the slow/fast pair whose slow component deviates from
    sigma * B^H by eps^H times a stationary increment."""
    eps, sigma, hurst = params.epsilon, params.sigma, params.hurst
    lam = 1.0 / eps
    beta = sigma / eps**hurst
    rng = seed.rng(stream)
    y_nodes, b_nodes = _fou_joint(
        lam, beta, hurst, grid, rng, refine, max_substeps, method
    )
    driver = sigma * b_nodes
    x_nodes = driver - eps**hurst * (y_nodes - y_nodes[0])
    return PhysicalFbmSample(
        params=params,
        grid=grid,
        slow=Trajectory(grid, x_nodes),
        fast=Trajectory(grid, y_nodes),
        driver=Trajectory(grid, driver),
    )


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
    """Integrate the two-timescale system on a refined sub-grid.

    The fast component is stepped with its exact transition (Brownian case),
    the slow line by the explicit trapezoid rule on the drift with the
    fractional noise added per sub-step.  ``y0=None`` draws the stationary
    start N(0, 1).  At eta = 0 no fractional stream is generated.
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
    n_fine = grid.count * m

    fast_rng = seed.rng(stream + STREAM_BROWNIAN)
    if y0 is None:
        y0 = float(fast_rng.standard_normal())
    a_fast = math.exp(-h / epsilon)
    innov_sd = math.sqrt(-math.expm1(-2.0 * h / epsilon))
    xi = fast_rng.standard_normal(n_fine)
    y_rest, _ = lfilter(
        [1.0], [1.0, -a_fast], innov_sd * xi, zi=np.array([a_fast * y0])
    )
    y_fine = np.concatenate([[y0], y_rest])  # fast values at all fine nodes

    if eta > 0.0:
        driver_rng = seed.rng(stream + STREAM_DRIVER)
        db = h**hurst * _unit_fgn(driver_rng, hurst, n_fine)
        noise = math.sqrt(eta) * (1.0 - 0.5 * theta * h) * db
    else:
        noise = 0.0

    # explicit trapezoid on the drift:
    #   X_{j+1} = a X_j + (h/2) ((1 - theta h) Y_j + Y_{j+1})
    #             - ... collected below, a = 1 - theta h + (theta h)^2 / 2
    th = theta * h
    a_slow = 1.0 - th + 0.5 * th * th
    drive = 0.5 * h * ((1.0 - th) * y_fine[:-1] + y_fine[1:]) + noise
    x_rest, _ = lfilter(
        [1.0], [1.0, -a_slow], drive, zi=np.array([a_slow * x0])
    )
    x_fine = np.concatenate([[x0], x_rest])

    take = np.arange(0, n_fine + 1, m)
    return TfeSystemSample(
        theta=theta,
        eta=eta,
        epsilon=epsilon,
        hurst=hurst,
        grid=grid,
        slow=Trajectory(grid, x_fine[take]),
        fast=Trajectory(grid, y_fine[take]),
    )
