"""Driver calibrations for the mean-reverting model and the forward solution
map they invert, plus the rough-distance diagnostic that compares the two
natural calibrations of the same trajectory across dyadic grid refinements.

With phi(u) = (1 - e^-u)/u and u = theta*delta, one step of the model driven
by a piecewise-linear path with cell gradient c_k reads

    x_k = e^{-theta delta} x_{k-1} + sigma * delta * phi(theta delta) * c_k,

so gradients and trajectory determine each other cell by cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import (
    FouParams,
    IncrementVector,
    SeedSpec,
    Trajectory,
    make_grid,
)
from .signatures import _check_cells, lift_level_for_hurst, lift_scalar_path, rough_pvar_distance
from .simulate import _ar1, sample_fgn

__all__ = [
    "phi_ratio",
    "interpolation_calibration",
    "inverse_calibration",
    "forward_map",
    "CalibrationLevel",
    "CalibrationDiagnostic",
    "convergence_diagnostic",
]

# Dyadic levels between the finest diagnostic grid and the truth grid on
# which the driver is drawn and the trajectory solved.  Must be >= 1 (see
# convergence_diagnostic); 1, 2 and 3 all give the same convergence at the
# default settings, and 2 gives the gap-decay slope nearest 1 + 1/p.
_TRUTH_LEVELS = 2


def phi_ratio(theta: float, delta: float) -> float:
    """phi(theta*delta) = (1 - e^{-theta delta})/(theta delta); 1 at theta=0.

    Evaluated via expm1, which is cancellation-free for every positive
    argument, so no series switch is needed away from theta == 0 exactly.
    """
    if theta < 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    u = theta * delta
    if u == 0.0:
        return 1.0
    return -math.expm1(-u) / u


def interpolation_calibration(driver: Trajectory) -> IncrementVector:
    """Cell gradients of the piecewise-linear interpolation of the driver:
    c_k = (B_k - B_{k-1}) / delta."""
    return IncrementVector(driver.grid, np.diff(driver.values) / driver.grid.delta)


def inverse_calibration(
    trajectory: Trajectory, theta: float, sigma: float
) -> IncrementVector:
    """Gradients of the driver that reproduces the trajectory through the
    one-step solution map:

        c_k = theta (x_k - x_{k-1} e^{-theta delta}) / (sigma (1 - e^{-theta delta}))

    with the theta -> 0 limit (x_k - x_{k-1})/(sigma delta) built in.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    delta = trajectory.grid.delta
    phi = phi_ratio(theta, delta)
    decay = math.exp(-theta * delta)
    x = trajectory.values
    grads = (x[1:] - decay * x[:-1]) / (sigma * delta * phi)
    return IncrementVector(trajectory.grid, grads)


def forward_map(
    x0: float, gradients: IncrementVector, theta: float, sigma: float
) -> Trajectory:
    """Trajectory of the model driven by the piecewise-linear path with the
    given cell gradients, started at x0 exactly: the module's one-step map
    run as one first-order recursion (a doubling scan, exact to roundoff)."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    delta = gradients.grid.delta
    phi = phi_ratio(theta, delta)
    decay = math.exp(-theta * delta)
    drive = sigma * delta * phi * gradients.values
    return Trajectory(gradients.grid, _ar1(decay, float(x0), drive))


@dataclass(frozen=True)
class CalibrationLevel:
    """One dyadic level of the convergence diagnostic."""

    delta: float
    distance: float  # rough p-variation distance between the two lifts
    mean_abs_gap: float  # mean over cells of delta * |c_B - c_x|


@dataclass(frozen=True)
class CalibrationDiagnostic:
    params: FouParams
    p: float
    level: int
    levels: tuple  # CalibrationLevel, coarsest (n = 0) first


def convergence_diagnostic(
    params: FouParams,
    seed: SeedSpec,
    *,
    delta0: float = 0.5,
    n_max: int = 6,
    horizon: float = 4.0,
    p: float | None = None,
) -> CalibrationDiagnostic:
    """Compare interpolation and inverse calibration across refinements.

    One fractional driver is sampled on a truth grid ``_TRUTH_LEVELS`` dyadic
    levels finer than the finest diagnostic level (delta0 / 2^n_max), and the
    trajectory is solved there exactly by ``forward_map`` of the driver's
    interpolation gradients -- the piecewise-linear solution map that
    ``inverse_calibration`` undoes.  At each dyadic level n = 0..n_max both
    calibrations are computed from the subsampled data and their
    reconstructed drivers are compared in the rough p-variation distance at
    the lift level matching the driver's roughness, so the distance measures
    only the discretisation gap and goes to zero under refinement.

    The finest diagnostic level stays strictly coarser than the truth grid:
    on the truth grid itself the two calibrations agree to roundoff, so its
    distance and gap would be pure rounding noise and the gap-decay slope
    would be fitted to log 0.

    ``p`` defaults to the midpoint of (1/hurst, level+1), the admissible
    rough-path range.
    """
    if delta0 <= 0:
        raise ValueError(f"delta0 must be positive, got {delta0}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    level = lift_level_for_hurst(params.hurst)
    if p is None:
        p = 0.5 * (1.0 / params.hurst + level + 1)
    if not 1.0 / params.hurst < p <= level + 1:
        raise ValueError(
            f"p must lie in (1/hurst, level+1] = "
            f"({1.0 / params.hurst:.4g}, {level + 1}], got {p}"
        )

    theta, sigma, hurst = params.theta, params.sigma, params.hurst
    stride0 = 2 ** (n_max + _TRUTH_LEVELS)
    truth = make_grid(delta0 / stride0, horizon)
    if truth.count % stride0:
        raise ValueError("horizon must hold a whole number of delta0 cells")
    _check_cells(truth.count >> _TRUTH_LEVELS, level)  # the finest level's program

    db = sample_fgn(hurst, truth, seed).values
    driver = Trajectory(truth, np.concatenate([[0.0], np.cumsum(db)]))
    x_truth = forward_map(0.0, interpolation_calibration(driver), theta, sigma)

    out = []
    for n in range(n_max + 1):
        stride = 2 ** (n_max + _TRUTH_LEVELS - n)
        grid_n = truth.coarsen(stride)
        delta_n = grid_n.delta
        b_sub = Trajectory(grid_n, driver.values[::stride])
        x_sub = Trajectory(grid_n, x_truth.values[::stride])

        c_b = interpolation_calibration(b_sub).values
        c_x = inverse_calibration(x_sub, theta, sigma).values
        gap = delta_n * np.abs(c_b - c_x)

        recon = np.concatenate([[0.0], np.cumsum(delta_n * c_x)])
        dist = rough_pvar_distance(
            lift_scalar_path(b_sub.values, level, p),
            lift_scalar_path(recon, level, p),
        )
        out.append(CalibrationLevel(delta_n, dist, float(gap.mean())))

    return CalibrationDiagnostic(params=params, p=p, level=level, levels=tuple(out))
