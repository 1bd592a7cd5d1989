"""Trajectory fitting estimation for the linear slow/fast instance: the
averaged dynamics solve dX = -theta X dt, so the averaged trajectory is a
closed-form exponential, the fitting loss is a sum of squared node gaps,
and the estimator is its minimiser over a drift interval: a coarse grid,
then bracketed Newton steps on the closed-form derivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import NumericFailure, SamplingGrid, Trajectory
from .simulate import TfeSystemSample

__all__ = [
    "TfeInstance",
    "averaged_trajectory",
    "tfe_loss",
    "tfe_estimate",
    "sup_node_error",
]

_GRID_POINTS = 64  # the coarse drift grid: its minimiser picks the basin
_GRID_BLOCK = 2**16  # (drift, node) pairs per block of grid losses: O(n) scratch
_MAX_STEPS = 50  # Newton steps; bisection alone narrows a bracket by 2^-50


@dataclass(frozen=True)
class TfeInstance:
    """One estimation problem: the reference drift, the initial slow state,
    and the closed search interval for the drift."""

    theta: float
    x0: float
    bounds: tuple[float, float] = (0.0, 10.0)

    def __post_init__(self):
        if self.theta <= 0 or not np.isfinite(self.theta):
            raise ValueError(f"theta must be positive, got {self.theta}")
        lo, hi = self.bounds
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"bounds must be a nonempty interval, got {self.bounds}")


def averaged_trajectory(theta: float, x0: float, grid: SamplingGrid) -> Trajectory:
    """Solution of the averaged dynamics: x0 * e^{-theta t} at every node."""
    if theta < 0 or not np.isfinite(theta):
        raise ValueError(f"theta must be >= 0, got {theta}")
    return Trajectory(grid=grid, values=x0 * np.exp(-theta * grid.nodes))


def tfe_loss(theta: float, data: Trajectory) -> float:
    """Sum over interior and final nodes of the squared gap between the data
    and the averaged trajectory started from the data's initial value."""
    if theta < 0 or not np.isfinite(theta):
        raise ValueError(f"theta must be >= 0, got {theta}")
    x0 = float(data.values[0])
    nodes = data.grid.nodes[1:]
    fitted = x0 * np.exp(-theta * nodes)
    return float(np.sum((data.values[1:] - fitted) ** 2))


def tfe_estimate(data: Trajectory, instance: TfeInstance) -> float:
    """argmin of the fitting loss L over the drift interval cut to [0, inf):
    the grid linspace(lo, hi, 64) picks the basin, then safeguarded Newton on
    the closed-form L' refines it inside its grid neighbours' bracket,
    bisecting when a step leaves the bracket or L'' <= 0.  Returns the
    lowest-loss point evaluated, never above the grid minimum, so a minimum
    at a bound is that bound exactly.  NumericFailure if L is flat."""
    lo, hi = max(instance.bounds[0], 0.0), instance.bounds[1]
    if not hi > lo:
        raise ValueError(f"bounds must intersect [0, inf), got {instance.bounds}")
    x0, x, t = float(data.values[0]), data.values[1:], data.grid.nodes[1:]
    grid = np.linspace(lo, hi, _GRID_POINTS)
    rows = max(1, _GRID_BLOCK // t.size)
    losses = np.concatenate([
        np.sum((x - x0 * np.exp(-np.outer(grid[i : i + rows], t))) ** 2, axis=1)
        for i in range(0, _GRID_POINTS, rows)
    ])
    if not np.isfinite(losses).all():
        raise ValueError("fitting loss overflows: the data are too large")
    if losses.max() - losses.min() == 0.0:
        raise NumericFailure(
            f"flat fitting loss: at initial state x0={x0!r} the fitted path "
            "x0 e^(-theta t) does not change with theta, so no drift fits best"
        )
    i = int(np.argmin(losses))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, _GRID_POINTS - 1)]
    theta, best, best_loss = grid[i], grid[i], losses[i]
    for _ in range(_MAX_STEPS):
        fitted = x0 * np.exp(-theta * t)
        r = x - fitted
        loss = float(np.sum(r**2))  # as tfe_loss computes it
        if loss < best_loss:
            best, best_loss = theta, loss
        dr = t * fitted  # dr/dtheta; d2r/dtheta2 = -t dr
        slope, curv = r @ dr, dr @ (dr - t * r)  # L'/2, L''/2
        if slope == 0.0:
            break
        a, b = (a, theta) if slope > 0.0 else (theta, b)
        newton = curv > 0.0 and a <= theta - slope / curv <= b
        step = theta - slope / curv if newton else 0.5 * (a + b)
        if abs(step - theta) <= 1e-12 * max(1.0, theta):
            break
        theta = step
    return float(best)


def sup_node_error(sample: TfeSystemSample) -> float:
    """Strong-averaging diagnostic: the largest node gap between the sampled
    slow path and the averaged trajectory at the generating drift."""
    averaged = averaged_trajectory(
        sample.theta, float(sample.slow.values[0]), sample.grid
    )
    return float(np.max(np.abs(sample.slow.values - averaged.values)))
