"""Sampling grids, trajectories and parameter containers.

Conventions used throughout the package:

* a grid holds the N+1 nodes t_k = k*delta for k = 0..N, with the horizon
  T = N*delta kept exactly consistent (N is rounded from T/delta once, at
  construction time);
* trajectories carry node values (length N+1); increment vectors carry one
  value per grid cell (length N);
* randomness is always routed through :class:`SeedSpec`, which derives
  independent, reproducible generator streams from (master, replicate, stream).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NumericFailure",
    "SamplingGrid",
    "Trajectory",
    "IncrementVector",
    "FouParams",
    "MultiscaleParams",
    "SeedSpec",
    "make_grid",
    "increments",
    "second_order_increments",
]


class NumericFailure(RuntimeError):
    """A numerical procedure broke down (non-convergence, indefinite matrix,
    degenerate data).  Distinct from ValueError, which flags invalid inputs."""


def _require_finite(values: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must contain only finite values")


# The most cells a grid may hold, checked before anything is allocated.  A
# sampled path with its profile fit peaks near 160 bytes per cell (a float64
# array is 8; the FFT buffers run at twice the length), so this bounds one
# such call near 2.7 GB.
_MAX_CELLS = 2**24


@dataclass(frozen=True)
class SamplingGrid:
    """Uniform grid t_k = k*delta, k = 0..count, horizon == count*delta."""

    delta: float
    count: int

    def __post_init__(self) -> None:
        if not (self.delta > 0 and np.isfinite(self.delta)):
            raise ValueError(f"grid step must be positive and finite, got {self.delta}")
        if self.count < 1:
            raise ValueError(f"grid needs at least one cell, got count={self.count}")
        if self.count > _MAX_CELLS:
            raise ValueError(
                f"grid of {self.count} cells exceeds the limit of {_MAX_CELLS} cells"
            )

    @property
    def horizon(self) -> float:
        return self.count * self.delta

    @property
    def nodes(self) -> np.ndarray:
        """All N+1 node times, including t_0 = 0."""
        return np.arange(self.count + 1) * self.delta

    def coarsen(self, factor: int) -> "SamplingGrid":
        """Keep every `factor`-th node; count must divide evenly."""
        if factor < 1 or self.count % factor:
            raise ValueError(f"cannot coarsen a {self.count}-cell grid by {factor}")
        return SamplingGrid(self.delta * factor, self.count // factor)


def make_grid(delta: float, horizon: float) -> SamplingGrid:
    """Build the grid covering [0, horizon] with step delta.

    The cell count is rounded from horizon/delta and the stored horizon is
    N*delta exactly, so T = N*delta holds to the last bit in everything built
    on top (likelihood normalisations rely on this).
    """
    if not (delta > 0 and np.isfinite(delta)):
        raise ValueError(f"grid step must be positive and finite, got {delta}")
    if not (horizon > 0 and np.isfinite(horizon)):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    ratio = horizon / delta
    if not np.isfinite(ratio):
        raise ValueError(f"horizon {horizon} over step {delta} gives no finite cell count")
    count = int(round(ratio))
    if count < 1:
        raise ValueError(f"horizon {horizon} is shorter than half a step {delta}")
    return SamplingGrid(delta, count)


@dataclass(frozen=True)
class Trajectory:
    """Values observed at every node of a grid (length count+1)."""

    grid: SamplingGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.shape[0] != self.grid.count + 1:
            raise ValueError(
                f"trajectory needs {self.grid.count + 1} node values, "
                f"got shape {values.shape}"
            )
        _require_finite(values, "trajectory values")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class IncrementVector:
    """One value per grid cell (length count), e.g. first differences."""

    grid: SamplingGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.shape[0] != self.grid.count:
            raise ValueError(
                f"increment vector needs {self.grid.count} cell values, "
                f"got shape {values.shape}"
            )
        _require_finite(values, "increment values")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.shape[0]


def increments(trajectory: Trajectory) -> IncrementVector:
    """First differences x_k - x_{k-1}, one per cell."""
    return IncrementVector(trajectory.grid, np.diff(trajectory.values))


def second_order_increments(trajectory: Trajectory) -> np.ndarray:
    """Second differences x_k - 2 x_{k-1} + x_{k-2} for k = 2..N (length N-1).

    Returns a bare array: the result lives on no natural grid.
    """
    if trajectory.grid.count < 2:
        raise ValueError("second differences need at least two cells")
    x = trajectory.values
    return x[2:] - 2.0 * x[1:-1] + x[:-2]


@dataclass(frozen=True)
class FouParams:
    """Mean-reversion theta >= 0, scale sigma > 0, Hurst index in (0, 1)."""

    theta: float
    sigma: float
    hurst: float

    def __post_init__(self) -> None:
        if not (self.theta >= 0 and np.isfinite(self.theta)):
            raise ValueError(f"theta must be >= 0 and finite, got {self.theta}")
        if not (self.sigma > 0 and np.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not 0.0 < self.hurst < 1.0:
            raise ValueError(f"hurst must lie in (0, 1), got {self.hurst}")


@dataclass(frozen=True)
class MultiscaleParams:
    """Parameters of the slow/fast system: scale sigma, Hurst index, scale
    separation epsilon."""

    sigma: float
    hurst: float
    epsilon: float

    def __post_init__(self) -> None:
        if not (self.sigma > 0 and np.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not 0.0 < self.hurst < 1.0:
            raise ValueError(f"hurst must lie in (0, 1), got {self.hurst}")
        if not (self.epsilon > 0 and np.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


# Sub-stream offsets used with SeedSpec.rng; keep these stable, they are part
# of the reproducibility contract.
STREAM_DRIVER = 0  # fractional Gaussian driver
STREAM_BROWNIAN = 1  # independent Brownian component (fast noise)
STREAM_AUX = 2  # auxiliary draws (Monte-Carlo moment sampling etc.)


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus replicate index; derives independent RNG streams.

    Every (master, replicate, stream) triple maps to its own
    ``numpy.random.Generator`` via SeedSequence spawn keys, so replicates can
    run in any order (or in parallel) and still reproduce bit-identically.
    """

    master: int
    replicate: int = 0

    def __post_init__(self) -> None:
        if self.master < 0:
            raise ValueError(f"master seed must be >= 0, got {self.master}")
        if self.replicate < 0:
            raise ValueError(f"replicate index must be >= 0, got {self.replicate}")

    def rng(self, stream: int = STREAM_DRIVER) -> np.random.Generator:
        if stream < 0:
            raise ValueError(f"stream offset must be >= 0, got {stream}")
        seq = np.random.SeedSequence(
            entropy=self.master, spawn_key=(self.replicate, stream)
        )
        return np.random.default_rng(seq)

    def child(self, replicate: int) -> "SeedSpec":
        """Same master, different replicate index."""
        return SeedSpec(self.master, replicate)
