"""Plug-in estimators for the multiscale regime: the whitened quadratic
variance estimator, its closed-form expectation under the two-scale model
at hurst 1/2, the second-difference ratio estimator of the hurst exponent,
and the admissible subsampling exponents for consistency and for the CLT.
"""

from __future__ import annotations

import math

import numpy as np

from .fgn import FgnCovariance, _checked_covariance
from .grids import NumericFailure, SamplingGrid, Trajectory, second_order_increments

__all__ = [
    "sigma2_hat",
    "sigma2_hat_rows",
    "hurst_hat",
    "expected_bias_h_half",
    "admissible_alpha",
    "decimated",
]


def sigma2_hat(
    trajectory: Trajectory, hurst: float, *, cov: FgnCovariance | None = None
) -> float:
    """Whitened quadratic estimator of sigma^2 from one trajectory:
    (1/N) dx' Sigma^{-1} dx with Sigma the fGn increment covariance at the
    observation step and the supplied hurst."""
    return sigma2_hat_rows(trajectory.values, trajectory.grid, hurst, cov=cov)


def sigma2_hat_rows(
    values: np.ndarray, grid: SamplingGrid, hurst: float, *, cov: FgnCovariance | None = None
) -> float | np.ndarray:
    """:func:`sigma2_hat` of each row of (rows, count + 1) node values on
    ``grid``, row j equal to it bit for bit, through one batched quadratic
    form (a float for 1-D ``values``)."""
    cov = _checked_covariance(hurst, grid, cov)
    dx = np.diff(values, axis=-1)
    return cov.quadratic_form(dx) / grid.count


def expected_bias_h_half(sigma: float, epsilon: float, delta: float) -> float:
    """Exact expectation of sigma2_hat at hurst 1/2 when the data are the
    two-scale trajectory x = sigma B - eps^H (Y - Y_0):

        sigma^2 * (1 + (eps/delta) * (e^{-delta/eps} - 1)).

    The deficit vanishes as eps/delta -> 0 and the expectation tends to
    zero as eps/delta -> infinity (pure fast-component data)."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if epsilon <= 0 or delta <= 0:
        raise ValueError("epsilon and delta must be positive")
    r = epsilon / delta
    return sigma * sigma * (1.0 + r * math.expm1(-delta / epsilon))


def hurst_hat(fine: Trajectory) -> float:
    """Second-difference ratio estimator of the hurst exponent.

    ``fine`` is the trajectory observed at half the target step (an even
    number of cells); the target-step trajectory is its decimation by two.
    With S_f and S_c the sums of squared second-order increments at the
    fine and coarse steps,

        H_hat = 1/2 - log(S_f / S_c) / (2 log 2).
    """
    if fine.grid.count % 2 != 0 or fine.grid.count < 4:
        raise ValueError(
            "fine trajectory must have an even cell count >= 4, got "
            f"{fine.grid.count}"
        )
    s_fine = float(np.sum(second_order_increments(fine) ** 2))
    s_coarse = float(np.sum(second_order_increments(decimated(fine)) ** 2))
    if s_fine <= 0.0 or s_coarse <= 0.0:
        raise NumericFailure(
            "degenerate trajectory: a second-difference sum vanished"
        )
    return 0.5 - math.log(s_fine / s_coarse) / (2.0 * math.log(2.0))


def admissible_alpha(hurst: float, kind: str = "consistency") -> tuple[float, float]:
    """Open interval of subsampling exponents alpha (delta = eps^alpha)
    for which the estimators behave as requested as eps -> 0.

    kind="consistency": (0, min(1, H/(1-H)))
    kind="clt":         (0, min(H/(1/2+H), H/(3/2-H)))
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    if kind == "consistency":
        hi = min(1.0, hurst / (1.0 - hurst))
    elif kind == "clt":
        hi = min(hurst / (0.5 + hurst), hurst / (1.5 - hurst))
    else:
        raise ValueError(f"kind must be 'consistency' or 'clt', got {kind!r}")
    return (0.0, hi)


def decimated(fine: Trajectory) -> Trajectory:
    """The trajectory observed at every other node of ``fine``."""
    if fine.grid.count % 2 != 0:
        raise ValueError("decimation requires an even cell count")
    return Trajectory(grid=fine.grid.coarsen(2), values=fine.values[::2].copy())
