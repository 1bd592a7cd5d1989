"""Deterministic one-dimensional minimisation: a coarse uniform grid seeds a
golden-section refinement, used by the averaging-loss estimator."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["golden_section_minimize"]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


def golden_section_minimize(
    fn,
    lo: float,
    hi: float,
    *,
    tol: float = 1e-8,
    coarse: int = 64,
) -> tuple[float, float]:
    """Minimise fn on [lo, hi]: evaluate a `coarse`-point uniform grid, then
    golden-section the bracketing interval down to width `tol`.

    Returns (argmin, min).  Deterministic: no randomness, fixed evaluation
    order.  Intended for continuous unimodal-ish objectives; for multimodal
    ones the coarse grid picks the basin.
    """
    if not (hi > lo):
        raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
    if coarse < 2:
        raise ValueError(f"coarse grid needs >= 2 points, got {coarse}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")

    xs = np.linspace(lo, hi, coarse)
    vals = np.array([fn(x) for x in xs], dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = xs[~np.isfinite(vals)][0]
        raise ValueError(f"objective is not finite at {bad}")
    idx = int(np.argmin(vals))
    best_x, best_f = float(xs[idx]), float(vals[idx])

    a = float(xs[max(idx - 1, 0)])
    b = float(xs[min(idx + 1, coarse - 1)])

    h = b - a
    if h <= tol:
        return best_x, best_f
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc, fd = fn(c), fn(d)
    while h > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = fn(d)
    for x, f in ((c, fc), (d, fd)):
        if f < best_f:
            best_x, best_f = float(x), float(f)
    return best_x, best_f
