"""Shifted Gram matrices of fractional Gaussian noise, the trace
statistics whose uniform boundedness in the sample size is conjectured,
and the Wick-identity moments of the associated quadratic forms with a
Monte Carlo cross-check.

Everything here uses unit step: by self-similarity the covariance at step
delta is delta^{2H} times the unit-step covariance, so every Gram matrix
G = Sigma^{-1} C — and hence every trace — is step-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg as sla

from .fgn import FgnCovariance, unit_autocovariance
from .grids import NumericFailure, SeedSpec

__all__ = [
    "ShiftGram",
    "ConjectureCell",
    "ScanReport",
    "QMomentResult",
    "build_shift_gram",
    "cross_covariance_window",
    "shift_gram_stack",
    "conjecture_scan",
    "scan_report",
    "q_moment",
]

#: Default cap on the base size N; the scan cost is O(N^3) per cell and the
#: Gram stack is (k_max + 1) dense N x N blocks.
DEFAULT_SIZE_CAP = 512


def _big_covariance(hurst: float, size: int) -> np.ndarray:
    """Unit-step fGn covariance over a window of 2 * size increments."""
    lags = np.arange(2 * size)
    return sla.toeplitz(unit_autocovariance(hurst, lags))


def cross_covariance_window(hurst: float, size: int, k: int, l: int) -> np.ndarray:
    """C^{k,l}: the (k, l) block window of the double-length covariance,
    i.e. Cov(shift-by-k increments, shift-by-l increments)."""
    if not (0 <= k <= size and 0 <= l <= size):
        raise ValueError(f"shifts must lie in [0, {size}], got ({k}, {l})")
    big = _big_covariance(hurst, size)
    return big[k : k + size, l : l + size].copy()


@dataclass(frozen=True)
class ShiftGram:
    """G^{k,0} = Sigma^{-1} C^{k,0} at unit step."""

    hurst: float
    size: int
    shift: int
    matrix: np.ndarray = field(repr=False)

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))

    def pair_trace(self, other: "ShiftGram") -> float:
        """Tr(G^{k,0} G^{l,0})."""
        if (other.hurst, other.size) != (self.hurst, self.size):
            raise ValueError("pair trace requires matching (hurst, size)")
        # Tr(A B) = sum_ij A_ij B_ji
        return float(np.sum(self.matrix * other.matrix.T))


def build_shift_gram(
    hurst: float, size: int, shift: int, *, cov: FgnCovariance | None = None
) -> ShiftGram:
    """Solve Sigma G = C^{shift,0} column-wise."""
    if not 0 <= shift <= size:
        raise ValueError(f"shift must lie in [0, {size}], got {shift}")
    if cov is None:
        cov = FgnCovariance(hurst, 1.0, size)
    window = cross_covariance_window(hurst, size, shift, 0)
    return ShiftGram(hurst=hurst, size=size, shift=shift, matrix=cov.solve(window))


def shift_gram_stack(
    hurst: float, size: int, k_max: int, *, cov: FgnCovariance | None = None
) -> np.ndarray:
    """All G^{k,0} for k = 0..k_max as one (k_max + 1, size, size) array:
    Sigma^{-1} is formed once by solving the identity, then applied to every
    window by one batched GEMM."""
    if not 0 <= k_max <= size:
        raise ValueError(f"k_max must lie in [0, {size}], got {k_max}")
    if cov is None:
        cov = FgnCovariance(hurst, 1.0, size)
    big = _big_covariance(hurst, size)
    windows = np.stack([big[k : k + size, :size] for k in range(k_max + 1)])
    return cov.solve(np.eye(size)) @ windows


@dataclass(frozen=True)
class ConjectureCell:
    """Trace table for one (hurst, size): traces[k] = Tr(A_k) and
    pair_traces[k, l] = Tr(A_k A_l) for shifts 0..k_max."""

    hurst: float
    size: int
    shifts: np.ndarray = field(repr=False)
    traces: np.ndarray = field(repr=False)
    pair_traces: np.ndarray = field(repr=False)

    @property
    def trace_zero(self) -> float:
        return float(self.traces[0])

    @property
    def max_abs_trace(self) -> float:
        """max over k >= 1 of |Tr(A_k)|."""
        return float(np.max(np.abs(self.traces[1:]))) if len(self.traces) > 1 else 0.0

    @property
    def max_abs_pair_trace(self) -> float:
        """max over k != l of |Tr(A_k A_l)|."""
        p = self.pair_traces
        if p.shape[0] < 2:
            return 0.0
        off = np.abs(p[~np.eye(p.shape[0], dtype=bool)])
        return float(np.max(off))


@dataclass(frozen=True)
class ScanReport:
    cells: list[ConjectureCell]
    growth_factor: float
    counterexamples: list[str]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _scan_cell(hurst: float, size: int, k_max: int) -> ConjectureCell:
    grams = shift_gram_stack(hurst, size, k_max)
    count = k_max + 1
    traces = np.einsum("kii->k", grams)
    # Tr(G^k G^l) = vec(G^k) . vec((G^l)^T): one GEMM over the whole stack
    flat = grams.reshape(count, size * size)
    flat_t = grams.transpose(0, 2, 1).reshape(count, size * size)
    pair = flat @ flat_t.T
    pair = 0.5 * (pair + pair.T)  # symmetrise away roundoff
    return ConjectureCell(
        hurst=hurst,
        size=size,
        shifts=np.arange(count),
        traces=traces,
        pair_traces=pair,
    )


def conjecture_scan(
    hursts: Sequence[float],
    sizes: Sequence[int],
    k_max: int = 16,
    *,
    growth_factor: float = 1.5,
    max_size: int = DEFAULT_SIZE_CAP,
) -> ScanReport:
    """Tabulate Tr(A_k) and Tr(A_k A_l) over a (hurst, size) grid and check
    the boundedness evidence: along increasing sizes at fixed hurst, the
    reported maxima must not grow by more than ``growth_factor`` between
    consecutive sizes.  Violations are collected as flagged counterexample
    reports, never suppressed — the scan is evidence, not proof.
    """
    sizes = sorted(set(int(n) for n in sizes))
    if not sizes or not len(hursts):
        raise ValueError("hursts and sizes must be non-empty")
    for n in sizes:
        if n < 2:
            raise ValueError(f"size must be >= 2, got {n}")
        if n > max_size:
            raise ValueError(
                f"size {n} exceeds the scan cap {max_size}; pass max_size to override"
            )
    if growth_factor <= 0:
        raise ValueError(f"growth_factor must be positive, got {growth_factor}")

    cells = [
        _scan_cell(hurst, n, min(k_max, n)) for hurst in hursts for n in sizes
    ]
    return scan_report(cells, growth_factor)


def scan_report(
    cells: Sequence[ConjectureCell], growth_factor: float = 1.5
) -> ScanReport:
    """Check scanned cells for the boundedness evidence: Tr(A_0) = N to
    1e-6 relative in every cell and, from each cell to the next one of the
    same hurst at a larger size, maxima that grow by at most
    ``growth_factor``."""
    flags: list[str] = []
    for prev, cur in zip([None, *cells], cells):
        n = cur.size
        rel = abs(cur.trace_zero - n) / n
        if rel > 1e-6:
            flags.append(
                f"identity check failed: H={cur.hurst} N={n} Tr(A_0)={cur.trace_zero!r} "
                f"(relative error {rel:.3e})"
            )
        if prev is None or prev.hurst != cur.hurst or prev.size >= cur.size:
            continue
        for label, lo_val, hi_val in (
            ("max|Tr(A_k)|", prev.max_abs_trace, cur.max_abs_trace),
            (
                "max|Tr(A_k A_l)|",
                prev.max_abs_pair_trace,
                cur.max_abs_pair_trace,
            ),
        ):
            # the tiny floor keeps exactly-zero tables (hurst 1/2) from
            # flagging on roundoff noise
            if hi_val > growth_factor * max(lo_val, 1e-8):
                flags.append(
                    "potential counterexample: "
                    f"H={prev.hurst} {label} grew {prev.size}->{cur.size} "
                    f"from {lo_val:.6g} to {hi_val:.6g} "
                    f"(factor > {growth_factor})"
                )
    return ScanReport(
        cells=list(cells), growth_factor=growth_factor, counterexamples=flags
    )


@dataclass(frozen=True)
class QMomentResult:
    """E(Q^{k,0} Q^{l,0}) by the Wick trace identity, with an optional
    Monte Carlo estimate and its standard error."""

    hurst: float
    size: int
    k: int
    l: int
    analytic: float
    monte_carlo: float | None = None
    std_error: float | None = None
    samples: int = 0


def q_moment(
    hurst: float,
    size: int,
    k: int,
    l: int,
    *,
    samples: int = 0,
    seed: SeedSpec | int | None = None,
) -> QMomentResult:
    """Second moment of the shifted quadratic forms
    Q^{k,0} = (shift-by-k increments)' Sigma^{-1} (increments):

        E(Q^{k,0} Q^{l,0}) = Tr(G^{k,0}) Tr(G^{l,0}) + Tr(G^{|k-l|,0})
                             + Tr(G^{k,0} G^{l,0}).

    With ``samples`` > 0, also estimates the moment from that many
    double-length unit-step fGn draws.
    """
    if not (0 <= k <= size and 0 <= l <= size):
        raise ValueError(f"shifts must lie in [0, {size}], got ({k}, {l})")
    cov = FgnCovariance(hurst, 1.0, size)
    gram_k = build_shift_gram(hurst, size, k, cov=cov)
    gram_l = gram_k if l == k else build_shift_gram(hurst, size, l, cov=cov)
    gram_d = build_shift_gram(hurst, size, abs(k - l), cov=cov)
    analytic = (
        gram_k.trace * gram_l.trace + gram_d.trace + gram_k.pair_trace(gram_l)
    )
    if samples <= 0:
        return QMomentResult(
            hurst=hurst, size=size, k=k, l=l, analytic=analytic
        )

    if seed is None:
        seed = SeedSpec(master=0)
    elif isinstance(seed, int):
        seed = SeedSpec(master=seed)
    rng = seed.rng()
    big = _big_covariance(hurst, size)
    try:
        low = sla.cholesky(big, lower=True)
    except sla.LinAlgError as exc:  # pragma: no cover - same guard as FgnCovariance
        raise NumericFailure(
            f"double-length fGn covariance (H={hurst}, N={size}) failed to factor: {exc}"
        ) from exc
    draws = rng.standard_normal((samples, 2 * size)) @ low.T
    base_solved = cov.solve(draws[:, :size].T)  # (size, samples)
    q_k = np.einsum("si,is->s", draws[:, k : k + size], base_solved)
    q_l = np.einsum("si,is->s", draws[:, l : l + size], base_solved)
    prod = q_k * q_l
    mc = float(np.mean(prod))
    se = float(np.std(prod, ddof=1) / math.sqrt(samples))
    return QMomentResult(
        hurst=hurst,
        size=size,
        k=k,
        l=l,
        analytic=analytic,
        monte_carlo=mc,
        std_error=se,
        samples=samples,
    )
