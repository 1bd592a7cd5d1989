"""Trace statistics of the shifted Gram matrices A_k = Sigma^{-1} C^{k,0} of
fractional Gaussian noise, whose uniform boundedness in the sample size is
conjectured, and the Wick-identity moments of the associated quadratic
forms with a Monte Carlo cross-check.

Every trace comes from one scan cell.  The first N rows of the Toeplitz
window W[r, j] = gamma(|r - j|) are rows of Sigma, so only the prediction
coefficients Sigma^{-1} w_q of X_{N+q} from X_0..X_{N-1} carry information,
and Tr(A_k) sums them; a cell solves for them through the cached
Gohberg-Semencul generator in O(k_max N) memory, forming no Gram matrix.
Monte Carlo draws come from the one circulant fGn engine.

Everything here uses unit step: by self-similarity the covariance at step
delta is delta^{2H} times the unit-step covariance, so every A_k — and
hence every trace — is step-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fgn import FgnCovariance, unit_autocovariance
from .grids import SeedSpec
from .simulate import _unit_stream

__all__ = [
    "ConjectureCell",
    "ScanReport",
    "QMomentResult",
    "SOLVE_CAP",
    "PAIR_CAP",
    "SAMPLE_CAP",
    "conjecture_scan",
    "scan_report",
    "q_moment",
]

SOLVE_CAP = 2**20  # a cell's solved entries (w + k_max) N: ~100 MB peak
PAIR_CAP = 2**32  # a cell's pair multiply-adds (k_max + 1)^2 w^2: ~2 s
SAMPLE_CAP = 2**20  # q_moment's samples * size: ~128 bytes each


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

    def summary(self) -> dict:
        """The per-cell maxima, the flags and the verdict as plain JSON types."""
        return {
            "growth_factor": float(self.growth_factor),
            "cells": [
                {
                    "hurst": float(c.hurst),
                    "size": int(c.size),
                    "trace_zero": c.trace_zero,
                    "max_abs_trace": c.max_abs_trace,
                    "max_abs_pair_trace": c.max_abs_pair_trace,
                }
                for c in self.cells
            ],
            "counterexamples": list(self.counterexamples),
            "ok": self.ok,
        }


def _cell_width(size: int, k_max: int) -> int:
    """w = min(N, 2 k_max + 1), once the cell passes both work bounds."""
    if not 0 <= k_max <= size:
        raise ValueError(f"k_max must lie in [0, {size}], got {k_max}")
    width = min(size, 2 * k_max + 1)
    for work, unit, name, cap in (
        ((width + k_max) * size, "solved entries", "SOLVE_CAP", SOLVE_CAP),
        (((k_max + 1) * width) ** 2, "pair multiply-adds", "PAIR_CAP", PAIR_CAP),
    ):
        if work > cap:
            raise ValueError(
                f"a scan cell at N={size}, k_max={k_max} needs {work} {unit}, "
                f"above {name} = {cap}"
            )
    return width


def _scan_cell(hurst: float, size: int, k_max: int) -> ConjectureCell:
    """Tr(A_k) and Tr(A_k A_l) for k, l = 0..k_max from one solve.

    Rows k..k+N of W[r, j] = gamma(|r - j|) are C^{k,0}, so with M = W
    Sigma^{-1}, Tr(A_k) = trace M[k:k+N] and Tr(A_k A_l) = sum_ij M[k+i, j]
    M[l+j, i].  Rows r < N are rows of Sigma, so M[r] = e_r; the prediction
    coefficients E[q] = M[N+q] give Tr(A_k) = sum_{q<k} E[q][N - k + q] for
    k >= 1, and a term with k + l > 0 needs i, j >= N - k - l.  So one solve
    gives rows N - w..N + k_max - 1 (w = min(N, 2 k_max + 1)), both sums run
    over their last w columns, and the N - w rows left out add N - w to
    Tr(A_0) and Tr(A_0^2).
    """
    width = _cell_width(size, k_max)
    count = k_max + 1
    skip = size - width
    gamma = unit_autocovariance(hurst, np.arange(size + k_max))
    window = gamma[np.abs(np.arange(skip, size + k_max)[:, None] - np.arange(size))]
    # m in the column-major layout the einsum's summation order follows
    mt = np.ascontiguousarray(FgnCovariance(hurst, 1.0, size).solve(window)[:, skip:].T)
    m = mt.T
    traces = np.array([np.trace(m[k : k + width]) for k in range(count)])
    pair = np.empty((count, count))
    for k in range(count):
        for l in range(k, count):
            pair[k, l] = pair[l, k] = np.einsum(
                "ij,ij->", m[k : k + width], mt[:, l : l + width]
            )
    traces[0] += skip
    pair[0, 0] += skip
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
) -> ScanReport:
    """Tabulate Tr(A_k) and Tr(A_k A_l) over a (hurst, size) grid and check
    the boundedness evidence: along increasing sizes at fixed hurst, the
    reported maxima must not grow by more than ``growth_factor`` between
    consecutive sizes.  Violations are collected as flagged counterexample
    reports, never suppressed — the scan is evidence, not proof.  Sizes
    start at 2; the largest cell is checked against the caps first.
    """
    sizes = sorted(set(int(n) for n in sizes))
    if not sizes or not len(hursts):
        raise ValueError("hursts and sizes must be non-empty")
    if sizes[0] < 2:
        raise ValueError(f"size must be >= 2, got {sizes[0]}")
    _cell_width(sizes[-1], min(k_max, sizes[-1]))

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
    ``growth_factor`` (finite and positive)."""
    if not (math.isfinite(growth_factor) and growth_factor > 0):
        raise ValueError(
            f"growth_factor must be finite and positive, got {growth_factor}"
        )
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

        E(Q^{k,0} Q^{l,0}) = Tr(A_k) Tr(A_l) + Tr(A_|k-l|) + Tr(A_k A_l),

    all read from one scan cell at k_max = max(k, l).

    With ``samples`` >= 2, also estimates the moment from that many
    double-length unit-step fGn streams, drawn in turn from ``seed``'s
    generator as the rows of one batch through the circulant engine.
    ``samples`` = 0 (the default) skips the estimate; one sample has no
    standard error and is rejected, and so is a batch of more than
    ``SAMPLE_CAP`` samples * size.
    """
    if not (0 <= k <= size and 0 <= l <= size):
        raise ValueError(f"shifts must lie in [0, {size}], got ({k}, {l})")
    if samples < 0 or samples == 1:
        raise ValueError(f"samples must be 0 or >= 2, got {samples}")
    if samples * size > SAMPLE_CAP:
        raise ValueError(
            f"samples * size {samples * size} is above SAMPLE_CAP = {SAMPLE_CAP}"
        )
    cell = _scan_cell(hurst, size, max(k, l))
    tr = cell.traces
    analytic = float(tr[k] * tr[l] + tr[abs(k - l)] + cell.pair_traces[k, l])
    if samples == 0:
        return QMomentResult(
            hurst=hurst, size=size, k=k, l=l, analytic=analytic
        )

    if seed is None:
        seed = SeedSpec(master=0)
    elif isinstance(seed, int):
        seed = SeedSpec(master=seed)
    draws = _unit_stream([seed.rng()] * samples, hurst, 2 * size)
    base_solved = FgnCovariance(hurst, 1.0, size).solve(draws[:, :size])
    q_k = np.einsum("si,si->s", draws[:, k : k + size], base_solved)
    q_l = np.einsum("si,si->s", draws[:, l : l + size], base_solved)
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
