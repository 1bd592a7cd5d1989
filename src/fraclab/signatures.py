"""Truncated tensor algebra (levels <= 3), piecewise-linear signatures,
shuffle identities, p-variation norms and the rough p-variation distance
between scalar lifts.

Signatures of a path in R^d live in the truncated algebra
1 + V + V^2 + V^3; a straight segment with increment v has the exponential
signature (1, v, v x v / 2, v x v x v / 6), and signatures of concatenated
paths multiply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TruncatedTensor",
    "tensor_unit",
    "tensor_multiply",
    "segment_signature",
    "pwl_signature",
    "shuffles",
    "shuffle_residual",
    "p_variation_norm",
    "ScalarRoughLift",
    "lift_level_for_hurst",
    "lift_scalar_path",
    "rough_pvar_distance",
    "holder_distance",
]

_MAX_LEVEL = 3
_DP_BLOCK = 32  # columns per block of the p-variation program: O(32 N) memory


def _check_level(level: int) -> None:
    if not 1 <= level <= _MAX_LEVEL:
        raise ValueError(f"level must be in 1..{_MAX_LEVEL}, got {level}")


@dataclass(frozen=True)
class TruncatedTensor:
    """Element of the tensor algebra truncated at `level`.

    ``data[m]`` is the level-m component: a scalar for m = 0, an array of
    shape (dim,)*m for m >= 1.
    """

    dim: int
    level: int
    data: tuple

    def __post_init__(self) -> None:
        _check_level(self.level)
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if len(self.data) != self.level + 1:
            raise ValueError(
                f"need {self.level + 1} components for level {self.level}, "
                f"got {len(self.data)}"
            )
        comps = [float(self.data[0])]
        for m in range(1, self.level + 1):
            arr = np.asarray(self.data[m], dtype=float)
            if arr.shape != (self.dim,) * m:
                raise ValueError(
                    f"level-{m} component must have shape {(self.dim,) * m}, "
                    f"got {arr.shape}"
                )
            comps.append(arr)
        object.__setattr__(self, "data", tuple(comps))

    def coordinate(self, word: tuple) -> float:
        """Coefficient of the (possibly empty) word of letters in 0..dim-1."""
        m = len(word)
        if m > self.level:
            raise ValueError(f"word {word} exceeds truncation level {self.level}")
        if any(not 0 <= w < self.dim for w in word):
            raise ValueError(f"word {word} has letters outside 0..{self.dim - 1}")
        if m == 0:
            return float(self.data[0])
        return float(self.data[m][word])


def tensor_unit(dim: int, level: int) -> TruncatedTensor:
    """Multiplicative unit (1, 0, 0, ...)."""
    _check_level(level)
    comps = [1.0] + [np.zeros((dim,) * m) for m in range(1, level + 1)]
    return TruncatedTensor(dim, level, tuple(comps))


def tensor_multiply(a: TruncatedTensor, b: TruncatedTensor) -> TruncatedTensor:
    """Truncated tensor product: level-m component sum_{i+j=m} a_i x b_j."""
    if a.dim != b.dim or a.level != b.level:
        raise ValueError(
            f"mismatched operands: ({a.dim}, level {a.level}) vs "
            f"({b.dim}, level {b.level})"
        )
    out = [a.data[0] * b.data[0]]
    for m in range(1, a.level + 1):
        acc = np.zeros((a.dim,) * m)
        for i in range(m + 1):
            left, right = a.data[i], b.data[m - i]
            if i == 0 or i == m:
                acc += left * right  # scalar times tensor
            else:
                acc += np.multiply.outer(left, right)
        out.append(acc)
    return TruncatedTensor(a.dim, a.level, tuple(out))


def segment_signature(increment: np.ndarray, level: int) -> TruncatedTensor:
    """Signature of a straight segment: the tensor exponential of its
    increment, level-m component increment^(x m) / m!."""
    _check_level(level)
    v = np.atleast_1d(np.asarray(increment, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"increment must be a vector, got shape {v.shape}")
    comps: list = [1.0]
    power = 1.0
    for m in range(1, level + 1):
        power = np.multiply.outer(power, v) if m > 1 else v.copy()
        comps.append(power / math.factorial(m))
    return TruncatedTensor(v.shape[0], level, tuple(comps))


def pwl_signature(samples: np.ndarray, level: int, start: int = 0, stop: int | None = None) -> TruncatedTensor:
    """Signature of the piecewise-linear path through `samples` (rows are
    points in R^d) over the node range [start, stop]."""
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("need at least two sample points")
    stop = pts.shape[0] - 1 if stop is None else stop
    if not 0 <= start <= stop <= pts.shape[0] - 1:
        raise ValueError(f"bad node range [{start}, {stop}]")
    sig = tensor_unit(pts.shape[1], level)
    for j in range(start, stop):
        sig = tensor_multiply(sig, segment_signature(pts[j + 1] - pts[j], level))
    return sig


def shuffles(w1: tuple, w2: tuple):
    """All interleavings of the two words, preserving internal order
    (with multiplicity)."""
    if not w1:
        yield w2
        return
    if not w2:
        yield w1
        return
    for rest in shuffles(w1[1:], w2):
        yield (w1[0],) + rest
    for rest in shuffles(w1, w2[1:]):
        yield (w2[0],) + rest


def shuffle_residual(sig: TruncatedTensor, w1: tuple, w2: tuple) -> float:
    """|Z^{w1} Z^{w2} - sum over shuffles Z^w|; zero for genuine signatures."""
    if len(w1) + len(w2) > sig.level:
        raise ValueError(
            f"|w1| + |w2| = {len(w1) + len(w2)} exceeds truncation level {sig.level}"
        )
    product = sig.coordinate(w1) * sig.coordinate(w2)
    total = sum(sig.coordinate(w) for w in shuffles(w1, w2))
    return abs(product - total)


def p_variation_norm(values: np.ndarray, p: float) -> float:
    """p-variation of the piecewise-linear path through `values`, with
    partition points restricted to the sample nodes:

        sup over partitions ( sum |z_{t_{i+1}} - z_{t_i}|^p )^(1/p)

    computed exactly by an O(N^2) dynamic program over the nodes.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    z = np.asarray(values, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    if z.ndim != 2 or z.shape[0] < 2:
        raise ValueError("need at least two sample points")
    if not np.all(np.isfinite(z)):
        raise ValueError("values must be finite")

    def gain_rows(lo, hi):
        return np.linalg.norm(z[lo:hi, None] - z[:hi], axis=2)

    return _pvar_sup(gain_rows, z.shape[0] - 1, p) ** (1.0 / p)


def _pvar_sup(gain_rows, n: int, q: float) -> float:
    """sup over node partitions of sum |D(t_i, t_{i+1})|^q for a general
    two-parameter function D, read in column blocks: gain_rows(lo, hi) is a
    (hi - lo) x hi array whose row j - lo holds |D(i, j)| at column i < j.

    best[j] = max over i < j of best[i] + |D(i, j)|^q: one vectorised max over
    the i before each block, then the in-block i one column at a time.  max is
    exact, so this is bit-identical to a column-by-column walk.
    """
    best = np.zeros(n + 1)
    for lo in range(1, n + 1, _DP_BLOCK):
        hi = min(lo + _DP_BLOCK, n + 1)
        gains = gain_rows(lo, hi) ** q
        block = np.max(gains[:, :lo] + best[:lo], axis=1)
        for k in range(1, hi - lo):  # block[k - 1] is final: extend it by one step
            np.maximum(block[k:], gains[k:, lo + k - 1] + block[k - 1], out=block[k:])
        best[lo:hi] = block
    return float(best[n])


def lift_level_for_hurst(hurst: float) -> int:
    """Truncation level needed to lift a path of this roughness: 2 above
    1/3, 3 down to (and excluding) 1/4."""
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    if hurst > 1.0 / 3.0:
        return 2
    if hurst > 0.25:
        return 3
    raise ValueError(
        f"hurst {hurst} <= 1/4 needs truncation beyond level {_MAX_LEVEL}"
    )


@dataclass(frozen=True)
class ScalarRoughLift:
    """Canonical lift of a scalar piecewise-linear path: over [s, t] the
    level-m entry is (z_t - z_s)^m / m!."""

    samples: np.ndarray
    level: int
    p: float

    def __post_init__(self) -> None:
        _check_level(self.level)
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        z = np.asarray(self.samples, dtype=float)
        if z.ndim != 1 or z.shape[0] < 2:
            raise ValueError("samples must be a 1-d array of >= 2 points")
        if not np.all(np.isfinite(z)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", z)


def lift_scalar_path(samples: np.ndarray, level: int, p: float) -> ScalarRoughLift:
    return ScalarRoughLift(samples, level, p)


def _check_lift_pair(a: ScalarRoughLift, b: ScalarRoughLift) -> None:
    if a.samples.shape != b.samples.shape:
        raise ValueError("lifts must share the sample count")
    if a.level != b.level or a.p != b.p:
        raise ValueError("lifts must share level and p")


def _lift_gaps(a: ScalarRoughLift, b: ScalarRoughLift, m: int):
    """Column blocks of |D_m(i, j)|, the difference of the two lifts'
    level-m entries over [t_i, t_j], in the layout `_pvar_sup` reads."""
    za, zb = a.samples, b.samples
    fact = math.factorial(m)

    def gain_rows(lo, hi):
        da = (za[lo:hi, None] - za[:hi]) ** m
        db = (zb[lo:hi, None] - zb[:hi]) ** m
        return np.abs(da - db) / fact

    return gain_rows


def rough_pvar_distance(a: ScalarRoughLift, b: ScalarRoughLift) -> float:
    """Inhomogeneous p-variation distance between two scalar lifts:

        max over levels m <= level of
            ( sup over partitions sum |D_m(t_i, t_{i+1})|^(p/m) )^(m/p)

    where D_m(s, t) is the difference of level-m entries over [s, t].
    """
    _check_lift_pair(a, b)
    n = a.samples.shape[0] - 1
    worst = 0.0
    for m in range(1, a.level + 1):
        worst = max(worst, _pvar_sup(_lift_gaps(a, b, m), n, a.p / m) ** (m / a.p))
    return worst


def holder_distance(
    a: ScalarRoughLift,
    b: ScalarRoughLift,
    alpha: float,
    times: np.ndarray | None = None,
) -> float:
    """Holder-type distance diagnostic:

        max over levels m of  sup_{s < t} |D_m(s, t)|^(1/m) / (t - s)^alpha.

    `times` defaults to unit spacing.
    """
    _check_lift_pair(a, b)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    n = a.samples.shape[0] - 1
    t = np.arange(n + 1, dtype=float) if times is None else np.asarray(times, float)
    if t.shape != (n + 1,) or not np.all(np.diff(t) > 0):  # NaN fails too
        raise ValueError("times must be strictly increasing with one entry per node")
    worst = 0.0
    for m in range(1, a.level + 1):
        gain_rows = _lift_gaps(a, b, m)
        for lo in range(1, n + 1, _DP_BLOCK):
            hi = min(lo + _DP_BLOCK, n + 1)
            span = t[lo:hi, None] - t[:hi]
            below = span > 0  # the pairs i < j
            ratio = gain_rows(lo, hi) ** (1.0 / m) / np.where(below, span, 1.0) ** alpha
            worst = max(worst, float(ratio[below].max()))
    return worst
