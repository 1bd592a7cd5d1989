"""Truncated tensor algebra (levels <= 3), piecewise-linear signatures,
shuffle identities, p-variation norms and the rough p-variation distance
between scalar lifts.

Signatures of a path in R^d live in the truncated algebra
1 + V + V^2 + V^3; a straight segment with increment v has the exponential
signature (1, v, v x v / 2, v x v x v / 6), and signatures of concatenated
paths multiply.

`pwl_signature` multiplies the segment exponentials b[j] by one prefix scan
per level instead of one tensor product per segment.  With S_i[j] the
level-i signature of the first j + 1 segments (S_i[-1] = 0),

    S_m[j] = S_m[j - 1] + (b_m[j] + sum_{i=1}^{m-1} S_i[j - 1] x b_{m-i}[j]),

the products added in increasing i and S_m formed by `np.cumsum`, a
sequential accumulate.  Signatures are group-like (level 0 is exactly 1), so
this is `tensor_multiply`'s own order of operations, (b_m + sum a_i x b_{m-i})
+ a_m, and the result is bit-identical to multiplying segment by segment, up
to the sign of exact zeros.

The scan (`_scan`), the product (`_multiply_rows`) and the shuffle residuals
(`_residuals`) work on stacks of paths or tensors along one leading row axis,
and `pwl_signature`, `tensor_multiply` and `shuffle_residuals` are their
one-row case; signature-check runs a block of replicates as the rows.  The
p-variation program (`_pvar_sup`) likewise runs one row per gain function:
`rough_pvar_distance` stacks its lift levels as the rows of one pass, and
`p_variation_norm` is the one-row case.  Each row is bit-identical to a
program of its own, since max is exact.  A program of more than `PVAR_CAP`
cells is refused before any work.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "TENSOR_CAP",
    "PVAR_CAP",
    "TruncatedTensor",
    "tensor_unit",
    "tensor_multiply",
    "segment_signature",
    "pwl_signature",
    "shuffles",
    "shuffle_residual",
    "shuffle_residuals",
    "p_variation_norm",
    "ScalarRoughLift",
    "lift_level_for_hurst",
    "lift_scalar_path",
    "rough_pvar_distance",
    "holder_distance",
]

_MAX_LEVEL = 3
_DP_BLOCK = 32  # columns per block of the p-variation program: O(32 N) memory
_NORM_DOUBLES = 2**17  # path differences per piece of a block's norms, whatever the dimension
_SCAN_ENTRIES = 2**16  # entries per level in a block of the signature scan, whatever N
TENSOR_CAP = 2**18  # dim**level: ~420 bytes each in the shuffle table, ~110 MB
PVAR_CAP = 2**26  # cells (node pairs i < j, times rows) of one p-variation program: seconds


def _check_level(level: int) -> None:
    if not 1 <= level <= _MAX_LEVEL:
        raise ValueError(f"level must be in 1..{_MAX_LEVEL}, got {level}")


def _check_size(dim: int, level: int) -> None:
    """Raise before allocating unless dim**level is within ``TENSOR_CAP``."""
    _check_level(level)
    if dim**level > TENSOR_CAP:
        raise ValueError(
            f"a level-{level} signature in dimension {dim} needs {dim**level} "
            f"entries at its top level, above TENSOR_CAP = {TENSOR_CAP}"
        )


def _word_index(word: tuple, dim: int, level: int) -> int:
    """Row-major index of the word among the words of its length; raises
    unless it has at most `level` integer letters in 0..dim-1."""
    if len(word) > level:
        raise ValueError(f"word {word} exceeds truncation level {level}")
    index = 0
    for w in word:
        if not (isinstance(w, numbers.Integral) and 0 <= w < dim):
            raise ValueError(f"word {word} must have integer letters in 0..{dim - 1}")
        index = index * dim + int(w)
    return index


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
        index = _word_index(word, self.dim, self.level)
        if not word:
            return float(self.data[0])
        return float(self.data[len(word)].flat[index])


def tensor_unit(dim: int, level: int) -> TruncatedTensor:
    """Multiplicative unit (1, 0, 0, ...)."""
    _check_size(dim, level)
    comps = [1.0] + [np.zeros((dim,) * m) for m in range(1, level + 1)]
    return TruncatedTensor(dim, level, tuple(comps))


def _one_row(t: TruncatedTensor) -> list:
    """The components of `t`, level 0 included, as stacks of one row."""
    return [np.asarray(c)[None] for c in t.data]


def _multiply_rows(a: list, b: list) -> list:
    """Row-by-row truncated tensor product of two stacks of tensors (level m
    of shape (rows,) + (dim,)*m, level 0 included): level m is
    sum_{i+j=m} a_i x b_j, added in increasing i."""
    out = [a[0] * b[0]]
    for m in range(1, len(a)):
        acc = np.zeros(a[m].shape)
        for i in range(m + 1):
            acc += _row_outer(a[i], b[m - i])
        out.append(acc)
    return out


def tensor_multiply(a: TruncatedTensor, b: TruncatedTensor) -> TruncatedTensor:
    """Truncated tensor product: level-m component sum_{i+j=m} a_i x b_j."""
    if a.dim != b.dim or a.level != b.level:
        raise ValueError(
            f"mismatched operands: ({a.dim}, level {a.level}) vs "
            f"({b.dim}, level {b.level})"
        )
    out = _multiply_rows(_one_row(a), _one_row(b))
    return TruncatedTensor(a.dim, a.level, tuple(c[0] for c in out))


def _row_outer(a: np.ndarray, b: np.ndarray, lead: int = 1) -> np.ndarray:
    """Outer product along the first `lead` axes: out[j] = a[j] x b[j] for
    each index j of those axes (lead = 0: the plain outer product)."""
    return a.reshape(a.shape + (1,) * (b.ndim - lead)) * b.reshape(
        b.shape[:lead] + (1,) * (a.ndim - lead) + b.shape[lead:]
    )


def _exponentials(steps: np.ndarray, level: int) -> list:
    """Levels 1..level of the exponential of each increment v along the last
    axis of `steps`: v^(x m) / m!, with the leading axes of `steps`."""
    comps, power = [], steps
    for m in range(1, level + 1):
        if m > 1:
            power = _row_outer(power, steps, steps.ndim - 1)
        comps.append(power / math.factorial(m))
    return comps


def _finite_tensor(dim: int, level: int, comps: list) -> TruncatedTensor:
    if not all(np.isfinite(c).all() for c in comps):
        raise ValueError("signature overflows float64: the increments are too large")
    return TruncatedTensor(dim, level, (1.0, *comps))


def segment_signature(increment: np.ndarray, level: int) -> TruncatedTensor:
    """Signature of a straight segment: the tensor exponential of its
    increment, level-m component increment^(x m) / m!."""
    v = np.atleast_1d(np.asarray(increment, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"increment must be a vector, got shape {v.shape}")
    _check_size(v.shape[0], level)
    if not np.isfinite(v).all():
        raise ValueError("increment must be finite")
    return _finite_tensor(v.shape[0], level, _exponentials(v, level))


def pwl_signature(samples: np.ndarray, level: int, start: int = 0, stop: int | None = None) -> TruncatedTensor:
    """Signature of the piecewise-linear path through `samples` (rows are
    points in R^d) over the node range [start, stop], by one prefix scan per
    level (module docstring)."""
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("need at least two sample points")
    _check_size(pts.shape[1], level)
    stop = pts.shape[0] - 1 if stop is None else stop
    if not 0 <= start <= stop <= pts.shape[0] - 1:
        raise ValueError(f"bad node range [{start}, {stop}]")
    nodes = pts[start : stop + 1]
    if not np.isfinite(nodes).all():
        raise ValueError(f"samples must be finite over the node range [{start}, {stop}]")
    if start == stop:
        return tensor_unit(pts.shape[1], level)
    steps = np.diff(nodes, axis=0)[None]
    scan = _scan(steps, level, np.array([[steps.shape[1]]]))
    return _finite_tensor(pts.shape[1], level, [c[0, 0] for c in scan])


def _scan(steps: np.ndarray, level: int, take: np.ndarray) -> list:
    """Signatures of the piecewise-linear paths whose increments are the
    rows of the (rows, segments, dim) stack `steps`, over their first
    take[r, k] >= 1 segments: levels 1..level, level m of shape
    take.shape + (dim,)*m.  One prefix scan per level (module docstring)
    along the segment axis, in blocks of as many segments as keep the rows'
    top levels within _SCAN_ENTRIES entries (one segment at least)."""
    rows, count, dim = steps.shape
    block = max(1, _SCAN_ENTRIES // (rows * dim**level))
    out = [np.empty(take.shape + (dim,) * m) for m in range(1, level + 1)]
    # prefix[i - 1][r, j]: level i over the segments up to j of the block;
    # carry: its last segments from the blocks before
    prefix, carry = [None] * level, None
    for lo in range(0, count, block):
        b = _exponentials(steps[:, lo : lo + block], level)
        for m in range(1, level + 1):
            terms = b[m - 1].copy()
            for i in range(1, m):
                if carry is not None:
                    terms[:, 0] += _row_outer(carry[i - 1], b[m - i - 1][:, 0])
                terms[:, 1:] += _row_outer(prefix[i - 1][:, :-1], b[m - i - 1][:, 1:], 2)
            if carry is not None:
                terms[:, 0] += carry[m - 1]
            prefix[m - 1] = np.cumsum(terms, axis=1)
        r, k = np.nonzero((lo < take) & (take <= lo + block))
        for whole, part in zip(out, prefix):
            whole[r, k] = part[r, take[r, k] - lo - 1]
        carry = [part[:, -1] for part in prefix]
    return out


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


class _ShuffleTable(NamedTuple):
    """Every word pair (w1, w2) with |w1| + |w2| <= level, as indices into
    the flat vector (Z^(), level 1, ..., level `level` row-major, 0.0).
    ``left``/``right`` index Z^w1/Z^w2; row k of ``shuffles`` indexes the
    shuffles of pair k in the order `shuffles` yields them, padded with the
    index of the trailing 0.0.  The pairs with |w1| = p and |w2| = q take
    the rows from ``blocks[p, q]`` on, w1 major, words row-major."""

    left: np.ndarray
    right: np.ndarray
    shuffles: np.ndarray
    blocks: dict


@functools.lru_cache(maxsize=8)
def _shuffle_table(dim: int, level: int) -> _ShuffleTable:
    _check_size(dim, level)
    offset = np.cumsum([0] + [dim**m for m in range(level + 1)])
    width = math.comb(level, level // 2)  # the most shuffles of one pair
    left, right, cols, blocks, rows = [], [], [], {}, 0
    for p in range(level + 1):
        for q in range(level + 1 - p):
            blocks[p, q] = rows
            words = [
                np.array(list(itertools.product(range(dim), repeat=k)), dtype=np.intp).reshape(dim**k, k)
                for k in (p, q)
            ]
            pairs = np.hstack((
                np.repeat(words[0], dim**q, axis=0), np.tile(words[1], (dim**p, 1))
            ))
            place = dim ** np.arange(p + q - 1, -1, -1)
            left.append(np.repeat(offset[p] + np.arange(dim**p), dim**q))
            right.append(np.tile(offset[q] + np.arange(dim**q), dim**p))
            # shuffle the letters' positions: the order depends on p, q only
            block = np.full((pairs.shape[0], width), offset[level + 1])
            for k, perm in enumerate(shuffles(tuple(range(p)), tuple(range(p, p + q)))):
                block[:, k] = offset[p + q] + pairs[:, list(perm)] @ place
            cols.append(block)
            rows += pairs.shape[0]
    table = _ShuffleTable(np.concatenate(left), np.concatenate(right), np.vstack(cols), blocks)
    for arr in table[:3]:
        arr.flags.writeable = False
    return table


def _residuals(comps: list, rows) -> np.ndarray:
    """|Z^w1 Z^w2 - sum over shuffles Z^w| of each tensor of a stack (level
    m of shape (count,) + (dim,)*m, level 0 included) for the table rows
    `rows`, one row per tensor, the shuffles added left to right as
    Python's ``sum`` would."""
    count = comps[0].shape[0]
    table = _shuffle_table(comps[1].shape[1], len(comps) - 1)
    flat = np.concatenate(
        [comps[0][:, None], *(c.reshape(count, -1) for c in comps[1:]), np.zeros((count, 1))],
        axis=1,
    )
    cols = table.shuffles[rows]
    total = flat[:, cols[:, 0]]
    for k in range(1, cols.shape[1]):
        total += flat[:, cols[:, k]]
    out = flat[:, table.left[rows]]
    out *= flat[:, table.right[rows]]
    out -= total
    return np.abs(out, out=out)


def shuffle_residuals(sig: TruncatedTensor) -> np.ndarray:
    """`shuffle_residual` of every word pair with |w1| + |w2| <= sig.level,
    the empty word included, in the order of ``_shuffle_table``."""
    return _residuals(_one_row(sig), slice(None))[0]


def shuffle_residual(sig: TruncatedTensor, w1: tuple, w2: tuple) -> float:
    """|Z^{w1} Z^{w2} - sum over shuffles Z^w|; zero for genuine signatures."""
    if len(w1) + len(w2) > sig.level:
        raise ValueError(
            f"|w1| + |w2| = {len(w1) + len(w2)} exceeds truncation level {sig.level}"
        )
    i1, i2 = (_word_index(w, sig.dim, sig.level) for w in (w1, w2))
    row = _shuffle_table(sig.dim, sig.level).blocks[len(w1), len(w2)] + i1 * sig.dim ** len(w2) + i2
    return float(_residuals(_one_row(sig), slice(row, row + 1))[0, 0])


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

    n = z.shape[0] - 1
    _check_cells(n, 1)

    def gain_rows(lo, hi):  # each entry's norm is one reduction, whatever the piece
        width = max(1, _NORM_DOUBLES // ((hi - lo) * z.shape[1]))
        pieces = [
            np.linalg.norm(z[lo:hi, None] - z[i : min(i + width, hi)], axis=2) ** p
            for i in range(0, hi, width)
        ]
        return (pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=1))[None]

    return float(_pvar_sup(gain_rows, n, 1)[0]) ** (1.0 / p)


def _check_cells(n: int, rows: int) -> None:
    """Raise before any work unless `rows` programs over n + 1 nodes, each
    with n(n + 1)/2 cells, fit within ``PVAR_CAP`` cells."""
    cells = rows * (n * (n + 1) // 2)
    if cells > PVAR_CAP:
        raise ValueError(
            f"a p-variation program over {n + 1} nodes and {rows} level(s) has "
            f"{cells} cells, above PVAR_CAP = {PVAR_CAP}"
        )


def _pvar_sup(gain_rows, n: int, rows: int) -> np.ndarray:
    """sup over node partitions of sum G_r(t_i, t_{i+1}) for `rows` general
    two-parameter gains G_r >= 0 at once, read in column blocks:
    gain_rows(lo, hi) is a (rows, hi - lo, hi) array whose [r, j - lo] holds
    G_r(i, j) at column i < j.

    best[r, j] = max over i < j of best[r, i] + G_r(i, j): one vectorised max
    over the i before each block, then the in-block i one column at a time,
    for every row at once.  max is exact, so each row is bit-identical to a
    column-by-column walk of it alone.
    """
    best = np.zeros((rows, n + 1))
    for lo in range(1, n + 1, _DP_BLOCK):
        hi = min(lo + _DP_BLOCK, n + 1)
        gains = gain_rows(lo, hi)
        block = np.max(gains[:, :, :lo] + best[:, None, :lo], axis=2)
        for k in range(1, hi - lo):  # block[:, k - 1] is final: extend it by one step
            np.maximum(
                block[:, k:], gains[:, k:, lo + k - 1] + block[:, k - 1, None], out=block[:, k:]
            )
        best[:, lo:hi] = block
    return best[:, n]


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


def _lift_gaps(a: ScalarRoughLift, b: ScalarRoughLift, lo: int, hi: int) -> list:
    """|D_m(i, j)| for m = 1..level, the difference of the two lifts'
    level-m entries over [t_i, t_j], at rows j - lo for j in [lo, hi) and
    columns i < hi."""
    da = a.samples[lo:hi, None] - a.samples[:hi]
    db = b.samples[lo:hi, None] - b.samples[:hi]
    gaps = [np.abs(da - db)]
    for m in range(2, a.level + 1):
        gaps.append(np.abs(da**m - db**m) / math.factorial(m))
    return gaps


def rough_pvar_distance(a: ScalarRoughLift, b: ScalarRoughLift) -> float:
    """Inhomogeneous p-variation distance between two scalar lifts:

        max over levels m <= level of
            ( sup over partitions sum |D_m(t_i, t_{i+1})|^(p/m) )^(m/p)

    where D_m(s, t) is the difference of level-m entries over [s, t].  The
    levels are the rows of one dynamic program.
    """
    _check_lift_pair(a, b)
    n = a.samples.shape[0] - 1
    _check_cells(n, a.level)

    def gain_rows(lo, hi):
        return np.stack([g ** (a.p / m) for m, g in enumerate(_lift_gaps(a, b, lo, hi), 1)])

    worst = 0.0
    for m, sup in enumerate(_pvar_sup(gain_rows, n, a.level).tolist(), 1):
        worst = max(worst, sup ** (m / a.p))
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
    _check_cells(n, a.level)
    worst = 0.0
    for lo in range(1, n + 1, _DP_BLOCK):
        hi = min(lo + _DP_BLOCK, n + 1)
        span = t[lo:hi, None] - t[:hi]
        below = span > 0  # the pairs i < j
        scale = np.where(below, span, 1.0) ** alpha
        for m, gap in enumerate(_lift_gaps(a, b, lo, hi), 1):
            worst = max(worst, float((gap ** (1.0 / m) / scale)[below].max()))
    return worst
