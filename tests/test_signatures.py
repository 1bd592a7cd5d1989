"""Tensor-algebra and rough-path tests: hand-computed segment signatures,
quadrature cross-checks of iterated integrals, algebraic identities (Chen,
shuffle), and exhaustive-enumeration checks of the p-variation programs."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fraclab import (
    ScalarRoughLift,
    TruncatedTensor,
    holder_distance,
    lift_level_for_hurst,
    lift_scalar_path,
    p_variation_norm,
    pwl_signature,
    rough_pvar_distance,
    segment_signature,
    shuffle_residual,
    shuffle_residuals,
    shuffles,
    tensor_multiply,
    tensor_unit,
)
from fraclab import signatures
from oracles import (
    column_holder_distance,
    column_p_variation,
    column_rough_distance,
    exhaustive_p_variation,
    quadrature_signature,
    segment_product_signature,
)

# node counts on and across the dynamic program's 32-column block edges
BLOCK_EDGE_COUNTS = st.sampled_from([1, 2, 31, 32, 33, 34, 63, 64, 65, 96, 97, 128, 200])


def brute_force_pair_pvar(da, db, level, p):
    """Inhomogeneous p-variation distance by enumerating every partition.

    ``da``/``db`` are scalar sample arrays; mirrors the definition directly:
    max over levels m of (sup over partitions sum |D_m|^(p/m))^(m/p) with
    D_m(s, t) = ((a_t - a_s)^m - (b_t - b_s)^m) / m!.
    """
    n = len(da) - 1
    assert n <= 10
    worst = 0.0
    for m in range(1, level + 1):
        fact = math.factorial(m)
        best = 0.0
        for subset in itertools.chain.from_iterable(
            itertools.combinations(range(1, n), r) for r in range(n)
        ):
            pts = [0, *subset, n]
            total = sum(
                (
                    abs((da[b] - da[a]) ** m - (db[b] - db[a]) ** m) / fact
                )
                ** (p / m)
                for a, b in zip(pts, pts[1:])
            )
            best = max(best, total)
        worst = max(worst, best ** (m / p))
    return worst


class TestTruncatedTensor:
    def test_coordinate_lookup(self):
        t = TruncatedTensor(
            2, 2, (3.0, np.array([1.0, 2.0]), np.arange(4.0).reshape(2, 2))
        )
        assert t.coordinate(()) == 3.0
        assert t.coordinate((1,)) == 2.0
        assert t.coordinate((1, 0)) == 2.0
        assert t.coordinate((0, 1)) == 1.0

    def test_component_validation(self):
        with pytest.raises(ValueError, match="components"):
            TruncatedTensor(2, 2, (1.0, np.zeros(2)))
        with pytest.raises(ValueError, match="shape"):
            TruncatedTensor(2, 2, (1.0, np.zeros(3), np.zeros((2, 2))))
        with pytest.raises(ValueError, match="level"):
            tensor_unit(2, 4)

    def test_word_validation(self):
        t = tensor_unit(2, 2)
        with pytest.raises(ValueError, match="exceeds"):
            t.coordinate((0, 1, 0))
        with pytest.raises(ValueError, match="letters"):
            t.coordinate((2,))

    @pytest.mark.parametrize("letter", [1.5, 0.0, "0", None])
    def test_non_integer_letters_rejected(self, letter):
        t = tensor_unit(2, 2)
        with pytest.raises(ValueError, match="integer letters"):
            t.coordinate((letter,))
        with pytest.raises(ValueError, match="integer letters"):
            shuffle_residual(t, (0,), (letter,))

    def test_numpy_integer_letters_accepted(self):
        sig = pwl_signature(np.arange(6.0).reshape(3, 2) ** 2, 2)
        assert sig.coordinate((np.int64(1), 0)) == sig.coordinate((1, 0))
        assert shuffle_residual(sig, (np.int8(0),), (1,)) == shuffle_residual(sig, (0,), (1,))

    def test_unit_is_identity(self):
        rng = np.random.default_rng(0)
        a = TruncatedTensor(
            3, 3, (1.7, rng.standard_normal(3), rng.standard_normal((3, 3)),
                   rng.standard_normal((3, 3, 3)))
        )
        e = tensor_unit(3, 3)
        for prod in (tensor_multiply(e, a), tensor_multiply(a, e)):
            for m in range(4):
                np.testing.assert_allclose(prod.data[m], a.data[m], rtol=1e-15)

    def test_multiply_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatched"):
            tensor_multiply(tensor_unit(2, 2), tensor_unit(3, 2))
        with pytest.raises(ValueError, match="mismatched"):
            tensor_multiply(tensor_unit(2, 2), tensor_unit(2, 3))


class TestSegmentSignature:
    def test_hand_values(self):
        # exp of the increment (2, 3): level-m entry v^(x m)/m!
        s = segment_signature(np.array([2.0, 3.0]), 3)
        assert s.coordinate(()) == 1.0
        assert s.coordinate((0,)) == 2.0
        assert s.coordinate((1,)) == 3.0
        assert s.coordinate((0, 0)) == pytest.approx(2.0)
        assert s.coordinate((0, 1)) == pytest.approx(3.0)
        assert s.coordinate((1, 1)) == pytest.approx(4.5)
        assert s.coordinate((0, 0, 0)) == pytest.approx(8.0 / 6.0)
        assert s.coordinate((0, 1, 1)) == pytest.approx(3.0)
        assert s.coordinate((1, 1, 1)) == pytest.approx(27.0 / 6.0)

    def test_scalar_segment(self):
        s = segment_signature(np.array([0.5]), 3)
        assert s.coordinate((0,)) == 0.5
        assert s.coordinate((0, 0)) == pytest.approx(0.125)
        assert s.coordinate((0, 0, 0)) == pytest.approx(0.5**3 / 6.0)

    def test_segment_exponential_property(self):
        # exp(v) exp(w) with w parallel to v equals exp(v + w)
        v = np.array([1.0, -2.0])
        ab = tensor_multiply(
            segment_signature(v, 3), segment_signature(2.0 * v, 3)
        )
        whole = segment_signature(3.0 * v, 3)
        for m in range(4):
            np.testing.assert_allclose(ab.data[m], whole.data[m], rtol=1e-14)


class TestPwlSignature:
    def test_matches_quadrature(self):
        # iterated integrals of a 5-segment planar path, independently by
        # dense composite-trapezoid quadrature
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((6, 2))
        sig = pwl_signature(pts, 3)
        oracle = quadrature_signature(pts, 3)
        for word, value in oracle.items():
            assert sig.coordinate(word) == pytest.approx(value, abs=2e-6)

    def test_matches_quadrature_scalar(self):
        rng = np.random.default_rng(9)
        pts = rng.standard_normal(5)
        sig = pwl_signature(pts, 3)
        oracle = quadrature_signature(pts[:, None], 3)
        for word, value in oracle.items():
            assert sig.coordinate(word) == pytest.approx(value, abs=2e-6)

    def test_chen_concatenation(self):
        # signature over [0, N] = product of the signatures of the pieces
        rng = np.random.default_rng(10)
        pts = rng.standard_normal((9, 3))
        whole = pwl_signature(pts, 2)
        for cut in (1, 4, 7):
            left = pwl_signature(pts, 2, 0, cut)
            right = pwl_signature(pts, 2, cut, 8)
            prod = tensor_multiply(left, right)
            for m in range(3):
                np.testing.assert_allclose(
                    prod.data[m], whole.data[m], rtol=1e-12, atol=1e-14
                )

    def test_level_one_is_total_increment(self):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((7, 2))
        sig = pwl_signature(pts, 3)
        np.testing.assert_allclose(sig.data[1], pts[-1] - pts[0], rtol=1e-12)

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="two sample points"):
            pwl_signature(np.array([[1.0, 2.0]]), 2)
        with pytest.raises(ValueError, match="node range"):
            pwl_signature(np.zeros((4, 2)), 2, 3, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        pts = np.array([[0.0], [bad], [2.0]])
        with pytest.raises(ValueError, match="finite"):
            pwl_signature(pts, 1)
        with pytest.raises(ValueError, match="finite"):
            segment_signature(np.array([1.0, bad]), 2)
        # a bad node outside the requested range is never read
        np.testing.assert_array_equal(pwl_signature(np.array([[0.0], [2.0], [bad]]), 1, 0, 1).data[1], [2.0])

    def test_overflow_rejected(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="overflows"):
                pwl_signature(np.array([0.0, 1e200, 0.0]), 3)
            with pytest.raises(ValueError, match="overflows"):
                segment_signature(np.array([1e200]), 2)
            with pytest.raises(ValueError, match="overflows"):
                pwl_signature(np.array([-1e308, 1e308]), 1)  # the increment itself

    @pytest.mark.parametrize("dim, level", [(65, 3), (513, 2)])
    def test_oversized_signature_rejected_before_allocating(self, dim, level):
        assert dim**level > signatures.TENSOR_CAP >= (dim - 1) ** level
        tensor_unit(dim - 1, level)  # at the cap
        pts = np.zeros((2, dim))
        tracemalloc.start()
        try:
            for build in (
                lambda: pwl_signature(pts, level),
                lambda: segment_signature(pts[1], level),
                lambda: tensor_unit(dim, level),
                lambda: signatures._shuffle_table(dim, level),
            ):
                with pytest.raises(ValueError, match="TENSOR_CAP"):
                    build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @given(
        dim=st.integers(1, 4),
        level=st.integers(1, 3),
        segments=st.integers(1, 12),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        entries=st.sampled_from([1, 9, signatures._SCAN_ENTRIES]),
        data=st.data(),
    )
    def test_scan_matches_segment_products_bitwise(self, dim, level, segments, scale, entries, data):
        # small scan blocks carry the prefix across block edges
        seed = data.draw(st.integers(0, 2**32 - 1))
        start = data.draw(st.integers(0, segments))
        stop = data.draw(st.integers(start, segments))
        pts = scale * np.random.default_rng(seed).standard_normal((segments + 1, dim))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(signatures, "_SCAN_ENTRIES", entries)
            got = pwl_signature(pts, level, start, stop)
        want = segment_product_signature(pts, level, start, stop)
        for m in range(level + 1):
            assert np.array_equal(got.data[m], want.data[m])

    def test_memory_is_bounded_by_the_scan_block(self):
        # 40 000 segments in one scan would hold 35 MB of level-3 stacks
        pts = np.random.default_rng(15).standard_normal((40_001, 3))
        tracemalloc.start()
        try:
            sig = pwl_signature(pts, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(sig.data[1], pts[-1] - pts[0], rtol=1e-9, atol=1e-9)
        assert peak < 8e6


class TestShuffleIdentity:
    def test_shuffle_enumeration(self):
        got = sorted(shuffles((0, 1), (2,)))
        assert got == [(0, 1, 2), (0, 2, 1), (2, 0, 1)]
        # counts C(|w1|+|w2|, |w1|), with multiplicity
        assert len(list(shuffles((0, 0), (0,)))) == 3
        assert len(list(shuffles((0, 1), (2, 3)))) == 6

    def test_residual_zero_on_signatures(self):
        rng = np.random.default_rng(12)
        for dim in (2, 3):
            pts = rng.standard_normal((8, dim))
            sig = pwl_signature(pts, 3)
            letters = range(dim)
            words = [()] + [(i,) for i in letters] + [
                (i, j) for i in letters for j in letters
            ]
            for w1 in words:
                for w2 in words:
                    if 0 < len(w1) + len(w2) <= 3:
                        assert shuffle_residual(sig, w1, w2) < 1e-12

    def test_residual_detects_violations(self):
        # perturbing one level-2 entry of a genuine signature must show up
        rng = np.random.default_rng(13)
        pts = rng.standard_normal((6, 2))
        sig = pwl_signature(pts, 2)
        bumped = np.array(sig.data[2])
        bumped[0, 1] += 0.1
        fake = TruncatedTensor(2, 2, (sig.data[0], sig.data[1], bumped))
        assert shuffle_residual(fake, (0,), (1,)) == pytest.approx(0.1)

    def test_word_length_guard(self):
        sig = pwl_signature(np.zeros((3, 2)), 2)
        with pytest.raises(ValueError, match="exceeds"):
            shuffle_residual(sig, (0, 1), (0,))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("level", [2, 3])
    def test_residuals_equal_the_generator_sums(self, dim, level):
        # a tensor that is not a signature, so that no residual is 0 by luck
        rng = np.random.default_rng(14 + dim * level)
        fake = TruncatedTensor(
            dim, level, (1.3, *(rng.standard_normal((dim,) * m) for m in range(1, level + 1)))
        )
        words = [w for k in range(level + 1) for w in itertools.product(range(dim), repeat=k)]
        pairs = [(a, b) for a in words for b in words if len(a) + len(b) <= level]
        want = {
            (a, b): abs(
                fake.coordinate(a) * fake.coordinate(b)
                - sum(fake.coordinate(w) for w in shuffles(a, b))
            )
            for a, b in pairs
        }
        got = shuffle_residuals(fake)
        table = signatures._shuffle_table(dim, level)
        assert got.shape == (len(pairs),)
        for (a, b), value in want.items():
            row = table.blocks[len(a), len(b)]
            row += signatures._word_index(a, dim, level) * dim ** len(b)
            row += signatures._word_index(b, dim, level)
            assert got[row] == value
            assert shuffle_residual(fake, a, b) == value


class TestPVariationNorm:
    def test_single_increment(self):
        for p in (1.0, 2.0, 3.7):
            assert p_variation_norm(np.array([1.0, -2.5]), p) == pytest.approx(3.5)

    def test_total_variation_hand_value(self):
        # p = 1 is the total variation; finest partition is optimal
        assert p_variation_norm(np.array([0.0, 1.0, -1.0, 2.0]), 1.0) == pytest.approx(
            6.0
        )

    def test_quadratic_hand_value(self):
        # [0, 1, 0]: the two-cell split gives 1 + 1 = 2, the single cell 0
        assert p_variation_norm(np.array([0.0, 1.0, 0.0]), 2.0) == pytest.approx(
            math.sqrt(2.0)
        )

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.3, 3.0])
    def test_matches_exhaustive_enumeration_scalar(self, p):
        rng = np.random.default_rng(14)
        for n in range(2, 11):
            z = rng.standard_normal(n)
            assert p_variation_norm(z, p) == pytest.approx(
                exhaustive_p_variation(z, p), rel=1e-12
            )

    @pytest.mark.parametrize("p", [1.0, 2.3])
    def test_matches_exhaustive_enumeration_planar(self, p):
        rng = np.random.default_rng(15)
        for n in (4, 7, 10):
            z = rng.standard_normal((n, 2))
            assert p_variation_norm(z, p) == pytest.approx(
                exhaustive_p_variation(z, p), rel=1e-12
            )

    def test_monotone_in_p(self):
        rng = np.random.default_rng(16)
        z = rng.standard_normal(30)
        values = [p_variation_norm(z, p) for p in (1.0, 2.0, 3.0)]
        assert values[0] >= values[1] >= values[2]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="p must be"):
            p_variation_norm(np.zeros(4), 0.5)
        with pytest.raises(ValueError, match="two sample points"):
            p_variation_norm(np.array([1.0]), 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            p_variation_norm(np.array([0.0, bad, 1.0]), 2.0)
        with pytest.raises(ValueError, match="finite"):
            p_variation_norm(np.array([[0.0, 1.0], [2.0, bad]]), 1.5)

    @given(
        cells=BLOCK_EDGE_COUNTS,
        dim=st.sampled_from([1, 3]),
        p=st.floats(1.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_program_equals_column_program(self, cells, dim, p, seed):
        z = np.random.default_rng(seed).standard_normal((cells + 1, dim))
        assert p_variation_norm(z, p) == column_p_variation(z, p)

    @given(
        cells=st.integers(1, 8),
        dim=st.sampled_from([1, 3]),
        p=st.floats(1.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_exhaustive_enumeration_property(self, cells, dim, p, seed):
        z = np.random.default_rng(seed).standard_normal((cells + 1, dim))
        assert p_variation_norm(z, p) == pytest.approx(
            exhaustive_p_variation(z, p), rel=1e-12
        )

    def test_memory_is_linear_in_size(self):
        # gains are built a block of columns at a time, never as the
        # 8 n^2 bytes (134 MB) of a dense gain matrix
        n = 4096
        z = np.cumsum(np.random.default_rng(23).standard_normal(n + 1))
        tracemalloc.start()
        try:
            value = p_variation_norm(z, 2.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(value)
        assert peak < 8 * 64 * (n + 1) * 8

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_oversized_program_rejected_before_any_work(self, level):
        # the first node count whose `level` programs exceed PVAR_CAP cells
        # (8 192 at level 2; 4 194 305 nodes, days of work, at cal.levels = 19)
        n = 1
        while level * (n * (n + 1) // 2) <= signatures.PVAR_CAP:
            n += 1
        signatures._check_cells(n - 1, level)  # the last size within the cap
        z = np.zeros(n + 1)
        a, b = lift_scalar_path(z, level, 3.5), lift_scalar_path(z, level, 3.5)
        calls = [lambda: rough_pvar_distance(a, b), lambda: holder_distance(a, b, 0.5)]
        if level == 1:
            calls.append(lambda: p_variation_norm(z, 2.0))
        tracemalloc.start()
        try:
            for call in calls:
                with pytest.raises(ValueError, match="PVAR_CAP"):
                    call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestLiftLevel:
    def test_thresholds(self):
        assert lift_level_for_hurst(0.9) == 2
        assert lift_level_for_hurst(0.5) == 2
        assert lift_level_for_hurst(0.34) == 2
        assert lift_level_for_hurst(1.0 / 3.0) == 3
        assert lift_level_for_hurst(0.3) == 3
        assert lift_level_for_hurst(0.26) == 3

    def test_too_rough_rejected(self):
        for h in (0.25, 0.2):
            with pytest.raises(ValueError, match="truncation beyond"):
                lift_level_for_hurst(h)
        with pytest.raises(ValueError, match="lie in"):
            lift_level_for_hurst(0.0)


class TestRoughDistance:
    def test_zero_on_identical_lifts(self):
        rng = np.random.default_rng(17)
        z = rng.standard_normal(12)
        a = lift_scalar_path(z, 2, 2.5)
        assert rough_pvar_distance(a, a) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(18)
        za, zb = rng.standard_normal(10), rng.standard_normal(10)
        a = lift_scalar_path(za, 3, 3.6)
        b = lift_scalar_path(zb, 3, 3.6)
        assert rough_pvar_distance(a, b) == pytest.approx(
            rough_pvar_distance(b, a), rel=1e-14
        )

    def test_constant_shift_invariance(self):
        # the lift entries depend on increments only
        rng = np.random.default_rng(19)
        z = rng.standard_normal(9)
        a = lift_scalar_path(z, 2, 2.5)
        b = lift_scalar_path(z + 4.2, 2, 2.5)
        assert rough_pvar_distance(a, b) < 1e-13

    def test_single_cell_hand_value(self):
        # one cell: the distance is max_m of |D_m| (each exponent cancels)
        a = lift_scalar_path(np.array([0.0, 1.0]), 2, 2.5)
        b = lift_scalar_path(np.array([0.0, 0.0]), 2, 2.5)
        assert rough_pvar_distance(a, b) == pytest.approx(1.0)

    def test_level_one_reduces_to_pvar_of_difference(self):
        rng = np.random.default_rng(20)
        za, zb = rng.standard_normal(15), rng.standard_normal(15)
        p = 1.8
        a = lift_scalar_path(za, 1, p)
        b = lift_scalar_path(zb, 1, p)
        assert rough_pvar_distance(a, b) == pytest.approx(
            p_variation_norm(za - zb, p), rel=1e-12
        )

    @pytest.mark.parametrize("level,p", [(2, 2.5), (3, 3.6)])
    def test_matches_exhaustive_enumeration(self, level, p):
        rng = np.random.default_rng(21)
        for n in (4, 7, 9):
            za = rng.standard_normal(n)
            zb = za + 0.3 * rng.standard_normal(n)
            a = lift_scalar_path(za, level, p)
            b = lift_scalar_path(zb, level, p)
            assert rough_pvar_distance(a, b) == pytest.approx(
                brute_force_pair_pvar(za, zb, level, p), rel=1e-12
            )

    @given(
        cells=BLOCK_EDGE_COUNTS,
        level=st.integers(1, 3),
        p=st.floats(1.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(cells=65, level=3, p=1.6, seed=0)  # p/2 and p/3 below 1
    @example(cells=200, level=3, p=3.6, seed=1)  # p/3 above 1
    @example(cells=97, level=2, p=2.0, seed=2)  # the level-1 exponent 2
    def test_blocked_program_equals_column_program(self, cells, level, p, seed):
        # the levels are rows of one program, each equal to the column
        # program of that level alone; p / level covers exponents below and
        # above 1
        rng = np.random.default_rng(seed)
        za = np.cumsum(rng.standard_normal(cells + 1))
        zb = za + 0.3 * rng.standard_normal(cells + 1)
        a, b = lift_scalar_path(za, level, p), lift_scalar_path(zb, level, p)
        assert rough_pvar_distance(a, b) == column_rough_distance(za, zb, level, p)

    @given(
        cells=st.integers(1, 8),
        level=st.integers(1, 3),
        p=st.floats(1.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_exhaustive_enumeration_property(self, cells, level, p, seed):
        rng = np.random.default_rng(seed)
        za = rng.standard_normal(cells + 1)
        zb = za + 0.3 * rng.standard_normal(cells + 1)
        a, b = lift_scalar_path(za, level, p), lift_scalar_path(zb, level, p)
        assert rough_pvar_distance(a, b) == pytest.approx(
            brute_force_pair_pvar(za, zb, level, p), rel=1e-12
        )

    def test_memory_is_linear_in_size(self):
        # the three levels are rows of one program, still read a block of
        # columns at a time, never as 8 n^2 bytes (34 MB) a level
        n = 2048
        rng = np.random.default_rng(24)
        za = np.cumsum(rng.standard_normal(n + 1))
        zb = za + 0.3 * rng.standard_normal(n + 1)
        a, b = lift_scalar_path(za, 3, 3.6), lift_scalar_path(zb, 3, 3.6)
        tracemalloc.start()
        try:
            value = rough_pvar_distance(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(value)
        assert peak < 8 * 64 * (n + 1) * 8

    def test_pair_validation(self):
        a = lift_scalar_path(np.zeros(5), 2, 2.5)
        with pytest.raises(ValueError, match="sample count"):
            rough_pvar_distance(a, lift_scalar_path(np.zeros(6), 2, 2.5))
        with pytest.raises(ValueError, match="level and p"):
            rough_pvar_distance(a, lift_scalar_path(np.zeros(5), 3, 2.5))
        with pytest.raises(ValueError, match="level and p"):
            rough_pvar_distance(a, lift_scalar_path(np.zeros(5), 2, 2.0))

    def test_lift_validation(self):
        with pytest.raises(ValueError, match="p must be"):
            ScalarRoughLift(np.zeros(5), 2, 0.9)
        with pytest.raises(ValueError, match="1-d array"):
            ScalarRoughLift(np.zeros((5, 2)), 2, 2.5)
        with pytest.raises(ValueError, match="finite"):
            ScalarRoughLift(np.array([0.0, np.nan, 1.0]), 2, 2.5)


class TestHolderDistance:
    def test_zero_on_identical(self):
        rng = np.random.default_rng(22)
        z = rng.standard_normal(8)
        a = lift_scalar_path(z, 2, 2.5)
        assert holder_distance(a, a, 0.4) == 0.0

    def test_single_cell_hand_value(self):
        a = lift_scalar_path(np.array([0.0, 1.0]), 1, 2.0)
        b = lift_scalar_path(np.array([0.0, 0.0]), 1, 2.0)
        assert holder_distance(a, b, 0.5) == pytest.approx(1.0)
        # doubling the time span halves nothing at alpha=1 but scales at 0.5
        assert holder_distance(
            a, b, 0.5, times=np.array([0.0, 4.0])
        ) == pytest.approx(0.5)

    @given(
        cells=BLOCK_EDGE_COUNTS,
        level=st.integers(1, 3),
        alpha=st.floats(0.05, 1.0),
        uniform=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocks_equal_column_loop(self, cells, level, alpha, uniform, seed):
        rng = np.random.default_rng(seed)
        za = np.cumsum(rng.standard_normal(cells + 1))
        zb = za + 0.3 * rng.standard_normal(cells + 1)
        times = None if uniform else np.cumsum(rng.uniform(0.01, 1.0, cells + 1))
        a, b = lift_scalar_path(za, level, 2.5), lift_scalar_path(zb, level, 2.5)
        reference_times = np.arange(cells + 1.0) if uniform else times
        assert holder_distance(a, b, alpha, times) == column_holder_distance(
            za, zb, level, alpha, reference_times
        )

    def test_times_validation(self):
        a = lift_scalar_path(np.zeros(4), 2, 2.5)
        with pytest.raises(ValueError, match="strictly increasing"):
            holder_distance(a, a, 0.5, times=np.array([0.0, 1.0, 1.0, 2.0]))
        with pytest.raises(ValueError, match="strictly increasing"):
            holder_distance(a, a, 0.5, times=np.array([0.0, np.nan, 2.0, 3.0]))
        with pytest.raises(ValueError, match="alpha"):
            holder_distance(a, a, 0.0)
