import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadecount.dyadic import (DyadicInterval, decompose, decomposition_costs,
                              floor_log2)

from audit_oracles import decomposition_level_counts


def greedy_reference(a, b):
    """Independent decomposition oracle: repeatedly take the largest aligned
    block that starts at a and fits inside [a, b]."""
    out = []
    while a <= b:
        lvl = 0
        while (a % (2 << lvl) == 0 and a + (2 << lvl) - 1 <= b
               and (a >> (lvl + 1)) >= 1):
            lvl += 1
        while a % (1 << lvl) != 0 or a + (1 << lvl) - 1 > b:
            lvl -= 1
        out.append(DyadicInterval(lvl, a >> lvl))
        a += 1 << lvl
    return out


class TestFloorLog2:
    def test_exhaustive_small(self):
        import math
        for n in range(1, 1 << 16):
            assert floor_log2(n) == int(math.log2(n)) or \
                floor_log2(n) == n.bit_length() - 1
        # the bit_length form is the ground truth; log2 floats can be off
        for n in (1, 2, 3, 4, 7, 8, 1023, 1024, (1 << 52) - 1, 1 << 52):
            assert floor_log2(n) == n.bit_length() - 1

    def test_rejects_nonpositive(self):
        for bad in (0, -1, -5):
            with pytest.raises(ValueError):
                floor_log2(bad)


class TestDyadicInterval:
    def test_bounds(self):
        iv = DyadicInterval(3, 2)
        assert iv.start == 16 and iv.end == 23

    def test_level_zero_is_singleton(self):
        iv = DyadicInterval(0, 9)
        assert iv.start == iv.end == 9

    @given(st.integers(0, 20), st.integers(1, 1 << 20))
    @settings(max_examples=60)
    def test_length_is_power_of_two(self, lvl, k):
        iv = DyadicInterval(lvl, k)
        assert iv.end - iv.start + 1 == 1 << lvl


def containing(t):
    """The intervals the expiration counter draws at position t:
    DyadicInterval(l, t >> l) for each level l <= floor_log2(t)."""
    return [DyadicInterval(lvl, t >> lvl) for lvl in range(floor_log2(t) + 1)]


class TestContaining:
    def test_count_matches_log(self):
        # levels past floor_log2(t) would need index 0, which no interval has
        for t in range(1, 1 << 12):
            assert t >> (floor_log2(t) + 1) == 0
            assert len(containing(t)) == floor_log2(t) + 1

    def test_structure_small(self):
        assert containing(1) == [DyadicInterval(0, 1)]
        assert containing(6) == [DyadicInterval(0, 6), DyadicInterval(1, 3),
                                 DyadicInterval(2, 1)]

    @given(st.integers(1, 1 << 30))
    @settings(max_examples=100)
    def test_each_level_once_and_contains(self, t):
        for iv in containing(t):
            assert iv.start <= t <= iv.end and iv.index >= 1


class TestDecompose:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            decompose(0, 5)
        with pytest.raises(ValueError):
            decompose(3, 2)

    def test_single_point(self):
        assert decompose(7, 7) == [DyadicInterval(0, 7)]

    def test_aligned_block(self):
        assert decompose(8, 15) == [DyadicInterval(3, 1)]

    def test_matches_greedy_reference_exhaustive(self):
        for a in range(1, 257):
            for b in range(a, 257):
                assert decompose(a, b) == sorted(
                    greedy_reference(a, b), key=lambda iv: iv.start)

    @given(st.integers(1, 1 << 16), st.integers(0, 1 << 12))
    @settings(max_examples=150)
    def test_covering_properties(self, a, length):
        b = a + length
        ivs = decompose(a, b)
        # exact disjoint cover, in start order
        assert ivs[0].start == a and ivs[-1].end == b
        for prev, cur in zip(ivs, ivs[1:]):
            assert cur.start == prev.end + 1
        # at most two per level, levels bounded by the range length
        levels = [iv.level for iv in ivs]
        assert max(levels) <= floor_log2(b - a + 1)
        for lvl in set(levels):
            assert levels.count(lvl) <= 2
        assert all(iv.index >= 1 for iv in ivs)

    def test_interval_count_sum_first_thousand(self):
        # pinned: total number of levels over all points 1..1000
        assert sum(len(containing(t)) for t in range(1, 1001)) == 8987


class TestVectorizedCounts:
    def test_counts_match_scalar_decompose(self):
        positions = np.arange(1, 400)
        for length in range(1, 70):
            counts = decomposition_level_counts(length, positions, 12)
            for i, j in enumerate(positions):
                ivs = decompose(j, j + length - 1)
                per_level = np.bincount([iv.level for iv in ivs], minlength=12)
                assert np.array_equal(counts[:, i], per_level), \
                    f"length={length} j={j}"

    def test_costs_match_weighted_scalar(self):
        weights = [float(1 + lvl) for lvl in range(12)]
        for length in (1, 2, 3, 8, 37, 64):
            costs = decomposition_costs(length, 1, 400, weights)
            for i, j in enumerate(range(1, 400)):
                expected = sum(weights[iv.level]
                               for iv in decompose(j, j + length - 1))
                assert costs[i] == pytest.approx(expected)

    @given(st.integers(1, 1 << 14), st.integers(1, 1 << 10))
    @settings(max_examples=60)
    def test_costs_single_position_property(self, j, length):
        levels = floor_log2(length) + 1
        weights = [1.0] * levels
        cost = decomposition_costs(length, j, j + 1, weights)[0]
        assert cost == len(decompose(j, j + length - 1))

    def test_both_endpoints_emitting_counts_two(self):
        # at some levels both the left and right cursor emit; the count must
        # be 2 there, not a boolean OR
        counts = decomposition_level_counts(8, np.array([1]), 4)
        assert counts.sum() == len(decompose(1, 8)) == 4
        assert counts[0, 0] == 2  # singletons {1} and {8}
