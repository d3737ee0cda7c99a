import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadecount.noise import (_key_offsets, _keyed_laplace_into,
                             concentration_threshold, keyed_noise,
                             laplace_sample, laplace_sample_array,
                             prf_uniform, prf_uniform_array)


def mix64_reference(h):
    """Independent reimplementation of the 64-bit finalizer used by the PRF."""
    M = (1 << 64) - 1
    h = (h + 0x9E3779B97F4A7C15) & M
    h ^= h >> 30
    h = (h * 0xBF58476D1E3524B5) & M
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & M
    return h ^ (h >> 31)


def prf_reference(seed, parts):
    M = (1 << 64) - 1
    h = seed & M
    for part in parts:
        h = mix64_reference((h + part) & M)
    return ((h >> 12) + 0.5) / float(1 << 52)


class TestPrfUniform:
    def test_matches_reference_implementation(self):
        cases = [
            (0, (0,)),
            (0, (1, 2, 3)),
            (12345, (2, 977)),
            (2**64 - 1, (2**64 - 1, 0, 2**63)),
            (7, ()),
        ]
        for seed, parts in cases:
            assert prf_uniform(seed, parts) == prf_reference(seed, parts)

    def test_deterministic(self):
        assert prf_uniform(42, (1, 5, 9)) == prf_uniform(42, (1, 5, 9))

    def test_distinct_keys_distinct_values(self):
        seen = {prf_uniform(3, (1, lvl, k)) for lvl in range(8)
                for k in range(1, 200)}
        assert len(seen) == 8 * 199

    def test_key_parts_are_not_concatenation_ambiguous(self):
        # (1, 23) and (12, 3) hash through separate absorb rounds
        assert prf_uniform(0, (1, 23)) != prf_uniform(0, (12, 3))
        assert prf_uniform(0, (2, 1)) != prf_uniform(0, (1, 2))

    @given(st.integers(0, 2**64 - 1),
           st.lists(st.integers(0, 2**64 - 1), max_size=4))
    @settings(max_examples=60)
    def test_open_unit_interval(self, seed, parts):
        u = prf_uniform(seed, tuple(parts))
        assert 0.0 < u < 1.0

    def test_mean_is_half(self):
        us = prf_uniform_array(9, (1, 0), np.arange(200_000, dtype=np.uint64))
        assert abs(us.mean() - 0.5) < 0.005
        assert abs(us.var() - 1 / 12) < 0.002

    def test_array_matches_scalar(self):
        idx = np.arange(1, 3000, dtype=np.uint64)
        arr = prf_uniform_array(77, (1, 4), idx)
        for i in (0, 1, 500, 2998):
            assert arr[i] == prf_uniform(77, (1, 4, int(idx[i])))

    @given(st.integers(0, 2**64 - 1), st.integers(0, 5),
           st.integers(0, 2**32))
    @settings(max_examples=40)
    def test_array_matches_scalar_property(self, seed, lvl, k):
        arr = prf_uniform_array(seed, (1, lvl), np.array([k], dtype=np.uint64))
        assert arr[0] == prf_uniform(seed, (1, lvl, k))


# key parts anywhere in [0, 2^64), and often within 2^10 of the top, where
# the fold's additions wrap
key_parts = st.one_of(st.integers(0, 2**64 - 1),
                      st.integers(2**64 - 2**10, 2**64 - 1))


class TestArrayLane:
    def test_rejects_non_integer_indices(self):
        # the scalar lane's key sum raises on a float part, 2.0 too
        for part in (2.7, 2.0):
            with pytest.raises(TypeError):
                prf_uniform(5, (2, part))
        for indices in (np.array([2.7]), np.array([1.0, 2.0])):
            with pytest.raises(ValueError,
                               match="^indices must be integers, got float64$"):
                prf_uniform_array(5, (2,), indices)

    def test_negative_indices_wrap_as_in_the_scalar_lane(self):
        assert prf_uniform(5, (2, 2**64 - 3)) == \
            prf_uniform_array(5, (2,), np.array([-3]))[0]

    @given(st.one_of(st.sampled_from([0, 2**64 - 1]),
                     st.integers(0, 2**64 - 1)),
           st.sampled_from([(), (1,), (3,), (2, 7), (2**64 - 1, 0)]),
           st.lists(key_parts, min_size=1, max_size=4),
           st.lists(key_parts, min_size=1, max_size=3))
    @settings(max_examples=60)
    def test_array_fold_equals_scalar_fold(self, seed, prefix, a, b):
        # one part folds elementwise; two broadcast to every (b, a) pair
        pa = np.array(a, dtype=np.uint64)
        pb = np.array(b, dtype=np.uint64)[:, None]
        one = _key_offsets(seed, prefix, pa)
        assert one.dtype == np.uint64
        assert one.tolist() == [_key_offsets(seed, prefix + (x,)) for x in a]
        two = _key_offsets(seed, prefix, pa, pb)
        assert two.shape == (len(b), len(a))
        assert two.tolist() == [[_key_offsets(seed, prefix + (x, y))
                                 for x in a] for y in b]
        assert pa.tolist() == a     # the parts are left unchanged

    @given(st.integers(0, 2**64 - 1), key_parts,
           st.lists(st.integers(0, 2**40), min_size=1, max_size=6),
           st.integers(0, 6))
    @settings(max_examples=40)
    def test_laplace_of_keys_is_keyed_noise(self, seed, lvl, ks, cut):
        # keys are index + key offset; each slice has its own scale
        offset = _key_offsets(seed, (3,), np.array([lvl], dtype=np.uint64))
        keys = np.array(ks, dtype=np.uint64) + offset
        out = np.empty(len(ks))
        _keyed_laplace_into(keys, out, ((slice(None, cut), 0.5),
                                        (slice(cut, None), 7.0)))
        assert out.tolist() == [
            keyed_noise(seed, (3, lvl, k), 0.5 if i < cut else 7.0)
            for i, k in enumerate(ks)]


def unmix64_reference(h):
    """The key x with mix64_reference(x) == h: each finalizer step undone."""
    M = (1 << 64) - 1

    def unshift(h, s):
        x = h
        for _ in range(64 // s + 1):
            x = h ^ (x >> s)
        return x

    h = unshift(h, 31)
    h = (h * pow(0x94D049BB133111EB, -1, 1 << 64)) & M
    h = unshift(h, 27)
    h = (h * pow(0xBF58476D1E3524B5, -1, 1 << 64)) & M
    h = unshift(h, 30)
    return (h - 0x9E3779B97F4A7C15) & M


class TestUniformRangeEnds:
    @pytest.mark.parametrize("m", [0, 1, 1 << 51, (1 << 52) - 1])
    @pytest.mark.parametrize("low", [0, (1 << 12) - 1])
    def test_lanes_exact_at_top_bits(self, m, low):
        # a key whose finalizer output has top 52 bits m, for seed 0 and
        # one key part; the array lane takes the same part as its index
        key = unmix64_reference((m << 12) | low)
        assert mix64_reference(key) >> 12 == m
        want = (m + 0.5) * 2.0**-52
        scalar = prf_uniform(0, (key,))
        arr = prf_uniform_array(0, (), np.array([key], dtype=np.uint64))
        assert scalar.hex() == want.hex()
        assert float(arr[0]).hex() == want.hex()
        assert 0.0 < arr[0] < 1.0


class TestLaplaceSample:
    def test_median_is_zero(self):
        assert laplace_sample(3.0, 0.5) == 0.0

    def test_known_quantiles(self):
        # P[X <= scale*ln(2)] = 3/4 for a unit-scale Laplace variate
        assert laplace_sample(1.0, 0.75) == pytest.approx(math.log(2))
        assert laplace_sample(1.0, 0.25) == pytest.approx(-math.log(2))
        assert laplace_sample(2.0, 0.75) == pytest.approx(2 * math.log(2))

    @given(st.floats(0.001, 0.999), st.floats(0.01, 100.0))
    @settings(max_examples=80)
    def test_antisymmetric(self, u, scale):
        a = laplace_sample(scale, u)
        b = laplace_sample(scale, 1.0 - u)
        assert a == pytest.approx(-b, abs=1e-9 * scale)

    @given(st.floats(0.001, 0.998))
    @settings(max_examples=50)
    def test_monotone_in_u(self, u):
        assert laplace_sample(1.0, u) < laplace_sample(1.0, u + 1e-3)

    def test_rejects_endpoint_uniforms(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                laplace_sample(1.0, bad)

    def test_rejects_bad_scale(self):
        for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
            rule = "positive" if math.isfinite(bad) else "finite"
            with pytest.raises(ValueError,
                               match=f"^scale must be {rule}, got {bad}$"):
                laplace_sample(bad, 0.3)
            with pytest.raises(ValueError,
                               match=f"^scale must be {rule}, got {bad}$"):
                laplace_sample_array(bad, np.array([0.3]))

    def test_array_lanes_leave_inputs_unchanged(self):
        idx = np.arange(1, 1000, dtype=np.uint64)
        us = prf_uniform_array(3, (1, 2), idx)
        assert np.array_equal(idx, np.arange(1, 1000, dtype=np.uint64))
        kept = us.copy()
        laplace_sample_array(2.5, us)
        assert np.array_equal(us, kept)

    @pytest.mark.parametrize("scale,u,message", [
        (-1.0, 0.3, "scale must be positive, got -1.0"),
        (0.0, 0.3, "scale must be positive, got 0.0"),
        (1.0, 0.0, r"uniform must be in \(0, 1\), got 0\.0"),
        (1.0, 1.0, r"uniform must be in \(0, 1\), got 1\.0"),
        (1.0, math.nan, r"uniform must be finite, got nan")])
    def test_array_rejects_what_the_scalar_rejects(self, scale, u, message):
        for lane in (lambda v: laplace_sample(scale, v),
                     lambda v: laplace_sample_array(scale, np.array([0.5, v])),
                     lambda v: laplace_sample_array(scale, np.array([v, 0.5]))):
            with pytest.raises(ValueError, match=f"^{message}$"):
                lane(u)
        with pytest.raises(ValueError, match="^scale must be positive"):
            laplace_sample_array(0.0, np.array([]))

    def test_array_matches_scalar(self):
        us = np.linspace(0.01, 0.99, 101)
        arr = laplace_sample_array(1.7, us)
        assert arr.shape == us.shape
        for i in (0, 13, 50, 100):
            assert arr[i] == laplace_sample(1.7, float(us[i]))

    def test_sample_moments(self):
        us = prf_uniform_array(5, (9,), np.arange(400_000, dtype=np.uint64))
        xs = laplace_sample_array(1.0, us)
        # Laplace(b): mean 0, var 2b^2
        assert abs(xs.mean()) < 0.01
        assert abs(xs.var() - 2.0) < 0.03


class TestKeyedNoise:
    def test_deterministic_and_key_sensitive(self):
        a = keyed_noise(11, (1, 2, 3), 1.0)
        assert a == keyed_noise(11, (1, 2, 3), 1.0)
        assert a != keyed_noise(11, (1, 2, 4), 1.0)
        assert a != keyed_noise(12, (1, 2, 3), 1.0)

    def test_scale_is_linear(self):
        a = keyed_noise(4, (2, 7), 1.0)
        assert keyed_noise(4, (2, 7), 5.0) == pytest.approx(5 * a)

    def test_consistent_with_parts(self):
        u = prf_uniform(8, (3, 1, 2, 5))
        assert keyed_noise(8, (3, 1, 2, 5), 2.0) == laplace_sample(2.0, u)


class TestTailBounds:
    def test_threshold_single_scale(self):
        # one scale b: nu = b*sqrt(ln(2/beta)) when that exceeds sqrt(b^2)
        beta = 0.01
        ln = math.log(2 / beta)
        expected = math.sqrt(ln) * math.sqrt(8 * ln)
        assert concentration_threshold([1.0], beta) == pytest.approx(expected)

    def test_threshold_eleven_unit_scales(self):
        # pinned: the additive-error threshold used throughout at beta=0.01
        got = concentration_threshold([1.0] * 11, 0.01)
        assert got == pytest.approx(21.5928675, abs=1e-5)

    def test_threshold_scales_linearly(self):
        base = concentration_threshold([1.0, 2.0, 4.0], 0.05)
        assert concentration_threshold([3.0, 6.0, 12.0], 0.05) == \
            pytest.approx(3 * base)

    @given(st.floats(0.001, 0.5), st.floats(0.002, 0.5))
    @settings(max_examples=40)
    def test_threshold_monotone_in_beta(self, b1, b2):
        lo, hi = sorted((b1, b2))
        if lo == hi:
            return
        scales = [1.0, 0.5, 2.0]
        assert concentration_threshold(scales, lo) >= \
            concentration_threshold(scales, hi)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            concentration_threshold([], 0.01)
        with pytest.raises(ValueError):
            concentration_threshold([1.0], 0.0)
        with pytest.raises(ValueError):
            concentration_threshold([1.0], 1.0)
        with pytest.raises(ValueError):
            concentration_threshold([1.0, -1.0], 0.1)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError,
                               match=f"^scale must be finite, got {bad}$"):
                concentration_threshold([1.0, bad], 0.1)

    def test_threshold_reads_scales_as_floats(self):
        # an int scale was squared and summed exactly, and math.sqrt of the
        # sum raised a bare OverflowError
        assert concentration_threshold([3, 10**200], 0.1) == \
            concentration_threshold([3.0, 1e200], 0.1)
        with pytest.raises(ValueError,
                           match=f"^scale must be finite, got {10**400}$"):
            concentration_threshold([1.0, 10**400], 0.1)

    def test_threshold_actually_concentrates(self):
        # empirical check that P[|sum| > threshold] is small at beta=0.05
        beta = 0.05
        scales = [1.0] * 8
        thr = concentration_threshold(scales, beta)
        us = prf_uniform_array(3, (5,), np.arange(80_000, dtype=np.uint64))
        xs = laplace_sample_array(1.0, us).reshape(10_000, 8).sum(axis=1)
        assert (np.abs(xs) > thr).mean() < beta
