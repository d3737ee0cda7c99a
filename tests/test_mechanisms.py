import math
import tracemalloc
import types
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadecount import mechanisms
from fadecount.dyadic import floor_log2
from fadecount.mechanisms import (DOMAIN_INTERVAL, DOMAIN_PAST, DOMAIN_STEP,
                                  DOMAIN_TREE, BaselineCounter, BaselineParams,
                                  ExpirationCounter, MechanismParams,
                                  RecordingNoise, ReplayNoise,
                                  SeededNoise, SimpleCounter,
                                  expiration_max_and_mse_batch,
                                  expiration_noise_range,
                                  expiration_noise_totals, lagged_releases,
                                  run_expiration, run_simple)
from fadecount.noise import keyed_noise, prf_uniform, prf_uniform_array
from fadecount.privacy_audit import published_loss_bound
from noise_oracles import WalkBaselineCounter, gather_noise_totals

streams = st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1,
                   max_size=120)


class Listing:
    """A noise source that lists every (key, scale) it is asked for."""

    def __init__(self):
        self.list = []

    def draw(self, parts, scale):
        self.list.append((parts, scale))
        return keyed_noise(0, parts, scale)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MechanismParams(0.0)
        with pytest.raises(ValueError):
            MechanismParams(-1.0)
        with pytest.raises(ValueError):
            MechanismParams(1.0, delay=-1)
        MechanismParams(1.0, level_exponent=0.0)  # boundary case is allowed
        with pytest.raises(ValueError):
            MechanismParams(1.0, level_exponent=-0.5)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^epsilon must be finite"):
                MechanismParams(bad)
            with pytest.raises(ValueError,
                               match="^level_exponent must be finite"):
                MechanismParams(1.0, bad)

    def test_largest_level_exponent(self):
        # the published bound's power and level sum at n = 2^62 stay finite
        p = MechanismParams(1.0, 171.0)
        top = published_loss_bound((1 << 62) - 1, p)
        assert top == 2.0 * p.budget_sums(63)[-1] < 1.66e306
        with pytest.raises(ValueError, match=r"^63\.0 \*\* level_exponent must "
                           r"be a positive finite float, got inf "
                           r"\(level_exponent 172\.0\)$"):
            MechanismParams(1.0, 172.0)

    def test_level_scale(self):
        p = MechanismParams(0.5, level_exponent=3.0)
        # (1+l)^(1-lambda)/eps
        assert p.level_scale(0) == pytest.approx(2.0)
        assert p.level_scale(1) == pytest.approx(2.0 / 4.0)
        assert p.level_scale(3) == pytest.approx(2.0 / 16.0)
        uniform = MechanismParams(2.0, level_exponent=1.0)
        for lvl in range(6):
            assert uniform.level_scale(lvl) == pytest.approx(0.5)

    def test_baseline_validation(self):
        with pytest.raises(ValueError):
            BaselineParams(0, 1.0, 0.1)
        with pytest.raises(ValueError):
            BaselineParams(8, 0.0, 0.1)
        with pytest.raises(ValueError):
            BaselineParams(8, 1.0, 0.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^eps_cur must be finite"):
                BaselineParams(8, bad, 0.1)
            with pytest.raises(ValueError, match="^eps_past must be finite"):
                BaselineParams(8, 1.0, bad)

    def test_tree_depth(self):
        assert BaselineParams(1, 1.0, 1.0).tree_depth == 1
        assert BaselineParams(7, 1.0, 1.0).tree_depth == 3
        assert BaselineParams(8, 1.0, 1.0).tree_depth == 4
        assert BaselineParams(31, 1.0, 1.0).tree_depth == 5
        assert BaselineParams(127, 1.0, 1.0).tree_depth == 7
        assert BaselineParams(1023, 1.0, 1.0).tree_depth == 10

    @pytest.mark.parametrize("window,depth", [
        (2**53 - 1, 53), (2**53, 54), (2**53 + 1, 54), (2**60, 61)])
    def test_tree_depth_is_exact_past_float_precision(self, window, depth):
        # ceil(log2(window + 1)) in floats gives 53, 53, 53 and 60 here
        assert BaselineParams(window, 1.0, 1.0).tree_depth == depth

    def test_tree_depth_equals_float_formula_below_2_20(self):
        depth = BaselineParams.tree_depth.fget
        assert all(depth(types.SimpleNamespace(window=w))
                   == max(1, math.ceil(math.log2(w + 1)))
                   for w in range(1, 2**20))


class TestNoiseSources:
    def test_seeded_matches_keyed_noise(self):
        src = SeededNoise(9)
        assert src.draw((1, 2, 3), 1.5) == keyed_noise(9, (1, 2, 3), 1.5)

    def test_seed_is_64_bits(self):
        # the PRF adds a seed mod 2^64, so a seed outside would alias
        assert SeededNoise(2**64 - 1).draw((1,), 1.0) == \
            keyed_noise(2**64 - 1, (1,), 1.0)
        for seed in (-1, 2**64, 2**64 + 5):
            with pytest.raises(ValueError,
                               match=rf"^seed must be in \[0, 2\^64\), got {seed}$"):
                SeededNoise(seed)

    def test_recording_caches_and_replays(self):
        rec = RecordingNoise(SeededNoise(4))
        a = rec.draw((1, 0, 7), 2.0)
        assert rec.draw((1, 0, 7), 2.0) == a
        assert rec.ledger[(1, 0, 7)] == a
        rep = ReplayNoise(dict(rec.ledger))
        assert rep.draw((1, 0, 7), 2.0) == a
        with pytest.raises(KeyError):
            rep.draw((1, 0, 8), 2.0)


class TestInputValidation:
    @pytest.mark.parametrize("make", [
        lambda: SimpleCounter(MechanismParams(1.0), SeededNoise(0)),
        lambda: ExpirationCounter(MechanismParams(1.0), SeededNoise(0)),
        lambda: BaselineCounter(BaselineParams(8, 1.0, 0.1), SeededNoise(0)),
    ])
    def test_rejects_out_of_range(self, make):
        for bad in (-0.1, 1.5, 2):
            with pytest.raises(ValueError):
                make().step(bad)

    @pytest.mark.parametrize("counter,params", [
        (SimpleCounter, MechanismParams(1.0)),
        (ExpirationCounter, MechanismParams(1.0)),
        (BaselineCounter, BaselineParams(8, 1.0, 0.1)),
    ])
    def test_noise_source_is_required(self, counter, params):
        # no silent default seed: every run names its noise
        with pytest.raises(TypeError):
            counter(params)

    @pytest.mark.parametrize("make", [
        lambda: SimpleCounter(MechanismParams(0.7), SeededNoise(3)),
        lambda: ExpirationCounter(MechanismParams(0.7, 2.0, 5), SeededNoise(3)),
        lambda: BaselineCounter(BaselineParams(31, 0.5, 0.05), SeededNoise(3)),
    ])
    def test_float32_stream_releases_as_float64(self, make):
        xs = np.random.default_rng(8).random(2000).astype(np.float32)
        c32, c64 = make(), make()
        outs = [c32.step(x) for x in xs]
        assert all(type(out) in (int, float) for out in outs)
        assert outs == [c64.step(x) for x in xs.astype(np.float64).tolist()]

    def test_float32_stream_matches_run_expiration(self):
        params, seed = MechanismParams(0.7, 2.0, 5), 3
        xs = np.random.default_rng(8).random(2000).astype(np.float32)
        c = ExpirationCounter(params, SeededNoise(seed))
        scalar = np.array([c.step(x) for x in xs], dtype=np.float64)
        assert np.array_equal(
            scalar, run_expiration(params, xs.astype(np.float64), seed))

    def test_exact_inputs_pass_through(self):
        for x in (Fraction(1, 3), 1, 0, True, 0.25):
            assert mechanisms._check_input(x) is x
        assert type(mechanisms._check_input(np.float32(0.1))) is float
        assert mechanisms._check_input(np.float32(0.1)) == float(np.float32(0.1))


class TestSimpleCounter:
    def test_first_output_is_exact_zero(self):
        c = SimpleCounter(MechanismParams(1.0), SeededNoise(0))
        assert c.step(1.0) == 0

    def test_noise_structure(self):
        seed, eps = 13, 0.5
        c = SimpleCounter(MechanismParams(eps), SeededNoise(seed))
        xs = [1.0, 0.0, 1.0, 0.5, 0.25, 1.0]
        prefix = 0.0
        for t, x in enumerate(xs, start=1):
            out = c.step(x)
            if t == 1:
                assert out == 0
            else:
                z = keyed_noise(seed, (DOMAIN_STEP, t - 1), 1.0 / eps)
                assert out == prefix + z
            prefix += x

    @given(streams, st.integers(0, 2**32), st.integers(1, 64),
           st.integers(1, 130))
    @settings(max_examples=40, deadline=None)
    def test_matches_vectorized(self, xs, seed, chunk, block):
        # kernel chunks of 1..64 draws, and the runner in blocks of steps
        params = MechanismParams(0.7)
        c = SimpleCounter(params, SeededNoise(seed))
        scalar = np.array([float(c.step(x)) for x in xs])
        with mock.patch.object(mechanisms, "_CHUNK", chunk):
            vec = run_simple(params, np.array(xs), seed)
            blocks = list(lagged_releases(SimpleCounter, params,
                                          np.array(xs), seed, block))
        assert np.array_equal(scalar, vec)
        assert np.array_equal(scalar, np.concatenate(blocks))


class TestExpirationCounter:
    def test_zero_stream_delay_regime(self):
        c = ExpirationCounter(MechanismParams(1.0, 1.0, 3), SeededNoise(0))
        assert [c.step(1.0) for _ in range(3)] == [0, 0, 0]
        assert c.step(1.0) != 0  # position 1 released with noise

    def test_noise_structure_reconstruction(self):
        # every release must equal delayed prefix + one keyed draw per level
        # of the dyadic interval currently containing the release position
        seed, eps, lam, delay = 21, 0.5, 2.0, 4
        params = MechanismParams(eps, lam, delay)
        c = ExpirationCounter(params, SeededNoise(seed))
        rng = np.random.default_rng(5)
        xs = rng.integers(0, 2, size=200).astype(float)
        prefix = np.concatenate([[0.0], np.cumsum(xs)])
        for t in range(1, 201):
            out = c.step(xs[t - 1])
            p = t - delay
            if p < 1:
                assert out == 0
                continue
            expected = prefix[p]
            for lvl in range(floor_log2(p) + 1):
                expected += keyed_noise(seed, (DOMAIN_INTERVAL, lvl, p >> lvl),
                                        params.level_scale(lvl))
            assert out == pytest.approx(expected, rel=1e-12)

    @given(streams, st.integers(0, 3), st.sampled_from([0.0, 1.0, 2.5]))
    @settings(max_examples=50)
    def test_zero_noise_gives_exact_delayed_prefix(self, xs, delay, lam):
        from fadecount.mechanisms import ZeroNoise
        c = ExpirationCounter(MechanismParams(1.0, lam, delay), ZeroNoise())
        outs = [c.step(x) for x in xs]
        for t, out in enumerate(outs, start=1):
            assert out == sum(xs[:max(0, t - delay)])

    def test_state_bounds_and_redraw_count(self):
        T = 4096
        c = ExpirationCounter(MechanismParams(1.0, 1.0, 0), SeededNoise(1))
        expected_redraws = 0
        for t in range(1, T + 1):
            c.step(0.0)
            expected_redraws += (t & -t).bit_length()  # nu2(t) + 1
            assert c.active_noise_count == floor_log2(t) + 1
        assert c.redraws == expected_redraws
        assert c.redraws <= 2 * T

    def test_buffer_never_exceeds_delay(self):
        delay = 7
        c = ExpirationCounter(MechanismParams(1.0, 1.0, delay), SeededNoise(2))
        for _ in range(50):
            c.step(1.0)
            assert c.buffer_len <= delay

    def test_determinism(self):
        mk = lambda: ExpirationCounter(MechanismParams(0.9, 2.0, 2),
                                       SeededNoise(44))
        outs1 = [mk().step(0.5)]
        c1, c2 = mk(), mk()
        assert [c1.step(0.5) for _ in range(64)] == \
            [c2.step(0.5) for _ in range(64)]

    @given(streams, st.integers(0, 2**32), st.integers(0, 3))
    @settings(max_examples=50)
    def test_matches_vectorized(self, xs, seed, delay):
        params = MechanismParams(0.6, 2.0, delay)
        c = ExpirationCounter(params, SeededNoise(seed))
        scalar = np.array([float(c.step(x)) for x in xs])
        vec = run_expiration(params, np.array(xs), seed)
        assert np.array_equal(scalar, vec)


class TestSchedule:
    """SimpleCounter and ExpirationCounter step through one level schedule."""

    @pytest.mark.parametrize("counter,params", [
        (SimpleCounter, MechanismParams(0.7)),
        (ExpirationCounter, MechanismParams(0.7, 2.0, 0)),
        (ExpirationCounter, MechanismParams(0.7, 2.0, 3))])
    def test_step_draws_what_the_schedule_implies(self, counter, params):
        lag, levels = counter.lag(params), counter.schedule(params)
        if counter is SimpleCounter:
            assert (lag, levels) == (1, [((DOMAIN_STEP,), 1 / params.epsilon)])
        else:
            assert lag == params.delay
            assert levels == [((DOMAIN_INTERVAL, lvl), params.level_scale(lvl))
                              for lvl in range(63)]
        # after `lag` silent steps, position p redraws every level whose
        # span 2^l divides p, in level order, keyed by the level's prefix
        # and p >> l
        source = Listing()
        c = counter(params, source)
        want = []
        for t in range(1, (1 << 8) + 1):
            c.step(0.5)
            p = t - lag
            if p >= 1:
                want += [(key + (p >> lvl,), scale)
                         for lvl, (key, scale) in enumerate(levels)
                         if p % (1 << lvl) == 0]
            assert source.list == want


def baseline_reference_step(params, seed, xs, t):
    """Independent recomputation of the windowed baseline's release at t."""
    w, k = params.window, params.tree_depth
    r = (t + w - 1) // w
    s = t - (r - 1) * w
    total = 0.0
    if r >= 2:
        total = sum(xs[:(r - 1) * w]) + keyed_noise(
            seed, (DOMAIN_PAST, r), 1.0 / params.eps_past)
    total += sum(xs[(r - 1) * w:t])
    consumed = 0
    for lvl in range(s.bit_length() - 1, -1, -1):
        if s >> lvl & 1:
            node = consumed // (1 << lvl) + 1
            total += keyed_noise(seed, (DOMAIN_TREE, r, lvl, node),
                                 k / params.eps_cur)
            consumed += 1 << lvl
    return total


class TestBaselineCounter:
    def test_noise_structure_reconstruction(self):
        seed = 31
        params = BaselineParams(8, 0.5, 0.05)
        c = BaselineCounter(params, SeededNoise(seed))
        rng = np.random.default_rng(8)
        xs = list(rng.integers(0, 2, size=70).astype(float))
        for t in range(1, 71):
            out = c.step(xs[t - 1])
            assert out == pytest.approx(
                baseline_reference_step(params, seed, xs, t), rel=1e-12)

    def test_round_one_has_no_past_term(self):
        from fadecount.mechanisms import ZeroNoise
        c = BaselineCounter(BaselineParams(4, 1.0, 0.1), ZeroNoise())
        outs = [c.step(1.0) for _ in range(12)]
        assert outs == list(range(1, 13))  # exact prefix with zero noise

    def test_tree_reset_across_rounds(self):
        # the same (level, node) key in different rounds must get fresh noise
        seed = 3
        params = BaselineParams(4, 1.0, 0.1)
        z1 = keyed_noise(seed, (DOMAIN_TREE, 1, 0, 1), params.tree_depth)
        z2 = keyed_noise(seed, (DOMAIN_TREE, 2, 0, 1), params.tree_depth)
        assert z1 != z2
        c = BaselineCounter(params, SeededNoise(seed))
        outs = [c.step(0.0) for _ in range(8)]
        # step 1 (round 1, s=1) uses z1; step 5 (round 2, s=1) uses z2 plus
        # the round-2 past draw
        past = keyed_noise(seed, (DOMAIN_PAST, 2), 1.0 / params.eps_past)
        assert outs[0] == pytest.approx(z1)
        assert outs[4] == pytest.approx(past + z2)

    def test_noise_draw_count_is_lazy(self):
        # every draw is listed, with no cache to hide a repeat: each step
        # draws the one node its position completes, (nu2(s), s >> nu2(s)),
        # after the round's past draw at s = 1 of rounds r >= 2
        for window in (1, 6, 8):
            params = BaselineParams(window, 1.0, 0.1)
            draws = Listing()
            c = BaselineCounter(params, draws)
            want = []
            for t in range(1, 3 * window + 1):
                r, s = (t - 1) // window + 1, (t - 1) % window + 1
                if s == 1 and r >= 2:
                    want.append(((DOMAIN_PAST, r), 1.0 / params.eps_past))
                low = (s & -s).bit_length() - 1
                want.append(((DOMAIN_TREE, r, low, s >> low),
                             params.tree_depth / params.eps_cur))
                c.step(0.5)
                assert draws.list == want

    @given(st.integers(1, 130), st.integers(1, 4), st.integers(0, 129),
           st.integers(0, 2**64 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_releases_equal_walk_oracle(self, window, rounds, extra, seed,
                                        exact):
        # the walk draws the same keys at the same scales and sums in the
        # same order: equal releases, in floats and in Fraction arithmetic
        params = BaselineParams(window, 0.7, 0.07)
        rng = np.random.default_rng(seed % 1000)
        xs = rng.random(rounds * window + extra % window).tolist()
        noise = SeededNoise(seed)
        if exact:
            xs = [Fraction(x) for x in xs]
            noise = types.SimpleNamespace(
                draw=lambda parts, scale: Fraction(keyed_noise(seed, parts,
                                                               scale)))
        live = BaselineCounter(params, noise)
        walk = WalkBaselineCounter(params, noise)
        for x in xs:
            got, want = live.step(x), walk.step(x)
            assert got == want and type(got) is type(want)

    def test_state_is_one_node_per_level(self):
        # one live node per level is a list of tree_depth values; a cache of
        # the round's nodes grows to W entries (WalkBaselineCounter traces
        # 557 KiB over this round)
        params = BaselineParams(4095, 0.7, 0.07)
        noise = SeededNoise(3)
        tracemalloc.start()
        try:
            c = BaselineCounter(params, noise)
            for _ in range(params.window):
                c.step(0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 10
        assert len(c._live) == params.tree_depth == 12

    def test_determinism(self):
        params = BaselineParams(8, 0.7, 0.07)
        a = BaselineCounter(params, SeededNoise(5))
        b = BaselineCounter(params, SeededNoise(5))
        for _ in range(40):
            assert a.step(1.0) == b.step(1.0)


class TestVectorizedRunners:
    def test_noise_totals_match_scalar_counter(self):
        params = MechanismParams(0.8, 2.0, 0)
        totals = expiration_noise_totals(params, 300, seed=17)
        c = ExpirationCounter(params, SeededNoise(17))
        for p in range(1, 301):
            assert c.step(0.0) == totals[p]

    def test_batch_statistics_match_single_runs(self):
        params = MechanismParams(1.0, 1.0, 0)
        seeds = [0, 1, 2, 3, 9]
        maxes, mses = expiration_max_and_mse_batch(params, 128, seeds)
        for i, s in enumerate(seeds):
            totals = np.abs(expiration_noise_totals(params, 128, s)[1:])
            assert maxes[i] == totals.max()
            assert mses[i] == np.mean(totals * totals)

    @given(st.one_of(st.integers(1, 5000),
                     st.sampled_from([(1 << k) + o for k in range(1, 13)
                                      for o in (-1, 0, 1)])),
           st.sampled_from([0.0, 1.0, 2.0, 3.0]), st.integers(0, 2**64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_kernel_and_batch_equal_gather_oracle(self, positions, lam, seed):
        params = MechanismParams(0.8, lam, 0)
        want = gather_noise_totals(params, positions, seed)
        assert np.array_equal(expiration_noise_totals(params, positions, seed),
                              want)
        maxes, mses = expiration_max_and_mse_batch(params, positions, [seed])
        mags = np.abs(want[1:])
        assert maxes[0] == mags.max()
        assert mses[0] == np.mean(mags * mags)

    @given(st.integers(1, 3000), st.integers(1, 64),
           st.sampled_from([0.0, 1.0, 2.0, 3.0]), st.integers(0, 2**64 - 1))
    @settings(max_examples=80, deadline=None)
    def test_small_chunks_equal_gather_oracle(self, positions, chunk, lam,
                                              seed):
        # chunks this small split levels across chunks and pack many levels
        # into one, at sizes the oracle can check quickly
        params = MechanismParams(0.8, lam, 0)
        want = gather_noise_totals(params, positions, seed)
        with mock.patch.object(mechanisms, "_CHUNK", chunk):
            got = expiration_noise_totals(params, positions, seed)
            maxes, mses = expiration_max_and_mse_batch(params, positions,
                                                       [seed])
        assert np.array_equal(got, want)
        mags = np.abs(want[1:])
        assert maxes[0] == mags.max()
        assert mses[0] == np.mean(mags * mags)

    @pytest.mark.parametrize("positions", [
        (1 << 14) - 1, 1 << 14, (1 << 14) + 1, 3 * (1 << 13) + 5,
        (1 << 15) + 1])
    def test_chunk_boundaries_equal_gather_oracle(self, positions):
        params = MechanismParams(0.8, 2.0, 0)
        seed = 2**64 - 5
        assert np.array_equal(expiration_noise_totals(params, positions, seed),
                              gather_noise_totals(params, positions, seed))

    @given(st.one_of(st.integers(1, 300),
                     st.sampled_from([(1 << k) + o for k in range(18)
                                      for o in (-1, 0, 1)]).map(
                         lambda a: max(a, 1))),
           st.one_of(st.integers(0, 300), st.integers(16384, 40000)),
           st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
           st.integers(0, 2**64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_range_equals_gather_oracle(self, first, count, lam, seed):
        # ranges of 2^14 positions and more cross a 2^15-draw chunk boundary;
        # starts at and either side of a power of two cut levels mid-draw
        params = MechanismParams(0.8, lam, 0)
        last = first + count - 1
        want = gather_noise_totals(params, max(last, 0), seed)[first:last + 1]
        assert np.array_equal(
            expiration_noise_range(params, first, last, seed), want)

    @given(st.integers(1, 600), st.integers(0, 600), st.integers(1, 64),
           st.integers(0, 2**64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_range_in_small_chunks_equals_gather_oracle(self, first, count,
                                                        chunk, seed):
        params = MechanismParams(0.8, 2.0, 0)
        last = first + count - 1
        want = gather_noise_totals(params, max(last, 0), seed)[first:last + 1]
        with mock.patch.object(mechanisms, "_CHUNK", chunk):
            got = expiration_noise_range(params, first, last, seed)
        assert np.array_equal(got, want)

    def test_range_draws_only_its_positions(self):
        # one position at 2^20 takes one draw per level: 21, not 2^21
        params, p, seed = MechanismParams(0.8, 1.5), 1 << 20, 6
        finish = mechanisms._prf_uniform_inplace
        drawn = []

        def counting(keys, scratch):
            drawn.append(len(keys))
            return finish(keys, scratch)

        with mock.patch.object(mechanisms, "_prf_uniform_inplace", counting):
            got = expiration_noise_range(params, p, p, seed)
        assert sum(drawn) == 21
        want = 0
        for lvl in range(21):
            want = want + keyed_noise(seed, (DOMAIN_INTERVAL, lvl, p >> lvl),
                                      params.level_scale(lvl))
        assert got.tolist() == [want]

    def test_range_rejects_position_zero(self):
        with pytest.raises(ValueError, match="first"):
            expiration_noise_range(MechanismParams(1.0), 0, 5, seed=1)

    def test_kernel_scratch_is_bounded(self):
        # the output plus scratch of about one chunk, not a copy per level
        positions = 1 << 18
        tracemalloc.start()
        try:
            expiration_noise_totals(MechanismParams(0.8, 1.0), positions, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (positions + 1) + (2 << 20)

    def test_run_simple_memory_is_two_arrays(self):
        # the releases and their noise totals, plus about one chunk of scratch
        steps = 1 << 18
        xs = np.full(steps, 0.5)
        tracemalloc.start()
        try:
            run_simple(MechanismParams(0.8), xs, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * steps + (1 << 20)

    def test_rejects_negative_positions(self):
        with pytest.raises(ValueError, match="positions"):
            expiration_noise_totals(MechanismParams(1.0), -3, seed=1)

    def test_batch_rejects_no_positions(self):
        with pytest.raises(ValueError, match="positions"):
            expiration_max_and_mse_batch(MechanismParams(1.0), 0, [1])

    def test_seeds_outside_64_bits_raise(self):
        # the key folds add a seed mod 2^64, so one outside would alias one
        # inside: every lane rejects it, as SeededNoise does
        params, xs = MechanismParams(0.8, 1.0), np.zeros(100)
        idx = np.arange(1, 4, dtype=np.uint64)
        lanes = [
            lambda seed: expiration_noise_totals(params, 100, seed),
            lambda seed: expiration_noise_range(params, 5, 9, seed),
            lambda seed: expiration_max_and_mse_batch(params, 100, [3, seed]),
            lambda seed: run_expiration(params, xs, seed),
            lambda seed: run_simple(params, xs, seed),
            lambda seed: prf_uniform_array(seed, (DOMAIN_STEP,), idx),
            lambda seed: prf_uniform(seed, (DOMAIN_STEP, 1)),
        ]
        for seed in (-1, 2**64 + 3):
            for lane in lanes:
                with pytest.raises(ValueError, match=r"^seed must be in "
                                   rf"\[0, 2\^64\), got {seed}$"):
                    lane(seed)
        top = 2**64 - 1
        for make, run in ((ExpirationCounter, run_expiration),
                          (SimpleCounter, run_simple)):
            c = make(params, SeededNoise(top))
            assert np.array_equal(run(params, xs, top),
                                  [c.step(0.0) for _ in xs])
        maxes, mses = expiration_max_and_mse_batch(params, 100, [top])
        mags = np.abs(expiration_noise_totals(params, 100, top)[1:])
        assert maxes[0] == mags.max()
        assert mses[0] == np.mean(mags * mags)
        assert prf_uniform_array(top, (DOMAIN_STEP,), idx).tolist() == [
            prf_uniform(top, (DOMAIN_STEP, int(k))) for k in idx]

    def test_no_positions_is_all_zero(self):
        totals = expiration_noise_totals(MechanismParams(1.0), 0, seed=1)
        assert np.array_equal(totals, np.zeros(1))

    def test_run_expiration_leaves_stream_unchanged(self):
        xs = np.linspace(0.0, 1.0, 300)
        kept = xs.copy()
        run_expiration(MechanismParams(0.4, 1.0, 7), xs, seed=2)
        assert np.array_equal(xs, kept)

    def test_run_expiration_zero_stream_is_noise(self):
        params = MechanismParams(0.4, 1.0, 0)
        out = run_expiration(params, np.zeros(64), seed=2)
        totals = expiration_noise_totals(params, 64, seed=2)
        assert np.array_equal(out, totals[1:])
