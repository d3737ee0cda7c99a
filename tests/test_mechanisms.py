import collections
import math
import re
import tracemalloc
import types
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadecount import cli, mechanisms
from fadecount.dyadic import floor_log2
from fadecount.mechanisms import (DOMAIN_INTERVAL, DOMAIN_PAST, DOMAIN_STEP,
                                  DOMAIN_TREE, BaselineCounter, BaselineParams,
                                  ExpirationCounter, MechanismParams,
                                  RecordingNoise, ReplayNoise,
                                  SeededNoise, SimpleCounter,
                                  baseline_releases,
                                  expiration_max_and_mse_batch,
                                  expiration_noise_totals, lagged_releases,
                                  run_expiration)
from fadecount.noise import keyed_noise, prf_uniform, prf_uniform_array
from fadecount.privacy_audit import published_loss_bound
from noise_oracles import (AmortizedExpirationCounter, WalkBaselineCounter,
                           gather_noise_totals)

streams = st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1,
                   max_size=120)


def simple_releases(params, xs, seed):
    """SimpleCounter's releases over the whole stream xs, as one block of
    lagged_releases (none for an empty stream)."""
    return next(lagged_releases(SimpleCounter, params, xs, seed,
                                max(1, len(xs))), np.zeros(0))


def noise_range(params, first, last, seed):
    """The range kernel's total interval noise at release positions
    first..last (first >= 1)."""
    total = np.zeros(max(0, last - first + 1))
    mechanisms._add_noise_totals(total, ExpirationCounter.schedule(params),
                                 first, seed)
    return total


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
        # the published bound at the largest n, 2^62 - 1, and the level sum
        # at n = 2^62, where the power is checked, stay finite
        p = MechanismParams(1.0, 171.0)
        assert 5.69e305 < published_loss_bound((1 << 62) - 2, p) < 5.7e305
        assert 1.65e306 < 2.0 * p.budget_sums(63)[-1] < 1.66e306
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

    def test_fraction_budget_below_the_floats_is_named(self):
        # its float is 0.0, and the scales raised a bare ZeroDivisionError
        tiny = Fraction(1, 10**400)
        with pytest.raises(ValueError, match=r"^level_scale\(0\) must be a "
                           r"positive finite float, got inf \(epsilon "):
            MechanismParams(tiny)
        with pytest.raises(ValueError, match=r"^1/eps_past must be a positive "
                           r"finite float, got inf \(eps_past "):
            BaselineParams(7, 1.0, tiny)

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

    @given(st.lists(st.floats(0.0, 1.0), max_size=40),
           st.sampled_from([math.nan, math.inf, -math.inf, -1e-300,
                            1 + 2**-52, 5.0, -3.0]),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_vector_paths_reject_what_step_rejects(self, good, bad, data):
        # one bad value anywhere in a stream: the runners and every family's
        # `run` blocks raise step's message before they release anything
        at = data.draw(st.integers(0, len(good)))
        xs = np.array(good[:at] + [bad] + good[at:])
        params = MechanismParams(0.8, 1.0, 2)
        rule = "in [0, 1]" if math.isfinite(bad) else "finite"
        message = "^" + re.escape(f"stream value must be {rule}, got "
                                  f"{bad!r}") + "$"
        with pytest.raises(ValueError, match=message):
            ExpirationCounter(params, SeededNoise(1)).step(bad)
        for run in (run_expiration, simple_releases):
            with pytest.raises(ValueError, match=message):
                run(params, xs, 1)
        for name, family in cli.MECHANISMS.items():
            fp = BaselineParams(4, 1.0, 0.1) if name == "baseline" else params
            with pytest.raises(ValueError, match=message):
                list(family.releases(fp, xs, 1, 4))

    @pytest.mark.parametrize("length", [0, 1])
    def test_short_streams_check_the_seed(self, length):
        # a stream too short to draw anything still rejects a seed that
        # SeededNoise rejects
        params, xs = MechanismParams(0.8, 1.0, 3), np.zeros(length)
        for run in (run_expiration, simple_releases):
            for seed in (-1, 2**64, 2**70):
                with pytest.raises(ValueError, match=r"^seed must be in "
                                   rf"\[0, 2\^64\), got {seed}$"):
                    run(params, xs, seed)
            assert run(params, xs, 2**64 - 1).tolist() == [0.0] * length

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
            vec = simple_releases(params, np.array(xs), seed)
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
        # every draw an exact 0: both lagged counters release the prefix
        # through t - lag exactly
        params = MechanismParams(1.0, lam, delay)
        for counter in (ExpirationCounter, SimpleCounter):
            c = counter(params, ReplayNoise(collections.defaultdict(int)))
            lag = counter.lag(params)
            outs = [c.step(x) for x in xs]
            for t, out in enumerate(outs, start=1):
                assert out == sum(xs[:max(0, t - lag)])

    def test_state_bounds_and_redraw_count(self):
        T = 4096
        c = ExpirationCounter(MechanismParams(1.0, 1.0, 0), SeededNoise(1))
        for t in range(1, T + 1):
            c.step(0.0)
            assert c.active_noise_count == floor_log2(t) + 1
        assert c.redraws <= 2 * T

    @pytest.mark.parametrize("counter,params", [
        (SimpleCounter, MechanismParams(1.0)),
        (ExpirationCounter, MechanismParams(1.0, 1.0, 0)),
        (ExpirationCounter, MechanismParams(1.0, 1.0, 3))])
    def test_redraws_counts_every_draw(self, counter, params):
        # values drawn ahead included, at every step
        source = Listing()
        c = counter(params, source)
        for _ in range(4096):
            c.step(0.0)
            assert c.redraws == len(source.list)

    @given(streams, st.integers(0, 2**64 - 1), st.integers(0, 5),
           st.sampled_from([0.0, 1.0, 2.5]))
    @settings(max_examples=50)
    def test_step_equals_the_amortized_oracle(self, xs, seed, delay, lam):
        # drawing ahead changes when a value is drawn, never which value a
        # release sums
        params = MechanismParams(0.8, lam, delay)
        ahead, amortized = (RecordingNoise(SeededNoise(seed)) for _ in range(2))
        c = ExpirationCounter(params, ahead)
        oracle = AmortizedExpirationCounter(params, amortized)
        assert [c.step(x) for x in xs] == [oracle.step(x) for x in xs]
        assert amortized.ledger.keys() <= ahead.ledger.keys()
        assert all(ahead.ledger[k] == v for k, v in amortized.ledger.items())

    def test_long_stream_equals_the_amortized_oracle(self):
        params = MechanismParams(0.5, 2.0, 16)
        c = ExpirationCounter(params, SeededNoise(3))
        oracle = AmortizedExpirationCounter(params, SeededNoise(3))
        xs = np.random.default_rng(4).random((1 << 14) + 16).tolist()
        assert [c.step(x) for x in xs] == [oracle.step(x) for x in xs]

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
        # after `lag` silent steps, position p draws every level l <= 2
        # whose span 2^l divides p, in level order, keyed by the level's
        # prefix and p >> l; then, at p = (2i + 1) * 2^(l - 1) for a level
        # l >= 3, the middle of the level's span i, its next value, keyed
        # i + 1
        source = Listing()
        c = counter(params, source)
        want = []
        for t in range(1, (1 << 8) + 1):
            c.step(0.5)
            p = t - lag
            if p >= 1:
                want += [(key + (p >> lvl,), scale)
                         for lvl, (key, scale) in enumerate(levels[:3])
                         if p % (1 << lvl) == 0]
                want += [(key + ((p >> lvl) + 1,), scale)
                         for lvl, (key, scale) in enumerate(levels)
                         if lvl >= 3 and p % (1 << lvl) == 1 << (lvl - 1)]
            assert source.list == want

    @pytest.mark.parametrize("make,steps,most", [
        (lambda s: ExpirationCounter(MechanismParams(0.7, 2.0, 0), s),
         1 << 16, 4),
        (lambda s: ExpirationCounter(MechanismParams(0.7, 2.0, 16), s),
         (1 << 16) + 16, 4),
        (lambda s: SimpleCounter(MechanismParams(0.7), s), 1 << 12, 1),
        *[(lambda s, w=w: BaselineCounter(BaselineParams(w, 0.7, 0.07), s),
           1 << 12, 2) for w in (1, 7, 1023)]],
        ids=["expiration-delay-0", "expiration-delay-16", "simple",
             "baseline-window-1", "baseline-window-7",
             "baseline-window-1023"])
    def test_most_draws_per_step(self, make, steps, most):
        # the worst step of each counter, and no key drawn twice
        source = Listing()
        c = make(source)
        draws = []
        for _ in range(steps):
            before = len(source.list)
            c.step(0.5)
            draws.append(len(source.list) - before)
        assert max(draws) == most
        keys = [key for key, _ in source.list]
        assert len(set(keys)) == len(keys)


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
        c = BaselineCounter(BaselineParams(4, 1.0, 0.1),
                            ReplayNoise(collections.defaultdict(int)))
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


def baseline_steps(params, xs, seed):
    """BaselineCounter.step over the stream xs, as a float64 array."""
    c = BaselineCounter(params, SeededNoise(seed))
    return np.array([c.step(x) for x in xs.tolist()], dtype=np.float64)


def baseline_blocks(params, xs, seed, block):
    """baseline_releases' blocks, each but the last `block` long, joined."""
    blocks = list(baseline_releases(params, xs, seed, block))
    assert [len(b) for b in blocks] == [
        min(block, len(xs) - lo) for lo in range(0, len(xs), block)]
    return np.concatenate([np.zeros(0), *blocks])


def same_bits(a, b):
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestBaselineReleases:
    """baseline_releases against its oracle, BaselineCounter.step, bit for
    bit."""

    @given(st.sampled_from(list(range(1, 71))
                           + [1023, 1024, 1025, 2**20 - 1, 2**40]),
           st.integers(1, 130),
           st.one_of(st.sampled_from([0, 2**64 - 1]),
                     st.integers(0, 2**64 - 1)),
           st.integers(0, 2**32), st.data())
    @settings(max_examples=200, deadline=None)
    def test_blocks_equal_step(self, window, block, seed, stream_seed, data):
        # a stream of several blocks, and of several rounds where the window
        # allows; rounds start on -0.0, 0.0 or 1.0, other values are
        # non-dyadic
        n = data.draw(st.integers(0, 4 * max(min(window, 100), block)))
        xs = np.random.default_rng(stream_seed).random(n)
        xs[::window] = data.draw(st.lists(
            st.sampled_from([-0.0, 0.0, 1.0]), min_size=len(xs[::window]),
            max_size=len(xs[::window])))
        params = BaselineParams(window, 0.7, 0.07)
        assert same_bits(baseline_blocks(params, xs, seed, block),
                         baseline_steps(params, xs, seed))

    @pytest.mark.parametrize("window", [1023, 1024, 1025])
    def test_long_windows_over_several_rounds(self, window):
        xs = np.random.default_rng(window).random(3 * window + 7)
        xs[::window] = -0.0
        params = BaselineParams(window, 0.7, 0.07)
        want = baseline_steps(params, xs, 11)
        for block in (1, 130, 1024):
            assert same_bits(baseline_blocks(params, xs, 11, block), want)

    def test_float32_stream_equals_step(self):
        # step turns each value into a Python float; the block sums are
        # float64 sums of the same values
        xs = np.random.default_rng(8).random(2000).astype(np.float32)
        for window in (1, 7, 5000):
            params = BaselineParams(window, 0.5, 0.05)
            assert same_bits(baseline_blocks(params, xs, 3, 100),
                             baseline_steps(params, xs, 3))

    @pytest.mark.parametrize("length", [0, 1, 100])
    def test_bad_seed_raises_before_the_first_block(self, length):
        params = BaselineParams(7, 0.7, 0.07)
        for seed in (-1, 2**64):
            blocks = baseline_releases(params, np.zeros(length), seed, 4)
            with pytest.raises(ValueError, match=r"^seed must be in "
                               rf"\[0, 2\^64\), got {seed}$"):
                next(blocks)
        assert len(baseline_blocks(params, np.zeros(length), 2**64 - 1,
                                   4)) == length

    @pytest.mark.parametrize("length", [0, 1, 100])
    def test_bad_block_raises_before_the_first_block(self, length):
        # every block runner names the bad size before it releases anything,
        # an empty stream included
        xs, params = np.zeros(length), MechanismParams(0.7, 2.0, 3)
        for block in (0, -5):
            for blocks in (
                    baseline_releases(BaselineParams(7, 0.7, 0.07), xs, 3,
                                      block),
                    lagged_releases(ExpirationCounter, params, xs, 3, block),
                    lagged_releases(SimpleCounter, params, xs, 3, block)):
                with pytest.raises(ValueError, match="^block must be a "
                                   f"positive integer, got {block}$"):
                    next(blocks)

    @pytest.mark.parametrize("bad", [-0.5, 1 + 2**-52, math.nan])
    def test_bad_value_raises_before_the_first_block(self, bad):
        # in the stream's last block, found before its first is released
        xs = np.full(100, 0.5)
        xs[-1] = bad
        blocks = baseline_releases(BaselineParams(7, 0.7, 0.07), xs, 3, 4)
        rule = "in [0, 1]" if math.isfinite(bad) else "finite"
        with pytest.raises(ValueError, match="^" + re.escape(
                f"stream value must be {rule}, got {bad!r}") + "$"):
            next(blocks)

    def test_memory_is_one_block_plus_the_output(self):
        # at W 2^40 no array is sized by W: the output plus about fifteen
        # block-sized arrays when measured
        steps, block = 1 << 14, 1 << 10
        params, xs = BaselineParams(2**40, 0.7, 0.07), np.full(steps, 0.5)
        list(baseline_releases(params, xs[:block], 5, block))  # first call
        tracemalloc.start()
        try:
            list(baseline_releases(params, xs, 5, block))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * steps + 24 * 8 * block

    def test_run_uses_it(self):
        assert cli.MECHANISMS["baseline"].releases is baseline_releases


class TestVectorizedRunners:
    def test_noise_totals_match_scalar_counter(self):
        params = MechanismParams(0.8, 2.0, 0)
        totals = expiration_noise_totals(params, 300, seed=17)
        c = ExpirationCounter(params, SeededNoise(17))
        for p in range(1, 301):
            assert c.step(0.0) == totals[p]

    def test_batch_builds_the_schedule_once(self):
        schedule = ExpirationCounter.schedule
        calls = []

        def counting(params):
            calls.append(params)
            return schedule(params)

        with mock.patch.object(ExpirationCounter, "schedule",
                               staticmethod(counting)):
            expiration_max_and_mse_batch(MechanismParams(1.0), 64, range(5))
        assert len(calls) == 1

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
        assert np.array_equal(noise_range(params, first, last, seed), want)

    @given(st.integers(1, 600), st.integers(0, 600), st.integers(1, 64),
           st.integers(0, 2**64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_range_in_small_chunks_equals_gather_oracle(self, first, count,
                                                        chunk, seed):
        params = MechanismParams(0.8, 2.0, 0)
        last = first + count - 1
        want = gather_noise_totals(params, max(last, 0), seed)[first:last + 1]
        with mock.patch.object(mechanisms, "_CHUNK", chunk):
            got = noise_range(params, first, last, seed)
        assert np.array_equal(got, want)

    def test_range_draws_only_its_positions(self):
        # one position at 2^20 takes one draw per level: 21, not 2^21
        params, p, seed = MechanismParams(0.8, 1.5), 1 << 20, 6
        finish = mechanisms._keyed_laplace_into
        drawn = []

        def counting(keys, out, scales):
            drawn.append(len(keys))
            return finish(keys, out, scales)

        with mock.patch.object(mechanisms, "_keyed_laplace_into", counting):
            got = noise_range(params, p, p, seed)
        assert sum(drawn) == 21
        want = 0
        for lvl in range(21):
            want = want + keyed_noise(seed, (DOMAIN_INTERVAL, lvl, p >> lvl),
                                      params.level_scale(lvl))
        assert got.tolist() == [want]

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

    def test_whole_stream_simple_memory_is_two_arrays(self):
        # the releases and their noise totals, plus about one chunk of scratch
        steps = 1 << 18
        xs = np.full(steps, 0.5)
        tracemalloc.start()
        try:
            simple_releases(MechanismParams(0.8), xs, 4)
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
            lambda seed: noise_range(params, 5, 9, seed),
            lambda seed: expiration_max_and_mse_batch(params, 100, [3, seed]),
            lambda seed: run_expiration(params, xs, seed),
            lambda seed: simple_releases(params, xs, seed),
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
                          (SimpleCounter, simple_releases)):
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
