import math
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadecount.dyadic import decompose, floor_log2
from fadecount.mechanisms import (DOMAIN_INTERVAL, BaselineCounter,
                                  BaselineParams, ExpirationCounter,
                                  MechanismParams, RecordingNoise,
                                  ReplayNoise, SeededNoise, SimpleCounter,
                                  ZeroNoise)
from fadecount import privacy_audit
from fadecount.privacy_audit import (CouplingReport, PrivacyLossCurve,
                                     _worst_decomposition_costs,
                                     baseline_loss_curve,
                                     closed_form_loss_bound, coupling_shift,
                                     empirical_loss_baseline,
                                     empirical_loss_curve,
                                     empirical_loss_expiration,
                                     exact_loss_bound, lower_bound_check,
                                     published_loss_bound,
                                     published_loss_bounds, verify_coupling)

from audit_oracles import (count_search_tree_maxima,
                           scatter_decomposition_costs, search_loss_baseline,
                           search_loss_expiration, worst_position_search_bound)

LAMBDAS = [0.0, 0.5, 1.0, 2.0, 3.0]


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestPrivacyLossCurve:
    def test_envelope_is_running_max(self):
        curve = PrivacyLossCurve([0, 1, 2, 3], [1.0, 3.0, 2.0, 5.0])
        assert list(curve.envelope) == [1.0, 3.0, 3.0, 5.0]

    def test_envelope_at(self):
        curve = PrivacyLossCurve([0, 2, 4], [1.0, 3.0, 2.0])
        assert curve.envelope_at(0) == 1.0
        assert curve.envelope_at(1) == 1.0   # largest grid point <= 1
        assert curve.envelope_at(2) == 3.0
        assert curve.envelope_at(100) == 3.0
        with pytest.raises(ValueError):
            curve.envelope_at(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            PrivacyLossCurve([0, 0], [1.0, 1.0])      # not strictly increasing
        with pytest.raises(ValueError):
            PrivacyLossCurve([0, 1], [1.0, -1.0])     # negative loss
        with pytest.raises(ValueError):
            PrivacyLossCurve([], [])
        with pytest.raises(ValueError, match="nonnegative"):
            PrivacyLossCurve([0, 1], [1.0, float("nan")])
        with pytest.raises(ValueError, match="finite, got inf at d=2$"):
            PrivacyLossCurve([0, 2, 3], [1.0, math.inf, math.inf])


class TestExactLossBound:
    def test_uniform_exponent_values(self):
        p = MechanismParams(0.5, 1.0, 0)
        # 2 * eps * (number of levels), levels = floor(log2(d+1)) + 1
        assert exact_loss_bound(0, p) == pytest.approx(1.0)
        assert exact_loss_bound(1, p) == pytest.approx(2.0)
        assert exact_loss_bound(7, p) == pytest.approx(4.0)
        assert exact_loss_bound(8, p) == pytest.approx(4.0)

    def test_weighted_exponent_values(self):
        p = MechanismParams(1.0, 3.0, 0)
        # weights (1+l)^2: d=7 -> levels 0..3 -> 2*(1+4+9+16) = 60
        assert exact_loss_bound(7, p) == pytest.approx(60.0)

    def test_delay_regime_is_free(self):
        p = MechanismParams(1.0, 1.0, 5)
        for d in range(5):
            assert exact_loss_bound(d, p) == 0.0
        assert exact_loss_bound(5, p) == pytest.approx(2.0)

    def test_delay_shifts_the_curve(self):
        a = MechanismParams(0.7, 2.0, 9)
        b = MechanismParams(0.7, 2.0, 0)
        for d in range(9, 200):
            assert exact_loss_bound(d, a) == exact_loss_bound(d - 9, b)


class TestClosedFormBound:
    def test_lambda_one(self):
        p = MechanismParams(1.0, 1.0, 0)
        # 2 * (1 + log2(n)) at lam=1
        assert closed_form_loss_bound(0, p) == pytest.approx(2.0)
        assert closed_form_loss_bound(3, p) == pytest.approx(2 * (1 + 2.0))

    def test_lambda_zero_limit(self):
        p0 = MechanismParams(1.0, 0.0, 0)
        # 2 * (1 + ln(log2(n) + 1))
        assert closed_form_loss_bound(3, p0) == pytest.approx(
            2 * (1 + math.log(3.0)))
        # at n = 1 the limit form is 2 eps, the exact level sum
        for delay in (0, 3):
            p0 = MechanismParams(0.7, 0.0, delay)
            assert closed_form_loss_bound(delay, p0) == \
                exact_loss_bound(delay, p0) == 2 * 0.7

    def test_lambda_zero_is_continuous_limit(self):
        p0 = MechanismParams(1.0, 0.0, 0)
        p_eps = MechanismParams(1.0, 1e-9, 0)
        for d in (1, 5, 100, 999):
            assert closed_form_loss_bound(d, p0) == pytest.approx(
                closed_form_loss_bound(d, p_eps), rel=1e-5)

    def test_published_dominates_both(self):
        for lam in (0.0, 1.0, 2.0, 3.0):
            p = MechanismParams(0.3, lam, 0)
            for d in range(0, 300):
                pub = published_loss_bound(d, p)
                assert pub >= exact_loss_bound(d, p) - 1e-12
                assert pub >= closed_form_loss_bound(d, p) - 1e-12

    def test_closed_form_can_dip_below_exact(self):
        # the reason published_loss_bound takes a max: with the continuous
        # log2 the closed form undercuts the exact level sum near powers of
        # two once the level weights grow
        p2 = MechanismParams(1.0, 2.0, 0)
        dips = [d for d in range(1, 1000)
                if closed_form_loss_bound(d, p2) < exact_loss_bound(d, p2)]
        assert 3 in dips and dips  # e.g. n=4: closed 10 < exact 12
        # at uniform weights the continuous form dominates everywhere
        p1 = MechanismParams(1.0, 1.0, 0)
        assert all(closed_form_loss_bound(d, p1) >= exact_loss_bound(d, p1)
                   for d in range(1, 1000))


class TestPublishedLossBounds:
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_bit_equal_to_per_d(self, lam):
        # the delay regime, n = 1, and n = 2^k - 1, 2^k, 2^k + 1 below 2^62
        for delay in range(21):
            p = MechanismParams(0.37, lam, delay)
            ds = set(range(delay + 40))
            for k in range(1, 63):
                ds.update(delay + n - 1 for n in (2**k - 1, 2**k, 2**k + 1)
                          if n < 1 << 62)
            ds = sorted(ds)
            got = published_loss_bounds(p, ds)
            assert got.dtype == np.float64
            assert np.array_equal(
                bits(got), bits([published_loss_bound(d, p) for d in ds]))

    @given(st.lists(st.integers(0, 10**7), min_size=1, max_size=30),
           st.sampled_from(LAMBDAS), st.integers(0, 20), st.integers(1, 7))
    @settings(max_examples=100, deadline=None)
    def test_any_grid_across_blocks(self, ds, lam, delay, block):
        # unsorted, repeated d, and blocks of 1..7 points
        p = MechanismParams(1.3, lam, delay)
        with mock.patch.object(privacy_audit, "_BLOCK", block):
            got = published_loss_bounds(p, ds)
        assert np.array_equal(
            bits(got), bits([published_loss_bound(d, p) for d in ds]))

    def test_all_in_delay_regime(self):
        p = MechanismParams(1.0, 0.0, 5)
        assert published_loss_bounds(p, [0, 4, 2]).tolist() == [0.0] * 3


def grid_curves(p, bp, ds, t_max):
    """The three grid functions at ds: expiration losses, published
    bounds and baseline losses."""
    return (empirical_loss_curve(p, ds, t_max).loss,
            published_loss_bounds(p, ds), baseline_loss_curve(bp, ds, t_max).loss)


def scalar_curves(p, bp, ds, t_max):
    """The per-d oracles of grid_curves."""
    return ([search_loss_expiration(int(d), p, t_max) for d in ds],
            [published_loss_bound(int(d), p) for d in ds],
            [empirical_loss_baseline(int(d), bp, t_max) for d in ds])


class TestGridDriver:
    """The one blocked walk behind every loss curve and bound."""

    @given(st.lists(st.integers(0, 3000), min_size=1, max_size=30,
                    unique=True),
           st.sampled_from(LAMBDAS), st.integers(0, 20), st.integers(1, 300),
           st.integers(1, 7), st.integers(1, 70))
    @settings(max_examples=100, deadline=None)
    def test_every_curve_across_blocks(self, ds, lam, delay, window, block,
                                       t_max):
        p = MechanismParams(0.9, lam, delay)
        bp = BaselineParams(window, 0.6, 0.05)
        ds = sorted(ds)
        with mock.patch.object(privacy_audit, "_BLOCK", block):
            got = grid_curves(p, bp, ds, t_max)
        for g, want in zip(got, scalar_curves(p, bp, ds, t_max)):
            assert np.array_equal(bits(g), bits(want))

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_delay_boundary_inside_a_block(self, lam):
        # blocks of 8 over 0..39; the delay regime ends at 13, mid-block
        p = MechanismParams(0.4, lam, 13)
        bp = BaselineParams(13, 0.4, 0.04)
        ds = np.arange(40)
        with mock.patch.object(privacy_audit, "_BLOCK", 8):
            got = grid_curves(p, bp, ds, 50)
        want = scalar_curves(p, bp, ds, 50)
        for g, w in zip(got, want):
            assert np.array_equal(bits(g), bits(w))
        assert not got[0][:13].any() and not got[1][:13].any()
        assert got[0][13:].all() and got[1][13:].all()

    def test_sparse_increasing_grid(self):
        # a few points spread over 18 orders of magnitude, two per block
        ds = [0, 1, 2, 7, 16, 300, 4095, 10**6, 10**9 + 7, 10**12, 10**18]
        p = MechanismParams(0.5, 2.0, 5)
        bp = BaselineParams(1023, 0.7, 0.07)
        with mock.patch.object(privacy_audit, "_BLOCK", 2):
            losses, bounds, base = grid_curves(p, bp, ds, 10**6)
        assert np.array_equal(
            bits(bounds), bits([published_loss_bound(d, p) for d in ds]))
        assert np.array_equal(
            bits(base),
            bits([empirical_loss_baseline(d, bp, 10**6) for d in ds]))
        live = np.array(ds[2:]) - 5 + 1
        assert np.array_equal(
            losses, [0.0, 0.0] + list(0.5 * scatter_decomposition_costs(
                live, 10**6, 2.0)))

    def test_peak_memory_is_a_block_beyond_the_output(self):
        # over 2^20 points each function holds its 8 MiB output plus
        # block-sized temporaries, not whole-grid ones
        ds = np.arange(1 << 20)
        p = MechanismParams(0.5, 2.0, 16)
        bp = BaselineParams(1023, 0.7, 0.07)
        for call in (lambda: empirical_loss_curve(p, ds, 1 << 20),
                     lambda: published_loss_bounds(p, ds),
                     lambda: baseline_loss_curve(bp, ds, 1 << 20)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 20 << 20

    @pytest.mark.parametrize("call", [
        lambda ds: empirical_loss_curve(MechanismParams(1.0, 1.0, 4), ds, 10),
        lambda ds: published_loss_bounds(MechanismParams(1.0, 1.0, 4), ds),
        lambda ds: baseline_loss_curve(BaselineParams(8, 1.0, 0.1), ds, 10),
        lambda ds: empirical_loss_expiration(ds[0], MechanismParams(1.0), 10),
        lambda ds: empirical_loss_baseline(ds[0], BaselineParams(8, 1.0, 0.1),
                                           10)])
    def test_negative_d_is_an_error(self, call):
        with pytest.raises(ValueError, match="d must be nonnegative, got -3"):
            call([-3, 0, 1])

    @pytest.mark.parametrize("call,d", [
        (lambda ds: empirical_loss_curve(MechanismParams(1e308, 3.0), ds, 9),
         1),
        (lambda ds: published_loss_bounds(MechanismParams(1e308, 3.0), ds),
         0),
        (lambda ds: baseline_loss_curve(BaselineParams(7, 1e308, 1e308), ds,
                                        9), 0)])
    def test_overflow_is_an_error_without_a_warning(self, call, d):
        ds = np.arange(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=f"losses must be finite, got inf at d={d}$"):
                call(ds)


class TestScatterFreeDP:
    @given(st.lists(st.one_of(st.integers(1, 5000),
                              st.integers(1, (1 << 62) - 1)),
                    min_size=1, max_size=40),
           st.one_of(st.integers(1, 64), st.integers(1, 1 << 63)),
           st.sampled_from(LAMBDAS))
    @settings(max_examples=300, deadline=None)
    def test_equals_scatter_dp(self, ns, t_max, lam):
        # the search oracle reaches only small n; the scatter DP any n < 2^62
        n = np.array(ns, dtype=np.int64)
        assert np.array_equal(
            _worst_decomposition_costs(n, t_max, MechanismParams(1.0, lam)),
            scatter_decomposition_costs(n, t_max, lam))

    @given(st.lists(st.integers(0, 1 << 40), min_size=1, max_size=30,
                    unique=True),
           st.sampled_from(LAMBDAS), st.sampled_from([0, 1, 16]),
           st.integers(1, 1 << 41), st.integers(1, 7))
    @settings(max_examples=100, deadline=None)
    def test_curve_across_blocks(self, ds, lam, delay, t_max, block):
        p = MechanismParams(0.3, lam, delay)
        ds = np.array(sorted(ds), dtype=np.int64)
        live = ds >= delay
        want = np.zeros(ds.shape)
        if live.any():
            want[live] = p.epsilon * scatter_decomposition_costs(
                ds[live] - delay + 1, t_max, lam)
        with mock.patch.object(privacy_audit, "_BLOCK", block):
            got = empirical_loss_curve(p, ds, t_max).loss
        assert np.array_equal(got, want)

    def test_long_grid(self):
        # 3 * 2^14 points in one call, t_max below and above their periods
        n = np.arange(1, 3 * (1 << 14) + 1, dtype=np.int64)
        for lam in LAMBDAS:
            for t_max in (5, 40000, 10**18):
                assert np.array_equal(
                    _worst_decomposition_costs(n, t_max,
                                               MechanismParams(1.0, lam)),
                    scatter_decomposition_costs(n, t_max, lam))


class TestEmpiricalLossExpiration:
    def test_uniform_exponent_small_d(self):
        p = MechanismParams(1.0, 1.0, 0)
        # worst-case interval counts of a length-(d+1) range
        for d, count in [(0, 1), (1, 2), (2, 2), (3, 3), (7, 4), (15, 5)]:
            assert empirical_loss_expiration(d, p, 4096) == pytest.approx(count)

    def test_matches_direct_maximization(self):
        for lam in (0.0, 1.0, 2.5):
            p = MechanismParams(0.8, lam, 0)
            for d in (0, 1, 5, 13, 64):
                direct = max(
                    sum((1 + iv.level) ** (lam - 1)
                        for iv in decompose(j, j + d)) * 0.8
                    for j in range(1, 513))
                assert empirical_loss_expiration(d, p, 512) == \
                    pytest.approx(direct)

    def test_delay_shifts(self):
        a = MechanismParams(1.0, 2.0, 6)
        b = MechanismParams(1.0, 2.0, 0)
        for d in range(6, 80):
            assert empirical_loss_expiration(d, a, 1024) == \
                empirical_loss_expiration(d - 6, b, 1024)
        for d in range(6):
            assert empirical_loss_expiration(d, a, 1024) == 0.0

    def test_bounded_by_exact(self):
        for lam in (0.0, 1.0, 2.0, 3.0):
            p = MechanismParams(1.0, lam, 0)
            for d in range(0, 200):
                assert empirical_loss_expiration(d, p, 2048) <= \
                    exact_loss_bound(d, p) + 1e-12

    def test_search_bound_suffices(self):
        # the worst position repeats with the decomposition's period; looking
        # past two periods finds nothing new
        p = MechanismParams(1.0, 2.0, 0)
        for d in (0, 3, 9, 21, 64, 200):
            bound = worst_position_search_bound(d, p)
            assert search_loss_expiration(d, p, bound) == \
                search_loss_expiration(d, p, 4 * bound) == \
                empirical_loss_expiration(d, p, 10**9)

    def test_search_bound_value(self):
        p = MechanismParams(1.0, 1.0, 0)
        assert worst_position_search_bound(0, p) == 4
        assert worst_position_search_bound(7, p) == 4 * 8
        assert worst_position_search_bound(8, p) == 4 * 8

    @given(st.lists(st.integers(0, 2000), min_size=1, max_size=8,
                    unique=True),
           st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
           st.sampled_from([0, 1, 16]),
           st.one_of(st.integers(1, 64), st.integers(1, 5000)))
    @settings(max_examples=150, deadline=None)
    def test_kernel_equals_search_property(self, ds, lam, delay, t_max):
        # t_max runs past the period 2^(floor(log2 n)+1) of every d here and
        # also far below it, where the DP's "fits under t_max" state matters
        p = MechanismParams(0.3, lam, delay)
        ds = sorted(ds)
        want = [search_loss_expiration(d, p, t_max) for d in ds]
        assert np.array_equal(empirical_loss_curve(p, ds, t_max).loss, want)
        assert empirical_loss_expiration(ds[0], p, t_max) == want[0]

    def test_t_max_below_period(self):
        # with steep level weights the worst entry position lies past j = 3
        # for many d, so a t_max below it lowers the loss
        p = MechanismParams(0.3, 3.0, 1)
        ds = np.arange(0, 600)
        unrestricted = empirical_loss_curve(p, ds, 10**9).loss
        for t_max in (1, 2, 3):
            got = empirical_loss_curve(p, ds, t_max).loss
            assert np.any(got < unrestricted)
            assert np.array_equal(
                got, [search_loss_expiration(int(d), p, t_max) for d in ds])

    def test_kernel_spans_grid_blocks(self):
        # a grid longer than one numpy block, delay regime included
        p = MechanismParams(0.2, 2.0, 16)
        ds = np.arange(0, 40000, 2)
        got = empirical_loss_curve(p, ds, 300).loss
        for i in range(0, len(ds), 97):
            assert got[i] == search_loss_expiration(int(ds[i]), p, 300)

    def test_rejects_t_max_below_one(self):
        p = MechanismParams(1.0, 1.0, 4)
        for t_max in (0, -1):
            with pytest.raises(ValueError, match="t_max"):
                empirical_loss_expiration(2, p, t_max)  # delay regime too
            with pytest.raises(ValueError, match="t_max"):
                empirical_loss_curve(p, np.arange(10), t_max)

    @pytest.mark.parametrize("delay,n", [(3, (1 << 62) - 1), (3, 1 << 62),
                                         (1, (1 << 63) - 2),
                                         (0, (1 << 62) - 1), (0, 1 << 62),
                                         (0, 1 << 63)])
    def test_range_lengths_below_2_62(self, delay, n):
        # the DP's level tables stop at 2^62: the largest n keeps its value,
        # the next ones are a ValueError naming the limit, not an IndexError;
        # the published bounds' grid has the same limit
        p = MechanismParams(1.0, 2.0, delay)
        d = n + delay - 1
        if n < 1 << 62:
            want = scatter_decomposition_costs(np.array([n]), 1 << 63, 2.0)
            assert empirical_loss_expiration(d, p, 1 << 63) == want[0] \
                == 1953.0
            assert published_loss_bounds(p, [0, d]).tolist() == [
                published_loss_bound(0, p), published_loss_bound(d, p)]
            return
        message = f"d - delay \\+ 1 must be below 2\\^62, got {n}"
        with pytest.raises(ValueError, match=message):
            empirical_loss_expiration(d, p, 1 << 63)
        with pytest.raises(ValueError, match=message):
            empirical_loss_curve(p, [0, 5, d, 9], 100)
        with pytest.raises(ValueError, match=message):
            published_loss_bounds(p, [0, 5, d, 9])

    def test_curve_wrapper(self):
        p = MechanismParams(0.5, 1.0, 0)
        curve = empirical_loss_curve(p, np.arange(0, 32), 4096)
        assert len(curve.d) == 32
        for i, d in enumerate(range(32)):
            assert curve.loss[i] == empirical_loss_expiration(d, p, 4096)
        assert np.all(curve.envelope >= curve.loss)


class TestEmpiricalLossBaseline:
    def test_small_window_pinned_values(self):
        params = BaselineParams(4, 1.0, 0.1)
        expected = [1.0, 1.1, 1.1, 1.1, 1.1, 1.2, 1.2, 1.2, 1.2, 1.3, 1.3,
                    1.3, 1.3, 1.4, 1.4, 1.4, 1.4, 1.5]
        for d, want in enumerate(expected):
            assert empirical_loss_baseline(d, params, 10**6) == \
                pytest.approx(want)

    def test_analytic_branch_equals_maximization(self):
        # past the window length the per-position max becomes an arithmetic
        # progression; the shortcut must agree with the explicit search
        for w in (4, 8):
            params = BaselineParams(w, 1.0, 0.1)
            k = params.tree_depth
            for d in range(w, 6 * w):
                best = 0.0
                for s in range(1, w + 1):
                    reach = min(w, s + d)
                    tree = sum(1 for lvl in range(k)
                               if -(-s >> lvl) << lvl <= reach)
                    past = (s + d - 1) // w
                    best = max(best, tree / k + 0.1 * past)
                assert empirical_loss_baseline(d, params, 10**6) == \
                    pytest.approx(best)

    def test_monotone_in_d(self):
        params = BaselineParams(8, 0.7, 0.07)
        vals = [empirical_loss_baseline(d, params, 10**5)
                for d in range(0, 70)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_fraction_arithmetic_is_exact(self):
        params = BaselineParams(127, Fraction(7197, 10000),
                                Fraction(7197, 100000))
        lo = empirical_loss_baseline(254, params, 4096)
        hi = empirical_loss_baseline(254 + 127, params, 4096)
        assert isinstance(hi - lo, Fraction)
        assert hi - lo == Fraction(7197, 100000)

    def test_horizon_limits_search(self):
        # with a single observable release the only position is s=1
        params = BaselineParams(8, 1.0, 0.1)
        k = params.tree_depth
        got = empirical_loss_baseline(0, params, horizon=1)
        assert got == pytest.approx(1.0 / k)

    def test_curve_wrapper(self):
        params = BaselineParams(8, 1.0, 0.1)
        curve = baseline_loss_curve(params, np.arange(0, 40), 10**4)
        for i, d in enumerate(range(40)):
            assert curve.loss[i] == empirical_loss_baseline(d, params, 10**4)

    @given(st.integers(1, 300),
           st.lists(st.integers(0, 1500), min_size=1, max_size=6,
                    unique=True),
           st.integers(1, 700), st.floats(0.05, 2.0), st.floats(0.005, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_kernel_equals_position_loop_property(self, w, ds, horizon,
                                                  eps_cur, eps_past):
        params = BaselineParams(w, eps_cur, eps_past)
        ds = sorted(ds)
        want = [search_loss_baseline(d, params, horizon) for d in ds]
        assert np.array_equal(baseline_loss_curve(params, ds, horizon).loss,
                              want)
        assert [empirical_loss_baseline(d, params, horizon)
                for d in ds] == want

    @given(st.integers(1, 200), st.integers(0, 1000), st.integers(1, 400),
           st.fractions(Fraction(1, 100), 2, max_denominator=1000),
           st.fractions(Fraction(1, 1000), 1, max_denominator=1000))
    @settings(max_examples=60, deadline=None)
    def test_fraction_budgets_property(self, w, d, horizon, eps_cur,
                                       eps_past):
        params = BaselineParams(w, eps_cur, eps_past)
        got = empirical_loss_baseline(d, params, horizon)
        assert isinstance(got, Fraction)
        assert got == search_loss_baseline(d, params, horizon)

    def test_kernel_equals_position_loop_small_windows(self):
        # every horizon up to past the window, and every d over three rounds
        for w in (1, 2, 3, 5, 8, 13, 21, 32):
            params = BaselineParams(w, 1.0, 0.07)
            ds = np.arange(0, 3 * w + 2)
            for horizon in range(1, w + 2):
                want = [search_loss_baseline(int(d), params, horizon)
                        for d in ds]
                assert np.array_equal(
                    baseline_loss_curve(params, ds, horizon).loss, want), \
                    (w, horizon)

    def test_kernel_spans_blocks(self):
        # enough distinct d below the window for several grid blocks
        params = BaselineParams(255, 0.9, 0.04)
        ds = np.arange(0, 900, 3)
        for horizon in (100, 255, 10**6):
            want = [search_loss_baseline(int(d), params, horizon) for d in ds]
            assert np.array_equal(
                baseline_loss_curve(params, ds, horizon).loss, want)

    def test_rejects_bad_arguments(self):
        params = BaselineParams(8, 1.0, 0.1)
        with pytest.raises(ValueError, match="horizon"):
            empirical_loss_baseline(3, params, 0)
        with pytest.raises(ValueError, match="nonnegative"):
            baseline_loss_curve(params, [-1, 0], 10)


class TestClosedFormTreeMaxima:
    @given(st.integers(1, 2000), st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_count_search(self, w, data):
        # horizons below and above the window; unsorted grids with repeats
        # over several windows
        params = BaselineParams(w, 1.0, 0.1)
        horizon = data.draw(st.one_of(st.integers(1, w),
                                      st.integers(w, 3000)))
        ds = data.draw(st.lists(st.one_of(st.integers(0, w + 1),
                                          st.integers(0, 5 * w + 3)),
                                min_size=1, max_size=30))
        ds = np.array(ds + ds[::3], dtype=np.int64)
        got = privacy_audit._baseline_tree_maxima(params, ds, horizon)
        want = count_search_tree_maxima(params, ds, horizon)
        assert len(got) == len(want) == 3
        for g, o in zip(got, want):
            assert np.array_equal(g, o)

    def test_largest_window(self):
        # at window 2^62 the kernel's largest sum, 2 * window - 1, is the
        # int64 maximum; every level counts once d >= window - 1
        w = 1 << 62
        params = BaselineParams(w, 1.0, 0.1)
        ds = np.array([w - 1, w, 2 * w - 1, 5], dtype=np.int64)
        for horizon in (1, 100):
            got = privacy_audit._baseline_tree_maxima(params, ds, horizon)
            want = count_search_tree_maxima(params, ds, horizon)
            for g, o in zip(got, want):
                assert np.array_equal(g, o)
        _, tree_p, _ = privacy_audit._baseline_tree_maxima(
            params, ds[:3], (1 << 63) - 1)
        assert params.tree_depth == 63
        assert tree_p.tolist() == [63] * 3

    def test_window_above_2_62_is_an_error(self):
        # 2 * window - 1 would wrap int64 and count no tree levels
        params = BaselineParams((1 << 62) + 1, 1.0, 0.1)
        d = params.window
        for call in (
                lambda: privacy_audit._baseline_tree_maxima(
                    params, [d], (1 << 63) - 1),
                lambda: baseline_loss_curve(params, [d], (1 << 63) - 1),
                lambda: empirical_loss_baseline(d, params, (1 << 63) - 1)):
            with pytest.raises(ValueError, match="window"):
                call()

    def test_largest_d(self):
        # d near 2^63 stays in int64
        params = BaselineParams(1023, 1.0, 0.1)
        ds = np.array([(1 << 63) - 1, (1 << 63) - 1024, 5], dtype=np.int64)
        for horizon in (1, 100, 1 << 40):
            got = privacy_audit._baseline_tree_maxima(params, ds, horizon)
            want = count_search_tree_maxima(params, ds, horizon)
            for g, o in zip(got, want):
                assert np.array_equal(g, o)


def record_run(params, xs, seed):
    rec = RecordingNoise(SeededNoise(seed))
    counter = ExpirationCounter(params, rec)
    outs = [counter.step(x) for x in xs]
    return outs, rec.ledger


class TestCouplingShift:
    def test_shift_targets_decomposition_of_changed_range(self):
        params = MechanismParams(0.5, 1.0, 0)
        xs = [1.0] * 40
        _, ledger = record_run(params, xs, seed=3)
        j, tau, y = 5, 40, 1.0
        shifted, report = coupling_shift(ExpirationCounter, ledger, j, tau, y,
                                         params)
        moved = {key for key in ledger
                 if key[0] == DOMAIN_INTERVAL and shifted[key] != ledger[key]}
        expected = {(DOMAIN_INTERVAL, iv.level, iv.index)
                    for iv in decompose(j, tau)}
        assert moved == expected
        for key in moved:
            assert shifted[key] == ledger[key] - y
        # cost: |y| * eps * sum of weights over the 6 intervals of [5, 40]
        assert report.cost == pytest.approx(0.5 * 6)
        assert report.shift == y

    def test_cost_below_exact_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(120):
            lam = float(rng.integers(0, 4))
            delay = int(rng.choice([0, 4, 16]))
            params = MechanismParams(0.5, lam, delay)
            tau = int(rng.integers(1, 257))
            j = int(rng.integers(1, tau + 1))
            y = float(rng.uniform(-1, 1))
            _, ledger = record_run(params, [0.0] * tau, seed=int(rng.integers(1 << 16)))
            _, report = coupling_shift(ExpirationCounter, ledger, j, tau, y,
                                       params)
            assert report.cost <= exact_loss_bound(tau - j, params) + 1e-12


# (counter class, params) of the incidence oracle
INCIDENCE_CASES = (
    [pytest.param(BaselineCounter, BaselineParams(w, 1.0, 0.5),
                  id=f"baseline-w{w}") for w in range(1, 18)]
    + [pytest.param(ExpirationCounter, MechanismParams(1.0, lam, delay),
                    id=f"expiration-lambda{lam:g}-delay{delay}")
       for lam in (0.0, 1.0, 2.0) for delay in (0, 3)]
    + [pytest.param(SimpleCounter, MechanismParams(1.0), id="simple")])


class ScaleNoise:
    """A noise source whose every draw is its own scale."""

    def draw(self, parts, scale):
        return scale


class TestCouplingIncidence:
    """Each counter's coupling rule against the draws its releases sum.

    Replaying a zero stream with key i's draw set to the integer 2^i makes
    each release's bits name the keys it sums; a noiseless run on the unit
    stream at j shows which releases include input j.
    """

    @pytest.mark.parametrize("counter,params", INCIDENCE_CASES)
    def test_rule_meets_each_release_of_j_once(self, counter, params):
        T = 64
        recorder = RecordingNoise(ScaleNoise())
        run = counter(params, recorder)
        for _ in range(T):
            run.step(0)
        scales = recorder.ledger
        bit = {key: 1 << i for i, key in enumerate(scales)}
        run = counter(params, ReplayNoise(bit))
        sums = [run.step(0) for _ in range(T)]
        budgets = {}
        for j in range(1, T + 1):
            run = counter(params, ZeroNoise())
            includes = [run.step(int(t == j)) for t in range(1, T + 1)]
            for tau in range(j, T + 1):
                rule = counter.coupling_keys(params, j, tau)
                budgets.update(rule)
                keys = [key for key, _ in rule]
                assert len(set(keys)) == len(keys)
                mask = sum(bit[key] for key in keys)
                met = [(s & mask).bit_count() for s in sums[:tau]]
                assert met == includes[:tau], (j, tau)
        # a key's budget per unit of shift is the inverse scale of its draw
        assert budgets == pytest.approx({k: 1 / scales[k] for k in budgets})


class TestVerifyCoupling:
    def test_identical_outputs_on_neighbors(self):
        params = MechanismParams(0.5, 2.0, 0)
        rng = np.random.default_rng(11)
        for _ in range(25):
            tau = int(rng.integers(2, 120))
            j = int(rng.integers(1, tau + 1))
            xs = rng.integers(0, 5, size=tau) / 4.0
            xs2 = xs.copy()
            xs2[j - 1] = (xs[j - 1] + rng.integers(1, 4) / 4.0) % 1.25
            if xs2[j - 1] > 1:
                xs2[j - 1] = 0.0
            if xs2[j - 1] == xs[j - 1]:
                continue
            report = verify_coupling(ExpirationCounter, xs, xs2, j, tau,
                                     params, seed=7)
            assert report.outputs_identical
            assert report.cost <= exact_loss_bound(tau - j, params) + 1e-12

    def test_baseline_within_audited_loss(self):
        # Fraction budgets, so cost and loss compare exactly; |y| = 1
        rng = np.random.default_rng(12)
        for _ in range(40):
            params = BaselineParams(int(rng.integers(1, 40)), Fraction(3, 5),
                                    Fraction(1, 20))
            tau = int(rng.integers(1, 100))
            j = int(rng.integers(1, tau + 1))
            xs = rng.integers(0, 2, size=tau).astype(float)
            xs2 = xs.copy()
            xs2[j - 1] = 1.0 - xs[j - 1]
            report = verify_coupling(BaselineCounter, xs, xs2, j, tau, params,
                                     seed=int(rng.integers(1 << 16)))
            assert report.outputs_identical, (params.window, tau, j)
            assert report.cost <= empirical_loss_baseline(tau - j, params, j)

    def test_simple_costs_d_epsilon(self):
        params = MechanismParams(Fraction(1, 3))
        rng = np.random.default_rng(13)
        for _ in range(25):
            tau = int(rng.integers(1, 100))
            j = int(rng.integers(1, tau + 1))
            xs = rng.integers(0, 5, size=tau) / 4.0
            xs2 = xs.copy()
            xs2[j - 1] = rng.integers(0, 5) / 4.0
            report = verify_coupling(SimpleCounter, xs, xs2, j, tau, params,
                                     seed=int(rng.integers(1 << 16)))
            assert report.outputs_identical, (tau, j)
            assert report.cost == abs(report.shift) * (tau - j) * Fraction(1, 3)

    def test_change_in_buffer_needs_no_shift(self):
        params = MechanismParams(1.0, 1.0, 8)
        xs = np.zeros(10)
        xs2 = xs.copy()
        xs2[9] = 1.0  # inside the delay buffer at tau=10
        report = verify_coupling(ExpirationCounter, xs, xs2, 10, 10, params,
                                 seed=0)
        assert report.outputs_identical
        assert report.cost == 0
        assert report.shifted_keys == []

    def test_rejects_non_neighbors(self):
        params = MechanismParams(1.0, 1.0, 0)
        xs = np.zeros(10)
        xs2 = xs.copy()
        xs2[2] = 1.0
        xs2[5] = 1.0
        with pytest.raises(ValueError):
            verify_coupling(ExpirationCounter, xs, xs2, 3, 10, params, seed=0)

    def test_report_is_dataclass_with_fields(self):
        params = MechanismParams(1.0, 1.0, 0)
        xs = np.zeros(6)
        xs2 = xs.copy()
        xs2[1] = 1.0
        report = verify_coupling(ExpirationCounter, xs, xs2, 2, 6, params,
                                 seed=1)
        assert isinstance(report, CouplingReport)
        assert report.shift == pytest.approx(1.0)
        assert len(report.shifted_keys) == len(decompose(2, 6))


class TestLowerBound:
    def make_curve(self, eps, T):
        p = MechanismParams(eps, 1.0, 0)
        return empirical_loss_curve(p, np.arange(0, T), T)

    def test_holds_for_the_mechanism_curve(self):
        eps = 0.1
        curve = self.make_curve(eps, 1000)
        report = lower_bound_check(1000, 115, eps, curve)
        assert report
        assert report.lhs >= report.rhs

    def test_lhs_is_envelope_sum(self):
        eps = 0.2
        curve = self.make_curve(eps, 600)
        C = 40
        report = lower_bound_check(600, C, eps, curve)
        manual = sum(curve.envelope_at(j) for j in range(2 * C))
        assert report.lhs == pytest.approx(manual)

    def test_rhs_value(self):
        eps = 0.1
        curve = self.make_curve(eps, 1000)
        report = lower_bound_check(1000, 100, eps, curve)
        assert report.rhs == pytest.approx(math.log(1000 / 600) / eps)

    def test_validates_c_range(self):
        eps = 0.1
        curve = self.make_curve(eps, 100)
        with pytest.raises(ValueError):
            lower_bound_check(100, 0, eps, curve)
        with pytest.raises(ValueError):
            lower_bound_check(100, 50, eps, curve)

    def test_report_bool_reflects_inequality(self):
        # an artificial curve far too low must fail the check
        tiny = PrivacyLossCurve(np.arange(0, 100), np.full(100, 1e-9))
        report = lower_bound_check(100, 10, 0.1, tiny)
        assert not report
        assert report.lhs < report.rhs
