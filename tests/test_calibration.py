import pathlib
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fadecount.calibration import (BaselineCalibration, CalibrationResult,
                                   analytic_mse_baseline,
                                   analytic_mse_expiration, calibrate_baseline,
                                   calibrate_epsilon, error_bound_expiration,
                                   optimal_ratio, popcount_total)
from fadecount.dyadic import floor_log2
from fadecount.mechanisms import (BaselineParams, MechanismParams,
                                  expiration_max_and_mse_batch)
from fadecount.noise import concentration_threshold


ROOT = pathlib.Path(__file__).resolve().parent.parent


def brute_mse_expiration(params, T):
    """Average per-step noise variance, summed level by level per position."""
    total = 0.0
    for t in range(1, T + 1):
        p = t - params.delay
        if p < 1:
            continue
        for lvl in range(floor_log2(p) + 1):
            total += 2.0 * params.level_scale(lvl) ** 2
    return total / T


def brute_mse_baseline(params, T):
    w, k = params.window, params.tree_depth
    total = 0.0
    for t in range(1, T + 1):
        r = (t + w - 1) // w
        s = t - (r - 1) * w
        total += bin(s).count("1") * 2.0 * (k / params.eps_cur) ** 2
        if r >= 2:
            total += 2.0 / params.eps_past ** 2
    return total / T


class TestAnalyticMseExpiration:
    @pytest.mark.parametrize("lam,delay", [(1.0, 0), (2.0, 0), (0.5, 0),
                                           (1.0, 7), (3.0, 13), (0.0, 3)])
    def test_matches_brute_force(self, lam, delay):
        params = MechanismParams(0.9, lam, delay)
        for T in (1, 2, 3, 17, 256, 1000, 2049):
            assert analytic_mse_expiration(params, T) == \
                pytest.approx(brute_mse_expiration(params, T), rel=1e-12)

    def test_pinned_value(self):
        # average variance at unit budget, uniform level scales, T=1000
        params = MechanismParams(1.0, 1.0, 0)
        assert analytic_mse_expiration(params, 1000) == \
            pytest.approx(2 * 8987 / 1000)

    def test_all_delayed_is_zero(self):
        params = MechanismParams(1.0, 1.0, 50)
        assert analytic_mse_expiration(params, 50) == 0.0
        assert analytic_mse_expiration(params, 10) == 0.0

    def test_scales_as_inverse_epsilon_squared(self):
        a = analytic_mse_expiration(MechanismParams(1.0, 2.0, 0), 500)
        b = analytic_mse_expiration(MechanismParams(2.0, 2.0, 0), 500)
        assert a == pytest.approx(4 * b)

    def test_monte_carlo_agreement(self):
        params = MechanismParams(1.0, 1.0, 0)
        _, mses = expiration_max_and_mse_batch(params, 256, range(400))
        analytic = analytic_mse_expiration(params, 256)
        stderr = mses.std(ddof=1) / np.sqrt(len(mses))
        assert abs(mses.mean() - analytic) < 4 * stderr


class TestPopcountTotal:
    def test_matches_brute_force(self):
        acc = 0
        for m in range(0, 5000):
            if m:
                acc += bin(m).count("1")
            assert popcount_total(m) == acc

    @given(st.integers(0, 1 << 40))
    @settings(max_examples=50)
    def test_recurrence(self, m):
        # popcount_total(2m+1) = 2*popcount_total(m) + m+1 + popcounts split
        if m >= 1:
            assert popcount_total(m) - popcount_total(m - 1) == \
                bin(m).count("1")


class TestAnalyticMseBaseline:
    @pytest.mark.parametrize("w", [1, 4, 8, 31, 127])
    def test_matches_brute_force(self, w):
        params = BaselineParams(w, 0.8, 0.08)
        for T in (1, w, w + 1, 3 * w + 2, 1000):
            assert analytic_mse_baseline(params, T) == \
                pytest.approx(brute_mse_baseline(params, T), rel=1e-12)

    def test_bit_equal_to_single_formula(self):
        # the formula before the split into unit-budget sums, verbatim
        def single_formula(params, T):
            w = params.window
            k = params.tree_depth
            full_rounds, rem = divmod(T, w)
            pops = full_rounds * popcount_total(w) + popcount_total(rem)
            tree = 2.0 * k * k * pops / (params.eps_cur * params.eps_cur)
            past = (T - min(T, w)) * 2.0 / (params.eps_past * params.eps_past)
            return (tree + past) / T

        for w in (1, 2, 7, 31, 127, 1023):
            for T in (1, w, w + 1, 3 * w + 2, 1000, 10**6):
                for eps_cur, eps_past in ((1.0, 1.0), (0.8, 0.08),
                                          (0.13, 3.7), (5.0, 0.0123)):
                    params = BaselineParams(w, eps_cur, eps_past)
                    assert analytic_mse_baseline(params, T) == \
                        single_formula(params, T)

    def test_single_round_has_no_past_noise(self):
        params = BaselineParams(64, 1.0, 1e-9)
        # eps_past tiny would explode if the past term were charged
        assert analytic_mse_baseline(params, 64) < 1e4


class TestCalibrateEpsilon:
    def test_round_trip(self):
        for lam, delay, T in [(1.0, 0, 10**3), (2.0, 0, 10**4), (3.0, 5, 777)]:
            cal = calibrate_epsilon(1000.0, T, lam, delay)
            params = MechanismParams(cal.epsilon, lam, delay)
            assert analytic_mse_expiration(params, T) == \
                pytest.approx(1000.0, rel=1e-9)

    def test_inverse_square_root_rule(self):
        cal = calibrate_epsilon(1000.0, 10**3, 1.0)
        unit = analytic_mse_expiration(MechanismParams(1.0, 1.0, 0), 10**3)
        assert cal.epsilon == pytest.approx(np.sqrt(unit / 1000.0))

    def test_result_fields(self):
        cal = calibrate_epsilon(500.0, 2048, 2.0)
        assert isinstance(cal, CalibrationResult)
        assert cal.horizon == 2048
        assert cal.target_mse == 500.0
        assert cal.achieved_mse == pytest.approx(500.0, rel=1e-9)

    def test_published_values(self):
        # the six headline calibrations at MSE=1000
        expect = {(10**3, 1.0): 0.1341, (10**3, 2.0): 0.05542,
                  (10**3, 3.0): 0.04651, (10**6, 1.0): 0.1947,
                  (10**6, 2.0): 0.05645, (10**6, 3.0): 0.04652}
        for (T, lam), pub in expect.items():
            eps = calibrate_epsilon(1000.0, T, lam).epsilon
            assert float(f"{eps:.4g}") == pub

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            calibrate_epsilon(0.0, 100, 1.0)
        with pytest.raises(ValueError):
            calibrate_epsilon(-5.0, 100, 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="^target_mse must be finite"):
            calibrate_epsilon(bad, 100, 1.0)
        with pytest.raises(ValueError, match="^target_mse must be finite"):
            calibrate_baseline(bad, 100, 10, 0.1)
        with pytest.raises(ValueError, match="^ratio must be finite"):
            calibrate_baseline(1000.0, 100, 10, bad)


class TestCalibrateBaseline:
    def test_round_trip(self):
        for w, ratio, T in [(31, 0.1, 10**3), (127, 0.05, 10**4)]:
            cal = calibrate_baseline(1000.0, T, w, ratio)
            params = BaselineParams(w, cal.eps_cur, cal.eps_past)
            assert analytic_mse_baseline(params, T) == \
                pytest.approx(1000.0, rel=1e-9)
            assert cal.eps_past / cal.eps_cur == pytest.approx(ratio)

    def test_published_values(self):
        expect = {(10**3, 31): 0.5678, (10**3, 63): 0.6372,
                  (10**3, 127): 0.7197, (10**6, 127): 0.7387,
                  (10**6, 1023): 1.096}
        for (T, w), pub in expect.items():
            cal = calibrate_baseline(1000.0, T, w, 0.1)
            assert float(f"{cal.eps_cur:.4g}") == pub
            assert cal.eps_past == pytest.approx(0.1 * cal.eps_cur)

    def test_result_type(self):
        cal = calibrate_baseline(1000.0, 10**3, 31, 0.1)
        assert isinstance(cal, BaselineCalibration)

    def test_fraction_ratio_whose_square_has_no_float(self):
        # ratio^2 is positive as a Fraction, but the past-draw variance
        # divides by its float, 0.0, and raised a bare ZeroDivisionError
        with pytest.raises(ValueError, match="^ratio is too small for a "
                           "finite past-draw variance, got Fraction"):
            calibrate_baseline(2.0, 40, 7, Fraction(1, 10**200))


class TestOptimalRatio:
    def test_beats_any_grid_ratio(self):
        T, w = 10**3, 63
        rho, cal = optimal_ratio(1000.0, T, w)
        rounds = -(-T // w)

        def objective(r):
            c = calibrate_baseline(1000.0, T, w, r)
            return c.eps_cur + c.eps_past * (rounds - 1)

        best = objective(rho)
        for r in np.geomspace(1e-4, 0.99, 60):
            assert best <= objective(float(r)) + 1e-12

    def test_interior_and_consistent(self):
        rho, cal = optimal_ratio(1000.0, 10**3, 31)
        assert 1e-5 < rho < 0.999
        assert cal.eps_past / cal.eps_cur == pytest.approx(rho, rel=1e-6)
        params = BaselineParams(31, cal.eps_cur, cal.eps_past)
        assert analytic_mse_baseline(params, 10**3) == \
            pytest.approx(1000.0, rel=1e-9)

    def test_window_must_be_shorter_than_horizon(self):
        with pytest.raises(ValueError):
            optimal_ratio(1000.0, 100, 127)


def decimal_stationary_ratio(T, w):
    """(B / ((N-1)*A))^(1/3) in 60-digit decimals, with the unit sums A
    and B counted from popcounts directly."""
    full_rounds, rem = divmod(T, w)
    pops = (full_rounds * sum(bin(s).count("1") for s in range(1, w + 1))
            + sum(bin(s).count("1") for s in range(1, rem + 1)))
    tree = 2 * w.bit_length() ** 2 * pops
    past = 2 * (T - min(T, w))
    rounds = -(-T // w)
    with localcontext() as ctx:
        ctx.prec = 60
        return (Decimal(past) / ((rounds - 1) * Decimal(tree))) ** \
            (Decimal(1) / 3)


class TestClosedFormRatio:
    @given(st.floats(10.0, 1e5), st.integers(100, 10**7),
           st.integers(2, 2000))
    # scipy's search stops 1.3e-6 away from the optimum on this flat
    # objective; in 60-digit decimals the closed form's value is the lower
    @example(28268.84375, 10**7, 2)
    @settings(max_examples=60, deadline=None)
    def test_matches_bounded_search(self, mse, T, w):
        # scipy's bounded Brent search over the same objective is the oracle
        # for the objective; the ratio itself is held to the stationary point
        minimize_scalar = pytest.importorskip("scipy.optimize").minimize_scalar
        assume(w < T)
        rounds = -(-T // w)

        def objective(r):
            c = calibrate_baseline(mse, T, w, r)
            return c.eps_cur + c.eps_past * (rounds - 1)

        want = minimize_scalar(objective, bounds=(1e-6, 1.0),
                               method="bounded", options={"xatol": 1e-9})
        rho, cal = optimal_ratio(mse, T, w)
        exact = decimal_stationary_ratio(T, w)
        assert abs(Decimal(rho) - exact) <= exact * Decimal("1e-12")
        best = objective(rho)
        assert best == cal.eps_cur + cal.eps_past * (rounds - 1)
        assert best <= objective(float(want.x)) * (1 + 1e-12)
        assert best <= objective(rho * (1 - 1e-3))
        assert best <= objective(rho * (1 + 1e-3))


def test_calibration_table_script_matches_golden(tmp_path):
    # the script's stdout, captured once and kept in tests/data; run from
    # another directory, so the script finds the package on its own
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_calibration_table.py")],
        capture_output=True, text=True, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout == \
        (ROOT / "tests" / "data" / "calibration_table.txt").read_text()


class TestErrorBound:
    def test_composition(self):
        params = MechanismParams(0.5, 1.0, 4)
        t, beta = 100, 0.05
        scales = [params.level_scale(lvl)
                  for lvl in range(floor_log2(t - 4) + 1)]
        assert error_bound_expiration(t, beta, params) == \
            pytest.approx(4 + concentration_threshold(scales, beta))

    def test_pinned_value(self):
        # the additive-error bound used by the Monte Carlo agreement check
        params = MechanismParams(1.0, 1.0, 0)
        assert error_bound_expiration(1024, 0.01, params) == \
            pytest.approx(21.5928675, abs=1e-5)

    def test_scales_with_epsilon(self):
        a = error_bound_expiration(512, 0.01, MechanismParams(1.0, 2.0, 0))
        b = error_bound_expiration(512, 0.01, MechanismParams(4.0, 2.0, 0))
        assert a == pytest.approx(4 * b)

    def test_delay_adds_linearly(self):
        pa = MechanismParams(1.0, 1.0, 10)
        pb = MechanismParams(1.0, 1.0, 0)
        assert error_bound_expiration(100, 0.1, pa) == \
            pytest.approx(10 + error_bound_expiration(90, 0.1, pb))

    def test_rejects_undelayed_positions(self):
        params = MechanismParams(1.0, 1.0, 8)
        with pytest.raises(ValueError):
            error_bound_expiration(8, 0.1, params)
