"""Self-test of the benchmark's output checks: each oracle agrees with the
package on real outputs, and each check fails on a planted wrong output.

    python3 -m pytest bench/test_checks.py
"""

import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from fadecount.calibration import analytic_mse_expiration  # noqa: E402
from fadecount.mechanisms import (BaselineCounter, BaselineParams,  # noqa: E402
                                  ExpirationCounter, MechanismParams,
                                  SeededNoise, expiration_max_and_mse_batch)
from fadecount.privacy_audit import (baseline_loss_curve,  # noqa: E402
                                     empirical_loss_curve,
                                     published_loss_bound)


def by_name(results):
    return {c.name.rsplit(".", 1)[-1]: c.ok for c in results}


def release_table(xs, released):
    true_sum = np.cumsum(xs)
    return np.column_stack([np.arange(1, len(xs) + 1), true_sum, released,
                            np.abs(released - true_sum)])


def test_expiration_release_checks():
    params = MechanismParams(0.5, 2.0, 4)
    xs = (np.random.default_rng(1).random(300) < 0.3).astype(float)
    counter = ExpirationCounter(params, SeededNoise(9))
    released = np.array([float(counter.step(x)) for x in xs])
    oracle = checks.expiration_releases(params, xs, 9)
    table = release_table(xs, released)
    assert all(by_name(checks.check_release_table("r", table, xs, oracle))
               .values())

    wrong = table.copy()
    wrong[100, 2] += 1e-3
    assert not by_name(checks.check_release_table("r", wrong, xs, oracle))[
        "released"]
    wrong = table.copy()
    wrong[10, 1] += 1.0
    assert not by_name(checks.check_release_table("r", wrong, xs, oracle))[
        "true_sum"]
    wrong = table.copy()
    wrong[5, 3] = 0.0
    assert not by_name(checks.check_release_table("r", wrong, xs, oracle))[
        "abs_error"]
    results = checks.check_release_table("r", table[:-1], xs, oracle)
    assert not any(c.ok for c in results)
    assert not checks.check_releases("s", released[::-1], oracle).ok


def test_baseline_oracle_matches_counter_and_catches_a_lost_draw():
    params = BaselineParams(7, 0.8, 0.3)
    xs = np.random.default_rng(2).integers(0, 9, 100) / 8.0
    counter = BaselineCounter(params, SeededNoise(5))
    released = np.array([float(counter.step(x)) for x in xs])
    oracle = checks.baseline_releases(7, 0.8, 0.3, xs, 5)
    assert checks.check_releases("b", released, oracle).ok

    class DropsOneDraw(SeededNoise):
        def draw(self, parts, scale):
            return 0.0 if parts == (3, 2, 1, 3) else super().draw(parts, scale)

    counter = BaselineCounter(params, DropsOneDraw(5))
    wrong = np.array([float(counter.step(x)) for x in xs])
    assert not checks.check_releases("b", wrong, oracle).ok


def test_expiration_curve_checks():
    params = MechanismParams(0.3, 2.0, 0)
    d_max = 200
    curve = empirical_loss_curve(params, np.arange(d_max + 1), 10**6)
    theo = [published_loss_bound(d, params) for d in range(d_max + 1)]
    table = np.column_stack([curve.d, curve.loss, curve.envelope, theo])
    sample = [0, 3, 77, 200]
    assert all(by_name(checks.check_expiration_curve(
        "a", table, d_max, params, sample)).values())

    wrong = table.copy()
    wrong[77, 1] *= 0.9
    assert not by_name(checks.check_expiration_curve(
        "a", wrong, d_max, params, sample))["brute_force"]
    wrong = table.copy()
    wrong[150:, 2] = wrong[150:, 3] * 1.01
    assert not by_name(checks.check_expiration_curve(
        "a", wrong, d_max, params, sample))["under_bound"]
    wrong = table.copy()
    wrong[20, 2] -= 0.01
    assert not by_name(checks.check_expiration_curve(
        "a", wrong, d_max, params, sample))["envelope"]


def test_baseline_curve_checks():
    params = BaselineParams(15, 0.5, 0.05)
    d_max = 100
    curve = baseline_loss_curve(params, np.arange(d_max + 1), 10**6)
    table = np.column_stack([curve.d, curve.loss, curve.envelope])
    sample = [15, 40, 85]
    assert all(by_name(checks.check_baseline_curve(
        "b", table, d_max, 15, 0.05, sample)).values())
    wrong = table.copy()
    wrong[55, 1] += 0.01
    assert not by_name(checks.check_baseline_curve(
        "b", wrong, d_max, 15, 0.05, sample))["past_increment"]


def test_figure_series_checks():
    params = MechanismParams(0.3, 2.0, 0)
    d = np.concatenate([np.arange(129), [150, 200, 300]])
    env = empirical_loss_curve(params, d, 10**6).envelope
    table = np.column_stack([d, env])
    assert all(c.ok for c in checks.check_figure_series("f", table, 300,
                                                        params))
    wrong = table.copy()
    wrong[130, 1] = 0.0
    assert not by_name(checks.check_figure_series("f", wrong, 300))[
        "nondecreasing"]
    assert not by_name(checks.check_figure_series("f", table[:-1], 300))[
        "grid"]


def test_batch_checks():
    params = MechanismParams(1.0, 2.0, 0)
    seeds = list(range(100, 164))
    maxes, mses = expiration_max_and_mse_batch(params, 1024, seeds)
    analytic = analytic_mse_expiration(params, 1024)
    assert all(by_name(checks.check_batch(
        "m", params, 1024, seeds, maxes, mses, [0, 7], analytic)).values())

    wrong = mses.copy()
    wrong[7] *= 1.001
    assert not by_name(checks.check_batch(
        "m", params, 1024, seeds, maxes, wrong, [0, 7], analytic))[
            "recomputed"]
    assert not by_name(checks.check_batch(
        "m", params, 1024, seeds, maxes, mses, [0], analytic * 1.5))[
            "mse_vs_analytic"]
