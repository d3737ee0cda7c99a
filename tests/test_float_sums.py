"""Float totals do not depend on the Python version.

Builtin sum() adds floats left to right up to Python 3.11; from 3.12 on it
compensates the rounding (Neumaier's loop), so a total taken with sum() can
differ in the last bits between interpreters.  These tests run the library
under both behaviours of sum() and demand the same floats from each.
"""

import builtins
import collections
import math
from unittest import mock

import numpy as np
import pytest

from fadecount.calibration import error_bound_expiration
from fadecount.mechanisms import ExpirationCounter, MechanismParams
from fadecount.noise import concentration_threshold
from fadecount.privacy_audit import (coupling_shift, exact_loss_bound,
                                     published_loss_bounds)

PARAMS = [MechanismParams(0.7, lam, delay)
          for lam in (1.5, 1.7, 2.5) for delay in (0, 3)]


def left_to_right_sum(values, start=0):
    """sum() up to Python 3.11."""
    total = start
    for v in values:
        total = total + v
    return total


def neumaier_sum(values, start=0):
    """sum() from Python 3.12 on, for int start 0 and float items: the first
    item starts the total, the rest are added with a running compensation,
    which is added back at the end if it is nonzero and finite."""
    values = list(values)
    if start != 0 or not values or any(type(v) is not float for v in values):
        return left_to_right_sum(values, start)
    total, comp = values[0], 0.0
    for x in values[1:]:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def under_both_sums(fn):
    """fn() with sum() as on Python 3.11, then as on Python 3.12."""
    results = []
    for impl in (left_to_right_sum, neumaier_sum):
        with mock.patch.object(builtins, "sum", impl):
            results.append(fn())
    return results


def test_the_two_sums_differ_on_level_weights():
    # the emulation matters: over these exponents and level counts the two
    # sums of the level weights disagree in many places
    differ = 0
    for lam in (0.0, 0.25, 0.5, 1.0, 1.5, 1.7, 2.0, 2.5, 3.0):
        weights = [(1.0 + lvl) ** (lam - 1.0) for lvl in range(63)]
        for levels in range(1, 64):
            a = left_to_right_sum(weights[:levels])
            differ += a != neumaier_sum(weights[:levels])
    assert differ > 100


@pytest.mark.parametrize("params", PARAMS, ids=str)
def test_exact_loss_bound(params):
    plain, compensated = under_both_sums(
        lambda: [exact_loss_bound(d, params) for d in range(5000)])
    assert plain == compensated


@pytest.mark.parametrize("params", PARAMS, ids=str)
def test_published_loss_bounds(params):
    plain, compensated = under_both_sums(
        lambda: published_loss_bounds(params, np.arange(5000)).tolist())
    assert plain == compensated


def test_level_sums_are_left_to_right():
    for params in PARAMS:
        weights = [params.budget_weight(lvl) for lvl in range(63)]
        variances = [params.variance_weight(lvl) for lvl in range(63)]
        assert params.budget_sums(63) == [
            left_to_right_sum(weights[:n]) for n in range(1, 64)]
        assert params.variance_sums(63) == [
            left_to_right_sum(variances[:n]) for n in range(1, 64)]


def test_coupling_cost_with_float_budgets():
    params = MechanismParams(0.7, 1.5, 3)
    ledger = collections.defaultdict(float)

    def costs():
        return [coupling_shift(ExpirationCounter, ledger, j, j + d, 1.0,
                               params)[1].cost
                for j in range(1, 64) for d in range(3, 3000, 31)]

    plain, compensated = under_both_sums(costs)
    assert plain == compensated


def test_concentration_threshold():
    def thresholds():
        out = []
        for params in PARAMS:
            scales = [params.level_scale(lvl) for lvl in range(63)]
            out += [concentration_threshold(scales[:n], 0.05)
                    for n in range(1, 64)]
            out += [error_bound_expiration(t, 0.05, params)
                    for t in range(4, 5000, 13)]
        return out

    plain, compensated = under_both_sums(thresholds)
    assert plain == compensated
