"""Exact analytic MSE models and their inversion to hit a target error.

The per-step error of every counter here is pure noise (plus a deterministic
delay), so mean-squared error over a horizon T is an exact, input-free sum
of Laplace variances — no integral approximations, no simulation.  Since
every variance scales as 1/eps^2, hitting a target MSE is a closed-form
square root, which is what makes "normalize all mechanisms to the same
error, then compare privacy" cheap.

Also here: the high-probability additive error bound for the expiration
counter (delay + concentration of its per-level noises), and the baseline's
loss-minimizing budget ratio, in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .mechanisms import BaselineParams, ExpirationCounter, MechanismParams
from .noise import _integer, _real, concentration_threshold

_REL_TOL = 1e-9


def analytic_mse_expiration(params: MechanismParams, T: int) -> float:
    """Average noise variance of the expiration counter over outputs 1..T.

    Output t > delay carries variance 2 * sum_{l=0}^{floor(log2 p)}
    variance_weight(l) / eps^2 at release position p = t - delay; delayed
    outputs carry 0.  Summed exactly by grouping positions with equal
    floor(log2 p).
    """
    T = _integer("T", T, 1)
    positions = T - params.delay
    if positions < 1:
        return 0.0
    inv_eps_sq = 1.0 / (params.epsilon * params.epsilon)
    total = 0.0
    for lvl, cum in enumerate(params.variance_sums(positions.bit_length())):
        count = min(positions, (2 << lvl) - 1) - (1 << lvl) + 1
        total += count * 2.0 * cum * inv_eps_sq
    return total / T


def popcount_total(m: int) -> int:
    """Exact sum of popcount(s) for s = 1..m, in O(log m)."""
    m = _integer("m", m)
    total = 0
    for bit in range(m.bit_length()):
        period = 1 << (bit + 1)
        half = 1 << bit
        total += (m + 1) // period * half + max(0, (m + 1) % period - half)
    return total


def _baseline_unit_sums(window: int, T: int) -> tuple[float, float]:
    """The baseline's noise variance over outputs 1..T at unit budgets.

    Returns (tree, past): the in-round tree at position s sums popcount(s)
    nodes of scale k, and every output beyond the first round adds one
    unit-scale past term.  At budgets (eps_cur, eps_past) the total is
    tree / eps_cur^2 + past / eps_past^2.  Popcount totals are exact
    (closed form), so this is fast even at T = 10^6.
    """
    k = BaselineParams(window, 1.0, 1.0).tree_depth
    full_rounds, rem = divmod(T, window)
    pops = full_rounds * popcount_total(window) + popcount_total(rem)
    return 2.0 * k * k * pops, (T - min(T, window)) * 2.0


def analytic_mse_baseline(params: BaselineParams, T: int) -> float:
    """Average noise variance of the baseline over outputs 1..T (exact)."""
    T = _integer("T", T, 1)
    tree, past = _baseline_unit_sums(params.window, T)
    eps_cur, eps_past = params.eps_cur, params.eps_past
    return (tree / (eps_cur * eps_cur) + past / (eps_past * eps_past)) / T


class _HitsTarget:
    """A calibration's result, which must hit its target_mse: achieved_mse
    within a relative _REL_TOL of it, else a ValueError.  The horizon is
    stored as the Python int _integer reads, every other field (budgets and
    MSEs, each positive) as _real reads it."""

    def __post_init__(self):
        for name, value in dict(vars(self)).items():
            object.__setattr__(self, name, _integer(name, value, 1)
                               if name == "horizon" else _real(name, value))
        rel = abs(self.achieved_mse - self.target_mse) / self.target_mse
        if rel > _REL_TOL:
            raise ValueError(
                f"calibration failed to hit target: relative error {rel:.3e}")


@dataclass(frozen=True)
class CalibrationResult(_HitsTarget):
    """Privacy parameter hitting a target MSE over a horizon."""

    epsilon: float
    achieved_mse: float
    horizon: int
    target_mse: float


@dataclass(frozen=True)
class BaselineCalibration(_HitsTarget):
    """Baseline budget pair hitting a target MSE over a horizon."""

    eps_cur: float
    eps_past: float
    achieved_mse: float
    horizon: int
    target_mse: float


def calibrate_epsilon(target_mse: float, T: int, level_exponent: float = 1.0,
                      delay: int = 0) -> CalibrationResult:
    """Find eps with analytic_mse_expiration == target_mse (closed form)."""
    target_mse = _real("target_mse", target_mse)
    unit = analytic_mse_expiration(
        MechanismParams(1.0, level_exponent, delay), T)
    if unit == 0.0:
        raise ValueError("horizon entirely inside the delay: nothing to calibrate")
    eps = math.sqrt(unit / target_mse)
    achieved = analytic_mse_expiration(
        MechanismParams(eps, level_exponent, delay), T)
    return CalibrationResult(eps, achieved, T, target_mse)


def calibrate_baseline(target_mse: float, T: int, window: int,
                       ratio: float) -> BaselineCalibration:
    """Find (eps_cur, eps_past = ratio * eps_cur) hitting target_mse."""
    target_mse, ratio = _real("target_mse", target_mse), _real("ratio", ratio)
    # at unit eps_cur the past draws' variance is a sum over ratio^2, which
    # has no float value once the float of ratio^2, which the sum is divided
    # by, underflows to 0 (a Fraction's exact square may not), or once the
    # sum overflows
    unit = (analytic_mse_baseline(BaselineParams(window, 1.0, ratio), T)
            if float(ratio * ratio) > 0 else math.inf)
    if unit == math.inf:
        raise ValueError(f"ratio is too small for a finite past-draw "
                         f"variance, got {ratio!r}")
    eps_cur = math.sqrt(unit / target_mse)
    eps_past = ratio * eps_cur
    achieved = analytic_mse_baseline(
        BaselineParams(window, eps_cur, eps_past), T)
    return BaselineCalibration(eps_cur, eps_past, achieved, T, target_mse)


def optimal_ratio(target_mse: float, T: int,
                  window: int) -> tuple[float, BaselineCalibration]:
    """Budget ratio minimizing eps_cur + eps_past*(N-1) at fixed MSE.

    N = ceil(T/window) rounds: an input's budget is spent once in its own
    round's tree and once per every later round's past release, so the
    worst total loss over the horizon is eps_cur + eps_past*(N-1).

    The minimum has a closed form.  With the unit-budget sums (A, B) of
    _baseline_unit_sums, calibrating to MSE m at ratio rho gives
    eps_cur(rho) = sqrt((A + B/rho^2) / (T*m)), so the objective is
    eps_cur(rho) * (1 + rho*(N-1)).  Setting the derivative of its log to 0,

        -B/rho^3 / (A + B/rho^2) + (N-1) / (1 + rho*(N-1)) = 0
        <=>  (N-1) * A * rho^3 = B,

    so rho* = (B / ((N-1)*A))^(1/3), the only stationary point on rho > 0;
    the objective tends to infinity at both ends, so it is the minimum.
    window < T makes N >= 2 and B > 0.
    """
    T, window = _integer("T", T, 1), _integer("window", window, 1)
    if not window < T:
        raise ValueError(f"need window < T, got window={window}, T={T}")
    tree, past = _baseline_unit_sums(window, T)
    rounds = -(-T // window)
    rho = (past / ((rounds - 1) * tree)) ** (1.0 / 3.0)
    return rho, calibrate_baseline(target_mse, T, window, rho)


def error_bound_expiration(t: int, beta: float,
                           params: MechanismParams) -> float:
    """High-probability additive error bound of the expiration counter.

    delay (the deterministic part) plus the concentration threshold of the
    per-level noise scales live at release position t - delay; holds with
    probability >= 1 - beta at any fixed t.  A t that is not an integer
    past the delay is a ValueError.
    """
    t = _integer("t", t, params.delay + 1)
    live = ExpirationCounter.schedule(params)[:(t - params.delay).bit_length()]
    return params.delay + concentration_threshold(
        [scale for _key, scale in live], beta)
