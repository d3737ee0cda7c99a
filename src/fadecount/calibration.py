"""Exact analytic MSE models and their inversion to hit a target error.

The per-step error of every counter here is pure noise (plus a deterministic
delay), so mean-squared error over a horizon T is an exact, input-free sum
of Laplace variances — no integral approximations, no simulation.  Since
every variance scales as 1/eps^2, hitting a target MSE is a closed-form
square root, which is what makes "normalize all mechanisms to the same
error, then compare privacy" cheap.

Also here: the high-probability additive error bound for the expiration
counter (delay + concentration of its per-level noises), and the baseline's
optimal budget-ratio search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dyadic import floor_log2
from .mechanisms import BaselineParams, MechanismParams
from .noise import concentration_threshold

_REL_TOL = 1e-9


def analytic_mse_expiration(params: MechanismParams, T: int) -> float:
    """Average noise variance of the expiration counter over outputs 1..T.

    Output t > delay carries variance 2 * sum_{l=0}^{floor(log2 p)}
    (1+l)^(2(1-level_exponent)) / eps^2 at release position p = t - delay;
    delayed outputs carry 0.  Summed exactly by grouping positions with
    equal floor(log2 p).
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    positions = T - params.delay
    if positions < 1:
        return 0.0
    lam = params.level_exponent
    inv_eps_sq = 1.0 / (params.epsilon * params.epsilon)
    total = 0.0
    cum = 0.0
    lvl = 0
    while (1 << lvl) <= positions:
        lo = 1 << lvl
        hi = min(positions, (1 << (lvl + 1)) - 1)
        cum += (1.0 + lvl) ** (2.0 * (1.0 - lam))
        total += (hi - lo + 1) * 2.0 * cum * inv_eps_sq
        lvl += 1
    return total / T


def popcount_total(m: int) -> int:
    """Exact sum of popcount(s) for s = 1..m, in O(log m)."""
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    total = 0
    bit = 0
    while (1 << bit) <= m:
        period = 1 << (bit + 1)
        half = 1 << bit
        total += (m + 1) // period * half + max(0, (m + 1) % period - half)
        bit += 1
    return total


def analytic_mse_baseline(params: BaselineParams, T: int) -> float:
    """Average noise variance of the baseline over outputs 1..T.

    The in-round tree at position s sums popcount(s) nodes of scale
    k/eps_cur each; outputs beyond the first round add one Lap(1/eps_past)
    past term.  Popcount totals are exact (closed form), so this is fast
    even at T = 10^6.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    w = params.window
    k = params.tree_depth
    full_rounds, rem = divmod(T, w)
    pops = full_rounds * popcount_total(w) + popcount_total(rem)
    tree = 2.0 * k * k * pops / (params.eps_cur * params.eps_cur)
    past = (T - min(T, w)) * 2.0 / (params.eps_past * params.eps_past)
    return (tree + past) / T


@dataclass(frozen=True)
class CalibrationResult:
    """Privacy parameter hitting a target MSE over a horizon."""

    epsilon: float
    achieved_mse: float
    horizon: int
    target_mse: float

    def __post_init__(self):
        rel = abs(self.achieved_mse - self.target_mse) / self.target_mse
        if rel > _REL_TOL:
            raise ValueError(
                f"calibration failed to hit target: relative error {rel:.3e}")


@dataclass(frozen=True)
class BaselineCalibration:
    """Baseline budget pair hitting a target MSE over a horizon."""

    eps_cur: float
    eps_past: float
    achieved_mse: float
    horizon: int
    target_mse: float

    def __post_init__(self):
        rel = abs(self.achieved_mse - self.target_mse) / self.target_mse
        if rel > _REL_TOL:
            raise ValueError(
                f"calibration failed to hit target: relative error {rel:.3e}")

    @property
    def ratio(self) -> float:
        return self.eps_past / self.eps_cur


def calibrate_epsilon(target_mse: float, T: int, level_exponent: float = 1.0,
                      delay: int = 0) -> CalibrationResult:
    """Find eps with analytic_mse_expiration == target_mse (closed form)."""
    if target_mse <= 0:
        raise ValueError(f"target_mse must be positive, got {target_mse}")
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
    if target_mse <= 0:
        raise ValueError(f"target_mse must be positive, got {target_mse}")
    if ratio <= 0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    unit = analytic_mse_baseline(BaselineParams(window, 1.0, ratio), T)
    eps_cur = math.sqrt(unit / target_mse)
    eps_past = ratio * eps_cur
    achieved = analytic_mse_baseline(
        BaselineParams(window, eps_cur, eps_past), T)
    return BaselineCalibration(eps_cur, eps_past, achieved, T, target_mse)


def _minimize_bounded(f, lo: float, hi: float, xatol: float,
                      max_calls: int = 500) -> tuple[float, bool]:
    """Brent's bounded minimization of a scalar function on [lo, hi].

    Golden-section steps, replaced by the minimum of the parabola through
    the last three points wherever that parabola is trusted.  Returns
    (argmin, converged); converged is False when max_calls evaluations did
    not bring the bracket below xatol.  The iterates are those of scipy's
    minimize_scalar(method="bounded"), float for float, so the optimal
    ratios are unchanged; importing scipy.optimize for it costs about 0.5 s
    and 48 MB of resident memory per process (scipy 1.17, 2-core Xeon).
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    # x: best point so far, w: second best, v: the previous w
    x = w = v = a + golden * (b - a)
    fx = fw = fv = f(x)
    calls = 1
    step = prev_step = 0.0
    while True:
        if calls >= max_calls:
            return x, False
        mid = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(x) + xatol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            return x, True
        parabolic = False
        if abs(prev_step) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, prev_step = prev_step, step
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                parabolic = True
                step = p / q
                u = x + step
                if u - a < tol2 or b - u < tol2:
                    step = tol1 if mid >= x else -tol1
        if not parabolic:
            prev_step = (a if x >= mid else b) - x
            step = golden * prev_step
        u = x + (1.0 if step >= 0 else -1.0) * max(abs(step), tol1)
        fu = f(u)
        calls += 1
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def optimal_ratio(target_mse: float, T: int,
                  window: int) -> tuple[float, BaselineCalibration]:
    """Budget ratio minimizing eps_cur + eps_past*(N-1) at fixed MSE.

    N = ceil(T/window) rounds: an input's budget is spent once in its own
    round's tree and once per every later round's past release, so the
    worst total loss over the horizon is eps_cur + eps_past*(N-1).  The
    minimization is 1-d and smooth; a bounded scalar search to well below
    1e-6 ratio tolerance is plenty.
    """
    if not window < T:
        raise ValueError(f"need window < T, got window={window}, T={T}")
    lo, hi = 1e-6, 1.0
    rounds = -(-T // window)

    def objective(rho: float) -> float:
        cal = calibrate_baseline(target_mse, T, window, rho)
        return cal.eps_cur + cal.eps_past * (rounds - 1)

    rho, converged = _minimize_bounded(objective, lo, hi, xatol=1e-9)
    if not converged or rho < lo * 1.5 or rho > hi * 0.999:
        raise RuntimeError(
            "no interior minimum bracketed for the budget ratio: "
            f"argmin={rho:.3e} on [{lo}, {hi}], objective there "
            f"{objective(rho):.6g}, at bounds {objective(lo):.6g} / "
            f"{objective(hi):.6g}")
    return rho, calibrate_baseline(target_mse, T, window, rho)


def error_bound_expiration(t: int, beta: float,
                           params: MechanismParams) -> float:
    """High-probability additive error bound of the expiration counter.

    delay (the deterministic part) plus the concentration threshold of the
    per-level noise scales live at release position t - delay; holds with
    probability >= 1 - beta at any fixed t.
    """
    if t <= params.delay:
        raise ValueError(f"t must exceed the delay {params.delay}, got {t}")
    scales = [params.level_scale(lvl)
              for lvl in range(floor_log2(t - params.delay) + 1)]
    return params.delay + concentration_threshold(scales, beta)
