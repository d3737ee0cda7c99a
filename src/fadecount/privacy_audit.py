"""Worst-case privacy-loss accounting and the executable coupling argument.

Losses are reported for a single input observed d steps after it entered the
stream.  Three curves matter for the expiration counter:

* ``empirical_loss_expiration`` — the exact worst case over stream
  positions: the cost of the dyadic decomposition D_[j, j+d-B] maximized
  over j, in closed form by a DP over the bits of j (O(log d) per point);
* ``exact_loss_bound`` — the tight per-d level-sum bound (two intervals per
  level);
* ``closed_form_loss_bound`` / ``published_loss_bound`` — the closed-form
  relaxation with continuous log2, and its pointwise max with the exact
  sum (the published curve: a bound must dominate the exact sum, and the
  continuous form can dip below it at isolated d);
  ``published_loss_bounds`` gives the same floats over a whole grid.

Each mechanism family's loss is one block function that ``_over_grid`` runs
over a d grid: ``empirical_loss_curve`` (the expiration counter),
``baseline_loss_curve`` and ``simple_loss_curve`` (eps * d, the composition
counter).  The scalar ``empirical_loss_expiration`` and
``empirical_loss_baseline`` are one-point reads of them; the scalar bounds
stay independent of the grid form, as its oracle.

``verify_coupling`` turns the privacy argument into a test: run a counter,
shift the noises of its coupling rule (``coupling_keys``) by the input
difference, re-run on the neighboring stream, and demand bit-identical
outputs.  Replays run in exact rational arithmetic — float addition is not
associative, and "identical" here means identical, not close.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# bench/spans.py traces decomposition_costs under this module's name
from .dyadic import decomposition_costs  # noqa: F401
from .mechanisms import (BaselineParams, MechanismParams, RecordingNoise,
                         ReplayNoise, SeededNoise, _check_input)
from .noise import _integer, _real, plain_sum


# ---------------------------------------------------------------------------
# loss curves and bounds


def _check_finite_losses(d: np.ndarray, loss: np.ndarray) -> None:
    """Reject a loss past the float range, by its d (ValueError)."""
    finite = np.isfinite(loss)
    if not finite.all():
        i = int(finite.argmin())
        raise ValueError(f"losses must be finite, got {float(loss[i])!r} "
                         f"at d={int(d[i])}")


@dataclass
class PrivacyLossCurve:
    """Per-d worst-case losses plus their monotone envelope.

    `d` must be strictly increasing.  The envelope is the running maximum
    over the curve's own grid points.  It is a certified expiration function
    only on a dense grid 0..d, as `audit` writes: there it is the smallest
    nondecreasing function dominating the raw losses.  On a sparse grid it
    misses the peaks between grid points; on the `figures` grid it
    understates the dense envelope by up to 22%.
    """

    d: np.ndarray
    loss: np.ndarray

    def __post_init__(self):
        self.d = _grid(self.d)
        self.loss = np.asarray(self.loss, dtype=np.float64)
        if self.d.shape != self.loss.shape or self.d.ndim != 1:
            raise ValueError("d and loss must be 1-d arrays of equal length")
        if len(self.d) == 0:
            raise ValueError("curve must be nonempty")
        if not np.all(self.d[1:] > self.d[:-1]):
            raise ValueError("d must be strictly increasing")
        if not np.all(self.loss >= 0):
            raise ValueError("losses must be nonnegative")
        _check_finite_losses(self.d, self.loss)

    @property
    def envelope(self) -> np.ndarray:
        return np.maximum.accumulate(self.loss)

    def envelope_at(self, d):
        """Envelope value at elapsed time d (largest grid point <= d), a
        float; or an array of them for an array of d, read as a grid."""
        d = _grid(d)
        idx = np.searchsorted(self.d, d, side="right") - 1
        if np.min(idx, initial=0) < 0:
            raise ValueError(f"curve starts at d={self.d[0]}, asked for "
                             f"{d.min()}")
        env = self.envelope[idx]
        return env if np.ndim(d) else float(env)


def exact_loss_bound(d: int, params: MechanismParams) -> float:
    """Tight per-d loss bound: eps * 2 * sum of (1+l)^(exponent-1) levels.

    Two intervals per level of the covering decomposition, levels up to
    floor(log2(d - delay + 1)); 0 in the delay regime d < delay.  As on a
    grid, d must be nonnegative and d - delay + 1 below 2^62.
    """
    d = int(_grid(d, params.delay))
    if d < params.delay:
        return 0.0
    levels = (d - params.delay + 1).bit_length()
    return params.epsilon * 2.0 * params.budget_sums(levels)[-1]


def closed_form_loss_bound(d: int, params: MechanismParams) -> float:
    """Closed-form loss bound with continuous log2.

    eps * 2 * (1 + ((log2(n)+1)^lam - 1)/lam) for lam != 0 and n = d-delay+1;
    the lam -> 0 limit eps * 2 * (1 + ln(log2(n)+1)) for lam = 0, which at
    n = 1 is 2 eps, the exact sum.  Returns 0 in the delay regime.  Because
    the log here is continuous, this can dip below exact_loss_bound at
    isolated d; use published_loss_bound for a dominating curve.
    """
    d = int(_grid(d, params.delay))
    if d < params.delay:
        return 0.0
    lam = params.level_exponent
    x = math.log2(d - params.delay + 1) + 1.0
    if lam == 0:
        return params.epsilon * 2.0 * (1.0 + math.log(x))
    return params.epsilon * 2.0 * (1.0 + (x ** lam - 1.0) / lam)


def published_loss_bound(d: int, params: MechanismParams) -> float:
    """max(closed form, exact level sum) — the dominating theoretical curve."""
    return max(closed_form_loss_bound(d, params), exact_loss_bound(d, params))


def published_loss_bounds(params: MechanismParams, d_values) -> np.ndarray:
    """published_loss_bound at every d of a grid, bit for bit.

    The exact level sum depends only on L = floor_log2(d - delay + 1), so a
    block reads it off the running level sums up to the block's largest L,
    a prefix of one left-to-right list.  The closed form takes its logs and
    powers from math.log2, math.log and pow, mapped over the block: numpy's
    do not always round like them.  The rest is IEEE arithmetic in
    closed_form_loss_bound's order, which numpy rounds the same.
    """
    lam, scale = params.level_exponent, params.epsilon * 2.0

    def bounds(e):
        n = e + 1
        levels = np.searchsorted(_POWERS_OF_TWO, n, side="right") - 1
        exact = scale * np.array(params.budget_sums(int(levels.max()) + 1))
        x = np.fromiter(map(math.log2, n.tolist()), float, n.size) + 1.0
        if lam == 0:
            closed = 1.0 + np.fromiter(map(math.log, x.tolist()), float)
        else:
            powers = map(pow, x.tolist(), itertools.repeat(lam))
            closed = 1.0 + (np.fromiter(powers, float) - 1.0) / lam
        return np.maximum(exact[levels], scale * closed)

    return _over_grid(d_values, bounds, params.delay)


# ---------------------------------------------------------------------------
# worst-case losses: one exact kernel per mechanism, over a whole d grid

# 2^l for every level an int64 range length can have
_POWERS_OF_TWO = np.int64(1) << np.arange(63, dtype=np.int64)
# grid points per numpy pass; keeps the temporaries of a long grid to about
# a megabyte
_BLOCK = 1 << 14
# intervals a level adds, by [u_bit, carry, class of m >> level]: the class
# is m >> level itself while it is 0 or 1, then 2 if even and 3 if odd
_LEVEL_COUNTS = np.array([[[0, 0, 1, 2], [0, 1, 2, 1]],
                          [[0, 0, 1, 0], [0, 1, 0, 1]]])


def _grid(d_values, delay=None) -> np.ndarray:
    """d_values, a grid or one d, as an int64 array.  The integers are read
    by value, whatever their type.  A ValueError rejects a d that is not an
    integer, then a largest d whose n = d - delay + 1 is at 2^62 or past,
    where the expiration kernels' level tables stop (checked only given
    their delay), then a negative d, then a largest d past int64.  An int64
    array is returned as it is, not copied."""
    d = np.asarray(d_values)
    if d.dtype.kind not in "biufO":     # a string, a date, ...: no number
        raise ValueError("d must be an integer, got "
                         f"{d.item(0) if d.size else d.dtype!r}")
    if d.dtype.kind == "O":     # Python ints past int64, Fractions, ...
        for v in d.flat:
            if not isinstance(v, numbers.Real):     # a str, None, ...
                raise ValueError(f"d must be an integer, got {v!r}")
    if d.dtype.kind not in "biu":
        with np.errstate(invalid="ignore"):     # inf % 1 is NaN
            fractional = d[np.mod(d, 1) != 0]
        if fractional.size:
            raise ValueError(f"d must be an integer, got {fractional.flat[0]}")
    d_min, d_max = int(d.min(initial=0)), int(d.max(initial=0))
    if delay is not None and d_max - delay + 1 >= 1 << 62:
        raise ValueError("d - delay + 1 must be below 2^62, got "
                         f"{d_max - delay + 1}")
    if d_min < 0:
        raise ValueError(f"d must be nonnegative, got {d_min}")
    if d_max >= 1 << 63:
        raise ValueError(f"d must be below 2^63, got {d_max}")
    return d.astype(np.int64, copy=False)


def _over_grid(d_values, values_at, delay=None) -> np.ndarray:
    """values_at(d - delay) at every d >= delay of a grid, 0 below it.

    The grid is checked by _grid; pass the delay of an expiration kernel,
    even 0, to hold it to the kernel's 2^62 limit too (None: no limit and
    no delay).  A value past the float range is a ValueError.  values_at
    gets one block's int64 d - delay at a time, so no temporary spans the
    whole grid.
    """
    d = _grid(d_values, delay)
    delay = delay or 0
    out = np.zeros(d.shape)
    with np.errstate(over="ignore"):
        for lo in range(0, d.size, _BLOCK):
            block = d[lo:lo + _BLOCK]
            live = block >= delay
            if live.any():
                out[lo:lo + _BLOCK][live] = values_at(block[live] - delay)
    _check_finite_losses(d, out)
    return out


def _worst_decomposition_costs(n: np.ndarray, t_max: int,
                               params: MechanismParams) -> np.ndarray:
    """Largest weighted cost of decompose(j, j+n-1) over j in [1, t_max].

    The weight of a level-l interval is params.budget_weight(l).  Write
    u = j-1 and m = n+1.  The level-l part of the decomposition has a left
    interval iff bit l of u is 0 and a right interval iff bit l of u+m is 1,
    both only while (m >> l) + carry_l >= 2, where carry_l is the carry into
    bit l of u+m.  Only the low L = floor(log2 n)+1 bits of u matter, so the
    maximum over positions is a DP over those bits, O(L) per n.  Its four
    states are the carry and whether the low bits of u are at most those of
    cap = min(t_max, 2^L) - 1.  Past its own L, an n gains nothing on the
    paths that still fit, so one loop over levels serves the whole grid.
    Costs are added in level order, as in dyadic.decomposition_costs, and
    float addition is monotone, so keeping the best partial cost per state
    gives the same float as a search over every position.

    Each u-bit maps the states without a scatter: with m_bit and cap_bit
    the level's bits of m and cap, u-bit 0 sends (carry, fits) to
    (m_bit & carry, cap_bit | fits) and u-bit 1 to (m_bit | carry,
    cap_bit & fits).  Every such map is the identity or merges two states.
    Merging fits before adding the gain gives the same floats, again
    because addition is monotone.
    """
    levels = np.searchsorted(_POWERS_OF_TWO, n, side="right")
    m = n + 1
    # t_max may exceed int64; only its low `levels` bits can matter
    cap = np.minimum(_POWERS_OF_TWO[levels], min(t_max, 1 << 62)) - 1
    # best[carry, fits]: best cost so far per state, -inf if unreachable;
    # before any bit the carry is 0 and the (empty) low bits fit
    best = np.full((2, 2, n.size), -np.inf)
    best[0, 1] = 0.0
    for lvl in range(int(levels.max())):
        m_high = m >> lvl
        m_odd = m_high & 1
        # gain[u_bit, carry] = weight * (left + right intervals at this level)
        gain = (params.budget_weight(lvl) * _LEVEL_COUNTS).take(
            np.minimum(m_high, m_odd + 2), axis=2)
        m_bit = m_odd.astype(bool)
        cap_bit = ((cap >> lvl) & 1).astype(bool)
        either = best.max(axis=1)
        # u-bit 0: fits' = cap_bit | fits, so a 1 in cap merges both fits
        u0 = best.copy()
        np.copyto(u0[:, 0], -np.inf, where=cap_bit)
        np.copyto(u0[:, 1], either, where=cap_bit)
        u0 += gain[0, :, None]
        # u-bit 1: fits' = cap_bit & fits, so a 0 in cap merges both fits
        u1 = best
        np.copyto(u1[:, 0], either, where=~cap_bit)
        np.copyto(u1[:, 1], -np.inf, where=~cap_bit)
        u1 += gain[1, :, None]
        # carry' is 0 for u-bit 0 at carry 0, 1 for u-bit 1 at carry 1, and
        # m_bit for the two mixed cases
        mixed = np.maximum(u0[1], u1[0])
        best = np.empty_like(u0)
        np.maximum(u0[0], np.where(m_bit, -np.inf, mixed), out=best[0])
        np.maximum(u1[1], np.where(m_bit, mixed, -np.inf), out=best[1])
    return np.maximum(best[0, 1], best[1, 1])


def empirical_loss_expiration(d: int, params: MechanismParams,
                              t_max: int) -> float:
    """Exact worst-case loss of the expiration counter at elapsed time d.

    max over entry positions j <= t_max of
    eps * sum_{I in D_[j, j+d-delay]} (1+level(I))^(exponent-1);
    0 in the delay regime.  Costs O(log d); see _worst_decomposition_costs.
    """
    return float(empirical_loss_curve(params, [d], t_max).loss[0])


def empirical_loss_curve(params: MechanismParams, d_values,
                         t_max: int) -> PrivacyLossCurve:
    """empirical_loss_expiration at every d of a grid, a block at a time."""
    t_max = _integer("t_max", t_max, 1)
    return PrivacyLossCurve(d_values, _over_grid(
        d_values, lambda e: params.epsilon * _worst_decomposition_costs(
            e + 1, t_max, params), params.delay))


def _baseline_tree_maxima(params: BaselineParams, d, horizon: int):
    """The two candidate worst cases of the baseline at every d of an int64
    array.

    An input at round position s <= width = min(window, horizon) is charged
    for every tree node containing s that ends inside the window by time
    s+d, and for past = (s+d-1) // window later rounds.  Over one round,
    past is p = d // window up to position split = window - d % window and
    p+1 after it.  At fixed past the loss grows with the tree count, so the
    worst case is the largest tree count on either side.  Both have a
    closed form in the k = tree_depth levels, where 2^(k-1) <= window:

    * up to split: the level-l node holding s ends at ceil(s/2^l)*2^l, so
      it counts once d reaches its slack (-s) mod 2^l, if it ends inside
      the window.  End and slack are nondecreasing in l, so the counting
      levels form a prefix, and the largest count over s <= S =
      min(split, width) is #{l : min over s <= S of slack_l(s) <= d}.
      That minimum is max(0, 2^l - S), at s = min(S, 2^l), which lies in
      the first level-l node; it ends at 2^l <= window, so the window
      never cuts it.  Hence tree_p = #{l < k : 2^l <= S + d}.  All k
      levels count once d >= window - 1, so d is capped there (which
      keeps S + d below 2 * window, inside int64 up to window 2^62, the
      largest BaselineParams takes).
    * after split: s+d > window, so every node ending inside the window
      counts; node ends only grow with s, so position split+1 is the
      worst.  Its level-l node ends inside the window iff
      split >> l < window >> l, which, as split < window, holds exactly
      up to the highest bit where split and window differ:
      tree_next = min(k, bit_length(split ^ window)).

    Returns (p, tree_p, tree_next) per d; tree_next is -1 where no
    position has past p+1.
    """
    w = params.window
    width = min(w, _integer("horizon", horizon, 1))

    def levels_up_to(x):
        # #{l < k : 2^l <= x}
        return np.minimum(np.searchsorted(_POWERS_OF_TWO, x, side="right"),
                          params.tree_depth)

    split = w - d % w
    tree_p = levels_up_to(np.minimum(split, width) + np.minimum(d, w - 1))
    tree_next = np.where(split < width, levels_up_to(split ^ w), -1)
    return d // w, tree_p, tree_next


def _baseline_losses(params: BaselineParams, d: np.ndarray, horizon: int):
    """empirical_loss_baseline at every d of an int64 array, in the numeric
    type of eps_cur/eps_past (an object array for Fractions)."""
    past, tree_p, tree_next = _baseline_tree_maxima(params, d, horizon)
    now, later = (params.eps_cur * tree / params.tree_depth
                  + params.eps_past * rounds
                  for tree, rounds in ((tree_p, past), (tree_next, past + 1)))
    return np.where(tree_next >= 0, np.maximum(now, later), now)


def empirical_loss_baseline(d: int, params: BaselineParams, horizon: int):
    """Worst-case loss of the baseline at elapsed time d.

    An input at round position s is charged (eps_cur/k) for every tree node
    containing s whose interval has ended by observation time, plus
    eps_past for every later round whose past prefix has been released by
    then.  Both counts depend only on s, so the maximization runs over one
    window of positions.  This bounds the coupling cost
    (BaselineCounter.coupling_keys) but is not tight: it also charges the
    even-indexed nodes, which no release sums and the counter never draws
    (at window 31 and d 0 it charges five nodes, the coupling one).

    Generic over the numeric type of eps_cur/eps_past, in which the two
    candidate worst cases are evaluated: pass Fractions to get exact values
    (period-W increments of the linear regime are then exact).
    """
    # a one-point read of the grid form; a float overflow gives inf, as
    # Python floats do
    with np.errstate(over="ignore"):
        return _baseline_losses(params, _grid([d]), horizon).item()


def baseline_loss_curve(params: BaselineParams, d_values,
                        horizon: int) -> PrivacyLossCurve:
    """empirical_loss_baseline at every d of a grid, a block at a time."""
    return PrivacyLossCurve(d_values, _over_grid(
        d_values, lambda d: _baseline_losses(params, d, horizon)))


def simple_loss_curve(params: MechanismParams, d_values,
                      horizon: int) -> PrivacyLossCurve:
    """Worst-case loss of the composition counter (SimpleCounter) at every
    d of a grid: an input is in d fresh-draw releases, each at epsilon, so
    eps * d (horizon is only checked, as the other curves check it)."""
    _integer("horizon", horizon, 1)
    return PrivacyLossCurve(d_values, _over_grid(
        d_values, lambda d: params.epsilon * d))


# ---------------------------------------------------------------------------
# the coupling argument, executed


@dataclass
class CouplingReport:
    """Outcome of one coupling: did the shifted replay match, at what cost."""

    outputs_identical: bool
    cost: float
    shifted_keys: list
    shift: float


def coupling_shift(counter, ledger: dict, j: int, tau: int, y,
                   params) -> tuple[dict, CouplingReport]:
    """Shift the noises that absorb an input change y at j, up to time tau.

    `counter` is the class (ExpirationCounter, BaselineCounter or
    SimpleCounter) of the run that drew `ledger`.  Returns a new ledger with
    z - y at every key its rule counter.coupling_keys names: each release
    t <= tau that includes input j sums exactly one of them, every other
    release none.  Shifting again by -y restores the ledger exactly.  Each
    key's budget per unit of shift is the inverse scale of its Laplace draw;
    the cost is |y| times their sum, in the budgets' numeric type.  y is
    read by _real and must lie in [-1, 1].
    """
    j = _integer("j", j, 1)
    tau = _integer("tau", tau, j)
    y = _real("y", y, "in [-1, 1]")
    rule = counter.coupling_keys(params, j, tau)
    shifted = dict(ledger)
    for key, _ in rule:
        shifted[key] = ledger[key] - y
    cost = abs(y) * plain_sum(budget for _, budget in rule)
    return shifted, CouplingReport(True, cost, [key for key, _ in rule], y)


def verify_coupling(counter, x, x_prime, j: int, tau: int, params,
                    seed: int) -> CouplingReport:
    """Execute the coupling for one neighboring pair and compare outputs.

    Runs `counter` (a counter class) on the stream x with seeded noise,
    records every draw, applies coupling_shift with y = x'_j - x_j, and
    replays x on the ledger and x_prime on the shifted one, in exact
    rationals: "identical" means bit-identical, not within rounding.  Each
    value of x and x_prime is read as step reads an input.
    """
    j = _integer("j", j, 1)
    tau = _integer("tau", tau, j)
    x, x_prime = ([_check_input(v) for v in xs] for xs in (x, x_prime))
    if len(x) != tau or len(x_prime) != tau:
        raise ValueError("both streams must have exactly tau entries")
    diffs = [i for i, (a, b) in enumerate(zip(x, x_prime), start=1) if a != b]
    if diffs not in ([], [j]):
        raise ValueError(f"streams differ at positions {diffs}, expected only {j}")
    recorder = RecordingNoise(SeededNoise(seed))
    run = counter(params, recorder)
    for v in x:
        run.step(v)
    ledger = {k: Fraction(v) for k, v in recorder.ledger.items()}
    y = Fraction(x_prime[j - 1]) - Fraction(x[j - 1])
    shifted, report = coupling_shift(counter, ledger, j, tau, y, params)
    outputs = []
    for xs, draws in ((x, ledger), (x_prime, shifted)):
        run = counter(params, ReplayNoise(draws))
        outputs.append([run.step(Fraction(v)) for v in xs])
    report.outputs_identical = outputs[0] == outputs[1]
    return report


# ---------------------------------------------------------------------------
# lower-bound consistency


@dataclass
class LowerBoundReport:
    """Both forms of the accuracy/privacy trade-off inequality, evaluated.

    Primary: sum_{j=0}^{2C-1} envelope(j) >= log(T/(6C)) / eps.
    Secondary: 2C * envelope(2C-1) >= log(T/(6C)) / (2 eps).
    Truthiness is the primary verdict.  Logs are natural.
    """

    passed: bool
    lhs: float
    rhs: float
    secondary_passed: bool
    secondary_lhs: float
    secondary_rhs: float

    def __bool__(self) -> bool:
        return self.passed


def lower_bound_check(T: int, C: int, epsilon: float,
                      curve: PrivacyLossCurve) -> LowerBoundReport:
    """Check that a loss curve is consistent with the accuracy lower bound.

    A mechanism with additive error at most C (with constant probability)
    cannot have too small a privacy-loss envelope: the first 2C elapsed
    times must carry total loss at least log(T/(6C))/eps.  C and T must be
    integers with 0 < C < T/2, and epsilon positive and finite
    (ValueError).
    """
    C = _integer("C", C, 1)
    T = _integer("T", T, 2 * C + 1)
    epsilon = _real("epsilon", epsilon)
    log_term = math.log(T / (6.0 * C))
    env = curve.envelope_at(np.arange(2 * C))
    lhs = float(env.sum())
    rhs = log_term / epsilon
    sec_lhs = 2.0 * C * float(env[-1])
    sec_rhs = log_term / (2.0 * epsilon)
    return LowerBoundReport(lhs >= rhs, lhs, rhs,
                            sec_lhs >= sec_rhs, sec_lhs, sec_rhs)
