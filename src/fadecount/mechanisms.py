"""The three streaming counters over unbounded [0,1]-valued streams.

All three release a (possibly delayed) noisy prefix sum at every step:

* ``SimpleCounter``      — fresh Laplace draw per step, outputs lag one step.
* ``ExpirationCounter``  — the delayed, level-budgeted counter: outputs 0 for
  the first `delay` steps, then adds one draw per dyadic interval containing
  the release position, with level-l scale (1+l)^(1-level_exponent)/epsilon.
  At level exponent 1 and delay 0 it is the logarithmic counter.
* ``BaselineCounter``    — windowed rounds: a fresh binary tree per round
  plus a once-per-round noisy prefix of everything before the round.

The first two are one lagged counter (_LaggedCounter) with two static
facts per class: lag(params), the steps a release trails the stream, and
schedule(params), the (key prefix, scale) of each noise level in summation
order.  Its step, the range noise kernel, lagged_releases and
calibration.error_bound_expiration all read them.

Each counter states its coupling rule, ``coupling_keys(params, j, tau)``:
for an input change at j seen up to time tau, the noise keys to shift, each
with its budget per unit of shift (see privacy_audit.coupling_shift).

Mechanisms take no horizon: streams are unbounded, every counter's state is
O(delay + log t), and no step draws more than four noise values (the
expiration counter draws a deep level's next value ahead, in the middle of
its current span; the baseline draws one tree node per step plus one past
draw per round).

Each counter also has a numpy runner that yields its releases a block of
steps at a time, bit for bit equal to step: lagged_releases for the first
two, baseline_releases for the baseline.  `fadecount run` uses them.

Counters are deliberately generic over the numeric type of the inputs and of
the noise values handed to them: run them with floats for production, or
with exact rationals (``fractions.Fraction``) when replaying a run whose
outputs must be compared bit-for-bit.  Nothing in the update path forces a
float coercion; only numpy floating inputs, and numpy numbers given as
parameters (read by noise._real and noise._integer), are turned into Python
numbers, which is exact.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .dyadic import decompose, floor_log2
from .noise import (_MASK64, _check_seed, _integer, _key_offsets,
                    _keyed_laplace_into, _real, keyed_noise,
                    laplace_sample_array, prf_uniform_array)

# key domains, so draws of different kinds can never collide
DOMAIN_INTERVAL = 1   # (DOMAIN_INTERVAL, level, index)         interval noise
DOMAIN_STEP = 2       # (DOMAIN_STEP, step)                     per-step noise
DOMAIN_TREE = 3       # (DOMAIN_TREE, round, level, node)       baseline tree
DOMAIN_PAST = 4       # (DOMAIN_PAST, round)                    baseline past


def _check_scale(name: str, given: str, compute, *args):
    """Reject a noise scale or budget compute(*args) that is not a positive
    finite float, by name, with the parameters it is computed from
    (ValueError); an OverflowError computing it counts as infinite."""
    try:
        value = compute(*args)
    except OverflowError:
        value = math.inf
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be a positive finite float, got "
                         f"{value!r} ({given})")


@dataclass(frozen=True)
class MechanismParams:
    """Parameters and level schedule of the delayed level-budgeted counter.

    epsilon         privacy parameter (> 0)
    level_exponent  exponent shaping per-level noise: the scale of a level-l
                    interval draw is (1+l)^(1-level_exponent) / epsilon.
                    1.0 gives every level the same scale; larger values
                    shrink noise on coarse levels at the price of faster
                    privacy-loss growth, and 0 is allowed.
    delay           number of initial steps released as exact 0 (>= 0)

    Each is stored as its reader returns it: epsilon and level_exponent as
    _real reads them, delay as the Python int _integer reads.
    """

    epsilon: float
    level_exponent: float = 1.0
    delay: int = 0

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _real("epsilon", self.epsilon))
        object.__setattr__(self, "level_exponent", _real(
            "level_exponent", self.level_exponent, "nonnegative"))
        object.__setattr__(self, "delay", _integer("delay", self.delay))
        # levels 0 and 62 are the ends of the kernels' level range, and each
        # is monotone in the level, so these bound every level between
        for name in ("level_scale", "budget_weight"):
            for level in (0, 62):
                _check_scale(f"{name}({level})",
                             f"epsilon {self.epsilon!r}, level_exponent "
                             f"{self.level_exponent!r}",
                             getattr(self, name), level)
        # the closed-form bound's largest power, at n = 2^62; the largest
        # level sum, budget_sums(63)[-1], is below it (63 terms of at most
        # 63 ** (level_exponent - 1))
        _check_scale("63.0 ** level_exponent",
                     f"level_exponent {self.level_exponent!r}",
                     pow, 63.0, self.level_exponent)

    def level_scale(self, level: int) -> float:
        """Noise scale of a level-`level` interval draw."""
        return (1.0 + level) ** (1.0 - self.level_exponent) / self.epsilon

    def budget_weight(self, level: int) -> float:
        """Budget per unit of shift of a level-`level` draw, over epsilon."""
        return (1.0 + level) ** (self.level_exponent - 1.0)

    def variance_weight(self, level: int) -> float:
        """Variance of a level-`level` draw over 2 / epsilon^2 (not derived
        from level_scale: 2 * scale^2 rounds differently)."""
        return (1.0 + level) ** (2.0 * (1.0 - self.level_exponent))

    def budget_sums(self, levels: int) -> list:
        """Left-to-right sums of budget_weight over levels 0..l < levels."""
        return list(accumulate(map(self.budget_weight, range(levels))))

    def variance_sums(self, levels: int) -> list:
        """Left-to-right sums of variance_weight over levels 0..l < levels."""
        return list(accumulate(map(self.variance_weight, range(levels))))


@dataclass(frozen=True)
class BaselineParams:
    """Windowed-baseline parameters: window length (stored as the Python
    int _integer reads) and the two budgets (stored as _real reads them)."""

    window: int
    eps_cur: float
    eps_past: float

    def __post_init__(self):
        object.__setattr__(self, "window", _integer("window", self.window, 1))
        # the loss kernel sums up to 2 * window - 1 in int64
        if self.window > 1 << 62:
            raise ValueError(f"window must be at most 2^62, got {self.window}")
        for name in ("eps_cur", "eps_past"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        # the scales BaselineCounter draws at
        _check_scale("tree_depth/eps_cur",
                     f"window {self.window}, eps_cur {self.eps_cur!r}",
                     lambda: self.tree_depth / self.eps_cur)
        _check_scale("1/eps_past", f"eps_past {self.eps_past!r}",
                     lambda: 1.0 / self.eps_past)

    @property
    def tree_depth(self) -> int:
        """Number of tree levels k = ceil(log2(window+1)), the bit length
        of the window (exact in integers, where log2 rounds from 2^53)."""
        return self.window.bit_length()


# ---------------------------------------------------------------------------
# noise sources


class SeededNoise:
    """Draws keyed Laplace noise deterministically from a 64-bit seed."""

    def __init__(self, seed: int):
        self.seed = _check_seed(seed)

    def draw(self, parts, scale):
        return keyed_noise(self.seed, parts, scale)


class RecordingNoise:
    """Wraps a source and remembers every draw in a ledger dict.

    The ledger maps the key parts tuple to the drawn value.  Within one run
    each key is drawn at most once by the counters, but the cache also makes
    that a guarantee rather than a convention.
    """

    def __init__(self, inner):
        self.inner = inner
        self.ledger: dict = {}

    def draw(self, parts, scale):
        if parts not in self.ledger:
            self.ledger[parts] = self.inner.draw(parts, scale)
        return self.ledger[parts]


class ReplayNoise:
    """Replays a ledger exactly; a missing key is a hard error."""

    def __init__(self, ledger: dict):
        self.ledger = ledger

    def draw(self, parts, scale):
        return self.ledger[parts]


# ---------------------------------------------------------------------------
# scalar counters


def _check_input(x):
    """x, checked to lie in [0,1]; numpy floats become Python floats.

    The conversion is exact, and keeps a float32 stream from dragging the
    prefix sums (and so the releases) down to float32.  Other types,
    Fraction included, pass through unchanged.
    """
    if not 0 <= x <= 1:
        raise ValueError(f"stream values must lie in [0,1], got {x!r}")
    return float(x) if isinstance(x, np.floating) else x


class _LaggedCounter:
    """A counter that releases 0 up to step lag(params), then at step t the
    prefix sum through release position p = t - lag plus one live draw per
    level of its schedule(params) that p has reached.

    schedule(params) lists (key prefix, scale) for levels 0, 1, ... in
    summation order; level l's draw at p is keyed prefix + (p >> l,).
    Position p starts the draw of levels 0..low - 1, low = nu2(p) + 1 (nu2
    = number of trailing zero bits, up to the schedule's last level).
    Levels 0..2 are drawn then.  A deeper level's value was drawn ahead:
    at p = 0 mod 4, p is the middle of level low's span, and step draws
    level low's next value, prefix + ((p >> low) + 1,), which goes live
    2^(low-1) positions later.  So odd positions draw 1 value, p = 2 mod 4
    draw 2, and p = 0 mod 4 draw 4; each key is drawn once.
    State, O(lag + log p): the last `lag` inputs, the prefix through p, one
    live draw per level and at most one value drawn ahead per level.
    redraws counts the draws made, ahead ones included: through position P,
    sum of floor(P / 2^l) over levels l <= 2, plus one per multiple of 4
    whose level low exists; 2P at most.
    """

    def __init__(self, params, noise):
        self.params = params
        self.noise = noise
        self._lag = self.lag(params)
        self._levels = self.schedule(params)
        self._position = 0          # release position p = t - lag
        self._prefix = 0            # sum of x_1..x_p
        self._buffer = deque()      # the lag most recent inputs
        self._active = {}           # level -> live noise value
        self._ahead = {}            # level -> its next value, drawn ahead

    @property
    def redraws(self) -> int:
        """Noise draws made so far, values drawn ahead included."""
        p, levels = self._position, len(self._levels)
        ahead = (p >> 2) - (p >> (levels - 1)) if levels > 2 else 0
        return sum(p >> lvl for lvl in range(min(levels, 3))) + ahead

    @property
    def active_noise_count(self) -> int:
        return len(self._active)

    @property
    def buffer_len(self) -> int:
        return len(self._buffer)

    def step(self, x):
        x = _check_input(x)
        if self._lag:
            self._buffer.append(x)
            if len(self._buffer) <= self._lag:
                return 0
            x = self._buffer.popleft()
        p = self._position = self._position + 1
        self._prefix = self._prefix + x
        # the levels whose draw starts at p: 0..low - 1, low = nu2(p) + 1;
        # from level 3 on, the value was drawn ahead
        low = (p & -p).bit_length()
        for lvl, (key, scale) in enumerate(self._levels[:low]):
            self._active[lvl] = (self._ahead.pop(lvl) if lvl > 2 else
                                 self.noise.draw(key + (p >> lvl,), scale))
        if 2 < low < len(self._levels):
            # p is the middle of level low's span: draw its next value
            key, scale = self._levels[low]
            self._ahead[low] = self.noise.draw(key + ((p >> low) + 1,), scale)
        # live noise summed in level order (plain_sum's fold, inline on this
        # hot path), then added to the prefix, as lagged_releases does
        noise = 0
        for z in self._active.values():
            noise = noise + z
        return self._prefix + noise


class SimpleCounter(_LaggedCounter):
    """Fresh noise each step; output t is the prefix through t-1 plus Lap(1/eps).

    The first output is exactly 0 and every release lags the stream by one
    step; kept verbatim (not harmonized with the other counters' timing).
    """

    @staticmethod
    def lag(params: MechanismParams) -> int:
        return 1

    @staticmethod
    def schedule(params: MechanismParams) -> list:
        """One level, redrawn at every position: the draw (DOMAIN_STEP, p)."""
        return [((DOMAIN_STEP,), 1.0 / params.epsilon)]

    @staticmethod
    def coupling_keys(params: MechanismParams, j: int, tau: int) -> list:
        """The coupling rule (module docstring): release t sums the prefix
        through t-1 and step t-1's draw."""
        return [((DOMAIN_STEP, s), params.epsilon) for s in range(j, tau)]


class ExpirationCounter(_LaggedCounter):
    """Delayed level-budgeted counter; the main mechanism.

    Releases lag the stream by `delay` steps, and position p sums one draw
    per dyadic interval containing it: (DOMAIN_INTERVAL, l, p >> l) at
    params.level_scale(l), for levels 0..floor(log2 p).
    """

    @staticmethod
    def lag(params: MechanismParams) -> int:
        return params.delay

    @staticmethod
    def schedule(params: MechanismParams) -> list:
        """Levels 0..62: positions stay below 2^63."""
        return [((DOMAIN_INTERVAL, lvl), params.level_scale(lvl))
                for lvl in range(63)]

    @staticmethod
    def coupling_keys(params: MechanismParams, j: int, tau: int) -> list:
        """The coupling rule (module docstring): release t sums one interval
        of the cover of [j, t - delay]."""
        end = tau - params.delay
        return [((DOMAIN_INTERVAL, iv.level, iv.index),
                 params.epsilon * params.budget_weight(iv.level))
                for iv in (decompose(j, end) if end >= j else [])]


class BaselineCounter:
    """Windowed baseline: per-round binary tree plus a noisy past prefix.

    Round r covers steps (r-1)W+1 .. rW.  Inside a round the in-round prefix
    [1, s] is estimated by the standard binary tree over [1, W]: the
    decomposition of [1, s] follows the binary expansion of s (highest bit
    first), each node carrying one Lap(k/eps_cur) draw, k = ceil(log2(W+1)).
    Bit l of s names node (l, s >> l), ending at (s >> l) << l, so position
    s completes one node, (nu2(s), s >> nu2(s)): one live node per level.
    At each round start r >= 2 the true prefix of everything before the
    round gets one fresh Lap(1/eps_past) draw, shared by the round's W
    outputs; round 1 outputs omit the past term entirely.
    """

    def __init__(self, params: BaselineParams, noise):
        self.params = params
        self.noise = noise
        self._t = 0
        self._total_prefix = 0     # sum of all inputs seen so far
        self._round_sum = 0        # in-round prefix
        self._past_estimate = 0    # c_r, noisy prefix before current round
        self._live = [None] * params.tree_depth   # level -> live node value

    def step(self, x):
        x = _check_input(x)
        self._t += 1
        w = self.params.window
        r = (self._t + w - 1) // w
        s = self._t - (r - 1) * w
        if s == 1:
            self._round_sum = 0
            if r >= 2:
                z = self.noise.draw((DOMAIN_PAST, r), 1.0 / self.params.eps_past)
                self._past_estimate = self._total_prefix + z
        self._total_prefix = self._total_prefix + x
        self._round_sum = self._round_sum + x
        # s completes one node, (nu2(s), s >> nu2(s)): see the class docstring
        low = (s & -s).bit_length() - 1
        self._live[low] = self.noise.draw(
            (DOMAIN_TREE, r, low, s >> low),
            self.params.tree_depth / self.params.eps_cur)
        out = (0 if r == 1 else self._past_estimate) + self._round_sum
        # the live node of each set bit of s, highest bit first
        for lvl in range(s.bit_length() - 1, -1, -1):
            if s >> lvl & 1:
                out = out + self._live[lvl]
        return out

    @staticmethod
    def coupling_keys(params: BaselineParams, j: int, tau: int) -> list:
        """The coupling rule (module docstring): with j at position s of
        round r, a release at s' >= s in round r sums the tree node holding
        s at the level of one bit of s', always an odd node and first at its
        end; and every later round's past estimate includes j."""
        w, k = params.window, params.tree_depth
        r, s = (j - 1) // w + 1, (j - 1) % w + 1
        last = min(w, tau - (r - 1) * w)
        nodes = [(lvl, ((s - 1) >> lvl) + 1) for lvl in range(k)]
        return [((DOMAIN_TREE, r, lvl, node), params.eps_cur / k)
                for lvl, node in nodes if node & 1 and node << lvl <= last] + [
            ((DOMAIN_PAST, q), params.eps_past)
            for q in range(r + 1, (tau - 1) // w + 2)]


# ---------------------------------------------------------------------------
# vectorized runners (single stream / Monte Carlo batches)
#
# These produce exactly the same numbers as the counters' step — the noise
# keys, the PRF lane and the summation order are shared — but evaluate
# streams with numpy.  The noise kernel takes a schedule and any range of
# positions, so lagged_releases draws one block of rows at a time for
# `fadecount run`, and the whole stream at once for run_expiration.
# baseline_releases draws a block's rounds and tree nodes the same way, and
# carries step's round state from one block to the next.


# draws per pass of the noise-total kernel: its scratch is three arrays of
# this many 8-byte elements, whatever the number of positions
_CHUNK = 1 << 15


def _draw_chunks(first: int, last: int, levels: int):
    """The kernel's draw stream over release positions first..last and
    levels 0..levels-1, level-major, cut into chunks of _CHUNK draws.

    Level l contributes the draws first >> l .. last >> l that exist (draw 0
    does not: level l starts at position 2^l).  Yields, per chunk, its
    segments (level, first draw, offset in the chunk, count) in stream
    order; a level may span several chunks and a chunk may hold many levels.
    """
    segments, used = [], 0
    for lvl in range(levels):
        k, end = max(1, first >> lvl), last >> lvl
        while k <= end:
            count = min(end - k + 1, _CHUNK - used)
            segments.append((lvl, k, used, count))
            used += count
            k += count
            if used == _CHUNK:
                yield segments
                segments, used = [], 0
    if segments:
        yield segments


def _add_noise_totals(total: np.ndarray, schedule, first: int,
                      seed: int) -> None:
    """Add the total live noise of a schedule (_LaggedCounter) at release
    positions first.. (first >= 1), one per element of `total`, into
    `total` (zeros on entry).

    Every level's draws form one stream, processed a chunk at a time in
    reused scratch: the keys of all the chunk's segments, one in-place PRF
    pass, one in-place Laplace pass with a per-segment scale.  Level l's
    draw k covers positions k*2^l .. (k+1)*2^l - 1, so the draws of a
    segment wholly inside the range are added over a (draws, 2^l) view of
    the totals, plus a scalar add for each clipped one (the range's first
    and last at that level).  Chunks follow the stream, so levels are added
    in ascending order, the order _LaggedCounter.step sums them in.
    """
    size, last = len(total), first + len(total) - 1
    if size < 1:
        return
    levels = schedule[:floor_log2(last) + 1]
    # level l has at most (size - 1) / 2^l + 2 draws in the range
    scratch = min(_CHUNK, 2 * (size + len(levels)))
    ramp = np.arange(scratch, dtype=np.uint64)
    keys = np.empty(scratch, dtype=np.uint64)
    z = np.empty(scratch)
    offsets = [_key_offsets(seed, key) for key, _scale in levels]
    for segments in _draw_chunks(first, last, len(levels)):
        _lvl, _k, at, count = segments[-1]
        n = at + count
        for lvl, k, at, count in segments:
            np.add(ramp[:count], np.uint64((offsets[lvl] + k) & _MASK64),
                   out=keys[at:at + count])
        _keyed_laplace_into(keys[:n], z[:n],
                            [(slice(at, at + count), levels[lvl][1])
                             for lvl, _k, at, count in segments])
        for lvl, k, at, count in segments:
            width = 1 << lvl
            start = (k << lvl) - first      # where draw k begins in total
            head = 1 if start < 0 else 0    # draw k begins before total
            whole = min(count, (size - start) // width)  # ends inside total
            if whole > head:
                dst = total[start + head * width:start + whole * width]
                src = z[at + head:at + whole]
                if width <= 4:
                    # a broadcast runs numpy's inner loop along rows this
                    # short; one strided add per column is about twice as fast
                    for j in range(width):
                        dst[j::width] += src
                else:
                    blocks = dst.reshape(whole - head, width)
                    blocks += src[:, None]
            if head:
                total[:start + width] += z[at]
            if max(whole, head) < count:    # the last draw ends past total
                total[start + (count - 1) * width:] += z[at + count - 1]


def expiration_noise_totals(params: MechanismParams, positions: int,
                            seed: int) -> np.ndarray:
    """Total interval noise at release positions 1..positions (index 0
    unused)."""
    total = np.zeros(_integer("positions", positions) + 1)
    _add_noise_totals(total[1:], ExpirationCounter.schedule(params), 1, seed)
    return total


def running_sums(xs: np.ndarray, carry, out: np.ndarray):
    """Write into out the running sums of xs from carry, each added in turn
    as step() adds them (so 0.0 + -0.0 gives 0.0); return the last."""
    out[:] = xs
    out[0] += carry
    return np.cumsum(out, out=out)[-1]


def _check_stream(xs: np.ndarray, seed: int, block: int) -> tuple[int, int]:
    """Reject a block size that is not a positive integer, then a seed
    outside [0, 2^64) or a value of xs outside [0,1], by step's messages
    (ValueError); return (seed, block) as Python ints."""
    block = _integer("block", block, 1)
    seed = _check_seed(seed)
    if len(xs) and not (xs.min() >= 0 and xs.max() <= 1):  # NaN fails too
        _check_input(float(xs[~((xs >= 0) & (xs <= 1))][0]))
    return seed, block


def lagged_releases(counter, params, xs: np.ndarray, seed: int, block: int):
    """Releases of a _LaggedCounter class (SimpleCounter, ExpirationCounter)
    over the stream xs, bit for bit, one array per `block` steps: 0 up to
    step lag, then at step t the prefix through position t - lag plus that
    position's noise.  A block draws only its positions' noise.  A block
    size that is not a positive integer is a ValueError, and so are a seed
    outside [0, 2^64) or a value of xs outside [0,1], as in step; all are
    raised before the first block."""
    seed, block = _check_stream(xs, seed, block)
    lag, schedule = counter.lag(params), counter.schedule(params)
    prefix = 0.0
    for lo in range(0, len(xs), block):
        out = np.zeros(min(block, len(xs) - lo))
        first, last = max(1, lo + 1 - lag), lo + len(out) - lag
        if last >= first:
            # the noise total is summed apart, then added: step's order
            noise = np.zeros(last - first + 1)
            _add_noise_totals(noise, schedule, first, seed)
            released = out[first + lag - 1 - lo:]
            prefix = running_sums(xs[first - 1:last], prefix, released)
            released += noise
        yield out


def baseline_releases(params: BaselineParams, xs: np.ndarray, seed: int,
                      block: int):
    """Releases of BaselineCounter over the stream xs, bit for bit, one
    array per `block` steps, checked as lagged_releases checks.

    A block carries step's state across the block boundary: the total
    prefix, the in-round sum and the past estimate c_r.  Within it, numpy
    passes build step's (c_r + R_s) + node_{k-1} + ... + node_0 for every
    step at once: the in-round sums R_s restart at each round start; each
    round begun in the block draws z_r, c_r being the prefix before it plus
    z_r (0 in round 1); and each step draws the one node its position
    completes, (nu2(s), s >> nu2(s)), plus one node per level for the
    block's first round, the node live at the block's start.  The level-l
    node of a step whose bit l of s is set is the one completed at s with
    its low l bits cleared, or that carried node if that is before the
    block.  No array is larger than the block, and none is sized by W.
    """
    seed, block = _check_stream(xs, seed, block)
    w, scale = params.window, params.tree_depth / params.eps_cur
    prefix = in_round = past = 0.0
    for lo in range(0, len(xs), block):
        x = xs[lo:lo + block]
        n, first = len(x), lo % w            # first: steps of the round before
        i = np.arange(n)
        rl = (i + first) // w                # round of each step, from 0
        s = i + first - rl * w + 1           # its position in the round
        totals = np.empty(n + 1)             # total prefix before each step
        totals[0] = prefix
        prefix = running_sums(x, prefix, totals[1:])
        # in-round sums: the round begun before the block carries in_round,
        # whole rounds are rows of a (rounds, W) view, the last starts here.
        # step starts each from 0, so a sum may differ in the sign of a zero,
        # which never shows: every release adds c_r, never -0.0, to it
        out = np.empty(n)
        head = min(n, -first % w)
        whole = head + (n - head) // w * w
        if head:
            running_sums(x[:head], in_round, out[:head])
        if whole > head:
            np.cumsum(x[head:whole].reshape(-1, w), axis=1,
                      out=out[head:whole].reshape(-1, w))
        if whole < n:
            np.cumsum(x[whole:], out=out[whole:])
        in_round = out[-1]
        # c_r of each round of the block: carried into it, 0 in round 1, or
        # drawn for each round r >= 2 that begins in it
        rounds = np.arange(lo // w + 1, lo // w + 2 + rl[-1], dtype=np.uint64)
        c = np.full(len(rounds), past)
        begun = np.arange(1 if first or not lo else 0, len(c))
        c[begun] = totals[begun * w - first] + laplace_sample_array(
            1.0 / params.eps_past,
            prf_uniform_array(seed, (DOMAIN_PAST,), rounds[begun]))
        past = c[-1]
        np.add(c[rl], out, out=out)
        # key offsets of (DOMAIN_TREE, r, l) for every round of the block
        # and every level its positions reach, indexed [l, r]
        levels = min(w, first + n).bit_length()
        offsets = _key_offsets(seed, (DOMAIN_TREE,), rounds,
                               np.arange(levels, dtype=np.uint64)[:, None])
        low = np.frexp(s & -s)[1] - 1        # nu2(s), exact: s & -s is 2^nu2
        keys = np.empty(levels + n, dtype=np.uint64)
        keys[:levels] = first >> np.arange(levels)
        keys[:levels] += offsets[:, 0]
        keys[levels:] = s >> low
        keys[levels:] += offsets[low, rl]
        z = _keyed_laplace_into(keys, np.empty(len(keys)), ((..., scale),))
        carried, z = z[:levels].tolist(), z[levels - 1:]
        # step i's level-l node is z[1 + i - s + (s >> l << l)], its round's
        # level-l node carried into the block at index 0 or below
        start = i - s + 1
        at = np.empty(n, dtype=np.int64)
        node = np.empty(n)
        bit = np.empty(n, dtype=bool)
        for lvl in range(levels - 1, -1, -1):
            np.bitwise_and(s, 1 << lvl, out=bit, casting="unsafe")
            np.bitwise_and(s, -1 << lvl, out=at)
            at += start
            z[0] = carried[lvl]
            z.take(at, out=node, mode="clip")
            np.add(out, node, out=out, where=bit)
        yield out


def run_expiration(params: MechanismParams, xs: np.ndarray,
                   seed: int) -> np.ndarray:
    """Released values of ExpirationCounter over the whole stream xs."""
    return next(lagged_releases(ExpirationCounter, params, xs, seed,
                                max(1, len(xs))), np.zeros(0))


def expiration_max_and_mse_batch(params: MechanismParams, positions: int,
                                 seeds) -> tuple[np.ndarray, np.ndarray]:
    """Per-seed (max |noise|, mean noise^2) over release positions 1..positions.

    The workhorse of the error-agreement and lower-bound Monte Carlos: for a
    zero stream the released error at position p is exactly the interval
    noise total, so these statistics need no stream at all.
    """
    total = np.empty(_integer("positions", positions, 1))
    seeds = [_check_seed(s) for s in seeds]
    maxes, mses = np.empty((2, len(seeds)))
    schedule = ExpirationCounter.schedule(params)
    for i, s in enumerate(seeds):
        total.fill(0.0)
        _add_noise_totals(total, schedule, 1, s)
        np.abs(total, out=total)
        maxes[i] = total.max()
        total *= total
        mses[i] = np.mean(total)
    return maxes, mses
