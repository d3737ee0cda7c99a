"""The three streaming counters over unbounded [0,1]-valued streams.

All three release a (possibly delayed) noisy prefix sum at every step:

* ``SimpleCounter``      — fresh Laplace draw per step, outputs lag one step.
* ``ExpirationCounter``  — the delayed, level-budgeted counter: outputs 0 for
  the first `delay` steps, then adds one draw per dyadic interval containing
  the release position, with level-l scale (1+l)^(1-level_exponent)/epsilon.
  At level exponent 1 and delay 0 it is the logarithmic counter.
* ``BaselineCounter``    — windowed rounds: a fresh binary tree per round
  plus a once-per-round noisy prefix of everything before the round.

Each counter states its coupling rule, ``coupling_keys(params, j, tau)``:
for an input change at j seen up to time tau, the noise keys to shift, each
with its budget per unit of shift (see privacy_audit.coupling_shift).

Mechanisms take no horizon: streams are unbounded, every counter's state is
O(delay + log t), and noise upkeep is amortized O(1) per step (expiration
level l is redrawn every 2^l steps; the baseline draws one tree node per step
plus one past draw per round).

Counters are deliberately generic over the numeric type of the inputs and of
the noise values handed to them: run them with floats for production, or
with exact rationals (``fractions.Fraction``) when replaying a run whose
outputs must be compared bit-for-bit.  Nothing in the update path forces a
float coercion; only numpy floating inputs are turned into Python floats,
which is exact.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .dyadic import decompose, floor_log2
from .noise import (_MASK64, _laplace_inplace, _prf_key_offset,
                    _prf_uniform_inplace, keyed_noise, laplace_sample_array,
                    prf_uniform_array)

# key domains, so draws of different kinds can never collide
DOMAIN_INTERVAL = 1   # (DOMAIN_INTERVAL, level, index)         interval noise
DOMAIN_STEP = 2       # (DOMAIN_STEP, step)                     per-step noise
DOMAIN_TREE = 3       # (DOMAIN_TREE, round, level, node)       baseline tree
DOMAIN_PAST = 4       # (DOMAIN_PAST, round)                    baseline past


def _check_finite(**values):
    """Reject a NaN or infinite parameter, by name (ValueError)."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


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
    """

    epsilon: float
    level_exponent: float = 1.0
    delay: int = 0

    def __post_init__(self):
        _check_finite(epsilon=self.epsilon,
                      level_exponent=self.level_exponent)
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.level_exponent < 0:
            raise ValueError(
                f"level_exponent must be nonnegative, got {self.level_exponent}")
        if self.delay < 0 or int(self.delay) != self.delay:
            raise ValueError(f"delay must be a nonnegative integer, got {self.delay}")

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
    """Windowed-baseline parameters: window length and the two budgets."""

    window: int
    eps_cur: float
    eps_past: float

    def __post_init__(self):
        if self.window < 1 or int(self.window) != self.window:
            raise ValueError(f"window must be a positive integer, got {self.window}")
        _check_finite(eps_cur=self.eps_cur, eps_past=self.eps_past)
        if self.eps_cur <= 0 or self.eps_past <= 0:
            raise ValueError("both eps values must be positive")

    @property
    def tree_depth(self) -> int:
        """Number of tree levels k = ceil(log2(window+1)), the bit length
        of the window (exact in integers, where log2 rounds from 2^53)."""
        return int(self.window).bit_length()


# ---------------------------------------------------------------------------
# noise sources


class SeededNoise:
    """Draws keyed Laplace noise deterministically from a 64-bit seed."""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def draw(self, parts, scale):
        return keyed_noise(self.seed, parts, scale)


class ZeroNoise:
    """Forces every draw to exactly 0 — for exactness tests and debugging."""

    def draw(self, parts, scale):
        return 0


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


class SimpleCounter:
    """Fresh noise each step; output t is the prefix through t-1 plus Lap(1/eps).

    The first output is exactly 0 and every release lags the stream by one
    step; kept verbatim (not harmonized with the other counters' timing).
    """

    def __init__(self, params: MechanismParams, noise):
        self.params = params
        self.noise = noise
        self._t = 0
        self._prefix = 0

    def step(self, x):
        x = _check_input(x)
        self._t += 1
        if self._t == 1:
            out = 0
        else:
            z = self.noise.draw((DOMAIN_STEP, self._t - 1), 1.0 / self.params.epsilon)
            out = self._prefix + z
        self._prefix = self._prefix + x
        return out

    @staticmethod
    def coupling_keys(params: MechanismParams, j: int, tau: int) -> list:
        """The coupling rule (module docstring): release t sums the prefix
        through t-1 and step t-1's draw."""
        return [((DOMAIN_STEP, s), params.epsilon) for s in range(j, tau)]


class ExpirationCounter:
    """Delayed level-budgeted counter; the main mechanism.

    State: the last `delay` inputs, the prefix sum through the current
    release position p = t - delay, and one live noise value per level
    0..floor(log2 p).  Stepping refreshes exactly the levels whose interval
    boundary p crosses (levels 0..nu2(p), nu2 = number of trailing zero
    bits), so total redraws over P released positions are
    sum_p (nu2(p)+1) = 2P - popcount(P) <= 2P.
    """

    def __init__(self, params: MechanismParams, noise):
        self.params = params
        self.noise = noise
        self._position = 0          # release position p = t - delay
        self._delayed_sum = 0       # sum of x_1..x_p
        self._buffer = deque()      # the delay most recent inputs
        self._active = {}           # level -> live noise value

    @property
    def redraws(self) -> int:
        return 2 * self._position - bin(self._position).count("1")

    @property
    def active_noise_count(self) -> int:
        return len(self._active)

    @property
    def buffer_len(self) -> int:
        return len(self._buffer)

    def step(self, x):
        x = _check_input(x)
        delay = self.params.delay
        if delay:
            self._buffer.append(x)
            if len(self._buffer) <= delay:
                return 0
            x = self._buffer.popleft()
        p = self._position = self._position + 1
        self._delayed_sum = self._delayed_sum + x
        # levels whose containing interval changed at p: 0..nu2(p)
        refresh = (p & -p).bit_length()  # nu2(p) + 1
        for lvl in range(refresh):
            self._active[lvl] = self.noise.draw(
                (DOMAIN_INTERVAL, lvl, p >> lvl), self.params.level_scale(lvl))
        # live noise summed in level order (plain_sum's fold, inline on this
        # hot path), then added to the prefix, as run_expiration does
        noise = 0
        for z in self._active.values():
            noise = noise + z
        return self._delayed_sum + noise

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
# These produce exactly the same numbers as the scalar counters above — the
# noise keys, the PRF lane and the summation order are shared — but evaluate
# streams with numpy.  The noise kernels take any range of positions, so
# `fadecount run` draws one block of rows at a time and the Monte Carlo
# checks and run_expiration the whole stream at once.


# draws per pass of the noise-total kernel: its scratch is three arrays of
# this many 8-byte elements, whatever the number of positions
_CHUNK = 1 << 15


def _draw_chunks(first: int, last: int):
    """The kernel's draw stream over release positions first..last,
    level-major, cut into chunks of _CHUNK draws.

    Level l contributes the draws first >> l .. last >> l that exist (draw 0
    does not: level l starts at position 2^l).  Yields, per chunk, its
    segments (level, first draw, offset in the chunk, count) in stream
    order; a level may span several chunks and a chunk may hold many levels.
    """
    segments, used = [], 0
    for lvl in range(floor_log2(last) + 1):
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


def _add_noise_totals(total: np.ndarray, params: MechanismParams, first: int,
                      seed: int) -> None:
    """Add the total interval noise at release positions first.. (first >= 1),
    one per element of `total`, into `total` (zeros on entry).

    Every level's draws form one stream, processed a chunk at a time in
    reused scratch: the keys of all the chunk's segments, one in-place PRF
    pass, one in-place Laplace pass with a per-segment scale.  Level l's
    draw k covers positions k*2^l .. (k+1)*2^l - 1, so the draws of a
    segment wholly inside the range are added over a (draws, 2^l) view of
    the totals, plus a scalar add for each clipped one (the range's first
    and last at that level).  Chunks follow the stream, so levels are added
    in ascending order, the order ExpirationCounter.step sums them in.
    """
    size, last = len(total), first + len(total) - 1
    if size < 1:
        return
    levels = range(floor_log2(last) + 1)
    # level l has at most (size - 1) / 2^l + 2 draws in the range
    scratch = min(_CHUNK, 2 * (size + len(levels)))
    ramp = np.arange(scratch, dtype=np.uint64)
    keys = np.empty(scratch, dtype=np.uint64)
    z = np.empty(scratch)
    offsets = [_prf_key_offset(seed, (DOMAIN_INTERVAL, lvl)) for lvl in levels]
    scales = [params.level_scale(lvl) for lvl in levels]
    for segments in _draw_chunks(first, last):
        _lvl, _k, at, count = segments[-1]
        n = at + count
        for lvl, k, at, count in segments:
            np.add(ramp[:count], np.uint64((offsets[lvl] + k) & _MASK64),
                   out=keys[at:at + count])
        u = _prf_uniform_inplace(keys[:n], z[:n].view(np.uint64))
        _laplace_inplace(u, z[:n], [(slice(at, at + count), scales[lvl])
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


def expiration_noise_range(params: MechanismParams, first: int, last: int,
                           seed: int) -> np.ndarray:
    """Total interval noise at release positions first..last (first >= 1;
    empty when last < first).  A range draws only the intervals that meet
    it: at most two per position plus two per level."""
    if first < 1:
        raise ValueError(f"first must be >= 1, got {first}")
    total = np.zeros(max(0, last - first + 1))
    _add_noise_totals(total, params, first, seed)
    return total


def expiration_noise_totals(params: MechanismParams, positions: int,
                            seed: int) -> np.ndarray:
    """Total interval noise at release positions 1..positions (index 0
    unused): expiration_noise_range over the whole stream."""
    if positions < 0:
        raise ValueError(f"positions must be >= 0, got {positions}")
    total = np.zeros(positions + 1)
    _add_noise_totals(total[1:], params, 1, seed)
    return total


def run_expiration(params: MechanismParams, xs: np.ndarray,
                   seed: int) -> np.ndarray:
    """Released values of ExpirationCounter over the whole stream xs."""
    T = len(xs)
    out = np.zeros(T)
    P = T - params.delay
    if P >= 1:
        noise = expiration_noise_totals(params, P, seed)
        released = out[params.delay:]
        np.cumsum(xs[:P], out=released)
        released += noise[1:]
    return out


def simple_noise_range(params: MechanismParams, first: int, last: int,
                       seed: int) -> np.ndarray:
    """SimpleCounter's draws (DOMAIN_STEP, s) for s = first..last."""
    u = prf_uniform_array(seed, (DOMAIN_STEP,),
                          np.arange(first, last + 1, dtype=np.uint64))
    return laplace_sample_array(1.0 / params.epsilon, u)


def run_simple(params: MechanismParams, xs: np.ndarray, seed: int) -> np.ndarray:
    """Released values of SimpleCounter over the whole stream xs."""
    T = len(xs)
    out = np.zeros(T)
    if T >= 2:
        out[1:] = np.cumsum(xs[:-1]) + simple_noise_range(params, 1, T - 1,
                                                          seed)
    return out


def expiration_max_and_mse_batch(params: MechanismParams, positions: int,
                                 seeds) -> tuple[np.ndarray, np.ndarray]:
    """Per-seed (max |noise|, mean noise^2) over release positions 1..positions.

    The workhorse of the error-agreement and lower-bound Monte Carlos: for a
    zero stream the released error at position p is exactly the interval
    noise total, so these statistics need no stream at all.
    """
    if positions < 1:
        raise ValueError(f"positions must be >= 1, got {positions}")
    seeds = [int(s) for s in seeds]
    maxes = np.empty(len(seeds))
    mses = np.empty(len(seeds))
    for i, s in enumerate(seeds):
        total = expiration_noise_totals(params, positions, s)[1:]
        np.abs(total, out=total)
        maxes[i] = total.max()
        total *= total
        mses[i] = np.mean(total)
    return maxes, mses
