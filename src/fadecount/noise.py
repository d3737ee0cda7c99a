"""Laplace sampling, deterministic keyed noise, and a concentration bound.

Noise is never stored per draw: every value is a fixed pseudorandom function
of (seed, key), so a mechanism can lazily draw, discard, and later *replay*
any draw bit-for-bit.  This is what makes the coupling verifier in
:mod:`fadecount.privacy_audit` possible — it re-derives every noise value a
run consumed and re-executes the run with a handful of them shifted.

The generator is a splitmix64-style finalizer chained over the key parts.
It is statistically solid for noise generation but deliberately not
cryptographic (out of scope here).

Only this module knows how a key becomes a draw.  The scalar lane is
keyed_noise.  The array lane, which every numpy kernel and runner draws
through, has two private entries: _key_offsets folds a key prefix, then
any uint64 array parts elementwise, into the offsets a draw index is added
to, and _keyed_laplace_into turns those keys into Laplace draws in place,
with a scale per slice.  prf_uniform_array and laplace_sample_array are the
same lane in two public steps.  Every lane gives a key the same value, bit
for bit.

Two readers take every scalar parameter of the package, whatever its
type, and name the parameter in the ValueError for a value they reject.
_integer reads an integral one (a seed, a delay, a window, a horizon, ...)
and rejects a value that is no integer or is too small; grids of d are
read by privacy_audit._grid, by the same rule.  _real reads a real one (a
budget, a level exponent, a scale, a target MSE, ...) and every stream
value a counter, a runner or the coupling verifier takes: numpy bools,
integers and floats become Python numbers, and ints, floats and Fractions
pass unchanged.  It rejects any other type, a value that is not finite (a NaN,
an infinity, or one past the float range) and a value outside the
parameter's range.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1E3524B5
_MIX_B = 0x94D049BB133111EB

# one double in (0, 1) per 52-bit chunk, offset by half a step so 0 and 1
# are unreachable and the inverse CDF below never sees a log of 0.  52 bits
# rather than 53: (2^52 - 0.5) is exactly representable, so the top value
# stays strictly below 1, whereas ((2^53 - 1) + 0.5) rounds up to 2^53 and
# the uniform would hit exactly 1.0 about once per 2^53 draws
_INV_2_52 = 1.0 / (1 << 52)
# the array lane builds (m + 0.5) * 2^-52 without an int -> float conversion:
# OR-ing the exponent bits of 1.0 onto m gives the double 1 + m * 2^-52, and
# subtracting 1 - 2^-53 from it is exact (Sterbenz: both lie within a factor
# of 2), leaving exactly (m + 0.5) * 2^-52
_ONE_BITS = np.uint64(0x3FF0000000000000)
_ONE_MINUS_HALF_STEP = 1.0 - 0.5 * _INV_2_52
# the largest float, as an int: a float, an int and a Fraction each compare
# with it exactly, and a Fraction faster than with the float
_FLOAT_MAX = int(np.finfo(np.float64).max)


def _mix64(h: int) -> int:
    """splitmix64 finalizer on a python int, masked to 64 bits."""
    h = (h + _GOLDEN) & _MASK64
    h = ((h ^ (h >> 30)) * _MIX_A) & _MASK64
    h = ((h ^ (h >> 27)) * _MIX_B) & _MASK64
    return h ^ (h >> 31)


# how _integer's message names the integers at or above its low bound
_KINDS = {None: "an integer", 0: "a nonnegative integer",
          1: "a positive integer"}


def _integer(name: str, value, low=0) -> int:
    """value as a Python int, read by value: an int, a bool, a numpy integer
    or an integral float such as 2.0.  Anything else (2.5, NaN, infinity, a
    string), or an integer below `low` (None: no bound), is a ValueError
    that names the parameter."""
    if (isinstance(value, (int, np.integer)) or isinstance(
            value, (float, np.floating)) and value.is_integer()) and (
            low is None or int(value) >= low):
        return int(value)
    raise ValueError(f"{name} must be "
                     f"{_KINDS.get(low, f'an integer >= {low}')}, got {value!r}")


# _real's kinds, each with the test a value of that kind passes
_RANGES = {"positive": lambda v: v > 0, "in (0, 1)": lambda v: 0 < v < 1,
           "nonnegative": lambda v: v >= 0, "in [0, 1]": lambda v: 0 <= v <= 1,
           "in [-1, 1]": lambda v: -1 <= v <= 1}


def _real(name: str, value, kind: str = "positive"):
    """value as a Python number: a numpy bool, integer or float becomes its
    Python value, exactly (a long double, which has none, stays), and an
    int, a float or a Fraction passes unchanged (a bool is an int).
    Anything else (a string, None, a complex number, a numpy timedelta, a
    long double), a NaN, an infinity, a value past the float range, which
    float math cannot take, or a value outside `kind`, a key of _RANGES, is
    a ValueError that names the parameter."""
    if isinstance(value, np.generic) and value.dtype.kind in "biuf":
        value = value.item()
    if not isinstance(value, (int, float, Fraction)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not abs(value) <= _FLOAT_MAX:    # NaN fails too
        raise ValueError(f"{name} must be finite, got {value!r}")
    if not _RANGES[kind](value):
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return value


def _check_seed(seed) -> int:
    """seed as a Python int, read by _integer and checked to lie in
    [0, 2^64): the key folds add it mod 2^64, so any other seed would draw
    the noise of one inside (ValueError)."""
    seed = _integer("seed", seed, None)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    return seed


def prf_uniform(seed: int, parts) -> float:
    """Deterministic uniform in (0,1) for a (seed, parts) key.

    ``parts`` is a tuple of small nonnegative ints identifying the draw
    (domain tag, level, index, ...).  Chaining one finalizer round per part
    keeps distinct keys statistically independent.  The seed is read by
    _check_seed: any integral value in [0, 2^64), and anything else is a
    ValueError.
    """
    # a Python int in [0, 2^64) (no bits above 63) skips _check_seed, as
    # this runs once per draw
    h = seed if type(seed) is int and seed >> 64 == 0 else _check_seed(seed)
    for p in parts:
        h = _mix64((h + p) & _MASK64)
    return ((h >> 12) + 0.5) * _INV_2_52


def _mix64_inplace(h: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """_mix64 after its golden-ratio increment, in place on uint64 h.
    `scratch` is a uint64 array of h's shape; it is overwritten.  Returns
    h."""
    for shift, mult in ((30, _MIX_A), (27, _MIX_B)):
        np.right_shift(h, np.uint64(shift), out=scratch)
        h ^= scratch
        h *= np.uint64(mult)
    np.right_shift(h, np.uint64(31), out=scratch)
    h ^= scratch
    return h


def _key_offsets(seed: int, prefix, *parts):
    """What the array lane adds to a draw index to get its finalizer input.

    The fold over ``prefix`` is prf_uniform's, in scalar space.  Each of
    ``parts``, a uint64 array, then extends the key elementwise, with
    broadcasting: the result holds the offset of prefix + (p1, p2, ...) for
    each combination of the parts' elements.  Addition mod 2^64 is
    associative, so the state a fold leaves and the finalizer's golden-ratio
    increment fold into one offset.  Returns a Python int without parts,
    else a uint64 array of the parts' broadcast shape.
    """
    h = _check_seed(seed)
    for p in prefix:
        h = _mix64((h + p) & _MASK64)
    h = (h + _GOLDEN) & _MASK64
    for p in parts:
        h = p + h
        _mix64_inplace(h, np.empty_like(h))
        h += np.uint64(_GOLDEN)
    return h


def _prf_uniform_inplace(h: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Finish the PRF in place on uint64 keys (index + key offset).

    Runs the rest of the splitmix64 finalizer, then turns the top 52 bits m
    into the double (m + 0.5) * 2^-52.  `scratch` is a uint64 array of h's
    shape; it is overwritten.  Returns h viewed as float64.
    """
    _mix64_inplace(h, scratch)
    h >>= np.uint64(12)
    h |= _ONE_BITS
    u = h.view(np.float64)
    u -= _ONE_MINUS_HALF_STEP
    return u


def prf_uniform_array(seed: int, prefix, indices: np.ndarray) -> np.ndarray:
    """Vector lane of :func:`prf_uniform`: one uniform per entry of `indices`.

    Bit-identical to the scalar path for every element; the fold over
    ``prefix`` happens in scalar space, the final round is vectorized with
    in-place ufuncs.  `indices` is left unchanged.  Indices that are not
    integers are a ValueError (the scalar path's sum raises); a negative
    signed index wraps mod 2^64, as in the scalar path.
    """
    if indices.dtype.kind not in "biu":
        raise ValueError(f"indices must be integers, got {indices.dtype}")
    h = indices.astype(np.uint64) + _key_offsets(seed, prefix)
    return _prf_uniform_inplace(h, np.empty_like(h))


def laplace_sample(scale: float, uniform: float) -> float:
    """Inverse-CDF transform of a uniform into Lap(scale) centered at 0.

    x = -b * sgn(u - 1/2) * ln(1 - 2|u - 1/2|).  Exact at the median
    (u=1/2 -> 0) and symmetric by construction.  Both are read by _real:
    the uniform must lie in (0, 1) and the scale be positive.
    """
    # a valid Python float skips _real, as this runs once per draw
    if not (type(uniform) is float and 0.0 < uniform < 1.0):
        uniform = _real("uniform", uniform, "in (0, 1)")
    if not (type(scale) is float and 0.0 < scale < math.inf):
        scale = _real("scale", scale)
    c = uniform - 0.5
    if c == 0.0:
        return 0.0
    sgn = 1.0 if c > 0 else -1.0
    # np.log1p rather than math.log1p so the scalar path is bit-identical
    # to laplace_sample_array (the libm wrappers round differently by 1 ulp)
    return -scale * sgn * float(np.log1p(-2.0 * abs(c)))


def _laplace_inplace(u: np.ndarray, out: np.ndarray, scales) -> None:
    """Inverse-CDF Laplace of the uniforms `u` into `out`, per slice.

    ``scales`` lists (index, scale) pairs covering `out`; each slice of
    ``sgn(c)`` is multiplied by its own ``-scale`` before the product with
    ``log1p(-2|c|)``, c = u - 1/2, the scalar path's operation order.  A
    scale is taken as a float, as laplace_sample's product takes a Fraction
    scale.  `u` is overwritten.
    """
    u -= 0.5
    np.sign(u, out=out)
    for index, scale in scales:
        out[index] *= -float(scale)
    np.abs(u, out=u)
    u *= -2.0
    np.log1p(u, out=u)
    out *= u


def laplace_sample_array(scale: float, uniforms: np.ndarray) -> np.ndarray:
    """Vectorized inverse-CDF Laplace; matches laplace_sample elementwise.

    Computes ``-scale * sgn(c) * log1p(-2|c|)`` with c = u - 1/2, in that
    order, with in-place ufuncs.  `uniforms` is left unchanged.  A scale
    or a uniform laplace_sample rejects is a ValueError here too: it is
    applied to the smallest and the largest uniform (NaN being either).
    """
    u = np.array(uniforms, dtype=np.float64)
    for end in (np.min, np.max):
        laplace_sample(scale, float(end(u, initial=0.5)))
    out = np.empty_like(u)
    _laplace_inplace(u, out, ((..., scale),))
    return out


def _keyed_laplace_into(keys: np.ndarray, out: np.ndarray,
                        scales) -> np.ndarray:
    """The Laplace draws of uint64 keys (index + key offset) into `out`,
    each keyed_noise's for its key.

    ``scales`` lists (index, scale) pairs covering `out`, as for
    _laplace_inplace.  `out` is a float64 array of keys' shape and is also
    the PRF's scratch; `keys` is overwritten.  Returns out.
    """
    _laplace_inplace(_prf_uniform_inplace(keys, out.view(np.uint64)), out,
                     scales)
    return out


def keyed_noise(seed: int, parts, scale: float) -> float:
    """The Lap(scale) value attached to key (seed, parts); same key, same value."""
    return laplace_sample(scale, prf_uniform(seed, parts))


def plain_sum(values):
    """values added left to right from 0: builtin sum() compensates float
    rounding from Python 3.12 on, so its totals depend on the version."""
    return functools.reduce(operator.add, values, 0)


def concentration_threshold(scales, beta: float) -> float:
    """High-probability bound on |sum of independent centered Laplace draws|.

    For Y_i ~ Lap(b_i), returns nu * sqrt(8 ln(2/beta)) with
    nu = max( sqrt(sum b_i^2), max_i b_i * sqrt(ln(2/beta)) ),
    so that Pr[ |sum Y_i| > threshold ] <= beta.

    The strictness of nu's inequality in the underlying concentration
    argument does not matter at the boundary (continuity, measure zero),
    so the max is used exactly.  beta, in (0, 1), and each scale, positive,
    are read by _real, and each scale is taken as the float the formula
    works in; no scale at all is a ValueError too.
    """
    beta = _real("beta", beta, "in (0, 1)")
    bs = [float(_real("scale", b)) for b in scales]
    if not bs:
        raise ValueError("scales must be nonempty")
    log_term = math.log(2.0 / beta)
    nu = max(math.sqrt(plain_sum(b * b for b in bs)),
             max(bs) * math.sqrt(log_term))
    return nu * math.sqrt(8.0 * log_term)
