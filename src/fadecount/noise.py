"""Laplace sampling, deterministic keyed noise, and a concentration bound.

Noise is never stored per draw: every value is a fixed pseudorandom function
of (seed, key), so a mechanism can lazily draw, discard, and later *replay*
any draw bit-for-bit.  This is what makes the coupling verifier in
:mod:`fadecount.privacy_audit` possible — it re-derives every noise value a
run consumed and re-executes the run with a handful of them shifted.

The generator is a splitmix64-style finalizer chained over the key parts.
It is statistically solid for noise generation but deliberately not
cryptographic (out of scope here).
"""

from __future__ import annotations

import functools
import math
import operator

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


def _mix64(h: int) -> int:
    """splitmix64 finalizer on a python int, masked to 64 bits."""
    h = (h + _GOLDEN) & _MASK64
    h = ((h ^ (h >> 30)) * _MIX_A) & _MASK64
    h = ((h ^ (h >> 27)) * _MIX_B) & _MASK64
    return h ^ (h >> 31)


def _check_seed(seed: int) -> int:
    """seed, checked to lie in [0, 2^64): the key folds add it mod 2^64, so
    any other seed would draw the noise of one inside (ValueError)."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    return seed


def prf_uniform(seed: int, parts) -> float:
    """Deterministic uniform in (0,1) for a (seed, parts) key.

    ``parts`` is a tuple of small nonnegative ints identifying the draw
    (domain tag, level, index, ...).  Chaining one finalizer round per part
    keeps distinct keys statistically independent.  A seed outside
    [0, 2^64) is a ValueError.
    """
    # _check_seed's test inline, as this runs once per scalar draw
    h = seed if 0 <= seed <= _MASK64 else _check_seed(seed)
    for p in parts:
        h = _mix64((h + p) & _MASK64)
    return ((h >> 12) + 0.5) * _INV_2_52


def _prf_key_offset(seed: int, prefix) -> int:
    """What the array lane adds to a draw index to get its finalizer input.

    The fold over ``prefix`` is prf_uniform's, in scalar space.  Addition
    mod 2^64 is associative, so the state it leaves and the finalizer's
    golden-ratio increment fold into this one offset.
    """
    h = _check_seed(seed)
    for p in prefix:
        h = _mix64((h + p) & _MASK64)
    return (h + _GOLDEN) & _MASK64


def _prf_uniform_inplace(h: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Finish the PRF in place on uint64 keys (index + key offset).

    Runs the rest of the splitmix64 finalizer, then turns the top 52 bits m
    into the double (m + 0.5) * 2^-52.  `scratch` is a uint64 array of h's
    shape; it is overwritten.  Returns h viewed as float64.
    """
    for shift, mult in ((30, _MIX_A), (27, _MIX_B)):
        np.right_shift(h, np.uint64(shift), out=scratch)
        h ^= scratch
        h *= np.uint64(mult)
    np.right_shift(h, np.uint64(31), out=scratch)
    h ^= scratch
    h >>= np.uint64(12)
    h |= _ONE_BITS
    u = h.view(np.float64)
    u -= _ONE_MINUS_HALF_STEP
    return u


def prf_uniform_array(seed: int, prefix, indices: np.ndarray) -> np.ndarray:
    """Vector lane of :func:`prf_uniform`: one uniform per entry of `indices`.

    Bit-identical to the scalar path for every element; the fold over
    ``prefix`` happens in scalar space, the final round is vectorized with
    in-place ufuncs.  `indices` is left unchanged.
    """
    h = indices.astype(np.uint64)
    h += np.uint64(_prf_key_offset(seed, prefix))
    return _prf_uniform_inplace(h, np.empty_like(h))


def laplace_sample(scale: float, uniform: float) -> float:
    """Inverse-CDF transform of a uniform into Lap(scale) centered at 0.

    x = -b * sgn(u - 1/2) * ln(1 - 2|u - 1/2|).  Exact at the median
    (u=1/2 -> 0) and symmetric by construction.
    """
    if not 0.0 < uniform < 1.0:
        raise ValueError(f"uniform must lie strictly in (0,1), got {uniform}")
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
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
    ``log1p(-2|c|)``, c = u - 1/2, the scalar path's operation order.  `u`
    is overwritten.
    """
    u -= 0.5
    np.sign(u, out=out)
    for index, scale in scales:
        out[index] *= -scale
    np.abs(u, out=u)
    u *= -2.0
    np.log1p(u, out=u)
    out *= u


def laplace_sample_array(scale: float, uniforms: np.ndarray) -> np.ndarray:
    """Vectorized inverse-CDF Laplace; matches laplace_sample elementwise.

    Computes ``-scale * sgn(c) * log1p(-2|c|)`` with c = u - 1/2, in that
    order, with in-place ufuncs.  `uniforms` is left unchanged.
    """
    u = np.array(uniforms, dtype=np.float64)
    out = np.empty_like(u)
    _laplace_inplace(u, out, ((..., scale),))
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
    so the max is used exactly.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0,1), got {beta}")
    bs = list(scales)
    if not bs:
        raise ValueError("scales must be nonempty")
    if any(b <= 0 for b in bs):
        raise ValueError("all scales must be positive")
    log_term = math.log(2.0 / beta)
    nu = max(math.sqrt(plain_sum(b * b for b in bs)),
             max(bs) * math.sqrt(log_term))
    return nu * math.sqrt(8.0 * log_term)
