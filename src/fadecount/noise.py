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

import math

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


def _mix64(h: int) -> int:
    """splitmix64 finalizer on a python int, masked to 64 bits."""
    h = (h + _GOLDEN) & _MASK64
    h = ((h ^ (h >> 30)) * _MIX_A) & _MASK64
    h = ((h ^ (h >> 27)) * _MIX_B) & _MASK64
    return h ^ (h >> 31)


def prf_uniform(seed: int, parts) -> float:
    """Deterministic uniform in (0,1) for a (seed, parts) key.

    ``parts`` is a tuple of small nonnegative ints identifying the draw
    (domain tag, level, index, ...).  Chaining one finalizer round per part
    keeps distinct keys statistically independent.
    """
    h = seed & _MASK64
    for p in parts:
        h = _mix64((h + p) & _MASK64)
    return ((h >> 12) + 0.5) * _INV_2_52


def prf_uniform_array(seed: int, prefix, indices: np.ndarray) -> np.ndarray:
    """Vector lane of :func:`prf_uniform`: one uniform per entry of `indices`.

    Bit-identical to the scalar path for every element; the fold over
    ``prefix`` happens in scalar space, the final round is vectorized with
    in-place ufuncs.  `indices` is left unchanged.
    """
    h0 = seed & _MASK64
    for p in prefix:
        h0 = _mix64((h0 + p) & _MASK64)
    h = indices.astype(np.uint64)
    # addition mod 2^64 is associative, so both offsets fold into one add
    h += np.uint64((h0 + _GOLDEN) & _MASK64)
    out = np.empty(h.shape)
    shifted = out.view(np.uint64)   # scratch until out is written
    for shift, mult in ((30, _MIX_A), (27, _MIX_B)):
        np.right_shift(h, np.uint64(shift), out=shifted)
        h ^= shifted
        h *= np.uint64(mult)
    np.right_shift(h, np.uint64(31), out=shifted)
    h ^= shifted
    h >>= np.uint64(12)
    np.add(h, 0.5, out=out)
    out *= _INV_2_52
    return out


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


def laplace_sample_array(scale: float, uniforms: np.ndarray) -> np.ndarray:
    """Vectorized inverse-CDF Laplace; matches laplace_sample elementwise.

    Computes ``-scale * sgn(c) * log1p(-2|c|)`` with c = u - 1/2, in that
    order, with in-place ufuncs.  `uniforms` is left unchanged.
    """
    c = uniforms - 0.5
    out = np.sign(c)
    out *= -scale
    np.abs(c, out=c)
    c *= -2.0
    np.log1p(c, out=c)
    out *= c
    return out


def keyed_noise(seed: int, parts, scale: float) -> float:
    """The Lap(scale) value attached to key (seed, parts); same key, same value."""
    return laplace_sample(scale, prf_uniform(seed, parts))


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
    nu = max(math.sqrt(sum(b * b for b in bs)), max(bs) * math.sqrt(log_term))
    return nu * math.sqrt(8.0 * log_term)
