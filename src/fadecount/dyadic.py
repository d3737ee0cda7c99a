"""Dyadic intervals on [1, oo) and the decomposition of a range into them.

Level-l intervals are [k*2^l, (k+1)*2^l - 1] for k >= 1; intervals that
would start at 0 are excluded, so level l tiles [2^l, oo).  A position t
therefore lies in exactly floor(log2 t) + 1 intervals, DyadicInterval(l,
t >> l) for each level l up to floor(log2 t).

The decomposition of an arbitrary range [a, b] into at most two intervals
per level is computed by the standard two-pointer walk (climb both ends one
level at a time, emitting a singleton whenever an end is not aligned).  All
floor-log arithmetic is integer bit twiddling; no floats anywhere.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .noise import _integer


class DyadicInterval(NamedTuple):
    """[index * 2**level, (index+1) * 2**level - 1], index >= 1.

    A tuple: `t in iv` tests (level, index), so test a position t as
    iv.start <= t <= iv.end.
    """

    level: int
    index: int

    @property
    def start(self) -> int:
        return self.index << self.level

    @property
    def end(self) -> int:
        return ((self.index + 1) << self.level) - 1


def floor_log2(n: int) -> int:
    return _integer("n", n, 1).bit_length() - 1


def decompose(a: int, b: int) -> list[DyadicInterval]:
    """Disjoint dyadic cover of [a, b], at most two intervals per level.

    Sorted by start position.  Max level never exceeds floor(log2(b-a+1)),
    and since ka >= 1 throughout, no interval starting at 0 can be emitted.
    a and b are read by noise._integer: integers with 1 <= a <= b.
    """
    a = _integer("a", a, 1)
    b = _integer("b", b, a)
    out = []
    ka, kb, lvl = a, b, 0
    while ka <= kb:
        if ka & 1:
            out.append(DyadicInterval(lvl, ka))
            ka += 1
        if not kb & 1:
            out.append(DyadicInterval(lvl, kb))
            kb -= 1
        ka >>= 1
        kb >>= 1
        lvl += 1
    out.sort(key=lambda iv: iv.start)
    return out


def decomposition_costs(length: int, start: int, stop: int,
                        weights) -> np.ndarray:
    """Weighted decomposition cost for every start position in [start, stop).

    Entry i is sum over intervals of decompose(start+i, start+i+length-1)
    of weights[level].  This is the closed form of the two-pointer walk: at
    level l the walk's left cursor sits at ceil(j / 2^l) and the right
    cursor at floor((j+length) / 2^l) - 1; a left interval is emitted iff
    the left cursor is odd, a right interval iff the right cursor is even,
    in both cases only while left <= right.  Costs are accumulated level by
    level, so memory stays one float row however many levels or positions
    are involved.
    """
    j = np.arange(start, stop, dtype=np.int64)
    cost = np.zeros(len(j))
    for lvl, w in enumerate(weights):
        ca = (j + ((1 << lvl) - 1)) >> lvl
        cb = ((j + length) >> lvl) - 1
        active = ca <= cb
        cnt = ((active & ((ca & 1) == 1)).astype(np.int64)
               + (active & ((cb & 1) == 0)))
        cost += w * cnt
    return cost
