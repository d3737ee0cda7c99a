"""Reference implementations the package's noise paths replaced.

* ``gather_noise_totals``: the package adds each level's draws of the
  expiration kernel with one broadcast over a reshaped view of the totals;
  the boolean-mask gather it replaced lives here, unchanged.
* ``WalkBaselineCounter``: the package's baseline keeps one live tree node
  per level; the walk over the binary expansion of s with a per-round node
  cache that it replaced lives here, unchanged.

The tests hold the package's paths to these, bit for bit.
"""

import numpy as np

from fadecount.dyadic import floor_log2
from fadecount.mechanisms import (DOMAIN_INTERVAL, DOMAIN_PAST, DOMAIN_TREE,
                                  BaselineCounter, _check_input)
from fadecount.noise import laplace_sample_array, prf_uniform_array


def gather_noise_totals(params, positions: int, seed: int) -> np.ndarray:
    """Total interval noise at release positions 1..positions (index 0 unused).

    Position p takes level l's draw number p >> l, gathered through a
    per-position index array and a liveness mask.
    """
    total = np.zeros(positions + 1)
    if positions < 1:
        return total
    p = np.arange(positions + 1, dtype=np.int64)
    for lvl in range(floor_log2(positions) + 1):
        hi = positions >> lvl
        u = prf_uniform_array(seed, (DOMAIN_INTERVAL, lvl),
                              np.arange(hi + 1, dtype=np.uint64))
        z = laplace_sample_array(params.level_scale(lvl), u)
        idx = p >> lvl
        live = idx >= 1
        total[live] += z[idx[live]]
    total[0] = 0.0
    return total


class WalkBaselineCounter(BaselineCounter):
    """BaselineCounter with its earlier step: each round caches every tree
    node it draws, up to W of them, and each step walks the set bits of s
    from the round start, drawing a node the first time it is used."""

    def __init__(self, params, noise):
        super().__init__(params, noise)
        self._tree = {}            # (level, node index) -> noise value

    def step(self, x):
        x = _check_input(x)
        self._t += 1
        w = self.params.window
        r = (self._t + w - 1) // w
        s = self._t - (r - 1) * w
        if s == 1:
            self._tree.clear()
            self._round_sum = 0
            if r >= 2:
                z = self.noise.draw((DOMAIN_PAST, r), 1.0 / self.params.eps_past)
                self._past_estimate = self._total_prefix + z
        self._total_prefix = self._total_prefix + x
        self._round_sum = self._round_sum + x
        k = self.params.tree_depth
        scale = k / self.params.eps_cur
        out = (0 if r == 1 else self._past_estimate) + self._round_sum
        # walk the binary expansion of s, highest bit first
        start = 1
        for lvl in range(s.bit_length() - 1, -1, -1):
            if s >> lvl & 1:
                node = ((start - 1) >> lvl) + 1
                key = (lvl, node)
                if key not in self._tree:
                    self._tree[key] = self.noise.draw(
                        (DOMAIN_TREE, r, lvl, node), scale)
                out = out + self._tree[key]
                start += 1 << lvl
        return out
