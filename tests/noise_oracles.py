"""Reference implementation of the expiration counter's noise-total kernel.

The package adds each level's draws with one broadcast over a reshaped view
of the totals.  The boolean-mask gather it replaced lives here, unchanged,
so the tests can hold the kernel and the batch to it.
"""

import numpy as np

from fadecount.dyadic import floor_log2
from fadecount.mechanisms import DOMAIN_INTERVAL
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
