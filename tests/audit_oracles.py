"""Brute-force oracles for the audit's closed forms.

The package computes worst-case losses with exact kernels (a carry DP over
the bits of the entry position for the expiration counter, per-side tree
maxima for the baseline).  The searches those kernels replaced live here,
unchanged, so the tests can hold the kernels to them; so do the DP's
first, scatter-based form, which reaches n far beyond any search, and the
baseline's (d, s) count search, which reaches windows beyond the loop.
"""

import numpy as np

from fadecount.dyadic import decomposition_costs, floor_log2
from fadecount.privacy_audit import _BLOCK, _POWERS_OF_TWO


def decomposition_level_counts(length: int, positions: np.ndarray,
                               num_levels: int) -> np.ndarray:
    """Per-level interval counts of decompose(j, j+length-1) for many j at once.

    Returns an array of shape (num_levels, len(positions)) whose [l, i] entry
    is how many level-l intervals the decomposition starting at positions[i]
    uses (0, 1, or 2), by the same two-pointer closed form as
    dyadic.decomposition_costs.
    """
    j = positions.astype(np.int64)
    counts = np.zeros((num_levels, len(j)), dtype=np.int64)
    for lvl in range(num_levels):
        ca = (j + ((1 << lvl) - 1)) >> lvl
        cb = ((j + length) >> lvl) - 1
        active = ca <= cb
        counts[lvl] = ((active & ((ca & 1) == 1)).astype(np.int64)
                       + (active & ((cb & 1) == 0)))
    return counts


def position_search_loss(d: int, params, positions: int) -> float:
    """eps * the largest decomposition cost over entry positions 1..positions.

    The cost of entry position j is the weighted cost of
    decompose(j, j+d-delay); 0 in the delay regime d < delay.
    """
    if d < params.delay:
        return 0.0
    n = d - params.delay + 1
    lam = params.level_exponent
    weights = [(1.0 + lvl) ** (lam - 1.0) for lvl in range(floor_log2(n) + 1)]
    best = 0.0
    chunk = 1 << 20
    for lo in range(1, positions + 1, chunk):
        hi = min(positions + 1, lo + chunk)
        best = max(best, float(decomposition_costs(n, lo, hi, weights).max()))
    return params.epsilon * best


def worst_position_search_bound(d: int, params) -> int:
    """Positions to search for the per-d worst case: 4 * 2^floor(log2 n).

    Decomposition structure is translation-periodic with period
    2^(floor(log2 n)+1) in the start position, so two full periods cover
    every pattern.
    """
    n = d - params.delay + 1
    return 4 << floor_log2(n)


def search_loss_expiration(d: int, params, t_max: int) -> float:
    """The position search: entry positions up to min(t_max, search bound)."""
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    if d < params.delay:
        return 0.0
    return position_search_loss(
        d, params, min(t_max, worst_position_search_bound(d, params)))


def search_loss_baseline(d: int, params, horizon: int):
    """The baseline's worst case by a loop over every round position s."""
    w = params.window
    k = params.tree_depth
    best = None
    for s in range(1, min(w, horizon) + 1):
        tree = 0
        for lvl in range(k):
            end = -(-s >> lvl) << lvl  # end of the level-lvl node holding s
            if end <= w and end <= s + d:
                tree += 1
        past = (s + d - 1) // w
        value = params.eps_cur * tree / k + params.eps_past * past
        if best is None or value > best:
            best = value
    return best


def scatter_decomposition_costs(n: np.ndarray, t_max: int,
                                level_exponent: float) -> np.ndarray:
    """The carry DP as first written: every candidate scattered into its
    target state by np.maximum.at.

    Same contract as privacy_audit._worst_decomposition_costs, which now
    makes each level's transitions directly; n must be below 2^62.
    """
    levels = np.searchsorted(_POWERS_OF_TWO, n, side="right")
    m = n + 1
    # t_max may exceed int64; only its low `levels` bits can matter
    cap = np.minimum(_POWERS_OF_TWO[levels], min(t_max, 1 << 62)) - 1
    columns = np.arange(n.size)
    # best[2*carry + fits]: best cost so far per state, -inf if unreachable;
    # before any bit the carry is 0 and the (empty) low bits fit
    best = np.full((4, n.size), -np.inf)
    best[1] = 0.0
    for lvl in range(int(levels.max())):
        weight = (1.0 + lvl) ** (level_exponent - 1.0)
        m_high = m >> lvl
        m_bit = m_high & 1
        cap_bit = (cap >> lvl) & 1
        nxt = np.full(4 * n.size, -np.inf)
        for carry in (0, 1):
            active = m_high + carry >= 2
            for u_bit in (0, 1):
                total = u_bit + m_bit + carry
                gain = weight * (active * ((u_bit == 0) + (total & 1)))
                for fits in (0, 1):
                    new_fits = np.where(u_bit == cap_bit, fits,
                                        u_bit < cap_bit)
                    state = 2 * (total >> 1) + new_fits
                    np.maximum.at(nxt, state * n.size + columns,
                                  best[2 * carry + fits] + gain)
        best = nxt.reshape(best.shape)
    return np.maximum(best[1], best[3])


def count_search_tree_maxima(params, d_values, horizon: int):
    """The baseline's tree maxima as first written: node counts of every
    (d, s) cell, in integer blocks of cells, maximized by a running max
    over s.

    Same contract as privacy_audit._baseline_tree_maxima, which now counts
    the levels in closed form from the prefix minima of the node slacks.
    """
    d = np.asarray(d_values, dtype=np.int64)
    if np.any(d < 0):
        raise ValueError(f"d must be nonnegative, got {int(d.min())}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    w = params.window
    width = min(w, horizon)
    s = np.arange(1, width + 1, dtype=np.int64)
    ends = np.array([-(-s >> lvl) << lvl for lvl in range(params.tree_depth)])
    split = w - d % w
    inside = (ends <= w).sum(axis=0)
    tree_next = np.where(split < width,
                         inside[np.minimum(split, width - 1)], -1)
    # a node counts from d = end - s on; one ending past the window never does
    slack = np.where(ends <= w, ends - s, np.iinfo(np.int64).max)
    rows, row_of = np.unique(np.minimum(d, w - 1), return_inverse=True)
    last = np.minimum(split, width) - 1
    tree_p = np.zeros(d.shape, dtype=np.int64)
    step = max(1, _BLOCK // width)
    for lo in range(0, rows.size, step):
        tree = (slack[:, None, :] <= rows[lo:lo + step, None]).sum(axis=0)
        head = np.maximum.accumulate(tree, axis=1)
        here = (row_of >= lo) & (row_of < lo + step)
        tree_p[here] = head[row_of[here] - lo, last[here]]
    return d // w, tree_p, tree_next
