"""Output checks against oracles that do not share the code under test.

Every check returns ``Check(name, ok, detail)``; the launcher counts the
failed ones into the run's ``failed`` total.  Release oracles rebuild the
released values from the noise key scheme and the input stream, not from a
counter's state machine; the audit oracle takes the worst case by brute force
over entry positions, far beyond the periodicity bound the audit relies on.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from fadecount import dyadic, mechanisms, noise
from fadecount.privacy_audit import published_loss_bound

# Summation order differs between the paths compared here, so releases are
# compared to within RELEASE_RTOL * max(1, |oracle|), far below one noise
# scale and far above float rounding over these stream lengths.
RELEASE_RTOL = 1e-9
# audit values are sums of at most 2 * 64 level weights
LOSS_RTOL = 1e-9
# brute-force search range for the worst entry position of a loss-curve point
BRUTE_FORCE_POSITIONS = 1 << 14


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def _close(got, want, rtol) -> tuple[bool, str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False, f"shape {got.shape} != {want.shape}"
    err = np.abs(got - want)
    bad = err > rtol * np.maximum(1.0, np.abs(want))
    if bad.any():
        i = int(np.argmax(bad))
        return False, (f"{int(bad.sum())} of {bad.size} differ, first at "
                       f"index {i}: {got.flat[i]!r} vs {want.flat[i]!r}")
    return True, f"max |diff| {float(err.max()) if err.size else 0.0:.3g}"


def read_csv(path, columns) -> np.ndarray:
    """The numeric columns of a CSV with one header line, as a 2-d array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=columns,
                      ndmin=2)


# ---------------------------------------------------------------------------
# release oracles


def expiration_releases(params, xs, seed) -> np.ndarray:
    """Releases of the expiration counter: 0 in the delay, then the delayed
    prefix plus the interval-noise total of the release position."""
    xs = np.asarray(xs, dtype=float)
    out = np.zeros(len(xs))
    released = len(xs) - params.delay
    if released >= 1:
        total = mechanisms.expiration_noise_totals(params, released, seed)
        out[params.delay:] = np.cumsum(xs[:released]) + total[1:]
    return out


def baseline_releases(window, eps_cur, eps_past, xs, seed) -> np.ndarray:
    """Releases of the baseline counter, rebuilt from its noise keys.

    Output t in round r at in-round position s is the true prefix through t,
    plus the round's past draw when r >= 2, plus one tree draw per set bit
    l of s, at node 2 * (s >> (l+1)) + 1 of level l.
    """
    xs = np.asarray(xs, dtype=float)
    t = np.arange(1, len(xs) + 1)
    r = (t - 1) // window + 1
    s = t - (r - 1) * window
    depth = window.bit_length()           # ceil(log2(window + 1))
    out = np.cumsum(xs)
    rounds = int(r[-1])
    past = noise.laplace_sample_array(
        1.0 / eps_past,
        noise.prf_uniform_array(seed, (mechanisms.DOMAIN_PAST,),
                                np.arange(rounds + 1, dtype=np.uint64)))
    out += np.where(r >= 2, past[r], 0.0)
    for rnd in range(1, rounds + 1):
        sel = np.flatnonzero(r == rnd)
        pos = s[sel]
        for lvl in range(depth):
            node = (pos >> (lvl + 1)) * 2 + 1
            z = noise.laplace_sample_array(
                depth / eps_cur,
                noise.prf_uniform_array(
                    seed, (mechanisms.DOMAIN_TREE, rnd, lvl),
                    np.arange(int(node.max()) + 1, dtype=np.uint64)))
            out[sel] += np.where((pos >> lvl) & 1 == 1, z[node], 0.0)
    return out


def check_release_table(name, table, xs, oracle) -> list[Check]:
    """A `fadecount run` CSV (t, true_sum, released, abs_error) against the
    stream it was given and the releases an oracle predicts."""
    xs = np.asarray(xs, dtype=float)
    rows_ok = table.shape == (len(xs), 4) and np.array_equal(
        table[:, 0], np.arange(1, len(xs) + 1))
    rows = Check(f"{name}.rows", bool(rows_ok),
                 f"shape {table.shape}, expected ({len(xs)}, 4)")
    if not rows_ok:
        return [rows] + [Check(f"{name}.{c}", False, "wrong rows")
                         for c in ("true_sum", "abs_error", "released")]
    true_sum = table[:, 1]
    released = table[:, 2]
    sums_ok = np.array_equal(true_sum, np.cumsum(xs))
    err_ok = np.array_equal(table[:, 3], np.abs(released - true_sum))
    return [rows,
            Check(f"{name}.true_sum", bool(sums_ok), "exact cumulative sum"),
            Check(f"{name}.abs_error", bool(err_ok), "exact |released - true_sum|"),
            Check(f"{name}.released", *_close(released, oracle, RELEASE_RTOL))]


def check_releases(name, released, oracle) -> Check:
    return Check(name, *_close(released, oracle, RELEASE_RTOL))


def scalar_vector_mismatches(released, vectorized) -> tuple[int, float]:
    """How many releases differ between two paths, and by how much at most."""
    diff = np.abs(np.asarray(released) - np.asarray(vectorized))
    return int(np.count_nonzero(diff)), float(diff.max()) if diff.size else 0.0


# ---------------------------------------------------------------------------
# audit oracles


def brute_force_loss(d, params, positions=BRUTE_FORCE_POSITIONS) -> float:
    """Worst-case expiration loss at elapsed time d, by trying every entry
    position j <= positions: max over j of eps * sum over the intervals of
    decompose(j, j+n-1) of (1+level)^(exponent-1), n = d - delay + 1."""
    if d < params.delay:
        return 0.0
    n = d - params.delay + 1
    lam = params.level_exponent
    weight = [(1.0 + lvl) ** (lam - 1.0) for lvl in range(64)]
    best = max(sum(weight[iv.level] for iv in dyadic.decompose(j, j + n - 1))
               for j in range(1, positions + 1))
    return params.epsilon * best


def check_running_max(name, loss, envelope) -> Check:
    ok = np.array_equal(envelope, np.maximum.accumulate(loss))
    return Check(name, bool(ok), "envelope is the running max of the losses")


def check_expiration_curve(name, table, d_max, params, sample_d) -> list[Check]:
    """An expiration `fadecount audit` CSV (d, loss, envelope, theoretical)."""
    rows_ok = table.shape == (d_max + 1, 4) and np.array_equal(
        table[:, 0], np.arange(d_max + 1))
    rows = Check(f"{name}.rows", bool(rows_ok),
                 f"shape {table.shape}, expected ({d_max + 1}, 4)")
    if not rows_ok:
        return [rows] + [Check(f"{name}.{c}", False, "wrong rows")
                         for c in ("envelope", "brute_force", "theoretical",
                                   "under_bound")]
    d = [int(v) for v in sample_d]
    loss, env, theo = table[:, 1], table[:, 2], table[:, 3]
    brute = [brute_force_loss(v, params) for v in d]
    bound = [published_loss_bound(v, params) for v in d]
    under = env <= theo * (1.0 + LOSS_RTOL)
    return [rows,
            check_running_max(f"{name}.envelope", loss, env),
            Check(f"{name}.brute_force", *_close(loss[d], brute, LOSS_RTOL)),
            Check(f"{name}.theoretical", *_close(theo[d], bound, LOSS_RTOL)),
            Check(f"{name}.under_bound", bool(under.all()),
                  f"{int((~under).sum())} points above published_loss_bound")]


def check_baseline_curve(name, table, d_max, window, eps_past,
                         sample_d) -> list[Check]:
    """A baseline `fadecount audit` CSV (d, loss, envelope).

    Once d >= window every tree node of the input's round has been released,
    so each further window adds exactly one past release: loss(d + window)
    = loss(d) + eps_past.
    """
    rows_ok = table.shape == (d_max + 1, 3) and np.array_equal(
        table[:, 0], np.arange(d_max + 1))
    rows = Check(f"{name}.rows", bool(rows_ok),
                 f"shape {table.shape}, expected ({d_max + 1}, 3)")
    if not rows_ok:
        return [rows] + [Check(f"{name}.{c}", False, "wrong rows")
                         for c in ("envelope", "past_increment")]
    d = np.asarray(sample_d, dtype=int)
    loss = table[:, 1]
    step = loss[d + window] - loss[d]
    return [rows,
            check_running_max(f"{name}.envelope", loss, table[:, 2]),
            Check(f"{name}.past_increment",
                  *_close(step, np.full(len(d), eps_past), LOSS_RTOL))]


def check_figure_series(name, table, d_max, params=None) -> list[Check]:
    """One `fadecount figures` series (d, envelope): a dense grid up to 128,
    then strictly increasing to d_max; a nondecreasing envelope; and, for an
    expiration series (params given), no point above published_loss_bound."""
    d = table[:, 0].astype(int)
    grid_ok = (len(d) > 129 and np.array_equal(d[:129], np.arange(129))
               and bool(np.all(np.diff(d) > 0)) and d[-1] == d_max)
    out = [Check(f"{name}.grid", bool(grid_ok), f"{len(d)} points to {d[-1]}"),
           Check(f"{name}.nondecreasing",
                 bool(np.all(np.diff(table[:, 1]) >= 0)), "envelope")]
    if params is not None:
        bound = np.array([published_loss_bound(int(v), params) for v in d])
        under = table[:, 1] <= bound * (1.0 + LOSS_RTOL)
        out.append(Check(f"{name}.under_bound", bool(under.all()),
                         f"{int((~under).sum())} points above the bound"))
    return out


# ---------------------------------------------------------------------------
# Monte Carlo oracles


def check_batch(name, params, positions, seeds, maxes, mses, sample,
                analytic_mse) -> list[Check]:
    """Batch statistics against single-seed recomputation and the analytic MSE.

    For each sampled seed index, max |noise| and mean noise^2 over positions
    1..positions are recomputed from expiration_noise_totals.  The mean of
    the per-seed MSEs must lie within 4 standard errors of the analytic MSE.
    """
    got, want = [], []
    for i in sample:
        total = mechanisms.expiration_noise_totals(params, positions,
                                                   int(seeds[i]))[1:]
        got += [maxes[i], mses[i]]
        want += [float(np.abs(total).max()), float(np.mean(total * total))]
    mses = np.asarray(mses, dtype=float)
    mean = float(mses.mean())
    se = float(mses.std(ddof=1)) / math.sqrt(len(mses))
    z = abs(mean - analytic_mse) / se if se > 0 else math.inf
    return [Check(f"{name}.recomputed", *_close(got, want, LOSS_RTOL)),
            Check(f"{name}.mse_vs_analytic", z <= 4.0,
                  f"mean {mean:.6g} vs analytic {analytic_mse:.6g}: "
                  f"{z:.2f} standard errors")]
