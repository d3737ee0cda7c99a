"""Command-line front end: run counters, audit loss curves, calibrate, batch-reproduce figures.

Four subcommands:

* ``run``       — stream a mechanism over a file or synthetic generator,
                  emitting ``t,true_sum,released,abs_error`` rows.
* ``audit``     — emit a worst-case privacy-loss curve
                  (``d,loss_empirical,loss_envelope,loss_theoretical``).
* ``calibrate`` — print privacy parameters hitting a target MSE.
* ``figures``   — write the CSV bundle behind one of the reference plots
                  (ids 2a, 2b, 3, 4, 5a, 5b).

Exit codes: 0 success, 1 bad input data, 2 usage errors, reported on
stderr and never as a traceback.  An output that cannot be opened, written or closed
is a usage error on every subcommand, ``figures`` series files included;
the files written before it stay.  ``audit``, ``calibrate`` and
``figures`` are fully deterministic (no seed involved); ``run`` is
deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import itertools
import os
import re
import sys

import numpy as np

from .calibration import calibrate_baseline, calibrate_epsilon, optimal_ratio
from .mechanisms import (BaselineParams, ExpirationCounter, MechanismParams,
                         SimpleCounter, baseline_releases, lagged_releases,
                         running_sums)
from .privacy_audit import (baseline_loss_curve, empirical_loss_curve,
                            published_loss_bounds, simple_loss_curve)
# bench/spans.py traces published_loss_bound under this module's name
from .privacy_audit import published_loss_bound  # noqa: F401

# the series of each reference figure, by the flags calibrate would take
# for it (each calibrated to MSE 1000); a series' file is tagged by its flags
_LAMBDAS = [{"level_exponent": lam} for lam in (1.0, 2.0, 3.0)]
_FIGURES = {
    "2a": [{"level_exponent": 2.0}],
    "2b": _LAMBDAS,
    "3": [{"window": w} for w in (31, 63, 127)],
    "4": _LAMBDAS + [{"window": w} for w in (127, 1023)],
    "5a": [{"window": w, "optimal_ratio": True} for w in (31, 63, 127)],
    "5b": _LAMBDAS + [{"window": w, "optimal_ratio": True}
                      for w in (127, 1023)],
}
_TAGS = {"level_exponent": "lambda{:g}", "window": "window{}",
         "optimal_ratio": "_optratio"}


class _InputError(Exception):
    """Bad stream data (exit code 1), as opposed to bad usage (exit code 2)."""


class _UsageError(Exception):
    """Bad usage (exit code 2), as a ValueError or OverflowError of a
    rejected argument is too."""


# parse_args writes into a fresh namespace and leaves the parser as it was,
# so one parser serves every main() call of a process
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fadecount",
        description="Differentially private continual counting with "
                    "gradually expiring privacy.")
    sub = parser.add_subparsers(dest="command", required=True)

    # calibrate has no --mechanism: --window picks the baseline
    def mechanism_flags(p, choices=None, ratio=True):
        if choices:
            p.add_argument("--mechanism", choices=choices,
                           default="expiration")
            p.add_argument("--epsilon", type=float)
        p.add_argument("--lambda", dest="level_exponent", type=float,
                       help="level-budget exponent (default 1)")
        p.add_argument("--delay", type=int, help="release delay (default 0)")
        p.add_argument("--window", type=int)
        if choices:
            p.add_argument("--eps-cur", type=float)
            p.add_argument("--eps-past", type=float)
        if ratio:
            p.add_argument("--ratio", type=float, help="eps_past/eps_cur when "
                           "calibrating the baseline (default 0.1)")

    p_run = sub.add_parser("run", help="stream a mechanism, write CSV releases")
    mechanism_flags(p_run, MECHANISMS, ratio=False)
    p_run.add_argument("--t-max", type=int,
                       help="steps to run (required with --generator; with "
                            "--input, truncates the stream)")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--input", help="file with one value in [0,1] per "
                                       "line; blank lines are skipped")
    p_run.add_argument("--generator",
                       help="synthetic stream: zeros | ones | bernoulli(p)")
    p_run.add_argument("--output", required=True)

    p_audit = sub.add_parser("audit", help="emit worst-case privacy-loss curve")
    mechanism_flags(p_audit, MECHANISMS)
    p_audit.add_argument("--mse", type=float,
                         help="calibrate parameters to this MSE first")
    p_audit.add_argument("--d-max", type=int, required=True)
    p_audit.add_argument("--t-max", type=int,
                         help="stream length: inputs enter at positions "
                              "1..t_max; also the calibration length "
                              "(default d_max+1)")
    p_audit.add_argument("--output", required=True)

    p_cal = sub.add_parser("calibrate", help="print parameters hitting an MSE")
    mechanism_flags(p_cal)
    p_cal.add_argument("--optimal-ratio", action="store_true",
                       help="use the loss-minimizing baseline ratio "
                            "(closed form)")
    p_cal.add_argument("--mse", type=float, required=True)
    p_cal.add_argument("--t-max", type=int, required=True)

    p_fig = sub.add_parser("figures", help="reproduce a reference figure as CSV")
    p_fig.add_argument("figure", choices=_FIGURES)
    p_fig.add_argument("--output", default="figures",
                       help="directory for the CSV bundle")
    p_fig.add_argument("--d-max", type=int,
                       help="override the figure's elapsed-time range")
    return parser


# ---------------------------------------------------------------------------
# stream sources


# a decimal literal in ASCII digits, which float() always parses; float()
# alone also takes '1_0', 'nan' and digits of other scripts
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _stream_values(fh):
    """The values of a stream file's nonblank lines, each checked."""
    for lineno, raw in enumerate(fh, start=1):
        text = raw.strip()
        if text:
            if not _DECIMAL.fullmatch(text):
                raise _InputError(
                    f"line {lineno}: {text!r} is not a decimal value")
            v = float(text)
            if not 0.0 <= v <= 1.0:
                raise _InputError(f"line {lineno}: value {text} outside [0,1]")
            yield v


def _parse_stream_file(path: str, t_max) -> np.ndarray:
    try:
        with open(path) as fh:
            xs = np.fromiter(itertools.islice(_stream_values(fh), t_max), float)
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read {path}: {exc}")
    if not len(xs):
        raise _InputError(f"{path} contains no stream values")
    return xs


def _generate_stream(spec: str, t_max: int, seed: int) -> np.ndarray:
    if spec == "zeros":
        return np.zeros(t_max)
    if spec == "ones":
        return np.ones(t_max)
    m = re.fullmatch(r"bernoulli\((.*)\)", spec)
    if m and _DECIMAL.fullmatch(m.group(1)):
        p = float(m.group(1))
        if not 0.0 <= p <= 1.0:
            raise _InputError(f"bernoulli probability {p} outside [0,1]")
        return (np.random.default_rng(seed).random(t_max) < p).astype(float)
    raise _InputError(
        f"unknown generator {spec!r}; expected zeros, ones, or bernoulli(p)")


# ---------------------------------------------------------------------------
# output


# rows formatted and written per block, so memory does not grow with the
# row count; `run` also draws its noise per block.  A block of 2^10 rows
# holds about 0.45 MiB; 2^12 rows held 1.6 MiB and ran `run` about 5% faster
_CSV_BLOCK = 1 << 10


def _column_text(column: np.ndarray) -> list:
    """A block of a column as CSV fields: integers as they are (format()
    prints them like str), floats by repr, each distinct bit pattern
    formatted once (keyed on the bits, so -0.0 and 0.0 stay apart)."""
    if column.dtype.kind != "f":
        return column.tolist()
    bits, where = np.unique(column.view(np.uint64), return_inverse=True)
    texts = np.array([repr(v) for v in bits.view(np.float64).tolist()],
                     dtype=object)
    return texts[where].tolist()


def _write_rows(fh, columns) -> None:
    """Write one row per index of equal-length numeric columns (int64 or
    float64); a None column is an empty field in every row."""
    columns = [None if c is None else np.asarray(c) for c in columns]
    size = len(next(c for c in columns if c is not None))
    row = ",".join(["{}"] * len(columns)) + "\n"
    for lo in range(0, size, _CSV_BLOCK):
        n = min(_CSV_BLOCK, size - lo)
        fields = [itertools.repeat("", n) if c is None
                  else _column_text(c[lo:lo + n]) for c in columns]
        fh.write("".join(map(row.format, *fields)))


@contextlib.contextmanager
def _output(path: str, header: str):
    """The file at path, opened for writing, with the CSV header line
    written.  An OSError from opening, writing or closing it is a usage
    error; the file is left as it is, since path may be a device."""
    try:
        with open(path, "w") as fh:
            fh.write(header + "\n")
            yield fh
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror}")


# ---------------------------------------------------------------------------
# subcommands


_BUDGETS = {"epsilon", "eps_cur", "eps_past"}
# every flag that selects or shapes a mechanism, in the order a stray or
# missing one is reported
_FLAGS = {"epsilon": "--epsilon", "level_exponent": "--lambda",
          "delay": "--delay", "window": "--window", "eps_cur": "--eps-cur",
          "eps_past": "--eps-past", "ratio": "--ratio",
          "optimal_ratio": "--optimal-ratio"}


def _expiration_params(given, mse, horizon):
    lam, delay = given.get("level_exponent", 1.0), given.get("delay", 0)
    cal = None if mse is None else calibrate_epsilon(mse, horizon, lam, delay)
    eps = given["epsilon"] if cal is None else cal.epsilon
    return MechanismParams(eps, lam, delay), cal, None


def _baseline_params(given, mse, horizon):
    window = given["window"]
    if mse is None:
        return (BaselineParams(window, given["eps_cur"], given["eps_past"]),
                None, None)
    if "optimal_ratio" in given:
        ratio, cal = optimal_ratio(mse, horizon, window)
    else:
        ratio = given.get("ratio", 0.1)
        cal = calibrate_baseline(mse, horizon, window, ratio)
    return BaselineParams(window, cal.eps_cur, cal.eps_past), cal, ratio


# What --mechanism chooses: the flags a family reads (argparse dests), and
# with --mse the flags its calibration reads in place of the budgets (None:
# no --mse); params(given, mse, horizon) -> (params, calibration, ratio);
# releases(params, xs, seed, block), an array per block of steps; its
# loss(params, d_values, horizon) curve; its published bound(params,
# d_values), or None.  The lambdas look up at each call the functions that
# bench/spans.py traces in this module.
_Family = collections.namedtuple("_Family",
                                 "reads tuning params releases loss bound")
_EXPIRATION = _Family(
    {"epsilon", "level_exponent", "delay"}, set(), _expiration_params,
    functools.partial(lagged_releases, ExpirationCounter),
    lambda *a: empirical_loss_curve(*a), published_loss_bounds)
MECHANISMS = {
    # composition (Chan, Shi and Song): it reads --epsilon alone, as
    # MechanismParams at the other defaults
    "simple": _Family(
        {"epsilon"}, None, _expiration_params,
        functools.partial(lagged_releases, SimpleCounter), simple_loss_curve,
        None),
    # the logarithmic counter: expiration at lambda 1, delay 0
    "log": _EXPIRATION._replace(reads={"epsilon"}),
    "expiration": _EXPIRATION,
    "baseline": _Family(
        {"window", "eps_cur", "eps_past"}, {"ratio", "optimal_ratio"},
        _baseline_params, baseline_releases,
        lambda *a: baseline_loss_curve(*a), None),
}


def mechanism_params(args, horizon=None):
    """(family, params, calibration, ratio) that args (argparse dests; a
    missing one is not given) choose: by --mechanism, else by --window.
    With --mse, params is calibrated to it over horizon, calibration is the
    calibrate_* result and ratio the baseline's eps_past/eps_cur; else both
    are None.  A flag the family does not read, or a missing one it needs,
    is a ValueError."""
    given = {d: v for d in _FLAGS  # by identity: a given 0 counts as given
             if (v := getattr(args, d, None)) is not None and v is not False}
    mse, optimal = getattr(args, "mse", None), "optimal_ratio" in given
    mech = getattr(args, "mechanism", None)
    if mech is not None:
        stray = "{} is not read by --mechanism " + mech + (
            " with --mse" if mse is not None else "")
    elif "window" in given:  # calibrate and figures
        mech = "baseline"
        stray = "{} is not read with --window" + " --optimal-ratio" * optimal
    else:
        mech, stray = "expiration", "{} needs --window"
    family = MECHANISMS[mech]
    reads = family.reads
    if mse is not None:
        if family.tuning is None:
            raise ValueError(f"--mse is not read by --mechanism {mech}")
        # --optimal-ratio takes the place of --ratio
        reads = reads - _BUDGETS | family.tuning - (
            {"ratio"} if optimal else set())
    for dest in given:  # the first stray flag, in _FLAGS order
        if dest not in reads:
            raise ValueError(stray.format(_FLAGS[dest]))
    missing = reads & (_BUDGETS | {"window"}) - given.keys()
    if missing:
        raise ValueError(f"--mechanism {mech} needs " + " and ".join(
            flag for dest, flag in _FLAGS.items() if dest in missing)
            + (" or --mse" if "mse" in args and family.tuning is not None
               else ""))
    return (family, *family.params(given, mse, horizon))


def _check_d_max(d_max):
    # d is int64, and the expiration kernel takes d - delay + 1 < 2^62
    if d_max is not None and not 0 <= d_max < 2**62:
        raise _UsageError(f"--d-max must be in [0, 2^62), got {d_max}")


def cmd_run(args) -> int:
    if (args.input is None) == (args.generator is None):
        raise _UsageError("exactly one of --input / --generator is required")
    if args.generator is not None and args.t_max is None:
        raise _UsageError("--generator needs --t-max")
    if args.t_max is not None and not 1 <= args.t_max < 1 << 62:
        raise _UsageError("--t-max must be " + (
            ">= 1" if args.t_max < 1 else "below 2^62")
            + f", got {args.t_max}")
    # the PRF keys on 64 bits: a larger seed would alias a smaller one
    if not 0 <= args.seed < 1 << 64:
        raise _UsageError("--seed must be " + (
            ">= 0" if args.seed < 0 else "below 2^64") + f", got {args.seed}")
    family, params, _, _ = mechanism_params(args)
    if args.input is not None:
        xs = _parse_stream_file(args.input, args.t_max)
    else:
        try:
            xs = _generate_stream(args.generator, args.t_max, args.seed)
        except (ValueError, MemoryError):
            raise _UsageError(f"--t-max {args.t_max} is too long for "
                              "--generator: numpy cannot allocate the stream")
    with _output(args.output, "t,true_sum,released,abs_error") as fh:
        true_sum = 0.0
        blocks = family.releases(params, xs, args.seed, _CSV_BLOCK)
        for lo, released in zip(range(0, len(xs), _CSV_BLOCK), blocks):
            sums = np.empty(len(released))
            true_sum = running_sums(xs[lo:lo + len(sums)], true_sum, sums)
            _write_rows(fh, [np.arange(lo + 1, lo + len(sums) + 1), sums,
                             released, np.abs(released - sums)])
    return 0


def cmd_audit(args) -> int:
    _check_d_max(args.d_max)
    if args.t_max is not None and args.t_max < 1:
        raise _UsageError(f"--t-max must be >= 1, got {args.t_max}")
    horizon = args.t_max if args.t_max is not None else args.d_max + 1
    family, params, _, _ = mechanism_params(args, horizon)
    try:
        d_values = np.arange(args.d_max + 1)
    except (ValueError, MemoryError):
        raise _UsageError(f"--d-max {args.d_max} is too long: "
                          "numpy cannot allocate the grid")
    curve = family.loss(params, d_values, horizon)
    theoretical = (None if family.bound is None
                   else family.bound(params, d_values))
    with _output(args.output,
                 "d,loss_empirical,loss_envelope,loss_theoretical") as fh:
        _write_rows(fh, [d_values, curve.loss, curve.envelope, theoretical])
    return 0


def cmd_calibrate(args) -> int:
    family, _, cal, ratio = mechanism_params(args, args.t_max)
    if args.optimal_ratio:
        print(f"ratio = {ratio:.4g} ({ratio!r})")
    for name in _FLAGS:  # the budgets the family reads, calibrated
        if name in family.reads & _BUDGETS:
            value = getattr(cal, name)
            print(f"{name} = {value:.4g} ({value!r})")
    print(f"achieved_mse = {cal.achieved_mse!r}")
    return 0


def _figure_d_grid(d_max: int) -> np.ndarray:
    """Dense early, geometric beyond 128 — loss curves live on log-x plots."""
    if d_max <= 128:
        return np.arange(d_max + 1)
    ds = set(range(129))
    d = 128.0
    while d < d_max:
        d *= 1.07
        ds.add(min(int(round(d)), d_max))
    ds.add(d_max)
    return np.array(sorted(ds))


def cmd_figures(args) -> int:
    figure = args.figure
    outdir = args.output
    _check_d_max(args.d_max)
    T = 10**6 if figure in ("4", "5b") else 10**3
    d_values = _figure_d_grid(T - 1 if args.d_max is None else args.d_max)
    # every series is computed before the directory is made, so a series
    # that fails leaves nothing behind; a file that cannot be written ends
    # the bundle there, and the files written before it stay
    files = {}
    for series in _FIGURES[figure]:
        flags = argparse.Namespace(mse=1000.0, **series)
        family, params, _, _ = mechanism_params(flags, T)
        tag = "".join(_TAGS[flag].format(v) for flag, v in series.items())
        curve = family.loss(params, d_values, T)
        files[f"fig{figure}_{tag}.csv"] = curve.envelope
        if figure == "2a":
            files[f"fig{figure}_theoretical_{tag}.csv"] = \
                family.bound(params, d_values)
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise _UsageError(f"cannot create {outdir}: {exc.strerror}")
    for name, losses in files.items():
        with _output(os.path.join(outdir, name), "d,loss") as fh:
            _write_rows(fh, [d_values, losses])
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {"run": cmd_run, "audit": cmd_audit,
               "calibrate": cmd_calibrate, "figures": cmd_figures}[args.command]
    try:
        return handler(args)
    except _InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    # a rejected argument: one line on stderr, no usage block
    except (_UsageError, ValueError, OverflowError) as exc:
        parser.exit(2, f"{parser.prog} {args.command}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
