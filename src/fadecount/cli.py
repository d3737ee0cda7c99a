"""Command-line front end: run counters, audit loss curves, calibrate, batch-reproduce figures.

Four subcommands:

* ``run``       — stream a mechanism over a file or synthetic generator,
                  emitting ``t,true_sum,released,abs_error`` rows.
* ``audit``     — emit a worst-case privacy-loss curve
                  (``d,loss_empirical,loss_envelope,loss_theoretical``).
* ``calibrate`` — print privacy parameters hitting a target MSE.
* ``figures``   — write the CSV bundle behind one of the reference plots
                  (ids 2a, 2b, 3, 4, 5a, 5b).

Exit codes: 0 success, 1 bad input data, 2 usage errors.  ``audit``,
``calibrate`` and ``figures`` are fully deterministic (no seed involved);
``run`` is deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import collections
import functools
import itertools
import os
import re
import sys

import numpy as np

from .calibration import calibrate_baseline, calibrate_epsilon, optimal_ratio
from .mechanisms import (BaselineCounter, BaselineParams, ExpirationCounter,
                         MechanismParams, SeededNoise, SimpleCounter,
                         lagged_releases, running_sums)
from .privacy_audit import (PrivacyLossCurve, baseline_loss_curve,
                            empirical_loss_curve, published_loss_bounds)
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
# usage errors: one line on stderr, exit code 2, no usage block


def _usage_error(parser, args, message: str):
    parser.exit(2, f"{parser.prog} {args.command}: error: {message}\n")


def _checked(parser, args, build, *build_args):
    """build(*build_args), with a rejected argument (ValueError, or an
    OverflowError of a value past int64) reported as a usage error."""
    try:
        return build(*build_args)
    except (ValueError, OverflowError) as exc:
        _usage_error(parser, args, str(exc))


def _check_d_max(parser, args):
    # d is int64, and the expiration kernel takes d - delay + 1 < 2^62
    if args.d_max is not None and not 0 <= args.d_max < 2**62:
        _usage_error(parser, args,
                     f"--d-max must be in [0, 2^62), got {args.d_max}")


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


def _write_csv(fh, header: str, columns) -> None:
    """Write header, then the rows of _write_rows."""
    fh.write(header + "\n")
    _write_rows(fh, columns)


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


def _open_output(parser, args):
    try:
        return open(args.output, "w")
    except OSError as exc:
        _usage_error(parser, args,
                     f"cannot write {args.output}: {exc.strerror}")


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
    # the baseline's loss kernel sums up to 2 * window - 1 in int64
    if window > 1 << 62:
        raise ValueError(f"--window must be at most 2^62, got {window}")
    if mse is None:
        return (BaselineParams(window, given["eps_cur"], given["eps_past"]),
                None, None)
    if "optimal_ratio" in given:
        ratio, cal = optimal_ratio(mse, horizon, window)
    else:
        ratio = given.get("ratio", 0.1)
        cal = calibrate_baseline(mse, horizon, window, ratio)
    return BaselineParams(window, cal.eps_cur, cal.eps_past), cal, ratio


def _baseline_releases(params, xs, seed, block):
    step = BaselineCounter(params, SeededNoise(seed)).step
    for lo in range(0, len(xs), block):
        yield np.fromiter(map(step, xs[lo:lo + block].tolist()), float)


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
    # composition (Chan, Shi and Song): an input is in d fresh-draw releases;
    # it reads --epsilon alone, as MechanismParams at the other defaults
    "simple": _Family(
        {"epsilon"}, None, _expiration_params,
        functools.partial(lagged_releases, SimpleCounter),
        lambda p, d_values, _: PrivacyLossCurve(d_values,
                                                p.epsilon * d_values),
        None),
    # the logarithmic counter: expiration at lambda 1, delay 0
    "log": _EXPIRATION._replace(reads={"epsilon"}),
    "expiration": _EXPIRATION,
    "baseline": _Family(
        {"window", "eps_cur", "eps_past"}, {"ratio", "optimal_ratio"},
        _baseline_params, _baseline_releases,
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


def cmd_run(args, parser) -> int:
    if (args.input is None) == (args.generator is None):
        _usage_error(parser, args,
                     "exactly one of --input / --generator is required")
    if args.generator is not None and args.t_max is None:
        _usage_error(parser, args, "--generator needs --t-max")
    if args.t_max is not None and not 1 <= args.t_max < 1 << 62:
        _usage_error(parser, args, "--t-max must be " + (
            ">= 1" if args.t_max < 1 else "below 2^62")
            + f", got {args.t_max}")
    # the PRF keys on 64 bits: a larger seed would alias a smaller one
    if not 0 <= args.seed < 1 << 64:
        _usage_error(parser, args, "--seed must be " + (
            ">= 0" if args.seed < 0 else "below 2^64") + f", got {args.seed}")
    family, params, _, _ = _checked(parser, args, mechanism_params, args)
    if args.input is not None:
        xs = _parse_stream_file(args.input, args.t_max)
    else:
        try:
            xs = _generate_stream(args.generator, args.t_max, args.seed)
        except (ValueError, MemoryError):
            _usage_error(parser, args, f"--t-max {args.t_max} is too long "
                         "for --generator: numpy cannot allocate the stream")
    with _open_output(parser, args) as fh:
        fh.write("t,true_sum,released,abs_error\n")
        true_sum = 0.0
        blocks = family.releases(params, xs, args.seed, _CSV_BLOCK)
        for lo, released in zip(range(0, len(xs), _CSV_BLOCK), blocks):
            sums = np.empty(len(released))
            true_sum = running_sums(xs[lo:lo + len(sums)], true_sum, sums)
            _write_rows(fh, [np.arange(lo + 1, lo + len(sums) + 1), sums,
                             released, np.abs(released - sums)])
    return 0


def cmd_audit(args, parser) -> int:
    _check_d_max(parser, args)
    if args.t_max is not None and args.t_max < 1:
        _usage_error(parser, args, f"--t-max must be >= 1, got {args.t_max}")
    horizon = args.t_max if args.t_max is not None else args.d_max + 1
    family, params, _, _ = _checked(parser, args, mechanism_params, args,
                                    horizon)
    d_values = np.arange(args.d_max + 1)
    # simple's eps * d overflows to inf here, which PrivacyLossCurve rejects
    with np.errstate(over="ignore"):
        curve = _checked(parser, args, family.loss, params, d_values, horizon)
    theoretical = (None if family.bound is None
                   else _checked(parser, args, family.bound, params, d_values))
    with _open_output(parser, args) as fh:
        _write_csv(fh, "d,loss_empirical,loss_envelope,loss_theoretical",
                   [d_values, curve.loss, curve.envelope, theoretical])
    return 0


def cmd_calibrate(args, parser) -> int:
    family, _, cal, ratio = _checked(parser, args, mechanism_params, args,
                                     args.t_max)
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


def cmd_figures(args, parser) -> int:
    figure = args.figure
    outdir = args.output
    _check_d_max(parser, args)
    T = 10**6 if figure in ("4", "5b") else 10**3
    d_values = _figure_d_grid(T - 1 if args.d_max is None else args.d_max)
    # every series is computed before the directory is made, so a series
    # that fails leaves nothing behind
    files = {}
    for series in _FIGURES[figure]:
        flags = argparse.Namespace(mse=1000.0, **series)
        family, params, _, _ = _checked(parser, args, mechanism_params,
                                        flags, T)
        tag = "".join(_TAGS[flag].format(v) for flag, v in series.items())
        curve = _checked(parser, args, family.loss, params, d_values, T)
        files[f"fig{figure}_{tag}.csv"] = curve.envelope
        if figure == "2a":
            files[f"fig{figure}_theoretical_{tag}.csv"] = \
                family.bound(params, d_values)
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        _usage_error(parser, args, f"cannot create {outdir}: {exc.strerror}")
    for name, losses in files.items():
        with open(os.path.join(outdir, name), "w") as fh:
            _write_csv(fh, "d,loss", [d_values, losses])
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {"run": cmd_run, "audit": cmd_audit,
               "calibrate": cmd_calibrate, "figures": cmd_figures}[args.command]
    try:
        return handler(args, parser)
    except _InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
