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
import os
import re
import sys

import numpy as np

from .calibration import (analytic_mse_baseline, analytic_mse_expiration,
                          calibrate_baseline, calibrate_epsilon,
                          optimal_ratio)
from .mechanisms import (BaselineCounter, BaselineParams, ExpirationCounter,
                         MechanismParams, SeededNoise, SimpleCounter)
from .privacy_audit import (baseline_loss_curve, empirical_loss_curve,
                            published_loss_bound)

_FIGURE_IDS = ("2a", "2b", "3", "4", "5a", "5b")


class _InputError(Exception):
    """Bad stream data (exit code 1), as opposed to bad usage (exit code 2)."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fadecount",
        description="Differentially private continual counting with "
                    "gradually expiring privacy.")
    sub = parser.add_subparsers(dest="command", required=True)

    def mechanism_flags(p, include_simple=True):
        choices = (["simple", "log", "expiration", "baseline"]
                   if include_simple else ["expiration", "baseline"])
        p.add_argument("--mechanism", choices=choices, default="expiration")
        p.add_argument("--epsilon", type=float)
        p.add_argument("--lambda", dest="level_exponent", type=float,
                       default=1.0, help="level-budget exponent (default 1)")
        p.add_argument("--delay", type=int, default=0)
        p.add_argument("--window", type=int)
        p.add_argument("--eps-cur", type=float)
        p.add_argument("--eps-past", type=float)

    p_run = sub.add_parser("run", help="stream a mechanism, write CSV releases")
    mechanism_flags(p_run)
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
    mechanism_flags(p_audit, include_simple=False)
    p_audit.add_argument("--ratio", type=float,
                         help="eps_past/eps_cur when calibrating the baseline")
    p_audit.add_argument("--mse", type=float,
                         help="calibrate parameters to this MSE first")
    p_audit.add_argument("--d-max", type=int, required=True)
    p_audit.add_argument("--t-max", type=int,
                         help="stream length: inputs enter at positions "
                              "1..t_max; also the calibration length "
                              "(default d_max+1)")
    p_audit.add_argument("--output", required=True)

    p_cal = sub.add_parser("calibrate", help="print parameters hitting an MSE")
    p_cal.add_argument("--lambda", dest="level_exponent", type=float,
                       default=1.0)
    p_cal.add_argument("--delay", type=int, default=0)
    p_cal.add_argument("--window", type=int)
    p_cal.add_argument("--ratio", type=float, default=0.1)
    p_cal.add_argument("--optimal-ratio", action="store_true",
                       help="search the loss-minimizing baseline ratio")
    p_cal.add_argument("--mse", type=float, required=True)
    p_cal.add_argument("--t-max", type=int, required=True)

    p_fig = sub.add_parser("figures", help="reproduce a reference figure as CSV")
    p_fig.add_argument("figure", choices=_FIGURE_IDS)
    p_fig.add_argument("--output", default="figures",
                       help="directory for the CSV bundle")
    p_fig.add_argument("--d-max", type=int,
                       help="override the figure's elapsed-time range")
    return parser


# ---------------------------------------------------------------------------
# stream sources


def _parse_stream_file(path: str, t_max) -> np.ndarray:
    values = []
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                text = raw.strip()
                if not text:
                    continue
                if t_max is not None and len(values) >= t_max:
                    break
                try:
                    v = float(text)
                except ValueError:
                    raise _InputError(
                        f"line {lineno}: {text!r} is not a decimal value")
                if not 0.0 <= v <= 1.0:
                    raise _InputError(
                        f"line {lineno}: value {text} outside [0,1]")
                values.append(v)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}")
    if not values:
        raise _InputError(f"{path} contains no stream values")
    return np.array(values)


def _generate_stream(spec: str, t_max: int, seed: int) -> np.ndarray:
    if spec == "zeros":
        return np.zeros(t_max)
    if spec == "ones":
        return np.ones(t_max)
    m = re.fullmatch(r"bernoulli\(([0-9.eE+-]+)\)", spec)
    if m:
        p = float(m.group(1))
        if not 0.0 <= p <= 1.0:
            raise _InputError(f"bernoulli probability {p} outside [0,1]")
        rng = np.random.default_rng(seed)
        return (rng.random(t_max) < p).astype(float)
    raise _InputError(
        f"unknown generator {spec!r}; expected zeros, ones, or bernoulli(p)")


# ---------------------------------------------------------------------------
# usage errors: one line on stderr, exit code 2, no usage block


def _usage_error(parser, args, message: str):
    parser.exit(2, f"{parser.prog} {args.command}: error: {message}\n")


def _checked(parser, args, build, *build_args):
    """build(*build_args), with a rejected argument (ValueError) reported
    as a usage error."""
    try:
        return build(*build_args)
    except ValueError as exc:
        _usage_error(parser, args, str(exc))


def _open_output(parser, args):
    try:
        return open(args.output, "w")
    except OSError as exc:
        _usage_error(parser, args,
                     f"cannot write {args.output}: {exc.strerror}")


# ---------------------------------------------------------------------------
# subcommands


def _make_counter(args, parser):
    mech = args.mechanism
    if mech == "baseline":
        if args.window is None or args.eps_cur is None or args.eps_past is None:
            parser.error("baseline needs --window, --eps-cur and --eps-past")
        params = _checked(parser, args, BaselineParams, args.window,
                          args.eps_cur, args.eps_past)
        return BaselineCounter(params, SeededNoise(args.seed))
    if args.epsilon is None:
        parser.error(f"{mech} needs --epsilon")
    if mech == "simple":
        params = _checked(parser, args, MechanismParams, args.epsilon)
        return SimpleCounter(params, SeededNoise(args.seed))
    if mech == "log":
        params = _checked(parser, args, MechanismParams, args.epsilon, 1.0, 0)
    else:
        params = _checked(parser, args, MechanismParams, args.epsilon,
                          args.level_exponent, args.delay)
    return ExpirationCounter(params, SeededNoise(args.seed))


def cmd_run(args, parser) -> int:
    if (args.input is None) == (args.generator is None):
        parser.error("exactly one of --input / --generator is required")
    if args.generator is not None and args.t_max is None:
        parser.error("--generator needs --t-max")
    if args.t_max is not None and args.t_max < 1:
        _usage_error(parser, args, f"--t-max must be >= 1, got {args.t_max}")
    counter = _make_counter(args, parser)
    if args.input is not None:
        xs = _parse_stream_file(args.input, args.t_max)
    else:
        xs = _generate_stream(args.generator, args.t_max, args.seed)
    with _open_output(parser, args) as fh:
        fh.write("t,true_sum,released,abs_error\n")
        true_sum = 0.0
        for t, x in enumerate(xs, start=1):
            x = float(x)
            true_sum += x
            released = float(counter.step(x))
            fh.write(f"{t},{true_sum!r},{released!r},{abs(released - true_sum)!r}\n")
    return 0


def cmd_audit(args, parser) -> int:
    if args.d_max < 0:
        parser.error("--d-max must be nonnegative")
    if args.t_max is not None and args.t_max < 1:
        _usage_error(parser, args, f"--t-max must be >= 1, got {args.t_max}")
    horizon = args.t_max if args.t_max is not None else args.d_max + 1
    d_values = np.arange(args.d_max + 1)
    if args.mechanism == "baseline":
        if args.window is None:
            parser.error("baseline audit needs --window")
        if args.mse is not None:
            ratio = args.ratio if args.ratio is not None else 0.1
            cal = _checked(parser, args, calibrate_baseline, args.mse,
                           horizon, args.window, ratio)
            params = BaselineParams(args.window, cal.eps_cur, cal.eps_past)
        elif args.eps_cur is not None and args.eps_past is not None:
            params = _checked(parser, args, BaselineParams, args.window,
                              args.eps_cur, args.eps_past)
        else:
            parser.error("baseline audit needs --eps-cur/--eps-past or --mse")
        curve = baseline_loss_curve(params, d_values, horizon)
        theoretical = [""] * len(d_values)
    else:
        if args.mse is not None:
            cal = _checked(parser, args, calibrate_epsilon, args.mse,
                           horizon, args.level_exponent, args.delay)
            eps = cal.epsilon
        elif args.epsilon is not None:
            eps = args.epsilon
        else:
            parser.error("expiration audit needs --epsilon or --mse")
        params = _checked(parser, args, MechanismParams, eps,
                          args.level_exponent, args.delay)
        curve = empirical_loss_curve(params, d_values, horizon)
        theoretical = [repr(published_loss_bound(int(d), params))
                       for d in d_values]
    env = curve.envelope
    with _open_output(parser, args) as fh:
        fh.write("d,loss_empirical,loss_envelope,loss_theoretical\n")
        for i, d in enumerate(d_values):
            fh.write(f"{d},{float(curve.loss[i])!r},{float(env[i])!r},"
                     f"{theoretical[i]}\n")
    return 0


def cmd_calibrate(args, parser) -> int:
    def sig4(v: float) -> str:
        return f"{v:.4g}"

    if args.window is not None:
        if args.optimal_ratio:
            ratio, cal = _checked(parser, args, optimal_ratio, args.mse,
                                  args.t_max, args.window)
            print(f"ratio = {sig4(ratio)} ({ratio!r})")
        else:
            cal = _checked(parser, args, calibrate_baseline, args.mse,
                           args.t_max, args.window, args.ratio)
        print(f"eps_cur = {sig4(cal.eps_cur)} ({cal.eps_cur!r})")
        print(f"eps_past = {sig4(cal.eps_past)} ({cal.eps_past!r})")
        print(f"achieved_mse = {cal.achieved_mse!r}")
    else:
        cal = _checked(parser, args, calibrate_epsilon, args.mse, args.t_max,
                       args.level_exponent, args.delay)
        print(f"epsilon = {sig4(cal.epsilon)} ({cal.epsilon!r})")
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


def _write_series(path: str, d_values, losses) -> None:
    with open(path, "w") as fh:
        fh.write("d,loss\n")
        for d, v in zip(d_values, losses):
            fh.write(f"{int(d)},{float(v)!r}\n")


def cmd_figures(args, parser) -> int:
    figure = args.figure
    outdir = args.output
    if args.d_max is not None and args.d_max < 0:
        parser.error("--d-max must be nonnegative")
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        _usage_error(parser, args, f"cannot create {outdir}: {exc.strerror}")
    mse = 1000.0
    T = 10**6 if figure in ("4", "5b") else 10**3
    d_max = args.d_max if args.d_max is not None else T - 1
    d_values = _figure_d_grid(d_max)

    def expiration_series(lam: float, tag: str, theoretical: bool = False):
        cal = calibrate_epsilon(mse, T, lam)
        params = MechanismParams(cal.epsilon, lam)
        curve = empirical_loss_curve(params, d_values, T)
        _write_series(os.path.join(outdir, f"fig{figure}_{tag}.csv"),
                      d_values, curve.envelope)
        if theoretical:
            theo = [published_loss_bound(int(d), params) for d in d_values]
            _write_series(
                os.path.join(outdir, f"fig{figure}_theoretical_{tag}.csv"),
                d_values, theo)

    def baseline_series(window: int, tag: str, ratio=0.1, optimal=False):
        if optimal:
            ratio, cal = optimal_ratio(mse, T, window)
        else:
            cal = calibrate_baseline(mse, T, window, ratio)
        params = BaselineParams(window, cal.eps_cur, cal.eps_past)
        curve = baseline_loss_curve(params, d_values, T)
        _write_series(os.path.join(outdir, f"fig{figure}_{tag}.csv"),
                      d_values, curve.envelope)

    if figure == "2a":
        expiration_series(2.0, "lambda2", theoretical=True)
    elif figure == "2b":
        for lam in (1.0, 2.0, 3.0):
            expiration_series(lam, f"lambda{lam:g}")
    elif figure == "3":
        for w in (31, 63, 127):
            baseline_series(w, f"window{w}")
    elif figure == "4":
        for lam in (1.0, 2.0, 3.0):
            expiration_series(lam, f"lambda{lam:g}")
        for w in (127, 1023):
            baseline_series(w, f"window{w}")
    elif figure == "5a":
        for w in (31, 63, 127):
            baseline_series(w, f"window{w}_optratio", optimal=True)
    elif figure == "5b":
        for lam in (1.0, 2.0, 3.0):
            expiration_series(lam, f"lambda{lam:g}")
        for w in (127, 1023):
            baseline_series(w, f"window{w}_optratio", optimal=True)
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
