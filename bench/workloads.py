"""The three benchmark workloads: inputs from a seed, one job, its checks.

Constructing a workload is its set-up: it builds every input from the seed
(streams, the input file, calibrated parameters).  ``job`` runs the
workload once and returns a ``Rep``; ``probes`` runs the side measurements
that give a workload the end-to-end metrics its own job does not produce
(see README.md); ``checks`` compares a repetition's outputs to oracles.

The package is called through its module attributes (``cli.main``,
``mechanisms.run_expiration``, ...) at call time, so that a traced
repetition sees the wrappers installed by spans.py.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

from fadecount import cli, mechanisms
from fadecount.calibration import (analytic_mse_expiration,
                                   calibrate_baseline, calibrate_epsilon)
from fadecount.mechanisms import MechanismParams

import checks

MSE = 1000.0            # calibration target shared by every workload
LAMBDA = 2.0            # level exponent of every expiration counter here
DELAY = 16
STEP_LOOP_STEPS = 1 << 13
CURVE_PROBE_D_MAX = 255


@dataclass
class Rep:
    """What one repetition did, measured from outside the package."""

    wall_s: float = 0.0
    releases: int = 0           # noisy prefix sums released ...
    release_s: float = 0.0      # ... in this many seconds
    points: int = 0             # loss-curve points computed and written ...
    points_s: float = 0.0       # ... in this many seconds
    latency_ns: np.ndarray | None = None   # per step() call
    operations: int = 0
    failures: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)   # name -> array or path
    cli_files: list = field(default_factory=list)

    def attempt(self, name, fn, *args):
        """Run one operation; a raised error or nonzero exit is a failure."""
        self.operations += 1
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - counted, reported, not fatal
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        if isinstance(result, int) and result != 0:
            self.failures.append(f"{name}: exit code {result}")
        return result

    def digests(self) -> dict:
        out = {}
        for name, value in self.outputs.items():
            if isinstance(value, str):
                try:
                    with open(value, "rb") as fh:
                        value = fh.read()
                except OSError:
                    value = b""
            else:
                value = np.ascontiguousarray(value).tobytes()
            out[name] = hashlib.sha256(value).hexdigest()
        return out


def _bernoulli(rng, n, p=0.2) -> np.ndarray:
    return (rng.random(n) < p).astype(float)


class StepLoop:
    """step() through the Python API, one timed call per input (online use)."""

    def __init__(self, rng):
        self.seed = int(rng.integers(0, 2**31))
        self.xs = [float(v) for v in _bernoulli(rng, STEP_LOOP_STEPS)]
        eps = calibrate_epsilon(MSE, STEP_LOOP_STEPS, LAMBDA, DELAY).epsilon
        self.params = MechanismParams(eps, LAMBDA, DELAY)

    def run(self, rep: Rep) -> None:
        counter = mechanisms.ExpirationCounter(
            self.params, mechanisms.SeededNoise(self.seed))
        step = counter.step
        clock = time.perf_counter_ns
        out = [0.0] * len(self.xs)
        lat = [0] * len(self.xs)
        for i, x in enumerate(self.xs):
            t0 = clock()
            out[i] = step(x)
            lat[i] = clock() - t0
        rep.latency_ns = np.array(lat)
        rep.outputs["step_loop"] = np.array(out, dtype=float)

    def checks(self, rep: Rep) -> list:
        oracle = checks.expiration_releases(self.params, self.xs, self.seed)
        return [checks.check_releases("step_loop.released",
                                      rep.outputs["step_loop"], oracle)]


class CurveProbe:
    """A small expiration audit through the CLI."""

    def __init__(self, workdir):
        self.path = os.path.join(workdir, "probe_audit.csv")
        self.argv = ["audit", "--mse", repr(MSE), "--lambda", repr(LAMBDA),
                     "--d-max", str(CURVE_PROBE_D_MAX), "--t-max", "1000000",
                     "--output", self.path]
        self.params = MechanismParams(
            calibrate_epsilon(MSE, 10**6, LAMBDA).epsilon, LAMBDA)

    def run(self, rep: Rep) -> None:
        t0 = time.perf_counter()
        rep.attempt("probe audit", cli.main, self.argv)
        rep.points_s = time.perf_counter() - t0
        rep.points = CURVE_PROBE_D_MAX + 1
        rep.outputs["probe_audit"] = self.path

    def checks(self, rep: Rep) -> list:
        table = checks.read_csv(self.path, (0, 1, 2, 3))
        return checks.check_expiration_curve(
            "probe_audit", table, CURVE_PROBE_D_MAX, self.params, [0, 7, 100])


class Stream:
    """`fadecount run` on both counters, plus the step() loop.

    The scalar step, the scalar PRF and CSV parse/format do the work.
    """

    T_GENERATED = 1 << 14   # expiration counter, --generator
    T_FILE = 1 << 13        # baseline counter, --input
    WINDOW = 1023

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.run_seed, self.file_seed = (int(v) for v in
                                         rng.integers(0, 2**31, 2))
        eps = calibrate_epsilon(MSE, self.T_GENERATED, LAMBDA, DELAY).epsilon
        self.params = MechanismParams(eps, LAMBDA, DELAY)
        self.gen_path = os.path.join(workdir, "run_expiration.csv")
        self.gen_argv = [
            "run", "--mechanism", "expiration", "--epsilon", repr(eps),
            "--lambda", repr(LAMBDA), "--delay", str(DELAY),
            "--generator", "bernoulli(0.2)", "--t-max", str(self.T_GENERATED),
            "--seed", str(self.run_seed), "--output", self.gen_path]
        # multiples of 1/64, so every prefix sum is exact in floating point
        self.file_xs = rng.integers(0, 65, self.T_FILE) / 64.0
        input_path = os.path.join(workdir, "stream_input.txt")
        with open(input_path, "w") as fh:
            fh.writelines(f"{v!r}\n" for v in self.file_xs.tolist())
        self.cal = calibrate_baseline(MSE, self.T_FILE, self.WINDOW, 0.1)
        self.file_path = os.path.join(workdir, "run_baseline.csv")
        self.file_argv = [
            "run", "--mechanism", "baseline", "--window", str(self.WINDOW),
            "--eps-cur", repr(self.cal.eps_cur),
            "--eps-past", repr(self.cal.eps_past), "--input", input_path,
            "--seed", str(self.file_seed), "--output", self.file_path]
        self.step_loop = StepLoop(rng)
        self.curve_probe = CurveProbe(workdir)

    def generated_stream(self) -> np.ndarray:
        """The stream `--generator bernoulli(0.2)` draws for the run seed."""
        return _bernoulli(np.random.default_rng(self.run_seed),
                          self.T_GENERATED)

    def job(self) -> Rep:
        rep = Rep()
        t0 = time.perf_counter()
        rep.attempt("run expiration", cli.main, self.gen_argv)
        rep.attempt("run baseline", cli.main, self.file_argv)
        rep.release_s = time.perf_counter() - t0
        rep.releases = self.T_GENERATED + self.T_FILE
        self.step_loop.run(rep)
        rep.wall_s = time.perf_counter() - t0
        rep.outputs.update(run_expiration=self.gen_path,
                           run_baseline=self.file_path)
        rep.cli_files = [self.gen_path, self.file_path]
        return rep

    def probes(self, rep: Rep) -> None:
        self.curve_probe.run(rep)

    def checks(self, rep: Rep) -> tuple[list, dict]:
        xs = self.generated_stream()
        gen = checks.read_csv(self.gen_path, (0, 1, 2, 3))
        out = checks.check_release_table(
            "run_expiration", gen, xs,
            checks.expiration_releases(self.params, xs, self.run_seed))
        vectorized = mechanisms.run_expiration(self.params, xs, self.run_seed)
        count, largest = checks.scalar_vector_mismatches(gen[:, 2],
                                                         vectorized)
        base = checks.read_csv(self.file_path, (0, 1, 2, 3))
        out += checks.check_release_table(
            "run_baseline", base, self.file_xs,
            checks.baseline_releases(self.WINDOW, self.cal.eps_cur,
                                     self.cal.eps_past, self.file_xs,
                                     self.file_seed))
        out += self.step_loop.checks(rep) + self.curve_probe.checks(rep)
        return out, {"mechanisms.scalar_vector_mismatches": count,
                     "mechanisms.scalar_vector_max_abs_diff": largest}


class Audit:
    """Loss curves: a dense expiration grid, the baseline on the same grid,
    and figure 5b on a geometric grid.  No noise is drawn.

    The seed picks the calibration target and the oracle's sample points;
    the grids are fixed, so every seed does the same work.
    """

    D_MAX = 1023
    T_MAX = 10**6
    WINDOW = 127
    FIGURE_D_MAX = 8191
    FIGURE_SERIES = (("lambda1", 1.0), ("lambda2", 2.0), ("lambda3", 3.0),
                     ("window127_optratio", None),
                     ("window1023_optratio", None))

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        mse = float(rng.integers(500, 2001))
        self.sample_d = sorted(int(v) for v in rng.choice(301, 5, replace=False))
        self.baseline_sample_d = rng.integers(self.WINDOW,
                                              self.D_MAX - self.WINDOW, 4)
        common = ["--mse", repr(mse), "--d-max", str(self.D_MAX),
                  "--t-max", str(self.T_MAX)]
        self.exp_path = os.path.join(workdir, "audit_expiration.csv")
        self.exp_argv = ["audit", "--lambda", repr(LAMBDA), *common,
                         "--output", self.exp_path]
        self.base_path = os.path.join(workdir, "audit_baseline.csv")
        self.base_argv = ["audit", "--mechanism", "baseline",
                          "--window", str(self.WINDOW), *common,
                          "--output", self.base_path]
        self.fig_dir = os.path.join(workdir, "figures")
        self.fig_argv = ["figures", "5b", "--d-max", str(self.FIGURE_D_MAX),
                         "--output", self.fig_dir]
        self.params = MechanismParams(
            calibrate_epsilon(mse, self.T_MAX, LAMBDA).epsilon, LAMBDA)
        self.eps_past = calibrate_baseline(mse, self.T_MAX, self.WINDOW,
                                           0.1).eps_past
        self.fig_params = {
            tag: MechanismParams(calibrate_epsilon(MSE, 10**6, lam).epsilon,
                                 lam)
            for tag, lam in self.FIGURE_SERIES if lam is not None}
        self.step_loop = StepLoop(rng)

    def _fig_path(self, tag):
        return os.path.join(self.fig_dir, f"fig5b_{tag}.csv")

    def job(self) -> Rep:
        rep = Rep()
        t0 = time.perf_counter()
        rep.attempt("audit expiration", cli.main, self.exp_argv)
        rep.attempt("audit baseline", cli.main, self.base_argv)
        rep.attempt("figures 5b", cli.main, self.fig_argv)
        rep.wall_s = rep.points_s = time.perf_counter() - t0
        rep.cli_files = [self.exp_path, self.base_path] + [
            self._fig_path(tag) for tag, _ in self.FIGURE_SERIES]
        rep.points = sum(data_rows(p) for p in rep.cli_files)
        rep.outputs.update((os.path.basename(p), p) for p in rep.cli_files)
        return rep

    def probes(self, rep: Rep) -> None:
        t0 = time.perf_counter()
        self.step_loop.run(rep)
        rep.release_s = time.perf_counter() - t0
        rep.releases = STEP_LOOP_STEPS

    def checks(self, rep: Rep) -> tuple[list, dict]:
        out = checks.check_expiration_curve(
            "audit_expiration", checks.read_csv(self.exp_path, (0, 1, 2, 3)),
            self.D_MAX, self.params, self.sample_d)
        out += checks.check_baseline_curve(
            "audit_baseline", checks.read_csv(self.base_path, (0, 1, 2)),
            self.D_MAX, self.WINDOW, self.eps_past, self.baseline_sample_d)
        for tag, _ in self.FIGURE_SERIES:
            out += checks.check_figure_series(
                f"fig5b_{tag}", checks.read_csv(self._fig_path(tag), (0, 1)),
                self.FIGURE_D_MAX, self.fig_params.get(tag))
        return out + self.step_loop.checks(rep), {}


class MonteCarlo:
    """Many seeds through the batch kernel, plus one long vectorized run.

    The array PRF lane, laplace_sample_array and the noise-total kernel do
    the work; the scalar path, CSV and the audit do none.
    """

    SEEDS = 32
    POSITIONS = 1 << 16
    T_RUN = 1 << 18
    RECOMPUTED_SEEDS = 3

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.seeds = [int(v) for v in rng.integers(0, 2**63, self.SEEDS)]
        self.sample = sorted(int(v) for v in rng.choice(
            self.SEEDS, self.RECOMPUTED_SEEDS, replace=False))
        eps = calibrate_epsilon(MSE, self.POSITIONS, LAMBDA).epsilon
        self.batch_params = MechanismParams(eps, LAMBDA)
        eps = calibrate_epsilon(MSE, self.T_RUN, LAMBDA, DELAY).epsilon
        self.run_params = MechanismParams(eps, LAMBDA, DELAY)
        self.run_seed = int(rng.integers(0, 2**31))
        self.xs = _bernoulli(rng, self.T_RUN)
        self.step_loop = StepLoop(rng)
        self.curve_probe = CurveProbe(workdir)

    def job(self) -> Rep:
        rep = Rep()
        t0 = time.perf_counter()
        stats = rep.attempt("batch", mechanisms.expiration_max_and_mse_batch,
                            self.batch_params, self.POSITIONS, self.seeds)
        released = rep.attempt("run_expiration", mechanisms.run_expiration,
                               self.run_params, self.xs, self.run_seed)
        rep.wall_s = rep.release_s = time.perf_counter() - t0
        rep.releases = self.SEEDS * self.POSITIONS + self.T_RUN
        if stats is not None:
            rep.outputs.update(batch_max=stats[0], batch_mse=stats[1])
        if released is not None:
            rep.outputs["run_expiration"] = released
        return rep

    def probes(self, rep: Rep) -> None:
        self.step_loop.run(rep)
        self.curve_probe.run(rep)

    def checks(self, rep: Rep) -> tuple[list, dict]:
        out = checks.check_batch(
            "batch", self.batch_params, self.POSITIONS, self.seeds,
            rep.outputs["batch_max"], rep.outputs["batch_mse"], self.sample,
            analytic_mse_expiration(self.batch_params, self.POSITIONS))
        # the scalar counter over a prefix is the oracle of the vectorized run
        prefix = 1 << 12
        counter = mechanisms.ExpirationCounter(
            self.run_params, mechanisms.SeededNoise(self.run_seed))
        scalar = [counter.step(float(x)) for x in self.xs[:prefix]]
        out.append(checks.check_releases(
            "run_expiration.prefix_vs_step",
            rep.outputs["run_expiration"][:prefix], scalar))
        out.append(checks.check_releases(
            "run_expiration.released", rep.outputs["run_expiration"],
            checks.expiration_releases(self.run_params, self.xs,
                                       self.run_seed)))
        out += self.step_loop.checks(rep) + self.curve_probe.checks(rep)
        return out, {}


def data_rows(path) -> int:
    """Lines after the header of a CSV the CLI wrote; 0 if it is missing."""
    try:
        with open(path, "rb") as fh:
            return max(0, sum(1 for _ in fh) - 1)
    except OSError:
        return 0


WORKLOADS = {"stream": Stream, "audit": Audit, "montecarlo": MonteCarlo}
