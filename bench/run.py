#!/usr/bin/env python3
"""Benchmark launcher for fadecount.

    python3 bench/run.py --workload stream --seed 1 --seconds 20 --trace 0

Runs one workload (stream, audit or montecarlo; see README.md) in this
process on one thread, repeating its job until --seconds have passed, checks
every output, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The line before it records
the environment.  Records and spans are written to .bench_work/records/.
Exits 2 without a result when the package sources (src/fadecount) are
missing.
"""

import os

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "fadecount"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("stream", "audit", "montecarlo")

SETUP_REPS = 5        # fresh interpreters timed for setup_s
MIN_REPS = 3          # timed repetitions, after the first (checked) one
SETUP_TIMEOUT_S = 120


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload's inputs and exit (times setup_s)")
    return p.parse_args(argv)


def _import_package():
    """Import fadecount from this checkout's sources, never from elsewhere."""
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package sources not found at {PACKAGE}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(PACKAGE.parent))
    sys.path.insert(0, str(BENCH))
    import fadecount
    if Path(fadecount.__file__).resolve().parent != PACKAGE:
        print(f"error: imported fadecount from {fadecount.__file__}",
              file=sys.stderr)
        sys.exit(2)


def _units(section) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _median(values):
    return statistics.median(values) if values else 0.0


def _environment(args) -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_commit": commit, "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "threads_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS",
                                                   "OPENBLAS_NUM_THREADS")},
    }


def _time_setups(args) -> list:
    """Wall time of fresh interpreters that import fadecount and build the
    workload's inputs, as a user starting this workload pays it."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed ({proc.returncode}):\n"
                               f"{proc.stderr}")
    return times


class Tally:
    """Operations and checks attempted and failed, with failure details."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def operations(self, rep):
        self.attempted += rep.operations
        self.failed += rep.failures

    def check(self, check):
        self.attempted += 1
        if not check.ok:
            self.failed.append(f"check {check.name}: {check.detail}")


def _run_checks(workload, rep, tally) -> dict:
    """Full oracle checks of one repetition; returns facts they measured."""
    import checks
    try:
        results, facts = workload.checks(rep)
    except Exception as exc:  # noqa: BLE001 - a crashed check is a failed one
        tally.check(checks.Check("checks", False,
                                 f"{type(exc).__name__}: {exc}"))
        return {}
    for c in results:
        tally.check(c)
    return facts


class Traced:
    """What the traced repetitions measured; spans of the last one only."""

    def __init__(self):
        self.layers = []       # per-layer metrics of each traced repetition
        self.wall_s = []
        self.coverage = []     # share of wall time inside top-level spans
        self.last = None       # (rep, tracer) of the last traced repetition

    def add(self, rep, tracer):
        import spans
        self.layers.append(spans.layer_metrics(tracer))
        self.wall_s.append(rep.wall_s)
        self.coverage.append(tracer.root_seconds() / rep.wall_s)
        self.last = (rep, tracer)


def _measure(args, workload, tally):
    """Repeat the job for --seconds, alternating traced repetitions when
    tracing.  Returns the timed reps (outputs dropped once checked), the
    Traced record and the facts the first repetition's checks measured."""
    import checks
    import spans
    start = time.perf_counter()
    first = workload.job()
    workload.probes(first)
    tally.operations(first)
    facts = _run_checks(workload, first, tally)
    reference = first.digests()
    timed, traced = [], Traced()
    while True:
        elapsed = time.perf_counter() - start
        enough = (len(timed) >= 1 and traced.last is not None if args.trace
                  else len(timed) >= MIN_REPS)
        if elapsed >= args.seconds and enough:
            break
        if args.trace and len(traced.wall_s) < len(timed):
            tracer = spans.Tracer()
            with tracer.patched():
                rep = workload.job()
            traced.add(rep, tracer)
        else:
            rep = workload.job()
            workload.probes(rep)
            timed.append(rep)
        tally.operations(rep)
        digests = rep.digests()
        same = all(digests[k] == reference.get(k) for k in digests)
        tally.check(checks.Check("repeatable", same,
                                 "outputs identical to the first repetition"))
        rep.outputs = {}
    return timed, traced, facts


def _end_to_end(timed, setups) -> tuple[dict, dict]:
    """End-to-end metrics over the timed repetitions, and their samples.

    Times are means over repetitions and rates are totals over total time:
    the host switches between a fast state and one about 1.5x slower for
    seconds to minutes, and a median flips between the two where a mean
    moves in proportion to the time spent in each.
    """
    import numpy as np
    p50, p99 = (np.array([np.percentile(r.latency_ns, q) / 1e3
                          for r in timed]) for q in (50, 99))
    samples = {
        "wall_s": [r.wall_s for r in timed],
        "releases_per_s": [r.releases / r.release_s for r in timed],
        "curve_points_per_s": [r.points / r.points_s for r in timed],
        "release_latency_p50_us": p50.tolist(),
        "release_latency_p99_us": p99.tolist(),
    }
    metrics = {
        "setup_s": _median(setups),
        "wall_s": statistics.fmean(samples["wall_s"]),
        "releases_per_s": (sum(r.releases for r in timed)
                           / sum(r.release_s for r in timed)),
        "curve_points_per_s": (sum(r.points for r in timed)
                               / sum(r.points_s for r in timed)),
        "release_latency_p50_us": float(p50.mean()),
        "release_latency_p99_us": float(p99.mean()),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, samples


def _per_layer(timed, traced, facts, tally, workload_name) -> dict:
    import checks
    import spans
    import workloads
    # median_low keeps a count an integer
    values = {k: statistics.median_low([m[k] for m in traced.layers])
              for k in traced.layers[0]}
    last_rep, last_tracer = traced.last
    counts, violations = spans.state_counts(last_tracer)
    values.update(counts)
    tally.check(checks.Check("state_bounds", not violations,
                             "; ".join(violations) or "within bounds"))
    values["mechanisms.scalar_vector_mismatches"] = facts.get(
        "mechanisms.scalar_vector_mismatches", 0)
    values["mechanisms.scalar_vector_max_abs_diff"] = facts.get(
        "mechanisms.scalar_vector_max_abs_diff", 0.0)
    values["cli.rows_written"] = sum(
        workloads.data_rows(p) for p in last_rep.cli_files)
    values["cli.bytes_written"] = sum(
        os.path.getsize(p) for p in last_rep.cli_files)
    values["trace.overhead_s"] = (statistics.fmean(traced.wall_s)
                                  - statistics.fmean(r.wall_s for r in timed))
    values["trace.span_coverage"] = _median(traced.coverage)
    values["failed_ratio"] = len(tally.failed) / max(1, tally.attempted)
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    last_tracer.write_spans(records / f"{workload_name}-spans.csv")
    return values


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_package()
    import workloads
    workdir = WORK / args.workload
    if args.setup_only:
        setup_dir = workdir / "setup"
        setup_dir.mkdir(parents=True, exist_ok=True)
        workloads.WORKLOADS[args.workload](args.seed, str(setup_dir))
        return 0
    env = _environment(args)
    setups = [] if args.trace else _time_setups(args)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    tally = Tally()
    timed, traced, facts = _measure(args, workload, tally)
    samples = {}
    if args.trace:
        metrics = _per_layer(timed, traced, facts, tally, args.workload)
    else:
        metrics, samples = _end_to_end(timed, setups)
    units = _units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    record = {"environment": env,
              "timed_reps": len(timed), "traced_reps": len(traced.wall_s),
              "latency_samples_per_rep": (len(timed[0].latency_ns)
                                          if timed else 0),
              "samples": {"setup_s": setups, **samples},
              "failures": tally.failed}
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    with open(records / f"{args.workload}-seed{args.seed}-trace{args.trace}"
              ".json", "w") as fh:
        json.dump({**record, "metrics": metrics}, fh, indent=1)
    shutil.rmtree(workdir, ignore_errors=True)
    for line in tally.failed:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": not tally.failed,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
