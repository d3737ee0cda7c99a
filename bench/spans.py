"""Spans around the package's public functions, recorded from outside.

During a traced repetition every function in ``TARGETS`` is replaced, in the
module where its caller looks it up, by a wrapper that records one span
(name, start, end, parent) per call.  The modules import each other's names
with ``from .x import y``, so a function is patched in its caller's module
(``fadecount.mechanisms.keyed_noise``, not ``fadecount.noise.keyed_noise``).
Spans are kept in memory and summarised into the per-layer metrics after the
repetition; a layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import csv
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# (module or class, attribute, span name, work counter or None).  A work
# counter maps the call's arguments to the amount of work it was handed.
TARGETS = [
    ("fadecount.mechanisms", "keyed_noise", "noise.keyed_noise", None),
    ("fadecount.mechanisms", "prf_uniform_array", "noise.prf_uniform_array",
     lambda seed, prefix, indices: len(indices)),
    ("fadecount.mechanisms", "laplace_sample_array",
     "noise.laplace_sample_array", None),
    ("fadecount.mechanisms", "expiration_noise_totals",
     "mechanisms.expiration_noise_totals", None),
    ("fadecount.mechanisms", "expiration_max_and_mse_batch",
     "mechanisms.expiration_max_and_mse_batch", None),
    ("fadecount.mechanisms", "run_expiration", "mechanisms.run_expiration",
     None),
    ("fadecount.mechanisms:BaselineCounter", "step",
     "mechanisms.BaselineCounter.step", None),
    ("fadecount.privacy_audit", "decomposition_costs",
     "dyadic.decomposition_costs",
     lambda length, start, stop, weights: stop - start),
    ("fadecount.privacy_audit", "empirical_loss_expiration",
     "privacy_audit.empirical_loss_expiration", None),
    ("fadecount.privacy_audit", "empirical_loss_baseline",
     "privacy_audit.empirical_loss_baseline", None),
    ("fadecount.cli", "empirical_loss_curve",
     "privacy_audit.empirical_loss_curve", None),
    ("fadecount.cli", "baseline_loss_curve",
     "privacy_audit.baseline_loss_curve", None),
    ("fadecount.cli", "published_loss_bound",
     "privacy_audit.published_loss_bound", None),
    ("fadecount.cli", "calibrate_epsilon", "calibration.calibrate_epsilon",
     None),
    ("fadecount.cli", "calibrate_baseline", "calibration.calibrate_baseline",
     None),
    ("fadecount.calibration", "calibrate_baseline",
     "calibration.calibrate_baseline", None),
    ("fadecount.cli", "optimal_ratio", "calibration.optimal_ratio", None),
    ("fadecount.cli", "main", "cli.main", None),
]
EXPIRATION_STEP = "mechanisms.ExpirationCounter.step"
BASELINE_STEP = "mechanisms.BaselineCounter.step"


def _resolve(target: str):
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Spans and work counts of one traced repetition."""

    def __init__(self):
        self.spans: list = []          # [name, start_ns, end_ns, parent index]
        self.work = defaultdict(int)   # span name -> work handed to it
        self.counters: dict = {}       # id -> [counter, steps, peak live,
                                       #        peak buffer]
        self._stack: list = []

    def wrap(self, name, fn, work=None):
        spans, stack, totals = self.spans, self._stack, self.work

        def traced(*args, **kwargs):
            if work is not None:
                totals[name] += work(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
        return traced

    def wrap_expiration_step(self, fn):
        """Span around ExpirationCounter.step plus the counter's peak state."""
        traced = self.wrap(EXPIRATION_STEP, fn)
        counters = self.counters

        def step(counter, x):
            out = traced(counter, x)
            state = counters.get(id(counter))
            if state is None:
                # the counter is kept so its id cannot be reused meanwhile
                state = counters[id(counter)] = [counter, 0, 0, 0]
            state[1] += 1
            state[2] = max(state[2], counter.active_noise_count)
            state[3] = max(state[3], counter.buffer_len)
            return out
        return step

    @contextmanager
    def patched(self):
        """Install every wrapper; restore the original functions on exit."""
        originals = []
        try:
            for target, attr, name, work in TARGETS:
                owner = _resolve(target)
                fn = getattr(owner, attr)
                originals.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, work))
            owner = _resolve("fadecount.mechanisms:ExpirationCounter")
            originals.append((owner, "step", owner.step))
            owner.step = self.wrap_expiration_step(owner.step)
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds, parent names."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for _name, t0, t1, parent in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out: dict = {}
        for i, (name, t0, t1, parent) in enumerate(spans):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                          "by_parent": defaultdict(int)})
            entry["calls"] += 1
            entry["s"] += (t1 - t0) * 1e-9
            entry["self_s"] += (t1 - t0 - child_ns[i]) * 1e-9
            entry["by_parent"][spans[parent][0] if parent >= 0 else None] += 1
        return out

    def root_seconds(self) -> float:
        return sum(t1 - t0 for _n, t0, t1, p in self.spans if p < 0) * 1e-9

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "parent", "name", "start_ns", "end_ns"])
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                writer.writerow([i, parent, name, t0, t1])


def _span_seconds(summary, name, key="s"):
    return summary[name][key] if name in summary else 0.0


def _calls(summary, name, parent=None):
    if name not in summary:
        return 0
    if parent is None:
        return summary[name]["calls"]
    return summary[name]["by_parent"].get(parent, 0)


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced repetition, by metric name."""
    s = tracer.summary()
    exp_steps = _calls(s, EXPIRATION_STEP)
    base_steps = _calls(s, BASELINE_STEP)
    step_calls = exp_steps + base_steps
    step_s = _span_seconds(s, EXPIRATION_STEP) + _span_seconds(s, BASELINE_STEP)
    step_self = (_span_seconds(s, EXPIRATION_STEP, "self_s")
                 + _span_seconds(s, BASELINE_STEP, "self_s"))
    exp_points = _calls(s, "privacy_audit.empirical_loss_expiration")
    positions = tracer.work["dyadic.decomposition_costs"]
    spans = tracer.spans
    # calibrations the caller asked for, not those optimal_ratio made
    cal_top = 1e-9 * sum(
        t1 - t0 for name, t0, t1, parent in spans
        if name in ("calibration.calibrate_epsilon",
                    "calibration.calibrate_baseline")
        and (parent < 0 or not spans[parent][0].startswith("calibration.")))
    return {
        "noise.keyed_noise.calls": _calls(s, "noise.keyed_noise"),
        "noise.keyed_noise.s": _span_seconds(s, "noise.keyed_noise"),
        "noise.prf_uniform_array.calls": _calls(s, "noise.prf_uniform_array"),
        "noise.prf_uniform_array.elems": tracer.work["noise.prf_uniform_array"],
        "noise.prf_uniform_array.s": _span_seconds(s, "noise.prf_uniform_array"),
        "noise.laplace_sample_array.s":
            _span_seconds(s, "noise.laplace_sample_array"),
        "mechanisms.step.calls": step_calls,
        "mechanisms.step.s": step_s,
        "mechanisms.step.self_s": step_self,
        "mechanisms.step.per_s": step_calls / step_s if step_s else 0.0,
        "mechanisms.draws_per_step.expiration":
            (_calls(s, "noise.keyed_noise", EXPIRATION_STEP) / exp_steps
             if exp_steps else 0.0),
        "mechanisms.draws_per_step.baseline":
            (_calls(s, "noise.keyed_noise", BASELINE_STEP) / base_steps
             if base_steps else 0.0),
        "mechanisms.expiration_noise_totals.s":
            _span_seconds(s, "mechanisms.expiration_noise_totals"),
        "mechanisms.expiration_noise_totals.self_s":
            _span_seconds(s, "mechanisms.expiration_noise_totals", "self_s"),
        "mechanisms.expiration_max_and_mse_batch.s":
            _span_seconds(s, "mechanisms.expiration_max_and_mse_batch"),
        "mechanisms.run_expiration.s":
            _span_seconds(s, "mechanisms.run_expiration"),
        "dyadic.decomposition_costs.calls":
            _calls(s, "dyadic.decomposition_costs"),
        "dyadic.decomposition_costs.positions": positions,
        "dyadic.decomposition_costs.s":
            _span_seconds(s, "dyadic.decomposition_costs"),
        "privacy_audit.empirical_loss_expiration.calls": exp_points,
        "privacy_audit.empirical_loss_expiration.s":
            _span_seconds(s, "privacy_audit.empirical_loss_expiration"),
        "privacy_audit.empirical_loss_expiration.self_s":
            _span_seconds(s, "privacy_audit.empirical_loss_expiration",
                          "self_s"),
        "privacy_audit.positions_per_point":
            positions / exp_points if exp_points else 0.0,
        "privacy_audit.empirical_loss_baseline.calls":
            _calls(s, "privacy_audit.empirical_loss_baseline"),
        "privacy_audit.empirical_loss_baseline.s":
            _span_seconds(s, "privacy_audit.empirical_loss_baseline"),
        "privacy_audit.published_loss_bound.s":
            _span_seconds(s, "privacy_audit.published_loss_bound"),
        "calibration.calibrate.s": cal_top,
        "calibration.optimal_ratio.s":
            _span_seconds(s, "calibration.optimal_ratio"),
        "calibration.objective_evals":
            _calls(s, "calibration.calibrate_baseline",
                   "calibration.optimal_ratio"),
        "cli.main.s": _span_seconds(s, "cli.main"),
        "cli.self_s": _span_seconds(s, "cli.main", "self_s"),
    }


def state_counts(tracer: Tracer):
    """Peak state of the longest traced ExpirationCounter, next to its bounds.

    The bounds for P released positions are bit_length(P) live noise terms,
    `delay` buffered inputs and 2P redraws.  Returns (metrics, violations):
    violations lists every traced counter that exceeded a bound.
    """
    violations = []
    longest = (-1, (0, 0, 0), (0, 0, 0))
    for counter, steps, peak_live, peak_buffer in tracer.counters.values():
        delay = counter.params.delay
        released = max(0, steps - delay)
        bounds = (released.bit_length(), delay, 2 * released)
        values = (peak_live, peak_buffer, counter.redraws)
        if any(v > b for v, b in zip(values, bounds)):
            violations.append(f"state {values} exceeds bounds {bounds}")
        if released > longest[0]:
            longest = (released, values, bounds)
    _released, values, bounds = longest
    return {
        "mechanisms.peak_active_noise_count": values[0],
        "mechanisms.active_noise_bound": bounds[0],
        "mechanisms.peak_buffer_len": values[1],
        "mechanisms.buffer_bound": bounds[1],
        "mechanisms.redraws": values[2],
        "mechanisms.redraws_bound": bounds[2],
    }, violations
