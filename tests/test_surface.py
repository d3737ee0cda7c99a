"""The package's public surface: every name in fadecount.__all__ resolves,
the names that only the tests called stay deleted, only noise.py knows how
a key becomes a draw, every integral parameter is read by one rule and
every real parameter by another, and the CLI has one exit path and one
output path."""

import ast
import inspect
import math
import pickle
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fadecount
from fadecount import (BaselineCalibration, BaselineCounter, BaselineParams,
                       CalibrationResult, ExpirationCounter, MechanismParams,
                       PrivacyLossCurve, RecordingNoise, SeededNoise,
                       SimpleCounter, analytic_mse_baseline,
                       analytic_mse_expiration, baseline_loss_curve,
                       calibrate_baseline, calibrate_epsilon,
                       closed_form_loss_bound, concentration_threshold,
                       coupling_shift, decompose,
                       empirical_loss_baseline, empirical_loss_curve,
                       empirical_loss_expiration, error_bound_expiration,
                       exact_loss_bound, floor_log2, keyed_noise,
                       laplace_sample, lower_bound_check, optimal_ratio,
                       popcount_total,
                       published_loss_bound, run_expiration,
                       simple_loss_curve, verify_coupling)
from fadecount import calibration, cli, dyadic, mechanisms, noise

SOURCES = Path(fadecount.__file__).parent
# the PRF's constants and in-place stages: every other module reaches them
# through noise's key-offset fold and Laplace-of-keys entry
PRF_INTERNALS = {"_GOLDEN", "_mix64", "_mix64_inplace", "_prf_uniform_inplace",
                 "_laplace_inplace"}


def names_in(path: Path) -> set:
    """Every name a module's syntax tree binds, reads or imports, including
    attribute names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_every_exported_name_resolves():
    assert len(set(fadecount.__all__)) == len(fadecount.__all__)
    for name in fadecount.__all__:
        assert hasattr(fadecount, name), name


def test_deleted_names_stay_gone():
    for module, name in ((mechanisms, "ZeroNoise"), (mechanisms, "run_simple"),
                         (dyadic, "intersect"),
                         # the real-parameter checks that noise._real replaced
                         (mechanisms, "_check_finite"),
                         (mechanisms, "_check_positive")):
        assert not hasattr(module, name)
        assert not hasattr(fadecount, name) and name not in fadecount.__all__
    # a DyadicInterval is a plain tuple again: `in` tests (level, index)
    assert "__contains__" not in vars(dyadic.DyadicInterval)
    assert not hasattr(calibration.BaselineCalibration, "ratio")
    # the CLI's exit and output helpers that main and _output replaced
    for name in ("_usage_error", "_checked", "_open_output", "_write_csv"):
        assert not hasattr(cli, name)


def test_only_noise_turns_keys_into_draws():
    # the scan is not vacuous: noise.py itself names each internal
    assert PRF_INTERNALS <= names_in(SOURCES / "noise.py")
    for path in sorted(SOURCES.glob("*.py")):
        if path.name != "noise.py":
            assert not PRF_INTERNALS & names_in(path), path.name
    assert "_laplace_of_keys" not in names_in(SOURCES / "mechanisms.py")


def calls_by_function(path: Path) -> dict:
    """Each top-level function of a module, by name: the calls in its body,
    nested functions included."""
    return {node.name: [call for call in ast.walk(node)
                        if isinstance(call, ast.Call)]
            for node in ast.parse(path.read_text(), str(path)).body
            if isinstance(node, ast.FunctionDef)}


def writes_a_file(call: ast.Call) -> bool:
    """An open() call whose mode is not a constant read mode."""
    if not (isinstance(call.func, ast.Name) and call.func.id == "open"):
        return False
    mode = (call.args[1:2] or [k.value for k in call.keywords
                                if k.arg == "mode"])
    return bool(mode) and not (isinstance(mode[0], ast.Constant)
                               and set(mode[0].value) <= set("rbt"))


def test_cli_has_one_exit_path_and_one_output_path():
    # only main turns an error into an exit code, and only _output opens a
    # file for writing
    exits, writes = set(), set()
    for name, calls in calls_by_function(SOURCES / "cli.py").items():
        for call in calls:
            if (isinstance(call.func, ast.Attribute)
                    and call.func.attr == "exit"):
                exits.add(name)
            if writes_a_file(call):
                writes.add(name)
    assert exits == {"main"} and writes == {"_output"}


def test_mechanisms_imports_only_what_it_uses():
    assert "noqa" not in (SOURCES / "mechanisms.py").read_text()


# ---------------------------------------------------------------------------
# one integer rule: every integral parameter is read by value, whatever its
# type, and a value that is not an integer is a ValueError naming it

XS = np.array([0.25, 1.0, 0.0, 0.5, 1.0, 0.75, 0.0, 0.5, 1.0, 0.25])
X6 = [0.5, 0.25, 0.0, 1.0, 0.5, 0.75]
X6_PRIME = X6[:2] + [1.0] + X6[3:]            # differs at position 3
P = MechanismParams(1.0, 1.0, 2)
B = BaselineParams(7, 1.0, 0.5)
GRID = list(range(12))


def expiration_uses(params):
    """What the expiration counter's consumers compute from params."""
    return (params, run_expiration(params, XS, 1),
            list(mechanisms.lagged_releases(SimpleCounter, params, XS, 1, 4)),
            exact_loss_bound(9, params), published_loss_bound(9, params),
            empirical_loss_curve(params, GRID, 40),
            analytic_mse_expiration(params, 40),
            error_bound_expiration(9, 0.1, params),
            verify_coupling(ExpirationCounter, X6, X6_PRIME, 3, 6, params, 1))


def baseline_uses(params):
    """What the baseline counter's consumers compute from params."""
    counter = BaselineCounter(params, SeededNoise(1))
    return (params, params.tree_depth, [counter.step(x) for x in XS],
            list(mechanisms.baseline_releases(params, XS, 1, 4)),
            analytic_mse_baseline(params, 40),
            baseline_loss_curve(params, GRID, 40),
            empirical_loss_baseline(10, params, 40),
            verify_coupling(BaselineCounter, X6, X6_PRIME, 3, 6, params, 1))


def ledger():
    recorder = RecordingNoise(SeededNoise(1))
    counter = ExpirationCounter(P, recorder)
    for x in X6:
        counter.step(x)
    return recorder.ledger


# (entry, parameter, an integral value of it, the entry called with a value
# in its place); a list is a grid of values
INTEGER_ROWS = [
    ("MechanismParams", "delay", 2,
     lambda v: expiration_uses(MechanismParams(1.0, 1.0, v))),
    ("BaselineParams", "window", 7,
     lambda v: baseline_uses(BaselineParams(v, 1.0, 0.5))),
    ("SeededNoise", "seed", 3, lambda v: SeededNoise(v).draw((1, 2), 1.0)),
    ("keyed_noise", "seed", 5, lambda v: keyed_noise(v, (1, 2), 1.0)),
    ("run_expiration", "seed", 3, lambda v: run_expiration(P, XS, v)),
    ("verify_coupling", "seed", 3,
     lambda v: verify_coupling(ExpirationCounter, X6, X6_PRIME, 3, 6, P, v)),
    ("verify_coupling", "j", 3,
     lambda v: verify_coupling(ExpirationCounter, X6, X6_PRIME, v, 6, P, 1)),
    ("verify_coupling", "tau", 6,
     lambda v: verify_coupling(ExpirationCounter, X6, X6_PRIME, 3, v, P, 1)),
    ("coupling_shift", "j", 3,
     lambda v: coupling_shift(ExpirationCounter, ledger(), v, 6, 0.5, P)),
    ("coupling_shift", "tau", 6,
     lambda v: coupling_shift(ExpirationCounter, ledger(), 3, v, 0.5, P)),
    ("analytic_mse_expiration", "T", 40,
     lambda v: analytic_mse_expiration(P, v)),
    ("analytic_mse_baseline", "T", 40, lambda v: analytic_mse_baseline(B, v)),
    ("calibrate_epsilon", "T", 40, lambda v: calibrate_epsilon(2.0, v)),
    ("calibrate_epsilon", "delay", 2,
     lambda v: calibrate_epsilon(2.0, 40, 1.0, v)),
    ("calibrate_baseline", "T", 40,
     lambda v: calibrate_baseline(2.0, v, 7, 0.5)),
    ("calibrate_baseline", "window", 7,
     lambda v: calibrate_baseline(2.0, 40, v, 0.5)),
    ("optimal_ratio", "T", 40, lambda v: optimal_ratio(2.0, v, 7)),
    ("optimal_ratio", "window", 7, lambda v: optimal_ratio(2.0, 40, v)),
    ("CalibrationResult", "horizon", 40,
     lambda v: CalibrationResult(0.5, 2.0, v, 2.0)),
    ("BaselineCalibration", "horizon", 40,
     lambda v: BaselineCalibration(0.5, 0.1, 2.0, v, 2.0)),
    ("error_bound_expiration", "t", 9,
     lambda v: error_bound_expiration(v, 0.1, P)),
    ("popcount_total", "m", 37, popcount_total),
    ("floor_log2", "n", 37, floor_log2),
    ("decompose", "a", 3, lambda v: decompose(v, 9)),
    ("decompose", "b", 9, lambda v: decompose(3, v)),
    ("exact_loss_bound", "d", 10, lambda v: exact_loss_bound(v, P)),
    ("closed_form_loss_bound", "d", 10,
     lambda v: closed_form_loss_bound(v, P)),
    ("published_loss_bound", "d", 10, lambda v: published_loss_bound(v, P)),
    ("empirical_loss_expiration", "d", 10,
     lambda v: empirical_loss_expiration(v, P, 40)),
    ("empirical_loss_expiration", "t_max", 40,
     lambda v: empirical_loss_expiration(10, P, v)),
    ("empirical_loss_curve", "d_values", GRID,
     lambda v: empirical_loss_curve(P, v, 40)),
    ("empirical_loss_curve", "t_max", 40,
     lambda v: empirical_loss_curve(P, GRID, v)),
    ("empirical_loss_baseline", "d", 10,
     lambda v: empirical_loss_baseline(v, B, 40)),
    ("empirical_loss_baseline", "horizon", 40,
     lambda v: empirical_loss_baseline(10, B, v)),
    ("baseline_loss_curve", "d_values", GRID,
     lambda v: baseline_loss_curve(B, v, 40)),
    ("baseline_loss_curve", "horizon", 40,
     lambda v: baseline_loss_curve(B, GRID, v)),
    ("simple_loss_curve", "d_values", GRID,
     lambda v: simple_loss_curve(P, v, 40)),
    ("simple_loss_curve", "horizon", 40,
     lambda v: simple_loss_curve(P, GRID, v)),
    ("PrivacyLossCurve", "d", GRID,
     lambda v: PrivacyLossCurve(v, np.arange(12.0))),
    ("PrivacyLossCurve.envelope_at", "d", 5,
     lambda v: PrivacyLossCurve(GRID, np.arange(12.0)).envelope_at(v)),
    ("lower_bound_check", "T", 40,
     lambda v: lower_bound_check(v, 2, 1.0, empirical_loss_curve(P, GRID, 40))),
    ("lower_bound_check", "C", 2,
     lambda v: lower_bound_check(40, v, 1.0, empirical_loss_curve(P, GRID, 40))),
    # the runners and kernels the public entries are built on
    ("expiration_noise_totals", "positions", 33,
     lambda v: mechanisms.expiration_noise_totals(P, v, 3)),
    ("expiration_noise_totals", "seed", 3,
     lambda v: mechanisms.expiration_noise_totals(P, 33, v)),
    ("expiration_max_and_mse_batch", "positions", 33,
     lambda v: mechanisms.expiration_max_and_mse_batch(P, v, [0, 3])),
    ("expiration_max_and_mse_batch", "seeds", 3,
     lambda v: mechanisms.expiration_max_and_mse_batch(P, 33, [0, v])),
    ("lagged_releases", "block", 4, lambda v: list(
        mechanisms.lagged_releases(ExpirationCounter, P, XS, 3, v))),
    ("lagged_releases", "seed", 3, lambda v: list(
        mechanisms.lagged_releases(ExpirationCounter, P, XS, v, 4))),
    ("baseline_releases", "block", 4,
     lambda v: list(mechanisms.baseline_releases(B, XS, 3, v))),
    ("baseline_releases", "seed", 3,
     lambda v: list(mechanisms.baseline_releases(B, XS, v, 4))),
    ("prf_uniform", "seed", 3, lambda v: noise.prf_uniform(v, (1, 2))),
    ("prf_uniform_array", "seed", 3,
     lambda v: noise.prf_uniform_array(v, (1,), np.arange(5))),
]
# the parameter names an integral parameter of a public entry has
INTEGRAL_NAMES = {"d", "d_values", "t", "T", "m", "n", "t_max", "horizon",
                  "positions", "block", "seed", "delay", "window"}


def same_value_in_every_type(value):
    """value as an int, an integral float, np.int64, np.uint8 and np.uint64;
    for a grid, as a list and arrays of those dtypes."""
    if isinstance(value, list):
        return [value] + [np.array(value, dtype=t) for t in
                          (np.float64, np.int64, np.uint8, np.uint64)]
    return [value, float(value), np.int64(value), np.uint8(value),
            np.uint64(value)]


def non_integers(value):
    """2.5, NaN and infinity, for a grid each in place of its last d."""
    bad = (2.5, math.nan, math.inf)
    return [value[:-1] + [b] for b in bad] if isinstance(value, list) else bad


@pytest.mark.parametrize("entry,param,value,call", INTEGER_ROWS,
                         ids=[f"{e}-{p}" for e, p, *_ in INTEGER_ROWS])
def test_integral_values_read_by_value(entry, param, value, call):
    results = {pickle.dumps(call(v)) for v in same_value_in_every_type(value)}
    assert len(results) == 1
    name = {"seeds": "seed", "d_values": "d"}.get(param, param)
    for bad in non_integers(value):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            call(bad)


def public_signatures():
    """(entry, signature) of every callable in fadecount.__all__ and of each
    public method of its classes."""
    for name in fadecount.__all__:
        obj = getattr(fadecount, name)
        if callable(obj):
            yield name, inspect.signature(obj)
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", inspect.signature(member)


def test_every_integral_parameter_has_a_row():
    rows = {(entry, param) for entry, param, *_ in INTEGER_ROWS}
    assert INTEGRAL_NAMES <= {param for _entry, param in rows}
    missing = [(entry, param) for entry, sig in public_signatures()
               for param in sig.parameters
               if param in INTEGRAL_NAMES and (entry, param) not in rows]
    assert not missing


def test_a_uint8_delay_is_the_int_delay():
    # uint8 arithmetic on the delay wrapped, and every release read 0
    xs = np.ones(8)
    got = run_expiration(MechanismParams(1.0, 1.0, np.uint8(2)), xs, 1)
    assert np.array_equal(got, run_expiration(MechanismParams(1.0, 1.0, 2),
                                              xs, 1))
    assert got[2:].all()


def test_a_fractional_seed_is_an_error():
    # it was truncated to the seed below it
    with pytest.raises(ValueError, match=r"^seed must be an integer, got 3\.7$"):
        SeededNoise(3.7)
    with pytest.raises(ValueError, match=r"^seed must be an integer, got 3\.7$"):
        mechanisms.expiration_max_and_mse_batch(P, 8, [3.7])


@pytest.mark.parametrize("low,kind", [
    (None, "an integer"), (0, "a nonnegative integer"),
    (1, "a positive integer"), (9, "an integer >= 9")])
def test_reader_names_the_parameter(low, kind):
    for good in (9, True, np.int8(9), np.uint64(9), 9.0, np.float32(9.0)):
        if low is None or good >= low:
            assert type(noise._integer("x", good, low)) is int
    for bad in (2.5, math.nan, math.inf, "9", None, 1j, -1, np.int64(-1)):
        if isinstance(bad, (int, np.integer)) and low is None:
            continue
        with pytest.raises(ValueError, match=f"^x must be {kind}, got "):
            noise._integer("x", bad, low)


# ---------------------------------------------------------------------------
# one real rule: every real parameter is read by value, a numpy number as
# its Python value, and a value of another type, a NaN, an infinity or one
# out of range is a ValueError naming it

CURVE = empirical_loss_curve(P, GRID, 40)

# (entry, parameter, a value of it exact in float16, the entry called with a
# value in its place)
REAL_ROWS = [
    ("MechanismParams", "epsilon", 0.5,
     lambda v: expiration_uses(MechanismParams(v, 1.0, 2))),
    ("MechanismParams", "level_exponent", 1.5,
     lambda v: expiration_uses(MechanismParams(1.0, v, 2))),
    ("BaselineParams", "eps_cur", 1.5,
     lambda v: baseline_uses(BaselineParams(7, v, 0.5))),
    ("BaselineParams", "eps_past", 0.25,
     lambda v: baseline_uses(BaselineParams(7, 1.0, v))),
    ("CalibrationResult", "epsilon", 0.5,
     lambda v: CalibrationResult(v, 2.0, 40, 2.0)),
    ("CalibrationResult", "achieved_mse", 2.0,
     lambda v: CalibrationResult(0.5, v, 40, 2.0)),
    ("CalibrationResult", "target_mse", 2.0,
     lambda v: CalibrationResult(0.5, 2.0, 40, v)),
    ("BaselineCalibration", "eps_cur", 0.5,
     lambda v: BaselineCalibration(v, 0.125, 2.0, 40, 2.0)),
    ("BaselineCalibration", "eps_past", 0.125,
     lambda v: BaselineCalibration(0.5, v, 2.0, 40, 2.0)),
    ("BaselineCalibration", "achieved_mse", 2.0,
     lambda v: BaselineCalibration(0.5, 0.125, v, 40, 2.0)),
    ("BaselineCalibration", "target_mse", 2.0,
     lambda v: BaselineCalibration(0.5, 0.125, 2.0, 40, v)),
    ("calibrate_epsilon", "target_mse", 2.0,
     lambda v: calibrate_epsilon(v, 40)),
    ("calibrate_epsilon", "level_exponent", 1.5,
     lambda v: calibrate_epsilon(2.0, 40, v)),
    ("calibrate_baseline", "target_mse", 2.0,
     lambda v: calibrate_baseline(v, 40, 7, 0.5)),
    ("calibrate_baseline", "ratio", 0.25,
     lambda v: calibrate_baseline(2.0, 40, 7, v)),
    ("optimal_ratio", "target_mse", 2.0, lambda v: optimal_ratio(v, 40, 7)),
    ("error_bound_expiration", "beta", 0.125,
     lambda v: error_bound_expiration(9, v, P)),
    ("concentration_threshold", "beta", 0.125,
     lambda v: concentration_threshold([1.0, 0.5], v)),
    ("concentration_threshold", "scales", 0.5,
     lambda v: concentration_threshold([1.0, v], 0.125)),
    ("keyed_noise", "scale", 0.5, lambda v: keyed_noise(5, (1, 2), v)),
    ("laplace_sample", "scale", 0.5, lambda v: laplace_sample(v, 0.25)),
    ("laplace_sample", "uniform", 0.25, lambda v: laplace_sample(0.5, v)),
    ("SeededNoise.draw", "scale", 0.5,
     lambda v: SeededNoise(3).draw((1, 2), v)),
    ("RecordingNoise.draw", "scale", 0.5,
     lambda v: RecordingNoise(SeededNoise(3)).draw((1, 2), v)),
    ("lower_bound_check", "epsilon", 1.5,
     lambda v: lower_bound_check(40, 2, v, CURVE)),
    ("coupling_shift", "y", -0.5,
     lambda v: coupling_shift(ExpirationCounter, ledger(), 3, 6, v, P)),
    # the array lane the public entries draw through
    ("laplace_sample_array", "scale", 0.5,
     lambda v: noise.laplace_sample_array(v, np.array([0.25, 0.5, 0.75]))),
]
# the parameter names a real parameter of a public entry has
REAL_NAMES = {"epsilon", "level_exponent", "eps_cur", "eps_past",
              "target_mse", "achieved_mse", "ratio", "beta", "scales",
              "scale", "uniform", "y"}
# ReplayNoise.draw returns its ledger's value and draws nothing: the scale
# it is handed is never read
UNREAD = {("ReplayNoise.draw", "scale")}
# a string, None, a complex number, NaN, infinities, and -2, outside every
# kind's range
NON_REALS = ("0.5", None, 1j, math.nan, math.inf, -math.inf, -2.0)


@pytest.mark.parametrize("entry,param,value,call", REAL_ROWS,
                         ids=[f"{e}-{p}" for e, p, *_ in REAL_ROWS])
def test_real_values_read_by_value(entry, param, value, call):
    assert np.float16(value) == value
    results = {pickle.dumps(call(t(value)))
               for t in (float, np.float64, np.float32, np.float16)}
    assert len(results) == 1
    name = {"scales": "scale"}.get(param, param)
    for bad in NON_REALS:
        with pytest.raises(ValueError, match=f"^{name} must be "):
            call(bad)


def test_every_real_parameter_has_a_row():
    rows = {(entry, param) for entry, param, *_ in REAL_ROWS}
    assert REAL_NAMES <= {param for _entry, param in rows}
    missing = [(entry, param) for entry, sig in public_signatures()
               for param in sig.parameters
               if param in REAL_NAMES and (entry, param) not in rows | UNREAD]
    assert not missing


@pytest.mark.parametrize("kind,good,bad", [
    ("positive", (3, Fraction(1, 3), 0.5, True), (0, 0.0, -1)),
    ("nonnegative", (0, Fraction(0), 0.0, 7), (-1, Fraction(-1, 3))),
    ("in (0, 1)", (Fraction(1, 3), 0.5), (0, 1, 1.0, Fraction(4, 3))),
    ("in [-1, 1]", (-1, Fraction(-1, 3), 0.0, 1.0), (-1.5, Fraction(4, 3)))])
def test_real_reader_names_the_parameter(kind, good, bad):
    # Python numbers pass unchanged, Fractions stay exact
    for value in good:
        got = noise._real("x", value, kind)
        assert got == value and type(got) is type(value)
    # numpy numbers become Python ones, exactly
    for value in (np.float32(0.3), np.float16(0.5), np.float64(0.75)):
        got = noise._real("x", value, kind)
        assert got == value and type(got) is float
    if kind != "in (0, 1)":     # which holds no integer
        assert type(noise._real("x", np.uint8(1), kind)) is int
    for value in bad:
        with pytest.raises(ValueError,
                           match=rf"^x must be {re.escape(kind)}, got "):
            noise._real("x", value, kind)
    for value, rule in (("0.5", "a real number"), (None, "a real number"),
                        (1j, "a real number"), (np.complex64(0.5), "a real "
                        "number"), (np.longdouble(0.5), "a real number"),
                        (math.nan, "finite"), (-math.inf, "finite")):
        with pytest.raises(ValueError, match=rf"^x must be {rule}, got "):
            noise._real("x", value, kind)


def test_a_float32_target_mse_hits_its_target():
    # the relative error was computed in float32 and read 6.1e-08
    got = calibrate_epsilon(np.float32(1000.0), 100)
    assert got == calibrate_epsilon(1000.0, 100)
    assert type(got.target_mse) is float


def test_a_float32_scale_draws_the_array_lanes_value():
    # keyed_noise returned a float32 where the array lane gave a float64
    got = keyed_noise(3, (1, 2), np.float32(0.3))
    lane = noise.laplace_sample_array(
        np.float32(0.3), noise.prf_uniform_array(3, (1,), np.array([2])))
    assert type(got) is float and got == lane[0]


def test_step_equals_the_runners_for_a_float32_budget():
    # step drew at float32 scales and the runners at float64 ones: they
    # disagreed in 297 of 300 releases (expiration), 300 of 300 (baseline)
    xs = np.random.default_rng(7).random(300)
    params = MechanismParams(np.float32(0.3), 2.0, 3)
    counter = ExpirationCounter(params, SeededNoise(5))
    stepped = [counter.step(x) for x in xs]
    assert run_expiration(params, xs, 5).tolist() == stepped
    assert stepped == run_expiration(
        MechanismParams(float(np.float32(0.3)), 2.0, 3), xs, 5).tolist()
    params = BaselineParams(7, np.float32(0.6), np.float32(0.06))
    counter = BaselineCounter(params, SeededNoise(5))
    got = np.concatenate(list(mechanisms.baseline_releases(params, xs, 5, 64)))
    assert got.tolist() == [counter.step(x) for x in xs]


def test_fraction_budgets_run_on_the_baseline_runner():
    # the array lane multiplied by -Fraction and raised UFuncTypeError
    params = BaselineParams(7, Fraction(3, 5), Fraction(3, 50))
    xs = np.random.default_rng(8).random(100)
    counter = BaselineCounter(params, SeededNoise(2))
    stepped = [counter.step(x) for x in xs]
    got = np.concatenate(list(mechanisms.baseline_releases(params, xs, 2, 16)))
    assert got.tolist() == stepped
    us = np.array([0.25, 0.5, 0.75])
    assert noise.laplace_sample_array(Fraction(1, 3), us).tolist() == [
        laplace_sample(Fraction(1, 3), u) for u in us]


def test_float32_streams_verify_as_float_streams():
    # Fraction(np.float32(...)) raised a bare TypeError
    x32, x32_prime = np.float32(X6), np.float32(X6_PRIME)
    for counter, params in ((ExpirationCounter, P), (BaselineCounter, B)):
        assert verify_coupling(counter, x32, x32_prime, 3, 6, params, 1) == \
            verify_coupling(counter, X6, X6_PRIME, 3, 6, params, 1)
