import csv
import io
import os
import subprocess
import sys
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadecount import cli
from fadecount.cli import main
from fadecount.mechanisms import (BaselineCounter, BaselineParams,
                                  ExpirationCounter, MechanismParams,
                                  SeededNoise, SimpleCounter, run_expiration)
from fadecount.noise import plain_sum
from fadecount.privacy_audit import (empirical_loss_baseline,
                                     empirical_loss_expiration,
                                     published_loss_bound)
from noise_oracles import step_loop_run


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestRun:
    def test_generator_stream(self, tmp_path):
        out = tmp_path / "run.csv"
        rc = main(["run", "--mechanism", "expiration", "--epsilon", "0.5",
                   "--generator", "ones", "--t-max", "40", "--seed", "3",
                   "--output", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 40
        assert [r["t"] for r in rows] == [str(t) for t in range(1, 41)]
        # true sums of the all-ones stream, and errors consistent
        for t, row in enumerate(rows, start=1):
            assert float(row["true_sum"]) == t
            assert float(row["abs_error"]) == pytest.approx(
                abs(float(row["released"]) - t))
        # released values must round-trip to the library run bit-for-bit
        params = MechanismParams(0.5, 1.0, 0)
        expected = run_expiration(params, np.ones(40), seed=3)
        got = np.array([float(r["released"]) for r in rows])
        assert np.array_equal(got, expected)

    def test_file_stream(self, tmp_path):
        stream = tmp_path / "xs.txt"
        stream.write_text("0.5\n1\n0\n0.25\n")
        out = tmp_path / "run.csv"
        rc = main(["run", "--mechanism", "simple", "--epsilon", "1.0",
                   "--input", str(stream), "--output", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 4
        assert float(rows[-1]["true_sum"]) == 1.75
        assert float(rows[0]["released"]) == 0.0

    def test_file_stream_truncated_by_t_max(self, tmp_path):
        stream = tmp_path / "xs.txt"
        stream.write_text("1\n" * 10)
        out = tmp_path / "run.csv"
        rc = main(["run", "--mechanism", "log", "--epsilon", "1.0",
                   "--input", str(stream), "--t-max", "6",
                   "--output", str(out)])
        assert rc == 0
        assert len(read_csv(out)) == 6

    def test_bad_line_reports_line_number(self, tmp_path, capsys):
        stream = tmp_path / "xs.txt"
        stream.write_text("0.5\nbogus\n0\n")
        rc = main(["run", "--epsilon", "1.0", "--input", str(stream),
                   "--output", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("text, t_max, want", [
        ("0.5\n1\n\n", None, [0.5, 1.0]),             # blank last line
        ("0.5\n\n  \t\n1\n", None, [0.5, 1.0]),     # blank lines inside
        ("\n1\n\n0.25\n\n0\n1\n", 3, [1.0, 0.25, 0.0]),  # t_max counts values
    ])
    def test_blank_lines_are_skipped(self, tmp_path, text, t_max, want):
        stream = tmp_path / "xs.txt"
        stream.write_text(text)
        out = tmp_path / "run.csv"
        argv = ["run", "--epsilon", "1.0", "--input", str(stream),
                "--output", str(out)]
        rc = main(argv + (["--t-max", str(t_max)] if t_max else []))
        assert rc == 0
        sums = [float(row["true_sum"]) for row in read_csv(out)]
        assert sums == list(np.cumsum(want))

    def test_line_numbers_count_blank_lines(self, tmp_path, capsys):
        stream = tmp_path / "xs.txt"
        stream.write_text("0.5\n\nbogus\n")
        rc = main(["run", "--epsilon", "1.0", "--input", str(stream),
                   "--output", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "line 3: 'bogus'" in capsys.readouterr().err

    def test_only_blank_lines_is_no_stream(self, tmp_path, capsys):
        stream = tmp_path / "xs.txt"
        stream.write_text("\n   \n\n")
        rc = main(["run", "--epsilon", "1.0", "--input", str(stream),
                   "--output", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "contains no stream values" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["0.2_5", "1_0", "\u0660.\u0665",
                                      "nan", "infinity"])
    def test_value_that_is_not_a_decimal(self, tmp_path, capsys, text):
        # float() takes all of these; a stream file holds decimals only
        stream = tmp_path / "xs.txt"
        stream.write_text(f"0.5\n{text}\n")
        out = tmp_path / "o.csv"
        rc = main(["run", "--epsilon", "1.0", "--input", str(stream),
                   "--output", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"input error: line 2: {text!r} is not a decimal value\n")
        assert not out.exists()

    def test_decimal_forms_parse(self, tmp_path, capsys):
        lines = ["1e-3", ".5", "+0.5", "1.", " 0.5 ", "-0", "5E-1"]
        stream = tmp_path / "xs.txt"
        stream.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o.csv"
        rc = main(["run", "--epsilon", "1.0", "--input", str(stream),
                   "--output", str(out)])
        assert rc == 0
        sums = [float(row["true_sum"]) for row in read_csv(out)]
        assert sums == list(np.cumsum([float(v) for v in lines]))
        # '5.' is a decimal too, so it is out of range, not unparsable
        stream.write_text("5.\n")
        rc = main(["run", "--epsilon", "1.0", "--input", str(stream),
                   "--output", str(out)])
        assert rc == 1
        assert "line 1: value 5. outside [0,1]" in capsys.readouterr().err

    def test_out_of_range_value(self, tmp_path, capsys):
        stream = tmp_path / "xs.txt"
        stream.write_text("0.5\n1.5\n")
        rc = main(["run", "--epsilon", "1.0", "--input", str(stream),
                   "--output", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err

    def test_unknown_generator(self, tmp_path, capsys):
        # the last three look like bernoulli(p), but p is no decimal
        for spec in ("what", "bernoulli(1e)", "bernoulli(..)",
                     "bernoulli(+-1)"):
            rc = main(["run", "--epsilon", "1.0", "--generator", spec,
                       "--t-max", "5", "--output", str(tmp_path / "o.csv")])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("input error: ") and "generator" in err
            assert err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()

    def test_undecodable_file(self, tmp_path, capsys):
        stream = tmp_path / "xs.txt"
        stream.write_bytes(b"0.5\n\xff\xfe\x00\n1\n")
        out = tmp_path / "o.csv"
        rc = main(["run", "--epsilon", "1.0", "--input", str(stream),
                   "--output", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: cannot read ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_bernoulli_generator_is_deterministic(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            rc = main(["run", "--epsilon", "1.0",
                       "--generator", "bernoulli(0.3)", "--t-max", "64",
                       "--seed", "9", "--output", str(out)])
            assert rc == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_log_is_expiration_at_lambda_one_without_delay(self, tmp_path):
        outs = []
        for name, flags in (("log.csv", ["--mechanism", "log"]),
                            ("exp.csv", ["--mechanism", "expiration",
                                         "--lambda", "1", "--delay", "0"])):
            out = tmp_path / name
            rc = main(["run", *flags, "--epsilon", "0.7",
                       "--generator", "bernoulli(0.5)", "--t-max", "300",
                       "--seed", "9", "--output", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_baseline_needs_window_args(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--mechanism", "baseline", "--generator", "zeros",
                  "--t-max", "5", "--output", str(tmp_path / "o.csv")])
        assert exc.value.code == 2

    def test_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--epsilon", "1.0",
                  "--output", str(tmp_path / "o.csv")])
        assert exc.value.code == 2


# run's flags, counter and its parameters at a delay, per mechanism; only
# expiration reads --delay
_RUN_MECHANISMS = {
    "simple": (["--epsilon", "0.5"], SimpleCounter,
               lambda delay: MechanismParams(0.5)),
    "log": (["--epsilon", "0.5"], ExpirationCounter,
            lambda delay: MechanismParams(0.5)),
    "expiration": (["--epsilon", "0.7", "--lambda", "2"], ExpirationCounter,
                   lambda delay: MechanismParams(0.7, 2.0, delay)),
    "baseline": (["--window", "5", "--eps-cur", "0.6", "--eps-past", "0.06"],
                 BaselineCounter, lambda delay: BaselineParams(5, 0.6, 0.06)),
}


def _run_and_oracle(workdir, mech, delay, source, xs, seed):
    """(bytes `run` wrote, bytes the per-row step loop writes) for stream
    xs, given as an --input file of reprs or as --generator bernoulli(0.4)
    (then xs must be what it draws)."""
    flags, counter, params = _RUN_MECHANISMS[mech]
    argv = ["run", "--mechanism", mech, *flags, "--seed", str(seed)]
    if mech == "expiration":
        argv += ["--delay", str(delay)]
    if source == "input":
        path = os.path.join(workdir, "xs.txt")
        with open(path, "w") as fh:
            fh.writelines(f"{x!r}\n" for x in xs)
        argv += ["--input", path]
    else:
        argv += ["--generator", "bernoulli(0.4)", "--t-max", str(len(xs))]
    out = os.path.join(workdir, "run.csv")
    assert main([*argv, "--output", out]) == 0
    want = io.StringIO()
    step_loop_run(want, counter(params(delay), SeededNoise(seed)), xs)
    with open(out, "rb") as fh:
        return fh.read(), want.getvalue().encode()


def _bernoulli_stream(t_max, seed):
    """What --generator bernoulli(0.4) draws."""
    return (np.random.default_rng(seed).random(t_max) < 0.4).astype(float)


class TestRunBlocks:
    """`run` writes blocks of rows from the vectorized kernels (the baseline
    steps its counter); the per-row step loop it replaced is the oracle."""

    @given(st.sampled_from(sorted(_RUN_MECHANISMS)),
           st.sampled_from([0, 1, 16]),
           st.sampled_from(["input", "generator"]),
           st.sampled_from([1, 2, 3] + [8 * k + d for k in range(1, 6)
                                        for d in (-1, 0, 1)]),
           st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.25, 1.0]),
                              st.floats(0.0, 1.0)), min_size=41,
                    max_size=41),
           st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_small_blocks_equal_step_loop(self, mech, delay, source, t_max,
                                          values, seed):
        xs = (values[:t_max] if source == "input"
              else _bernoulli_stream(t_max, seed))
        with tempfile.TemporaryDirectory() as workdir, \
                mock.patch.object(cli, "_CSV_BLOCK", 8):
            got, want = _run_and_oracle(workdir, mech, delay, source, xs,
                                        seed)
        assert got == want

    @pytest.mark.parametrize("mech,delay,blocks,extra", [
        *((mech, 0, 1, extra) for mech in sorted(_RUN_MECHANISMS)
          for extra in (-1, 0, 1)),
        ("expiration", 16, 2, 1)])
    def test_blocks_equal_step_loop(self, tmp_path, mech, delay, blocks,
                                    extra):
        t_max = blocks * cli._CSV_BLOCK + extra
        xs = _bernoulli_stream(t_max, 5)
        got, want = _run_and_oracle(str(tmp_path), mech, delay, "generator",
                                    xs, 5)
        assert got == want

    def test_float_input_file_equals_step_loop(self, tmp_path):
        xs = np.random.default_rng(8).random(4097).tolist()
        got, want = _run_and_oracle(str(tmp_path), "expiration", 16, "input",
                                    xs, 9)
        assert got == want

    def test_memory_does_not_grow_with_steps(self, tmp_path, monkeypatch):
        # the traced peak after the stream is built, less the stream's own
        # 8 bytes a value: one block's columns, CSV text and kernel scratch
        generate = cli._generate_stream

        def generate_then_reset_peak(*args):
            xs = generate(*args)
            tracemalloc.reset_peak()
            return xs

        monkeypatch.setattr(cli, "_generate_stream", generate_then_reset_peak)
        argv = ["run", "--mechanism", "expiration", "--epsilon", "0.5",
                "--lambda", "2", "--delay", "16", "--generator",
                "bernoulli(0.3)", "--output", str(tmp_path / "o.csv")]
        assert main([*argv, "--t-max", "5000"]) == 0  # first-call imports
        extra = {}
        for t_max in (1 << 16, 1 << 18):
            tracemalloc.start()
            try:
                assert main([*argv, "--t-max", str(t_max)]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra[t_max] = peak - 8 * t_max
        # 0.43 MiB at both sizes when measured
        assert max(extra.values()) < 1 << 20
        assert abs(extra[1 << 18] - extra[1 << 16]) < 64 << 10


class TestAudit:
    def test_expiration_curve(self, tmp_path):
        out = tmp_path / "audit.csv"
        rc = main(["audit", "--mechanism", "expiration", "--epsilon", "0.5",
                   "--d-max", "20", "--t-max", "256", "--output", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 21
        params = MechanismParams(0.5, 1.0, 0)
        for d, row in enumerate(rows):
            assert float(row["loss_empirical"]) == \
                empirical_loss_expiration(d, params, 256)
            assert float(row["loss_theoretical"]) == \
                published_loss_bound(d, params)
        env = [float(r["loss_envelope"]) for r in rows]
        assert env == sorted(env)

    def test_baseline_curve_has_empty_theory_column(self, tmp_path):
        out = tmp_path / "audit.csv"
        rc = main(["audit", "--mechanism", "baseline", "--window", "8",
                   "--eps-cur", "1.0", "--eps-past", "0.1",
                   "--d-max", "10", "--output", str(out)])
        assert rc == 0
        rows = read_csv(out)
        params = BaselineParams(8, 1.0, 0.1)
        for d, row in enumerate(rows):
            assert row["loss_theoretical"] == ""
            assert float(row["loss_empirical"]) == pytest.approx(
                empirical_loss_baseline(d, params, 11))

    def test_mse_calibrated_audit(self, tmp_path):
        out = tmp_path / "audit.csv"
        rc = main(["audit", "--mechanism", "expiration", "--mse", "1000",
                   "--d-max", "5", "--t-max", "1000", "--output", str(out)])
        assert rc == 0
        rows = read_csv(out)
        # d=0 loss is exactly the calibrated epsilon at lambda=1
        assert float(rows[0]["loss_empirical"]) == \
            pytest.approx(0.13406714735534578)

    @pytest.mark.parametrize("mechanism", [
        ["--mechanism", "expiration", "--epsilon", "0.5"],
        ["--mechanism", "expiration", "--mse", "1000"],
        ["--mechanism", "baseline", "--window", "8", "--eps-cur", "1.0",
         "--eps-past", "0.1"]])
    @pytest.mark.parametrize("t_max", ["0", "-2"])
    def test_t_max_below_one_is_usage_error(self, tmp_path, capsys,
                                            mechanism, t_max):
        out = tmp_path / "audit.csv"
        with pytest.raises(SystemExit) as exc:
            main(["audit", *mechanism, "--d-max", "10", "--t-max", t_max,
                  "--output", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"fadecount audit: error: --t-max must be >= 1, got {t_max}"]
        assert not out.exists()


# per family of the CLI's table: (counter, params, audit flags) cases
_COUPLED = {
    "simple": [(SimpleCounter, MechanismParams(0.3), ["--epsilon", "0.3"])],
    "log": [(ExpirationCounter, MechanismParams(0.5), ["--epsilon", "0.5"])],
    "expiration": [
        (ExpirationCounter, MechanismParams(0.7, lam, delay),
         ["--epsilon", "0.7", "--lambda", str(lam), "--delay", str(delay)])
        for lam in (0, 1, 2, 3) for delay in (0, 3)],
    "baseline": [(BaselineCounter, BaselineParams(31, 0.6, 0.06),
                  ["--window", "31", "--eps-cur", "0.6",
                   "--eps-past", "0.06"])],
}
_COUPLED_CASES = [(mech, *case) for mech, cases in _COUPLED.items()
                  for case in cases]
_COUPLED_IDS = ["-".join([mech] + [f.lstrip("-") for f in flags])
                for mech, _c, _p, flags in _COUPLED_CASES]


def _audit_and_coupling(tmp_path, mech, counter, params, flags):
    """(audited loss, largest coupling cost C) at every d <= 63 of a stream
    of 64 inputs: C(d) is the largest cost of counter.coupling_keys over
    j <= 64 at tau = j + d, its budgets summed in the rule's order."""
    out = tmp_path / "audit.csv"
    assert main(["audit", "--mechanism", mech, *flags, "--d-max", "63",
                 "--t-max", "64", "--output", str(out)]) == 0
    loss = np.array([float(r["loss_empirical"]) for r in read_csv(out)])
    cost = np.array([max(plain_sum(b for _, b in counter.coupling_keys(
        params, j, j + d)) for j in range(1, 65)) for d in range(64)])
    return loss, cost


class TestAuditAgainstCoupling:
    """Each family's audit against the coupling rule of its counter.

    The audit and the rule add the same budgets in different orders, so
    they may differ by rounding: 1e-12 relative is allowed either way."""

    def test_every_family_is_covered(self):
        assert set(_COUPLED) == set(cli.MECHANISMS)

    @pytest.mark.parametrize("mech,counter,params,flags", _COUPLED_CASES,
                             ids=_COUPLED_IDS)
    def test_audit_dominates_coupling(self, tmp_path, mech, counter, params,
                                      flags):
        loss, cost = _audit_and_coupling(tmp_path, mech, counter, params,
                                         flags)
        assert np.all(loss >= cost * (1 - 1e-12))

    @pytest.mark.parametrize("mech,counter,params,flags", [
        pytest.param(*case, marks=pytest.mark.xfail(
            strict=True, reason="the baseline's audit charges even tree "
            "nodes, which no release sums") if case[0] == "baseline" else ())
        for case in _COUPLED_CASES], ids=_COUPLED_IDS)
    def test_audit_equals_coupling(self, tmp_path, mech, counter, params,
                                   flags):
        loss, cost = _audit_and_coupling(tmp_path, mech, counter, params,
                                         flags)
        np.testing.assert_allclose(loss, cost, rtol=1e-12, atol=0)

    def test_simple_writes_epsilon_times_d(self, tmp_path):
        out = tmp_path / "audit.csv"
        assert main(["audit", "--mechanism", "simple", "--epsilon", "0.3",
                     "--d-max", "5", "--output", str(out)]) == 0
        rows = read_csv(out)
        assert [float(r["loss_empirical"]) for r in rows] == \
            [0.3 * d for d in range(6)]
        assert [r["loss_theoretical"] for r in rows] == [""] * 6

    def test_log_is_expiration_at_lambda_one_without_delay(self, tmp_path):
        outs = []
        for flags in (["--mechanism", "log"],
                      ["--lambda", "1", "--delay", "0"]):
            out = tmp_path / "audit.csv"
            assert main(["audit", *flags, "--epsilon", "0.5", "--d-max",
                         "300", "--t-max", "77", "--output", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestCalibrate:
    def test_expiration_output(self, capsys):
        rc = main(["calibrate", "--mse", "1000", "--t-max", "1000"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "epsilon = 0.1341" in text
        assert "achieved_mse = 1000" in text

    def test_baseline_output(self, capsys):
        rc = main(["calibrate", "--mse", "1000", "--t-max", "1000",
                   "--window", "31", "--ratio", "0.1"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "eps_cur = 0.5678" in text
        assert "eps_past = 0.05678" in text

    def test_optimal_ratio_flag(self, capsys):
        rc = main(["calibrate", "--mse", "1000", "--t-max", "1000",
                   "--window", "63", "--optimal-ratio"])
        assert rc == 0
        assert "ratio = 0.08299" in capsys.readouterr().out


class TestFigures:
    def test_three_series_bundle(self, tmp_path):
        rc = main(["figures", "2b", "--output", str(tmp_path),
                   "--d-max", "64"])
        assert rc == 0
        for lam in (1, 2, 3):
            rows = read_csv(tmp_path / f"fig2b_lambda{lam}.csv")
            assert [r["d"] for r in rows] == [str(d) for d in range(65)]
            env = [float(r["loss"]) for r in rows]
            assert env == sorted(env)  # envelopes are nondecreasing

    def test_theory_overlay_bundle(self, tmp_path):
        rc = main(["figures", "2a", "--output", str(tmp_path),
                   "--d-max", "32"])
        assert rc == 0
        emp = read_csv(tmp_path / "fig2a_lambda2.csv")
        theo = read_csv(tmp_path / "fig2a_theoretical_lambda2.csv")
        assert len(emp) == len(theo) == 33
        for e_row, t_row in zip(emp, theo):
            assert float(e_row["loss"]) <= float(t_row["loss"]) + 1e-12

    def test_window_bundle(self, tmp_path):
        rc = main(["figures", "3", "--output", str(tmp_path),
                   "--d-max", "40"])
        assert rc == 0
        for w in (31, 63, 127):
            assert (tmp_path / f"fig3_window{w}.csv").exists()

    def test_grid_is_dense_then_sparse(self, tmp_path):
        rc = main(["figures", "2b", "--output", str(tmp_path),
                   "--d-max", "999"])
        assert rc == 0
        rows = read_csv(tmp_path / "fig2b_lambda1.csv")
        ds = [int(r["d"]) for r in rows]
        assert ds == sorted(set(ds))
        assert ds[:129] == list(range(129))  # dense early part
        assert ds[-1] == 999

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit) as exc:
            main(["figures", "9z"])
        assert exc.value.code == 2


class TestCsvWriter:
    @pytest.mark.parametrize("block", range(1, 8))
    def test_matches_per_element_repr(self, monkeypatch, block):
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
        ds = np.arange(12, dtype=np.int64) * 7
        # -0.0 and 0.0 in one column, a subnormal, repeats across blocks
        a = np.array([0.0, -0.0, 5e-324, 0.1, 0.0, 1 / 3, -0.0, 1e300,
                      2.5e-310, 0.1, 0.30000000000000004, -7.0])
        b = np.cumsum(a)[::-1].copy()
        out = io.StringIO()
        cli._write_csv(out, "d,a,b,none", [ds, a, b, None])
        want = "d,a,b,none\n" + "".join(
            f"{int(d)},{float(x)!r},{float(y)!r},\n"
            for d, x, y in zip(ds, a, b))
        assert out.getvalue() == want

    def test_empty_columns_write_only_the_header(self):
        out = io.StringIO()
        cli._write_csv(out, "d,loss", [np.arange(0), np.zeros(0)])
        assert out.getvalue() == "d,loss\n"


class TestUsageErrors:
    GEN = ["--generator", "zeros", "--t-max", "5"]

    @pytest.mark.parametrize("argv,message", [
        (["run", "--epsilon", "-1", *GEN, "--output", "{out}"],
         "epsilon must be positive, got -1.0"),
        (["run", "--mechanism", "baseline", "--window", "0", "--eps-cur", "1",
          "--eps-past", "0.1", *GEN, "--output", "{out}"],
         "window must be a positive integer, got 0"),
        (["run", "--epsilon", "1", "--generator", "zeros", "--t-max", "-1",
          "--output", "{out}"], "--t-max must be >= 1, got -1"),
        (["run", "--epsilon", "1", *GEN, "--output", "{missing}"],
         "cannot write {missing}: No such file or directory"),
        (["calibrate", "--mse", "1000", "--window", "100", "--t-max", "100",
          "--optimal-ratio"], "need window < T, got window=100, T=100"),
        (["calibrate", "--mse", "1000", "--t-max", "4", "--delay", "8"],
         "horizon entirely inside the delay: nothing to calibrate"),
        (["audit", "--mse", "1000", "--d-max", "10", "--t-max", "4",
          "--delay", "8", "--output", "{out}"],
         "horizon entirely inside the delay: nothing to calibrate"),
        (["audit", "--epsilon", "1", "--d-max", "10", "--output", "{missing}"],
         "cannot write {missing}: No such file or directory"),
        (["figures", "2b", "--output", "{missing_dir}"],
         "cannot create {missing_dir}: Not a directory"),
        (["run", "--mechanism", "log", "--epsilon", "0", *GEN,
          "--output", "{out}"], "epsilon must be positive, got 0.0"),
        (["calibrate", "--mse", "1000", "--window", "0", "--t-max", "100",
          "--optimal-ratio"], "window must be a positive integer, got 0"),
        (["run", "--epsilon", "nan", *GEN, "--output", "{out}"],
         "epsilon must be finite, got nan"),
        (["audit", "--epsilon", "nan", "--d-max", "10", "--output", "{out}"],
         "epsilon must be finite, got nan"),
        (["audit", "--epsilon", "inf", "--d-max", "10", "--output", "{out}"],
         "epsilon must be finite, got inf"),
        (["audit", "--mse", "nan", "--d-max", "10", "--output", "{out}"],
         "target_mse must be finite, got nan"),
        (["audit", "--epsilon", "1", "--lambda", "nan", "--d-max", "10",
          "--output", "{out}"], "level_exponent must be finite, got nan"),
        (["audit", "--mse", "1000", "--lambda", "nan", "--d-max", "10",
          "--output", "{out}"], "level_exponent must be finite, got nan"),
        (["calibrate", "--mse", "nan", "--t-max", "100"],
         "target_mse must be finite, got nan"),
        (["calibrate", "--mse", "1000", "--window", "10", "--t-max", "100",
          "--ratio", "inf"], "ratio must be finite, got inf"),
        (["run", "--mechanism", "baseline", "--window", "4", "--eps-cur",
          "inf", "--eps-past", "0.1", *GEN, "--output", "{out}"],
         "eps_cur must be finite, got inf"),
        (["audit", "--mechanism", "baseline", "--window", "4", "--eps-cur",
          "1", "--eps-past", "nan", "--d-max", "10", "--output", "{out}"],
         "eps_past must be finite, got nan"),
        (["calibrate", "--mse", "100", "--t-max", "1000", "--optimal-ratio"],
         "--optimal-ratio needs --window"),
        # flags the mechanism does not read
        (["run", "--mechanism", "log", "--epsilon", "1", "--lambda", "3",
          "--delay", "5", *GEN, "--output", "{out}"],
         "--lambda is not read by --mechanism log"),
        (["calibrate", "--mse", "100", "--t-max", "1000", "--window", "63",
          "--lambda", "3", "--delay", "9"],
         "--lambda is not read with --window"),
        (["audit", "--epsilon", "1", "--mse", "100", "--d-max", "3",
          "--output", "{out}"],
         "--epsilon is not read by --mechanism expiration with --mse"),
        (["calibrate", "--mse", "100", "--t-max", "1000", "--window", "63",
          "--ratio", "0.2", "--optimal-ratio"],
         "--ratio is not read with --window --optimal-ratio"),
        # flags a mechanism needs
        (["run", "--mechanism", "baseline", "--window", "4", *GEN,
          "--output", "{out}"],
         "--mechanism baseline needs --eps-cur and --eps-past"),
        (["audit", "--d-max", "3", "--output", "{out}"],
         "--mechanism expiration needs --epsilon or --mse"),
        (["run", "--epsilon", "1", "--output", "{out}"],
         "exactly one of --input / --generator is required"),
        # values past what the kernels take
        (["audit", "--epsilon", "1", "--d-max", "99999999999999999999",
          "--output", "{out}"],
         "--d-max must be in [0, 2^62), got 99999999999999999999"),
        (["audit", "--epsilon", "1", "--d-max", "9223372036854775807",
          "--output", "{out}"],
         "--d-max must be in [0, 2^62), got 9223372036854775807"),
        (["figures", "2a", "--d-max", "4611686018427387904",
          "--output", "{out}"],
         "--d-max must be in [0, 2^62), got 4611686018427387904"),
        (["figures", "2a", "--d-max", "99999999999999999999",
          "--output", "{out}"],
         "--d-max must be in [0, 2^62), got 99999999999999999999"),
        (["audit", "--mechanism", "baseline", "--window",
          "99999999999999999999", "--eps-cur", "1", "--eps-past", "1",
          "--d-max", "3", "--output", "{out}"],
         "--window must be at most 2^62, got 99999999999999999999"),
        (["run", "--epsilon", "1", "--generator", "bernoulli(0.5)",
          "--t-max", "3", "--seed", "-1", "--output", "{out}"],
         "--seed must be >= 0, got -1"),
        (["run", "--epsilon", "1", *GEN, "--seed", "-1", "--output", "{out}"],
         "--seed must be >= 0, got -1"),
        (["run", "--epsilon", "1", *GEN, "--seed", "18446744073709551616",
          "--output", "{out}"],
         "--seed must be below 2^64, got 18446744073709551616"),
        (["run", "--mechanism", "baseline", "--window", "4611686018427387905",
          "--eps-cur", "1", "--eps-past", "1", *GEN, "--output", "{out}"],
         "--window must be at most 2^62, got 4611686018427387905"),
        (["calibrate", "--mse", "100", "--t-max", "64", "--window",
          "4611686018427387905"],
         "--window must be at most 2^62, got 4611686018427387905"),
        # the kernel fails after the grid is built: no directory is left
        (["figures", "2a", "--d-max", "4611686018427387903",
          "--output", "{out}"],
         "d - delay + 1 must be below 2^62, got 4611686018427387904"),
        # noise scales and budgets that are 0 or past the floats
        (["run", "--epsilon", "1", "--lambda", "2000", *GEN,
          "--output", "{out}"],
         "level_scale(62) must be a positive finite float, got 0.0 "
         "(epsilon 1.0, level_exponent 2000.0)"),
        (["audit", "--epsilon", "1", "--lambda", "2000", "--d-max", "10",
          "--output", "{out}"],
         "level_scale(62) must be a positive finite float, got 0.0 "
         "(epsilon 1.0, level_exponent 2000.0)"),
        (["run", "--epsilon", "1e-320", *GEN, "--output", "{out}"],
         "level_scale(0) must be a positive finite float, got inf "
         "(epsilon 1e-320, level_exponent 1.0)"),
        (["audit", "--epsilon", "1e-300", "--lambda", "173", "--d-max", "10",
          "--output", "{out}"],
         "budget_weight(62) must be a positive finite float, got inf "
         "(epsilon 1e-300, level_exponent 173.0)"),
        (["run", "--epsilon", "1", "--lambda", "172", *GEN,
          "--output", "{out}"],
         "63.0 ** level_exponent must be a positive finite float, got inf "
         "(level_exponent 172.0)"),
        (["run", "--mechanism", "baseline", "--window", "4", "--eps-cur",
          "1e-320", "--eps-past", "0.1", *GEN, "--output", "{out}"],
         "tree_depth/eps_cur must be a positive finite float, got inf "
         "(window 4, eps_cur 1e-320)"),
        (["audit", "--mechanism", "baseline", "--window", "4", "--eps-cur",
          "1", "--eps-past", "1e-320", "--d-max", "10", "--output", "{out}"],
         "1/eps_past must be a positive finite float, got inf "
         "(eps_past 1e-320)"),
        # losses past the float range
        (["audit", "--epsilon", "1e308", "--lambda", "3", "--d-max", "3",
          "--output", "{out}"], "losses must be finite, got inf at d=1"),
        (["audit", "--mechanism", "simple", "--epsilon", "1e308", "--d-max",
          "3", "--output", "{out}"], "losses must be finite, got inf at d=2"),
        (["audit", "--mechanism", "baseline", "--window", "7", "--eps-cur",
          "1e308", "--eps-past", "1e308", "--d-max", "20", "--output",
          "{out}"], "losses must be finite, got inf at d=0"),
        # a bound past the float range over finite losses
        (["audit", "--epsilon", "1e308", "--lambda", "3", "--d-max", "0",
          "--output", "{out}"], "losses must be finite, got inf at d=0"),
        # a ratio whose square underflows
        (["calibrate", "--mse", "1000", "--t-max", "100", "--window", "7",
          "--ratio", "1e-200"],
         "ratio is too small for a finite past-draw variance, got 1e-200"),
        (["audit", "--mechanism", "baseline", "--window", "7", "--mse",
          "1000", "--t-max", "100", "--ratio", "1e-320", "--d-max", "10",
          "--output", "{out}"],
         "ratio is too small for a finite past-draw variance, got 1e-320"),
        # streams longer than an int64 index
        (["run", "--epsilon", "1", "--generator", "zeros", "--t-max",
          "99999999999999999999", "--output", "{out}"],
         "--t-max must be below 2^62, got 99999999999999999999"),
        (["run", "--epsilon", "1", "--input", "{file}", "--t-max",
          "4611686018427387904", "--output", "{out}"],
         "--t-max must be below 2^62, got 4611686018427387904"),
        (["run", "--epsilon", "1", "--generator", "bernoulli(0.5)",
          "--t-max", "2305843009213693952", "--output", "{out}"],
         "--t-max 2305843009213693952 is too long for --generator: numpy "
         "cannot allocate the stream"),
        # the simple counter has no calibration
        (["audit", "--mechanism", "simple", "--mse", "100", "--d-max", "3",
          "--output", "{out}"], "--mse is not read by --mechanism simple"),
        (["audit", "--mechanism", "simple", "--d-max", "3",
          "--output", "{out}"], "--mechanism simple needs --epsilon"),
    ])
    def test_one_line_and_exit_two(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.csv"
        (tmp_path / "file").write_text("")
        paths = {"out": str(out), "missing": str(tmp_path / "no" / "o.csv"),
                 "missing_dir": str(tmp_path / "file" / "figs"),
                 "file": str(tmp_path / "file")}
        with pytest.raises(SystemExit) as exc:
            main([a.format(**paths) for a in argv])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"fadecount {argv[0]}: error: {message.format(**paths)}"]
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["audit", "--mechanism", "baseline", "--eps-cur", "1", "--eps-past", "1",
     "--d-max", "3", "--t-max", "9223372036854775807"],
    ["run", "--mechanism", "baseline", "--eps-cur", "1", "--eps-past", "1",
     "--generator", "ones", "--t-max", "5"],
    ["calibrate", "--mse", "100", "--t-max", "64"]])
def test_largest_window_is_accepted(tmp_path, capsys, argv):
    # 2^62, the largest window the baseline's int64 loss kernel holds
    out = ["--output", str(tmp_path / "out.csv")] * (argv[0] != "calibrate")
    assert main(argv + ["--window", str(1 << 62)] + out) == 0


# (command, mode): the argv that chooses a mechanism, and the mechanism
# flags it reads beyond those in that argv
MODES = {
    ("run", "simple"): (["run", "--mechanism", "simple", "--epsilon", "1",
                         "--generator", "ones", "--t-max", "5"], set()),
    ("run", "log"): (["run", "--mechanism", "log", "--epsilon", "1",
                      "--generator", "ones", "--t-max", "5"], set()),
    ("run", "expiration"): (
        ["run", "--mechanism", "expiration", "--epsilon", "1",
         "--generator", "ones", "--t-max", "5"], {"--lambda", "--delay"}),
    ("run", "baseline"): (
        ["run", "--mechanism", "baseline", "--window", "4", "--eps-cur", "1",
         "--eps-past", "0.1", "--generator", "ones", "--t-max", "5"], set()),
    ("audit", "simple"): (["audit", "--mechanism", "simple", "--epsilon", "1",
                           "--d-max", "3", "--t-max", "64"], set()),
    ("audit", "log"): (["audit", "--mechanism", "log", "--epsilon", "1",
                        "--d-max", "3", "--t-max", "64"], set()),
    ("audit", "expiration"): (
        ["audit", "--mechanism", "expiration", "--epsilon", "1",
         "--d-max", "3", "--t-max", "64"], {"--lambda", "--delay"}),
    ("audit", "expiration-mse"): (
        ["audit", "--mechanism", "expiration", "--mse", "100",
         "--d-max", "3", "--t-max", "64"], {"--lambda", "--delay"}),
    ("audit", "baseline"): (
        ["audit", "--mechanism", "baseline", "--window", "4", "--eps-cur",
         "1", "--eps-past", "0.1", "--d-max", "3"], set()),
    ("audit", "baseline-mse"): (
        ["audit", "--mechanism", "baseline", "--window", "4", "--mse", "100",
         "--d-max", "3", "--t-max", "64"], {"--ratio"}),
    ("calibrate", "expiration"): (
        ["calibrate", "--mse", "100", "--t-max", "64"],
        {"--lambda", "--delay", "--window"}),
    ("calibrate", "baseline"): (
        ["calibrate", "--mse", "100", "--t-max", "64", "--window", "4"],
        {"--ratio", "--optimal-ratio"}),
    ("calibrate", "baseline-optimal"): (
        ["calibrate", "--mse", "100", "--t-max", "64", "--window", "4",
         "--optimal-ratio"], set()),
}
# each command's mechanism flags, with a valid value (None: a switch)
_RUN_FLAGS = [("--epsilon", "1"), ("--lambda", "2"), ("--lambda", "0"),
              ("--delay", "2"), ("--delay", "0"), ("--window", "4"),
              ("--eps-cur", "1"), ("--eps-past", "0.1")]
COMMAND_FLAGS = {
    "run": _RUN_FLAGS,
    "audit": _RUN_FLAGS + [("--ratio", "0.2")],
    "calibrate": [("--lambda", "2"), ("--lambda", "0"), ("--delay", "2"),
                  ("--delay", "0"), ("--window", "4"), ("--ratio", "0.2"),
                  ("--optimal-ratio", None)],
}
FLAG_CASES = [(cmd, mode, flag, value)
              for (cmd, mode), (argv, _) in MODES.items()
              for flag, value in COMMAND_FLAGS[cmd] if flag not in argv]


class TestFlagsReadOrRejected:
    """Every mechanism flag a command takes is either read by the mechanism
    it chooses, or a one-line usage error that names it."""

    @pytest.mark.parametrize(
        "cmd,mode,flag,value", FLAG_CASES,
        ids=[f"{c}-{m}-{f[2:]}{v or ''}" for c, m, f, v in FLAG_CASES])
    def test_read_or_rejected(self, tmp_path, capsys, cmd, mode, flag, value):
        argv, reads = MODES[cmd, mode]
        out = tmp_path / "out.csv"
        argv = [*argv, flag] + ([] if value is None else [value])
        argv += [] if cmd == "calibrate" else ["--output", str(out)]
        if flag in reads:
            assert main(argv) == 0
            return
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith(f"fadecount {cmd}: error: {flag} ")
        assert captured.out == "" and not out.exists()


class TestParserCache:
    GEN = ["--generator", "bernoulli(0.3)", "--t-max", "50"]

    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_no_state_leaks_between_calls(self, tmp_path):
        # a usage error, then a seeded run, then one on the default seed, in
        # one process; each output equals a fresh process's
        cases = [["run", "--epsilon", "-1", *self.GEN, "--seed", "9"],
                 ["run", "--epsilon", "0.5", *self.GEN, "--seed", "5"],
                 ["run", "--epsilon", "0.5", *self.GEN]]
        for i, argv in enumerate(cases):
            here, fresh = tmp_path / f"here{i}.csv", tmp_path / f"fresh{i}.csv"
            try:
                rc = main([*argv, "--output", str(here)])
            except SystemExit as exc:
                rc = exc.code
            res = subprocess.run(
                [sys.executable, "-m", "fadecount.cli", *argv,
                 "--output", str(fresh)], capture_output=True, text=True)
            assert rc == res.returncode == (2 if i == 0 else 0)
            if i == 0:
                assert not here.exists() and not fresh.exists()
            else:
                assert here.read_bytes() == fresh.read_bytes()


class TestEntryPoint:
    def test_console_script_runs(self, tmp_path):
        res = subprocess.run(
            [sys.executable, "-m", "fadecount.cli", "calibrate",
             "--mse", "1000", "--t-max", "1000"],
            capture_output=True, text=True)
        assert res.returncode == 0
        assert "epsilon = 0.1341" in res.stdout
