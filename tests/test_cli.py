import csv
import io
import subprocess
import sys

import numpy as np
import pytest

from fadecount import cli
from fadecount.cli import main
from fadecount.mechanisms import (BaselineParams, MechanismParams,
                                  run_expiration)
from fadecount.privacy_audit import (empirical_loss_baseline,
                                     empirical_loss_expiration,
                                     published_loss_bound)


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
    ])
    def test_one_line_and_exit_two(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.csv"
        (tmp_path / "file").write_text("")
        paths = {"out": str(out), "missing": str(tmp_path / "no" / "o.csv"),
                 "missing_dir": str(tmp_path / "file" / "figs")}
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
