"""Golden CLI outputs: small cases through cli.main, by sha256.

`tests/data/audit_digests.txt` holds one `<sha256>  <file>` line per output
file.  Its first 16 lines were captured before the audit's output path
moved onto grid kernels, the next 8 before the baseline's tree counts moved
to a closed form, and the `run_*`/`calibrate_*` lines before the CLI's
flags moved onto one flags-to-parameters path, and the `*_multiblock`/
`run_input_long` lines before `run` moved onto blocks of the vectorized
kernels, so it pins the CSVs (and the `calibrate` stdout) those changes must
reproduce byte for byte.
Print a fresh copy with

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import contextlib
import hashlib
import os
import pathlib
import sys
import tempfile

import pytest

from fadecount.cli import main

DIGESTS = pathlib.Path(__file__).resolve().parent / "data" / "audit_digests.txt"

_GRID = ["--mse", "1000", "--d-max", "2000", "--t-max", "100000"]
_BERNOULLI = ["--generator", "bernoulli(0.3)", "--t-max", "3000",
              "--seed", "11"]
# many blocks of `run`'s CSV writer, the last one partial
_LONG = 3 * 4096 + 17
_MULTIBLOCK = ["--generator", "bernoulli(0.3)", "--t-max", str(_LONG),
               "--seed", "11"]
_RUN_FLAGS = (("simple", ["--epsilon", "0.5"]),
              ("log", ["--epsilon", "0.5"]),
              ("expiration", ["--epsilon", "0.5", "--lambda", "2"]),
              ("baseline", ["--window", "31", "--eps-cur", "0.6",
                            "--eps-past", "0.06"]))

# (output name, argv without --output); figures write into a directory
CASES = [
    *((f"audit_lambda{lam}_delay{delay}.csv",
       ["audit", "--lambda", lam, "--delay", delay, *_GRID])
      for lam in ("0", "2", "3") for delay in ("0", "16")),
    ("audit_lambda0.5_tmax7.csv",
     ["audit", "--epsilon", "0.5", "--lambda", "0.5", "--delay", "3",
      "--d-max", "300", "--t-max", "7"]),
    *((f"audit_baseline_window{w}.csv",
       ["audit", "--mechanism", "baseline", "--window", w, *_GRID])
      for w in ("1", "127")),
    ("figures_2a", ["figures", "2a", "--d-max", "2000"]),
    ("figures_5b", ["figures", "5b", "--d-max", "2000"]),
    # a large window, with the horizon below and above it, and d over two
    # windows
    *((f"audit_baseline_window4095_tmax{t_max}.csv",
       ["audit", "--mechanism", "baseline", "--window", "4095", "--mse",
        "1000", "--d-max", "10000", "--t-max", t_max])
      for t_max in ("3000", "100000")),
    ("figures_3", ["figures", "3", "--d-max", "2000"]),
    ("figures_5a", ["figures", "5a", "--d-max", "2000"]),
    *((f"run_{mech}.csv",
       ["run", "--mechanism", mech, *flags, *_BERNOULLI])
      for mech, flags in _RUN_FLAGS),
    ("run_input.csv",
     ["run", "--mechanism", "expiration", "--epsilon", "0.3", "--lambda",
      "1.5", "--delay", "4", "--input", "{input}", "--seed", "7"]),
    *((f"run_expiration_delay{delay}.csv",
       ["run", "--mechanism", "expiration", "--epsilon", "0.5", "--lambda",
        "3", "--delay", delay, *_BERNOULLI])
      for delay in ("0", "16")),
    *((f"run_{mech}_multiblock.csv",
       ["run", "--mechanism", mech, *flags, *_MULTIBLOCK])
      for mech, flags in _RUN_FLAGS),
    ("run_expiration_delay16_multiblock.csv",
     ["run", "--mechanism", "expiration", "--epsilon", "0.5", "--lambda",
      "3", "--delay", "16", *_MULTIBLOCK]),
    ("run_input_long.csv",
     ["run", "--mechanism", "expiration", "--epsilon", "0.3", "--lambda",
      "1.5", "--delay", "4", "--input", "{long_input}", "--seed", "7"]),
    # calibrate writes to stdout, which the case captures as its file
    ("calibrate_expiration.txt",
     ["calibrate", "--mse", "1000", "--t-max", "1000", "--lambda", "2",
      "--delay", "5"]),
    ("calibrate_baseline.txt",
     ["calibrate", "--mse", "1000", "--t-max", "1000", "--window", "31",
      "--ratio", "0.2"]),
    ("calibrate_optimal_ratio.txt",
     ["calibrate", "--mse", "1000", "--t-max", "1000", "--window", "63",
      "--optimal-ratio"]),
]


def _digest(path) -> str:
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


# input-file placeholders of the argv lists, by stream length
_INPUTS = {"{input}": 2000, "{long_input}": _LONG}


def _write_stream(path, length) -> None:
    """A fixed input stream of `length` values, with a few blank lines."""
    with open(path, "w") as fh:
        for i in range(length):
            blank = "\n" if i % 500 == 0 else ""
            fh.write(f"{i * 37 % 101 / 100}\n{blank}")


def case_digests(name, argv, workdir) -> dict:
    """Run one case in workdir; sha256 of every file it wrote, by name."""
    out = os.path.join(workdir, name)
    for placeholder, length in _INPUTS.items():
        if placeholder in argv:
            stream = os.path.join(workdir, "stream.txt")
            _write_stream(stream, length)
            argv = [stream if a == placeholder else a for a in argv]
    if argv[0] == "calibrate":
        with open(out, "w") as fh, contextlib.redirect_stdout(fh):
            assert main(argv) == 0
    else:
        assert main([*argv, "--output", out]) == 0
    if not os.path.isdir(out):
        return {name: _digest(out)}
    return {f"{name}/{f}": _digest(os.path.join(out, f))
            for f in sorted(os.listdir(out))}


def golden() -> dict:
    lines = DIGESTS.read_text().splitlines()
    return {file: digest for digest, file in (ln.split() for ln in lines)}


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_outputs_match_golden_digests(tmp_path, name, argv):
    got = case_digests(name, argv, str(tmp_path))
    want = {f: d for f, d in golden().items()
            if f == name or f.startswith(name + "/")}
    assert got == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES:
            for file, digest in case_digests(name, argv, tmp).items():
                sys.stdout.write(f"{digest}  {file}\n")
