"""Golden audit and figure outputs: small cases through cli.main, by sha256.

`tests/data/audit_digests.txt` holds one `<sha256>  <file>` line per output
file.  Its first 16 lines were captured before the audit's output path
moved onto grid kernels, the rest before the baseline's tree counts moved
to a closed form, so it pins the CSVs those kernels must reproduce byte
for byte.
Print a fresh copy with

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import hashlib
import os
import pathlib
import sys
import tempfile

import pytest

from fadecount.cli import main

DIGESTS = pathlib.Path(__file__).resolve().parent / "data" / "audit_digests.txt"

_GRID = ["--mse", "1000", "--d-max", "2000", "--t-max", "100000"]

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
]


def _digest(path) -> str:
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def case_digests(name, argv, workdir) -> dict:
    """Run one case in workdir; sha256 of every file it wrote, by name."""
    out = os.path.join(workdir, name)
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
