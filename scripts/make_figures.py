#!/usr/bin/env python3
"""Regenerate every loss-curve CSV bundle (figure ids 2a 2b 3 4 5a 5b).

Thin driver over the `fadecount figures` subcommand, writing into
`figures/` under the current directory.  Every bundle takes well under a
second, the 10^6-horizon ones (4, 5b) included.  Pass figure ids as
arguments to restrict, e.g. `python3 scripts/make_figures.py 2a 3`.
"""
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from fadecount.cli import main

ids = sys.argv[1:] or ["2a", "2b", "3", "4", "5a", "5b"]
for fid in ids:
    t0 = time.perf_counter()
    rc = main(["figures", fid, "--output", "figures"])
    if rc != 0:
        sys.exit(rc)
    print(f"figure {fid}: written to figures/ in {time.perf_counter()-t0:.1f}s")
