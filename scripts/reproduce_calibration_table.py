#!/usr/bin/env python3
"""Print the calibration table: privacy parameters per mechanism at MSE=1000.

For both horizons (10^3 and 10^6) this prints epsilon for the expiration
mechanism at level exponents 1..3, eps_cur for the windowed baseline at the
fixed 0.1 ratio, and the loss-minimizing ratio (a closed form).
Everything here is a closed-form or deterministic computation; there is no
sampling involved.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from fadecount import calibrate_baseline, calibrate_epsilon, optimal_ratio

MSE = 1000.0

print(f"target MSE = {MSE:g}\n")
print("expiration mechanism (delay 0)")
print(f"{'T':>9} {'lambda':>7} {'epsilon':>10}")
for T in (10**3, 10**6):
    for lam in (1.0, 2.0, 3.0):
        cal = calibrate_epsilon(MSE, T, lam)
        print(f"{T:>9} {lam:>7g} {cal.epsilon:>10.4g}")

print("\nwindowed baseline, ratio eps_past/eps_cur = 0.1")
print(f"{'T':>9} {'W':>6} {'eps_cur':>10} {'eps_past':>10}")
rows = [(10**3, 31), (10**3, 63), (10**3, 127), (10**6, 127), (10**6, 1023)]
for T, W in rows:
    cal = calibrate_baseline(MSE, T, W, 0.1)
    print(f"{T:>9} {W:>6} {cal.eps_cur:>10.4g} {cal.eps_past:>10.4g}")

print("\nloss-minimizing ratio (objective: eps_cur + eps_past * (rounds-1))")
print(f"{'T':>9} {'W':>6} {'ratio':>10} {'objective':>10}")
for T, W in rows:
    ratio, cal = optimal_ratio(MSE, T, W)
    rounds = -(-T // W)
    obj = cal.eps_cur + cal.eps_past * (rounds - 1)
    print(f"{T:>9} {W:>6} {ratio:>10.4g} {obj:>10.6g}")
