"""
Differential clock comparison from end to end
=============================================

Runs the shipped two-ensemble Ramsey comparison (common random laser phase,
shot noise from 500 atoms per ensemble), extracts the differential phase
window by window with the ellipse fit, converts to fractional frequency,
and checks the resulting instability against the quantum projection noise
floor.
"""

import json
import os

import numpy as np

from erasure_sensing import (
    ComparisonConfig,
    crb_floor,
    ellipse_phase_jackknife,
    valid_pairs,
)
from erasure_sensing.clock import analyze_comparison

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG = os.path.join(HERE, os.pardir, "data", "example_comparison.json")

with open(CONFIG) as fh:
    cfg = ComparisonConfig.from_dict(json.load(fh))
print(f"config: N0 = {cfg.n0}, cycles = {cfg.cycles}, "
      f"phi_d = {cfg.phi_d:.6f}, channel = {cfg.noise.kind.value} q = {cfg.noise.q}")

# simulate -> window fits -> fractional frequency -> Allan deviation
window = 100
run = analyze_comparison(cfg, window)
res = run.allan

# the first window's fit on its own shows the raw ingredients
phi_hat, jk = ellipse_phase_jackknife(valid_pairs(run.cycles)[:window])
print(f"first window: phi_d = {phi_hat:.5f} +/- {jk:.5f} "
      f"(true {cfg.phi_d:.5f})")

floor = crb_floor(cfg.n0, cfg.t_c, window * cfg.cycle_time, cfg.f0,
                  differential=True)
print(f"\n{'tau (s)':>9} {'sigma_y':>12} {'error':>11} {'vs floor':>9}")
for tau, sig, err in zip(res.taus, res.sigmas, res.errors):
    scaled_floor = floor * np.sqrt(window * cfg.cycle_time / tau)
    print(f"{tau:9.0f} {sig:12.3e} {err:11.2e} {sig / scaled_floor:9.2f}x")

print(f"\none-window instability {res.sigmas[0]:.3e} vs projection floor "
      f"{floor:.3e} ({res.sigmas[0] / floor:.2f}x): the ellipse readout is a"
      "\nlittle inefficient, but the white-noise averaging slope survives.")
