"""
Instability scaling with error rate: square root versus linear
==============================================================

Sweeps the per-interrogation error probability q for the erasure and
depolarizing channels with common random numbers, and fits the log-log
slope of instability against survival 1 - q. Erasure costs atoms, so its
instability grows as (1-q)^-1/2; depolarization shrinks the fringe, so it
pays (1-q)^-1. At any matched q the erasure channel is the cheaper noise.

This is a reduced-size sweep for quick reading; the acceptance suite runs
the full-size version with tighter bands.
"""

import json
import os
from dataclasses import replace

from erasure_sensing import (
    ChannelKind,
    ComparisonConfig,
    fit_loglog_exponent,
    instability_vs_error_rate,
)

HERE = os.path.dirname(os.path.abspath(__file__))
BASE = os.path.join(HERE, os.pardir, "data", "scaling_base.json")

with open(BASE) as fh:
    base = ComparisonConfig.from_dict(json.load(fh))
base = replace(base, cycles=20_000)  # reduced from 120k for demo turnaround

grid = [0.0, 0.2, 0.4, 0.6, 0.8]
curves = {}
for kind in (ChannelKind.ERASURE, ChannelKind.DEPOLARIZING):
    curves[kind] = instability_vs_error_rate(base, grid, kind, window=100)

print(f"{'q':>5} {'sigma(erasure)':>15} {'sigma(depol)':>14} {'depol/erasure':>14}")
for i, q in enumerate(grid):
    era = curves[ChannelKind.ERASURE][i].sigma
    dep = curves[ChannelKind.DEPOLARIZING][i].sigma
    print(f"{q:5.1f} {era:15.3e} {dep:14.3e} {dep / era:14.2f}")

print("\nfitted log-log exponents (sigma vs 1 - q):")
for kind, pts in curves.items():
    slope, err, _ = fit_loglog_exponent([p.q for p in pts], [p.sigma for p in pts])
    print(f"  {kind.value:13s} {slope:+.3f} +/- {err:.3f}   "
          f"(ideal {-kind.decay_exponent():+.1f})")
