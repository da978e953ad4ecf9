"""
Fisher information of noisy Ramsey readout
==========================================

Compares the closed-form information of the three noise channels against a
parameter-shift evaluation of the outcome model, and shows the one
qualitative difference that drives everything else in this package: fringe
channels lose information quadratically near their nodes, while the
erasure channel keeps a flat 1 - q at every readout angle.
"""

import math

import numpy as np

from erasure_sensing import (
    ChannelKind,
    channel_outcome_model,
    classical_fisher_numeric,
    fisher_dephasing,
    fisher_depolarizing,
    fisher_erasure,
)

q = 0.2
deltas = np.linspace(0.1, math.pi - 0.1, 7)

# closed forms on a common angle grid
print(f"q = {q}")
print(f"{'delta':>8} {'depolarizing':>14} {'dephasing':>12} {'erasure':>10}")
for d in deltas:
    print(f"{d:8.3f} {fisher_depolarizing(q, d):14.6f} "
          f"{fisher_dephasing(q, d):12.6f} {fisher_erasure(q, d):10.6f}")

# the numeric oracle: the parameter-shift rule, exact for the first-harmonic
# outcome probabilities
print("\nclosed form vs parameter shift at delta = pi/2:")
for kind, closed in (
    (ChannelKind.DEPOLARIZING, fisher_depolarizing(q, math.pi / 2)),
    (ChannelKind.DEPHASING, fisher_dephasing(q, math.pi / 2)),
    (ChannelKind.ERASURE, fisher_erasure(q)),
):
    model = channel_outcome_model(kind, q, theta=0.0)
    numeric = classical_fisher_numeric(model, math.pi / 2)
    print(f"  {kind.value:13s} closed {closed:.8f}  numeric {numeric:.8f}  "
          f"difference {abs(closed - numeric):.2e}")

# peak information versus error rate: (1-q)^2 for depolarizing, 1-q for
# erasure; the erasure channel wins everywhere except q = 0
print("\npeak information vs error rate:")
print(f"{'q':>5} {'(1-q)^2':>10} {'1-q':>8} {'ratio':>7}")
for qq in (0.0, 0.1, 0.2, 0.39, 0.6, 0.8):
    dep = fisher_depolarizing(qq, math.pi / 2)
    era = fisher_erasure(qq)
    ratio = era / dep if dep > 0 else math.inf
    print(f"{qq:5.2f} {dep:10.4f} {era:8.4f} {ratio:7.3f}")
