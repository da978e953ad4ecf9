"""
Maximum-likelihood phase estimation against the Cramer-Rao bound
================================================================

Draws repeated finite-shot experiments for each noise channel, inverts the
fringe (or the erasure-filtered fringe) for the phase, and compares the
spread of the estimates with the bound 1/(shots * F). The variance ratio
should hover around one; clamping and identifiability failures are reported
rather than hidden.
"""

import math

import numpy as np

from erasure_sensing import ChannelKind, CountRecord, fisher, mle_phase

SHOTS = 50_000
REPS = 500
THETA = 0.4
PHI = THETA + math.pi / 2  # quadrature: best case for the fringe channels

rng = np.random.default_rng(7)

print(f"shots {SHOTS}, repetitions {REPS}, phase offset pi/2")
print(f"{'channel':>13} {'q':>5} {'var ratio':>10} {'mean bias':>10}")
for kind in ChannelKind:
    for q in (0.0, 0.2, 0.5):
        if kind is ChannelKind.DEPHASING and q == 0.5:
            # coherences vanish at q = 1/2: there is nothing to estimate
            try:
                mle_phase(CountRecord(1, 1, 0, theta=THETA, kind=kind, q=q))
            except ValueError as exc:
                print(f"{kind.value:>13} {q:5.2f}  -> {exc}")
            continue

        if kind is ChannelKind.ERASURE:
            n_e = rng.binomial(SHOTS, q, size=REPS)
            survivors = SHOTS - n_e
            n_p = rng.binomial(survivors, 0.5)
            n_m = survivors - n_p
        else:
            p = (1.0 + kind.amplitude(q) * math.cos(PHI - THETA)) / 2.0
            n_p = rng.binomial(SHOTS, p, size=REPS)
            n_m = SHOTS - n_p
            n_e = np.zeros(REPS, dtype=int)
        info = fisher.fisher_information(kind, q, PHI - THETA)

        estimates = np.array([
            mle_phase(CountRecord(int(a), int(b), int(c),
                                  theta=THETA, kind=kind, q=q)).phi_hat
            for a, b, c in zip(n_p, n_m, n_e)
        ])
        ratio = estimates.var(ddof=1) * SHOTS * info
        bias = estimates.mean() - PHI
        print(f"{kind.value:>13} {q:5.2f} {ratio:10.3f} {bias:+10.2e}")

print("\nA ratio of 1.0 means the estimator saturates the bound; erasure"
      "\nkeeps saturating it even as q grows, because lost atoms are"
      "\nidentified and excluded instead of silently diluting the fringe.")
