"""Acceptance gate: the nine headline checks, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Every check is deterministic: Monte Carlo steps run at fixed seeds
that are part of the contract of this file.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from erasure_sensing import (
    ChannelKind,
    ComparisonConfig,
    CountRecord,
    NoiseChannel,
    allan_deviation,
    bloch_density,
    channel_outcome_model,
    classical_fisher_numeric,
    crb_floor,
    ellipse_fit,
    ellipse_phase_jackknife,
    erasure_conversion_gain,
    erasure_conversion_gain_curve,
    fisher_dephasing,
    fisher_depolarizing,
    fisher_erasure,
    fit_loglog_exponent,
    instability_vs_error_rate,
    mle_phase,
    optimize_interrogation,
    qfi_depolarized,
    qfi_pure_generator,
    run_comparison,
    valid_pairs,
)
from erasure_sensing.cli import main as cli_main

import os

DATA = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "data"))


def check(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_1_depolarizing_peak_information():
    """Peak classical information of the depolarized fringe is (1-q)^2."""
    qs = np.linspace(0.0, 1.0, 100)
    peak_err = float(np.max(np.abs(fisher_depolarizing(qs, math.pi / 2) - (1.0 - qs) ** 2)))

    deltas = np.linspace(0.0, math.pi, 1001)
    grid = fisher_depolarizing(qs[:, None], deltas[None, :])
    overshoot = float(np.max(grid - ((1.0 - qs) ** 2)[:, None]))

    numeric_err = 0.0
    for q in qs:
        model = channel_outcome_model(ChannelKind.DEPOLARIZING, float(q), 0.0)
        numeric = classical_fisher_numeric(model, math.pi / 2)
        numeric_err = max(numeric_err, abs(numeric - (1.0 - q) ** 2))

    ok = peak_err < 1e-12 and overshoot < 1e-12 and numeric_err < 1e-6
    check("criterion 1 (depolarizing peak = (1-q)^2)", ok,
          f"closed-form err {peak_err:.2e}, peak overshoot {overshoot:.2e}, "
          f"numeric err {numeric_err:.2e}")


def test_2_erasure_information_constant():
    """Erasure-readout information equals 1-q at every fringe angle."""
    qs = np.linspace(0.0, 0.99, 100)
    deltas = np.linspace(0.0, 2.0 * math.pi, 100)
    grid = fisher_erasure(qs[:, None], deltas[None, :])
    closed_err = float(np.max(np.abs(grid - (1.0 - qs)[:, None])))

    numeric_err = 0.0
    for q in qs[::7]:
        model = channel_outcome_model(ChannelKind.ERASURE, float(q), 0.0)
        for d in deltas[::7]:
            numeric_err = max(numeric_err,
                              abs(classical_fisher_numeric(model, float(d)) - (1.0 - q)))

    ok = closed_err < 1e-12 and numeric_err < 1e-6
    check("criterion 2 (erasure information = 1-q, flat)", ok,
          f"closed-form err {closed_err:.2e}, numeric err {numeric_err:.2e}")


def test_3_quantum_information_factorizes():
    """QFI of the depolarized state is (1-q)^2 times the noiseless QFI."""
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(100):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        rho = bloch_density(v)
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = 0.5 * (h + h.conj().T)
        q = float(rng.uniform(0.0, 0.95))
        direct = qfi_depolarized(rho, h, q, method="direct")
        scaled = (1.0 - q) ** 2 * qfi_pure_generator(rho, h)
        worst = max(worst, abs(direct - scaled))
    ok = worst < 1e-10
    check("criterion 3 (QFI factorization)", ok, f"max |direct - scaled| {worst:.2e}")


def test_4_estimator_saturates_the_bound():
    """MLE variance times shots times information stays within 15% of one."""
    shots, reps = 100_000, 2000
    theta, phi = 0.4, 0.4 + math.pi / 2
    rng = np.random.default_rng(614)
    ratios = {}
    for kind in ChannelKind:
        for q in (0.0, 0.2, 0.5):
            if kind is ChannelKind.DEPHASING and q == 0.5:
                with pytest.raises(ValueError):
                    mle_phase(CountRecord(60_000, 40_000, 0, theta=theta, kind=kind, q=q))
                continue
            if kind is ChannelKind.ERASURE:
                n_e = rng.binomial(shots, q, size=reps)
                surv = shots - n_e
                n_p = rng.binomial(surv, 0.5)
                n_m = surv - n_p
                info = fisher_erasure(q)
            else:
                amp = (1.0 - q) if kind is ChannelKind.DEPOLARIZING else (1.0 - 2.0 * q)
                p = (1.0 + amp * math.cos(phi - theta)) / 2.0
                n_p = rng.binomial(shots, p, size=reps)
                n_m = shots - n_p
                n_e = np.zeros(reps, dtype=int)
                info = (fisher_depolarizing if kind is ChannelKind.DEPOLARIZING
                        else fisher_dephasing)(q, math.pi / 2)
            estimates = np.array([
                mle_phase(CountRecord(int(a), int(b), int(c),
                                      theta=theta, kind=kind, q=q)).phi_hat
                for a, b, c in zip(n_p, n_m, n_e)
            ])
            ratios[(kind.value, q)] = float(estimates.var(ddof=1) * shots * info)

    worst_key = max(ratios, key=lambda k: abs(ratios[k] - 1.0))
    ok = all(0.85 <= r <= 1.15 for r in ratios.values())
    check("criterion 4 (Cramer-Rao saturation)", ok,
          f"8 channel/q combos in [0.85, 1.15], worst {worst_key} = "
          f"{ratios[worst_key]:.4f}; dephasing q=0.5 raises as unidentifiable")


def test_5_instability_scaling_with_error_rate():
    """Instability scales as (1-q)^-1/2 for erasure, (1-q)^-1 for depolarizing;
    at q = 0.39 erasure is better with 99% confidence."""
    with open(os.path.join(DATA, "scaling_base.json")) as fh:
        base = ComparisonConfig.from_dict(json.load(fh))

    grid = [round(0.1 * i, 1) for i in range(9)]  # 0.0 .. 0.8
    floor = crb_floor(base.n0, base.t_c, 100.0 * base.cycle_time, base.f0,
                      differential=True)
    slopes = {}
    violations = 0
    kinds = (ChannelKind.ERASURE, ChannelKind.DEPOLARIZING)
    curves = instability_vs_error_rate(base, grid, kinds, window=100)
    for kind, band, pen_power in (
        (ChannelKind.ERASURE, (-0.55, -0.45), 0.5),
        (ChannelKind.DEPOLARIZING, (-1.1, -0.9), 1.0),
    ):
        points = curves[kind]
        slope, stderr, _ = fit_loglog_exponent([p.q for p in points],
                                               [p.sigma for p in points])
        slopes[kind.value] = (slope, stderr, band)
        for p in points:
            bound = floor * (1.0 - p.q) ** (-pen_power) * (1.0 - 3.0 * p.sigma_err / p.sigma)
            if p.sigma < bound:
                violations += 1

    in_band = all(band[0] <= s <= band[1] for s, _, band in slopes.values())

    # matched-error-rate comparison, paired over independent seeds
    diffs = []
    for seed in range(1000, 1012):
        cfg = replace(base, seed=seed, cycles=20_000)
        paired = instability_vs_error_rate(cfg, [0.39], kinds, window=100)
        diffs.append(paired[ChannelKind.DEPOLARIZING][0].sigma
                     - paired[ChannelKind.ERASURE][0].sigma)
    diffs = np.asarray(diffs)
    t_stat = float(diffs.mean() / (diffs.std(ddof=1) / math.sqrt(len(diffs))))
    t_crit_99 = 2.718  # one-sided, 11 degrees of freedom
    better = t_stat > t_crit_99

    ok = in_band and better and violations == 0
    era_s = slopes["erasure"]
    dep_s = slopes["depolarizing"]
    check("criterion 5 (scaling exponents and q=0.39 ordering)", ok,
          f"erasure slope {era_s[0]:.4f}+/-{era_s[1]:.4f} in [{era_s[2][0]}, {era_s[2][1]}]; "
          f"depolarizing slope {dep_s[0]:.4f}+/-{dep_s[1]:.4f} in [{dep_s[2][0]}, {dep_s[2][1]}]; "
          f"paired t {t_stat:.1f} > {t_crit_99}; floor violations {violations}")


def test_6_interrogation_time_optimization():
    """Optimal interrogation times hit the closed forms; the erasure-conversion
    gain runs from sqrt(2) at zero dead time to 2 at large dead time."""
    worst_t = 0.0
    for gamma in (0.3, 1.0, 2.5, 17.0):
        dep = optimize_interrogation(gamma, 0.0, ChannelKind.DEPOLARIZING)
        era = optimize_interrogation(gamma, 0.0, ChannelKind.ERASURE)
        worst_t = max(worst_t,
                      abs(dep.t_c_star - 1.0 / (2.0 * gamma)),
                      abs(era.t_c_star - 1.0 / gamma))

    g0 = erasure_conversion_gain(1.0, 0.0).gain
    g_inf = erasure_conversion_gain(1.0, 1000.0).gain
    curve = erasure_conversion_gain_curve(2.0, [0.0, 0.01, 0.1, 1.0, 10.0, 100.0, 500.0])
    gains = [p.gain for p in curve]
    monotone = all(b >= a - 1e-12 for a, b in zip(gains, gains[1:]))
    bounded = all(math.sqrt(2.0) - 1e-6 <= g <= 2.0 + 1e-6 for g in gains)

    ok = (worst_t < 1e-8
          and abs(g0 - math.sqrt(2.0)) < 1e-6
          and abs(g_inf - 2.0) < 0.01 * 2.0
          and monotone and bounded)
    check("criterion 6 (erasure-conversion gain)", ok,
          f"worst T* err {worst_t:.1e}; gain(0) {g0:.7f}; gain(1000/G) {g_inf:.4f}; "
          f"monotone {monotone}, bounded {bounded}")


def test_7_differential_phase_recovery():
    """The ellipse fit recovers the differential phase exactly without noise
    and within 3 jackknife errors with shot noise at 1000 atoms."""
    worst = 0.0
    for phi_d in np.linspace(0.11, math.pi - 0.11, 21):
        for c in (0.3, 0.6, 1.0):
            t = 0.37 + np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False)
            pts = np.column_stack([
                (1.0 + c * np.cos(t)) / 2.0,
                (1.0 + c * np.cos(t + phi_d)) / 2.0,
            ])
            worst = max(worst, abs(ellipse_fit(pts).phi_d - phi_d))

    cfg = ComparisonConfig.from_dict(dict(
        phi_d=1.0, N0=1000, T_c=1.0, T_d=0.0, f0=1.0, cycles=2000,
        noise={"kind": "erasure", "q": 0.0}, c_a=1.0, c_b=1.0,
        laser_phase_model="UniformRandomPerCycle", seed=1, shot_noise=True))
    pts = valid_pairs(run_comparison(cfg))
    phi_hat, jk = ellipse_phase_jackknife(pts)
    z = abs(phi_hat - 1.0) / jk

    ok = worst <= 1e-6 and z <= 3.0
    check("criterion 7 (ellipse phase recovery)", ok,
          f"noiseless worst err {worst:.2e} over 63 cases; "
          f"shot noise phi {phi_hat:.5f} +/- {jk:.1e} (|z| = {z:.2f})")


def test_8_allan_deviation_signatures():
    """Allan deviation shows the canonical slopes: -1/2 for white frequency
    noise, 0 for a constant, +1 for linear drift."""
    rng = np.random.default_rng(11)
    res = allan_deviation(rng.normal(size=10_000), cycle_time=1.0)
    mask = np.asarray(res.averaging_factors) <= 10_000 / 16
    white = float(np.polyfit(np.log(np.asarray(res.taus)[mask]),
                             np.log(np.asarray(res.sigmas)[mask]), 1)[0])

    const = max(allan_deviation(np.full(1000, 0.3), cycle_time=1.0).sigmas)

    drift_res = allan_deviation(1e-3 * np.arange(2048, dtype=float), cycle_time=1.0)
    drift = float(np.polyfit(np.log(drift_res.taus), np.log(drift_res.sigmas), 1)[0])

    ok = abs(white + 0.5) <= 0.05 and const < 1e-12 and abs(drift - 1.0) <= 0.05
    check("criterion 8 (Allan deviation slopes)", ok,
          f"white {white:.4f} (target -0.5 +/- 0.05); constant max {const:.1e}; "
          f"drift {drift:.4f} (target +1 +/- 0.05)")


def test_9_byte_identical_reruns(tmp_path):
    """Same config and seed give byte-identical outputs, at any thread count."""
    config = os.path.join(DATA, "example_comparison.json")
    outs = []
    for name, threads in (("first", "1"), ("second", "1"), ("threaded", "4")):
        out = tmp_path / name
        code = cli_main(["simulate", config, "--out", str(out), "--threads", threads])
        assert code == 0
        outs.append(out)

    identical = True
    for fname in ("cycles.csv", "phases.csv", "allan.json"):
        ref = (outs[0] / fname).read_bytes()
        for out in outs[1:]:
            if (out / fname).read_bytes() != ref:
                identical = False

    check("criterion 9 (byte-identical determinism)", identical,
          "cycles.csv, phases.csv, allan.json equal across reruns and 1 vs 4 threads")
