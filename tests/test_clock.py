"""Clock-comparison Monte Carlo: config parsing, per-cycle random streams,
determinism, Allan deviation, scaling fits, and interrogation-time optimization."""

import hashlib
import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from erasure_sensing import clock
from erasure_sensing.clock import (
    ComparisonConfig,
    LaserPhaseModel,
    allan_deviation,
    analyze_comparison,
    comparison_stats,
    crb_floor,
    erasure_conversion_gain,
    erasure_conversion_gain_curve,
    fit_fixed_form_intercept,
    fit_loglog_exponent,
    instability_vs_error_rate,
    optimize_interrogation,
    run_comparison,
    valid_pairs,
)
from erasure_sensing.estimation import ellipse_fit, phase_series_from_cycles
from erasure_sensing.states import ChannelKind, NoiseChannel

BASE = dict(
    phi_d=math.pi / 2,
    N0=300,
    T_c=1.0,
    T_d=0.0,
    f0=1.0,
    cycles=400,
    noise={"kind": "erasure", "q": 0.0},
    c_a=1.0,
    c_b=1.0,
    laser_phase_model="UniformRandomPerCycle",
    seed=42,
    shot_noise=True,
)


def config(**overrides):
    d = dict(BASE)
    d.update(overrides)
    return ComparisonConfig.from_dict(d)


def same_cycles(a, b):
    """Field-wise equality of two runs' cycle columns, NaN equal to NaN."""
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name), equal_nan=True)
        for f in fields(a)
    )


class TestConfigParsing:
    def test_round_trip(self):
        cfg = config()
        assert cfg.n0 == 300
        assert cfg.noise.kind is ChannelKind.ERASURE
        assert cfg.laser_phase_model is LaserPhaseModel.UNIFORM_RANDOM_PER_CYCLE
        assert cfg.cycle_time == pytest.approx(1.0)

    def test_missing_field_is_named(self):
        d = dict(BASE)
        del d["cycles"]
        with pytest.raises(ValueError, match="cycles"):
            ComparisonConfig.from_dict(d)

    def test_unknown_field_is_named(self):
        with pytest.raises(ValueError, match="window_size"):
            ComparisonConfig.from_dict(dict(BASE, window_size=10))

    def test_wrong_type_is_named(self):
        with pytest.raises(ValueError, match="N0"):
            ComparisonConfig.from_dict(dict(BASE, N0=True))
        with pytest.raises(ValueError, match="phi_d"):
            ComparisonConfig.from_dict(dict(BASE, phi_d="wide"))
        with pytest.raises(ValueError, match="laser_phase_model"):
            ComparisonConfig.from_dict(dict(BASE, laser_phase_model=["FixedSweep"]))
        with pytest.raises(ValueError, match="shot_noise"):
            ComparisonConfig.from_dict(dict(BASE, shot_noise="yes"))
        # built directly, the fields must already be the parsed types
        with pytest.raises(ValueError, match="noise"):
            replace(config(), noise={"kind": "erasure", "q": 0.0})
        with pytest.raises(ValueError, match="laser_phase_model"):
            replace(config(), laser_phase_model="UniformRandomPerCycle")

    def test_noise_subobject_validated(self):
        with pytest.raises(ValueError):
            ComparisonConfig.from_dict(dict(BASE, noise={"kind": "thermal", "q": 0.1}))
        with pytest.raises(ValueError):
            ComparisonConfig.from_dict(dict(BASE, noise={"kind": "erasure"}))
        # wrong JSON types are usage errors that name the field, not crashes
        for noise, field in (
            ({"kind": "erasure", "q": None}, "noise.q"),
            ({"kind": "erasure", "q": [0.1]}, "noise.q"),
            ({"kind": "erasure", "q": True}, "noise.q"),
            ({"kind": "erasure", "q": "0.1"}, "noise.q"),
            ({"kind": "dephasing", "gamma": "0.5"}, "noise.gamma"),
            ({"kind": "dephasing", "gamma": None}, "noise.gamma"),
            ({"kind": ["erasure"], "q": 0.1}, "noise.kind"),
        ):
            with pytest.raises(ValueError, match=field):
                ComparisonConfig.from_dict(dict(BASE, noise=noise))
        with pytest.raises(ValueError, match="gamma"):
            ComparisonConfig.from_dict(
                dict(BASE, noise={"kind": "dephasing", "gamma": float("nan")}))

    def test_nan_dead_time_rejected(self):
        # also infinite times (`not x > 0` lets +inf through), an N0 past
        # the survivor draw's signed 64-bit range, an integer too large
        # for a float and more cycles than one spawn word can index
        for field, value in (("T_d", float("nan")), ("T_c", math.inf),
                             ("T_d", math.inf), ("f0", math.inf), ("N0", 2**63),
                             ("f0", 10**400), ("cycles", 2**32 + 1)):
            with pytest.raises(ValueError, match=field):
                config(**{field: value})
        assert config(N0=2**62).n0 == 2**62
        assert config(cycles=2**32).cycles == 2**32

    def test_readme_config_block_matches_the_schema(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("## Simulation config", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        data = json.loads(block)
        assert list(data) == list(clock._SCHEMA)
        assert ComparisonConfig.from_dict(data).n0 == data["N0"]

    def test_float32_fields_run_as_floats(self):
        # Under numpy 2 a float32 field would keep the fringe in float32: the
        # Born fractions would come out 3-8e-8 off the run of the same values
        # given as Python floats.
        reals = {"phi_d": 1.0, "t_c": 0.7, "t_d": 0.2, "f0": 1.3, "c_a": 0.9, "c_b": 0.8}
        base = config(shot_noise=False, cycles=50)
        for kind, strength in ((ChannelKind.DEPOLARIZING, "q"), (ChannelKind.DEPHASING, "q"),
                               (ChannelKind.DEPHASING, "gamma")):
            def run(cast):
                return run_comparison(replace(
                    base, **{k: cast(np.float32(v)) for k, v in reals.items()},
                    noise=NoiseChannel(kind, **{strength: cast(np.float32(0.3))})))
            assert same_cycles(run(np.float32), run(float))

    def test_rate_specified_noise_accepted(self):
        cfg = config(noise={"kind": "dephasing", "gamma": 0.25}, T_c=2.0)
        # rate-gamma dephasing is a T2 decay: Z-flip probability
        # (1 - e^{-gamma T_c}) / 2, amplitude e^{-gamma T_c}
        assert cfg.noise.strength(cfg.t_c) == pytest.approx((1.0 - math.exp(-0.5)) / 2.0)


def seed_sequence_key(seed, i):
    """The Philox key numpy derives from the SeedSequence of cycle i."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(2, np.uint64)


class TestPerCycleStreams:
    def test_streams_are_reproducible_and_distinct(self):
        a = clock._cycle_keys(7, 3, 4)
        b = clock._cycle_keys(7, 3, 4)
        c = clock._cycle_keys(7, 4, 5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    # the last two seeds were drawn once from [0, 2^64)
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 20260823,
                                      16134029794114136219, 7122353689425835307])
    def test_keys_equal_seed_sequence_keys(self, seed):
        # Indices run up to the largest one spawn word holds; one range
        # straddles the boundary between two chunks of keys, the other ends
        # at 2^32.
        for i in (0, 1, 2, 2**32 - 1):
            keys = clock._cycle_keys(seed, i, i + 1)
            assert keys.dtype == np.uint64
            assert np.array_equal(keys, [seed_sequence_key(seed, i)])
        for lo, hi in ((clock._BLOCK - 3, clock._BLOCK + 3), (2**32 - 64, 2**32)):
            expected = [seed_sequence_key(seed, i) for i in range(lo, hi)]
            assert np.array_equal(clock._cycle_keys(seed, lo, hi), expected)

    def test_shared_generator_draws_each_cycles_fresh_stream(self):
        # run_comparison resets one generator per cycle. Each cycle leaves
        # the generator's buffer part used, and the cycles cross a block:
        # every cycle must still draw exactly what the oracle's fresh
        # generator on that cycle's sequence draws. Erasure loses atoms, so
        # each block draws its survivors from its own stream, and the run
        # ends on a partial block.
        cfg = config(cycles=clock._BLOCK + 2, noise={"kind": "erasure", "q": 0.3},
                     seed=20260823)
        fast = run_comparison(cfg)
        slow = oracles.run_comparison(cfg)
        assert np.array_equal(fast.theta, [r.theta for r in slow])
        assert np.array_equal(fast.x, [(r.x_a, r.x_b) for r in slow], equal_nan=True)
        assert np.array_equal(fast.n, [(r.n_a, r.n_b) for r in slow])

    def test_repeat_runs_identical(self):
        cfg = config(cycles=150)
        assert same_cycles(run_comparison(cfg), run_comparison(cfg))

    def test_different_seeds_differ(self):
        a = run_comparison(config(cycles=50))
        b = run_comparison(config(cycles=50, seed=43))
        assert not same_cycles(a, b)

    def test_fixed_sweep_thetas(self):
        cfg = config(cycles=16, laser_phase_model="FixedSweep")
        results = run_comparison(cfg)
        expect = 2.0 * math.pi * np.arange(16) / 16
        assert np.allclose(results.theta, expect, atol=1e-15)

    def test_all_channels_coincide_at_zero_error(self):
        runs = {}
        for kind in ("erasure", "depolarizing", "dephasing"):
            runs[kind] = run_comparison(config(noise={"kind": kind, "q": 0.0}, cycles=120))
        assert same_cycles(runs["erasure"], runs["depolarizing"])
        assert same_cycles(runs["depolarizing"], runs["dephasing"])
        # depolarizing at 2q and dephasing at q share the amplitude 1 - 2q
        # and survival 1, so they draw alike too
        depolarizing, dephasing = (
            run_comparison(config(noise={"kind": kind, "q": q}, cycles=120))
            for kind, q in (("depolarizing", 0.4), ("dephasing", 0.2))
        )
        assert same_cycles(depolarizing, dephasing)


class TestSurvivorStreams:
    """A lossy run draws its survivors a block at a time from the block's
    own stream, so every cycle's own stream is the one a lossless run
    reads."""

    @pytest.mark.parametrize("n, p", [(3, 0.75), (5, 0.02), (400, 0.7), (3000, 0.3),
                                      (2**40, 0.5)])
    def test_scalar_and_array_binomial_draws_consume_the_stream_alike(self, n, p):
        # The oracle draws survivors one scalar at a time, the library as
        # one array: both must read the same values and leave the stream in
        # the same state, in numpy's inversion and BTPE regimes alike.
        for spawn_key in ((0, 1), (3, 1)):
            scalar, array = (
                np.random.Generator(np.random.Philox(
                    np.random.SeedSequence(entropy=20260823, spawn_key=spawn_key)))
                for _ in range(2)
            )
            drawn = [[scalar.binomial(n, p) for _ in range(2)] for _ in range(37)]
            assert np.array_equal(array.binomial(n, p, size=(37, 2)), drawn)
            after = scalar.bit_generator.state, array.bit_generator.state
            for field in ("counter", "key"):
                assert np.array_equal(*(state["state"][field] for state in after))
            for field in ("buffer", "buffer_pos", "has_uint32", "uinteger"):
                assert np.array_equal(*(state[field] for state in after))
            assert scalar.random() == array.random()

    @pytest.mark.parametrize("seed", [0, 7, 20260823])
    def test_survivors_never_touch_a_cycles_stream(self, seed):
        # Erasure keeps the fringe, so a cycle that keeps every atom of both
        # ensembles draws exactly what the lossless run draws in that cycle.
        for model in ("UniformRandomPerCycle", "FixedSweep"):
            shared = dict(N0=3, cycles=clock._BLOCK + 5, seed=seed, laser_phase_model=model)
            lossless = run_comparison(config(**shared))
            for noise in ({"kind": "erasure", "q": 0.2}, {"kind": "erasure", "gamma": 0.3}):
                lossy = run_comparison(config(noise=noise, **shared))
                assert np.array_equal(lossy.theta, lossless.theta)
                kept = (lossy.n == 3).all(axis=1)
                assert 0 < kept.sum() < kept.size
                assert np.array_equal(lossy.x[kept], lossless.x[kept])

    # SHA-256 of x then n, as bytes, of runs at N0 5 over 4100 cycles. A
    # run that keeps its atoms draws no survivors, so where survivors are
    # drawn must not move these bytes.
    @pytest.mark.parametrize("seed, noise, digest", [
        (0, {"kind": "depolarizing", "q": 0.3},
         "ca9b63515a936a4536783eb078abcf496bbb080cdb80ae45e6be3affa094e6f4"),
        (0, {"kind": "dephasing", "gamma": 0.4},
         "0656662754f30e3313b969b69f1a2c608aeff3eb4e36a3cd016168dd8c6d5d5a"),
        (7, {"kind": "depolarizing", "q": 0.3},
         "0fee091de7e38e93e81a9321fccecc4077f1f425d1098ef338d0230c299d93d4"),
        (7, {"kind": "dephasing", "gamma": 0.4},
         "48b1cdba4701539c30555686117ea837e2b4ae8c57c1eea95ca98a12ddd1046e"),
        (20260823, {"kind": "depolarizing", "q": 0.3},
         "b78c915e675e94a85821892295cde929b6e1087dd1c23081ba31612916a488e7"),
        (20260823, {"kind": "dephasing", "gamma": 0.4},
         "d1c67100c620987658b90b12c78ccdb1df9c972ad7e2b51f2ad2ec3dea6af910"),
    ])
    def test_lossless_runs_keep_their_draws(self, seed, noise, digest):
        run = run_comparison(config(N0=5, cycles=4100, seed=seed, noise=noise))
        assert hashlib.sha256(run.x.tobytes() + run.n.tobytes()).hexdigest() == digest

    def test_noiseless_lossy_run_gives_born_probabilities(self):
        cfg = config(N0=3, cycles=500, noise={"kind": "erasure", "q": 0.3}, shot_noise=False,
                     c_a=0.9, c_b=0.6, phi_d=1.1, seed=11)
        run = run_comparison(cfg)
        born = [[0.5 * (1.0 + c * math.cos(th + off)) for off, c in ((0.0, 0.9), (1.1, 0.6))]
                for th in run.theta.tolist()]
        assert np.array_equal(run.x, born)
        block = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=11, spawn_key=(0, 1))))
        assert np.array_equal(run.n, block.binomial(3, 0.7, size=(500, 2)))
        assert (run.n == 0).any() and run.valid.all()


class TestCycleModel:
    def test_shot_noise_off_gives_analytic_pipeline(self):
        cfg = config(shot_noise=False, cycles=200, phi_d=0.9)
        results = run_comparison(cfg)
        assert np.all(results.n == 300)
        series = phase_series_from_cycles(valid_pairs(results), window=100)
        assert np.allclose(series, 0.9, atol=1e-6)

    def test_analytic_fixed_sweep_traces_the_exact_ellipse(self):
        cfg = config(shot_noise=False, cycles=64, phi_d=1.3,
                     laser_phase_model="FixedSweep")
        res = ellipse_fit(valid_pairs(run_comparison(cfg)))
        assert res.phi_d == pytest.approx(1.3, abs=1e-9)
        assert res.contrast_a == pytest.approx(1.0, abs=1e-9)
        assert res.contrast_b == pytest.approx(1.0, abs=1e-9)

    def test_erasure_channel_loses_atoms(self):
        cfg = config(noise={"kind": "erasure", "q": 0.2}, cycles=600)
        results = run_comparison(cfg)
        stats = comparison_stats(results, cfg.n0)
        assert stats["measured_loss_q"] == pytest.approx(0.2, abs=0.01)
        assert stats["mean_n_a"] < 300

    def test_mean_survivors_within_binomial_band(self):
        cfg = config(N0=1000, cycles=10_000, noise={"kind": "erasure", "q": 0.3})
        stats = comparison_stats(run_comparison(cfg), cfg.n0)
        # per cycle n ~ Binomial(1000, 0.7); the run mean carries
        # SEM = sqrt(1000 * 0.3 * 0.7 / cycles)
        band = 3.0 * math.sqrt(1000 * 0.3 * 0.7 / 10_000)
        assert abs(stats["mean_n_a"] - 700.0) < band
        assert abs(stats["mean_n_b"] - 700.0) < band

    @pytest.mark.parametrize("kind", ["depolarizing", "dephasing"])
    def test_rate_specified_channel_decays_the_contrast(self, kind):
        # gamma chosen so e^{-gamma T_c} = 0.61 at T_c = 8: the fitted fringe
        # amplitude of either contrast-decay channel should land on 0.61
        gamma = -math.log(0.61) / 8.0
        cfg = config(N0=2000, cycles=600, T_c=8.0, seed=1,
                     noise={"kind": kind, "gamma": gamma})
        res = ellipse_fit(valid_pairs(run_comparison(cfg)))
        assert res.contrast_a == pytest.approx(0.61, abs=0.006)
        assert res.contrast_b == pytest.approx(0.61, abs=0.006)

    def test_depolarizing_keeps_atoms_but_shrinks_fringe(self):
        cfg = config(noise={"kind": "depolarizing", "q": 0.4},
                     shot_noise=False, cycles=100, laser_phase_model="FixedSweep")
        results = run_comparison(cfg)
        assert np.all(results.n[:, 0] == 300)
        x = results.x[:, 0]
        # excitation fraction swings only (1-q) * c/2 about one half
        assert np.max(np.abs(x - 0.5)) == pytest.approx(0.3, abs=1e-9)

    def test_dephasing_amplitude_uses_two_q(self):
        cfg = config(noise={"kind": "dephasing", "q": 0.2},
                     shot_noise=False, cycles=100, laser_phase_model="FixedSweep")
        x = run_comparison(cfg).x[:, 0]
        assert np.max(np.abs(x - 0.5)) == pytest.approx(0.3, abs=1e-9)

    def test_empty_ensemble_marks_cycle_invalid(self):
        cfg = config(N0=1, noise={"kind": "erasure", "q": 0.9}, cycles=300)
        results = run_comparison(cfg)
        frac = comparison_stats(results, cfg.n0)["invalid_fraction"]
        assert 0.5 < frac <= 1.0
        assert not np.any(results.valid & np.any(results.n == 0, axis=1))
        assert len(valid_pairs(results)) == np.count_nonzero(results.valid)

    def test_lost_cycles_that_leave_too_few_windows_are_named(self):
        # the window suits the 400 cycles, but the ~12 cycles that lose an
        # ensemble leave three full windows of valid pairs
        cfg = config(N0=3, cycles=400, noise={"kind": "erasure", "q": 0.25})
        lost = int(np.count_nonzero(~run_comparison(cfg).valid))
        assert lost > 0
        message = (f"window 100 over {400 - lost} valid pairs: {lost} of 400 cycles lost "
                   "every atom of an ensemble")
        with pytest.raises(ValueError, match=message):
            analyze_comparison(cfg, window=100)


class TestAllanDeviation:
    def test_white_noise_slope(self):
        rng = np.random.default_rng(11)
        res = allan_deviation(rng.normal(size=10_000), cycle_time=1.0)
        mask = np.asarray(res.averaging_factors) <= 10_000 / 16
        slope = np.polyfit(np.log(np.asarray(res.taus)[mask]),
                           np.log(np.asarray(res.sigmas)[mask]), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_white_noise_level(self):
        # sigma_y(tau) = sigma / sqrt(tau/tau0) for white frequency noise
        rng = np.random.default_rng(3)
        res = allan_deviation(0.25 * rng.normal(size=20_000), cycle_time=2.0)
        assert res.sigmas[0] == pytest.approx(0.25, rel=0.05)
        assert res.taus[0] == pytest.approx(2.0)

    def test_constant_series_is_flat_zero(self):
        res = allan_deviation(np.full(500, 0.7), cycle_time=1.0)
        assert max(res.sigmas) < 1e-12

    def test_linear_drift_slope_is_plus_one(self):
        y = 1e-3 * np.arange(2048, dtype=float)
        res = allan_deviation(y, cycle_time=1.0)
        slope = np.polyfit(np.log(res.taus), np.log(res.sigmas), 1)[0]
        assert slope == pytest.approx(1.0, abs=1e-6)

    def test_octave_inclusion_rule(self):
        res = allan_deviation(np.random.default_rng(1).normal(size=100), cycle_time=1.0)
        # largest octave m with n - m >= 2m + 1 at n = 100 is 32
        assert list(res.averaging_factors) == [1, 2, 4, 8, 16, 32]
        assert list(res.taus) == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]

    def test_jackknife_errors_positive_and_ordered(self):
        rng = np.random.default_rng(8)
        res = allan_deviation(rng.normal(size=4096), cycle_time=1.0)
        assert all(e > 0.0 for e in res.errors)
        # relative error grows with fewer independent blocks
        rel = np.asarray(res.errors) / np.asarray(res.sigmas)
        assert rel[-1] > rel[0]

    def test_jackknife_errors_match_the_white_noise_spread(self):
        # On white noise the relative spread of the overlapping ADEV is
        # 1/sqrt(2 edf), with the white-FM equivalent degrees of freedom of
        # Howe, Allan & Barnes (1981; Riley, NIST SP 1065). At n = 1200 the
        # octaves m <= 16 keep at least 16 blocks of 4m squared differences.
        n, series = 1200, 200
        rng = np.random.default_rng(2026)
        ratios = []
        for _ in range(series):
            res = allan_deviation(rng.normal(size=n), cycle_time=1.0)
            ratios.append(res.errors / res.sigmas)
        m = res.averaging_factors[res.averaging_factors <= 16]
        edf = (3 * (n - 1) / (2 * m) - 2 * (n - 2) / n) * 4 * m**2 / (4 * m**2 + 5)
        calibration = np.mean(ratios, axis=0)[:m.size] * np.sqrt(2 * edf)
        assert np.all((0.8 <= calibration) & (calibration <= 1.1)), calibration

    def test_a_burst_keeps_every_error_finite(self):
        # where every nonzero difference lies in one block, deleting it keeps
        # nothing: the kept sum must be exactly zero, not rounded below it
        rng = np.random.default_rng(5)
        for _ in range(200):
            y = np.zeros(int(rng.integers(20, 400)))
            start = int(rng.integers(0, y.size - 5))
            y[start:start + 5] = rng.random(5)
            res = allan_deviation(y, cycle_time=1.0)
            assert np.all(np.isfinite(res.errors)) and np.all(res.errors >= 0.0)

    def test_nan_gaps_are_dropped(self):
        rng = np.random.default_rng(21)
        y = rng.normal(size=1000)
        y[::97] = np.nan
        res = allan_deviation(y, cycle_time=1.0)
        assert np.isfinite(res.sigmas).all()

    @pytest.mark.parametrize("offset, scale", [
        (1e8, 1.0), (4.29e14, 0.01), (1.0, 1e-15), (0.0, 1e-160), (0.0, 1e155),
    ], ids=["offset-1e8", "hertz-4.29e14", "fractional-1", "scale-1e-160", "scale-1e155"])
    def test_any_offset_and_scale_keeps_the_digits(self, offset, scale):
        # the same white noise under an offset or a scale: one window's
        # deviation against the two-pass value on the same input
        y = offset + scale * np.random.default_rng(1).normal(size=10_000)
        sigma = allan_deviation(y, cycle_time=1.0).sigmas[0]
        assert sigma == pytest.approx(oracles.overlapping_adev_direct(y, 1), rel=1e-12)

    def test_results_at_the_edge_of_the_float_range(self):
        # differences of samples near the largest float overflow unless the
        # series is scaled first
        y = 1.5e308 * np.random.default_rng(2).uniform(-1.0, 1.0, size=200)
        assert np.isfinite(allan_deviation(y, cycle_time=1.0).sigmas).all()
        # a deviation or an averaging time past it is an error, not inf
        with pytest.raises(ValueError, match="float range"):
            allan_deviation(np.resize([1.7e308, -1.7e308], 100), cycle_time=1.0)
        with pytest.raises(ValueError, match="float range"):
            allan_deviation(np.arange(100.0), cycle_time=1e307)

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError):
            allan_deviation(np.ones(3), cycle_time=1.0)
        # only NaN marks a gap: an infinite sample is an error, not dropped
        for bad in (math.inf, -math.inf):
            y = np.ones(100)
            y[40] = bad
            with pytest.raises(ValueError, match="infinite"):
                allan_deviation(y, cycle_time=1.0)
        for cycle_time in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                allan_deviation(np.ones(100), cycle_time=cycle_time)


class TestFloorsAndFits:
    def test_projection_noise_floor_values(self):
        assert crb_floor(500, 1.0, 100.0, 1.0) == pytest.approx(
            0.0007117625434171771, rel=1e-12)
        assert crb_floor(500, 1.0, 100.0, 1.0, differential=True) == pytest.approx(
            0.0010065842420897409, rel=1e-12)

    def test_floor_scales_as_inverse_sqrt_resources(self):
        base = crb_floor(1000, 1.0, 400.0, 1.0)
        assert crb_floor(4000, 1.0, 400.0, 1.0) == pytest.approx(base / 2.0, rel=1e-12)
        assert crb_floor(1000, 1.0, 1600.0, 1.0) == pytest.approx(base / 2.0, rel=1e-12)

    def test_unit_floor_value(self):
        assert crb_floor(1, 1.0, 1.0, 1.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)

    def test_non_positive_and_non_finite_floor_arguments_rejected(self):
        for args in ((0, 1.0, 1.0, 1.0), (math.nan, 1.0, 1.0, 1.0), (math.inf, 1.0, 1.0, 1.0),
                     (100, 0.0, 1.0, 1.0), (100, math.nan, 1.0, 1.0),
                     (100, 1.0, math.inf, 1.0), (100, 1.0, 1.0, math.nan),
                     (100, 1.0, 1.0, math.inf)):
            with pytest.raises(ValueError):
                crb_floor(*args)

    def test_noiseless_comparison_sits_just_above_the_floor(self):
        # ellipse readout is slightly inefficient, so the measured one-window
        # instability lands a little above (never below) the projection floor
        cfg = config(N0=500, cycles=10_000, seed=2)
        results = run_comparison(cfg)
        series = phase_series_from_cycles(valid_pairs(results), window=100)
        phase_sigma = allan_deviation(series, cycle_time=100.0 * cfg.cycle_time).sigmas[0]
        sigma = phase_sigma / (2.0 * math.pi * cfg.t_c * cfg.f0)
        floor = crb_floor(500, 1.0, 100.0, 1.0, differential=True)
        assert 1.0 <= sigma / floor <= 1.2

    def test_loglog_fit_recovers_exact_power_law(self):
        qs = np.array([0.0, 0.2, 0.4, 0.6, 0.8])
        sigmas = 2.0 * (1.0 - qs) ** (-0.5)
        slope, stderr, sigma0 = fit_loglog_exponent(qs, sigmas)
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-10)
        assert sigma0 == pytest.approx(2.0, rel=1e-12)
        # one repeated q leaves the slope undefined (a rank-deficient fit);
        # two distinct q among three points still fix it
        with pytest.raises(ValueError, match="distinct"):
            fit_loglog_exponent([0.1] * 3, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="at least 3"):
            fit_loglog_exponent([0.0, 0.5], [1.0, 2.0])
        # a noiseless run's sigma is exactly 0, and its log is -inf
        for sigmas in ([0.0, 1.0, 2.0], [1.0, -1.0, 2.0], [1.0, math.nan, 2.0]):
            with pytest.raises(ValueError, match="positive sigmas"):
                fit_loglog_exponent([0.0, 0.3, 0.6], sigmas)
            with pytest.raises(ValueError, match="positive sigmas"):
                fit_fixed_form_intercept([0.0, 0.3, 0.6], sigmas, -0.5)
        assert fit_loglog_exponent([0.0, 0.0, 0.75], [2.0, 2.0, 4.0])[0] == pytest.approx(
            -0.5, abs=1e-12)

    def test_fits_need_every_q_in_unit_interval(self):
        # log(1 - q) is -inf at q = 1 and NaN past it, and q < 0 is no error rate
        for q in (-0.1, 1.0, 1.5, math.nan):
            qs = [0.0, 0.5, q]
            with pytest.raises(ValueError, match=r"every q in \[0, 1\)"):
                fit_loglog_exponent(qs, [1.0, 2.0, 3.0])
            with pytest.raises(ValueError, match=r"every q in \[0, 1\)"):
                fit_fixed_form_intercept(qs, [1.0, 2.0, 3.0], -0.5)

    def test_fixed_form_intercept(self):
        qs = np.array([0.0, 0.3, 0.6])
        sigmas = 1.7 * (1.0 - qs) ** (-1.0)
        assert fit_fixed_form_intercept(qs, sigmas, -1.0) == pytest.approx(1.7, rel=1e-12)

    def test_intercept_past_the_float_range_rejected(self):
        # sigmas near the largest float extrapolate to a sigma0 at q = 0
        # that no float holds
        qs, sigmas = [0.5, 0.6, 0.7], [1.7e308, 1.0e308, 0.5e308]
        with pytest.raises(ValueError, match="sigma0"):
            fit_loglog_exponent(qs, sigmas)
        with pytest.raises(ValueError, match="sigma0"):
            fit_fixed_form_intercept(qs, sigmas, 1.0)

    def test_scaling_curve_smoke(self):
        cfg = config(N0=400, cycles=3000, c_a=0.5, c_b=0.5, seed=9)
        points = instability_vs_error_rate(cfg, [0.0, 0.75], [ChannelKind.ERASURE],
                                           window=100)[ChannelKind.ERASURE]
        assert [p.q for p in points] == [0.0, 0.75]
        assert all(p.sigma > 0.0 and p.sigma_err > 0.0 for p in points)
        # losing 3/4 of the atoms must cost stability (expected ratio 2x)
        assert points[1].sigma > points[0].sigma

    def test_whole_q_grid_checked_before_simulating(self, monkeypatch):
        runs = []
        monkeypatch.setattr(clock, "_simulate", lambda config, channels: runs.extend(channels))
        erasure = [ChannelKind.ERASURE]
        with pytest.raises(ValueError, match="0.99"):
            instability_vs_error_rate(config(), [0.0, 0.3, 0.99], erasure)
        with pytest.raises(ValueError, match="distinct"):
            instability_vs_error_rate(config(), [0.0, 0.3, 0.3], erasure)
        with pytest.raises(ValueError, match="shot_noise"):
            instability_vs_error_rate(config(shot_noise=False), [0.0, 0.3], erasure)
        for kinds in ([], erasure * 2, [ChannelKind.ERASURE, "erasure"]):
            with pytest.raises(ValueError, match="distinct ChannelKind"):
                instability_vs_error_rate(config(), [0.0, 0.3], kinds)
        assert runs == []

    def test_sweep_simulates_each_contract_pair_once(self, monkeypatch):
        # depolarizing and dephasing share (1, 1) at q = 0 and (0.6, 1) at
        # depolarizing 0.4 and dephasing 0.2: four distinct pairs in six
        # points, and each kind's curve is the one a sweep of it alone gives
        cfg = config(N0=400, cycles=1000, c_a=0.5, c_b=0.5, seed=9)
        grid = [0.0, 0.2, 0.4]
        kinds = [ChannelKind.DEPOLARIZING, ChannelKind.DEPHASING]
        alone = {kind: instability_vs_error_rate(cfg, grid, [kind])[kind] for kind in kinds}
        runs = []
        simulate = clock._simulate

        def counted(config, channels):
            runs.extend(channels)
            return simulate(config, channels)

        monkeypatch.setattr(clock, "_simulate", counted)
        curves = instability_vs_error_rate(cfg, grid, kinds)
        assert len(runs) == 4
        assert list(curves) == kinds
        for kind in kinds:
            assert [p.q for p in curves[kind]] == grid
            assert curves[kind] == alone[kind]

    def test_sweep_split_by_the_budget_gives_the_same_curves(self, monkeypatch):
        # five distinct pairs, run one to a group, in groups of 2, 2 and 1,
        # and all in one group: the curves are the same
        cfg = config(N0=400, cycles=1000, c_a=0.5, c_b=0.5, seed=9)
        grid = [0.0, 0.2, 0.4]
        kinds = [ChannelKind.ERASURE, ChannelKind.DEPOLARIZING]
        groups = []
        simulate = clock._simulate

        def counted(config, channels):
            groups.append(len(channels))
            return simulate(config, channels)

        monkeypatch.setattr(clock, "_simulate", counted)
        curves = []
        for budget in (1, clock._column_bytes(cfg.cycles, 2), clock._column_bytes(cfg.cycles, 5)):
            monkeypatch.setattr(clock, "_GROUP_BYTES", budget)
            curves.append(instability_vs_error_rate(cfg, grid, kinds))
        assert groups == [1, 1, 1, 1, 1, 2, 2, 1, 5]
        assert curves[0] == curves[1] == curves[2]

    def test_scaling_exponents_do_not_depend_on_the_units(self):
        # T_c f0 only divides every sigma, so the exponents are the same at
        # T_c = 1e160 as at 1, to rounding
        exponents = []
        for t_c in (1.0, 1e160):
            cfg = config(N0=400, cycles=3000, c_a=0.5, c_b=0.5, seed=9, T_c=t_c)
            points = instability_vs_error_rate(cfg, [0.0, 0.4, 0.8],
                                               [ChannelKind.ERASURE])[ChannelKind.ERASURE]
            exponents.append(fit_loglog_exponent([p.q for p in points],
                                                 [p.sigma for p in points])[0])
        assert exponents[1] == pytest.approx(exponents[0], rel=1e-10)


class TestOptimizer:
    def test_closed_form_optima(self):
        for gamma in (0.3, 1.0, 2.5, 17.0):
            dep = optimize_interrogation(gamma, 0.0, ChannelKind.DEPOLARIZING)
            era = optimize_interrogation(gamma, 0.0, ChannelKind.ERASURE)
            assert dep.t_c_star == pytest.approx(1.0 / (2.0 * gamma), abs=1e-8, rel=0)
            assert era.t_c_star == pytest.approx(1.0 / gamma, abs=1e-8, rel=0)
        # the closed-form root holds across the floating-point range
        for gamma in (1e-300, 1e-6, 1e6, 1e300):
            dep = optimize_interrogation(gamma, 0.0, ChannelKind.DEPOLARIZING)
            era = optimize_interrogation(gamma, 0.0, ChannelKind.ERASURE)
            assert dep.t_c_star == pytest.approx(1.0 / (2.0 * gamma), rel=1e-12)
            assert era.t_c_star == pytest.approx(1.0 / gamma, rel=1e-12)

    def test_dephasing_shares_the_depolarizing_optimum(self):
        dep = optimize_interrogation(2.0, 0.0, ChannelKind.DEPHASING)
        assert dep.t_c_star == pytest.approx(0.25, abs=1e-8)

    def test_objective_value_at_optimum(self):
        # sigma(T) ∝ e^{gamma T} sqrt(T + T_d)/T; at gamma=1, T*=1/2:
        # e^{1/2} sqrt(1/2)/(1/2) = e^{1/2} sqrt(2)
        res = optimize_interrogation(1.0, 0.0, ChannelKind.DEPOLARIZING)
        assert res.sigma_star == pytest.approx(math.exp(0.5) * math.sqrt(2.0), rel=1e-9)

    def test_gain_at_zero_dead_time(self):
        g = erasure_conversion_gain(1.0, 0.0)
        assert g.gain == pytest.approx(math.sqrt(2.0), abs=1e-6)
        assert g.t_c_star_depolarizing == pytest.approx(0.5, abs=1e-8)
        assert g.t_c_star_erasure == pytest.approx(1.0, abs=1e-8)

    def test_gain_saturates_at_two_for_long_dead_time(self):
        g = erasure_conversion_gain(1.0, 1000.0)
        assert g.gain == pytest.approx(2.0, rel=0.01)

    def test_gain_nearly_saturated_at_hundred_lifetimes(self):
        g = erasure_conversion_gain(1.0, 100.0)
        assert 1.9 <= g.gain <= 2.0

    def test_gain_curve_monotone_and_bounded(self):
        grid = [0.0, 0.1, 1.0, 10.0, 100.0, 1000.0]
        curve = erasure_conversion_gain_curve(1.0, grid)
        gains = [p.gain for p in curve]
        assert all(b >= a - 1e-12 for a, b in zip(gains, gains[1:]))
        assert all(math.sqrt(2.0) - 1e-6 <= g <= 2.0 + 1e-6 for g in gains)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            optimize_interrogation(0.0, 0.0, ChannelKind.ERASURE)
        with pytest.raises(ValueError):
            optimize_interrogation(1.0, -0.5, ChannelKind.ERASURE)
        for kind in ChannelKind:
            for gamma_d, t_d, named in ((math.inf, 1.0, "gamma_d"),
                                        (math.nan, 1.0, "gamma_d"),
                                        (1.0, math.inf, "t_d"),
                                        (1.0, math.nan, "t_d")):
                with pytest.raises(ValueError, match=named):
                    optimize_interrogation(gamma_d, t_d, kind)


class TestFrequencyConversion:
    """analyze_comparison takes the Allan deviation of the phase series and
    divides its sigmas and errors once by 2 pi T_c f0."""

    def test_phase_to_fractional_frequency(self):
        cfg = config(T_c=2.0, f0=5.0, cycles=2000)
        run = analyze_comparison(cfg, window=50)
        phase = allan_deviation(run.series, cycle_time=50.0 * cfg.cycle_time)
        assert np.array_equal(run.allan.taus, phase.taus)
        assert run.allan.sigmas == pytest.approx(phase.sigmas / (2.0 * math.pi * 10.0), rel=1e-15)
        assert run.allan.errors == pytest.approx(phase.errors / (2.0 * math.pi * 10.0), rel=1e-15)

    def test_white_phase_scatter_sets_the_single_window_deviation(self, monkeypatch):
        # sigma_y at one window of a white phase series with spread dphi
        # should match dphi/(2 pi T_c f0) to sampling accuracy
        rng = np.random.default_rng(3)
        dphi, t_c, f0 = 0.01, 2.0, 3.0
        series = 0.8 + rng.normal(scale=dphi, size=4000)
        monkeypatch.setattr(clock, "phase_series_from_cycles", lambda pairs, window: series)
        # the window sets the averaging time, not the deviation
        sigma = analyze_comparison(config(T_c=t_c, f0=f0), window=6).allan.sigmas[0]
        target = dphi / (2.0 * math.pi * t_c * f0)
        assert sigma == pytest.approx(target, rel=0.10)

    def test_invalid_scales_rejected(self):
        for t_c, f0 in ((0.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
                        (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ValueError):
                config(T_c=t_c, f0=f0)
        # legal scales whose quotient no float holds
        for t_c, f0 in ((1e200, 1e200), (5e-324, 1e-300)):
            with pytest.raises(ValueError, match=r"T_c\*f0"):
                analyze_comparison(config(T_c=t_c, f0=f0), window=20)
        # T_c f0 alone below the float range, the quotient within it
        run = analyze_comparison(config(T_c=1e-310), window=20)
        phase = allan_deviation(run.series, cycle_time=20e-310).sigmas
        assert run.allan.sigmas == pytest.approx(phase / (2.0 * math.pi) / 1e-310, rel=1e-15)
