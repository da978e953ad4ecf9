"""The stacked ellipse solver, the linear-time Allan jackknife, the cycle
columns, the closed-form interrogation optimum, the Bloch-form quantum
Fisher information and the float paths of the state chain, the Fisher
information and the count inversion against the slow paths they replaced
(tests/oracles.py), on random inputs and on the degenerate windows a batch
must survive."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from erasure_sensing.clock import (
    ComparisonConfig,
    LaserPhaseModel,
    allan_deviation,
    optimize_interrogation,
    run_comparison,
)
from erasure_sensing import estimation
from erasure_sensing.estimation import (
    CountRecord,
    EllipseFitError,
    ellipse_fit,
    ellipse_phase_jackknife,
    mle_phase,
    phase_series_from_cycles,
)
from erasure_sensing.fisher import (
    SingularFisherError,
    bloch_density,
    channel_outcome_model,
    classical_fisher_numeric,
    fisher_information,
    qfi_depolarized,
    qfi_pure_generator,
)
from erasure_sensing.states import ChannelKind, NoiseChannel, OutcomeDistribution

RTOL = 1e-10

# Derandomized so a run of the suite is reproducible; no example database,
# so a run writes nothing.
PROPERTY = settings(max_examples=25, deadline=None, database=None, derandomize=True)

seeds = st.integers(0, 2**32 - 1)
kinds = st.sampled_from(list(ChannelKind))
# the edges of [0, 1] too: near q = 1 an erasure fringe carries the weight
# 1 - q, and the numeric oracle's probability floor scales with it
strengths = st.floats(0.0, 1.0) | st.sampled_from([0.0, 1e-15, 0.5, 1.0 - 1e-15, 1.0])
angles = st.floats(-10.0, 10.0)


def outcome(fn, *args):
    """fn(*args), or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def noisy_ellipse(rng, n, noise):
    """n pairs on a random ellipse at random laser phases, with Gaussian
    noise of the given scale on each axis."""
    phi_d = rng.uniform(0.2, math.pi - 0.2)
    c_a, c_b = rng.uniform(0.3, 1.0, size=2)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    pts = np.column_stack(
        [0.5 * (1.0 + c_a * np.cos(theta)), 0.5 * (1.0 + c_b * np.cos(theta + phi_d))]
    )
    return pts + rng.normal(scale=noise, size=(n, 2))


def collinear(rng, n):
    """n points on a line: the fit must be rejected."""
    t = rng.uniform(0.0, 1.0, size=n)
    return np.column_stack([t, 2.0 * t])


def four_on_a_line_plus_one(seed, n=20):
    """n pairs drawn from five points, four of them on one line: every conic
    of a pencil (the line times any line through the fifth point) passes
    through them, so the fit must be rejected."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(size=4)
    five = np.vstack([np.column_stack([t, 2.0 * t + 0.1]), rng.uniform(size=(1, 2))])
    return five[np.concatenate([np.arange(5), rng.integers(0, 5, size=n - 5)])]


def assert_close(fast, slow):
    fast, slow = np.asarray(fast, dtype=float), np.asarray(slow, dtype=float)
    assert fast.shape == slow.shape
    assert np.array_equal(np.isnan(fast), np.isnan(slow))
    ok = ~np.isnan(slow)
    assert np.all(np.abs(fast[ok] - slow[ok]) <= RTOL * np.abs(slow[ok]))


class TestAgainstOracles:
    @PROPERTY
    @given(seed=seeds, n=st.integers(7, 3000), noise=st.floats(1e-3, 3e-2))
    def test_jackknife(self, seed, n, noise):
        pts = noisy_ellipse(np.random.default_rng(seed), n, noise)
        phi, err = ellipse_phase_jackknife(pts)
        phi_slow, err_slow = oracles.jackknife(pts)
        assert_close([phi, err], [phi_slow, err_slow])

    @PROPERTY
    @given(
        seed=seeds,
        window=st.integers(6, 120),
        n_windows=st.integers(2, 40),
        tail=st.integers(0, 5),
        noise=st.floats(1e-3, 3e-2),
        bad=st.floats(0.0, 0.5),
    )
    def test_window_series(self, seed, window, n_windows, tail, noise, bad):
        # A share of the windows are collinear: the fast path must leave
        # NaN gaps there, and only there, among the good ones. The loop is
        # no reference for those windows, because it accepts about a third
        # of exactly collinear windows with whatever phase rounding gives.
        rng = np.random.default_rng(seed)
        collinear_windows = rng.random(n_windows) < bad
        windows = [
            collinear(rng, window) if flat else noisy_ellipse(rng, window, noise)
            for flat in collinear_windows
        ]
        cycles = np.vstack(windows + [noisy_ellipse(rng, tail, noise)])
        fast = phase_series_from_cycles(cycles, window)
        slow = oracles.phase_series(cycles, window)
        assert np.isnan(fast[collinear_windows]).all()
        assert_close(fast[~collinear_windows], slow[~collinear_windows])

    @PROPERTY
    @given(
        seed=seeds,
        n=st.integers(4, 3000),
        offset=st.floats(-5.0, 5.0),
        gaps=st.floats(0.0, 0.2),
    )
    def test_allan(self, seed, n, offset, gaps):
        rng = np.random.default_rng(seed)
        y = offset + rng.normal(size=n)
        y[rng.random(n) < gaps] = np.nan
        if np.count_nonzero(np.isfinite(y)) < 4:
            y[:4] = offset
        res = allan_deviation(y, cycle_time=1.0)
        factors, sigmas, errors = oracles.allan(y)
        assert np.array_equal(res.averaging_factors, factors)
        assert np.array_equal(res.sigmas, sigmas)
        assert_close(res.errors, errors)

    @PROPERTY
    @given(
        seed=seeds,
        n=st.integers(4, 300),
        digits=st.floats(-3.0, 15.0),
        sign=st.sampled_from([-1.0, 1.0]),
        power=st.integers(-1000, 1000),
    )
    def test_allan_at_any_offset_and_scale(self, seed, n, digits, sign, power):
        # White noise under an offset of up to 1e15 times its spread, scaled
        # by 2^power, against the two-pass ADEV, which reads no prefix sum.
        # The power is capped so that offset and noise stay below 2^1001.
        offset = sign * 10.0**digits
        y = offset + np.random.default_rng(seed).normal(size=n)
        y = np.ldexp(y, min(power, 1000 - math.frexp(float(np.max(np.abs(y))))[1]))
        res = allan_deviation(y, cycle_time=1.0)
        factors, sigmas, errors = oracles.allan(y, oracles.overlapping_adev_direct)
        assert np.array_equal(res.averaging_factors, factors)
        assert_close(res.sigmas, sigmas)
        assert_close(res.errors, errors)

    # More examples than the others, with N0 often small, so that runs
    # with empty ensembles (NaN fractions) are common, and sometimes in the
    # thousands, where numpy's binomial switches to BTPE and caches its
    # setup in the one Generator that run_comparison re-keys per cycle.
    # The seed spans the config's full unsigned 64-bit range.
    @settings(PROPERTY, max_examples=60)
    @given(
        seed=st.integers(0, 2**64 - 1),
        kind=st.sampled_from(list(ChannelKind)),
        by_rate=st.booleans(),
        n0=st.integers(1, 4) | st.integers(1, 50) | st.integers(1000, 5000),
        shot_noise=st.booleans(),
        model=st.sampled_from(list(LaserPhaseModel)),
    )
    def test_cycle_columns(self, seed, kind, by_rate, n0, shot_noise, model):
        # Every column equals the per-cycle loop bit for bit, NaN included:
        # the columns are filled from the same streams in the same order.
        rng = np.random.default_rng(seed)
        t_c = rng.uniform(0.1, 3.0)
        if by_rate:
            noise = NoiseChannel(kind, gamma=rng.uniform(0.0, 1.0))
        else:
            noise = NoiseChannel(kind, q=rng.choice([0.0, rng.uniform(0.0, 0.95)]))
        cfg = ComparisonConfig(
            phi_d=rng.uniform(0.0, math.pi), n0=n0, t_c=t_c, t_d=0.0, f0=1.0,
            cycles=int(rng.integers(1, 200)), noise=noise, c_a=rng.uniform(),
            c_b=rng.uniform(), laser_phase_model=model, seed=seed, shot_noise=shot_noise,
        )
        fast = run_comparison(cfg)
        slow = oracles.run_comparison(cfg)
        columns = {
            "theta": [r.theta for r in slow],
            "x": [(r.x_a, r.x_b) for r in slow],
            "n": [(r.n_a, r.n_b) for r in slow],
            "valid": [r.valid for r in slow],
        }
        for name, expected in columns.items():
            expected = np.array(expected)
            column = getattr(fast, name)
            assert column.shape == expected.shape and column.dtype.kind == expected.dtype.kind
            assert np.array_equal(column, expected, equal_nan=True), name

    @PROPERTY
    @given(
        kind=st.sampled_from(list(ChannelKind)),
        gamma=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
        t_d=st.just(0.0) | st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
    )
    def test_interrogation_optimum(self, kind, gamma, t_d):
        # The closed-form root is the search's argmin to the search's own
        # precision, and no search finds a lower instability.
        fast = optimize_interrogation(gamma, t_d, kind)
        t_star, sigma_star = oracles.optimize_interrogation(gamma, t_d, kind)
        assert fast.t_c_star == pytest.approx(t_star, rel=1e-8)
        assert fast.sigma_star <= sigma_star * (1.0 + 1e-12)

    @PROPERTY
    @given(
        direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
            lambda v: math.hypot(*v) > 1e-3),
        length=st.just(1.0) | st.floats(-6.0, 0.0).map(lambda e: 10.0**e),
        h=st.tuples(*[st.floats(-3.0, 3.0)] * 4),
        q=st.floats(0.0, 0.95),
    )
    def test_qubit_qfi(self, direction, length, h, q):
        # The Bloch form 4 |h x r|^2 is the paper's eigenvector formula.
        r = length * np.array(direction) / math.hypot(*direction)
        rho = bloch_density(r)
        generator = np.array([[h[0], h[2] + 1j * h[3]], [h[2] - 1j * h[3], h[1]]])
        rho_q = (1.0 - q) * rho + q * np.eye(2) / 2.0
        assert qfi_pure_generator(rho, generator) == pytest.approx(
            oracles.qfi(rho, generator), rel=1e-12, abs=1e-12)
        assert qfi_depolarized(rho, generator, q, method="direct") == pytest.approx(
            oracles.qfi(rho_q, generator), rel=1e-12, abs=1e-12)

    @settings(PROPERTY, max_examples=100)
    @given(
        kind=kinds,
        q=strengths,
        theta=angles,
        phi=angles | st.tuples(st.sampled_from([0.0, math.pi]), st.floats(-1e-6, 1e-6)),
    )
    @example(kind=ChannelKind.DEPOLARIZING, q=0.0, theta=0.3, phi=(math.pi, 1e-7))
    @example(kind=ChannelKind.ERASURE, q=1.0 - 1e-15, theta=0.3, phi=(0.0, 1e-7))
    def test_numeric_fisher(self, kind, q, theta, phi):
        # Equal bit for bit, or the same error with the same message. A
        # tuple phi is an offset of at most 1e-6 from a fringe node. The
        # examples take the quadratic-zero limit, the second on a fringe
        # of weight 1e-15 under the scaled floor.
        if isinstance(phi, tuple):
            phi = theta + sum(phi)
        fast = outcome(classical_fisher_numeric, channel_outcome_model(kind, q, theta), phi)
        slow = outcome(oracles.classical_fisher_numeric, oracles.outcome_model(kind, q, theta), phi)
        assert fast == slow
        assert type(fast) is float or fast[0] is SingularFisherError

    def test_numeric_fisher_singular_branch(self):
        # p = max(phi, 0) / 2 has slope 1/2 at its zero from one side only,
        # so both evaluators raise the same error
        def model(phi):
            p = max(phi, 0.0) / 2.0
            return OutcomeDistribution(p_plus=p, p_minus=1.0 - p)

        fast = outcome(classical_fisher_numeric, model, 0.0)
        assert fast == outcome(oracles.classical_fisher_numeric, model, 0.0)
        assert fast[0] is SingularFisherError

    @settings(PROPERTY, max_examples=100)
    @given(
        kind=kinds,
        q=strengths,
        delta=angles | st.sampled_from([0.0, math.pi]),
        points=st.lists(st.tuples(strengths, angles | st.sampled_from([0.0, math.pi])),
                        max_size=5),
    )
    def test_closed_form(self, kind, q, delta, points):
        fast = fisher_information(kind, q, delta)
        assert type(fast) is float
        assert fast == oracles.fisher_information(kind, q, delta)
        qs, deltas = np.array(points).reshape(-1, 2).T
        array = fisher_information(kind, qs, deltas)
        assert array.tolist() == [oracles.fisher_information(kind, a, d) for a, d in points]

    @settings(PROPERTY, max_examples=100)
    @given(
        kind=kinds,
        q=strengths,
        counts=st.tuples(*[st.integers(0, 10**6)] * 3),
        theta=angles,
    )
    def test_mle_phase(self, kind, q, counts, theta):
        n_plus, n_minus, n_erasure = counts
        if kind is not ChannelKind.ERASURE:
            n_erasure = 0
        record = CountRecord(n_plus, n_minus, n_erasure, theta=theta, kind=kind, q=q)
        fast = outcome(mle_phase, record)
        slow = outcome(oracles.mle_phase, record)
        if isinstance(slow, tuple):
            assert fast[0] is slow[0] is ValueError
        else:
            assert fast == slow


class TestDegenerateWindows:
    """A degenerate window is a NaN gap and never fails the rest of its
    batch; wherever the loop rejected a window, so does the stacked solver."""

    def series_of(self, bad_window, window=20):
        rng = np.random.default_rng(4)
        good = [noisy_ellipse(rng, window, 0.01) for _ in range(3)]
        cycles = np.vstack([good[0], bad_window, good[1], good[2]])
        fast = phase_series_from_cycles(cycles, window)
        slow = oracles.phase_series(cycles, window)
        assert_close(fast[[0, 2, 3]], slow[[0, 2, 3]])
        assert np.isfinite(fast[[0, 2, 3]]).all()
        assert np.isnan(fast[1]) or not np.isnan(slow[1])
        return fast[1], slow[1]

    def test_collinear_window(self):
        t = np.linspace(0.0, 1.0, 20)
        fast, _ = self.series_of(np.column_stack([t, 2.0 * t]))
        assert np.isnan(fast)

    def test_collinear_window_the_loop_accepted(self):
        # the loop fits this exactly collinear window as an "ellipse"
        t = np.random.default_rng(0).uniform(size=20)
        fast, slow = self.series_of(np.column_stack([t, 3.0 * t - 0.2]))
        assert np.isnan(fast) and np.isfinite(slow)

    def test_near_collinear_window(self):
        t = np.linspace(0.0, 1.0, 20)
        wobble = 1e-9 * np.random.default_rng(5).normal(size=20)
        fast, _ = self.series_of(np.column_stack([t, 2.0 * t + 0.1 + wobble]))
        assert np.isnan(fast)

    def test_repeated_point_window(self):
        # one point twenty times: the linear block of the scatter matrix is
        # exactly singular, which would fail a stacked solve as a whole
        fast, slow = self.series_of(np.tile([[0.3, 0.7]], (20, 1)))
        assert np.isnan(fast) and np.isnan(slow)

    def test_repeated_points_that_still_fix_an_ellipse(self):
        rng = np.random.default_rng(6)
        pts = noisy_ellipse(rng, 10, 0.01)
        fast, slow = self.series_of(np.vstack([pts, pts]))
        assert_close(fast, slow)
        assert np.isfinite(fast)

    def test_four_distinct_points_window(self):
        # four points fix a pencil of conics, so the phase is arbitrary
        corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        on_ellipse = noisy_ellipse(np.random.default_rng(8), 4, 0.0)
        for four in (corners, on_ellipse):
            fast, _ = self.series_of(np.tile(four, (5, 1)))
            assert np.isnan(fast)

    def test_four_on_a_line_plus_one_window(self):
        for seed in (0, 4, 6):
            fast, _ = self.series_of(four_on_a_line_plus_one(seed))
            assert np.isnan(fast)

    def test_windows_of_exactly_min_points(self):
        rng = np.random.default_rng(7)
        cycles = noisy_ellipse(rng, 6 * 50, 0.01)
        fast = phase_series_from_cycles(cycles, window=6)
        assert_close(fast, oracles.phase_series(cycles, 6))
        assert np.isfinite(fast).all()

    def test_single_fit_rejects_collinear_points(self):
        t = np.random.default_rng(0).uniform(size=20)
        for pts in (
            np.column_stack([t, 3.0 * t - 0.2]),
            np.column_stack([t, 2.0 * t + 0.1]),
            np.tile([[0.3, 0.7]], (20, 1)),
            np.tile([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], (5, 1)),
            np.tile(noisy_ellipse(np.random.default_rng(8), 4, 0.0), (5, 1)),
            *(four_on_a_line_plus_one(seed) for seed in (0, 4, 6)),
            np.tile(noisy_ellipse(np.random.default_rng(8), 4, 0.0), (25_000, 1)),
            np.tile(noisy_ellipse(np.random.default_rng(9), 3, 0.0), (33_334, 1)),
        ):
            with pytest.raises(EllipseFitError, match="collinear or repeated"):
                ellipse_fit(pts)

    def test_jackknife_drops_a_deletion_that_leaves_a_pencil(self):
        # five distinct points on an ellipse fix it; the fifth occurs once,
        # and deleting it leaves four, through which a pencil of conics passes
        rng = np.random.default_rng(10)
        five = noisy_ellipse(rng, 5, 0.0)
        pts = np.vstack([np.tile(five[:4], (5, 1)), five[4:]])
        with pytest.raises(EllipseFitError):
            ellipse_fit(pts[:-1])
        phi, err = ellipse_phase_jackknife(pts)
        # every other deletion leaves the same five points and so the same
        # ellipse: a pencil's arbitrary phase in the sum would show here
        assert math.isfinite(phi) and err < 1e-6

    def test_pencil_threshold_margins(self, monkeypatch):
        # _PENCIL sits at least a factor of 10 inside both margins: shot-noise
        # windows and a noiseless arc of 0.1 rad in 10^6 points fit the same
        # at ten times it, and built pencils of up to 10^6 pairs stay
        # rejected at a tenth of it
        rng = np.random.default_rng(11)
        windows = []
        for n0 in (100, 10_000, 1_000_000):
            for contrast in (0.01, 0.1, 1.0):
                for window in (6, 10, 100):
                    theta = rng.uniform(0.0, 2.0 * math.pi, size=4 * window)
                    p = 0.5 + 0.5 * contrast * np.column_stack(
                        [np.cos(theta), np.cos(theta + rng.uniform(0.2, math.pi - 0.2))]
                    )
                    windows.append((rng.binomial(n0, p) / n0, window))
        theta = np.linspace(0.3, 0.4, 1_000_000)
        arc = 0.5 + 0.5 * np.column_stack([np.cos(theta), np.cos(theta + 1.0)])
        pencils = [four_on_a_line_plus_one(seed, n) for seed in range(6)
                   for n in (20, 1000, 100_000)]
        pencils += [np.tile(rng.uniform(size=(k, 2)), (reps, 1))
                    for k in (3, 4) for reps in (2, 100, 25_000)]
        pencils.append(four_on_a_line_plus_one(0, 1_000_000))
        at = [phase_series_from_cycles(cycles, window) for cycles, window in windows]
        assert np.mean(np.isfinite(np.concatenate(at))) > 0.9
        arc_phase = ellipse_fit(arc).phi_d
        pencil = estimation._PENCIL
        monkeypatch.setattr(estimation, "_PENCIL", 10.0 * pencil)
        for (cycles, window), phases in zip(windows, at):
            assert np.array_equal(phase_series_from_cycles(cycles, window), phases,
                                  equal_nan=True)
        assert ellipse_fit(arc).phi_d == arc_phase
        monkeypatch.setattr(estimation, "_PENCIL", pencil / 10.0)
        for pts in pencils:
            with pytest.raises(EllipseFitError, match="collinear or repeated"):
                ellipse_fit(pts)

    def test_non_finite_cycles_rejected(self):
        cycles = noisy_ellipse(np.random.default_rng(8), 40, 0.01)
        cycles[25, 1] = np.nan
        with pytest.raises(ValueError):
            phase_series_from_cycles(cycles, window=20)
        # a NaN in the unused tail, as before, is never read
        cycles = noisy_ellipse(np.random.default_rng(8), 45, 0.01)
        cycles[42, 0] = np.nan
        assert np.isfinite(phase_series_from_cycles(cycles, window=20)).all()


def test_allan_on_a_long_series():
    # no wall-clock assert: a return to quadratic time shows in --durations
    y = np.random.default_rng(9).normal(size=100_000)
    res = allan_deviation(y, cycle_time=1.0)
    assert res.averaging_factors[-1] == 32768
    assert np.all(np.isfinite(res.errors)) and np.all(res.errors > 0.0)
    assert res.sigmas[0] == pytest.approx(1.0, rel=0.01)
