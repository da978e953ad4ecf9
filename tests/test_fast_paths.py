"""The stacked ellipse solver, the linear-time Allan jackknife, the cycle
columns, the cycles.csv writer, the closed-form interrogation optimum, the
Bloch-form quantum Fisher information, the float paths of the state chain,
the closed-form Fisher information and the count inversion, and the
validation of outcome distributions and count records against the slow paths
they replaced (tests/oracles.py), and the numeric Fisher oracle against the
closed form, on random inputs and on the degenerate windows a batch must
survive."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from erasure_sensing import cli, clock
from erasure_sensing.clock import (
    ComparisonConfig,
    CycleRecord,
    LaserPhaseModel,
    allan_deviation,
    optimize_interrogation,
    run_comparison,
    valid_pairs,
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
# Counts as every type a record accepts: ints, numpy ints, integral floats,
# bools, and ints past 2**53, where a float no longer holds every integer
# (capped at 2**60, so that a sum with numpy ints stays inside int64).
counts = (
    st.integers(0, 10**6)
    | st.integers(0, 10**6).map(np.int64)
    | st.integers(0, 10**6).map(float)
    | st.booleans()
    | st.integers(2**53 + 1, 2**60)
)
# Floats cycles.csv must write as repr writes them: both zeros, subnormals,
# the largest floats, and any other finite value.
written_floats = st.sampled_from([
    0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
    0.1, 1.0 / 3.0,
]) | st.floats(allow_nan=False, allow_infinity=False)
# Values each check must reject or pass unchanged: NaN, infinities,
# negatives, -0.0, negatives within 1e-14 of zero and just past it,
# non-integral floats, ints, bools, numpy scalars and huge ints.
edge_numbers = st.sampled_from([
    math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, -5e-15, -1e-14, -1.5e-14, 0.5, 2.5,
    0, 1, 3, -2, True, False, np.float64(0.25), np.int64(4), 2**53 + 1, 10**400,
])


def outcome(fn, *args, **kwargs):
    """fn(*args, **kwargs), or the type and message of the error it raises."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def bits(result):
    """A result as its bits: a float as float.hex, so that the sign of zero
    counts, a dataclass as the bits of each field, any other value as its
    type and value, and an error tuple as it is."""
    if isinstance(result, tuple):
        return result
    if dataclasses.is_dataclass(result):
        return tuple(bits(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, float):
        return float.hex(result)
    return type(result).__name__, result


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


def lattice_line_pairs(seed, count):
    """count sets of 6 to 39 pairs on the lines x = 0 and x = 1, with y on a
    lattice of step 1/k, k from 2 to 20, as two ensembles' fractions are:
    every conic through them is the line pair x^2 - x or, on one line, any
    conic through that line, so each fit must be rejected."""
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(count):
        n, k = int(rng.integers(6, 40)), int(rng.integers(2, 21))
        sets.append(np.column_stack([rng.integers(0, 2, n), rng.integers(0, k + 1, n) / k]))
    return sets


def assert_close(fast, slow):
    fast, slow = np.asarray(fast, dtype=float), np.asarray(slow, dtype=float)
    assert fast.shape == slow.shape
    assert np.array_equal(np.isnan(fast), np.isnan(slow))
    ok = ~np.isnan(slow)
    assert np.all(np.abs(fast[ok] - slow[ok]) <= RTOL * np.abs(slow[ok]))


def oracle_fit(x, y):
    """Status and phase of the LAPACK oracle's conic through frame points
    (x, y), judged by the kernel's margin and real-points rules, statuses 3
    and 4 (estimation._REJECTED); no elliptic solution fails the margin."""
    try:
        conic = oracles.solve_conic(x, y)
    except EllipseFitError:
        return 3, math.nan
    a, b, c = conic[:3]
    if b * b - 4.0 * a * c >= -1e-10:
        return 3, math.nan
    if estimation._centre_and_scale(conic)[2] <= 0.0:
        return 4, math.nan
    return 0, math.acos(min(1.0, max(-1.0, -b / (2.0 * math.sqrt(a * c)))))


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
        n0=st.integers(20, 10_000),
        pairs=st.integers(6, 400),
        contrasts=st.tuples(st.floats(0.3, 1.0), st.floats(0.3, 1.0)),
        phi=st.floats(1e-3, math.pi - 1e-3),
        lattice=st.integers(2, 20),
    )
    def test_conic_kernel(self, seed, n0, pairs, contrasts, phi, lattice):
        # Four shot-noise windows, a noiseless arc and a near-circle in one
        # stack, and with them the degenerate sets: an exact line, one to
        # five points repeated, four points repeated (a pencil), a window of
        # N0 = `lattice` atoms, whose pairs sit on a coarse lattice, and a
        # near line. phi stays 1e-3 from 0 and pi, where a noiseless arc is
        # a line. The line, the pencil and fewer than five repeated points
        # fix no single conic and must be rejected. Five distinct points fix
        # one, and a lattice window may fix an ellipse: where the kernel fits
        # either, LAPACK's solve of the same points (tests/oracles.py) must
        # fit it too, within 1e-8 rad; on windows of few pairs rounding
        # alone moves a phase by up to ~1e-9 rad, in LAPACK as in the closed
        # form, each against a 50-digit solve of the same scatter matrix
        # (20000 such windows), while a wrong root or vector moves it by
        # orders of magnitude more. Within 0.2 of 0 and pi the oracle is no
        # reference for the rest. Elsewhere the status must be the oracle's
        # too, and the phase as close to it, except for rule 1 (collinear or
        # a pencil): that rule is the kernel's own, and the oracle fits such
        # windows at whatever rounding picks.
        rng = np.random.default_rng(seed)
        c_a, c_b = contrasts
        theta = rng.uniform(0.0, 2.0 * math.pi, size=(4, pairs))
        p = 0.5 + 0.5 * np.stack([c_a * np.cos(theta), c_b * np.cos(theta + phi)], axis=-1)
        windows = list(rng.binomial(n0, p) / n0)
        arc = rng.uniform(0.0, 2.0 * math.pi) + np.linspace(0.0, rng.uniform(1.0, 6.3), pairs)
        windows.append(0.5 + 0.5 * np.column_stack([c_a * np.cos(arc), c_b * np.cos(arc + phi)]))
        circle = np.column_stack([np.cos(theta[0]), np.sin(theta[0])])
        windows.append(0.5 + 0.25 * circle + rng.normal(scale=1e-4, size=(pairs, 2)))
        line = rng.uniform(size=pairs)
        line = np.column_stack([line, rng.uniform(-3, 3) * line + rng.uniform(-1, 1)])
        windows.append(line)
        windows.append(np.resize(rng.uniform(size=(rng.integers(1, 6), 2)), (pairs, 2)))
        windows.append(np.resize(rng.uniform(size=(4, 2)), (pairs, 2)))
        windows.append(rng.binomial(lattice, p[0]) / lattice)
        windows.append(line + rng.normal(size=(pairs, 2)) * 10.0 ** -rng.uniform(2, 15))
        rows = [estimation._centred_rows(w)[0] for w in windows]
        scatter = np.stack([estimation._scatter(r) for r in rows])
        coeffs, status = estimation._fit_conics(scatter)
        phases = estimation._phase(coeffs)
        five = len(np.unique(windows[7], axis=0)) == 5
        assert status[6] != 0 and (five or status[7] != 0) and status[8] != 0
        for j in (7, 9):
            if status[j] == 0:
                want, slow = oracle_fit(rows[j][:, 3], rows[j][:, 4])
                assert want == 0 and abs(phases[j] - slow) <= 1e-8
        if not 0.2 < phi < math.pi - 0.2:
            return
        # the shot-noise windows, the arc and the near-circle
        for r, code, phase in zip(rows[:6], status, phases):
            if code != 1:
                want, slow = oracle_fit(r[:, 3], r[:, 4])
                assert code == want
                assert want != 0 or abs(phase - slow) <= 1e-8

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

    # One pass over the cycles serves several channels, lossy and lossless,
    # repeated or not: each record equals the channel's own run and the
    # per-cycle loop's, bit for bit. Every run here ends in a partial block;
    # the example's crosses into a second one.
    @PROPERTY
    @example(seed=20260823, n0=300, cycles=clock._BLOCK + 3, shot_noise=True,
             model=LaserPhaseModel.UNIFORM_RANDOM_PER_CYCLE,
             noises=[(ChannelKind.ERASURE, 0.3), (ChannelKind.DEPOLARIZING, 0.2),
                     (ChannelKind.ERASURE, 0.0)])
    @given(
        seed=st.integers(0, 2**64 - 1),
        n0=st.integers(1, 4) | st.integers(1000, 5000),
        cycles=st.integers(1, 150),
        shot_noise=st.booleans(),
        model=st.sampled_from(list(LaserPhaseModel)),
        noises=st.lists(st.tuples(kinds, st.sampled_from([0.0, 0.3]) | st.floats(0.0, 0.95)),
                        min_size=1, max_size=4),
    )
    def test_one_pass_serves_every_channel(self, seed, n0, cycles, shot_noise, model, noises):
        base = ComparisonConfig(
            phi_d=1.1, n0=n0, t_c=1.0, t_d=0.0, f0=1.0, cycles=cycles,
            noise=NoiseChannel(ChannelKind.ERASURE, q=0.0), c_a=0.9, c_b=0.7,
            laser_phase_model=model, seed=seed, shot_noise=shot_noise,
        )
        pairs = [(kind.amplitude(q), kind.survival(q)) for kind, q in noises]
        records = clock._simulate(base, pairs)
        assert len(records) == len(noises)
        for record, (kind, q) in zip(records, noises):
            cfg = dataclasses.replace(base, noise=NoiseChannel(kind, q=q))
            alone = run_comparison(cfg)
            slow = oracles.run_comparison(cfg)
            expected = {
                "theta": [r.theta for r in slow],
                "x": [(r.x_a, r.x_b) for r in slow],
                "n": [(r.n_a, r.n_b) for r in slow],
                "valid": [r.valid for r in slow],
            }
            for name, column in expected.items():
                assert np.array_equal(getattr(record, name), getattr(alone, name), equal_nan=True)
                assert np.array_equal(getattr(record, name), column, equal_nan=True), name

    @settings(PROPERTY, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        pool=st.lists(written_floats, min_size=1, max_size=6),
        rows=st.lists(st.tuples(*[st.integers(0, 5)] * 4, st.booleans()), max_size=40),
        chunk=st.integers(1, 9),
    )
    @example(pool=[0.0, -0.0], chunk=3, rows=[(0, 1, 0, 7, True), (1, 0, 1, 3, True),
                                              (1, 1, 0, 0, False), (0, 0, 1, 2, True)])
    def test_cycles_csv(self, tmp_path, monkeypatch, pool, rows, chunk):
        # The same bytes as one repr per number: values drawn from a small
        # pool repeat within a chunk and across chunks, -0.0 stays apart
        # from 0.0, an invalid cycle (a NaN fraction) is left out, and the
        # chunks of cli._CSV_ROWS rows mostly do not divide the row count.
        def pick(k):
            return pool[k % len(pool)]

        valid = np.array([ok for *_, ok in rows], dtype=bool)
        x = np.array([(pick(a), pick(b)) for a, b, *_ in rows]).reshape(-1, 2)
        x[~valid, 1] = np.nan
        cycles = CycleRecord(
            theta=np.array([pick(t) for _, _, t, *_ in rows], dtype=float), x=x,
            n=np.array([(n, 2 * n) for *_, n, _ in rows], dtype=np.int64).reshape(-1, 2),
            valid=valid,
        )
        monkeypatch.setattr(cli, "_CSV_ROWS", chunk)
        cli._write_cycles_csv(tmp_path / "fast.csv", cycles)
        oracles.write_cycles_csv(tmp_path / "slow.csv", cycles)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()

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
        depolarized = qfi_depolarized(rho, generator, q)
        assert depolarized == pytest.approx(oracles.qfi(rho_q, generator), rel=1e-12, abs=1e-12)
        assert depolarized == pytest.approx(
            (1.0 - q) ** 2 * qfi_pure_generator(rho, generator), rel=1e-12, abs=1e-12)

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
        # The parameter-shift oracle reads the closed form to 1e-7. A tuple
        # phi is an offset of at most 1e-6 from a fringe node. The examples
        # take the quadratic-zero limit, the second on a fringe of weight
        # 1e-15 under the scaled floor. Near a node of a fringe with
        # 0 < 1 - |amplitude| < 1e-10 neither side holds 1e-7: the oracle's
        # floor reads ~1 where the information falls to 0, and the closed
        # form's amplitude 1 - q has rounded q.
        if isinstance(phi, tuple):
            phi = theta + sum(phi)
        numeric = classical_fisher_numeric(channel_outcome_model(kind, q, theta), phi)
        assert type(numeric) is float
        node = abs(math.remainder(phi - theta, math.pi))
        if node < 1e-3 and 0.0 < 1.0 - abs(kind.amplitude(q)) < 1e-10:
            return
        assert numeric == pytest.approx(fisher_information(kind, q, phi - theta), rel=0.0,
                                        abs=1e-7)

    def test_numeric_fisher_singular_branch(self):
        # p = max(phi, 0) / 2 has slope 1/2 at its zero from one side only
        def model(phi):
            p = max(phi, 0.0) / 2.0
            return OutcomeDistribution(p_plus=p, p_minus=1.0 - p)

        with pytest.raises(SingularFisherError, match="outcome 0 has p = 0.0"):
            classical_fisher_numeric(model, 0.0)

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

    @settings(PROPERTY, max_examples=200)
    @given(kind=kinds, q=strengths, counts=st.tuples(*[counts] * 3), theta=angles)
    @example(kind=ChannelKind.ERASURE, q=0.0, counts=(2**60, 2**53 + 1, 3), theta=0.3)
    @example(kind=ChannelKind.DEPOLARIZING, q=0.2, counts=(np.int64(7), 3.0, False), theta=-0.0)
    @example(kind=ChannelKind.DEPHASING, q=np.float32(0.3), counts=(600, 400, 0), theta=0.3)
    def test_mle_phase(self, kind, q, counts, theta):
        # The same bits, or the same error with the same message, on each
        # count type a record accepts: the oracle record keeps the old
        # validation, and the oracle inversion reads the contract per call.
        # A q of any type is read once as float(q), so the float32 q inverts
        # at the float64 value it holds, where its information is read too.
        n_plus, n_minus, n_erasure = counts
        if kind is not ChannelKind.ERASURE:
            n_erasure = 0
        record = CountRecord(n_plus, n_minus, n_erasure, theta=theta, kind=kind, q=q)
        slow_record = oracles.CountRecord(n_plus, n_minus, n_erasure, theta=theta, kind=kind, q=q)
        assert bits(record) == bits(slow_record)
        assert bits(outcome(mle_phase, record)) == bits(outcome(oracles.mle_phase, slow_record))

    def test_mle_phase_reads_q_as_a_float(self):
        # A float32 q inverts at float(q). Under numpy 2 a float32 amplitude
        # would keep (2 p+ - 1) / amplitude in float32, 3.4e-8 rad off here.
        record = CountRecord(600, 400, 0, theta=0.3, kind=ChannelKind.DEPHASING,
                             q=np.float32(0.3))
        as_float = dataclasses.replace(record, q=float(np.float32(0.3)))
        assert bits(mle_phase(record)) == bits(mle_phase(as_float))

    def test_mle_phase_reads_theta_as_a_float(self):
        # A float32 theta would keep phi_hat = theta + delta_hat in float32,
        # 3.2e-9 rad off here.
        record = CountRecord(600, 400, 0, theta=np.float32(0.3), kind=ChannelKind.DEPHASING,
                             q=0.3)
        as_float = dataclasses.replace(record, theta=float(np.float32(0.3)))
        assert bits(mle_phase(record)) == bits(mle_phase(as_float))


def constructed(cls, *args, **kwargs):
    """The bits of the fields cls(*args, **kwargs) stores, or the type and
    message of the error it raises."""
    return bits(outcome(cls, *args, **kwargs))


class TestValidation:
    """The library's frozen records store the same bits, and reject with
    the same error and message, as the validation they replaced."""

    @settings(PROPERTY, max_examples=300)
    @given(
        p_plus=st.floats(0.0, 1.0) | edge_numbers,
        p_erasure=st.floats(0.0, 1.0) | edge_numbers,
        off=st.sampled_from([0.0, -0.0, 5e-13, -5e-13, 2e-12, -2e-12, 1e-15]),
        p_minus=st.none() | st.floats(0.0, 1.0) | edge_numbers,
        two=st.booleans(),
    )
    @example(p_plus=0.5, p_erasure=-0.0, off=0.0, p_minus=0.5, two=False)
    @example(p_plus=-0.0, p_erasure=-0.0, off=0.0, p_minus=-0.0, two=False)
    @example(p_plus=1, p_erasure=0, off=0.0, p_minus=0, two=False)
    @example(p_plus=1.0 + 5e-15, p_erasure=-5e-15, off=0.0, p_minus=-1e-14, two=False)
    def test_outcome_distribution(self, p_plus, p_erasure, off, p_minus, two):
        # By default p_minus completes the sum to within off of 1, so that
        # most draws pass the finite and negative checks and reach the sum.
        if p_minus is None:
            try:
                p_minus = 1.0 - float(p_plus) - float(p_erasure) + off
            except OverflowError:  # 10**400 has no float
                p_minus = 0.5
        args = (p_plus, p_minus) if two else (p_plus, p_minus, p_erasure)
        fast = constructed(OutcomeDistribution, *args)
        assert fast == constructed(oracles.OutcomeDistribution, *args)

    @settings(PROPERTY, max_examples=300)
    @given(
        numbers=st.tuples(*[counts | edge_numbers] * 3),
        theta=angles | edge_numbers,
        kind=kinds,
        q=st.none() | strengths | edge_numbers,
    )
    @example(numbers=(-0.0, 3, 0), theta=-0.0, kind=ChannelKind.DEPHASING, q=-0.0)
    @example(numbers=(1, 2, 3), theta=0.0, kind=ChannelKind.DEPOLARIZING, q=0.1)
    @example(numbers=(1, 2.5, 3), theta=math.nan, kind=ChannelKind.ERASURE, q=None)
    def test_count_record(self, numbers, theta, kind, q):
        fast = constructed(CountRecord, *numbers, theta=theta, kind=kind, q=q)
        assert fast == constructed(oracles.CountRecord, *numbers, theta=theta, kind=kind, q=q)


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

    def test_rounded_line_is_collinear(self):
        # 400 lines whose slopes round in floats: the pencil test misses 4
        # of them, and without _COLLINEAR their fitted conic is rejected as
        # "degenerate or not elliptical" instead
        rng = np.random.default_rng(0)
        for _ in range(400):
            n = int(rng.integers(6, 40))
            t = rng.uniform(size=n)
            a, b = rng.uniform(-3, 3), rng.uniform(-1, 1)
            with pytest.raises(EllipseFitError, match="degenerate point configuration"):
                ellipse_fit(np.column_stack([t, a * t + b]))
        # and every fit is rejected over the rest of the domain _COLLINEAR
        # guards: lines within 1e-15 to 1e-7 of straight, and lines at
        # scales 1e-6 to 1e6 with offsets up to 1e6, where rounding the
        # offset leaves a staircase of the line's points
        for _ in range(400):
            n = int(rng.integers(6, 40))
            t = rng.uniform(size=n)
            line = np.column_stack([t, rng.uniform(-3, 3) * t + rng.uniform(-1, 1)])
            with pytest.raises(EllipseFitError, match="no ellipse"):
                ellipse_fit(line + rng.normal(size=(n, 2)) * 10.0 ** -rng.uniform(7, 15))
            scale, offset = 10.0 ** rng.uniform(-6, 6), rng.uniform(-1e6, 1e6, size=2)
            with pytest.raises(EllipseFitError, match="no ellipse"):
                ellipse_fit(line * scale + offset)

    def test_deletion_that_leaves_a_line_is_collinear(self):
        # Deleting the fifth point of four on a line plus one leaves points
        # on a line. The linear block of their scatter matrix is then
        # singular to working precision, so the reduced matrix is rounding:
        # without _COLLINEAR 11 of the 288 such deletions here pass the
        # pencil rule and the margin, and the jackknife would count a phase
        # read off them.
        for seed in range(200):
            for n in (6, 7):
                pts = four_on_a_line_plus_one(seed, n)
                rows, _ = estimation._centred_rows(pts)
                total = estimation._scatter(rows)
                _, status = estimation._fit_conics(total - rows[:, :, None] * rows[:, None, :])
                if (pts == pts[4]).all(axis=1).sum() == 1:
                    assert status[4] == 1

    def test_line_pair_is_not_an_ellipse(self):
        # six points on the lines x = 0 and x = 1 fix the line pair x^2 - x,
        # whose discriminant is zero: rounding tips it to either sign, and
        # without the margin of status 3 (_MARGIN) it fits at pi/2
        pts = np.array([[0, 0], [0, 5], [0, 3], [5, 0], [5, 2], [5, 3]]) / 5
        with pytest.raises(EllipseFitError, match="degenerate or not elliptical"):
            ellipse_fit(pts)
        fast, _ = self.series_of(pts, window=6)
        assert np.isnan(fast)
        # and so does every line pair of fractions on a lattice
        for pts in lattice_line_pairs(13, 200):
            with pytest.raises(EllipseFitError):
                ellipse_fit(pts)

    def test_near_collinear_points_have_no_real_elliptic_eigenpair(self, monkeypatch):
        # 22 points within ~3e-5 of a line: rounding leaves the reduced
        # problem with a complex pair of roots, so _pencil_eig's gap is NaN
        # and no real elliptic eigenvector passes the margin; the real part
        # of the complex pair's vector would read as a phase near 7e-5
        rng = np.random.default_rng(1139)
        n = int(rng.integers(6, 60))
        e = rng.uniform(2, 15)
        t = rng.uniform(size=n)
        pts = np.column_stack([t, 0.7 * t + 0.2]) + rng.normal(size=(n, 2)) * 10.0 ** -e
        gaps, pencil_eig = [], estimation._pencil_eig

        def recorded(*args):
            vectors, gap = pencil_eig(*args)
            gaps.append(gap)
            return vectors, gap

        monkeypatch.setattr(estimation, "_pencil_eig", recorded)
        with pytest.raises(EllipseFitError, match="degenerate or not elliptical"):
            ellipse_fit(pts)
        assert len(gaps) == 1 and np.isnan(gaps[0]).all()
        fast, _ = self.series_of(pts, window=n)
        assert np.isnan(fast)

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

    def test_closed_form_margins(self, monkeypatch):
        # _MARGIN sits at least a factor of 10 inside what it must tell
        # apart: at a tenth of it the line pair, window 35 of the N0 2 run
        # (test_cli) and line pairs of lattice fractions are still rejected;
        # at ten times it the jackknife of 2000 shot-noise pairs, a record of
        # 2000 ten-pair windows, noiseless arcs of 0.1 rad and the shipped
        # pi/3 pairs fit the same.
        data = os.path.join(os.path.dirname(__file__), os.pardir, "data")
        with open(os.path.join(data, "example_comparison.json")) as fh:
            shipped = json.load(fh)
        two = ComparisonConfig.from_dict(dict(shipped, N0=2, cycles=1000, seed=0,
                                              noise={"kind": "depolarizing", "q": 0.0}))
        rejected = [
            np.array([[0, 0], [0, 5], [0, 3], [5, 0], [5, 2], [5, 3]]) / 5,
            valid_pairs(run_comparison(two))[350:360],
            *lattice_line_pairs(14, 200),
        ]
        rng = np.random.default_rng(12)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=2000)
        p = 0.5 + 0.5 * np.column_stack([0.9 * np.cos(theta), 0.85 * np.cos(theta + 1.3)])
        shot_noise = rng.binomial(10_000, p) / 10_000
        record = ComparisonConfig.from_dict(dict(shipped, N0=400, cycles=20_000))
        cycles = valid_pairs(run_comparison(record))
        t = 0.37 + np.linspace(0.0, 0.1, 20)
        arcs = [np.column_stack([(1.0 + c * np.cos(t)) / 2.0, (1.0 + c * np.cos(t + phi_d)) / 2.0])
                for phi_d in np.linspace(0.3, math.pi - 0.3, 5) for c in (0.5, 1.0)]
        arcs.append(estimation.load_pairs_csv(os.path.join(data, "ellipse_pi_over_3.csv")))

        def fits():
            return np.concatenate([
                ellipse_phase_jackknife(shot_noise),
                phase_series_from_cycles(cycles, 10),
                [ellipse_fit(pts).phi_d for pts in arcs],
            ])

        at = fits()
        assert np.isfinite(at).all()
        margin = estimation._MARGIN
        monkeypatch.setattr(estimation, "_MARGIN", margin / 10.0)
        for pts in rejected:
            with pytest.raises(EllipseFitError):
                ellipse_fit(pts)
        monkeypatch.setattr(estimation, "_MARGIN", 10.0 * margin)
        assert np.array_equal(fits(), at)

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
