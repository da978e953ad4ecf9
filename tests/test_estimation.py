"""Phase estimators: single-ensemble MLE inversion and the differential-phase
ellipse fit with its jackknife error bar."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erasure_sensing.estimation import (
    CountRecord,
    EllipseFitError,
    ellipse_fit,
    ellipse_phase_jackknife,
    load_pairs_csv,
    mle_phase,
    phase_series_from_cycles,
)
from erasure_sensing.states import ChannelKind


def shot_noise_pairs(seed, n, n_atoms, c_a=0.5, c_b=0.5, phi_d=1.0):
    """n excitation-fraction pairs of a shot-noise clock comparison."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 2.0 * math.pi, n)
    return np.column_stack([
        rng.binomial(n_atoms, (1.0 + c_a * np.cos(t)) / 2.0) / n_atoms,
        rng.binomial(n_atoms, (1.0 + c_b * np.cos(t + phi_d)) / 2.0) / n_atoms,
    ])


def ellipse_points(phi_d, n=100, c_a=1.0, c_b=1.0, t0=0.0):
    t = t0 + np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    x = (1.0 + c_a * np.cos(t)) / 2.0
    y = (1.0 + c_b * np.cos(t + phi_d)) / 2.0
    return np.column_stack([x, y])


class TestMlePhase:
    def test_erasure_inversion_and_stderr_from_survivors(self):
        # p_hat = 7000/10000 -> phi = theta + acos(2 p_hat - 1);
        # the error bar uses only the surviving shots: 1/sqrt(n+ + n-)
        rec = CountRecord(7000, 3000, 500, theta=0.3, kind=ChannelKind.ERASURE, q=0.0)
        est = mle_phase(rec)
        assert est.phi_hat == pytest.approx(0.3 + math.acos(0.4), abs=1e-12)
        assert est.phi_hat == pytest.approx(1.4592794807274088, abs=1e-12)
        assert est.stderr == pytest.approx(0.01, abs=1e-12)
        assert not est.clamped

    def test_symmetric_counts_land_at_quadrature(self):
        rec = CountRecord(500, 500, 300, theta=0.0, kind=ChannelKind.ERASURE, q=0.0)
        est = mle_phase(rec)
        assert est.phi_hat == pytest.approx(math.pi / 2.0, abs=1e-15)
        assert est.stderr == pytest.approx(1.0 / math.sqrt(1000.0), abs=1e-15)

    def test_exact_boundary_fringe_lands_on_branch_edge(self):
        # (2 * 0.9 - 1)/0.8 is exactly 1.0 in floating point, so the
        # inversion reaches the branch edge without overshooting it
        rec = CountRecord(90_000, 10_000, 0, theta=0.3, kind=ChannelKind.DEPOLARIZING, q=0.2)
        est = mle_phase(rec)
        assert est.phi_hat == pytest.approx(0.3, abs=1e-12)

    def test_depolarizing_inversion_divides_out_contrast(self):
        rec = CountRecord(62_000, 38_000, 0, theta=0.3, kind=ChannelKind.DEPOLARIZING, q=0.2)
        est = mle_phase(rec)
        assert est.phi_hat == pytest.approx(0.3 + math.acos(0.24 / 0.8), abs=1e-12)
        assert est.phi_hat == pytest.approx(1.5661036727794992, abs=1e-12)
        # stderr = 1/sqrt(shots * F(A=0.8, delta_hat))
        d = math.acos(0.3)
        f = 0.64 * math.sin(d) ** 2 / (1.0 - 0.64 * math.cos(d) ** 2)
        assert est.stderr == pytest.approx(1.0 / math.sqrt(100_000 * f), rel=1e-12)

    def test_dephasing_inversion_uses_one_minus_two_q(self):
        rec = CountRecord(65_000, 35_000, 0, theta=0.3, kind=ChannelKind.DEPHASING, q=0.2)
        est = mle_phase(rec)
        assert est.phi_hat == pytest.approx(0.3 + math.pi / 3.0, abs=1e-12)

    def test_estimate_stays_on_principal_branch(self):
        for n_plus in (100, 5000, 9900):
            rec = CountRecord(n_plus, 10_000 - n_plus, 0, theta=1.0,
                              kind=ChannelKind.ERASURE, q=0.0)
            est = mle_phase(rec)
            assert 1.0 <= est.phi_hat <= 1.0 + math.pi

    def test_out_of_range_fringe_clamps_and_flags(self):
        # (2*0.95 - 1)/0.8 = 1.125 > 1: clamp to the branch edge and say so
        rec = CountRecord(95_000, 5_000, 0, theta=0.3, kind=ChannelKind.DEPOLARIZING, q=0.2)
        est = mle_phase(rec)
        assert est.clamped
        assert est.phi_hat == pytest.approx(0.3, abs=1e-12)

    def test_variance_attains_the_erasure_information_bound(self):
        # 200 repetitions of 1e6 shots at q = 0.36, phi = pi/3: the sample
        # variance should land on 1/(shots * 0.64) to Monte Carlo accuracy
        rng = np.random.default_rng(6)
        shots, reps, q, phi = 10**6, 200, 0.36, math.pi / 3.0
        n_erased = rng.binomial(shots, q, size=reps)
        survivors = shots - n_erased
        p_plus_given_kept = (1.0 + math.cos(phi)) / 2.0
        n_plus = rng.binomial(survivors, p_plus_given_kept)
        estimates = np.array([
            mle_phase(CountRecord(int(p), int(s - p), int(e), theta=0.0,
                                  kind=ChannelKind.ERASURE, q=q)).phi_hat
            for p, s, e in zip(n_plus, survivors, n_erased)
        ])
        ratio = estimates.var(ddof=1) * shots * (1.0 - q)
        assert abs(ratio - 1.0) < 0.15

    def test_unidentifiable_channels_raise(self):
        with pytest.raises(ValueError):
            mle_phase(CountRecord(600, 400, 0, theta=0.0,
                                  kind=ChannelKind.DEPOLARIZING, q=1.0))
        with pytest.raises(ValueError):
            mle_phase(CountRecord(600, 400, 0, theta=0.0,
                                  kind=ChannelKind.DEPHASING, q=0.5))

    def test_numpy_counts_add_without_wrapping(self):
        # two int64 counts of 2^62 sum past the int64 range
        big = np.int64(2**62)
        rec = CountRecord(big, big, 0, theta=0.0, kind=ChannelKind.DEPOLARIZING, q=0.1)
        est = mle_phase(rec)
        assert est == mle_phase(CountRecord(2**62, 2**62, 0, theta=0.0,
                                            kind=ChannelKind.DEPOLARIZING, q=0.1))
        assert est.phi_hat == pytest.approx(math.pi / 2)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            mle_phase(CountRecord(0, 0, 100, theta=0.0, kind=ChannelKind.ERASURE, q=0.0))

    def test_non_finite_counts_rejected(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="n_minus must be a non-negative integer"):
                CountRecord(600, bad, 0, theta=0.0, kind=ChannelKind.DEPOLARIZING, q=0.2)
        with pytest.raises(ValueError, match="non-erasure channel"):
            CountRecord(600, 400, 5, theta=0.0, kind=ChannelKind.DEPOLARIZING, q=0.2)
        with pytest.raises(ValueError, match="q must be given"):
            CountRecord(600, 400, 0, theta=0.0, kind=ChannelKind.DEPHASING)
        with pytest.raises(ValueError, match=r"q must lie in \[0, 1\]"):
            CountRecord(600, 400, 0, theta=0.0, kind=ChannelKind.DEPOLARIZING, q=1.5)

    def test_kind_must_be_a_channel_kind(self):
        # a name string is not a kind: it fails at construction, not later
        # in mle_phase
        for kind, n_erasure in (("depolarizing", 0), ("erasure", 0), ("erasure", 5), (None, 0)):
            with pytest.raises(ValueError, match="^kind must be a ChannelKind"):
                CountRecord(1, 1, n_erasure, theta=0.0, kind=kind, q=0.1)

    def test_non_finite_theta_rejected(self):
        for theta in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="theta"):
                CountRecord(600, 400, 0, theta=theta, kind=ChannelKind.DEPOLARIZING, q=0.2)


class TestEllipseFit:
    def test_recovers_shipped_example_phase(self):
        res = ellipse_fit(ellipse_points(math.pi / 3.0))
        assert res.phi_d == pytest.approx(math.pi / 3.0, abs=1e-9)
        assert res.contrast_a == pytest.approx(1.0, abs=1e-9)
        assert res.contrast_b == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(res.center, [0.5, 0.5], atol=1e-9)
        assert res.rms_residual < 1e-12
        assert res.n_points == 100

    def test_noiseless_exactness_across_phases_and_contrasts(self):
        for phi_d in np.linspace(0.15, math.pi - 0.15, 11):
            for c in (0.3, 0.6, 1.0):
                res = ellipse_fit(ellipse_points(phi_d, c_a=c, c_b=c, t0=0.37))
                assert abs(res.phi_d - phi_d) <= 1e-6, (phi_d, c)

    def test_short_noiseless_arc_still_fits(self):
        # an arc of 0.1 rad still fixes one ellipse, not a pencil; its fit is
        # ill-conditioned, and rounding costs it phase digits (up to ~5e-5
        # over random shapes)
        t = 0.37 + np.linspace(0.0, 0.1, 20)
        for phi_d in np.linspace(0.3, math.pi - 0.3, 5):
            for c in (0.5, 1.0):
                pts = np.column_stack([(1.0 + c * np.cos(t)) / 2.0,
                                       (1.0 + c * np.cos(t + phi_d)) / 2.0])
                assert abs(ellipse_fit(pts).phi_d - phi_d) <= 1e-5, (phi_d, c)

    def test_generic_center_and_amplitudes(self):
        t = np.linspace(0.0, 2.0 * math.pi, 80, endpoint=False)
        phi_d = 1.1
        pts = np.column_stack([
            0.3 + 0.2 * np.cos(t),
            0.6 + 0.35 * np.cos(t + phi_d),
        ])
        res = ellipse_fit(pts)
        assert res.phi_d == pytest.approx(phi_d, abs=1e-8)
        assert np.allclose(res.center, [0.3, 0.6], atol=1e-8)
        assert res.contrast_a == pytest.approx(0.4, abs=1e-8)
        assert res.contrast_b == pytest.approx(0.7, abs=1e-8)

    def test_quadrature_phase_with_equal_contrasts_is_a_circle(self):
        # at phi_d = pi/2 with matched amplitudes the conic has no cross
        # term, so the unit-norm xy coefficient must vanish
        res = ellipse_fit(ellipse_points(math.pi / 2.0, n=80))
        assert abs(res.coefficients[1]) <= 1e-6
        assert res.phi_d == pytest.approx(math.pi / 2.0, abs=1e-9)

    def test_swapping_axes_preserves_the_phase(self):
        pts = ellipse_points(0.9, n=64, c_a=0.8, c_b=0.5)
        direct = ellipse_fit(pts).phi_d
        swapped = ellipse_fit(pts[:, ::-1]).phi_d
        assert abs(direct - swapped) <= 1e-9

    def test_six_points_suffice(self):
        res = ellipse_fit(ellipse_points(1.3, n=6, t0=0.21))
        assert res.phi_d == pytest.approx(1.3, abs=1e-6)

    def test_too_few_points_is_a_usage_error(self):
        with pytest.raises(ValueError):
            ellipse_fit(ellipse_points(1.0, n=5))
        # six points fit, but a deletion would leave five; six collinear
        # points are counted before they are fitted
        t = np.linspace(0.0, 1.0, 6)
        for pts in (ellipse_points(1.0, n=6), np.column_stack([t, 2.0 * t])):
            with pytest.raises(ValueError, match="jackknife needs at least 7"):
                ellipse_phase_jackknife(pts)

    def test_bad_shapes_and_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ellipse_fit(np.zeros((10, 3)))
        pts = ellipse_points(1.0, n=20)
        pts[3, 0] = np.nan
        with pytest.raises(ValueError):
            ellipse_fit(pts)

    def test_collinear_points_raise_fit_error(self):
        t = np.linspace(0.0, 1.0, 50)
        with pytest.raises(EllipseFitError):
            ellipse_fit(np.column_stack([t, 2.0 * t + 0.1]))

    def test_zero_contrast_raises_fit_error(self):
        pts = ellipse_points(1.0, n=50, c_a=0.0, c_b=0.0)
        with pytest.raises(EllipseFitError):
            ellipse_fit(pts)


class TestJackknife:
    def test_matches_brute_force_delete_one(self):
        rng = np.random.default_rng(5)
        pts = ellipse_points(1.2, n=40) + rng.normal(scale=0.01, size=(40, 2))
        phi_full, err = ellipse_phase_jackknife(pts)
        assert phi_full == pytest.approx(ellipse_fit(pts).phi_d, abs=1e-15)

        deletions = []
        for i in range(len(pts)):
            sub = np.delete(pts, i, axis=0)
            try:
                deletions.append(ellipse_fit(sub).phi_d)
            except EllipseFitError:
                continue
        deletions = np.asarray(deletions)
        m = len(deletions)
        expect = math.sqrt((m - 1) / m * np.sum((deletions - deletions.mean()) ** 2))
        assert err == pytest.approx(expect, rel=1e-12)
        assert err > 0.0

    def test_noiseless_data_has_negligible_error_bar(self):
        _, err = ellipse_phase_jackknife(ellipse_points(0.8, n=60))
        assert err < 1e-6

    def test_too_few_successful_refits_is_a_fit_error(self):
        # four distinct points on a line, one of them doubled, and two off
        # it: the full set passes, but every deletion leaves four points on
        # a line (a pencil) or a conic the margin rejects
        pts = [[0.309250930137852, -0.42472765942364665]] * 2 + [
            [0.8677583848133258, -1.0652582958310313],
            [0.4322513518895812, -0.5657920942194024],
            [0.4240097037681392, -0.55634006618991],
            [0.5683448252432424, 0.8090840414147155],
            [0.93519882881573, 0.3914773740253108],
        ]
        with pytest.raises(EllipseFitError, match="too few successful refits"):
            ellipse_phase_jackknife(pts)

    def test_error_bar_tracks_window_scatter(self):
        # jackknife error from one window should sit within a factor two of
        # the scatter of independent same-size windows
        rng = np.random.default_rng(17)
        scale, n = 0.01, 100
        phases = []
        for _ in range(60):
            pts = ellipse_points(math.pi / 2, n=n) + rng.normal(scale=scale, size=(n, 2))
            phases.append(ellipse_fit(pts).phi_d)
        scatter = np.std(phases, ddof=1)
        pts = ellipse_points(math.pi / 2, n=n) + rng.normal(scale=scale, size=(n, 2))
        _, jk = ellipse_phase_jackknife(pts)
        assert 0.5 * scatter < jk < 2.0 * scatter


class TestSeriesAndCsv:
    def test_windowing_produces_one_phase_per_window(self):
        pts = np.vstack([ellipse_points(0.7, n=50, t0=0.1 * k) for k in range(4)])
        series = phase_series_from_cycles(pts, window=50)
        assert series.shape == (4,)
        assert np.allclose(series, 0.7, atol=1e-6)

    def test_window_count_divides_the_series(self):
        pts = np.vstack([ellipse_points(1.1, n=100, t0=0.05 * k) for k in range(10)])
        series = phase_series_from_cycles(pts, window=100)
        assert series.shape == (10,)

    def test_failed_window_becomes_nan_gap(self):
        good = ellipse_points(0.7, n=50)
        t = np.linspace(0.0, 1.0, 50)
        flat = np.column_stack([t, 2.0 * t])  # collinear: the fit must fail
        series = phase_series_from_cycles(np.vstack([good, flat, good]), window=50)
        assert series.shape == (3,)
        assert np.isnan(series[1])
        assert np.allclose(series[[0, 2]], 0.7, atol=1e-6)

    def test_requires_two_full_windows(self):
        with pytest.raises(ValueError):
            phase_series_from_cycles(ellipse_points(0.7, n=80), window=50)
        with pytest.raises(ValueError, match=r"\(n, 2\) array"):
            phase_series_from_cycles(np.zeros((100, 3)), window=50)
        with pytest.raises(ValueError, match="conic degrees of freedom"):
            phase_series_from_cycles(ellipse_points(0.7, n=80), window=5)

    def test_csv_round_trip_is_exact(self, tmp_path):
        pts = ellipse_points(1.9, n=23, c_a=0.61, c_b=0.43)
        path = tmp_path / "pairs.csv"
        rows = "".join(f"{a!r},{b!r}\n" for a, b in pts.tolist())
        path.write_text("x_a,x_b\n" + rows)
        assert path.read_text().splitlines()[0] == "x_a,x_b"
        back = load_pairs_csv(path)
        assert np.array_equal(back, pts)

    def test_load_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0.1,0.2\n")
        with pytest.raises(ValueError):
            load_pairs_csv(path)

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("x_a,x_b\n0.1,0.2\n\n0.3,0.4\n")
        assert load_pairs_csv(path).tolist() == [[0.1, 0.2], [0.3, 0.4]]


def fit_or_status(fit, pts):
    """fit(pts), or the message of the EllipseFitError it raises."""
    try:
        return fit(pts)
    except EllipseFitError as exc:
        return str(exc)


class TestFitFrame:
    """Every fit is solved and judged on its points centred and scaled by
    powers of two, so neither a rejection nor a phase depends on where the
    points sit or on their units."""

    def test_window_phase_is_its_ellipse_fit_phase(self):
        # bit for bit, rejected windows included (the 3x3 lattice of two
        # atoms rejects some)
        for n_atoms, window in ((2, 6), (20, 10), (3000, 100)):
            pts = shot_noise_pairs(4, 20 * window, n_atoms)
            series = phase_series_from_cycles(pts, window)
            for k, phase in enumerate(series):
                single = fit_or_status(lambda p: ellipse_fit(p).phi_d,
                                       pts[k * window:(k + 1) * window])
                if isinstance(single, str):
                    assert np.isnan(phase), (n_atoms, k)
                else:
                    assert phase == single, (n_atoms, k)
            if n_atoms == 2:
                assert np.isnan(series).any()

    def test_jackknife_phase_is_its_ellipse_fit_phase(self):
        # bit for bit, rejections included: both read one checked fit (a
        # window of 6 leaves the jackknife too few points, so only the whole
        # set of that case is compared)
        for n_atoms, window in ((2, 6), (20, 10), (3000, 100)):
            pts = shot_noise_pairs(4, 20 * window, n_atoms)
            for points in [pts, *np.split(pts, 20)] if window > 6 else [pts]:
                jackknife = fit_or_status(lambda p: ellipse_phase_jackknife(p)[0], points)
                assert jackknife == fit_or_status(lambda p: ellipse_fit(p).phi_d, points)

    def test_far_or_count_unit_pairs_fit_like_fractions(self):
        # the noiseless fringe ellipse centred at (1000, 1000), and shot-noise
        # pairs in count units, were rejected as not elliptical when the
        # rejection was judged in the input's own coordinates
        t = np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False)
        shape = 0.25 * np.column_stack([np.cos(t), np.cos(t + 1.0)])
        near = ellipse_fit(0.5 + shape).phi_d
        assert abs(ellipse_fit(1000.0 + shape).phi_d - near) <= 1e-9
        pts = shot_noise_pairs(0, 2000, 3000)
        fractions = ellipse_fit(pts).phi_d
        for scale in (1000.0, 3000.0):
            assert abs(ellipse_fit(pts * scale).phi_d - fractions) <= 1e-9
        # the residual too is read in the fit's frame, in units of the
        # fitted amplitudes, so it reads the same at any scale of the pairs
        residual = ellipse_fit(pts).rms_residual
        for scale in (1e-150, 1e150):
            assert ellipse_fit(pts * scale).rms_residual == pytest.approx(residual, rel=1e-9)

    def test_points_past_the_float_range_are_a_usage_error(self):
        # the conic in the points' units has coefficients in ratio up to the
        # square of their magnitude, which no float holds past ~1e154
        pts = shot_noise_pairs(0, 200, 3000)
        fractions = ellipse_fit(pts).phi_d
        for scale in (1e-150, 1e150):
            assert abs(ellipse_fit(pts * scale).phi_d - fractions) <= 1e-9
        for scale in (1e-160, 1e160, 1e300):
            with pytest.raises(ValueError, match="float range"):
                ellipse_fit(pts * scale)

    def test_jackknife_fits_at_any_finite_scale(self):
        # its phase is read in the fit's frame, with no conic in the points'
        # units, so it has no float-range limit
        pts = shot_noise_pairs(0, 200, 3000)
        phase, stderr = ellipse_phase_jackknife(pts)
        for scale in (1e-300, 1e-160, 1e160, 1e300):
            moved_phase, moved_stderr = ellipse_phase_jackknife(pts * scale)
            assert abs(moved_phase - phase) <= 1e-9
            assert moved_stderr == pytest.approx(stderr, rel=1e-9)

    # Sets of 20 or more pairs from 100 or more atoms resolve their ellipse.
    # Smaller or coarser sets can be near-degenerate, and then rounding of
    # the inputs alone moves their phase (up to ~1e-4) or their status, in
    # any frame (CHANGES.md). About 20 ms an example.
    @settings(max_examples=50, deadline=None, database=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(20, 60),
        n_atoms=st.integers(100, 10**6),
        contrasts=st.tuples(st.floats(0.3, 1.0), st.floats(0.3, 1.0)),
        phi_d=st.floats(0.3, math.pi - 0.3),
        offset=st.floats(-1e6, 1e6),
        scale=st.floats(1e-6, 1e6),
    )
    def test_offset_and_scale_keep_status_and_phase(
        self, seed, n, n_atoms, contrasts, phi_d, offset, scale
    ):
        pts = shot_noise_pairs(seed, 2 * n, n_atoms, *contrasts, phi_d)
        moved = (pts + offset) * scale
        fits = (
            lambda p: ellipse_fit(p[:n]).phi_d,
            # dimensionless like the phase: in units of the fitted amplitudes
            lambda p: ellipse_fit(p[:n]).rms_residual,
            lambda p: ellipse_phase_jackknife(p[:n])[0],
            lambda p: phase_series_from_cycles(p, n),
        )
        for fit in fits:
            here, there = fit_or_status(fit, pts), fit_or_status(fit, moved)
            if isinstance(here, str) or isinstance(there, str):
                assert here == there
                continue
            here, there = np.atleast_1d(here), np.atleast_1d(there)
            assert np.array_equal(np.isnan(here), np.isnan(there))
            assert np.all(np.abs(here - there)[~np.isnan(here)] <= 1e-8)
