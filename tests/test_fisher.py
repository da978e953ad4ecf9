"""Classical and quantum Fisher information: closed forms, the numeric
parameter-shift oracle, and the singular/degenerate error paths."""

import math
import re

import numpy as np
import pytest

from erasure_sensing.fisher import (
    DegenerateStateError,
    SingularFisherError,
    bloch_density,
    channel_outcome_model,
    classical_fisher_numeric,
    fisher_dephasing,
    fisher_depolarizing,
    fisher_erasure,
    fisher_information,
    qfi_depolarized,
    qfi_pure_generator,
)
from erasure_sensing.states import ChannelKind, OutcomeDistribution

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
HALF_SIGMA_Z = 0.5 * SIGMA_Z


def analytic(kind, q, delta):
    if kind is ChannelKind.DEPOLARIZING:
        return fisher_depolarizing(q, delta)
    if kind is ChannelKind.DEPHASING:
        return fisher_dephasing(q, delta)
    return fisher_erasure(q, delta)


class TestClosedForms:
    def test_noiseless_fringe_information_is_unity(self):
        # A = 1: sin^2/(1 - cos^2) = 1 at any non-degenerate angle
        for d in (0.3, 1.1, 2.0, math.pi / 2):
            assert fisher_depolarizing(0.0, d) == pytest.approx(1.0, abs=1e-12)

    def test_depolarizing_spot_value(self):
        # independent arithmetic: A=0.7, d=0.6 -> 0.23448980676989836
        assert fisher_depolarizing(0.3, 0.6) == pytest.approx(0.23448980676989836, abs=1e-15)

    def test_dephasing_spot_value_and_reflection_symmetry(self):
        # |1-2q| = 0.6 for q = 0.2 and q = 0.8 -> same information
        expect = 0.2848414335493253
        assert fisher_dephasing(0.2, 1.0) == pytest.approx(expect, abs=1e-15)
        assert fisher_dephasing(0.8, 1.0) == pytest.approx(expect, abs=1e-15)

    def test_hand_computed_values_across_kinds(self):
        # A = 0.8 at quadrature -> A^2
        assert fisher_depolarizing(0.2, math.pi / 2) == pytest.approx(0.64, abs=1e-15)
        # fringe extremum carries no first-order phase signal
        assert fisher_depolarizing(0.6, 0.0) == pytest.approx(0.0, abs=1e-15)
        # A = 0.5, d = pi/3: (0.25 * 0.75) / (0.75 + 0.75 * 0.25) = 0.2
        assert fisher_depolarizing(0.5, math.pi / 3) == pytest.approx(0.2, abs=1e-15)
        assert fisher_dephasing(0.1, math.pi / 2) == pytest.approx(0.64, abs=1e-15)
        assert fisher_erasure(0.36) == pytest.approx(0.64, abs=1e-15)
        assert fisher_erasure(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_dephasing_at_half_carries_no_information(self):
        deltas = np.linspace(0.05, math.pi - 0.05, 41)
        assert np.allclose(fisher_dephasing(0.5, deltas), 0.0, atol=1e-15)

    def test_dephasing_and_depolarizing_agree_when_noiseless(self):
        deltas = np.linspace(0.1, math.pi - 0.1, 23)
        assert np.allclose(fisher_dephasing(0.0, deltas),
                           fisher_depolarizing(0.0, deltas), atol=1e-13)

    def test_depolarizing_peaks_at_quadrature(self):
        q = 0.35
        grid = np.linspace(0.0, math.pi, 2001)
        vals = fisher_depolarizing(q, grid)
        assert np.max(vals) <= (1.0 - q) ** 2 + 1e-12
        assert fisher_depolarizing(q, math.pi / 2) == pytest.approx((1.0 - q) ** 2, abs=1e-15)

    def test_erasure_information_is_flat_in_angle(self):
        deltas = np.linspace(0.0, 2.0 * math.pi, 157)
        vals = fisher_erasure(0.37, deltas)
        assert np.ptp(vals) < 1e-12
        assert np.allclose(vals, 0.63, atol=1e-15)

    def test_erasure_angle_argument_is_optional(self):
        assert fisher_erasure(0.2) == pytest.approx(0.8, abs=1e-15)

    def test_vectorized_broadcasting(self):
        qs = np.array([0.0, 0.1, 0.5])
        out = fisher_depolarizing(qs[:, None], np.array([0.4, 1.2])[None, :])
        assert out.shape == (3, 2)
        # lists broadcast like arrays; empty arrays keep their shape; integer
        # arrays give float elements
        assert fisher_depolarizing([0.0, 0.1, 0.5], [[0.4], [1.2]]).tolist() == out.T.tolist()
        for empty in (np.array([]), np.zeros((2, 0)), []):
            got = fisher_depolarizing(empty, 0.4)
            assert got.dtype == float and got.shape == np.shape(empty)
        got = fisher_depolarizing(np.array([0, 1]), np.array([1, 2]))
        assert got.dtype == float
        assert got.tolist() == [fisher_depolarizing(0.0, 1.0), fisher_depolarizing(1.0, 2.0)]

    @pytest.mark.parametrize("kind", list(ChannelKind))
    def test_scalar_calls_equal_array_elements(self, kind):
        # a float call and the matching element of an array call are equal
        # bit for bit, nodes and the ends of [0, 1] included
        rng = np.random.default_rng(11)
        q = np.concatenate([[0.0, 0.0, 0.5, 1.0, 1.0], rng.uniform(0.0, 1.0, 4000)])
        delta = np.concatenate([[0.0, math.pi, math.pi / 2, 0.0, math.pi],
                                rng.uniform(-7.0, 7.0, 4000)])
        delta[5::7] = rng.choice([0.0, math.pi]) + rng.uniform(-1e-6, 1e-6, delta[5::7].size)
        array = fisher_information(kind, q, delta)
        scalar = [fisher_information(kind, a, d) for a, d in zip(q.tolist(), delta.tolist())]
        assert all(type(v) is float for v in scalar)
        assert array.tolist() == scalar
        # numpy scalars and 0-d arrays are one point, and give a float
        for q0, d0 in ((np.int64(0), 0.4), (np.int64(1), 2.0), (np.float32(0.25), 1.0),
                       (np.array(0.3), 0.4), (0.3, np.array(0.4)),
                       (np.array(0.3), np.int64(2)), (np.bool_(True), 0.3)):
            value = fisher_information(kind, q0, d0)
            assert type(value) is float
            assert value == fisher_information(kind, float(q0), float(d0))

    @pytest.mark.parametrize("kind", list(ChannelKind))
    def test_non_finite_delta_inside_an_array_acts_as_the_float_call(self, kind):
        with pytest.raises(ValueError):
            fisher_information(kind, 0.2, math.inf)
        with pytest.raises(ValueError):
            fisher_information(kind, np.array([0.2, 0.3]), np.array([0.1, math.inf]))
        assert math.isnan(fisher_information(kind, 0.2, math.nan))
        # repeated, so the interpreter's specialized float comparison runs
        for _ in range(50):
            got = fisher_information(kind, np.array([0.2, 0.3]), np.array([0.1, math.nan]))
            assert got[0] == fisher_information(kind, 0.2, 0.1) and math.isnan(got[1])

    def test_q_out_of_range_rejected(self):
        for fn in (fisher_depolarizing, fisher_dephasing, fisher_erasure):
            with pytest.raises(ValueError):
                fn(-0.05, 0.5)
            with pytest.raises(ValueError):
                fn(1.05, 0.5)
            # one bad element rejects the whole array, whatever its type
            for q in (math.nan, np.float32(-0.5), np.array(1.5), [0.2, -0.1],
                      np.array([0.1, 1.2]), np.array([0.1, np.nan]), np.array([0, 2])):
                with pytest.raises(ValueError):
                    fn(q, 0.5)


class TestNumericOracleAgreement:
    def test_analytic_matches_finite_difference_on_random_triples(self):
        rng = np.random.default_rng(2024)
        kinds = list(ChannelKind)
        checked = 0
        for _ in range(120):
            kind = kinds[rng.integers(0, 3)]
            q = float(rng.uniform(0.0, 0.9))
            if kind is ChannelKind.DEPHASING and abs(q - 0.5) < 0.05:
                q = 0.4  # keep away from the zero-information point
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            delta = float(rng.uniform(0.15, math.pi - 0.15))
            model = channel_outcome_model(kind, q, theta)
            numeric = classical_fisher_numeric(model, theta + delta)
            assert numeric == pytest.approx(analytic(kind, q, delta), abs=1e-6)
            assert numeric == pytest.approx(fisher_information(kind, q, delta), abs=1e-6)
            checked += 1
        assert checked >= 100

    def test_erasure_numeric_includes_detection_outcome(self):
        model = channel_outcome_model(ChannelKind.ERASURE, 0.4, 0.0)
        assert classical_fisher_numeric(model, 1.0) == pytest.approx(0.6, abs=1e-6)

    def test_numeric_spot_values_at_tight_tolerance(self):
        # the parameter-shift rule is exact up to rounding, so these
        # hand-computed targets hold well below the generic 1e-6 agreement
        erasure = channel_outcome_model(ChannelKind.ERASURE, 0.36, 0.0)
        assert classical_fisher_numeric(erasure, 1.0) == pytest.approx(0.64, abs=1e-8)
        noiseless = channel_outcome_model(ChannelKind.DEPOLARIZING, 0.0, 0.0)
        assert classical_fisher_numeric(noiseless, math.pi / 2) == pytest.approx(1.0, abs=1e-8)
        depol = channel_outcome_model(ChannelKind.DEPOLARIZING, 0.2, 0.0)
        assert classical_fisher_numeric(depol, math.pi / 4) == pytest.approx(
            fisher_depolarizing(0.2, math.pi / 4), abs=1e-7)
        half = channel_outcome_model(ChannelKind.ERASURE, 0.5, 0.0)
        assert classical_fisher_numeric(half, math.pi / 7) == pytest.approx(0.5, abs=1e-7)

    def test_fringe_node_limit_resolves_zero_over_zero(self):
        # at delta = pi the minus-branch probability and its slope both vanish;
        # the quadratic-limit term keeps the noiseless value finite and exact
        model = channel_outcome_model(ChannelKind.DEPOLARIZING, 0.0, 0.0)
        assert classical_fisher_numeric(model, math.pi) == pytest.approx(1.0, abs=1e-6)
        # just off the node p ~ 2.5e-15 is below the floor with slope ~5e-8,
        # and p'^2 / p = (5e-8)^2 / 2.5e-15 = 1: the same removable limit
        assert classical_fisher_numeric(model, math.pi - 1e-7) == pytest.approx(1.0, abs=1e-5)

    def test_exact_near_fringe_nodes(self):
        # 1e-9 to 1e-3 rad from either node of the theta = 0.1 readout, on
        # both sides: the half-angle model forms no p by cancellation, so
        # no outcome near its zero loses the digits its slope is read from
        offsets = [sign * 10.0**e for e in np.linspace(-9.0, -3.0, 61) for sign in (1, -1)]
        cases = [(kind, q) for kind in ChannelKind for q in (0.0, 0.01, 0.1)]
        for kind, q in cases + [(ChannelKind.DEPHASING, 1.0)]:
            model = channel_outcome_model(kind, q, 0.1)
            for node in (0.0, math.pi):
                for offset in offsets:
                    phi = 0.1 + node + offset
                    assert classical_fisher_numeric(model, phi) == pytest.approx(
                        fisher_information(kind, q, phi - 0.1), rel=0.0, abs=1e-8)

    def test_large_phase(self):
        # the shifts phi +/- pi/2 round to a multiple of phi's ulp (1.2e-4
        # at 1e12); from 2^54 on they round back to phi, and there is no
        # derivative to read
        model = channel_outcome_model(ChannelKind.DEPOLARIZING, 0.2, 0.0)
        assert classical_fisher_numeric(model, 1e12) == pytest.approx(
            fisher_depolarizing(0.2, 1e12), rel=0.0, abs=1e-10)
        for phi in (2e16, -2e16, 2.0**54):
            with pytest.raises(ValueError, match=re.escape(f"phi = {phi!r} is too large")):
                classical_fisher_numeric(model, phi)

    def test_non_finite_readout_angle_rejected(self):
        for theta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="theta"):
                channel_outcome_model(ChannelKind.DEPOLARIZING, 0.2, theta)(0.3)

    def test_true_singularity_raises(self):
        # a one-sided zero: p = max(phi, 0) / 2 vanishes at phi = 0 with
        # slope 1/2 on one side, so p'^2 / p has no finite limit there
        def model(phi):
            p = max(phi, 0.0) / 2.0
            return OutcomeDistribution(p_plus=p, p_minus=1.0 - p)

        with pytest.raises(SingularFisherError):
            classical_fisher_numeric(model, 0.0)


class TestQuantumFisher:
    def test_pure_plus_state_with_half_sigma_z(self):
        # 4 Var(H) on |+>: 4 * (1/4 - 0) = 1
        rho = bloch_density([1.0, 0.0, 0.0])
        assert qfi_pure_generator(rho, HALF_SIGMA_Z) == pytest.approx(1.0, abs=1e-12)

    def test_generator_eigenstate_carries_no_information(self):
        rho = bloch_density([0.0, 0.0, 1.0])
        assert qfi_pure_generator(rho, HALF_SIGMA_Z) == pytest.approx(0.0, abs=1e-12)

    def test_depolarized_factorization_scaled_vs_direct(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            rho = bloch_density(v)
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = 0.5 * (h + h.conj().T)
            q = float(rng.uniform(0.0, 0.95))
            scaled = (1.0 - q) ** 2 * qfi_pure_generator(rho, h)
            assert qfi_depolarized(rho, h, q) == pytest.approx(scaled, abs=1e-10)

    def test_depolarized_scaling_factor_value(self):
        rho = bloch_density([1.0, 0.0, 0.0])
        base = qfi_pure_generator(rho, HALF_SIGMA_Z)
        assert qfi_depolarized(rho, HALF_SIGMA_Z, 0.3) == pytest.approx(0.49 * base, abs=1e-12)
        assert qfi_depolarized(rho, HALF_SIGMA_Z, 0.1) == pytest.approx(
            0.81, abs=1e-12)
        assert qfi_depolarized(rho, HALF_SIGMA_Z, 0.0) == pytest.approx(base, abs=1e-12)

    def test_convexity_bound_dominates_true_information(self):
        rho = bloch_density([1.0, 0.0, 0.0])
        for q in (0.0, 0.2, 0.5, 0.9):
            true_val = qfi_depolarized(rho, HALF_SIGMA_Z, q)
            # the convexity bound (1 - q) F with noiseless F = 1
            assert (1.0 - q) >= true_val - 1e-12

    def test_convexity_bound_is_attained_by_detected_erasure(self):
        q = 0.36
        assert (1.0 - q) == pytest.approx(0.64, abs=1e-15)
        assert (1.0 - q) == pytest.approx(fisher_erasure(q), abs=1e-15)
        q = 0.0
        assert (1.0 - q) == pytest.approx(1.0, abs=1e-15)

    def test_convexity_bound_dominates_depolarized_fringe_everywhere(self):
        deltas = np.linspace(0.0, 2.0 * math.pi, 1000)
        q = 0.2
        assert np.all((1.0 - q) >= fisher_depolarizing(q, deltas) - 1e-12)

    def test_maximally_mixed_state_is_degenerate(self):
        rho = 0.5 * np.eye(2)
        with pytest.raises(DegenerateStateError):
            qfi_pure_generator(rho, HALF_SIGMA_Z)

    def test_degeneracy_threshold_is_an_eigenvalue_gap_of_1e_10(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DegenerateStateError):
            qfi_pure_generator(np.diag([0.5 + 0.4e-10, 0.5 - 0.4e-10]), h)
        assert qfi_pure_generator(np.diag([0.5 + 0.6e-10, 0.5 - 0.6e-10]), h) == pytest.approx(
            (1.2e-10) ** 2, rel=1e-5)

    def test_fully_depolarized_is_outside_the_domain(self):
        rho = bloch_density([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            qfi_depolarized(rho, HALF_SIGMA_Z, 1.0)

    def test_invalid_density_matrix_rejected(self):
        with pytest.raises(ValueError):
            qfi_pure_generator(np.array([[1.0, 0.5], [0.4, 0.0]]), HALF_SIGMA_Z)  # not Hermitian
        with pytest.raises(ValueError):
            qfi_pure_generator(np.array([[1.5, 0.0], [0.0, -0.5]]), HALF_SIGMA_Z)  # not PSD
        rho = bloch_density([1.0, 0.0, 0.0])
        for state, generator, named in (
            (np.eye(3) / 3.0, HALF_SIGMA_Z, "density matrix must be 2x2"),
            (0.9 * rho, HALF_SIGMA_Z, "trace"),
            (rho, np.eye(3), "generator must be 2x2"),
            (rho, np.array([[0.0, 1.0], [0.0, 0.0]]), "generator is not Hermitian"),
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), HALF_SIGMA_Z, "density matrix must be finite"),
            (rho, np.array([[np.nan, 0.0], [0.0, 0.0]]), "generator must be finite"),
        ):
            with pytest.raises(ValueError, match=named):
                qfi_pure_generator(state, generator)
        with pytest.raises(ValueError, match="norm exceeds 1"):
            bloch_density([1.1, 0.0, 0.0])
        with pytest.raises(ValueError, match="Bloch vector must be finite"):
            bloch_density([np.nan, 0.0, 0.0])
