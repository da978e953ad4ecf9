"""Noise channels, their contract, and the outcome model of one sensor."""

import math

import numpy as np
import pytest

from erasure_sensing.fisher import channel_outcome_model
from erasure_sensing.states import ChannelKind, NoiseChannel, OutcomeDistribution


def probs(kind, q, theta, phi):
    """(p_plus, p_minus, p_erasure) of the outcome model at phi."""
    d = channel_outcome_model(kind, q, theta)(phi)
    return d.p_plus, d.p_minus, d.p_erasure


def bloch_xy(kind, q, phi):
    """The (x, y) Bloch components the readout sees, p_+ - p_- at theta 0
    and pi/2, each over the fringe weight 1 - p_erasure."""
    x = probs(kind, q, 0.0, phi)
    y = probs(kind, q, math.pi / 2, phi)
    return (x[0] - x[1]) / (1.0 - x[2]), (y[0] - y[1]) / (1.0 - y[2])


class TestStateContainer:
    def test_zero_phase_points_along_x_with_no_leak(self):
        for kind in ChannelKind:
            assert np.allclose(bloch_xy(kind, 0.0, 0.0), [1.0, 0.0], atol=1e-15)
            assert probs(kind, 0.0, 0.0, 0.0)[2] == 0.0

    def test_phase_rotates_the_bloch_vector_about_z(self):
        assert np.allclose(bloch_xy(ChannelKind.DEPOLARIZING, 0.0, 0.7),
                           [math.cos(0.7), math.sin(0.7)], atol=1e-15)

    def test_quarter_turn_and_zero_phase(self):
        quarter = bloch_xy(ChannelKind.DEPOLARIZING, 0.0, math.pi / 2)
        assert np.allclose(quarter, [0.0, 1.0], atol=1e-15)
        null = bloch_xy(ChannelKind.DEPOLARIZING, 0.0, 0.0)
        assert np.allclose(null, bloch_xy(ChannelKind.DEPOLARIZING, 0.0, 2.0 * math.pi),
                           atol=1e-15)

    def test_outcomes_depend_only_on_phase_minus_readout_angle(self):
        # a phase and a readout angle enter only through their difference
        for kind in ChannelKind:
            once = probs(kind, 0.3, 0.0, 0.7)
            shifted = probs(kind, 0.3, 0.4, 1.1)
            assert np.allclose(once, shifted, rtol=0.0, atol=1e-14)


class TestChannels:
    def test_depolarizing_scales_whole_bloch_vector(self):
        assert np.allclose(bloch_xy(ChannelKind.DEPOLARIZING, 0.3, 1.2),
                           [0.7 * math.cos(1.2), 0.7 * math.sin(1.2)], atol=1e-15)
        assert probs(ChannelKind.DEPOLARIZING, 0.3, 0.0, 1.2)[2] == 0.0

    def test_dephasing_scales_coherences_only(self):
        assert np.allclose(bloch_xy(ChannelKind.DEPHASING, 0.4, 1.2),
                           [0.2 * math.cos(1.2), 0.2 * math.sin(1.2)], atol=1e-15)
        assert probs(ChannelKind.DEPHASING, 0.4, 0.0, 1.2)[2] == 0.0

    def test_dephasing_at_half_kills_coherences(self):
        for phi in (0.0, 0.9, math.pi):
            assert np.allclose(probs(ChannelKind.DEPHASING, 0.5, 0.3, phi),
                               [0.5, 0.5, 0.0], atol=1e-15)

    def test_dephasing_beyond_half_flips_coherence_sign(self):
        assert np.allclose(bloch_xy(ChannelKind.DEPHASING, 0.75, 0.0), [-0.5, 0.0],
                           atol=1e-15)

    def test_erasure_moves_weight_out_of_qubit_subspace(self):
        p_plus, p_minus, p_erasure = probs(ChannelKind.ERASURE, 0.2, 0.0, 0.0)
        assert p_erasure == pytest.approx(0.2, abs=1e-15)
        # the surviving fringe keeps its full contrast
        assert (p_plus, p_minus) == pytest.approx((0.8, 0.0), abs=1e-15)
        assert np.allclose(bloch_xy(ChannelKind.ERASURE, 0.2, 0.7),
                           [math.cos(0.7), math.sin(0.7)], atol=1e-15)

    def test_rate_form_strength(self):
        ch = NoiseChannel(ChannelKind.ERASURE, gamma=0.5)
        assert ch.strength(2.0) == pytest.approx(0.6321205588285577, abs=1e-15)

    def test_channel_requires_exactly_one_strength(self):
        with pytest.raises(ValueError):
            NoiseChannel(ChannelKind.ERASURE)
        with pytest.raises(ValueError):
            NoiseChannel(ChannelKind.ERASURE, q=0.1, gamma=0.1)

    def test_kind_must_be_a_channel_kind(self):
        # a name string is not a kind: it fails at construction, not later
        # in strength() or in the simulator
        for kind, strength in (("erasure", {"q": 0.1}), ("erasure", {"gamma": 0.1}),
                               (None, {"q": 0.1})):
            with pytest.raises(ValueError, match="^kind must be a ChannelKind"):
                NoiseChannel(kind, **strength)

    def test_q_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            NoiseChannel(ChannelKind.DEPOLARIZING, q=1.5)
        for q in (-0.2, 1.5, math.nan):
            with pytest.raises(ValueError, match="q must lie"):
                channel_outcome_model(ChannelKind.DEPOLARIZING, q, 0.0)
        with pytest.raises(ValueError, match="interrogation time"):
            NoiseChannel(ChannelKind.ERASURE, gamma=1.0).strength(-1.0)
        with pytest.raises(ValueError, match="unknown channel kind"):
            channel_outcome_model("erasure", 0.2, 0.0)

    @pytest.mark.parametrize("kind", list(ChannelKind))
    def test_channel_contract_matches_state_model(self, kind):
        # the contract on ChannelKind and the state-level outcome model are
        # written independently; they must describe the same channel, past
        # q = 1/2 too, where the dephasing fringe changes sign
        for q in (0.0, 0.1, 0.5, 0.75, 0.9, 1.0):
            for theta, phi in ((0.0, 0.0), (0.0, 2.5), (math.pi / 2, 0.6)):
                p_plus, p_minus, p_erasure = probs(kind, q, theta, phi)
                assert kind.survival(q) == pytest.approx(1.0 - p_erasure, abs=1e-15)
                fringe = kind.survival(q) * kind.amplitude(q) * math.cos(phi - theta)
                assert p_plus - p_minus == pytest.approx(fringe, abs=1e-15)

    @pytest.mark.parametrize("kind, k", [(ChannelKind.DEPOLARIZING, 1.0),
                                         (ChannelKind.DEPHASING, 1.0),
                                         (ChannelKind.ERASURE, 0.5)])
    def test_rate_law_decays_the_information(self, kind, k):
        # survival * amplitude^2 at q = strength(decay) is e^{-2 k decay}:
        # erasure halves the exponent of the contrast-decay channels
        for decay in (0.0, 0.1, 1.0, 3.0):
            q = kind.strength(decay)
            information = kind.survival(q) * kind.amplitude(q) ** 2
            assert information == pytest.approx(math.exp(-2.0 * k * decay), rel=1e-13)


class TestMeasurement:
    def test_aligned_and_anti_aligned_states_are_deterministic(self):
        for theta in (0.0, 1.3, -4.0):
            aligned = probs(ChannelKind.DEPOLARIZING, 0.0, theta, theta)
            assert aligned[0] == pytest.approx(1.0, abs=1e-15)
            flipped = probs(ChannelKind.DEPOLARIZING, 0.0, theta, theta + math.pi)
            assert flipped[1] == pytest.approx(1.0, abs=1e-15)

    def test_maximally_mixed_state_is_a_coin_flip(self):
        for phi in (0.0, 1.3, math.pi):
            dist = probs(ChannelKind.DEPOLARIZING, 1.0, 0.4, phi)
            assert dist == pytest.approx((0.5, 0.5, 0.0), abs=1e-15)

    def test_rotated_basis_probabilities(self):
        # independent arithmetic: p_pm = (1-w)(1 +- c cos(phi-theta))/2
        p_plus, p_minus, p_erasure = probs(ChannelKind.DEPOLARIZING, 0.1, 0.2, 0.7)
        assert p_plus == pytest.approx(0.8949121528506678, abs=1e-14)
        assert p_minus == pytest.approx(0.10508784714933223, abs=1e-14)
        assert p_erasure == 0.0
        p_plus, p_minus, p_erasure = probs(ChannelKind.ERASURE, 0.15, 0.2, 0.7)
        assert p_plus == pytest.approx(0.7979725888034084, abs=1e-14)
        assert p_minus == pytest.approx(0.05202741119659158, abs=1e-14)
        assert p_erasure == pytest.approx(0.15, abs=1e-15)

    def test_non_finite_probability_rejected(self):
        # NaN compares false with the sign and sum checks, so it is checked
        # on its own
        with pytest.raises(ValueError, match="p_plus must be finite"):
            OutcomeDistribution(p_plus=math.nan, p_minus=0.5)
        with pytest.raises(ValueError, match="negative"):
            OutcomeDistribution(p_plus=-0.1, p_minus=1.1)
        with pytest.raises(ValueError, match="sum to"):
            OutcomeDistribution(p_plus=0.5, p_minus=0.6)
        with pytest.raises(ValueError, match="theta must be finite"):
            channel_outcome_model(ChannelKind.ERASURE, 0.2, math.inf)
        # a NaN phase reaches the probabilities, even with no fringe left
        for kind, q in ((ChannelKind.DEPHASING, 0.2), (ChannelKind.DEPOLARIZING, 1.0),
                        (ChannelKind.ERASURE, 1.0)):
            with pytest.raises(ValueError, match="must be finite"):
                channel_outcome_model(kind, q, 0.0)(math.nan)

    def test_probabilities_form_a_simplex_everywhere(self):
        rng = np.random.default_rng(7)
        kinds = list(ChannelKind)
        for _ in range(1000):
            kind = kinds[rng.integers(0, 3)]
            q = rng.uniform(0.0, 1.0)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            vals = probs(kind, q, theta, phi)
            assert all(v >= -1e-14 for v in vals)
            assert sum(vals) == pytest.approx(1.0, abs=1e-12)
