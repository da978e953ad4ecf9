"""Bloch-vector state container, noise channels, and measurement sampling."""

import math

import numpy as np
import pytest

from erasure_sensing.states import (
    ChannelKind,
    NoiseChannel,
    OutcomeDistribution,
    SensorState,
    accumulate_phase,
    apply_noise,
    measure_probs,
    prepare_plus,
)


def state_at(phi, contrast=1.0, w=0.0):
    return SensorState(
        bloch=np.array([contrast * math.cos(phi), contrast * math.sin(phi), 0.0]),
        erasure_weight=w,
    )


class TestStateContainer:
    def test_prepare_plus_is_x_axis(self):
        s = prepare_plus()
        assert np.allclose(s.bloch, [1.0, 0.0, 0.0])
        assert s.erasure_weight == 0.0

    def test_accumulate_phase_rotates_about_z(self):
        s = accumulate_phase(prepare_plus(), 0.7)
        assert np.allclose(s.bloch, [math.cos(0.7), math.sin(0.7), 0.0], atol=1e-15)

    def test_quarter_turn_and_zero_phase(self):
        quarter = accumulate_phase(prepare_plus(), math.pi / 2)
        assert np.allclose(quarter.bloch, [0.0, 1.0, 0.0], atol=1e-15)
        null = accumulate_phase(prepare_plus(), 0.0)
        assert np.allclose(null.bloch, prepare_plus().bloch)

    def test_phase_accumulation_composes(self):
        once = accumulate_phase(prepare_plus(), 1.1)
        twice = accumulate_phase(accumulate_phase(prepare_plus(), 0.4), 0.7)
        assert np.allclose(once.bloch, twice.bloch, atol=1e-14)

    def test_bloch_norm_above_one_rejected(self):
        with pytest.raises(ValueError):
            SensorState(bloch=np.array([1.2, 0.0, 0.0]), erasure_weight=0.0)
        # NaN compares false with the norm bound, so it is checked on its own
        with pytest.raises(ValueError, match="bloch must be finite"):
            SensorState(bloch=[math.nan, 0.0, 0.0])
        with pytest.raises(ValueError, match="real 3-vector"):
            SensorState(bloch=[1.0, 0.0])

    def test_erasure_weight_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SensorState(bloch=np.zeros(3), erasure_weight=1.5)
        with pytest.raises(ValueError):
            SensorState(bloch=np.zeros(3), erasure_weight=-0.1)


class TestChannels:
    def test_depolarizing_scales_whole_bloch_vector(self):
        s = SensorState(bloch=np.array([0.6, -0.2, 0.1]), erasure_weight=0.0)
        out = apply_noise(s, ChannelKind.DEPOLARIZING, q=0.3)
        assert np.allclose(out.bloch, [0.42, -0.14, 0.07], atol=1e-15)
        assert out.erasure_weight == 0.0

    def test_dephasing_scales_coherences_only(self):
        s = SensorState(bloch=np.array([0.8, 0.5, -0.3]), erasure_weight=0.0)
        out = apply_noise(s, ChannelKind.DEPHASING, q=0.4)
        assert np.allclose(out.bloch, [0.8 * 0.2, 0.5 * 0.2, -0.3], atol=1e-15)

    def test_dephasing_at_half_kills_coherences(self):
        s = SensorState(bloch=np.array([0.8, 0.5, -0.3]), erasure_weight=0.0)
        out = apply_noise(s, ChannelKind.DEPHASING, q=0.5)
        assert np.allclose(out.bloch, [0.0, 0.0, -0.3], atol=1e-15)

    def test_dephasing_beyond_half_flips_coherence_sign(self):
        s = SensorState(bloch=np.array([0.8, 0.5, 0.0]), erasure_weight=0.0)
        out = apply_noise(s, ChannelKind.DEPHASING, q=0.75)
        assert np.allclose(out.bloch, [-0.4, -0.25, 0.0], atol=1e-15)

    def test_erasure_moves_weight_out_of_qubit_subspace(self):
        s = SensorState(bloch=np.array([1.0, 0.0, 0.0]), erasure_weight=0.5)
        out = apply_noise(s, ChannelKind.ERASURE, q=0.2)
        assert out.erasure_weight == pytest.approx(0.6, abs=1e-15)
        # surviving Bloch direction is untouched
        assert np.allclose(out.bloch, s.bloch)

    def test_erasure_composition_matches_survival_product(self):
        s = prepare_plus()
        out = apply_noise(apply_noise(s, ChannelKind.ERASURE, q=0.3), ChannelKind.ERASURE, q=0.3)
        assert out.erasure_weight == pytest.approx(1.0 - 0.7**2, abs=1e-15)

    def test_rate_form_strength(self):
        ch = NoiseChannel(ChannelKind.ERASURE, gamma=0.5)
        assert ch.strength(2.0) == pytest.approx(0.6321205588285577, abs=1e-15)

    def test_channel_requires_exactly_one_strength(self):
        with pytest.raises(ValueError):
            NoiseChannel(ChannelKind.ERASURE)
        with pytest.raises(ValueError):
            NoiseChannel(ChannelKind.ERASURE, q=0.1, gamma=0.1)

    def test_q_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            NoiseChannel(ChannelKind.DEPOLARIZING, q=1.5)
        with pytest.raises(ValueError):
            apply_noise(prepare_plus(), ChannelKind.DEPOLARIZING, q=-0.2)
        with pytest.raises(ValueError, match="interrogation time"):
            NoiseChannel(ChannelKind.ERASURE, gamma=1.0).strength(-1.0)
        with pytest.raises(ValueError, match="unknown channel kind"):
            apply_noise(prepare_plus(), "erasure", q=0.2)

    @pytest.mark.parametrize("kind", list(ChannelKind))
    def test_channel_contract_matches_state_model(self, kind):
        # the contract on ChannelKind and the state-level apply_noise are
        # written independently; they must describe the same channel
        s = SensorState(bloch=np.array([0.6, -0.48, 0.2]), erasure_weight=0.0)
        for q in (0.0, 0.1, 0.5, 0.9, 1.0):
            out = apply_noise(s, kind, q)
            assert np.allclose(out.bloch[:2], kind.amplitude(q) * s.bloch[:2],
                               rtol=0.0, atol=1e-15)
            assert kind.survival(q) == pytest.approx(1.0 - out.erasure_weight, abs=1e-15)

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
        aligned = measure_probs(prepare_plus(), 0.0)
        assert aligned.p_plus == pytest.approx(1.0, abs=1e-15)
        flipped = measure_probs(accumulate_phase(prepare_plus(), math.pi), 0.0)
        assert flipped.p_minus == pytest.approx(1.0, abs=1e-15)

    def test_maximally_mixed_state_is_a_coin_flip(self):
        mixed = SensorState(bloch=np.zeros(3), erasure_weight=0.0)
        dist = measure_probs(mixed, 1.3)
        assert dist.p_plus == pytest.approx(0.5, abs=1e-15)
        assert dist.p_minus == pytest.approx(0.5, abs=1e-15)

    def test_rotated_basis_probabilities(self):
        # independent arithmetic: p_pm = (1-w)(1 +- c cos(phi-theta))/2
        dist = measure_probs(state_at(0.7, contrast=0.9, w=0.15), 0.2)
        assert dist.p_plus == pytest.approx(0.7606753299230676, abs=1e-14)
        assert dist.p_minus == pytest.approx(0.08932467007693239, abs=1e-14)
        assert dist.p_erasure == pytest.approx(0.15, abs=1e-15)

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
            measure_probs(prepare_plus(), math.inf)

    def test_probabilities_form_a_simplex_everywhere(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            c = rng.uniform(0.0, 1.0)
            w = rng.uniform(0.0, 1.0)
            d = measure_probs(state_at(phi, c, w), theta)
            vals = (d.p_plus, d.p_minus, d.p_erasure)
            assert all(v >= -1e-14 for v in vals)
            assert sum(vals) == pytest.approx(1.0, abs=1e-12)
