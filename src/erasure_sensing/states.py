"""Single-sensor states, noise channels, and terminal measurement.

A sensor is one three-level atom: a qubit subspace described by a Bloch
vector, plus one detectable leak level. The total state is

    (1 - erasure_weight) * (I + r . sigma) / 2   on the qubit subspace
    + erasure_weight * |leak><leak|

so the trace is 1 by construction. All reachable states in this package are
block-diagonal mixtures of that form, which is why a Bloch vector and a
scalar weight suffice instead of a full 3x3 density matrix.

`ChannelKind` carries the channel contract: the fringe amplitude and the
atom survival probability that a strength-q channel leaves, the rate law
that turns a decay gamma * T into q, and the information exponent of that
decay; `NoiseChannel` is a configured channel, a kind with a fixed q or a
rate gamma. Every consumer outside this module reads the physics from the
contract except the numeric Fisher oracle, whose outcome model
(`fisher.channel_outcome_model`) chains `prepare_plus`, `accumulate_phase`,
`apply_noise` and `measure_probs`: their state-level formulas are written
independently of the contract, so each is checked against the other. All
operations are pure functions of their inputs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Probabilities this far below zero are treated as floating-point debris at
# fringe extrema and clamped to zero; anything worse is a real error.
_NEGATIVE_TOL = 1e-14
_SUM_TOL = 1e-12


class ChannelKind(enum.Enum):
    """A noise channel and its contract: amplitude(q), survival(q), the rate
    law strength(decay), and the information exponent decay_exponent()."""

    DEPOLARIZING = "depolarizing"
    DEPHASING = "dephasing"
    ERASURE = "erasure"

    def amplitude(self, q):
        """Fringe amplitude left by the channel at strength q: 1 - q
        (depolarizing), 1 - 2q (dephasing) or 1 (erasure, whose surviving
        atoms keep the full fringe). Accepts scalars or arrays."""
        if self is ChannelKind.DEPOLARIZING:
            return 1.0 - q
        if self is ChannelKind.DEPHASING:
            return 1.0 - 2.0 * q
        return 1.0

    def survival(self, q):
        """Probability that an atom stays in the qubit subspace: 1 - q for
        erasure, 1 for the channels that lose no atoms."""
        if self is ChannelKind.ERASURE:
            return 1.0 - q
        return 1.0

    def strength(self, decay: float) -> float:
        """Error probability after a decay gamma * T: (1 - e^{-decay}) / 2
        for dephasing, the Z-flip probability of a T2 decay, and
        1 - e^{-decay} for the others, so every kind leaves the information
        e^{-2 k decay} of decay_exponent."""
        q = 1.0 - math.exp(-decay)
        return q / 2.0 if self is ChannelKind.DEPHASING else q

    def decay_exponent(self) -> float:
        """The information exponent k: a decay gamma * T leaves Fisher
        information survival * amplitude^2 = e^{-2 k gamma T}, with k = 1/2
        for erasure (survival e^{-gamma T}) and 1 otherwise (amplitude
        e^{-gamma T}). Read off the contract at gamma T = 1."""
        q = self.strength(1.0)
        return -0.5 * math.log(self.survival(q) * self.amplitude(q) ** 2)


@dataclass(frozen=True, eq=False)
class SensorState:
    """Qubit Bloch vector plus the population of the detectable leak level."""

    bloch: np.ndarray
    erasure_weight: float = 0.0

    def __post_init__(self):
        b = np.asarray(self.bloch, dtype=float)
        if b.shape != (3,):
            raise ValueError("bloch must be a real 3-vector")
        object.__setattr__(self, "bloch", b)
        norm = math.hypot(*b.tolist())
        if not math.isfinite(norm):
            raise ValueError("bloch must be finite")
        if norm > 1.0 + 1e-12:
            raise ValueError("Bloch vector norm exceeds 1")
        w = float(self.erasure_weight)
        if not 0.0 <= w <= 1.0:
            raise ValueError("erasure_weight must lie in [0, 1]")
        object.__setattr__(self, "erasure_weight", w)


@dataclass(frozen=True)
class NoiseChannel:
    """One of the three noise channels, with strength given either as a
    fixed error probability q or as a rate gamma from which
    q(T_c) = kind.strength(gamma * T_c) is derived.

    Exactly one of `q` and `gamma` must be set. The dephasing channel
    scales coherences by (1 - 2q), so a q-specified dephasing contrast is
    symmetric under q -> 1 - q and vanishes at q = 1/2; a rate never takes
    q past 1/2, so rate-gamma dephasing decays as e^{-gamma T_c}.
    """

    kind: ChannelKind
    q: float | None = None
    gamma: float | None = None

    def __post_init__(self):
        if (self.q is None) == (self.gamma is None):
            raise ValueError("specify exactly one of q or gamma")
        if self.q is not None and not 0.0 <= self.q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        if self.gamma is not None and not 0.0 <= self.gamma < math.inf:
            raise ValueError("gamma must be finite and non-negative")

    def strength(self, t_c: float) -> float:
        """Error probability for one interrogation of duration t_c: the
        fixed q, or kind.strength(gamma * t_c) for a rate."""
        if self.q is not None:
            return self.q
        if t_c < 0.0:
            raise ValueError("interrogation time must be non-negative")
        return self.kind.strength(self.gamma * t_c)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over the three terminal outcomes {plus, minus, erasure}."""

    p_plus: float
    p_minus: float
    p_erasure: float = 0.0

    def __post_init__(self):
        for name in ("p_plus", "p_minus", "p_erasure"):
            p = float(getattr(self, name))
            if not math.isfinite(p):
                raise ValueError(f"{name} must be finite")
            if p < -_NEGATIVE_TOL:
                raise ValueError(f"{name} = {p} is negative")
            object.__setattr__(self, name, max(p, 0.0))
        total = self.p_plus + self.p_minus + self.p_erasure
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"outcome probabilities sum to {total}, not 1")


def prepare_plus() -> SensorState:
    """Initial sensor state |+>, Bloch vector (1, 0, 0), no leakage."""
    return SensorState(bloch=[1.0, 0.0, 0.0], erasure_weight=0.0)


def accumulate_phase(state: SensorState, phi: float) -> SensorState:
    """Free evolution under exp(-i phi sigma_z / 2).

    Rotates the Bloch vector by phi about z (periodic in 2 pi); the leak
    population is untouched.
    """
    c, s = math.cos(phi), math.sin(phi)
    bx, by, bz = state.bloch.tolist()
    return SensorState(
        bloch=[bx * c - by * s, bx * s + by * c, bz],
        erasure_weight=state.erasure_weight,
    )


def apply_noise(state: SensorState, kind: ChannelKind, q: float) -> SensorState:
    """Apply one noise channel of strength q.

    Depolarizing shrinks the whole Bloch vector by (1 - q). Dephasing shrinks
    the transverse components by (1 - 2q). Erasure moves a fraction q of the
    remaining qubit population to the leak level and leaves the normalized
    qubit-subspace Bloch vector exactly as it was.
    """
    q = float(q)
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")

    bx, by, bz = state.bloch.tolist()
    w = state.erasure_weight
    if kind is ChannelKind.DEPOLARIZING:
        f = 1.0 - q
        return SensorState(bloch=[f * bx, f * by, f * bz], erasure_weight=w)
    if kind is ChannelKind.DEPHASING:
        f = 1.0 - 2.0 * q
        return SensorState(bloch=[f * bx, f * by, bz], erasure_weight=w)
    if kind is ChannelKind.ERASURE:
        return SensorState(bloch=[bx, by, bz], erasure_weight=w + q * (1.0 - w))
    raise ValueError(f"unknown channel kind {kind!r}")


def measure_probs(state: SensorState, theta: float) -> OutcomeDistribution:
    """Terminal measurement distribution in the basis
    |+/- theta> = (|0> +/- e^{i theta} |1>) / sqrt(2), theta taken mod 2 pi.

    The leak level is resolved as its own outcome: p_erasure equals the leak
    weight and the +/- branch carries the rest. A non-finite theta raises
    ValueError.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    theta %= TWO_PI
    w = state.erasure_weight
    bx, by, _ = state.bloch.tolist()
    proj = bx * math.cos(theta) + by * math.sin(theta)
    p_plus = (1.0 - w) * (1.0 + proj) / 2.0
    p_minus = (1.0 - w) * (1.0 - proj) / 2.0
    return OutcomeDistribution(p_plus=p_plus, p_minus=p_minus, p_erasure=w)
