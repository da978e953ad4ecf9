"""Noise channels and the terminal outcome distribution of one sensor.

A sensor is one three-level atom: a qubit and one detectable leak level,
so a readout has three outcomes, plus, minus and erasure
(`OutcomeDistribution`).

`ChannelKind` carries the channel contract: the fringe amplitude and the
atom survival probability that a strength-q channel leaves, the rate law
that turns a decay gamma * T into q, and the information exponent of that
decay; `NoiseChannel` is a configured channel, a kind with a fixed q or a
rate gamma. Every consumer reads the physics from the contract except the
numeric Fisher oracle, whose outcome model (`fisher.channel_outcome_model`)
writes each channel as the weights with which it keeps, flips and leaks
the atom's transverse Bloch vector, independently of the contract, so each
is checked against the other.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

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


@dataclass(frozen=True)
class NoiseChannel:
    """One of the three noise channels, with strength given either as a
    fixed error probability q or as a rate gamma from which
    q(T_c) = kind.strength(gamma * T_c) is derived.

    Exactly one of `q` and `gamma` must be set, and is kept as a Python
    float; kind must be a ChannelKind (a name string is rejected). The
    dephasing channel scales coherences by (1 - 2q), so its contrast is
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
        if not isinstance(self.kind, ChannelKind):
            raise ValueError(f"kind must be a ChannelKind, not {self.kind!r}")
        name = "q" if self.gamma is None else "gamma"
        object.__setattr__(self, name, float(getattr(self, name)))

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
    """Probabilities over the three terminal outcomes {plus, minus, erasure}:
    each finite and not below 0.0, summing to 1 within 1e-12."""

    p_plus: float
    p_minus: float
    p_erasure: float = 0.0

    def __post_init__(self):
        probs = []
        for name in ("p_plus", "p_minus", "p_erasure"):
            v = getattr(self, name)
            p = float(v)
            if not math.isfinite(p):
                raise ValueError(f"{name} must be finite")
            # -0.0 is not below 0.0, so it passes and stays -0.0
            if p < 0.0:
                raise ValueError(f"{name} = {p} is negative")
            # float() hands back a float as itself, so only a converted
            # value is written back
            if p is not v:
                object.__setattr__(self, name, p)
            probs.append(p)
        total = probs[0] + probs[1] + probs[2]
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"outcome probabilities sum to {total}, not 1")

