"""Fisher information for the three noisy Ramsey channels.

Closed-form classical Fisher information of any channel, read off the
channel contract on `ChannelKind` as survival times the fringe information
at the channel's amplitude; a parameter-shift numeric evaluator, exact to
rounding on every outcome model here, that serves as the oracle for the
closed forms; and the single-qubit quantum Fisher information
F = 4 (2 tr(rho^2) - 1) |<eta_0| H |eta_1>|^2, evaluated in Bloch form as
4 |h x r|^2, with its depolarized form (1 - q)^2 F.

Everything here is pure and re-entrant.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .states import TWO_PI, ChannelKind, OutcomeDistribution

# Outcomes with probability below this are treated as (possibly removable)
# zeros of the model rather than regular points.
_PROB_FLOOR = 1e-14
# Eigenvalue gap |r| below which a 2x2 density matrix counts as degenerate.
_DEGENERACY_GAP = 1e-10

_HERMITIAN_TOL = 1e-12


class SingularFisherError(ArithmeticError):
    """A probability vanishes while its phi-derivative does not, so the
    Fisher summand diverges at this evaluation point."""


class DegenerateStateError(ArithmeticError):
    """The quantum Fisher formula needs a state with distinct eigenvalues,
    and rho's eigenvalue gap, the length of its Bloch vector, is
    (numerically) zero."""


def channel_outcome_model(
    kind: ChannelKind, q: float, theta: float
) -> Callable[[float], OutcomeDistribution]:
    """Return phi -> OutcomeDistribution for one channel and readout basis.

    The model prepares |+>, rotates its Bloch vector to (cos phi, sin phi,
    0), applies the channel at strength q and measures in the basis
    |+/- theta> = (|0> +/- e^{i theta} |1>) / sqrt(2), theta taken mod
    2 pi, with the leak level resolved as its own outcome. Each channel
    keeps the transverse Bloch vector with weight k, flips it with weight f
    and moves weight w to the leak level, so on the half angle
    d = (phi - theta) / 2
        p_+ = k cos^2 d + f sin^2 d,  p_- = k sin^2 d + f cos^2 d,  p_e = w,
    with (k, f, w) = (1 - q/2, q/2, 0) for depolarizing, (1 - q, q, 0) for
    dephasing (a Z error) and (1 - q, 0, q) for erasure. No term cancels,
    so every p is a non-negative float and none is -0.0, near the fringe
    nodes too. These weights are written on the state, independently of
    ChannelKind.amplitude and .survival, so each checks the other. A q
    outside [0, 1], an unknown kind or a non-finite theta raises ValueError
    here, a non-finite phi when the model is called.
    """
    # + 0.0 turns a -0.0 strength into 0.0, so no weight is a negative zero
    q = float(q) + 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    if kind is ChannelKind.DEPOLARIZING:
        keep, flip, w = 1.0 - q / 2.0, q / 2.0, 0.0
    elif kind is ChannelKind.DEPHASING:
        keep, flip, w = 1.0 - q, q, 0.0
    elif kind is ChannelKind.ERASURE:
        keep, flip, w = 1.0 - q, 0.0, q
    else:
        raise ValueError(f"unknown channel kind {kind!r}")
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    theta %= TWO_PI

    def model(phi: float) -> OutcomeDistribution:
        half = (phi - theta) / 2.0
        c2, s2 = math.cos(half) ** 2, math.sin(half) ** 2
        return OutcomeDistribution(
            p_plus=keep * c2 + flip * s2, p_minus=keep * s2 + flip * c2, p_erasure=w
        )

    return model


def classical_fisher_numeric(
    model: Callable[[float], OutcomeDistribution], phi: float
) -> float:
    """Parameter-shift Fisher information sum_x (d_phi p_x)^2 / p_x.

    From the model at phi and phi +/- pi/2, p' = (p(phi + pi/2) -
    p(phi - pi/2)) / 2 and p'' = (p(phi + pi/2) + p(phi - pi/2)) / 2 -
    p(phi). Both are exact for a model that is a first harmonic in phi,
    a + b cos phi + c sin phi, as every channel_outcome_model is; a model
    of any other shape gets no such guarantee. Where phi +/- pi/2 rounds
    back to phi (|phi| >= 2^54) there is no shift to take, and ValueError
    names phi. Below that the shifts round to a multiple of phi's ulp,
    so the result drifts from the closed form as phi grows: at
    depolarizing q = 0.2, by 3e-8 at 1e13 and by 1.7e-3 at 1e15.

    The floor is _PROB_FLOOR times the weight 1 - p_erasure left to the
    fringe outcomes, so a fringe scaled down by erasure keeps its regular
    points. An outcome with p below the floor contributes the quadratic-zero
    limit 2 p'' of p'^2 / p: near such a zero p'^2 = 2 p'' p <= 2 p'' floor,
    so a slope with p'^2 > 4 max(p'', 0) floor (a factor 2 of slack) raises
    SingularFisherError. So where a channel's flip weight f lies below the
    floor (q below ~2e-14), within ~2e-7 rad of a fringe node, the limit ~1
    stands in for an information that falls to 0 at the node.
    """
    at = model(phi)
    up, down = phi + math.pi / 2.0, phi - math.pi / 2.0
    if phi in (up, down):
        raise ValueError(f"phi = {phi} is too large: phi +/- pi/2 rounds back to phi")
    above, below = model(up), model(down)
    outcomes = (
        (at.p_plus, above.p_plus, below.p_plus),
        (at.p_minus, above.p_minus, below.p_minus),
        (at.p_erasure, above.p_erasure, below.p_erasure),
    )
    floor = _PROB_FLOOR * (1.0 - at.p_erasure)
    total = 0.0
    for x, (p0, pp, pm) in enumerate(outcomes):
        deriv = (pp - pm) / 2.0
        second = (pp + pm) / 2.0 - p0
        if p0 > floor:
            total += deriv**2 / p0
        elif deriv**2 <= 4.0 * max(second, 0.0) * floor:
            total += max(2.0 * second, 0.0)
        else:
            raise SingularFisherError(
                f"singular Fisher evaluation: outcome {x} has p = {p0} "
                f"but slope {deriv} at phi = {phi}"
            )
    return total


def _channel_fisher(survival: float, amplitude: float, delta: float) -> float:
    """survival * F, the Fisher information of a channel whose surviving
    fraction of the atoms reads the fringe p = (1 +/- A cos d)/2, with
    F = A^2 sin^2 d / (1 - A^2 cos^2 d); the removable 0/0 of F at |A| = 1,
    cos d = +/-1 is evaluated as its limit value 1.
    """
    s2 = math.sin(delta) ** 2
    c2 = math.cos(delta) ** 2
    # 1 - A^2 cos^2 d rewritten as s^2 + (1-A^2) c^2: every term is
    # non-negative, so the node region |A| -> 1, sin d -> 0 keeps full
    # precision instead of cancelling two near-unit quantities
    den = s2 + (1.0 - amplitude) * (1.0 + amplitude) * c2
    # den vanishes only at that 0/0, where the numerator vanishes too and F
    # takes its limit 1
    if den == 0.0:
        return survival
    return survival * (amplitude**2 * s2 / den)


def _fisher_point(kind: ChannelKind, q: float, delta: float) -> float:
    """fisher_information at one point, q and delta plain numbers."""
    q = float(q)
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    return _channel_fisher(kind.survival(q), kind.amplitude(q), delta)


def fisher_information(kind: ChannelKind, q, delta):
    """Classical Fisher information of a strength-q channel at fringe
    offset delta = phi - theta, with erasure detection on.

    The surviving fraction kind.survival(q) of the atoms reads a fringe of
    amplitude kind.amplitude(q). For erasure that fringe has amplitude 1,
    whose information is 1 at every delta, so the result is the constant
    1 - q; depolarizing gives (1-q)^2 at quadrature. Array-like q or delta
    give an array whose every element is the float call at that point;
    numpy scalars and 0-d arrays give a float.
    """
    if isinstance(q, (int, float)) and isinstance(delta, (int, float)):
        return _fisher_point(kind, q, delta)
    q, delta = np.broadcast_arrays(q, delta)
    pairs = zip(q.ravel().tolist(), delta.ravel().tolist())
    out = [_fisher_point(kind, a, d) for a, d in pairs]
    return np.array(out, dtype=float).reshape(q.shape) if q.ndim else out[0]


def fisher_depolarizing(q, delta):
    """F = (1-q)^2 sin^2(delta) / (1 - (1-q)^2 cos^2(delta)), delta = phi - theta.

    Peaks at delta = pi/2 with value (1-q)^2. Accepts scalars or arrays.
    """
    return fisher_information(ChannelKind.DEPOLARIZING, q, delta)


def fisher_dephasing(q, delta):
    """Dephasing variant of the fringe information, amplitude 1 - 2q.

    The value depends on (1-2q)^2 and is therefore symmetric about q = 1/2,
    where it vanishes for every delta.
    """
    return fisher_information(ChannelKind.DEPHASING, q, delta)


def fisher_erasure(q, delta=0.0):
    """Erasure readout information, the constant 1 - q for every delta.

    The three-outcome sum evaluates to 1 - q independent of the fringe
    offset; at sin(delta) = 0 the summation formula has a removable 0/0
    whose limit is the same constant, so no special-casing is needed.
    """
    return fisher_information(ChannelKind.ERASURE, q, delta)


# Quantum Fisher information


def bloch_density(r) -> np.ndarray:
    """Density matrix (I + r . sigma) / 2 of a Bloch vector r, |r| <= 1."""
    r = np.asarray(r, dtype=float).reshape(3)
    if not np.isfinite(r).all():
        raise ValueError("Bloch vector must be finite")
    if np.linalg.norm(r) > 1.0 + 1e-12:
        raise ValueError("Bloch vector norm exceeds 1")
    # + 0.0 turns a -0.0 component into 0.0, so no entry is a negative zero
    x, y, z = (r + 0.0).tolist()
    return np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]]) / 2


def _bloch(m: np.ndarray) -> np.ndarray:
    """Bloch components (2 Re m01, -2 Im m01, m00 - m11) of a 2x2 Hermitian
    m = (tr m I + r . sigma) / 2."""
    b = m[0, 1]
    return np.array([2.0 * b.real, -2.0 * b.imag, m[0, 0].real - m[1, 1].real])


def qfi_pure_generator(rho0: np.ndarray, generator: np.ndarray) -> float:
    """Quantum Fisher information 4 (2 tr(rho^2) - 1) |<eta_0|H|eta_1>|^2.

    rho0 must be a 2x2 Hermitian matrix of unit trace with eigenvalues in
    [0, 1] and an eigenvalue gap above 1e-10; eta_0, eta_1 are its
    eigenvectors and H the Hermitian phase generator. In Bloch form, with r
    the Bloch vector of rho0 and h half that of H, the gap is |r|, the
    purity term is |r|^2 and the matrix element squared is |h x r/|r||^2,
    so F = 4 |h x r|^2 needs no eigendecomposition. A degenerate input (for
    example the maximally mixed state) raises DegenerateStateError: the
    formula is undefined there.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (2, 2):
        raise ValueError("density matrix must be 2x2")
    if not np.isfinite(rho0).all():
        raise ValueError("density matrix must be finite")
    if np.max(np.abs(rho0 - rho0.conj().T)) > _HERMITIAN_TOL:
        raise ValueError("density matrix is not Hermitian")
    tr = complex(np.trace(rho0))
    if abs(tr - 1.0) > _HERMITIAN_TOL:
        raise ValueError(f"density matrix trace is {tr}, not 1")
    r = _bloch(rho0)
    gap = math.hypot(r[2], 2.0 * abs(rho0[0, 1]))
    lo, hi = (tr.real - gap) / 2.0, (tr.real + gap) / 2.0
    if lo < -_HERMITIAN_TOL or hi > 1.0 + _HERMITIAN_TOL:
        raise ValueError(f"eigenvalues ({lo}, {hi}) outside [0, 1]")
    generator = np.asarray(generator, dtype=complex)
    if generator.shape != (2, 2):
        raise ValueError("generator must be 2x2")
    if not np.isfinite(generator).all():
        raise ValueError("generator must be finite")
    if np.max(np.abs(generator - generator.conj().T)) > _HERMITIAN_TOL:
        raise ValueError("generator is not Hermitian")
    # tested as the eigenvalues' difference, which can round away from |r|
    # in the last digit, so the threshold falls where it always has
    if hi - lo <= _DEGENERACY_GAP:
        raise DegenerateStateError(
            f"QFI formula undefined at degenerate input (gap {hi - lo})"
        )
    return 4.0 * float(np.sum(np.cross(_bloch(generator) / 2.0, r) ** 2))


def qfi_depolarized(rho0: np.ndarray, generator: np.ndarray, q: float) -> float:
    """Quantum Fisher information after depolarizing the input at strength q.

    Builds the depolarized state (1-q) rho0 + q I/2 and applies
    qfi_pure_generator to it; the result is (1-q)^2 times the noiseless
    information to near machine precision for every valid input.
    """
    if not 0.0 <= q < 1.0:
        raise ValueError("q must lie in [0, 1)")
    rho_q = (1.0 - q) * np.asarray(rho0, dtype=complex) + q * np.eye(2) / 2.0
    return qfi_pure_generator(rho_q, generator)
