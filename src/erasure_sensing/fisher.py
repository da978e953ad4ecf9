"""Fisher information for the three noisy Ramsey channels.

Closed-form classical Fisher information of any channel, read off the
channel contract on `ChannelKind` as survival times the fringe information
at the channel's amplitude; a central-difference numeric evaluator with
one fixed step (_STEP) that serves as the oracle for the closed forms; and
the single-qubit quantum Fisher information
F = 4 (2 tr(rho^2) - 1) |<eta_0| H |eta_1>|^2, evaluated in Bloch form as
4 |h x r|^2, with its depolarized form (1 - q)^2 F.

Everything here is pure and re-entrant.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .states import (
    ChannelKind,
    OutcomeDistribution,
    accumulate_phase,
    apply_noise,
    measure_probs,
    prepare_plus,
)

# Outcomes with probability below this are treated as (possibly removable)
# zeros of the model rather than regular points.
_PROB_FLOOR = 1e-14
# Eigenvalue gap |r| below which a 2x2 density matrix counts as degenerate.
_DEGENERACY_GAP = 1e-10

_HERMITIAN_TOL = 1e-12
# Central-difference step of the numeric oracle; it balances truncation
# against rounding at double precision.
_STEP = 1e-5
# The fields of an OutcomeDistribution, in outcome order.
_OUTCOMES = ("p_plus", "p_minus", "p_erasure")


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

    The model prepares |+>, accumulates phi, applies the channel at strength
    q, and measures in the |+/- theta> basis with the leak level resolved.
    """

    start = prepare_plus()

    def model(phi: float) -> OutcomeDistribution:
        state = accumulate_phase(start, phi)
        state = apply_noise(state, kind, q)
        return measure_probs(state, theta)

    return model


def classical_fisher_numeric(
    model: Callable[[float], OutcomeDistribution], phi: float
) -> float:
    """Central-difference Fisher information sum_x (d_phi p_x)^2 / p_x.

    An outcome with p below _PROB_FLOOR contributes the quadratic-zero limit
    2 p'' of p'^2 / p: near such a zero p'^2 = 2 p'' p <= 2 p'' _PROB_FLOOR,
    so a slope with p'^2 > 4 max(p'', 0) _PROB_FLOOR (a factor 2 of slack)
    raises SingularFisherError. The differences are taken at phi +/- 1e-5.
    """
    at, above, below = model(phi), model(phi + _STEP), model(phi - _STEP)
    total = 0.0
    for x, name in enumerate(_OUTCOMES):
        p0, pp, pm = getattr(at, name), getattr(above, name), getattr(below, name)
        deriv = (pp - pm) / (2.0 * _STEP)
        second = (pp - 2.0 * p0 + pm) / _STEP**2
        if p0 > _PROB_FLOOR:
            total += deriv**2 / p0
        elif deriv**2 <= 4.0 * max(second, 0.0) * _PROB_FLOOR:
            total += max(2.0 * second, 0.0)
        else:
            raise SingularFisherError(
                f"singular Fisher evaluation: outcome {x} has p = {p0} "
                f"but slope {deriv} at phi = {phi}"
            )
    return total


def _checked_q(q):
    """q as a float when it is a Python int or float (numpy's float64
    included), else as an array; raises ValueError outside [0, 1]. The
    estimators evaluate one point per call, and float arithmetic costs a
    fraction of numpy's."""
    if isinstance(q, (float, int)):
        q = float(q)
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        return q
    q = np.asarray(q, dtype=float)
    if not ((q >= 0.0) & (q <= 1.0)).all():
        raise ValueError("q must lie in [0, 1]")
    return q


def _fringe_fisher(amplitude, delta):
    """Fisher information of a two-outcome fringe p = (1 +/- A cos d)/2.

    F = A^2 sin^2 d / (1 - A^2 cos^2 d), with the removable 0/0 at |A| = 1,
    cos d = +/-1 evaluated as its limit value 1. Floats in give a float;
    arrays in give an array whose every element equals the float call.
    """
    if isinstance(amplitude, float) and isinstance(delta, (float, int)):
        s2 = math.sin(delta) ** 2
        c2 = math.cos(delta) ** 2
        a2 = amplitude**2
    else:
        # a float's ** 2 is libm's pow, an array's ** 2 a multiply, and the
        # two round apart on ~0.1% of inputs: float_power squares each
        # element with pow, so an element equals the float call bit for bit
        s2, c2, a2 = (np.float_power(v, 2) for v in (np.sin(delta), np.cos(delta), amplitude))
    num = a2 * s2
    # 1 - A^2 cos^2 d rewritten as s^2 + (1-A^2) c^2: every term is
    # non-negative, so the node region |A| -> 1, sin d -> 0 keeps full
    # precision instead of cancelling two near-unit quantities
    den = s2 + (1.0 - amplitude) * (1.0 + amplitude) * c2
    # den vanishes only at that 0/0, where num vanishes too; adding 1 to
    # both there gives the limit value and leaves every other point exact
    node = den == 0.0
    return (num + node) / (den + node)


def fisher_information(kind: ChannelKind, q, delta):
    """Classical Fisher information of a strength-q channel at fringe
    offset delta = phi - theta, with erasure detection on.

    The surviving fraction kind.survival(q) of the atoms reads a fringe of
    amplitude kind.amplitude(q). For erasure that fringe has amplitude 1,
    whose information is 1 at every delta, so the result is the constant
    1 - q; depolarizing gives (1-q)^2 at quadrature. Accepts scalars or
    arrays.
    """
    q = _checked_q(q)
    out = kind.survival(q) * _fringe_fisher(kind.amplitude(q), delta)
    if isinstance(out, np.ndarray) and out.ndim:
        return out
    return float(out)


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

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def bloch_density(r) -> np.ndarray:
    """Density matrix (I + r . sigma) / 2 of a Bloch vector r, |r| <= 1."""
    r = np.asarray(r, dtype=float).reshape(3)
    if np.linalg.norm(r) > 1.0 + 1e-12:
        raise ValueError("Bloch vector norm exceeds 1")
    eye = np.eye(2, dtype=complex)
    return (eye + r[0] * PAULI_X + r[1] * PAULI_Y + r[2] * PAULI_Z) / 2.0


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
    if np.max(np.abs(generator - generator.conj().T)) > _HERMITIAN_TOL:
        raise ValueError("generator is not Hermitian")
    # tested as the eigenvalues' difference, which can round away from |r|
    # in the last digit, so the threshold falls where it always has
    if hi - lo <= _DEGENERACY_GAP:
        raise DegenerateStateError(
            f"QFI formula undefined at degenerate input (gap {hi - lo})"
        )
    return 4.0 * float(np.sum(np.cross(_bloch(generator) / 2.0, r) ** 2))


def qfi_depolarized(
    rho0: np.ndarray,
    generator: np.ndarray,
    q: float,
    method: str = "scaled",
) -> float:
    """Quantum Fisher information after depolarizing the input at strength q.

    method="scaled" uses the factorization F((1-q) rho + q I/2) =
    (1-q)^2 F(rho). method="direct" builds the depolarized state and
    applies the base formula to it, providing an independent cross-check;
    the two agree to near machine precision for every valid input.
    """
    if not 0.0 <= q < 1.0:
        raise ValueError("q must lie in [0, 1)")
    if method == "scaled":
        return (1.0 - q) ** 2 * qfi_pure_generator(rho0, generator)
    if method == "direct":
        rho_q = (1.0 - q) * np.asarray(rho0, dtype=complex) + q * np.eye(2) / 2.0
        return qfi_pure_generator(rho_q, generator)
    raise ValueError("method must be 'scaled' or 'direct'")
