"""Phase estimators: count inversion for one ensemble and conic ellipse
fitting for the differential phase of two ensembles.

The single-ensemble estimator inverts the known fringe model for each noise
channel and reports the Cramer-Rao standard error. The two-ensemble path
fits the parametric plot of excitation fractions (x_a, x_b) with the
ellipse-constrained least-squares conic (constraint 4AC - B^2 = 1, solved as
a generalized eigenproblem on the scatter matrix) and reads the differential
phase off the cross term, cos(phi_d) = -B / (2 sqrt(AC)). Every fit needs
at least six points, the degrees of freedom of a conic, not on a line and
not all on every conic of a pencil. Its 3x3 eigenproblem is solved in
closed form (the roots of a cubic and the cross product of two rows), and a
fit is accepted only where its conic is elliptic by more than the rounding
of that solve can move it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fisher import _channel_fisher
from .states import ChannelKind


class EllipseFitError(ArithmeticError):
    """The point configuration does not determine a proper ellipse."""


@dataclass(frozen=True)
class CountRecord:
    """Terminal counts of one ensemble measurement, with the channel model
    the estimator should invert. q is the known channel strength for the
    depolarizing and dephasing kinds; the erasure kind ignores it and uses
    the observed erased fraction instead. Each count is stored as the
    Python int it equals. A kind that is not a ChannelKind (a name string,
    say) is rejected."""

    n_plus: int
    n_minus: int
    n_erasure: int
    theta: float
    kind: ChannelKind
    q: float | None = None

    def __post_init__(self):
        n_erasure = self.n_erasure
        counts = (self.n_plus, self.n_minus, n_erasure)
        for name, v in zip(("n_plus", "n_minus", "n_erasure"), counts):
            # an int is whole as it stands; any other whole number is stored
            # as the int it equals, whose sums do not wrap as numpy's do
            if type(v) is not int:
                try:
                    whole = v == int(v)
                except (OverflowError, ValueError, TypeError):  # inf, NaN, not a number
                    whole = False
                if not whole:
                    raise ValueError(f"{name} must be a non-negative integer")
                object.__setattr__(self, name, v := int(v))
            if v < 0:
                raise ValueError(f"{name} must be a non-negative integer")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        kind = self.kind
        if kind is not ChannelKind.ERASURE:
            if not isinstance(kind, ChannelKind):
                raise ValueError(f"kind must be a ChannelKind, not {kind!r}")
            if n_erasure > 0:
                raise ValueError("erasure counts recorded for a non-erasure channel")
            q = self.q
            if q is None:
                raise ValueError("q must be given for depolarizing/dephasing counts")
            if not 0.0 <= q <= 1.0:
                raise ValueError("q must lie in [0, 1]")


@dataclass(frozen=True)
class PhaseEstimate:
    """Inverted phase, its Cramer-Rao standard error, and whether the cosine
    argument had to be clamped to [-1, 1] (a finite-sample boundary hit)."""

    phi_hat: float
    stderr: float
    clamped: bool


def mle_phase(counts: CountRecord) -> PhaseEstimate:
    """Maximum-likelihood phase from one ensemble's terminal counts.

    Inverts cos(phi - theta) = (2 p+ - 1) / A with p+ = n+ / (n+ + n-) and
    A the channel's fringe amplitude at strength q. For erasure q is the
    observed erased fraction and A = 1: erased atoms carry no signal and
    are dropped. For depolarizing and dephasing q is the known strength
    counts.q. Counts are the Python ints CountRecord stores, and theta and
    q are read as Python floats (q once, for the inversion and the
    information alike), so no numpy type sets their range or precision.
    Arguments outside [-1, 1] are clamped and flagged. The returned phase
    is the branch theta <= phi_hat <= theta + pi (in [0, pi] for theta =
    0); the standard error is 1 / sqrt(shots * F), F the channel's analytic
    Fisher information there.

    Raises ValueError when the parameter is unidentifiable (depolarizing
    q = 1, dephasing q = 1/2) or when every atom was erased.
    """
    n_plus, n_erasure = counts.n_plus, counts.n_erasure
    n_pm = n_plus + counts.n_minus
    if n_pm < 1:
        raise ValueError("all counts erased: no +/- outcomes to invert")
    shots = n_pm + n_erasure
    kind = counts.kind
    q = n_erasure / shots if kind is ChannelKind.ERASURE else float(counts.q)

    amplitude = kind.amplitude(q)
    if abs(amplitude) < 1e-15:
        raise ValueError(
            "parameter unidentifiable: the fringe contrast vanishes at "
            f"q = {q} for the {kind.value} channel"
        )
    p_plus = n_plus / n_pm
    raw = (2.0 * p_plus - 1.0) / amplitude
    clamped = abs(raw) > 1.0
    if clamped:
        raw = 1.0 if raw > 0.0 else -1.0
    delta_hat = math.acos(raw)
    phi_hat = float(counts.theta) + delta_hat

    info = _channel_fisher(kind.survival(q), amplitude, delta_hat)
    stderr = 1.0 / math.sqrt(shots * info) if info > 0.0 else math.inf
    return PhaseEstimate(phi_hat=phi_hat, stderr=stderr, clamped=clamped)


@dataclass(frozen=True, eq=False)
class EllipseFitResult:
    """Fitted conic and the quantities derived from it.

    coefficients holds (A, B, C, D, E, F) of Ax^2 + Bxy + Cy^2 + Dx + Ey + F
    = 0, normalized to unit Euclidean norm with A > 0. phi_d is the
    differential phase magnitude in [0, pi]; contrast_a and contrast_b are
    the peak-to-peak fringe amplitudes of the two axes; rms_residual is the
    root-mean-square of the conic at the points over its scale lam
    (_centre_and_scale), a residual in the axes scaled by the fitted
    amplitudes: 0 on the ellipse and the same at any offset and scale.
    """

    coefficients: np.ndarray
    phi_d: float
    contrast_a: float
    contrast_b: float
    center: tuple[float, float]
    rms_residual: float
    n_points: int

    def to_dict(self) -> dict:
        a, b, c, d, e, f = (float(v) for v in self.coefficients)
        return {
            "coefficients": {"A": a, "B": b, "C": c, "D": d, "E": e, "F": f},
            "phi_d": float(self.phi_d),
            "contrast_a": float(self.contrast_a),
            "contrast_b": float(self.contrast_b),
            "center": [float(self.center[0]), float(self.center[1])],
            "rms_residual": float(self.rms_residual),
            "n_points": int(self.n_points),
        }


# A conic has six coefficients, so a fit needs at least this many points.
_CONIC_DOF = 6

# Fits are solved this many at a time: the stacked design rows of one chunk
# stay a few MB however many windows or deletions a call has, 512 x 100 x 6
# x 8 B = 2.4 MB at window 100.
_CHUNK = 512

# A fit whose reduced scatter matrix has a middle eigenvalue per point (to a
# factor of 3) at most this is rejected: a whole pencil of conics passes
# through its points, as through four distinct points or four on a line plus
# one, and the solve would return whichever one rounding picks. It is flat:
# real shapes read the same at any number of points, and with the BLAS
# scatter product built pencils read at most ~2e-13 up to 2x10^6 points.
_PENCIL = 1e-9

# Points whose x-y correlation r has 1 - r^2 at or below this lie on a line
# to working precision. Every conic through them fits, so the solve would
# return whichever one rounding picks; such a fit is rejected instead. The
# pencil rule and the margin do not see this: on a line the linear block of
# the scatter matrix is singular to working precision, so the reduced matrix
# is formed by cancellation and holds rounding, which can pass both. Without
# this rule 7 of 8000 exact lines at scales 1e-6 to 1e6 with offsets up to
# 1e6, and jackknife deletions that leave four distinct points on a line,
# were fitted as thin ellipses.
_COLLINEAR = 1e-12

# A fit's reduced problem m a = lam K a, with K the ellipse constraint
# 4AC - B^2 = a^T K a on the quadratic part a = (A, B, C), is solved in
# closed form (_pencil_eig). m rounds at the scale of the trace of the
# quadratic block s1 it was reduced from, so to first order rounding moves
# the unit vector of the largest root by eps over g, the gap from that root
# to the next in units of that trace (Golub & Van Loan, Matrix Computations,
# 7.2). A conic is accepted only where its unit-norm discriminant 4AC - B^2
# exceeds _MARGIN such moves, so that rounding cannot have tipped its sign.
# Read as disc g / eps, line pairs of lattice fractions reach ~20 at 6 to 39
# pairs and ~190 at 10^5, as their rounding grows with the sums; shot-noise
# windows of 20 or more atoms read at least ~4e6 and noiseless arcs of
# 0.1 rad at least ~1e5. Noiseless ellipses within ~2e-3 of phi 0 or pi read
# below it, and are rejected where rounding costs their phase ~1e-3 of itself.
_MARGIN = 1000.0

# The indices of a symmetric 3x3 matrix's six distinct entries, in the order
# _adjugate takes and returns them.
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))

# Why a fit is rejected, by the status code _fit_conics gives it.
_REJECTED = {
    1: "no ellipse: degenerate point configuration (collinear or repeated, or a pencil)",
    3: "no ellipse: fitted conic is degenerate or not elliptical",
    4: "no ellipse: fitted conic has no real points",
}


def _centred_rows(pts: np.ndarray):
    """Conic design rows (x^2, xy, y^2, x, y, 1) of points (..., n, 2) in
    their fit frame, shape (..., n, 6), and the frame (e1, m, e2), shaped
    (..., 1, 1), (..., 1, 2), (..., 1, 1): the points are scaled by 2^-e1 to
    below 1 in magnitude, centred on their mean m there and scaled by 2^-e2
    to below 1 again. Powers of two scale exactly, so a fit sees the same
    numbers, up to the centring's rounding, wherever its points sit and
    whatever their units."""
    e1 = np.frexp(np.abs(pts).max(axis=(-2, -1), keepdims=True))[1]
    scaled = np.ldexp(pts, -e1)
    m = scaled.mean(axis=-2, keepdims=True)
    scaled -= m
    e2 = np.frexp(np.abs(scaled).max(axis=(-2, -1), keepdims=True))[1]
    x, y = np.moveaxis(np.ldexp(scaled, -e2), -1, 0)
    return np.stack([x * x, x * y, y * y, x, y, np.ones_like(x)], axis=-1), (e1, m, e2)


def _scatter(rows: np.ndarray) -> np.ndarray:
    """Scatter matrices D^T D of stacked design rows, shape (..., 6, 6)."""
    return np.swapaxes(rows, -1, -2) @ rows


def _centre_and_scale(coeffs: np.ndarray):
    """Centre (cx, cy) of each conic and its scale lam.

    For x = cx + alpha cos t, y = cy + beta cos(t + phi_d) the conic scale
    lam satisfies A = lam / alpha^2, C = lam / beta^2, and the centred
    constant equals -lam sin^2(phi_d); lam <= 0 means no real points.
    """
    a, b, c, d, e, f = np.moveaxis(coeffs, -1, 0)
    det = 4.0 * a * c - b * b
    cx = (b * e - 2.0 * c * d) / det
    cy = (b * d - 2.0 * a * e) / det
    value_at_center = a * cx * cx + b * cx * cy + c * cy * cy + d * cx + e * cy + f
    return cx, cy, -value_at_center * 4.0 * a * c / det


def _acos(x: np.ndarray) -> np.ndarray:
    """arccos of each element by math.acos: numpy's float64 arccos follows
    its SIMD dispatch, so its last bit depends on the CPU. NaN stays NaN."""
    return np.fromiter(map(math.acos, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _phase(coeffs: np.ndarray) -> np.ndarray:
    """Differential phase in [0, pi] from cos(phi_d) = -B / (2 sqrt(AC))."""
    a, b, c = coeffs[..., 0], coeffs[..., 1], coeffs[..., 2]
    return _acos(np.clip(-b / (2.0 * np.sqrt(a * c)), -1.0, 1.0))


def _adjugate(x00, x01, x02, x11, x12, x22):
    """The six distinct entries (00, 01, 02, 11, 12, 22) of the adjugate of
    the symmetric 3x3 matrices with these entries: row i of the adjugate is
    the cross product of rows i + 1 and i + 2 (mod 3)."""
    return (
        x11 * x22 - x12 * x12, x12 * x02 - x01 * x22, x01 * x12 - x02 * x11,
        x00 * x22 - x02 * x02, x01 * x02 - x00 * x12, x00 * x11 - x01 * x01,
    )


def _pencil_eig(m, xx, yy, xy, scale):
    """Closed-form elliptic eigenvectors of the reduced problems m a = lam K a.

    m is (k, 3, 3), symmetric; xx, yy and xy are the second moments of each
    fit's points, and scale the trace of the scatter block that m was
    reduced from, the scale at which m rounds. With m positive semidefinite
    the largest root is the one whose vector is elliptic (4AC - B^2 > 0), so
    it is the only one solved for. Each problem is solved in its points'
    principal axes: the rotation of the conic onto them keeps 4AC - B^2, so
    it is a matrix Q with Q^T K Q = K, and m' = Q^T m Q has the same roots
    with vectors a = Q a'. There the monomials of a thin ellipse are not near
    collinear, nor is m' near rank one, where cross products lose their
    accuracy. The roots are those of det(m' - lam K), the cubic of K^-1 m':
    with s its mean root and y = lam - s, y^3 + p y + q = 0, solved in the
    trigonometric form y = 2 rho cos(theta - 2 pi j / 3), rho = sqrt(-p / 3),
    descending in j. The vector of the largest root is the longest cross
    product of two rows of m' - lam K (Kopp, "Efficient numerical
    diagonalization of hermitian 3x3 matrices", 2008). p and q round at the
    scale of m's entries, so a root far below them, as of a near-noiseless
    fit, is taken on to the Rayleigh quotient a^T m' a / a^T K a of its
    vector, accurate at the scale of the root, and its vector found again.

    Returns the vectors, shape (k, 3), and the gap g = (y0 - y1) / scale
    from the largest root to the next, NaN where p > 0 and two roots are
    complex. The cosine of 3 theta is clipped to [-1, 1]: a circle's two
    lower roots are equal, and rounding past 1 there must not cost its
    largest root, while past -1 the two upper roots meet and g reads 0.
    Cubes are written as products and angles found by square
    roots, math.acos and np.cos, whose float64 bits were checked unchanged
    with NPY_DISABLE_CPU_FEATURES set to "X86_V3 X86_V4 AVX512_ICL
    AVX512_SPR" (10^6 inputs, numpy 2.4.6), so no bit follows numpy's SIMD
    dispatch; the byte-contract test
    test_outputs_do_not_follow_numpy_simd_dispatch guards this.
    """
    # cosine and sine of the principal-axis angle, from its double angle
    r = np.sqrt((xx - yy) * (xx - yy) + 4.0 * xy * xy)
    c2 = np.where(r > 0.0, (xx - yy) / r, 1.0)
    cos, sin = np.sqrt((1.0 + c2) / 2.0), np.copysign(np.sqrt((1.0 - c2) / 2.0), xy)
    cc, cs, ss = cos * cos, cos * sin, sin * sin
    rot = np.stack([cc, -cs, ss, 2.0 * cs, cc - ss, -2.0 * cs, ss, cs, cc], axis=1)
    rot = rot.reshape(-1, 3, 3)
    m = np.swapaxes(rot, 1, 2) @ m @ rot
    m00, m01, m02, m11, m12, m22 = (m[:, i, j] for i, j in _UPPER)
    # K^-1 m - s I is [[d, m12/2, m22/2], [-m01, -2d, -m12], [m00/2, m01/2, d]]
    s = (m02 - m11) / 3.0
    d = m02 / 6.0 + m11 / 3.0
    p = m01 * m12 - 3.0 * d * d - m00 * m22 / 4.0
    q = 2.0 * d * d * d - d * (m01 * m12 + m00 * m22 / 2.0)
    q += (m00 * m12 * m12 + m22 * m01 * m01) / 4.0
    rho = np.sqrt(-p / 3.0)
    theta = _acos(np.clip(-q / (2.0 * rho * rho * rho), -1.0, 1.0)) / 3.0
    y0 = 2.0 * rho * np.cos(theta)
    gap = (y0 - 2.0 * rho * np.cos(theta - 2.0 * math.pi / 3.0)) / scale
    a0, a1, a2 = _null_vectors(m00, m01, m02, m11, m12, m22, s + y0)
    lam = m00 * a0 * a0 + m11 * a1 * a1 + m22 * a2 * a2
    lam += 2.0 * (m01 * a0 * a1 + m02 * a0 * a2 + m12 * a1 * a2)
    lam /= 4.0 * a0 * a2 - a1 * a1
    vector = np.stack(_null_vectors(m00, m01, m02, m11, m12, m22, lam), axis=-1)
    return (rot @ vector[:, :, None])[:, :, 0], gap


def _null_vectors(m00, m01, m02, m11, m12, m22, lam):
    """Components (x, y, z) of the longest cross product of two rows of
    m - lam K, each shaped as lam, for the symmetric m with these entries.
    The cross products of its rows are the rows of its adjugate, which at a
    simple root is c v v^T, v the null vector: the longest row is the one
    with the largest diagonal entry in magnitude."""
    a00, a01, a02, a11, a12, a22 = _adjugate(m00, m01, m02 - 2.0 * lam, m11 + lam, m12, m22)
    d0, d1, d2 = np.abs(a00), np.abs(a11), np.abs(a22)
    row0 = (d0 >= d1) & (d0 >= d2)
    row1 = ~row0 & (d1 >= d2)
    return (
        np.where(row0, a00, np.where(row1, a01, a02)),
        np.where(row0, a01, np.where(row1, a11, a12)),
        np.where(row0, a02, np.where(row1, a12, a22)),
    )


def _fit_conics(scatter: np.ndarray):
    """Ellipse-constrained least-squares conics from stacked scatter matrices.

    scatter is (k, 6, 6): each fit's D^T D, with D the design rows of its
    points in the frame _centred_rows gives them. Returns the conic of each
    fit in that same frame, shape (k, 6), unit norm with A > 0, and a status
    per fit: 0 where the fit is accepted, else its key in _REJECTED, with
    that row of coefficients NaN. One rejected fit never fails the others.

    Each fit is the stabilized partitioned solve of the 4AC - B^2 = 1
    generalized eigenproblem (Halir & Flusser): the linear part is
    eliminated through the 3x3 block solve, leaving a 3x3 reduced
    eigenproblem, and both are solved in closed form, the block by its
    adjugate and the eigenproblem by _pencil_eig. Each fit is judged once,
    by the first of these rules it fails:
    1. its points are collinear (_COLLINEAR), read off the scatter matrix;
    2. its points lie on every conic of a pencil (_PENCIL), read off the
       reduced matrix (both status 1);
    3. its unit-norm discriminant 4AC - B^2 does not exceed _MARGIN eps / g,
       g the gap of _pencil_eig, so that rounding could have tipped it to
       either sign, as at a line pair, a degenerate conic from nearly
       collinear points, or a vector or gap that is not finite (status 3);
    4. its conic has no real points (status 4).
    The vector has arbitrary sign while the phase readout is sign-sensitive,
    so it is canonicalized to A >= 0. The frame fixes the points' spread, so
    these tests do not depend on where the points sit or on their units.
    """
    status = np.zeros(scatter.shape[0], dtype=int)
    n = scatter[:, 5, 5]
    s1, s2, s3 = scatter[:, :3, :3], scatter[:, :3, 3:], scatter[:, 3:, 3:]
    with np.errstate(all="ignore"):
        # second moments about the points' own mean, whatever the centring
        cov = s3[:, :2, :2] - s3[:, :2, 2:] * s3[:, 2:, :2] / s3[:, 2:, 2:]
        xx, yy, xy = cov[:, 0, 0], cov[:, 1, 1], cov[:, 0, 1]
        status[xx * yy - xy * xy <= _COLLINEAR * xx * yy] = 1
        # t = -s3^-1 s2^T, through the adjugate of the symmetric s3
        adj = _adjugate(*(s3[:, i, j] for i, j in _UPPER))
        det = s3[:, 0, 0] * adj[0] + s3[:, 0, 1] * adj[1] + s3[:, 0, 2] * adj[2]
        # the six distinct entries laid out as the full symmetric matrix
        adj = np.stack(adj, axis=1)[:, [0, 1, 2, 1, 3, 4, 2, 4, 5]].reshape(-1, 3, 3)
        t = -(adj @ np.swapaxes(s2, 1, 2)) / det[:, None, None]
        m = s1 + s2 @ t
        # the pencil rule (_PENCIL): u is m with x and y in units of their
        # spread, and e2 sums its principal 2x2 minors, so e2 / tr is within
        # a factor of 3 of its middle eigenvalue. A non-finite m fails this
        # test too.
        w = n[:, None] / np.stack([xx, np.sqrt(xx * yy), yy], axis=1)
        u = m * w[:, :, None] * w[:, None, :]
        tr = np.trace(u, axis1=1, axis2=2)
        e2 = (tr * tr - np.einsum("kij,kji->k", u, u)) / 2.0
        status[(status == 0) & ~((tr > 0.0) & (e2 > _PENCIL * n * tr))] = 1

        a1, gap = _pencil_eig(m, xx, yy, xy, np.trace(s1, axis1=1, axis2=2))
        coeffs = np.concatenate([a1, (t @ a1[:, :, None])[:, :, 0]], axis=1)
        coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
        coeffs = np.where(coeffs[:, :1] < 0.0, -coeffs, coeffs)
        a, b, c = coeffs[:, 0], coeffs[:, 1], coeffs[:, 2]
        # with unit norm and A >= 0, this also rejects A <= 0 or C <= 0. It
        # rejects a non-finite vector or gap too: a non-finite coefficient
        # leaves A, B and C NaN or 0 after the norm, and the gap, never
        # negative, lets nothing pass where it is NaN (a complex pair of
        # roots) or 0; a gap of +inf needs an infinite m, which the pencil
        # rule has rejected
        elliptic = 4.0 * a * c - b * b > _MARGIN * np.finfo(float).eps / gap
        status[(status == 0) & ~elliptic] = 3
        status[(status == 0) & (_centre_and_scale(coeffs)[2] <= 0.0)] = 4
    coeffs[status != 0] = np.nan
    return coeffs, status


def _fit_phases(count: int, scatter_of) -> np.ndarray:
    """Phases of `count` fits, NaN where a fit is rejected, solved _CHUNK at
    a time; scatter_of(lo, hi) returns the scatter matrices of fits lo to
    hi - 1."""
    phases = np.empty(count)
    for lo in range(0, count, _CHUNK):
        hi = min(lo + _CHUNK, count)
        coeffs, _ = _fit_conics(scatter_of(lo, hi))
        phases[lo:hi] = _phase(coeffs)
    return phases


def _fit_one(points):
    """Checked fit of (n, 2) pairs in their frame: design rows, scatter
    matrix, conic and frame (_centred_rows); EllipseFitError on rejection."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array of pairs")
    n = pts.shape[0]
    if n < _CONIC_DOF:
        raise ValueError(f"need at least {_CONIC_DOF} points, got {n}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite values")

    rows, frame = _centred_rows(pts)
    scatter = _scatter(rows)
    fits, status = _fit_conics(scatter[None])
    if status[0]:
        raise EllipseFitError(_REJECTED[int(status[0])])
    return rows, scatter, fits[0], frame


def ellipse_fit(points) -> EllipseFitResult:
    """Fit an ellipse to (x_a, x_b) pairs and extract the differential phase.

    Needs at least 6 points, the degrees of freedom of a conic, not all on
    one line and not all on every conic of a pencil (four distinct points,
    or four on a line plus one, fix no single conic). The conic is solved
    and judged in the points' frame (_centred_rows), where phi_d, from
    cos(phi_d) = -B / (2 sqrt(AC)), and rms_residual are read: phi_d is a
    magnitude in [0, pi], as one ellipse cannot tell +phi_d from -phi_d.
    Only the coefficients, center and contrasts carry units and are mapped
    back. It is the one-fit case of the stacked solver behind
    phase_series_from_cycles and the jackknife, so all three reject alike.

    Raises ValueError for too few or non-finite points, or ones whose conic
    has no float coefficients in their units (squared magnitudes outside the
    normal range); EllipseFitError when no proper ellipse is determined.
    """
    rows, _, conic, (e1, m, e2) = _fit_one(points)
    e1, (xm, ym), s = e1.item(), m[0], math.ldexp(1.0, e2.item())
    # in the points' own units a coefficient of degree k carries 2^(-k e1),
    # so their conic spans a factor of 2^(2 |e1|)
    if math.ldexp(1.0, -2 * abs(e1)) < np.finfo(float).tiny:
        raise ValueError("the fitted conic in the points' units lies outside the float range")
    cx, cy, lam = _centre_and_scale(conic)
    # the frame conic unscaled by 2^e2 and moved to m, then unscaled by 2^e1
    a, b, c, d, e, f = conic * [1.0, 1.0, 1.0, s, s, s * s]
    coeffs = np.ldexp(
        [a, b, c, d - 2.0 * a * xm - b * ym, e - b * xm - 2.0 * c * ym,
         f + a * xm * xm + b * xm * ym + c * ym * ym - d * xm - e * ym],
        -e1 * np.array([2, 2, 2, 1, 1, 0]),
    )
    coeffs /= math.hypot(*coeffs)
    return EllipseFitResult(
        coefficients=coeffs,
        phi_d=float(_phase(conic)),
        contrast_a=math.ldexp(2.0 * s * math.sqrt(lam / a), e1),
        contrast_b=math.ldexp(2.0 * s * math.sqrt(lam / c), e1),
        center=(math.ldexp(xm + s * cx, e1), math.ldexp(ym + s * cy, e1)),
        rms_residual=float(np.sqrt(np.mean((rows @ conic) ** 2)) / lam),
        n_points=len(rows),
    )


def ellipse_phase_jackknife(points) -> tuple[float, float]:
    """Full-sample phase and its delete-one jackknife standard error.

    The phase is ellipse_fit's phi_d, read off the same fit at any finite
    scale; stderr = sqrt((n-1)/n * sum (phi_i - mean)^2) over the phases
    phi_i of the fits without point i, each solved on the full scatter
    matrix in its frame downdated by that point's row, S - d_i d_i^T, equal
    to refitting the subset to rounding. Rejected deletions are dropped.
    """
    pts = np.asarray(points, dtype=float)
    # counted before the fit, so that too few points is a usage error
    # whatever their configuration
    if pts.ndim == 2 and len(pts) < _CONIC_DOF + 1:
        raise ValueError(f"jackknife needs at least {_CONIC_DOF + 1} points, got {len(pts)}")
    rows, total, conic, _ = _fit_one(pts)
    n = len(rows)
    loo = _fit_phases(n, lambda lo, hi: total - rows[lo:hi, :, None] * rows[lo:hi, None, :])
    good = loo[np.isfinite(loo)]
    m = good.size
    if m < 2:
        raise EllipseFitError("jackknife failed: too few successful refits")
    stderr = math.sqrt((m - 1) / m * float(np.sum((good - good.mean()) ** 2)))
    return float(_phase(conic)), stderr


def phase_series_from_cycles(cycles, window: int) -> np.ndarray:
    """Differential-phase time series from consecutive non-overlapping windows.

    Each window of `window` pairs produces one ellipse phase, fitted in that
    window's own frame, so it equals the window's ellipse_fit phase; windows
    whose fit is rejected are recorded as NaN gaps.
    Each chunk of windows gets its scatter matrices from one BLAS product
    and its fits solved as one stack. Trailing cycles that do not fill a
    window are ignored. Requires window >= 6, the degrees of freedom of a
    conic, and at least two full windows of data.
    """
    pts = np.asarray(cycles, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("cycles must be an (n, 2) array of pairs")
    if window < _CONIC_DOF:
        raise ValueError(
            f"window must be at least {_CONIC_DOF} (conic degrees of freedom), "
            f"got {window}"
        )
    if pts.shape[0] < 2 * window:
        raise ValueError(
            f"need at least 2 windows = {2 * window} cycles, got {pts.shape[0]}"
        )
    n_windows = pts.shape[0] // window
    windows = pts[: n_windows * window].reshape(n_windows, window, 2)
    if not np.all(np.isfinite(windows)):
        raise ValueError("cycles contain non-finite values")

    return _fit_phases(n_windows, lambda lo, hi: _scatter(_centred_rows(windows[lo:hi])[0]))


def load_pairs_csv(path) -> np.ndarray:
    """Read a CSV of (x_a, x_b) excitation pairs.

    The header must be exactly `x_a,x_b`; every row must hold two floats,
    which are read back exactly when written with full round-trip precision.
    Raises ValueError on any malformation, naming the offending row.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected header 'x_a,x_b'") from None
        if [h.strip() for h in header] != ["x_a", "x_b"]:
            raise ValueError(f"{path}: expected header 'x_a,x_b', got {header}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{lineno}: expected two columns, got {len(row)}")
            try:
                rows.append((float(row[0]), float(row[1])))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric value {row}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows, dtype=float)
