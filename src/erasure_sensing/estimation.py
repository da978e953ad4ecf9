"""Phase estimators: count inversion for one ensemble and conic ellipse
fitting for the differential phase of two ensembles.

The single-ensemble estimator inverts the known fringe model for each noise
channel and reports the Cramer-Rao standard error. The two-ensemble path
fits the parametric plot of excitation fractions (x_a, x_b) with the
ellipse-constrained least-squares conic (constraint 4AC - B^2 = 1, solved as
a generalized eigenproblem on the scatter matrix) and reads the differential
phase off the cross term, cos(phi_d) = -B / (2 sqrt(AC)). Every fit needs
at least six points, the degrees of freedom of a conic, not on a line and
not all on every conic of a pencil.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fisher import fisher_information
from .states import ChannelKind


class EllipseFitError(ArithmeticError):
    """The point configuration does not determine a proper ellipse."""


@dataclass(frozen=True)
class CountRecord:
    """Terminal counts of one ensemble measurement, with the channel model
    the estimator should invert. q is the known channel strength for the
    depolarizing and dephasing kinds; the erasure kind ignores it and uses
    the observed erased fraction instead."""

    n_plus: int
    n_minus: int
    n_erasure: int
    theta: float
    kind: ChannelKind
    q: float | None = None

    def __post_init__(self):
        for name in ("n_plus", "n_minus", "n_erasure"):
            v = getattr(self, name)
            try:
                whole = v == int(v)
            except (OverflowError, ValueError, TypeError):  # inf, NaN, not a number
                whole = False
            if not whole or v < 0:
                raise ValueError(f"{name} must be a non-negative integer")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if self.kind is not ChannelKind.ERASURE and self.n_erasure > 0:
            raise ValueError("erasure counts recorded for a non-erasure channel")
        if self.kind is not ChannelKind.ERASURE:
            if self.q is None:
                raise ValueError("q must be given for depolarizing/dephasing counts")
            if not 0.0 <= self.q <= 1.0:
                raise ValueError("q must lie in [0, 1]")

    @property
    def shots(self) -> int:
        return self.n_plus + self.n_minus + self.n_erasure


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
    counts.q. Arguments outside [-1, 1] are clamped and flagged. The
    returned phase is the branch theta <= phi_hat <= theta + pi (so it lies
    in [0, pi] for theta = 0); the standard error is 1 / sqrt(shots * F)
    with F the channel's analytic Fisher information at the estimate.

    Raises ValueError when the parameter is unidentifiable (depolarizing
    q = 1, dephasing q = 1/2) or when every atom was erased.
    """
    n_pm = counts.n_plus + counts.n_minus
    if n_pm < 1:
        raise ValueError("all counts erased: no +/- outcomes to invert")
    shots = counts.shots
    kind = counts.kind
    q = counts.n_erasure / shots if kind is ChannelKind.ERASURE else counts.q

    amplitude = kind.amplitude(q)
    if abs(amplitude) < 1e-15:
        raise ValueError(
            "parameter unidentifiable: the fringe contrast vanishes at "
            f"q = {q} for the {kind.value} channel"
        )
    p_plus = counts.n_plus / n_pm
    raw = (2.0 * p_plus - 1.0) / amplitude
    clamped = abs(raw) > 1.0
    delta_hat = math.acos(min(1.0, max(-1.0, raw)))
    phi_hat = counts.theta + delta_hat

    info = fisher_information(kind, q, delta_hat)
    stderr = 1.0 / math.sqrt(shots * info) if info > 0.0 else math.inf
    return PhaseEstimate(phi_hat=phi_hat, stderr=stderr, clamped=clamped)


@dataclass(frozen=True, eq=False)
class EllipseFitResult:
    """Fitted conic and the quantities derived from it.

    coefficients holds (A, B, C, D, E, F) of Ax^2 + Bxy + Cy^2 + Dx + Ey + F
    = 0, normalized to unit Euclidean norm with A > 0. phi_d is the
    differential phase magnitude in [0, pi]; contrast_a and contrast_b are
    the peak-to-peak fringe amplitudes of the two axes; rms_residual is the
    root-mean-square algebraic residual of the normalized conic.
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

# Fits are solved this many at a time: the stacked design rows and scatter
# matrices of one chunk stay a few MB however many windows or deletions a
# call has.
_CHUNK = 256

# A fit whose reduced scatter matrix has a middle eigenvalue per point (to a
# factor of 3) at most this is rejected: a whole pencil of conics passes
# through its points, as through four distinct points or four on a line plus
# one, and the solve would return whichever one rounding picks. Rounding in
# the scatter sums lifts a built pencil's statistic in proportion to its
# number of points (up to ~1e-10 at 10^6), while real shapes read the same
# at any number, so above _PENCIL_POINTS points the threshold grows with it.
_PENCIL = 1e-9
_PENCIL_POINTS = 5e5

# Points whose x-y correlation r has 1 - r^2 at or below this lie on a line
# to working precision. Every conic through them fits, so the solve would
# return whichever one rounding picks; such a fit is rejected instead.
_COLLINEAR = 1e-12

# Why a fit is rejected, by the status code _fit_conics gives it.
_REJECTED = {
    1: "no ellipse: degenerate point configuration (collinear or repeated, or a pencil)",
    2: "no ellipse: fit produced no elliptical solution",
    3: "no ellipse: fitted conic is degenerate or not elliptical",
    4: "no ellipse: fitted conic has no real points",
}


def _design(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Conic design rows (x^2, xy, y^2, x, y, 1), shape (..., n, 6)."""
    return np.stack([x * x, x * y, y * y, x, y, np.ones_like(x)], axis=-1)


def _centred_rows(pts: np.ndarray):
    """Design rows of points (..., n, 2) in coordinates centred on their
    mean, and that mean (..., 2)."""
    centre = pts.mean(axis=-2)
    centred = pts - centre[..., None, :]
    return _design(centred[..., 0], centred[..., 1]), centre


def _scatter(rows: np.ndarray) -> np.ndarray:
    """Scatter matrices D^T D of stacked design rows, shape (..., 6, 6)."""
    return np.einsum("...ni,...nj->...ij", rows, rows)


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


def _phase(coeffs: np.ndarray) -> np.ndarray:
    """Differential phase in [0, pi] from cos(phi_d) = -B / (2 sqrt(AC))."""
    a, b, c = coeffs[..., 0], coeffs[..., 1], coeffs[..., 2]
    return np.arccos(np.clip(-b / (2.0 * np.sqrt(a * c)), -1.0, 1.0))


def _fit_conics(scatter: np.ndarray, centre: np.ndarray):
    """Ellipse-constrained least-squares conics from stacked scatter matrices.

    scatter is (k, 6, 6): each fit's D^T D, with D the design rows of its
    points in coordinates centred on centre ((k, 2), or (2,) shared by all).
    Returns the conic of each fit in the original frame, shape (k, 6), unit
    norm with A > 0, and a status per fit: 0 where the fit is accepted, else
    its key in _REJECTED, with that row of coefficients NaN. One rejected fit
    never fails the others.

    Fits whose points are collinear, or lie on every conic of a pencil, are
    rejected first, both read off the scatter matrix alone. Every other fit
    is the stabilized partitioned solve of the 4AC - B^2 = 1 generalized
    eigenproblem (Halir & Flusser): the linear part is eliminated through
    the 3x3 block solve, leaving a 3x3 reduced eigenproblem. The eigenvector
    of an elliptical eigenpair has arbitrary sign while the phase readout is
    sign-sensitive, so it is canonicalized to A > 0; when rounding lets more
    than one eigenpair satisfy the ellipse inequality, the candidate with
    the smallest algebraic residual a^T S a is kept. After translating back,
    a conic whose unit-norm discriminant is within 1e-10 of zero (a
    degenerate conic from nearly collinear points that rounding tipped into
    ellipse form) or that has no real points is rejected.
    """
    k = scatter.shape[0]
    rows = np.arange(k)
    status = np.zeros(k, dtype=int)
    n = scatter[:, 5, 5]
    s1, s2, s3 = scatter[:, :3, :3], scatter[:, :3, 3:], scatter[:, 3:, 3:]
    with np.errstate(all="ignore"):
        # second moments about the points' own mean, whatever the centring
        cov = s3[:, :2, :2] - s3[:, :2, 2:] * s3[:, 2:, :2] / s3[:, 2:, 2:]
        xx, yy, xy = cov[:, 0, 0], cov[:, 1, 1], cov[:, 0, 1]
        status[xx * yy - xy * xy <= _COLLINEAR * xx * yy] = 1
        # their linear block is singular, and one singular matrix would fail
        # the whole stacked solve: solve a placeholder in their place
        s3 = np.where(status[:, None, None] == 1, np.eye(3), s3)
        t = -np.linalg.solve(s3, np.swapaxes(s2, 1, 2))
        m = s1 + s2 @ t
        # u is the reduced scatter m with x and y in units of their spread;
        # e2 sums its principal 2x2 minors, so e2 / tr is within a factor of 3
        # of its middle eigenvalue. A non-finite m fails this test too.
        w = n[:, None] / np.stack([xx, np.sqrt(xx * yy), yy], axis=1)
        u = m * w[:, :, None] * w[:, None, :]
        tr = np.trace(u, axis1=1, axis2=2)
        e2 = (tr * tr - np.einsum("kij,kji->k", u, u)) / 2.0
        pencil = _PENCIL * np.maximum(1.0, n / _PENCIL_POINTS)
        status[~((tr > 0.0) & (e2 > pencil * n * tr))] = 1
        m[status == 1] = np.eye(3)
        reduced = np.stack([m[:, 2] / 2.0, -m[:, 1], m[:, 0] / 2.0], axis=1)
        eigvals, eigvecs = np.linalg.eig(reduced)

        # candidate j of fit i is a6[i, j]: the eigenvector and its linear part
        a1 = np.swapaxes(np.real(eigvecs), 1, 2)
        a6 = np.concatenate([a1, a1 @ np.swapaxes(t, 1, 2)], axis=-1)
        a6 /= np.linalg.norm(a6, axis=-1, keepdims=True)
        a6 = np.where(a6[..., :1] < 0.0, -a6, a6)
        cost = np.einsum("kjl,kjl->kj", a6 @ scatter, a6)
        real = np.abs(np.imag(eigvals)) <= 1e-8 * np.maximum(1.0, np.abs(np.real(eigvals)))
        elliptic = 4.0 * a1[..., 0] * a1[..., 2] - a1[..., 1] ** 2 > 0.0
        cost = np.where(real & elliptic & (cost < np.inf), cost, np.inf)
        best = np.argmin(cost, axis=1)
        coeffs = a6[rows, best]
        none = ~(cost[rows, best] < np.inf) | ~np.isfinite(coeffs).all(axis=1)
        status[(status == 0) & none] = 2

        # translate the conic back to the original frame
        xm, ym = centre[..., 0], centre[..., 1]
        a, b, c, d, e, f = coeffs.T
        coeffs = np.stack(
            [
                a,
                b,
                c,
                d - 2.0 * a * xm - b * ym,
                e - b * xm - 2.0 * c * ym,
                f + a * xm**2 + b * xm * ym + c * ym**2 - d * xm - e * ym,
            ],
            axis=1,
        )
        coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
        coeffs = np.where(coeffs[:, :1] < 0.0, -coeffs, coeffs)
        a, b, c = coeffs[:, 0], coeffs[:, 1], coeffs[:, 2]
        # the coefficients are unit-norm here, so the discriminant check is
        # scale-free
        not_ellipse = (b * b - 4.0 * a * c >= -1e-10) | (a <= 0.0) | (c <= 0.0)
        status[(status == 0) & not_ellipse] = 3
        status[(status == 0) & (_centre_and_scale(coeffs)[2] <= 0.0)] = 4
    coeffs[status != 0] = np.nan
    return coeffs, status


def _fit_phases(count: int, scatter_of) -> np.ndarray:
    """Phases of `count` fits, NaN where a fit is rejected, solved _CHUNK at
    a time; scatter_of(lo, hi) returns the scatter matrices and centres of
    fits lo to hi - 1."""
    phases = np.empty(count)
    for lo in range(0, count, _CHUNK):
        hi = min(lo + _CHUNK, count)
        coeffs, _ = _fit_conics(*scatter_of(lo, hi))
        phases[lo:hi] = _phase(coeffs)
    return phases


def ellipse_fit(points) -> EllipseFitResult:
    """Fit an ellipse to (x_a, x_b) pairs and extract the differential phase.

    Needs at least 6 points, the degrees of freedom of a conic, not all on
    one line and not all on every conic of a pencil (four distinct points,
    or four on a line plus one, fix no single conic). The fit is performed
    on mean-centered coordinates for conditioning and the coefficients are
    translated back afterwards.
    The phase comes from cos(phi_d) = -B / (2 sqrt(AC)) and is a magnitude
    in [0, pi]: a single ellipse cannot distinguish +phi_d from -phi_d.
    This is the one-fit case of the stacked solver behind
    phase_series_from_cycles and ellipse_phase_jackknife, so all three
    reject exactly the same configurations.

    Raises ValueError for too few points and EllipseFitError when the
    configuration does not determine a proper ellipse.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array of pairs")
    n = pts.shape[0]
    if n < _CONIC_DOF:
        raise ValueError(f"need at least {_CONIC_DOF} points, got {n}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite values")

    rows, centre = _centred_rows(pts)
    fits, status = _fit_conics(_scatter(rows)[None], centre)
    if status[0]:
        raise EllipseFitError(_REJECTED[int(status[0])])
    coeffs = fits[0]
    a, c = coeffs[0], coeffs[2]
    cx, cy, lam = _centre_and_scale(coeffs)
    rms = float(np.sqrt(np.mean((_design(pts[:, 0], pts[:, 1]) @ coeffs) ** 2)))
    return EllipseFitResult(
        coefficients=coeffs,
        phi_d=float(_phase(coeffs)),
        contrast_a=2.0 * math.sqrt(lam / a),
        contrast_b=2.0 * math.sqrt(lam / c),
        center=(float(cx), float(cy)),
        rms_residual=rms,
        n_points=n,
    )


def ellipse_phase_jackknife(points) -> tuple[float, float]:
    """Full-sample phase and its delete-one jackknife standard error.

    stderr = sqrt((n-1)/n * sum (phi_i - mean)^2) over the phases phi_i of
    the fits with point i left out. The points are centred once on the
    full-sample mean, and each deletion's scatter matrix is the full one
    downdated by that point's design row, S - d_i d_i^T, so no refit
    rebuilds a scatter matrix. Because the phase does not depend on
    translation, this agrees with refitting each subset centred on its own
    mean to rounding, not bit for bit. Each deletion is judged on its own
    downdated scatter matrix, and those whose fit is rejected are dropped
    from the resampling sum.
    """
    pts = np.asarray(points, dtype=float)
    full = ellipse_fit(pts).phi_d
    n = pts.shape[0]
    if n < _CONIC_DOF + 1:
        raise ValueError(f"jackknife needs at least {_CONIC_DOF + 1} points, got {n}")
    rows, centre = _centred_rows(pts)
    total = _scatter(rows)
    loo = _fit_phases(
        n, lambda lo, hi: (total - rows[lo:hi, :, None] * rows[lo:hi, None, :], centre)
    )
    good = loo[np.isfinite(loo)]
    m = good.size
    if m < 2:
        raise EllipseFitError("jackknife failed: too few successful refits")
    stderr = math.sqrt((m - 1) / m * float(np.sum((good - good.mean()) ** 2)))
    return full, stderr


def phase_series_from_cycles(cycles, window: int) -> np.ndarray:
    """Differential-phase time series from consecutive non-overlapping windows.

    Each window of `window` pairs produces one ellipse phase, fitted on
    coordinates centred on that window's own mean, exactly as ellipse_fit
    would fit it; windows whose fit is rejected are recorded as NaN gaps.
    Every window's scatter matrix comes from one einsum and the fits are
    solved as one stack, a chunk of windows at a time. Trailing cycles that
    do not fill a window are ignored. Requires window >= 6, the degrees of
    freedom of a conic, and at least two full windows of data.
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

    def scatter_of(lo, hi):
        rows, centre = _centred_rows(windows[lo:hi])
        return _scatter(rows), centre

    return _fit_phases(n_windows, scatter_of)


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
