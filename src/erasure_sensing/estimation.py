"""Phase estimators: count inversion for one ensemble and conic ellipse
fitting for the differential phase of two ensembles.

The single-ensemble estimator inverts the known fringe model for each noise
channel and reports the Cramer-Rao standard error. The two-ensemble path
fits the parametric plot of excitation fractions (x_a, x_b) with the
ellipse-constrained least-squares conic (constraint 4AC - B^2 = 1, solved as
a generalized eigenproblem on the scatter matrix) and reads the differential
phase off the cross term, cos(phi_d) = -B / (2 sqrt(AC)).
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
            if v != int(v) or v < 0:
                raise ValueError(f"{name} must be a non-negative integer")
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


def _solve_conic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Ellipse-constrained least-squares conic on centered coordinates.

    Implements the stabilized partitioned solve of the 4AC - B^2 = 1
    generalized eigenproblem. Returns the unit-norm coefficient 6-vector
    with A > 0, or raises EllipseFitError.

    Two robustness details matter here. The eigenvector returned for the
    elliptical eigenpair has arbitrary overall sign, while the phase readout
    -B / (2 sqrt(AC)) is sign-sensitive, so the vector is canonicalized to
    A > 0. And when rounding lets more than one eigenpair satisfy the
    ellipse inequality, the candidate with the smallest algebraic residual
    is kept.
    """
    d1 = np.column_stack([x * x, x * y, y * y])
    d2 = np.column_stack([x, y, np.ones_like(x)])
    s1 = d1.T @ d1
    s2 = d1.T @ d2
    s3 = d2.T @ d2
    try:
        t = -np.linalg.solve(s3, s2.T)
    except np.linalg.LinAlgError:
        raise EllipseFitError(
            "no ellipse: degenerate point configuration (collinear or repeated)"
        ) from None
    m = s1 + s2 @ t
    reduced = np.vstack([m[2] / 2.0, -m[1], m[0] / 2.0])
    eigvals, eigvecs = np.linalg.eig(reduced)

    design = np.hstack([d1, d2])
    best = None
    best_cost = math.inf
    for j in range(3):
        if abs(eigvals[j].imag) > 1e-8 * max(1.0, abs(eigvals[j].real)):
            continue
        a1 = eigvecs[:, j].real
        if 4.0 * a1[0] * a1[2] - a1[1] ** 2 <= 0.0:
            continue
        a6 = np.concatenate([a1, t @ a1])
        a6 /= np.linalg.norm(a6)
        if a6[0] < 0.0:
            a6 = -a6
        cost = float(np.sum((design @ a6) ** 2))
        if cost < best_cost:
            best_cost = cost
            best = a6
    if best is None or not np.all(np.isfinite(best)):
        raise EllipseFitError("no ellipse: fit produced no elliptical solution")
    return best


def ellipse_fit(points, min_points: int = 6) -> EllipseFitResult:
    """Fit an ellipse to (x_a, x_b) pairs and extract the differential phase.

    Needs at least min_points (default 6, the degrees of freedom of a conic)
    non-degenerate points. The fit is performed on mean-centered coordinates
    for conditioning and the coefficients are translated back afterwards.
    The phase comes from cos(phi_d) = -B / (2 sqrt(AC)) and is a magnitude
    in [0, pi]: a single ellipse cannot distinguish +phi_d from -phi_d.

    Raises ValueError for too few points and EllipseFitError when the
    configuration does not determine a proper ellipse.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array of pairs")
    if min_points < 6:
        raise ValueError("min_points must be at least 6 (conic degrees of freedom)")
    n = pts.shape[0]
    if n < min_points:
        raise ValueError(f"need at least {min_points} points, got {n}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite values")

    x_mean = float(pts[:, 0].mean())
    y_mean = float(pts[:, 1].mean())
    xc = pts[:, 0] - x_mean
    yc = pts[:, 1] - y_mean
    a, b, c, d, e, f = _solve_conic(xc, yc)

    # Translate the conic back to the original frame.
    d0 = d - 2.0 * a * x_mean - b * y_mean
    e0 = e - b * x_mean - 2.0 * c * y_mean
    f0 = (
        f
        + a * x_mean**2
        + b * x_mean * y_mean
        + c * y_mean**2
        - d * x_mean
        - e * y_mean
    )
    coeffs = np.array([a, b, c, d0, e0, f0])
    coeffs /= np.linalg.norm(coeffs)
    if coeffs[0] < 0.0:
        coeffs = -coeffs
    a, b, c, d0, e0, f0 = coeffs

    disc = b * b - 4.0 * a * c
    # the coefficient vector is unit-norm here, so the discriminant check is
    # scale-free; near-zero values mean a degenerate conic from (nearly)
    # collinear points that only floating-point noise tipped into ellipse form
    if disc >= -1e-10 or a <= 0.0 or c <= 0.0:
        raise EllipseFitError("no ellipse: fitted conic is degenerate or not elliptical")

    phi_d = math.acos(min(1.0, max(-1.0, -b / (2.0 * math.sqrt(a * c)))))

    cx, cy = np.linalg.solve(
        np.array([[2.0 * a, b], [b, 2.0 * c]]), np.array([-d0, -e0])
    )
    value_at_center = (
        a * cx * cx + b * cx * cy + c * cy * cy + d0 * cx + e0 * cy + f0
    )
    # For x = cx + alpha cos t, y = cy + beta cos(t + phi_d) the conic scale
    # lam satisfies A = lam / alpha^2, C = lam / beta^2, and the centered
    # constant equals -lam sin^2(phi_d).
    lam = -value_at_center * 4.0 * a * c / (4.0 * a * c - b * b)
    if lam <= 0.0:
        raise EllipseFitError("no ellipse: fitted conic has no real points")
    contrast_a = 2.0 * math.sqrt(lam / a)
    contrast_b = 2.0 * math.sqrt(lam / c)

    design = np.column_stack(
        [
            pts[:, 0] ** 2,
            pts[:, 0] * pts[:, 1],
            pts[:, 1] ** 2,
            pts[:, 0],
            pts[:, 1],
            np.ones(n),
        ]
    )
    rms = float(np.sqrt(np.mean((design @ coeffs) ** 2)))

    return EllipseFitResult(
        coefficients=coeffs,
        phi_d=phi_d,
        contrast_a=contrast_a,
        contrast_b=contrast_b,
        center=(float(cx), float(cy)),
        rms_residual=rms,
        n_points=n,
    )


def ellipse_phase_jackknife(points, min_points: int = 6) -> tuple[float, float]:
    """Full-sample phase and its delete-one jackknife standard error.

    Refits the ellipse with each point left out in turn;
    stderr = sqrt((n-1)/n * sum (phi_i - mean)^2). Deletions whose refit
    fails are dropped from the resampling sum.
    """
    pts = np.asarray(points, dtype=float)
    full = ellipse_fit(pts, min_points=min_points).phi_d
    n = pts.shape[0]
    if n < min_points + 1:
        raise ValueError("jackknife needs at least min_points + 1 points")
    loo = np.full(n, np.nan)
    for i in range(n):
        sub = np.delete(pts, i, axis=0)
        try:
            loo[i] = ellipse_fit(sub, min_points=min_points).phi_d
        except (EllipseFitError, np.linalg.LinAlgError):
            pass
    good = loo[np.isfinite(loo)]
    m = good.size
    if m < 2:
        raise EllipseFitError("jackknife failed: too few successful refits")
    stderr = math.sqrt((m - 1) / m * float(np.sum((good - good.mean()) ** 2)))
    return full, stderr


def phase_series_from_cycles(cycles, window: int, min_points: int = 6) -> np.ndarray:
    """Differential-phase time series from consecutive non-overlapping windows.

    Each window of `window` pairs produces one ellipse_fit phase; windows
    whose fit fails are recorded as NaN gaps. Requires window >= min_points
    and at least two full windows of data.
    """
    pts = np.asarray(cycles, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("cycles must be an (n, 2) array of pairs")
    if window < min_points:
        raise ValueError(f"window must be at least min_points = {min_points}")
    if pts.shape[0] < 2 * window:
        raise ValueError(
            f"need at least 2 windows = {2 * window} cycles, got {pts.shape[0]}"
        )
    n_windows = pts.shape[0] // window
    series = np.full(n_windows, np.nan)
    for k in range(n_windows):
        chunk = pts[k * window : (k + 1) * window]
        try:
            series[k] = ellipse_fit(chunk, min_points=min_points).phi_d
        except (EllipseFitError, np.linalg.LinAlgError):
            pass
    return series


def save_pairs_csv(path, pairs) -> None:
    """Write (x_a, x_b) pairs with the canonical header, full precision."""
    pts = np.asarray(pairs, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_a", "x_b"])
        for xa, xb in pts:
            writer.writerow([repr(float(xa)), repr(float(xb))])


def load_pairs_csv(path) -> np.ndarray:
    """Read an (x_a, x_b) CSV written by save_pairs_csv or by hand.

    The header must be exactly `x_a,x_b`; every row must hold two floats.
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
