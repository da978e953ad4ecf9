"""Slow reference implementations that the fast paths are checked against.

These are the straightforward loops the library used before its stacked
solvers, its cycle columns, its cycles.csv writer and its closed-form
interrogation optimum: one full ellipse refit per fit window and per
jackknife deletion, one deviation recomputed from the kept m-differences
per deleted Allan block, one record object per simulated cycle, one repr
per number written, and a golden-section search for the optimal
interrogation time; the scaling exponent's line fitted by np.polyfit on
numpy logs, which the library fits in closed form on math logs; plus a
two-pass overlapping ADEV that reads no prefix sum, the paper's
eigenvector form of the qubit quantum Fisher information, which the
library evaluates in Bloch form; the array-form closed-form information
and count inversion, which the library evaluates in floats; and the
validation of outcome distributions and count records as it was written
before it read each field once. They are kept here, independent of the
library code, only as test oracles.
"""

import math
from dataclasses import dataclass

import numpy as np

from erasure_sensing.clock import LaserPhaseModel
from erasure_sensing.estimation import EllipseFitError, PhaseEstimate
from erasure_sensing.states import ChannelKind

# The library's tolerance, restated.
_SUM_TOL = 1e-12
# The cycles whose survivors one block stream draws, restated: part of the
# stream.
_BLOCK = 4096


def solve_conic(x, y):
    """Ellipse-constrained least-squares conic on centred coordinates: the
    unit-norm coefficient 6-vector with A > 0, or EllipseFitError."""
    d1 = np.column_stack([x * x, x * y, y * y])
    d2 = np.column_stack([x, y, np.ones_like(x)])
    s1 = d1.T @ d1
    s2 = d1.T @ d2
    s3 = d2.T @ d2
    try:
        t = -np.linalg.solve(s3, s2.T)
    except np.linalg.LinAlgError:
        raise EllipseFitError("no ellipse: degenerate point configuration") from None
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


def ellipse_phase(points):
    """Phase of one ellipse fit centred on the points' own mean; raises
    EllipseFitError or LinAlgError where the fit is rejected."""
    pts = np.asarray(points, dtype=float)
    x_mean = float(pts[:, 0].mean())
    y_mean = float(pts[:, 1].mean())
    a, b, c, d, e, f = solve_conic(pts[:, 0] - x_mean, pts[:, 1] - y_mean)

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

    if b * b - 4.0 * a * c >= -1e-10 or a <= 0.0 or c <= 0.0:
        raise EllipseFitError("no ellipse: fitted conic is degenerate or not elliptical")
    phi_d = math.acos(min(1.0, max(-1.0, -b / (2.0 * math.sqrt(a * c)))))

    cx, cy = np.linalg.solve(
        np.array([[2.0 * a, b], [b, 2.0 * c]]), np.array([-d0, -e0])
    )
    value_at_center = a * cx * cx + b * cx * cy + c * cy * cy + d0 * cx + e0 * cy + f0
    lam = -value_at_center * 4.0 * a * c / (4.0 * a * c - b * b)
    if lam <= 0.0:
        raise EllipseFitError("no ellipse: fitted conic has no real points")
    return phi_d


def ellipse_phase_or_nan(points):
    try:
        return ellipse_phase(points)
    except (EllipseFitError, np.linalg.LinAlgError):
        return math.nan


def phase_series(cycles, window):
    """One refit per consecutive window; a rejected window is NaN."""
    pts = np.asarray(cycles, dtype=float)
    n_windows = pts.shape[0] // window
    return np.array(
        [ellipse_phase_or_nan(pts[k * window : (k + 1) * window]) for k in range(n_windows)]
    )


def jackknife(points):
    """Full-sample phase and delete-one jackknife standard error, one refit
    per deletion; rejected refits are dropped from the sum."""
    pts = np.asarray(points, dtype=float)
    full = ellipse_phase(pts)
    loo = np.array(
        [ellipse_phase_or_nan(np.delete(pts, i, axis=0)) for i in range(pts.shape[0])]
    )
    good = loo[np.isfinite(loo)]
    m = good.size
    if m < 2:
        raise EllipseFitError("jackknife failed: too few successful refits")
    return full, math.sqrt((m - 1) / m * float(np.sum((good - good.mean()) ** 2)))


def overlapping_adev(y, m):
    """Overlapping ADEV through one prefix sum of the series, read scaled
    below 1 in magnitude by a power of two and centred on its first sample,
    as the library reads it."""
    exponent = math.frexp(float(np.max(np.abs(y))))[1]
    z = np.ldexp(y, -exponent)
    cs = np.concatenate([[0.0], np.cumsum(z - z[0])])
    means = (cs[m:] - cs[:-m]) / m
    d = means[m:] - means[:-m]
    return math.ldexp(math.sqrt(0.5 * float(np.mean(d * d))), exponent)


def rms(v):
    """Root mean square, taken relative to the largest magnitude so that
    squaring neither overflows nor underflows."""
    peak = float(np.max(np.abs(v)))
    return peak * math.sqrt(float(np.mean((v / peak) ** 2))) if peak > 0.0 else 0.0


def m_differences(y, m):
    """Differences of adjacent overlapping m-sample means in two passes and
    no prefix sum: the series' mean is subtracted first, then each m-sample
    mean is summed from the centred samples directly."""
    means = np.lib.stride_tricks.sliding_window_view(y - np.mean(y), m).mean(axis=1)
    return means[m:] - means[:-m]


def overlapping_adev_direct(y, m):
    """Overlapping ADEV from the two-pass m-differences."""
    return rms(m_differences(y, m)) / math.sqrt(2.0)


def allan(series, adev=overlapping_adev):
    """(averaging factors, sigmas, block-jackknife errors). Each error
    recomputes the deviation from the two-pass m-differences left after
    deleting one block of 4m of them (of half of them, where two such
    blocks do not fit); differences past the last whole block are never
    deleted."""
    y = np.asarray(series, dtype=float).ravel()
    y = y[np.isfinite(y)]
    n = y.size
    factors, sigmas, errors = [], [], []
    m = 1
    while n - m >= 2 * m + 1:
        factors.append(m)
        sigmas.append(adev(y, m))
        d = m_differences(y, m)
        size = min(4 * m, d.size // 2)
        blocks = d.size // size
        deleted = np.array(
            [rms(np.delete(d, slice(b * size, (b + 1) * size))) for b in range(blocks)]
        ) / math.sqrt(2.0)
        errors.append(math.sqrt(blocks - 1) * rms(deleted - deleted.mean()))
        m *= 2
    return np.array(factors), np.array(sigmas), np.array(errors)


@dataclass(frozen=True)
class CycleResult:
    """One comparison cycle: laser phase, excitation fractions, survivors."""

    index: int
    theta: float
    x_a: float
    x_b: float
    n_a: int
    n_b: int
    valid: bool


def block_survivors(cfg, survival, b, size):
    """(n_a, n_b) for each of the `size` cycles of block b, drawn one
    scalar at a time from the block's own Philox stream keyed by (seed, b,
    1), in cycle order and ensemble a before b; N0 where no atom is lost."""
    if survival >= 1.0:
        return [(cfg.n0, cfg.n0)] * size
    ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(b, 1))
    rng = np.random.Generator(np.random.Philox(ss))
    return [tuple(int(rng.binomial(cfg.n0, survival)) for _ in range(2)) for _ in range(size)]


def simulate_cycle(cfg, amplitude, survivors, i):
    """One cycle from its own Philox stream keyed by (seed, i), drawing
    theta, then ensemble a's excitations, then ensemble b's, over the
    survivors its block drew."""
    ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(i,))
    rng = np.random.Generator(np.random.Philox(ss))
    if cfg.laser_phase_model is LaserPhaseModel.UNIFORM_RANDOM_PER_CYCLE:
        theta = rng.uniform(0.0, 2.0 * math.pi)
    else:
        theta = 2.0 * math.pi * i / cfg.cycles

    xs = [0.0, 0.0]
    valid = True
    for side, (phi_off, contrast) in enumerate(((0.0, cfg.c_a), (cfg.phi_d, cfg.c_b))):
        n = survivors[side]
        p = 0.5 * (1.0 + contrast * amplitude * math.cos(theta + phi_off))
        p = min(1.0, max(0.0, p))
        if not cfg.shot_noise:
            xs[side] = p
            continue
        if n == 0:
            valid = False
            xs[side] = math.nan
            continue
        xs[side] = int(rng.binomial(n, p)) / n

    return CycleResult(
        index=i, theta=theta, x_a=xs[0], x_b=xs[1], n_a=survivors[0], n_b=survivors[1],
        valid=valid,
    )


def run_comparison(cfg):
    """One CycleResult per cycle, in index order."""
    q = cfg.noise.strength(cfg.t_c)
    kind = cfg.noise.kind
    amplitude, survival = kind.amplitude(q), kind.survival(q)
    results = []
    for b, lo in enumerate(range(0, cfg.cycles, _BLOCK)):
        hi = min(lo + _BLOCK, cfg.cycles)
        survivors = block_survivors(cfg, survival, b, hi - lo)
        results += [simulate_cycle(cfg, amplitude, survivors[i - lo], i) for i in range(lo, hi)]
    return results


def write_cycles_csv(path, cycles):
    """cycles.csv as the CLI writes it, one row per valid cycle, each float
    formatted on its own as repr(float(v))."""
    keep = cycles.valid.nonzero()[0]
    columns = [keep, cycles.theta[keep], *cycles.x[keep].T, *cycles.n[keep].T]
    with open(path, "w", newline="") as fh:
        fh.write("cycle,theta,x_a,x_b,n_a,n_b\n")
        for i, theta, x_a, x_b, n_a, n_b in zip(*(c.tolist() for c in columns)):
            fh.write(f"{i},{float(theta)!r},{float(x_a)!r},{float(x_b)!r},{n_a},{n_b}\n")


def golden_section_min(fn, lo, hi, tol):
    """Golden-section minimum of a unimodal function, plus one parabolic
    polish step.

    The bracket is narrowed to `tol`, but near a smooth minimum the
    function is flat to within rounding over a width of order sqrt(eps),
    so the bracket alone cannot locate the argmin better than ~1e-8. A
    single parabola fitted through three points spaced well outside that
    plateau recovers the argmin to ~1e-9.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x0 = 0.5 * (a + b)

    h = 1e-5 * max(1.0, abs(x0))
    f0, fp, fm = fn(x0), fn(x0 + h), fn(x0 - h)
    denom = fp - 2.0 * f0 + fm
    if denom > 0.0:
        shift = 0.5 * h * (fm - fp) / denom
        if abs(shift) <= 2.0 * h:
            x0 = min(max(x0 + shift, lo), hi)
    return x0


def optimize_interrogation(gamma_d, t_d, kind):
    """(T_c*, sigma*) by golden-section search on log T_c over
    [1e-3 / gamma_d, 1e3 / gamma_d], minimizing sqrt(T_c + T_d) / T_c times
    the contract's penalty 1 / (amplitude sqrt(survival)) at
    q = kind.strength(gamma_d T_c). Where the contract's q rounds to 1
    (a decay past ~37) the fringe is 0 and the instability infinite."""

    def sigma(t_c):
        q = kind.strength(gamma_d * t_c)
        fringe = kind.amplitude(q) * math.sqrt(kind.survival(q))
        return math.sqrt(t_c + t_d) / (t_c * fringe) if fringe > 0.0 else math.inf

    u_star = golden_section_min(
        lambda u: sigma(math.exp(u)),
        math.log(1e-3 / gamma_d),
        math.log(1e3 / gamma_d),
        1e-10,
    )
    t_star = math.exp(u_star)
    return t_star, sigma(t_star)


def loglog_fit(qs, sigmas):
    """(slope, stderr, sigma0) of the line log(sigma) = log(sigma0) + slope
    log(1 - q), fitted by np.polyfit (a scaled Vandermonde matrix and
    LAPACK's SVD least squares) on numpy logs, with the slope's OLS error."""
    x, z = np.log1p(-np.asarray(qs, dtype=float)), np.log(np.asarray(sigmas, dtype=float))
    slope, intercept = np.polyfit(x, z, 1)
    resid = z - (slope * x + intercept)
    var_slope = np.sum(resid**2) / (x.size - 2) / np.sum((x - x.mean()) ** 2)
    return float(slope), math.sqrt(var_slope), float(np.exp(intercept))


def fixed_form_intercept(qs, sigmas, exponent):
    """sigma0 = exp(mean(log(sigma) - exponent log(1 - q))) on numpy logs."""
    x = np.log1p(-np.asarray(qs, dtype=float))
    return float(np.exp(np.mean(np.log(np.asarray(sigmas, dtype=float)) - exponent * x)))


def qfi(rho, generator):
    """The paper's qubit quantum Fisher information
    4 (2 tr(rho^2) - 1) |<eta_0|H|eta_1>|^2, with rho's eigenvectors eta_0,
    eta_1 from a general Hermitian eigensolver."""
    rho = np.asarray(rho, dtype=complex)
    _, eta = np.linalg.eigh(rho)
    purity = np.trace(rho @ rho).real
    element = eta[:, 0].conj() @ np.asarray(generator, dtype=complex) @ eta[:, 1]
    return 4.0 * (2.0 * purity - 1.0) * abs(element) ** 2


@dataclass(frozen=True)
class OutcomeDistribution:
    """Three outcome probabilities, each made a float and checked by name,
    any value below zero rejected, and the sum of the stored fields
    checked."""

    p_plus: float
    p_minus: float
    p_erasure: float = 0.0

    def __post_init__(self):
        for name in ("p_plus", "p_minus", "p_erasure"):
            p = float(getattr(self, name))
            if not math.isfinite(p):
                raise ValueError(f"{name} must be finite")
            if p < 0.0:
                raise ValueError(f"{name} = {p} is negative")
            object.__setattr__(self, name, p)
        total = self.p_plus + self.p_minus + self.p_erasure
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"outcome probabilities sum to {total}, not 1")


@dataclass(frozen=True)
class CountRecord:
    """Terminal counts with the channel to invert, each count checked by
    name with v == int(v) and stored as int(v)."""

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
            object.__setattr__(self, name, int(v))
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if self.kind is not ChannelKind.ERASURE and self.n_erasure > 0:
            raise ValueError("erasure counts recorded for a non-erasure channel")
        if self.kind is not ChannelKind.ERASURE:
            if self.q is None:
                raise ValueError("q must be given for depolarizing/dephasing counts")
            if not 0.0 <= self.q <= 1.0:
                raise ValueError("q must lie in [0, 1]")


def fisher_information(kind, q, delta):
    """Closed-form information survival(q) * A^2 sin^2 d / (s^2 + (1-A^2) c^2)
    on numpy scalars, the removable 0/0 at the node read as 1."""
    q = np.asarray(q, dtype=float)
    if not ((q >= 0.0) & (q <= 1.0)).all():
        raise ValueError("q must lie in [0, 1]")
    q = q[()]
    amplitude = kind.amplitude(q)
    s2 = np.sin(delta) ** 2
    c2 = np.cos(delta) ** 2
    num = amplitude**2 * s2
    den = s2 + (1.0 - amplitude) * (1.0 + amplitude) * c2
    node = den == 0.0
    return float(kind.survival(q) * ((num + node) / (den + node)))


def mle_phase(counts):
    """Count inversion cos(phi - theta) = (2 p+ - 1) / A, clamped, with the
    Cramer-Rao error from the closed form above. Counts are read as
    Python ints, whose sums neither wrap nor round, and theta and a given
    q as float(theta) and float(q)."""
    n_plus = int(counts.n_plus)
    n_pm = n_plus + int(counts.n_minus)
    if n_pm < 1:
        raise ValueError("all counts erased: no +/- outcomes to invert")
    shots = n_pm + int(counts.n_erasure)
    kind = counts.kind
    q = int(counts.n_erasure) / shots if kind is ChannelKind.ERASURE else float(counts.q)
    amplitude = kind.amplitude(q)
    if abs(amplitude) < 1e-15:
        raise ValueError(
            "parameter unidentifiable: the fringe contrast vanishes at "
            f"q = {q} for the {kind.value} channel"
        )
    raw = (2.0 * (n_plus / n_pm) - 1.0) / amplitude
    delta_hat = math.acos(min(1.0, max(-1.0, raw)))
    info = fisher_information(kind, q, delta_hat)
    stderr = 1.0 / math.sqrt(shots * info) if info > 0.0 else math.inf
    return PhaseEstimate(
        phi_hat=float(counts.theta) + delta_hat, stderr=stderr, clamped=abs(raw) > 1.0)
