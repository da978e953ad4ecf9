"""End-to-end Monte Carlo of a differential two-ensemble clock comparison.

Two atomic ensembles share one local oscillator. Each cycle draws a common
laser phase, interrogates both ensembles (ensemble b carries an extra
differential phase phi_d), applies the configured noise channel, and records
excitation fractions with projection noise. Ellipse fits over windows of
cycles give a phi_d time series, whose overlapping Allan deviation with
jackknife error bars measures the fractional instability. On top of the
simulator sit the quantum-projection-noise floor, instability-versus-q
scaling curves, and interrogation-time optimization under dead time.

A run is held as columns (CycleRecord), and analyze_comparison is the one
path from a config to its Allan deviation, for `simulate` and for scaling.

Determinism contract: cycle i draws, in a documented order
(run_comparison), from its own counter-based stream
Philox(SeedSequence(entropy=seed, spawn_key=(i,))), so results are
bit-identical for a given config; the threads arguments and flags are
accepted but change nothing. The simulator does not build those sequences:
it derives their Philox keys in vectorized chunks (_cycle_keys) and re-keys
one generator per cycle (_cycle_streams), which yields the same bits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .estimation import phase_series_from_cycles
from .states import ChannelKind, NoiseChannel, TWO_PI


class SimulationDegeneracyError(RuntimeError):
    """The run lost too many cycles to total erasure to be analyzable."""


class LaserPhaseModel(enum.Enum):
    UNIFORM_RANDOM_PER_CYCLE = "UniformRandomPerCycle"
    FIXED_SWEEP = "FixedSweep"


_CONFIG_FIELDS = (
    "phi_d",
    "N0",
    "T_c",
    "T_d",
    "f0",
    "cycles",
    "noise",
    "c_a",
    "c_b",
    "laser_phase_model",
    "seed",
    "shot_noise",
)

_KIND_NAMES = {k.value: k for k in ChannelKind}
_PHASE_MODEL_NAMES = {m.value: m for m in LaserPhaseModel}


def _choice(value, field: str, names: dict):
    """The enum member a config string names; the error names the field."""
    if not isinstance(value, str) or value not in names:
        raise ValueError(
            f"field '{field}' must be one of {sorted(names)}, got {value!r}"
        )
    return names[value]


def _number(value, field: str) -> float:
    """A JSON number (not a boolean) as a float; the error names the field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field '{field}' must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"field '{field}' is too large for a float") from None


@dataclass(frozen=True)
class ComparisonConfig:
    """Full parameter set of one differential comparison run.

    phi_d is the injected differential phase (ensemble b lags a by phi_d);
    n0 atoms are loaded per ensemble each cycle; t_c and t_d are the
    interrogation and dead times; c_a and c_b are the base fringe contrasts
    before noise. With shot_noise False the excitation fractions are the
    exact Born probabilities (the infinite-atom limit used by deterministic
    tests). The JSON form keeps every field explicit; see from_dict.
    """

    phi_d: float
    n0: int
    t_c: float
    t_d: float
    f0: float
    cycles: int
    noise: NoiseChannel
    c_a: float
    c_b: float
    laser_phase_model: LaserPhaseModel
    seed: int
    shot_noise: bool = True

    def __post_init__(self):
        if not isinstance(self.noise, NoiseChannel):
            raise ValueError("noise must be a NoiseChannel")
        if not isinstance(self.laser_phase_model, LaserPhaseModel):
            raise ValueError("laser_phase_model must be a LaserPhaseModel")
        if not 0.0 <= self.phi_d <= math.pi:
            raise ValueError("phi_d must lie in [0, pi]")
        # N0 is bounded like seed: the survivor draw takes a signed 64-bit n
        if int(self.n0) != self.n0 or not 1 <= self.n0 < 2**63:
            raise ValueError("N0 must be an integer in [1, 2^63)")
        if int(self.cycles) != self.cycles or self.cycles < 1:
            raise ValueError("cycles must be an integer >= 1")
        if not 0.0 < self.t_c < math.inf:
            raise ValueError("T_c must be positive and finite")
        if not 0.0 <= self.t_d < math.inf:
            raise ValueError("T_d must be non-negative and finite")
        if not 0.0 < self.f0 < math.inf:
            raise ValueError("f0 must be positive and finite")
        for name in ("c_a", "c_b"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if int(self.seed) != self.seed or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if not isinstance(self.shot_noise, bool):
            raise ValueError("shot_noise must be a boolean")

    @property
    def cycle_time(self) -> float:
        """Wall-clock duration of one cycle, T_c + T_d."""
        return self.t_c + self.t_d

    @classmethod
    def from_dict(cls, data: dict) -> "ComparisonConfig":
        """Build a config from its JSON object form.

        The schema is strict: all fields must be present and no unknown
        fields are allowed, so a config file is always a complete record of
        the run. Error messages name the offending field.
        """
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        missing = [k for k in _CONFIG_FIELDS if k not in data]
        if missing:
            raise ValueError(f"config missing field(s): {', '.join(missing)}")
        unknown = [k for k in data if k not in _CONFIG_FIELDS]
        if unknown:
            raise ValueError(f"config has unknown field(s): {', '.join(sorted(unknown))}")

        noise_obj = data["noise"]
        if not isinstance(noise_obj, dict):
            raise ValueError("field 'noise' must be an object")
        if "kind" not in noise_obj:
            raise ValueError("field 'noise.kind' is missing")
        kind = _choice(noise_obj["kind"], "noise.kind", _KIND_NAMES)
        strength_keys = sorted(set(noise_obj) - {"kind"})
        if strength_keys not in (["q"], ["gamma"]):
            raise ValueError(
                "field 'noise' must hold 'kind' plus exactly one of 'q' or "
                f"'gamma', got keys {sorted(noise_obj)}"
            )
        key = strength_keys[0]
        noise = NoiseChannel(kind, **{key: _number(noise_obj[key], f"noise.{key}")})

        model = _choice(
            data["laser_phase_model"], "laser_phase_model", _PHASE_MODEL_NAMES
        )
        for name in ("N0", "cycles", "seed"):
            if isinstance(data[name], bool) or not isinstance(data[name], int):
                raise ValueError(f"field '{name}' must be an integer")
        num = {
            name: _number(data[name], name)
            for name in ("phi_d", "T_c", "T_d", "f0", "c_a", "c_b")
        }

        return cls(
            phi_d=num["phi_d"],
            n0=data["N0"],
            t_c=num["T_c"],
            t_d=num["T_d"],
            f0=num["f0"],
            cycles=data["cycles"],
            noise=noise,
            c_a=num["c_a"],
            c_b=num["c_b"],
            laser_phase_model=model,
            seed=data["seed"],
            shot_noise=data["shot_noise"],
        )


@dataclass(frozen=True, eq=False)
class CycleRecord:
    """Every cycle of a comparison run as columns, in cycle-index order.

    theta (n,) is the common laser phase; x (n, 2) holds the excitation
    fractions of ensembles a and b, NaN where that ensemble lost every atom;
    n (n, 2) holds the survivors; valid (n,) is False for a cycle with a
    NaN fraction, which has no excitation pair and is excluded downstream.
    """

    theta: np.ndarray
    x: np.ndarray
    n: np.ndarray
    valid: np.ndarray


# numpy's SeedSequence hash constants (O'Neill's seed_seq_fe, pool of 4
# uint32 words), and the cycles whose Philox keys are derived at a time.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_KEY_CHUNK = 4096


def _hashmix(value, const: int, mult: int):
    """One SeedSequence hash of a word (a Python int or a uint32 array),
    returned with the advanced hash constant."""
    nxt = const * mult & _MASK32
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> 16, nxt


def _mix(x, y):
    """SeedSequence's mix of two words. Each product is reduced before the
    subtraction so that a Python int operand stays in uint32 range where
    the other operand is a uint32 array."""
    r =((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def _cycle_keys(seed: int, start: int, stop: int) -> np.ndarray:
    """(stop - start, 2) uint64 Philox keys of cycles start .. stop - 1.

    Row k equals SeedSequence(entropy=seed, spawn_key=(start + k,))
    .generate_state(2, np.uint64), the key Philox takes from that sequence.
    The sequence's entropy is the seed's two 32-bit words zero-padded to
    the pool size, then the index's words (one below 2^32, two above).
    Hashing and cross-mixing the seed's words does not depend on the index,
    so it runs once on Python ints; absorbing the index words and hashing
    the pool out run on uint32 arrays. All of it is integer arithmetic
    modulo 2^32, so the keys are exact.
    """
    seed = int(seed)  # a numpy integer seed would warn as its products wrap
    const = _INIT_A
    pool = []
    for word in (seed & _MASK32, seed >> 32, 0, 0):
        h, const = _hashmix(word, const, _MULT_A)
        pool.append(h)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                h, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], h)

    def absorb(pool, word, const):
        mixed = []
        for p in pool:
            h, const = _hashmix(word, const, _MULT_A)
            mixed.append(_mix(p, h))
        return mixed, const

    index = np.arange(start, stop, dtype=np.uint64)
    pool, const = absorb(pool, (index & _MASK32).astype(np.uint32), const)
    if stop > 1 << 32:
        high = (index >> 32).astype(np.uint32)
        again, _ = absorb(pool, high, const)
        pool = [np.where(high > 0, b, a) for a, b in zip(pool, again)]

    const, words = _INIT_B, []
    for p in pool:
        h, const = _hashmix(p, const, _MULT_B)
        words.append(h)
    # two little-endian word pairs per key, as generate_state assembles them
    return np.stack(words, axis=1).astype("<u4").view("<u8").astype(np.uint64)


def _cycle_streams(seed: int, count: int):
    """Yield (i, rng) for cycles 0 .. count - 1, where rng draws exactly the
    stream of Generator(Philox(SeedSequence(entropy=seed, spawn_key=(i,)))).

    One Philox generator serves every cycle: before each it is reset to the
    state a fresh Philox on that cycle's sequence starts in (counter 0,
    empty buffer, that cycle's key). The keys come from _cycle_keys a chunk
    at a time, so memory stays bounded for any count.
    """
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    # Plain lists, not the arrays bitgen.state returns: the setter reads
    # them element by element, and Python ints are the cheapest to read.
    philox = {"counter": [0, 0, 0, 0], "key": None}
    fresh = {"bit_generator": "Philox", "state": philox, "buffer": [0, 0, 0, 0],
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for lo in range(0, count, _KEY_CHUNK):
        keys = _cycle_keys(seed, lo, min(lo + _KEY_CHUNK, count)).tolist()
        for i, key in enumerate(keys, lo):
            philox["key"] = key
            bitgen.state = fresh
            yield i, rng


def run_comparison(config: ComparisonConfig, threads: int = 1) -> CycleRecord:
    """Simulate every cycle of the comparison into a CycleRecord.

    Cycle i draws from Philox(SeedSequence(entropy=seed, spawn_key=(i,))),
    a stream that is a pure function of (seed, i), in this fixed order, on
    which every output depends: theta ~ U[0, 2 pi) (UniformRandomPerCycle
    only; FixedSweep sets theta = 2 pi i / cycles); then for ensemble a and
    then b, survivors ~ Binomial(N0, survival) if the channel loses atoms,
    and excitations ~ Binomial(survivors, p) with shot noise and
    survivors > 0. Without shot noise a fraction is the Born probability p
    itself. At q = 0 every channel has amplitude and survival 1, so all
    three kinds draw alike and their noiseless runs are equal.

    The streams come from _cycle_streams, one re-keyed generator that is
    bit-identical to building each cycle's generator from its sequence.

    threads is accepted for compatibility and changes nothing: the loop
    holds the GIL, and a thread pool over it measured no faster.
    """
    q = config.noise.strength(config.t_c)
    kind = config.noise.kind
    amplitude, survival = kind.amplitude(q), kind.survival(q)
    random_phase = config.laser_phase_model is LaserPhaseModel.UNIFORM_RANDOM_PER_CYCLE
    sides = ((0, 0.0, config.c_a), (1, config.phi_d, config.c_b))
    count = int(config.cycles)
    theta = np.empty(count)
    x = np.empty((count, 2))
    n = np.empty((count, 2), dtype=np.int64)
    for i, rng in _cycle_streams(config.seed, count):
        # bit-identical to rng.uniform(0.0, TWO_PI), which is 0.0 + TWO_PI * u
        th = TWO_PI * rng.random() if random_phase else TWO_PI * i / count
        theta[i] = th
        for side, phi_off, contrast in sides:
            atoms = int(rng.binomial(config.n0, survival)) if survival < 1.0 else config.n0
            p = 0.5 * (1.0 + contrast * amplitude * math.cos(th + phi_off))
            p = min(1.0, max(0.0, p))
            n[i, side] = atoms
            if not config.shot_noise:
                x[i, side] = p
            elif atoms == 0:
                x[i, side] = math.nan
            else:
                x[i, side] = int(rng.binomial(atoms, p)) / atoms
    return CycleRecord(theta=theta, x=x, n=n, valid=~np.isnan(x).any(axis=1))


def valid_pairs(cycles: CycleRecord) -> np.ndarray:
    """(n, 2) array of excitation pairs from the valid cycles."""
    return cycles.x[cycles.valid]


def comparison_stats(cycles: CycleRecord, n0: int) -> dict:
    """Summary statistics of a run: survivors, measured loss, validity."""
    n_a, n_b = (np.array(cycles.n[:, side], dtype=float) for side in (0, 1))
    mean_n = float((n_a.mean() + n_b.mean()) / 2.0)
    return {
        "cycles": cycles.valid.size,
        "invalid_fraction": np.count_nonzero(~cycles.valid) / cycles.valid.size,
        "mean_n_a": float(n_a.mean()),
        "mean_n_b": float(n_b.mean()),
        "mean_survival_fraction": mean_n / n0,
        "measured_loss_q": 1.0 - mean_n / n0,
    }


# Series samples whose block deletions the Allan jackknife forms at a time.
_JACKKNIFE_SPAN = 1 << 16


@dataclass(frozen=True, eq=False)
class AllanResult:
    """Overlapping Allan deviation on octave-spaced averaging times, with a
    leave-one-block-out jackknife standard error per point."""

    taus: np.ndarray
    sigmas: np.ndarray
    errors: np.ndarray
    averaging_factors: np.ndarray

    def to_dict(self) -> dict:
        return {
            "taus": [float(v) for v in self.taus],
            "sigmas": [float(v) for v in self.sigmas],
            "errors": [float(v) for v in self.errors],
            "averaging_factors": [int(v) for v in self.averaging_factors],
        }


def _block_jackknife(cs: np.ndarray, d: np.ndarray, m: int) -> float:
    """Leave-one-block-out jackknife standard error of the overlapping ADEV
    at averaging factor m, in O(n), from the series' prefix sum cs (cs[0] =
    0) and its differences d of adjacent overlapping m-sample means.

    Deleting block b, y[bm : bm + m], leaves every m-difference that lies
    wholly left or right of it as it was. Each deletion's sum of squared
    differences is therefore the full sum, minus the 3m - 1 differences
    that touch the block, plus the at most 2m - 1 differences of the
    shortened series that straddle its seam. Those come from the full prefix
    sum: the shortened series' prefix sum is cs[i] up to the seam and
    cs[i + m] minus the block's sum after it. Blocks are handled a chunk at
    a time so the temporaries stay small for any series length.
    """
    n = cs.size - 1
    d2 = d * d
    total = float(np.sum(d2))
    kept = n - 3 * m + 1  # differences in a series shortened by m samples
    blocks = n // m
    deleted = np.empty(blocks)
    step = max(1, _JACKKNIFE_SPAN // m)
    for lo in range(0, blocks, step):
        hi = min(lo + step, blocks)
        start = m * np.arange(lo, hi)[:, None]
        j = start + np.arange(1 - 2 * m, m)
        touching = np.where((j >= 0) & (j < d.size), d2[np.clip(j, 0, d.size - 1)], 0.0)

        j = start + np.arange(1 - 2 * m, 0)
        block_sum = cs[start + m] - cs[start]

        def prefix(i):
            return np.where(i <= start, cs[np.clip(i, 0, n)], cs[np.clip(i + m, 0, n)] - block_sum)

        c0, c1, c2 = prefix(j), prefix(j + m), prefix(j + 2 * m)
        seam = (c2 - c1) / m - (c1 - c0) / m
        straddling = np.where((j >= 0) & (j <= n - 3 * m), seam * seam, 0.0)
        sums = total - touching.sum(axis=1) + straddling.sum(axis=1)
        deleted[lo:hi] = np.sqrt(0.5 * np.maximum(sums, 0.0) / kept)
    mean = deleted.mean()
    return math.sqrt((blocks - 1) / blocks * float(np.sum((deleted - mean) ** 2)))


def allan_deviation(series, cycle_time: float) -> AllanResult:
    """Overlapping Allan deviation of a fractional-frequency series.

    Averaging factors run over octaves m = 1, 2, 4, ... as long as the
    series still supports the estimate after one jackknife block of length
    m is removed (n - m >= 2m + 1); longer averaging times are omitted.
    The error bar at each m is the leave-one-block-out jackknife standard
    error with block length m (Riley, NIST SP 1065). Every octave, estimate
    and jackknife alike, reads one prefix sum of the series, and each
    deletion only corrects the differences near its block, so an octave
    costs O(n) and the whole result O(n log n). NaN entries (gap markers
    from failed fit windows) are dropped before analysis.
    """
    if not 0.0 < cycle_time < math.inf:
        raise ValueError("cycle_time must be positive and finite")
    y = np.asarray(series, dtype=float).ravel()
    y = y[np.isfinite(y)]
    n = y.size
    if n < 4:
        raise ValueError(f"series must hold at least 4 finite samples, got {n}")

    cs = np.concatenate([[0.0], np.cumsum(y)])
    taus, sigmas, errors, factors = [], [], [], []
    m = 1
    while n - m >= 2 * m + 1:
        means = (cs[m:] - cs[:-m]) / m
        d = means[m:] - means[:-m]
        sigmas.append(math.sqrt(0.5 * float(np.mean(d * d))))
        errors.append(_block_jackknife(cs, d, m))
        taus.append(m * cycle_time)
        factors.append(m)
        m *= 2

    return AllanResult(
        taus=np.array(taus),
        sigmas=np.array(sigmas),
        errors=np.array(errors),
        averaging_factors=np.array(factors, dtype=int),
    )


def phase_series_to_fractional_frequency(series, t_c: float, f0: float) -> np.ndarray:
    """Convert phase estimates to fractional frequency, y = phi / (2 pi T_c f0)."""
    if not (0.0 < t_c < math.inf and 0.0 < f0 < math.inf):
        raise ValueError("T_c and f0 must be positive and finite")
    return np.asarray(series, dtype=float) / (TWO_PI * t_c * f0)


@dataclass(frozen=True, eq=False)
class ComparisonAnalysis:
    """One simulated run: its cycle columns and their summary statistics,
    the per-window phi_d series and its fractional-frequency Allan deviation."""

    cycles: CycleRecord
    stats: dict
    series: np.ndarray
    allan: AllanResult


def analyze_comparison(config: ComparisonConfig, window: int) -> ComparisonAnalysis:
    """Simulate a comparison and analyze it end to end.

    The valid pairs are fitted window by window of `window` cycles, the
    phi_d series is converted to fractional frequency, and its Allan
    deviation is taken with one window as the sample spacing. Raises
    SimulationDegeneracyError if more than 10% of cycles are invalid.
    """
    cycles = run_comparison(config)
    stats = comparison_stats(cycles, config.n0)
    if stats["invalid_fraction"] > 0.10:
        raise SimulationDegeneracyError(
            f"{stats['invalid_fraction']:.1%} of cycles lost every atom at "
            f"q = {config.noise.strength(config.t_c)} "
            f"({config.noise.kind.value}); the configuration is degenerate"
        )
    series = phase_series_from_cycles(valid_pairs(cycles), window)
    y = phase_series_to_fractional_frequency(series, config.t_c, config.f0)
    allan = allan_deviation(y, cycle_time=window * config.cycle_time)
    return ComparisonAnalysis(cycles=cycles, stats=stats, series=series, allan=allan)


@dataclass(frozen=True)
class ScalingPoint:
    """One point of an instability-versus-error-rate curve."""

    q: float
    sigma: float
    sigma_err: float


def instability_vs_error_rate(
    base: ComparisonConfig,
    q_grid,
    kind: ChannelKind,
    window: int = 100,
    threads: int = 1,
) -> list[ScalingPoint]:
    """Fractional instability at the one-window averaging time versus q.

    For each q the base config is rerun through analyze_comparison (same
    seed, so curves for different q and different channels share their
    random numbers) and the tau-one-window Allan point with its jackknife
    error is reported. The differential sqrt(2) penalty is implicit: both
    ensembles carry independent projection noise. threads is accepted for
    compatibility and changes nothing (see run_comparison).

    Raises ValueError, before any simulation, if a grid entry lies outside
    [0, 0.95] or repeats another, and SimulationDegeneracyError if more
    than 10% of cycles are invalid.
    """
    qs = [float(q) for q in q_grid]
    for q in qs:
        if not 0.0 <= q <= 0.95:
            raise ValueError(f"q_grid entries must lie in [0, 0.95], got {q}")
    if len(set(qs)) != len(qs):
        raise ValueError("q_grid entries must be distinct")
    points = []
    for q in qs:
        cfg = replace(base, noise=NoiseChannel(kind, q=q))
        allan = analyze_comparison(cfg, window).allan
        points.append(ScalingPoint(q=q, sigma=allan.sigmas[0], sigma_err=allan.errors[0]))
    return points


def fit_loglog_exponent(qs, sigmas) -> tuple[float, float, float]:
    """Free log-log regression of sigma against (1 - q).

    Fits log(sigma) = log(sigma0) + b * log(1 - q) by ordinary least
    squares and returns (b, stderr_b, sigma0). The erasure channel should
    give b near -1/2 and depolarizing near -1. Needs at least 3 points at
    two or more distinct q, since the slope is undefined at one q.
    """
    qs = np.asarray(qs, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if qs.size != sigmas.size or qs.size < 3:
        raise ValueError("need at least 3 (q, sigma) points")
    if qs.min() == qs.max():
        raise ValueError("need at least 2 distinct q values")
    x = np.log1p(-qs)
    z = np.log(sigmas)
    slope, intercept = np.polyfit(x, z, 1)
    resid = z - (slope * x + intercept)
    dof = qs.size - 2
    var_slope = float(np.sum(resid**2) / dof / np.sum((x - x.mean()) ** 2))
    return float(slope), math.sqrt(var_slope), float(np.exp(intercept))


def fit_fixed_form_intercept(qs, sigmas, exponent: float) -> float:
    """Best sigma0 for the fixed-shape model sigma = sigma0 * (1-q)^exponent.

    The exponent is pinned (-1/2 for erasure, -1 for depolarizing) and the
    instability at q = 0 is the only free parameter, fitted by least squares
    in log space.
    """
    qs = np.asarray(qs, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    return float(np.exp(np.mean(np.log(sigmas) - exponent * np.log1p(-qs))))


def crb_floor(
    n_atoms: int, t_c: float, tau_total: float, f0: float, differential: bool = False
) -> float:
    """Quantum-projection-noise floor on the fractional instability.

    sigma = (1 / (2 pi f0)) sqrt(1 / (N T_c tau)), times sqrt(2) for a
    differential comparison in which both ensembles fluctuate.
    """
    scales = (n_atoms, t_c, tau_total, f0)
    if n_atoms < 1 or not all(0.0 < x < math.inf for x in scales):
        raise ValueError("all floor arguments must be positive and finite")
    value = math.sqrt(1.0 / (n_atoms * t_c * tau_total)) / (TWO_PI * f0)
    if differential:
        value *= math.sqrt(2.0)
    return value


@dataclass(frozen=True)
class OptimizationResult:
    """Optimal interrogation time and the instability there, in units common
    to every channel, so ratios between channels are meaningful."""

    t_c_star: float
    sigma_star: float


def optimize_interrogation(
    gamma_d: float, t_d: float, kind: ChannelKind
) -> OptimizationResult:
    """Interrogation time minimizing the modeled instability.

    The model is sigma(T_c) proportional to sqrt(T_c + T_d) / (T_c sqrt(F)),
    with F = survival * amplitude^2 at q = kind.strength(gamma_d T_c), which
    is e^{-2 k gamma_d T_c} for every kind (k = 1 for depolarizing and
    dephasing, 1/2 for erasure). In x = gamma_d T_c and d = gamma_d T_d the
    minimum of e^{k x} sqrt(x + d) / x is the positive root of
    2k x^2 + (2kd - 1) x - 2d = 0, taken in the form that does not cancel:
    the standard formula while 2kd <= 1, else the one divided through by d,
    which stays finite as d grows without bound. With no dead time the
    optima are 1/(2 gamma_d) and 1/gamma_d.

    Raises ValueError for a non-positive gamma_d, a negative t_d, or an
    optimum whose T_c or sigma lies outside floating-point range.
    """
    if gamma_d <= 0.0:
        raise ValueError("gamma_d must be positive")
    if t_d < 0.0:
        raise ValueError("t_d must be non-negative")
    q = kind.strength(1.0)  # k read off the contract at gamma T = 1
    k = -0.5 * math.log(kind.survival(q) * kind.amplitude(q) ** 2)
    d = gamma_d * t_d
    if 2.0 * k * d <= 1.0:
        b = 1.0 - 2.0 * k * d
        x = (b + math.sqrt(b * b + 16.0 * k * d)) / (4.0 * k)
    else:
        b = 2.0 * k - 1.0 / d
        x = 4.0 / (math.sqrt(b * b + 16.0 * k / d) + b)
    t_star = x / gamma_d
    sigma_star = math.exp(k * x) * math.sqrt(t_star + t_d) / t_star
    if not (math.isfinite(t_star) and math.isfinite(sigma_star)):
        raise ValueError(
            f"optimum at gamma_d = {gamma_d}, t_d = {t_d} is outside "
            f"floating-point range (T_c* = {t_star}, sigma* = {sigma_star})"
        )
    return OptimizationResult(t_c_star=t_star, sigma_star=sigma_star)


@dataclass(frozen=True)
class GainPoint:
    """Erasure-conversion gain at one dead time: ratio of the re-optimized
    depolarizing instability to the re-optimized erasure instability."""

    t_d: float
    t_c_star_depolarizing: float
    t_c_star_erasure: float
    gain: float


def erasure_conversion_gain(gamma_d: float, t_d: float) -> GainPoint:
    """Optimize both channels at one dead time and form the gain ratio."""
    depol = optimize_interrogation(gamma_d, t_d, ChannelKind.DEPOLARIZING)
    erasure = optimize_interrogation(gamma_d, t_d, ChannelKind.ERASURE)
    return GainPoint(
        t_d=t_d,
        t_c_star_depolarizing=depol.t_c_star,
        t_c_star_erasure=erasure.t_c_star,
        gain=depol.sigma_star / erasure.sigma_star,
    )


def erasure_conversion_gain_curve(gamma_d: float, t_d_grid) -> list[GainPoint]:
    """Gain as a function of dead time; sqrt(2) at T_d = 0, approaching 2
    for T_d much longer than 1/gamma_d, monotone non-decreasing between."""
    return [erasure_conversion_gain(gamma_d, float(t_d)) for t_d in t_d_grid]
