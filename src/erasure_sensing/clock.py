"""End-to-end Monte Carlo of a differential two-ensemble clock comparison.

Two atomic ensembles share one local oscillator. Each cycle draws a common
laser phase, interrogates both ensembles (ensemble b carries an extra
differential phase phi_d), applies the configured noise channel, and records
excitation fractions with projection noise. Ellipse fits over windows of
cycles give a phi_d time series, whose overlapping Allan deviation, with
error bars from a delete-a-block jackknife over blocks of its squared
differences, measures the fractional instability. On top of the
simulator sit the quantum-projection-noise floor, instability-versus-q
scaling curves, and interrogation-time optimization under dead time.

A run is held as columns (CycleRecord), and analyze_comparison is the one
path from a config to its Allan deviation, for `simulate` and for scaling.

Determinism contract: every draw comes, in a documented order
(run_comparison), from a counter-based stream Philox(SeedSequence(entropy=
seed, spawn_key=key)), so results are bit-identical for a given config.
Cycle i draws its laser phase and excitations from key (i,); a run that
loses atoms draws the survivors of block b, the _BLOCK cycles from
b * _BLOCK on, from key (b, 1), so the block size is part of the stream.
The simulator derives the cycles' Philox keys a block at a time from
numpy's pool for SeedSequence(seed) and one index word per cycle
(_cycle_keys), and re-keys one generator per cycle, which yields the same
bits. A run reads its channel only through (amplitude(q), survival(q)), so
a scaling sweep simulates each distinct pair once. One pass over the cycles
(_simulate) serves several such pairs: per cycle the key is derived, the
generator re-keyed, theta drawn and both cosines taken once, and each
channel resumes from the state the theta draw leaves, so it consumes
exactly the draws its own run does. A sweep runs its pairs in groups whose
columns fit _GROUP_BYTES, at least one pair a group, so its memory is
bounded by the larger of one run and that budget, whatever its pair count.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .estimation import _CONIC_DOF, EllipseFitError, phase_series_from_cycles
from .states import ChannelKind, NoiseChannel, TWO_PI


class SimulationDegeneracyError(RuntimeError):
    """The run lost too many cycles to total erasure to be analyzable."""


class LaserPhaseModel(enum.Enum):
    UNIFORM_RANDOM_PER_CYCLE = "UniformRandomPerCycle"
    FIXED_SWEEP = "FixedSweep"


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


def _integer(value, field: str) -> int:
    """A JSON integer (not a boolean); the error names the field."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field '{field}' must be an integer")
    return value


def _noise(value, field: str) -> NoiseChannel:
    """The noise object: 'kind' plus exactly one of 'q' or 'gamma'."""
    if not isinstance(value, dict):
        raise ValueError(f"field '{field}' must be an object")
    if "kind" not in value:
        raise ValueError(f"field '{field}.kind' is missing")
    kind = _choice(value["kind"], f"{field}.kind", _KIND_NAMES)
    strength_keys = sorted(set(value) - {"kind"})
    if strength_keys not in (["q"], ["gamma"]):
        raise ValueError(
            f"field '{field}' must hold 'kind' plus exactly one of 'q' or "
            f"'gamma', got keys {sorted(value)}"
        )
    key = strength_keys[0]
    return NoiseChannel(kind, **{key: _number(value[key], f"{field}.{key}")})


# The JSON form in order: key -> (ComparisonConfig field, type reader). Range
# rules stay in __post_init__, which replace() and direct construction run.
_SCHEMA = {
    "phi_d": ("phi_d", _number),
    "N0": ("n0", _integer),
    "T_c": ("t_c", _number),
    "T_d": ("t_d", _number),
    "f0": ("f0", _number),
    "cycles": ("cycles", _integer),
    "noise": ("noise", _noise),
    "c_a": ("c_a", _number),
    "c_b": ("c_b", _number),
    "laser_phase_model": ("laser_phase_model", partial(_choice, names=_PHASE_MODEL_NAMES)),
    "seed": ("seed", _integer),
    "shot_noise": ("shot_noise", lambda value, field: value),
}


@dataclass(frozen=True)
class ComparisonConfig:
    """Full parameter set of one differential comparison run.

    phi_d is the injected differential phase (ensemble b lags a by phi_d);
    n0 atoms are loaded per ensemble each cycle; t_c and t_d are the
    interrogation and dead times; c_a and c_b are the base fringe contrasts
    before noise. With shot_noise False the excitation fractions are the
    exact Born probabilities (the infinite-atom limit used by deterministic
    tests). The six real fields are kept as Python floats, whatever number
    type they are given as. The JSON form keeps every field explicit; see
    from_dict.
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
        # one spawn word per cycle index: _cycle_keys stops at 2^32
        if int(self.cycles) != self.cycles or not 1 <= self.cycles <= 2**32:
            raise ValueError("cycles must be an integer in [1, 2^32]")
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
        for name in ("phi_d", "t_c", "t_d", "f0", "c_a", "c_b"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def cycle_time(self) -> float:
        """Wall-clock duration of one cycle, T_c + T_d."""
        return self.t_c + self.t_d

    @classmethod
    def from_dict(cls, data: dict) -> "ComparisonConfig":
        """Build a config from its JSON object form (_SCHEMA).

        The schema is strict: all fields must be present and no unknown
        fields are allowed, so a config file is always a complete record of
        the run. Error messages name the offending field; with several bad
        fields, the first in schema order.
        """
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        missing = [k for k in _SCHEMA if k not in data]
        if missing:
            raise ValueError(f"config missing field(s): {', '.join(missing)}")
        unknown = [k for k in data if k not in _SCHEMA]
        if unknown:
            raise ValueError(f"config has unknown field(s): {', '.join(sorted(unknown))}")
        return cls(**{f: read(data[k], k) for k, (f, read) in _SCHEMA.items()})


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
# uint32 words). _SEEDED is the hash constant after the seed's 16 hashes
# (4 in, 12 mixes).
_MASK32 = 0xFFFFFFFF
_MULT_A = 0x931E8875
_SEEDED = 0x43B0D7E5 * pow(_MULT_A, 16, 1 << 32) & _MASK32
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Cycles whose Philox keys are derived, and survivors drawn, at a time
_BLOCK = 4096


def _hashmix(value, const: int, mult: int):
    """One SeedSequence hash of a uint32 array, returned with the advanced
    hash constant."""
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
    """(stop - start, 2) uint64 Philox keys of cycles start .. stop - 1,
    for stop <= 2^32.

    Row k equals SeedSequence(entropy=seed, spawn_key=(start + k,))
    .generate_state(2, np.uint64), the key Philox takes from that sequence.
    Until it absorbs its spawn word, that sequence's pool is the one numpy
    computes for SeedSequence(seed): the zeros a spawn key makes numpy pad
    the seed's words with hash as the missing words do. Absorbing the index
    word and hashing the pool out run on uint32 arrays modulo 2^32, so the
    keys are exact.
    """
    index = np.arange(start, stop, dtype=np.uint32)
    const, pool = _SEEDED, []
    for word in np.random.SeedSequence(seed).pool.tolist():
        h, const = _hashmix(index, const, _MULT_A)
        pool.append(_mix(word, h))

    const, words = _INIT_B, []
    for p in pool:
        h, const = _hashmix(p, const, _MULT_B)
        words.append(h)
    # two little-endian word pairs per key, as generate_state assembles them
    return np.stack(words, axis=1).astype("<u4").view("<u8").astype(np.uint64)


# Bytes of cycle columns: theta, shared by every channel of one pass, and
# each channel's x and n (two floats and two int64 per cycle) and valid
_THETA_BYTES, _CHANNEL_BYTES = 8, 33
# Column bytes one group of a scaling sweep's channels may hold
_GROUP_BYTES = 32 << 20


def _column_bytes(cycles: int, channels: int) -> int:
    """Bytes of the columns one pass of `channels` channels over `cycles`
    cycles holds."""
    return cycles * (_THETA_BYTES + _CHANNEL_BYTES * channels)


def _simulate(config: ComparisonConfig, channels) -> list[CycleRecord]:
    """One CycleRecord per (amplitude, survival) channel, in the order
    given, from one pass over the cycles of config, whose noise is not read.

    Each record is bit for bit the run of config on that channel
    (run_comparison). A cycle's key is derived, its generator re-keyed, its
    theta drawn and both cosines taken once for every channel. With one
    channel, theta is the first word of the cycle's fresh stream, and the
    binomials go on from there. With several channels that draw, the
    cycle's first Philox block is read whole, and before its binomials each
    channel resets the generator to the state the theta draw leaves (counter
    1, the cycle's key, that block, one word of it used); under FixedSweep,
    which draws no theta, to the cycle's fresh state. So each channel
    consumes exactly the draws it consumes alone. The records share one
    theta column. Raises MemoryError, naming the cycles and the bytes,
    where the columns (_column_bytes) cannot be allocated.
    """
    count, n0, phi_d = int(config.cycles), int(config.n0), config.phi_d
    random_phase = config.laser_phase_model is LaserPhaseModel.UNIFORM_RANDOM_PER_CYCLE
    shot_noise = config.shot_noise
    several = shot_noise and len(channels) > 1
    try:
        theta = np.empty(count)
        columns = [(np.empty((count, 2)), np.full((count, 2), n0, dtype=np.int64))
                   for _ in channels]
    except MemoryError:
        raise MemoryError(
            f"{count} cycles on {len(channels)} channel(s) need "
            f"{_column_bytes(count, len(channels))} bytes of columns"
        ) from None
    # memoryviews store a Python scalar without making a numpy scalar; the
    # fringe is (c * amplitude) * cos, and |(c * amplitude) * cos| <= 1
    # survives rounding: p needs no clamp
    theta_at = memoryview(theta)
    sides = [(memoryview(x.reshape(-1)), memoryview(n.reshape(-1)),
              config.c_a * amplitude, config.c_b * amplitude)
             for (amplitude, _), (x, n) in zip(channels, columns)]
    lossy = [(survival, n) for (_, survival), (_, n) in zip(channels, columns) if survival < 1.0]
    bitgen = np.random.Philox(0)
    binomial, raw = np.random.Generator(bitgen).binomial, bitgen.random_raw
    cos, nan = math.cos, math.nan
    # Plain lists, not the arrays bitgen.state returns: the setter reads
    # them element by element, and Python ints are the cheapest to read.
    fresh = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    # the state each channel's binomials start from
    resume = dict(fresh, state={"counter": [1, 0, 0, 0], "key": None},
                  buffer_pos=1) if random_phase else fresh
    k = 0  # flat index of (cycle i, ensemble a) in x and n
    for b, lo in enumerate(range(0, count, _BLOCK)):
        hi = min(lo + _BLOCK, count)
        for survival, n in lossy:
            block = np.random.Philox(np.random.SeedSequence(entropy=config.seed, spawn_key=(b, 1)))
            n[lo:hi] = np.random.Generator(block).binomial(n0, survival, size=(hi - lo, 2))
        for i, key in enumerate(_cycle_keys(config.seed, lo, hi).tolist(), lo):
            fresh["state"]["key"] = resume["state"]["key"] = key
            bitgen.state = fresh
            # a drawn theta is bit-identical to rng.uniform(0.0, TWO_PI),
            # which is 0.0 + TWO_PI * ((raw >> 11) * 2^-53)
            if not random_phase:
                th = TWO_PI * i / count
            elif several:
                resume["buffer"] = words = raw(4).tolist()
                th = TWO_PI * ((words[0] >> 11) * 2**-53)
            else:
                th = TWO_PI * ((raw() >> 11) * 2**-53)
            theta_at[i] = th
            cos_a, cos_b = cos(th), cos(th + phi_d)
            for x_at, n_at, scale_a, scale_b in sides:
                p_a, p_b = 0.5 * (1.0 + scale_a * cos_a), 0.5 * (1.0 + scale_b * cos_b)
                if not shot_noise:
                    x_at[k], x_at[k + 1] = p_a, p_b
                    continue
                if several:
                    bitgen.state = resume
                atoms = n_at[k]
                x_at[k] = binomial(atoms, p_a) / atoms if atoms else nan
                atoms = n_at[k + 1]
                x_at[k + 1] = binomial(atoms, p_b) / atoms if atoms else nan
            k += 2
    return [CycleRecord(theta=theta, x=x, n=n, valid=~np.isnan(x).any(axis=1))
            for x, n in columns]


def run_comparison(config: ComparisonConfig) -> CycleRecord:
    """Simulate every cycle of the comparison into a CycleRecord.

    Cycle i draws from Philox(SeedSequence(entropy=seed, spawn_key=(i,))),
    a stream that is a pure function of (seed, i), in this fixed order, on
    which every output depends: theta ~ U[0, 2 pi) (UniformRandomPerCycle
    only; FixedSweep sets theta = 2 pi i / cycles); then for ensemble a and
    then b, excitations ~ Binomial(survivors, p) with shot noise and
    survivors > 0. Without shot noise a fraction is the Born probability p
    itself. Survivors are N0 unless the channel loses atoms; then block b
    of _BLOCK cycles draws them ~ Binomial(N0, survival) from its own
    stream, spawn key (b, 1), in cycle order and ensemble a before b, and
    every cycle's own stream stays as it is without loss. The channel
    enters only as (amplitude, survival), so channels with equal pairs give
    equal runs: every kind at q = 0, where the pair is (1, 1), and
    depolarizing at 2q beside dephasing at q.

    This is _simulate on the one channel. One Philox generator serves every
    cycle: before each it is reset to the state a fresh Philox on that
    cycle's sequence starts in (counter 0, empty buffer, that cycle's key),
    which is bit-identical to building each cycle's generator from its
    sequence, and theta is read off the stream's first raw word as
    Generator.random reads it. The keys come from _cycle_keys a block at a
    time. The columns take _column_bytes(cycles, 1), 41 bytes a cycle;
    where they cannot be allocated, MemoryError names the cycles and the
    bytes. A cycle index is one 32-bit spawn word, so cycles is at most
    2^32 and no two-word block key repeats a cycle's key.
    """
    q = config.noise.strength(config.t_c)
    kind = config.noise.kind
    return _simulate(config, [(kind.amplitude(q), kind.survival(q))])[0]


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


# Fewest samples an Allan deviation is taken from.
_ALLAN_MIN = 4


@dataclass(frozen=True, eq=False)
class AllanResult:
    """Overlapping Allan deviation on octave-spaced averaging times, with a
    delete-a-block jackknife standard error per point over blocks of 4m
    squared m-differences, or two halves of them (allan_deviation)."""

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


def _block_jackknife(squares: np.ndarray, m: int) -> float:
    """Delete-a-block jackknife standard error of sqrt(mean(squares) / 2),
    the overlapping ADEV at averaging factor m, from its squared
    m-differences.

    The squares are cut into non-overlapping blocks of 4m, twice the 2m
    samples one difference reads, or into two halves where two such blocks
    do not fit. Squares past the last whole block stay in every deletion.
    The total is summed from the block sums, so that no kept sum rounds
    below zero.
    """
    size = min(4 * m, squares.size // 2)
    blocks = squares.size // size
    sums = squares[:blocks * size].reshape(blocks, size).sum(axis=1)
    total = sums.sum() + squares[blocks * size:].sum()
    deleted = np.sqrt(0.5 * (total - sums) / (squares.size - size))
    return math.sqrt((blocks - 1) / blocks * float(np.sum((deleted - deleted.mean()) ** 2)))


def allan_deviation(series, cycle_time: float) -> AllanResult:
    """Overlapping Allan deviation of a series.

    Averaging factors run over octaves m = 1, 2, 4, ... while
    n - m >= 2m + 1, so that at least m + 2 m-differences remain; longer
    averaging times are omitted. The error bar at each m is a
    delete-a-block jackknife (Kunsch, Ann. Stat. 17, 1989) of the deviation
    over its squared m-differences, in blocks of 4m, or in two halves where
    two such blocks do not fit (_block_jackknife). On white noise of 1200
    or 4096 samples, at the octaves that keep 16 or more blocks, the mean
    error is 0.88-1.01 of the Monte Carlo spread of sigma, and 0.90-0.95
    of the white-FM EDF spread (Riley, NIST SP 1065); at the two-halves
    octaves it under-reads, at 0.56-0.76 of the spread. Only octaves of 16
    or more blocks are calibrated: the 20 windows of a default simulate of
    the example config give m = 1 from 4 blocks, where it reads 0.73.
    The estimate reads one prefix sum of the series and one block sum of
    the squares per octave, so an octave costs O(n) and the whole result
    O(n log n). NaN entries (gap markers from failed fit windows) are
    dropped before analysis. Any offset and any scale of the series keep
    their digits: the sums read it scaled by a power of two and centred on
    one sample. Raises ValueError for an infinite entry, and for a
    deviation, error or averaging time outside the float range.
    """
    if not 0.0 < cycle_time < math.inf:
        raise ValueError("cycle_time must be positive and finite")
    y = np.asarray(series, dtype=float).ravel()
    if np.isinf(y).any():
        raise ValueError("series holds an infinite value")
    y = y[~np.isnan(y)]
    n = y.size
    if n < _ALLAN_MIN:
        raise ValueError(f"series must hold at least {_ALLAN_MIN} finite samples, got {n}")

    # The deviation ignores an offset, and a power-of-two scale is exact:
    # the series is scaled below 1 in magnitude, so that centring it cannot
    # overflow, and centred on its first sample, so that the prefix sums
    # carry its fluctuations rather than its offset. The results are scaled
    # back at the end.
    exponent = math.frexp(float(np.max(np.abs(y))))[1]
    y = np.ldexp(y, -exponent)
    y -= y[0]
    cs = np.concatenate([[0.0], np.cumsum(y)])
    taus, sigmas, errors, factors = [], [], [], []
    m = 1
    while n - m >= 2 * m + 1:
        means = (cs[m:] - cs[:-m]) / m
        d = means[m:] - means[:-m]
        squares = d * d
        sigmas.append(math.sqrt(0.5 * float(np.mean(squares))))
        errors.append(_block_jackknife(squares, m))
        taus.append(m * cycle_time)
        factors.append(m)
        m *= 2

    with np.errstate(over="ignore"):
        sigmas, errors = np.ldexp([sigmas, errors], exponent)
    if not np.isfinite([sigmas, errors, taus]).all():
        raise ValueError("the Allan deviation or an averaging time lies outside the float range")
    return AllanResult(
        taus=np.array(taus),
        sigmas=sigmas,
        errors=errors,
        averaging_factors=np.array(factors, dtype=int),
    )


@dataclass(frozen=True, eq=False)
class ComparisonAnalysis:
    """One simulated run: its cycle columns and their summary statistics,
    the per-window phi_d series (radians) and the fractional-frequency Allan
    deviation of phi_d / (2 pi T_c f0)."""

    cycles: CycleRecord
    stats: dict
    series: np.ndarray
    allan: AllanResult


def _check_window(config: ComparisonConfig, window: int) -> None:
    """ValueError unless a window holds at least as many cycles as a conic
    has degrees of freedom and the run fills as many windows as an Allan
    deviation needs."""
    if window < _CONIC_DOF or config.cycles // window < _ALLAN_MIN:
        raise ValueError(
            f"window {window} over {config.cycles} cycles: a window needs at least "
            f"{_CONIC_DOF} cycles and the run at least {_ALLAN_MIN} full windows"
        )


def analyze_comparison(config: ComparisonConfig, window: int) -> ComparisonAnalysis:
    """Simulate a comparison and analyze it end to end.

    The valid pairs are fitted window by window of `window` cycles, and
    the Allan deviation of the phi_d series is taken with one window as the
    sample spacing; its sigmas and errors are then divided once by
    2 pi T_c f0, to fractional frequency. Raises ValueError before any
    simulation if a window holds fewer cycles than a conic has degrees of
    freedom or the run fills fewer windows than an Allan deviation needs;
    MemoryError where the run's columns cannot be allocated
    (run_comparison); SimulationDegeneracyError if more than 10% of cycles
    are invalid, ValueError if the valid pairs fill too few windows,
    EllipseFitError if more than 10% of the fit windows fail, and
    ValueError if a quotient overflows or a nonzero one falls below the
    normal float range.
    """
    _check_window(config, window)
    return _analyze(config, run_comparison(config), window)


def _analyze(config: ComparisonConfig, cycles: CycleRecord, window: int) -> ComparisonAnalysis:
    """analyze_comparison past the simulation, on the run `cycles` of
    config; config's noise serves only the messages."""
    stats = comparison_stats(cycles, config.n0)
    if stats["invalid_fraction"] > 0.10:
        raise SimulationDegeneracyError(
            f"{stats['invalid_fraction']:.1%} of cycles lost every atom at "
            f"q = {config.noise.strength(config.t_c)} "
            f"({config.noise.kind.value}); the configuration is degenerate"
        )
    pairs = valid_pairs(cycles)
    if len(pairs) // window < _ALLAN_MIN:
        raise ValueError(
            f"window {window} over {len(pairs)} valid pairs: {config.cycles - len(pairs)} of "
            f"{config.cycles} cycles lost every atom of an ensemble, and the run needs at "
            f"least {_ALLAN_MIN} full windows"
        )
    series = phase_series_from_cycles(pairs, window)
    fitted = int(np.count_nonzero(~np.isnan(series)))
    if (series.size - fitted) / series.size > 0.10:
        raise EllipseFitError(f"only {fitted} of {series.size} fit windows gave a phase")
    allan = allan_deviation(series, cycle_time=window * config.cycle_time)
    # T_c f0 can leave the float range where the quotient does not, so the
    # division takes their mantissas and their binary exponents apart; the
    # exponents divide exactly.
    (t_mant, t_exp), (f_mant, f_exp) = math.frexp(config.t_c), math.frexp(config.f0)
    phase = np.array([allan.sigmas, allan.errors])
    with np.errstate(over="ignore"):
        frequency = np.ldexp(phase / (TWO_PI * t_mant * f_mant), -(t_exp + f_exp))
    normal = (np.finfo(float).tiny <= frequency) & (frequency < math.inf)
    if not np.all(normal | (phase == 0.0)):
        raise ValueError(
            "the Allan deviation over 2 pi T_c f0 lies outside the float range "
            f"(T_c*f0 = {config.t_c!r}*{config.f0!r})"
        )
    allan = replace(allan, sigmas=frequency[0], errors=frequency[1])
    return ComparisonAnalysis(cycles=cycles, stats=stats, series=series, allan=allan)


@dataclass(frozen=True)
class ScalingPoint:
    """One point of an instability-versus-error-rate curve."""

    q: float
    sigma: float
    sigma_err: float


def instability_vs_error_rate(
    base: ComparisonConfig, q_grid, kinds, window: int = 100
) -> dict[ChannelKind, list[ScalingPoint]]:
    """Fractional instability at the one-window averaging time versus q,
    for each channel kind: {kind: [ScalingPoint per q]} in the order given.

    Each q runs the base config (same seed, so curves for different q and
    different channels share their random numbers) through the analysis of
    analyze_comparison, and the tau-one-window Allan point with its
    jackknife error is reported. A run reads its channel only through
    (kind.amplitude(q), kind.survival(q)), so each distinct pair is
    simulated once and serves every (kind, q) that repeats it. The pairs
    are simulated in groups, one pass over the cycles a group (_simulate),
    each group as many pairs as _GROUP_BYTES of columns hold and at least
    one; each record is analyzed in turn, and a group's records are dropped
    before the next group is simulated. So the sweep holds at most the
    larger of one run's columns and _GROUP_BYTES, whatever its pair count,
    and its results, and the first (kind, q) to fail, are those of one run
    per pair. The differential sqrt(2) penalty is implicit: both ensembles
    carry independent projection noise.

    Raises ValueError, before any simulation, if kinds is empty, repeats a
    kind or holds anything but a ChannelKind, if a grid entry lies outside
    [0, 0.95] or repeats another, if the base config has no shot noise
    (every window phase is then exact, so each sigma is fit rounding), or
    if the window does not suit the run (analyze_comparison); MemoryError
    where a group's columns cannot be allocated;
    SimulationDegeneracyError if more than 10% of cycles are invalid, and
    EllipseFitError if more than 10% of the fit windows fail.
    """
    kinds = list(kinds)
    if (not kinds or not all(isinstance(k, ChannelKind) for k in kinds)
            or len(set(kinds)) < len(kinds)):
        raise ValueError(f"kinds must be one or more distinct ChannelKind members, got {kinds}")
    if not base.shot_noise:
        raise ValueError("a scaling curve needs shot_noise: without it each sigma is fit rounding")
    qs = [float(q) for q in q_grid]
    for q in qs:
        if not 0.0 <= q <= 0.95:
            raise ValueError(f"q_grid entries must lie in [0, 0.95], got {q}")
    if len(set(qs)) != len(qs):
        raise ValueError("q_grid entries must be distinct")
    _check_window(base, window)
    configs = {}  # (amplitude, survival) -> the config of its first (kind, q)
    for kind in kinds:
        for q in qs:
            pair = (kind.amplitude(q), kind.survival(q))
            if pair not in configs:
                configs[pair] = replace(base, noise=NoiseChannel(kind, q=q))
    pairs = list(configs)
    size = max(1, (_GROUP_BYTES // base.cycles - _THETA_BYTES) // _CHANNEL_BYTES)
    runs = {}  # (amplitude, survival) -> (sigma, error) of its one run
    for lo in range(0, len(pairs), size):
        group = pairs[lo:lo + size]
        records = _simulate(base, group)
        for pair in group:
            allan = _analyze(configs[pair], records.pop(0), window).allan
            runs[pair] = allan.sigmas[0], allan.errors[0]
    return {kind: [ScalingPoint(q, *runs[kind.amplitude(q), kind.survival(q)]) for q in qs]
            for kind in kinds}


def _fit_points(qs, sigmas) -> tuple[list[float], list[float]]:
    """x = log(1 - q) and z = log(sigma) of each point, taken with
    math.log1p and math.log; ValueError unless there is a q, each q is in
    [0, 1) and each sigma positive and finite, so that every x and z is a
    finite float."""
    qs, sigmas = [float(q) for q in qs], [float(s) for s in sigmas]
    if not qs or not all(0.0 <= q < 1.0 for q in qs):
        raise ValueError(f"a power-law fit needs every q in [0, 1), got {qs}")
    if not all(0.0 < s < math.inf for s in sigmas):
        raise ValueError(f"a power-law fit needs positive sigmas, all finite, got {sigmas}")
    return [math.log1p(-q) for q in qs], [math.log(s) for s in sigmas]


def _sigma0(log_sigma0: float) -> float:
    """exp of a fitted log intercept; ValueError where it leaves the float
    range, as a fit extrapolated from sigmas near the largest float can."""
    try:
        return math.exp(log_sigma0)
    except OverflowError:
        raise ValueError(f"fitted sigma0 = exp({log_sigma0}) is not a finite float") from None


def fit_loglog_exponent(qs, sigmas) -> tuple[float, float, float]:
    """Free log-log regression of sigma against (1 - q).

    Fits z = log(sigma0) + b x, x = log(1 - q) and z = log(sigma), by
    ordinary least squares and returns (b, stderr_b, sigma0). The erasure
    channel should give b near -1/2 and depolarizing near -1. The line is
    the centred closed form: with dx = x - mean(x) and dz = z - mean(z),
    b = sum(dx dz) / sum(dx dx), stderr_b = sqrt(sum(r r) / (n - 2) /
    sum(dx dx)) for residuals r = dz - b dx, and sigma0 = exp(mean(z) - b
    mean(x)). Every log, exp and sum comes from math (each sum is one
    math.fsum, rounded once on every Python version), so no bit of the fit
    follows LAPACK or numpy's SIMD dispatch. Needs at least 3 points at two
    or more distinct q, since the slope is undefined at one q, every q in
    [0, 1) and positive finite sigmas (_fit_points); q so close together
    that sum(dx dx) is not a normal float count as one, and a sigma0 past
    the float range raises ValueError.
    """
    x, z = _fit_points(qs, sigmas)
    n = len(x)
    if n != len(z) or n < 3:
        raise ValueError("need at least 3 (q, sigma) points")
    x_bar, z_bar = math.fsum(x) / n, math.fsum(z) / n
    dx, dz = [v - x_bar for v in x], [v - z_bar for v in z]
    sxx = math.fsum(d * d for d in dx)
    # equal x are caught as such: their mean rounds, which leaves a dx of
    # rounding error alone; a spread whose sum(dx dx) is below the least
    # normal float, 2^-1022, holds too few digits to fit and counts as one q
    if min(x) == max(x) or not sxx >= 2.0**-1022:
        raise ValueError("need at least 2 distinct q values")
    b = math.fsum(u * v for u, v in zip(dx, dz)) / sxx
    rss = math.fsum(r * r for r in (v - b * u for u, v in zip(dx, dz)))
    return b, math.sqrt(rss / (n - 2) / sxx), _sigma0(z_bar - b * x_bar)


def fit_fixed_form_intercept(qs, sigmas, exponent: float) -> float:
    """Best sigma0 for the fixed-shape model sigma = sigma0 * (1-q)^exponent.

    The exponent is pinned (-kind.decay_exponent(): -1/2 for erasure, -1
    for depolarizing) and the instability at q = 0 is the only free
    parameter, fitted by least squares in log space: sigma0 =
    exp(mean(z - exponent x)) on the points of _fit_points, its sum one
    math.fsum. Raises ValueError unless there is one sigma per q, every q
    is in [0, 1), every sigma is positive and finite and sigma0 is a finite
    float; the exponent is taken as the finite constant it is pinned to.
    """
    x, z = _fit_points(qs, sigmas)
    return _sigma0(math.fsum(v - exponent * u for u, v in zip(x, z, strict=True)) / len(x))


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
    is e^{-2 k gamma_d T_c} with k = kind.decay_exponent() (1 for
    depolarizing and dephasing, 1/2 for erasure). In x = gamma_d T_c and
    d = gamma_d T_d the
    minimum of e^{k x} sqrt(x + d) / x is the positive root of
    2k x^2 + (2kd - 1) x - 2d = 0, taken in the form that does not cancel:
    the standard formula while 2kd <= 1, else the one divided through by d,
    which stays finite as d grows without bound. With no dead time the
    optima are 1/(2 gamma_d) and 1/gamma_d.

    Raises ValueError for a gamma_d that is not positive and finite, a t_d
    that is not non-negative and finite, or an optimum whose T_c or sigma
    lies outside floating-point range.
    """
    if not 0.0 < gamma_d < math.inf:
        raise ValueError("gamma_d must be positive and finite")
    if not 0.0 <= t_d < math.inf:
        raise ValueError("t_d must be non-negative and finite")
    k = kind.decay_exponent()
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
