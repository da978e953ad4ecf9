"""The two workloads: seeded input generation, timed operations, checks.

`generate` runs in the harness and writes every input a workload needs
(config JSON, pairs CSV, count records) into a directory, from the
workload seed alone; `generate_pass` refreshes the inputs that change from
one pass to the next. The `Workload` subclasses run in the worker process:
`__init__` loads the generated inputs (part of set-up), `ops` lists the
timed operations, and `check` inspects an operation's outputs. `check_run`
runs in the harness on what every pass's checks returned.

The checks hold for any seed and never compare against seeded numbers:
they test physics (exponent ordering, projection-noise floors, z-scores,
variance ratios) and exact identities, so a change of random stream does
not trip them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

SWEEP_Q_GRID = "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8"
# A pass lasts about two seconds, so that many passes fit in a run and
# some land wholly in a quiet stretch of a shared machine (see
# `run.fastest_pass`). At 2000 cycles one sweep alone does not resolve the
# exponents: the gap reaches 3 combined errors on ~85% of seeds, and the
# erasure exponent (-0.49, sd 0.14 over 80 seeds) is positive about once
# in a thousand. So each pass draws its own sweep seed, and
# `Simulation.check_run` tests both on the passes pooled.
SWEEP_CYCLES = 2000
SWEEP_WINDOW = 100
RECORD_CYCLES = 20_000
RECORD_WINDOW = 10
RECORD_N0 = 400
# the record-shaped run `estimators` checks determinism on
SMALL_DETERMINISM_CYCLES = 4000
JACKKNIFE_PAIRS = 2000
PAIR_SETS = 1
JACKKNIFE_ATOMS = 10_000
MLE_SHOTS = 50_000
MLE_REPS = 500
FISHER_QS = 8
FISHER_DELTAS = 25
GAIN_DEAD_TIMES = [0.0, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0]
CHANNELS = ("erasure", "depolarizing", "dephasing")


def _program_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def _config(**fields) -> dict:
    cfg = {
        "phi_d": math.pi / 2, "N0": 3000, "T_c": 1.0, "T_d": 0.0, "f0": 1.0,
        "cycles": SWEEP_CYCLES, "noise": {"kind": "erasure", "q": 0.0},
        "c_a": 0.5, "c_b": 0.5, "laser_phase_model": "UniformRandomPerCycle",
        "seed": 0, "shot_noise": True,
    }
    cfg.update(fields)
    return cfg


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1) + "\n")


def _record_config(rng: np.random.Generator, cycles: int) -> dict:
    contrast = float(rng.uniform(0.85, 1.0))
    return _config(
        phi_d=float(rng.uniform(1.3, 1.85)),
        # N0 is fixed: survivor and excitation counts above 256 are no
        # longer CPython's cached small ints, so N0 changes peak memory
        N0=RECORD_N0,
        cycles=cycles,
        noise={"kind": "erasure", "q": float(rng.uniform(0.28, 0.32))},
        c_a=contrast,
        c_b=contrast,
        seed=_program_seed(rng),
    )


def generate(name: str, seed: int, inputs: Path) -> dict:
    """Write the workload's inputs for this seed; return its input shape."""
    rng = np.random.default_rng([seed, sum(map(ord, name))])
    inputs.mkdir(parents=True, exist_ok=True)
    if name == "simulation":
        cfg = _record_config(rng, RECORD_CYCLES)
        _write_json(inputs / "record.json", cfg)
        _write_json(inputs / "determinism.json", cfg)
        generate_pass(name, seed, 0, inputs)
        return {"sweep": {"cycles_per_point": SWEEP_CYCLES, "points": 18, "N0": 3000,
                          "window": SWEEP_WINDOW, "threads": 1, "program_seed": "one per pass"},
                "record": {"cycles": cfg["cycles"], "N0": cfg["N0"], "q": cfg["noise"]["q"],
                           "window": RECORD_WINDOW, "threads": "nproc"}}
    _write_json(inputs / "determinism.json", _record_config(rng, SMALL_DETERMINISM_CYCLES))
    if name == "estimators":
        return _generate_estimators(rng, inputs)
    raise ValueError(f"unknown workload {name!r}")


def generate_pass(name: str, seed: int, index: int, inputs: Path) -> None:
    """Write the inputs of pass `index` that differ between passes.

    Only `simulation` has such inputs: the sweep's base config with the
    pass's own program seed, drawn from the workload seed and the pass index.
    """
    if name == "simulation":
        rng = np.random.default_rng([seed, sum(map(ord, name)), index])
        _write_json(inputs / "sweep.json", _config(seed=_program_seed(rng)))


def _generate_estimators(rng: np.random.Generator, inputs: Path) -> dict:
    # Shot-noise ellipses: two fringes sharing a random common phase. Noise
    # biases the direct least-squares ellipse phase towards pi/2, by
    # ~8e-3 rad (4 jackknife errors) at phi_d = 0.9 with 1000 atoms; with
    # 10^4 atoms and phi_d within 0.6 rad of pi/2 the bias stays near one
    # error, so the |z| <= 4 check tests the jackknife, not the bias.
    truths = []
    for k in range(PAIR_SETS):
        phi_d = float(rng.uniform(1.0, 2.1))
        c_a, c_b = (float(v) for v in rng.uniform(0.8, 1.0, size=2))
        theta = rng.uniform(0.0, 2.0 * math.pi, size=JACKKNIFE_PAIRS)
        p_a = 0.5 * (1.0 + c_a * np.cos(theta))
        p_b = 0.5 * (1.0 + c_b * np.cos(theta + phi_d))
        x_a = rng.binomial(JACKKNIFE_ATOMS, p_a) / JACKKNIFE_ATOMS
        x_b = rng.binomial(JACKKNIFE_ATOMS, p_b) / JACKKNIFE_ATOMS
        with open(inputs / f"pairs{k}.csv", "w", newline="") as fh:
            fh.write("x_a,x_b\n")
            for a, b in zip(x_a, x_b):
                fh.write(f"{float(a)!r},{float(b)!r}\n")
        truths.append(phi_d)

    # count records at quadrature, as the CRB-saturation demo draws them
    mle_theta = float(rng.uniform(0.0, 1.0))
    sets = []
    for kind in CHANNELS:
        for q in (0.0, 0.2, 0.5):
            if kind == "dephasing" and q == 0.5:
                continue  # contrast 1 - 2q vanishes: nothing to estimate
            if kind == "erasure":
                n_e = rng.binomial(MLE_SHOTS, q, size=MLE_REPS)
                n_p = rng.binomial(MLE_SHOTS - n_e, 0.5)
                n_m = MLE_SHOTS - n_e - n_p
            else:
                n_p = rng.binomial(MLE_SHOTS, 0.5, size=MLE_REPS)
                n_m = MLE_SHOTS - n_p
                n_e = np.zeros(MLE_REPS, dtype=int)
            sets.append({"kind": kind, "q": q, "counts": np.column_stack(
                [n_p, n_m, n_e]).astype(int).tolist()})

    payload = {
        "pairs_phi_d": truths,
        "mle": {"theta": mle_theta, "shots": MLE_SHOTS, "sets": sets},
        "fisher": {
            "theta": float(rng.uniform(0.0, 2.0 * math.pi)),
            "qs": sorted(float(v) for v in rng.uniform(0.0, 0.8, size=FISHER_QS)),
            "deltas": sorted(float(v) for v in rng.uniform(0.3, math.pi - 0.3,
                                                           size=FISHER_DELTAS)),
        },
        "gain": {"gamma": float(rng.uniform(0.5, 3.0)), "dead_times": GAIN_DEAD_TIMES},
    }
    _write_json(inputs / "estimators.json", payload)
    return {"pair_sets": PAIR_SETS, "pairs": JACKKNIFE_PAIRS, "mle_records": MLE_REPS * len(sets),
            "fisher_points": len(CHANNELS) * FISHER_QS * FISHER_DELTAS,
            "gain_points": len(GAIN_DEAD_TIMES)}


# worker side


class CheckFailed(Exception):
    """An operation exited nonzero or its output broke a check."""


def run_cli(cli, argv: list[str]) -> str:
    """Run the CLI in-process; return its stdout or raise on a failure."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    if code != 0:
        raise CheckFailed(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def differential_floor(n0: int, t_c: float, tau: float, f0: float) -> float:
    """Differential projection-noise floor on the fractional instability."""
    return math.sqrt(2.0 / (n0 * t_c * tau)) / (2.0 * math.pi * f0)


def bytes_in(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def simulate_outputs(cli, config: Path, out: Path, threads: int) -> dict[str, bytes]:
    run_cli(cli, ["simulate", str(config), "--window", str(RECORD_WINDOW),
                  "--threads", str(threads), "--out", str(out)])
    return {n: (out / n).read_bytes() for n in ("cycles.csv", "phases.csv", "allan.json")}


class Workload:
    """Inputs loaded at set-up; `ops` are timed back to back."""

    cycles = 0

    def __init__(self, es, inputs: Path, threads: int):
        self.es = es
        self.threads = threads

    def ops(self):
        raise NotImplementedError

    def check(self, op: str, out: Path, result):
        """Raise CheckFailed when an output is wrong; may return a summary
        that `check_run` receives."""

    @staticmethod
    def check_run(summaries: list[dict]) -> None:
        """Raise CheckFailed when the passes of a run together are wrong.

        `summaries` holds, per pass, what its `check` calls returned.
        """


class Simulation(Workload):
    """The sweep (acceptance 5's path, 1 thread) and the record (one long
    run, every cycle written, nproc threads), back to back in each pass."""

    def __init__(self, es, inputs, threads):
        super().__init__(es, inputs, threads)
        self.sweep_path = inputs / "sweep.json"
        self.sweep_config = json.loads(self.sweep_path.read_text())
        self.record_path = inputs / "record.json"
        self.record_config = json.loads(self.record_path.read_text())
        self.cycles = (2 * len(SWEEP_Q_GRID.split(",")) * self.sweep_config["cycles"]
                       + self.record_config["cycles"])

    def ops(self):
        return [("scaling", self.scaling), ("simulate", self.simulate)]

    def scaling(self, out: Path):
        return run_cli(self.es.cli, [
            "scaling", str(self.sweep_path), "--kind", "both", "--q-grid", SWEEP_Q_GRID,
            "--window", str(SWEEP_WINDOW), "--threads", "1", "--out", str(out)])

    def simulate(self, out: Path):
        return run_cli(self.es.cli, [
            "simulate", str(self.record_path), "--window", str(RECORD_WINDOW),
            "--threads", str(self.threads), "--out", str(out)])

    def check(self, op, out, result):
        return getattr(self, f"check_{op}")(out)

    def check_scaling(self, out):
        cfg = self.sweep_config
        with open(out / "scaling.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        floor = differential_floor(cfg["N0"], cfg["T_c"], SWEEP_WINDOW * (cfg["T_c"] + cfg["T_d"]),
                                   cfg["f0"])
        sigmas = 0
        for row in rows:
            q = float(row["q"])
            for kind, power in (("erasure", 0.5), ("depolarizing", 1.0)):
                sigma, err = float(row[f"sigma_{kind}"]), float(row[f"err_{kind}"])
                if not (math.isfinite(sigma) and sigma > 0.0 and math.isfinite(err)):
                    raise CheckFailed(f"{kind} q={q}: sigma {sigma} +/- {err}")
                # acceptance 5's floor rule, with its 3-error allowance
                if sigma < floor * (1.0 - q) ** -power * (1.0 - 3.0 * err / sigma):
                    raise CheckFailed(f"{kind} q={q}: sigma {sigma} below the floor")
                sigmas += 1
        if sigmas != 18:
            raise CheckFailed(f"expected 18 sigmas, got {sigmas}")
        fits = json.loads((out / "scaling_fit.json").read_text())
        exponents = {}
        for kind in ("erasure", "depolarizing"):
            value, err = fits[kind]["exponent"], fits[kind]["exponent_stderr"]
            if not (math.isfinite(value) and math.isfinite(err) and err > 0.0):
                raise CheckFailed(f"{kind} exponent {value} +/- {err}")
            exponents[kind] = (value, err)
        return exponents

    def check_simulate(self, out):
        cfg = self.record_config
        q = cfg["noise"]["q"]
        stats = json.loads((out / "simulate_manifest.json").read_text())["stats"]
        if stats["invalid_fraction"] > 0.10:
            raise CheckFailed(f"invalid fraction {stats['invalid_fraction']}")
        with open(out / "phases.csv", newline="") as fh:
            phases = [float(row["phi_d"]) for row in csv.DictReader(fh)]
        failed = sum(1 for v in phases if not math.isfinite(v))
        if not phases or failed > 0.10 * len(phases):
            raise CheckFailed(f"{failed} of {len(phases)} windows failed")
        if abs(stats["measured_loss_q"] - q) > 0.01:
            raise CheckFailed(f"measured loss {stats['measured_loss_q']} vs q {q}")
        sigma, err = stats["sigma_one_window"], stats["sigma_one_window_error"]
        floor = differential_floor(cfg["N0"], cfg["T_c"], RECORD_WINDOW * (cfg["T_c"] + cfg["T_d"]),
                                   cfg["f0"]) * (1.0 - q) ** -0.5
        if not (math.isfinite(sigma) and sigma >= floor * (1.0 - 3.0 * err / sigma)):
            raise CheckFailed(f"sigma_one_window {sigma} +/- {err} below floor {floor}")

    @staticmethod
    def check_run(summaries):
        # inverse-variance means of the passes' exponents, each pass an
        # independent seed: both negative, erasure above depolarizing by
        # more than 3 combined errors
        fits = [s["scaling"] for s in summaries if "scaling" in s]
        if not fits:
            raise CheckFailed("no pass reported exponents")
        pooled = {}
        for kind in ("erasure", "depolarizing"):
            weights = [fit[kind][1] ** -2 for fit in fits]
            mean = sum(w * fit[kind][0] for w, fit in zip(weights, fits)) / sum(weights)
            pooled[kind] = (mean, sum(weights) ** -0.5)
        (era, era_err), (dep, dep_err) = pooled["erasure"], pooled["depolarizing"]
        if not (era < 0.0 and dep < 0.0):
            raise CheckFailed(f"pooled exponents {era}, {dep} not negative "
                              f"over {len(fits)} passes")
        combined = math.hypot(era_err, dep_err)
        if not era - dep > 3.0 * combined:
            raise CheckFailed(f"pooled exponent gap {era - dep} within 3 x {combined} "
                              f"over {len(fits)} passes")


class Estimators(Workload):
    def __init__(self, es, inputs, threads):
        super().__init__(es, inputs, threads)
        self.pair_paths = sorted(inputs.glob("pairs*.csv"))
        self.pair_sets = []
        for path in self.pair_paths:
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                next(reader)
                self.pair_sets.append(np.array([(float(a), float(b)) for a, b in reader]))
        self.params = json.loads((inputs / "estimators.json").read_text())
        self.cycles = sum(len(pairs) for pairs in self.pair_sets)

    def ops(self):
        return [("ellipse_cli", self.ellipse_cli), ("jackknife", self.jackknife),
                ("mle", self.mle), ("fisher_grid", self.fisher_grid), ("gain", self.gain)]

    def ellipse_cli(self, out: Path):
        return [json.loads(run_cli(self.es.cli, ["ellipse", str(path), "--out", str(out / path.stem)]))
                for path in self.pair_paths]

    def jackknife(self, out: Path):
        return [self.es.estimation.ellipse_phase_jackknife(pairs) for pairs in self.pair_sets]

    def mle(self, out: Path):
        estimation, kinds = self.es.estimation, self.es.states.ChannelKind
        p = self.params["mle"]
        results = []
        for s in p["sets"]:
            kind = kinds(s["kind"])
            phis = [
                estimation.mle_phase(estimation.CountRecord(
                    n_p, n_m, n_e, theta=p["theta"], kind=kind, q=s["q"])).phi_hat
                for n_p, n_m, n_e in s["counts"]
            ]
            results.append((s["kind"], s["q"], phis))
        return results

    def fisher_grid(self, out: Path):
        fisher, kinds = self.es.fisher, self.es.states.ChannelKind
        closed = {"erasure": fisher.fisher_erasure, "depolarizing": fisher.fisher_depolarizing,
                  "dephasing": fisher.fisher_dephasing}
        p = self.params["fisher"]
        rows = []
        for name in CHANNELS:
            for q in p["qs"]:
                model = fisher.channel_outcome_model(kinds(name), q, p["theta"])
                for delta in p["deltas"]:
                    numeric = fisher.classical_fisher_numeric(model, p["theta"] + delta)
                    rows.append((name, q, delta, numeric, float(closed[name](q, delta))))
        return rows

    def gain(self, out: Path):
        p = self.params["gain"]
        return [pt.gain for pt in
                self.es.clock.erasure_conversion_gain_curve(p["gamma"], p["dead_times"])]

    def check(self, op, out, result):
        getattr(self, f"check_{op}")(result)

    def check_ellipse_cli(self, fits):
        for fit, pairs in zip(fits, self.pair_sets, strict=True):
            full = self.es.estimation.ellipse_fit(pairs).phi_d
            if fit["n_points"] != len(pairs) or abs(fit["phi_d"] - full) > 1e-9:
                raise CheckFailed(f"CLI fit {fit['phi_d']} on {fit['n_points']} points, "
                                  f"library {full}")

    def check_jackknife(self, results):
        for (phi, stderr), truth in zip(results, self.params["pairs_phi_d"], strict=True):
            z = (phi - truth) / stderr
            if not (math.isfinite(z) and stderr > 0.0 and abs(z) <= 4.0):
                raise CheckFailed(f"jackknife phi {phi} +/- {stderr}: z = {z}")

    def check_mle(self, results):
        p = self.params["mle"]
        for kind, q, phis in results:
            phis = np.asarray(phis)
            info = {"erasure": 1.0 - q, "depolarizing": (1.0 - q) ** 2,
                    "dephasing": (1.0 - 2.0 * q) ** 2}[kind]
            ratio = float(phis.var(ddof=1)) * p["shots"] * info
            # sample variance of n draws has relative sd sqrt(2 / (n - 1))
            band = 6.0 * math.sqrt(2.0 / (len(phis) - 1))
            if not (np.all(np.isfinite(phis)) and abs(ratio - 1.0) <= band):
                raise CheckFailed(f"{kind} q={q}: variance ratio {ratio} outside 1 +/- {band}")

    def check_fisher_grid(self, rows):
        for name, q, delta, numeric, closed in rows:
            if not abs(numeric - closed) <= 1e-6:
                raise CheckFailed(f"{name} q={q} delta={delta}: numeric {numeric} "
                                  f"vs closed form {closed}")

    def check_gain(self, gains):
        if abs(gains[0] - math.sqrt(2.0)) > 1e-6:
            raise CheckFailed(f"gain(0) = {gains[0]}, not sqrt(2)")
        if any(b < a - 1e-12 for a, b in zip(gains, gains[1:])) or max(gains) > 2.0 + 1e-6:
            raise CheckFailed(f"gain curve not monotone within [sqrt(2), 2]: {gains}")


WORKLOADS = {"simulation": Simulation, "estimators": Estimators}
