"""Command-line front end.

Subcommands: `fisher` (closed-form and numeric Fisher information),
`simulate` (one full comparison run from a JSON config), `scaling`
(instability versus error rate), `optimize` (interrogation-time
optimization and erasure-conversion gain), `ellipse` (fit a CSV of
excitation pairs), and `allan` (Allan deviation of a raw series).

Every command writes a RunManifest into the output directory, atomically
and after all other outputs, so a manifest is a success marker and a
complete record for reproducing the run. Numeric output uses full
round-trip precision. Exit codes (_EXIT_CODES): 0 success, 2 usage or
config error, 3 numerical singularity, 4 simulation degeneracy, 5 fit
failure, 6 out of memory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .clock import (
    ComparisonConfig,
    SimulationDegeneracyError,
    allan_deviation,
    analyze_comparison,
    erasure_conversion_gain_curve,
    fit_fixed_form_intercept,
    fit_loglog_exponent,
    instability_vs_error_rate,
)
from .estimation import EllipseFitError, ellipse_fit, load_pairs_csv
from .fisher import (
    SingularFisherError,
    channel_outcome_model,
    classical_fisher_numeric,
    fisher_information,
)
from .states import ChannelKind

# The exit code of each error main reports, the first matching class
# winning, as the module docstring states it; any other exception propagates.
_EXIT_CODES = (
    (SingularFisherError, 3),
    (SimulationDegeneracyError, 4),
    (EllipseFitError, 5),
    (ValueError, 2),
    (OSError, 2),
    (MemoryError, 6),
)

OUTPUT_ENV_VAR = "ERASURE_SENSING_OUT"

# The channels `scaling` sweeps, in output order.
_SCALING_KINDS = (ChannelKind.ERASURE, ChannelKind.DEPOLARIZING)


def _fmt(value: float) -> str:
    """Full round-trip decimal representation."""
    return repr(float(value))


def _resolve_outdir(arg_out: str | None) -> Path:
    if arg_out is not None:
        out = Path(arg_out)
    elif os.environ.get(OUTPUT_ENV_VAR):
        out = Path(os.environ[OUTPUT_ENV_VAR])
    else:
        out = Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json_atomic(path: Path, payload: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


def _write_manifest(
    outdir: Path,
    command: str,
    started: float,
    config: dict,
    seed: int | None = None,
    outputs: tuple[str, ...] | list[str] = (),
    stats: dict | None = None,
) -> None:
    payload = {
        "command": command,
        "version": __version__,
        "config": config,
        "seed": seed,
        "outputs": list(outputs),
        "duration_seconds": time.monotonic() - started,
    }
    if stats is not None:
        payload["stats"] = stats
    _write_json_atomic(outdir / f"{command}_manifest.json", payload)


def _load_config(path: str) -> tuple[dict, ComparisonConfig]:
    """The config file's JSON object as read, and the config it describes."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from None
    return data, ComparisonConfig.from_dict(data)


def _parse_grid(text: str, what: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated list of numbers") from None
    if not values:
        raise ValueError(f"{what} is empty")
    return values


def _finite_float(text: str) -> float:
    """argparse type of every float flag."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _positive_int(text: str) -> int:
    """argparse type of every integer flag."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _write_csv(path: Path, header: list[str], rows) -> None:
    """A CSV of already-formatted cells: the header, then one line per row."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


# Rows of cycles.csv formatted at a time, so a long run is never held as
# Python lists.
_CSV_ROWS = 4096


def _write_cycles_csv(path: Path, cycles) -> None:
    import numpy as np  # already loaded by the simulator

    keep = cycles.valid.nonzero()[0]
    with open(path, "w", newline="") as fh:
        fh.write("cycle,theta,x_a,x_b,n_a,n_b\n")
        for lo in range(0, keep.size, _CSV_ROWS):
            rows = keep[lo:lo + _CSV_ROWS]
            # Fractions repeat, so each distinct one is formatted once. They
            # are told apart by their bits, which keeps -0.0 apart from 0.0.
            bits, where = np.unique(cycles.x[rows].view(np.uint64), return_inverse=True)
            text = np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)
            x_a, x_b = text[where.reshape(-1, 2)].T
            fh.writelines(
                f"{i},{theta!r},{a},{b},{n_a},{n_b}\n"
                for i, theta, a, b, n_a, n_b in zip(
                    rows.tolist(), cycles.theta[rows].tolist(), x_a.tolist(), x_b.tolist(),
                    *cycles.n[rows].T.tolist())
            )


# Each command writes its outputs into outdir and returns the manifest
# fields that main records once the command has succeeded.


def cmd_fisher(args, outdir: Path) -> dict:
    kind = ChannelKind(args.kind)
    delta = args.phi - args.theta
    if not math.isfinite(delta):
        raise ValueError(f"--phi - --theta = {delta} overflows the float range")
    analytic = fisher_information(kind, args.q, delta)
    if args.numeric:
        model = channel_outcome_model(kind, args.q, args.theta)
        numeric = classical_fisher_numeric(model, args.phi)
        print(f"analytic {_fmt(analytic)}")
        print(f"numeric {_fmt(numeric)}")
        print(f"difference {_fmt(numeric - analytic)}")
    else:
        print(_fmt(analytic))
    return {
        "config": {
            "kind": kind.value,
            "q": args.q,
            "phi": args.phi,
            "theta": args.theta,
            "numeric": bool(args.numeric),
        }
    }


def cmd_simulate(args, outdir: Path) -> dict:
    data, config = _load_config(args.config)
    run = analyze_comparison(config, args.window)

    _write_cycles_csv(outdir / "cycles.csv", run.cycles)
    _write_csv(outdir / "phases.csv", ["window", "phi_d"],
               ([str(k), _fmt(value)] for k, value in enumerate(run.series)))
    _write_json_atomic(outdir / "allan.json", run.allan.to_dict())

    print(f"sigma_one_window {_fmt(run.allan.sigmas[0])}")
    return {
        "config": data,
        "seed": config.seed,
        "outputs": ["cycles.csv", "phases.csv", "allan.json"],
        "stats": dict(
            run.stats,
            window=args.window,
            sigma_one_window=float(run.allan.sigmas[0]),
            sigma_one_window_error=float(run.allan.errors[0]),
        ),
    }


def cmd_scaling(args, outdir: Path) -> dict:
    data, base = _load_config(args.config)
    kinds = _SCALING_KINDS if args.kind == "both" else (ChannelKind(args.kind),)
    grid = sorted(_parse_grid(args.q_grid, "--q-grid"))

    curves = instability_vs_error_rate(base, grid, kinds, window=args.window)
    fits = {}
    for kind, points in curves.items():
        if len(points) >= 3:
            exponent, stderr, sigma0 = fit_loglog_exponent(
                [p.q for p in points], [p.sigma for p in points]
            )
            fixed = -kind.decay_exponent()
            fits[kind.value] = {
                "exponent": exponent,
                "exponent_stderr": stderr,
                "sigma0_free": sigma0,
                "fixed_exponent": fixed,
                "sigma0_fixed_form": fit_fixed_form_intercept(
                    [p.q for p in points], [p.sigma for p in points], fixed
                ),
            }

    header, rows = ["q"], [[_fmt(q)] for q in grid]
    for kind in kinds:
        header += [f"sigma_{kind.value}", f"err_{kind.value}"]
        for row, p in zip(rows, curves[kind]):
            row += [_fmt(p.sigma), _fmt(p.sigma_err)]
    _write_csv(outdir / "scaling.csv", header, rows)
    _write_json_atomic(outdir / "scaling_fit.json", fits)

    for kind in kinds:
        for p in curves[kind]:
            print(f"{kind.value} q {_fmt(p.q)} sigma {_fmt(p.sigma)}")
    for name, fit in fits.items():
        print(
            f"{name} exponent {_fmt(fit['exponent'])} "
            f"+/- {_fmt(fit['exponent_stderr'])}"
        )
    return {
        "config": {
            "base_config": data,
            "q_grid": grid,
            "kind": args.kind,
            "window": args.window,
        },
        "seed": base.seed,
        "outputs": ["scaling.csv", "scaling_fit.json"],
    }


def cmd_optimize(args, outdir: Path) -> dict:
    grid = sorted(_parse_grid(args.dead_time_grid, "--dead-time-grid"))
    curve = erasure_conversion_gain_curve(args.gamma, grid)

    _write_csv(
        outdir / "optimize.csv",
        ["T_d", "T_c_star_depolarizing", "T_c_star_erasure", "gain"],
        ([_fmt(p.t_d), _fmt(p.t_c_star_depolarizing), _fmt(p.t_c_star_erasure), _fmt(p.gain)]
         for p in curve),
    )
    for point in curve:
        print(f"{_fmt(point.t_d)} {_fmt(point.gain)}")
    return {
        "config": {"gamma": args.gamma, "dead_time_grid": grid},
        "outputs": ["optimize.csv"],
    }


def cmd_ellipse(args, outdir: Path) -> dict:
    pairs = load_pairs_csv(args.points)
    payload = ellipse_fit(pairs).to_dict()
    print(json.dumps(payload, indent=2))
    _write_json_atomic(outdir / "ellipse.json", payload)
    return {
        "config": {"points": str(args.points)},
        "outputs": ["ellipse.json"],
    }


def cmd_allan(args, outdir: Path) -> dict:
    try:
        with open(args.series) as fh:
            values = [
                float(line) for line in (ln.strip() for ln in fh) if line
            ]
    except OSError as exc:
        raise ValueError(f"cannot read series {args.series}: {exc}") from None
    except ValueError:
        raise ValueError(
            f"series file {args.series} must hold one number per line"
        ) from None
    payload = allan_deviation(values, cycle_time=args.cycle_time).to_dict()
    print(json.dumps(payload, indent=2))
    _write_json_atomic(outdir / "allan.json", payload)
    return {
        "config": {"series": str(args.series), "cycle_time": args.cycle_time},
        "outputs": ["allan.json"],
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erasure-sensing",
        description=(
            "Fisher-information bounds and differential-clock Monte Carlo "
            "for erasure, depolarizing, and dephasing noise. Angles are "
            "radians everywhere."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"erasure-sensing {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_out(p):
        p.add_argument(
            "--out",
            default=None,
            help=(
                "output directory (default: $" + OUTPUT_ENV_VAR + " if set, "
                "else the current directory)"
            ),
        )

    def add_threads(p):
        p.add_argument(
            "--threads",
            type=_positive_int,
            default=1,
            help="accepted for compatibility; cycles always run on one thread",
        )

    p = sub.add_parser("fisher", help="Fisher information of one channel")
    p.add_argument("kind", choices=[k.value for k in ChannelKind])
    p.add_argument(
        "-q", "--q", type=_finite_float, required=True, help="error probability"
    )
    p.add_argument(
        "--phi", type=_finite_float, default=0.0, help="true phase (radians)"
    )
    p.add_argument(
        "--theta", type=_finite_float, default=0.0, help="readout basis (radians)"
    )
    p.add_argument(
        "--numeric",
        action="store_true",
        help="also evaluate the central-difference oracle and print the difference",
    )
    add_out(p)
    p.set_defaults(func=cmd_fisher)

    p = sub.add_parser("simulate", help="run one comparison from a JSON config")
    p.add_argument("config", help="ComparisonConfig JSON file (all fields explicit)")
    p.add_argument(
        "--window", type=_positive_int, default=100, help="cycles per ellipse fit"
    )
    add_threads(p)
    add_out(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scaling", help="instability versus error rate")
    p.add_argument("config", help="base ComparisonConfig JSON file")
    p.add_argument(
        "--kind",
        default="both",
        choices=[k.value for k in _SCALING_KINDS] + ["both"],
        help="which channel(s) to sweep",
    )
    p.add_argument(
        "--q-grid",
        default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8",
        help="comma-separated error rates in [0, 0.95]",
    )
    p.add_argument(
        "--window", type=_positive_int, default=100, help="cycles per ellipse fit"
    )
    add_threads(p)
    add_out(p)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("optimize", help="interrogation-time optimization and gain")
    p.add_argument(
        "--gamma", type=_finite_float, required=True, help="decay rate (1/s)"
    )
    p.add_argument(
        "--dead-time-grid",
        default="0",
        help="comma-separated dead times in seconds",
    )
    add_out(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("ellipse", help="fit an ellipse to an x_a,x_b CSV")
    p.add_argument("points", help="CSV file with header x_a,x_b")
    add_out(p)
    p.set_defaults(func=cmd_ellipse)

    p = sub.add_parser("allan", help="Allan deviation of a raw series file")
    p.add_argument("series", help="text file, one fractional-frequency value per line")
    p.add_argument(
        "--cycle-time",
        type=_finite_float,
        required=True,
        help="sample spacing in seconds",
    )
    add_out(p)
    p.set_defaults(func=cmd_allan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        outdir = _resolve_outdir(args.out)
        record = args.func(args, outdir)
        _write_manifest(outdir, args.subcommand, started, **record)
        return 0
    except tuple(error for error, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES if isinstance(exc, error))


if __name__ == "__main__":
    sys.exit(main())
