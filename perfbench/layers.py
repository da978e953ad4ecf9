"""Per-layer metrics: which functions the tracer wraps, the counter hooks,
and how spans and counters become the per-layer numbers.

Every name is looked up defensively. A function that no longer exists is
reported as absent with value 0, and a hook that no longer understands a
result marks its counters absent; neither stops the run.
"""

from __future__ import annotations

import math

import numpy as np

PACKAGE = "erasure_sensing"
LAYERS = ("states", "fisher", "estimation", "clock", "cli")
# The cli layer's boundary is main: the cmd_* handlers and the parser it
# dispatches to are its own work (parsing, CSV/JSON writes, manifest), so
# they stay unwrapped and count as cli.main self time.
SKIP = {"cli": {"build_parser", "cmd_fisher", "cmd_simulate", "cmd_scaling",
                "cmd_optimize", "cmd_ellipse", "cmd_allan"}}
CLOSED_FORM = ("fisher.fisher_depolarizing", "fisher.fisher_dephasing", "fisher.fisher_erasure")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_invalid(result) -> int:
    # a list of per-cycle records, or columns with a boolean `valid` array
    valid = getattr(result, "valid", None)
    if valid is not None:
        valid = np.asarray(valid, dtype=bool)
        return int(valid.size - np.count_nonzero(valid))
    return sum(1 for r in result if not r.valid)


def _run_comparison(args, kwargs, result, c):
    c["clock.cycles"] += _arg(args, kwargs, 0, "config").cycles
    c["clock.invalid_cycles"] += _count_invalid(result)


def _phase_series(args, kwargs, result, c):
    series = np.asarray(result, dtype=float)
    c["estimation.windows"] += series.size
    c["estimation.windows_failed"] += int(np.count_nonzero(~np.isfinite(series)))


def adev_evals(n: int) -> int:
    """Overlapping-ADEV evaluations of the seed's Allan deviation: per
    octave m one full estimate plus n // m jackknife deletions."""
    total, m = 0, 1
    while n - m >= 2 * m + 1:
        total += n // m + 1
        m *= 2
    return total


def _allan(args, kwargs, result, c):
    y = np.asarray(_arg(args, kwargs, 0, "series"), dtype=float).ravel()
    n = int(np.count_nonzero(np.isfinite(y)))
    c["clock.allan_deviation.samples"] += n
    c["clock.allan_deviation.adev_evals"] += adev_evals(n)


def _points(args, kwargs, result, c):
    c["clock.instability_vs_error_rate.points"] += len(result)


def _rows(args, kwargs, result, c):
    c["estimation.load_pairs_csv.rows"] += len(result)


def _clamped(args, kwargs, result, c):
    c["estimation.mle_phase.clamped"] += bool(result.clamped)


HOOKS = {
    "clock.run_comparison": _run_comparison,
    "estimation.phase_series_from_cycles": _phase_series,
    "clock.allan_deviation": _allan,
    "clock.instability_vs_error_rate": _points,
    "estimation.load_pairs_csv": _rows,
    "estimation.mle_phase": _clamped,
}

# counter -> the hooked function that feeds it
COUNTERS = {
    "clock.cycles": "clock.run_comparison",
    "clock.invalid_cycles": "clock.run_comparison",
    "estimation.windows": "estimation.phase_series_from_cycles",
    "estimation.windows_failed": "estimation.phase_series_from_cycles",
    "clock.allan_deviation.samples": "clock.allan_deviation",
    "clock.allan_deviation.adev_evals": "clock.allan_deviation",
    "clock.instability_vs_error_rate.points": "clock.instability_vs_error_rate",
    "estimation.load_pairs_csv.rows": "estimation.load_pairs_csv",
    "estimation.mle_phase.clamped": "estimation.mle_phase",
}

# per-layer metric -> (span name, field of Tracer.table)
SPAN_METRICS = {
    "clock.cycle_rng.calls": ("clock.cycle_rng", "calls"),
    "clock.cycle_rng.s": ("clock.cycle_rng", "s"),
    "clock.run_comparison.s": ("clock.run_comparison", "s"),
    "clock.run_comparison.self_s": ("clock.run_comparison", "self_s"),
    "clock.valid_pairs.s": ("clock.valid_pairs", "s"),
    "clock.comparison_stats.s": ("clock.comparison_stats", "s"),
    "estimation.phase_series_from_cycles.s": ("estimation.phase_series_from_cycles", "s"),
    "estimation.ellipse_fit.calls": ("estimation.ellipse_fit", "calls"),
    "estimation.ellipse_fit.s": ("estimation.ellipse_fit", "s"),
    "estimation.ellipse_fit.failed": ("estimation.ellipse_fit", "raised"),
    "clock.allan_deviation.s": ("clock.allan_deviation", "s"),
    "clock.instability_vs_error_rate.s": ("clock.instability_vs_error_rate", "s"),
    "estimation.ellipse_phase_jackknife.s": ("estimation.ellipse_phase_jackknife", "s"),
    "estimation.load_pairs_csv.s": ("estimation.load_pairs_csv", "s"),
    "estimation.mle_phase.calls": ("estimation.mle_phase", "calls"),
    "estimation.mle_phase.s": ("estimation.mle_phase", "s"),
    "fisher.classical_fisher_numeric.calls": ("fisher.classical_fisher_numeric", "calls"),
    "fisher.classical_fisher_numeric.s": ("fisher.classical_fisher_numeric", "s"),
    "clock.optimize_interrogation.calls": ("clock.optimize_interrogation", "calls"),
    "clock.optimize_interrogation.s": ("clock.optimize_interrogation", "s"),
    "cli.main.s": ("cli.main", "s"),
    "cli.main.self_s": ("cli.main", "self_s"),
}


def _group(spans, members) -> tuple[int, float]:
    """Calls and seconds of a group of span names; a member span nested
    directly in another member is not counted twice in the seconds."""
    name_of = {s[0]: s[1] for s in spans}
    calls, seconds = 0, 0.0
    for sid, name, start, end, parent, _, _ in spans:
        if name in members:
            calls += 1
            if name_of.get(parent) not in members:
                seconds += end - start
    return calls, seconds


def layer_metrics(tracer, table) -> tuple[dict[str, float], list[str]]:
    """Per-layer values of one traced run, from its spans, its counters and
    its Tracer.table(), and the metric names found absent."""
    names = tracer.names
    values: dict[str, float] = {}
    absent: set[str] = set()

    for metric, (span, field) in SPAN_METRICS.items():
        if span not in names:
            absent.add(metric)
        values[metric] = float(table.get(span, {}).get(field, 0))

    for counter, span in COUNTERS.items():
        if span not in names or span in tracer.hook_errors:
            absent.add(counter)
            values[counter] = 0.0
        else:
            values[counter] = float(tracer.counters.get(counter, 0))
    windows = values["estimation.windows"]
    values["estimation.window_ok_ratio"] = (
        (windows - values["estimation.windows_failed"]) / windows if windows else 0.0)

    jk = "estimation.ellipse_phase_jackknife"
    jk_ids = {s[0] for s in tracer.spans if s[1] == jk}
    refits = [s for s in tracer.spans if s[1] == "estimation.ellipse_fit" and s[4] in jk_ids]
    values[f"{jk}.refits"] = float(len(refits))
    values[f"{jk}.refits_failed"] = float(sum(s[5] for s in refits))
    if jk not in names or "estimation.ellipse_fit" not in names:
        absent.update({f"{jk}.refits", f"{jk}.refits_failed"})

    closed = set(CLOSED_FORM) & names
    states = {n for n in names if n.startswith("states.")}
    for prefix, members in (("fisher.closed_form", closed), ("states", states)):
        calls, seconds = _group(tracer.spans, members)
        values[f"{prefix}.calls"] = float(calls)
        values[f"{prefix}.s"] = seconds
        if not members:
            absent.update({f"{prefix}.calls", f"{prefix}.s"})

    for metric, value in values.items():
        if not math.isfinite(value):
            values[metric] = 0.0
            absent.add(metric)
    return values, sorted(absent)
