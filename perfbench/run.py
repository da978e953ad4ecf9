"""Benchmark of erasure-sensing: two workloads, timed end to end and
traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload simulation --seed 1 --seconds 56 --trace 0

Workloads (see perfbench/README.md): `simulation` (CLI `scaling`, the
simulation-bound path of acceptance check 5, then CLI `simulate` on one
long run with every cycle written out) and `estimators` (ellipse CLI,
delete-one jackknife, MLE, numeric Fisher information, gain curve).

Each run is a closed loop with one client: the harness generates the
inputs from --seed, checks determinism once (outside the timing), then
starts one fresh worker process after another, each doing set-up and one
pass (a second or two) over the workload's operations, until --seconds have
been used. With --trace 0 it reports the end-to-end metrics, timings as
the fastest over those processes (see `fastest_pass`); with --trace 1 it
alternates untraced and traced processes and reports the per-layer
metrics. The last line of stdout is the result JSON. Inputs and outputs
live in `.perfbench_tmp/` (removed at exit); a record of each run, with
the machine, goes to `.perfbench_runs/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
MIN_REPS = 5  # per mode: fewer rarely reaches a fast stretch
DEADLINE_S = 170.0  # the whole run, determinism check included
THREAD_LIMIT_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": nproc(), "cpu_model": model or platform.processor(),
            "python": platform.python_version(), "numpy": np.__version__,
            "loadavg_1min": os.getloadavg()[0], "platform": platform.platform()}


def workload_why(name: str) -> str:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return ""
    return next((w["why"] for w in spec.get("workloads", []) if w.get("name") == name), "")


class Harness:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.inputs = work / "inputs"
        self.threads = nproc() if args.workload == "simulation" else 1
        self.started = time.monotonic()
        self.count = 0
        self.spans = None  # the last traced process's spans, as CSV bytes

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def worker(self, trace: int = 0, determinism: bool = False) -> dict:
        """Run one worker process to completion; return its record."""
        self.count += 1
        out = self.work / f"proc{self.count}"
        out.mkdir()
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
               "--workload", self.args.workload, "--inputs", str(self.inputs),
               "--out", str(out), "--trace", str(trace),
               "--threads", str(nproc() if determinism else self.threads)]
        if determinism:
            cmd.append("--determinism")
        env = dict(os.environ, **THREAD_LIMIT_ENV)
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=out, env=env, capture_output=True, text=True,
                                  timeout=max(1.0, self.remaining()))
            error = (proc.stderr.strip() or f"exit code {proc.returncode}"
                     if proc.returncode else "")
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            error = "timed out"
        elapsed = time.monotonic() - spawned
        result_path = out / "result.json"
        if error or not result_path.is_file():
            return {"crashed": error or "no result", "trace": trace, "proc_s": elapsed}
        record = json.loads(result_path.read_text())
        spans = out / "spans.csv"
        if spans.is_file():
            self.spans = spans.read_bytes()
        if "ready" in record:
            record["setup_s"] = record["ready"] - spawned
        record.update(trace=trace, proc_s=elapsed)
        shutil.rmtree(out)
        return record

    def loop(self) -> list[dict]:
        """Closed loop, one client: processes back to back for --seconds."""
        modes = (0, 1) if self.args.trace else (0,)
        reps: list[dict] = []
        begun = time.monotonic()
        while True:
            if len(reps) % len(modes) == 0 and len(reps) >= MIN_REPS * len(modes):
                typical = statistics.median(r["proc_s"] for r in reps)
                if time.monotonic() - begun + typical * len(modes) > self.args.seconds:
                    break
            if self.remaining() < 10.0:
                break
            workloads.generate_pass(self.args.workload, self.args.seed, len(reps), self.inputs)
            reps.append(self.worker(trace=modes[len(reps) % len(modes)]))
            if reps[-1].get("crashed") and len(reps) >= len(modes):
                break
        return reps


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def fastest_pass(reps) -> float:
    """The time of one pass in which every operation took its fastest time
    of the run.

    On a machine shared with other tenants, quiet stretches alternate with
    contended ones in which the same pass takes up to about 1.6 times as
    long; both last from seconds to over half a minute, and their mix
    drifts from one minute to the next. A median over one run follows that
    mix; the fastest of many short timings follows the program, because
    contention only adds time. Each operation is timed on its own, so a
    quiet stretch shorter than a whole pass still counts. An operation's
    failed runs are left out: a failure can end it early.
    """
    total = 0.0
    for op in reps[0]["op_walls"]:
        walls = [r["op_walls"][op] for r in reps]
        total += min((r["op_walls"][op] for r in reps if op not in r["failures"]),
                     default=min(walls))
    return total


def check_run(name: str, ok: list[dict]) -> str:
    """Run the workload's checks over all passes; return the failure or ''."""
    try:
        workloads.WORKLOADS[name].check_run([r["summaries"] for r in ok])
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return ""


def summarize(args, reps: list[dict], determinism: dict, run_failure: str):
    ok = [r for r in reps if not r.get("crashed")]
    plain = [r for r in ok if r["trace"] == 0]
    traced = [r for r in ok if r["trace"] == 1]
    if not plain or (args.trace and not traced):
        return None
    ops = plain[0]["attempted"]
    # the determinism check and the whole-run check count as one operation each
    attempted = sum(r["attempted"] for r in ok) + ops * (len(reps) - len(ok)) + 2
    failed = (sum(r["failed"] for r in ok) + ops * (len(reps) - len(ok))
              + (0 if determinism.get("ok") else 1) + (1 if run_failure else 0))
    wall = fastest_pass(plain)
    if args.trace:
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in traced),
                   "unit": unit_of(name)}
            for name in traced[0]["layers"]
        }
        metrics["cli.bytes_written"] = {"value": median_of(traced, "bytes_written"),
                                        "unit": "bytes"}
        metrics["proc.cpu_per_wall"] = {
            "value": statistics.median(r["cpu_s"] / r["wall_s"] for r in plain),
            "unit": "ratio"}
        metrics["trace.overhead_frac"] = {
            "value": fastest_pass(traced) / wall - 1.0, "unit": "ratio"}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": min(r["setup_s"] for r in plain), "unit": "s"},
            "cycles_per_s": {"value": plain[0]["cycles"] / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": median_of(plain, "peak_rss_mb"), "unit": "MB"},
            "success_rate": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s"):
        return "s"
    if last.endswith("ratio"):
        return "ratio"
    if last == "adev_evals":
        return "count-computed"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "erasure_sensing" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/erasure_sensing; run from a checkout root",
              file=sys.stderr)
        return 2
    info = machine()
    scratch = ROOT / ".perfbench_tmp"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    harness = Harness(args, work)
    try:
        work.mkdir(parents=True)
        shape = workloads.generate(args.workload, args.seed, harness.inputs)
        determinism = harness.worker(determinism=True)
        reps = harness.loop()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it

    run_failure = check_run(args.workload, [r for r in reps if not r.get("crashed")])
    result = summarize(args, reps, determinism, run_failure)
    runs = ROOT / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "why": workload_why(args.workload),
              "input_shape": shape, "seed": args.seed, "seconds": args.seconds,
              "threads": harness.threads, "machine": info, "determinism": determinism,
              "run_check": run_failure or "ok",
              "reps": reps, "result": result}
    (runs / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if harness.spans:
        (runs / f"{args.workload}-spans.csv").write_bytes(harness.spans)

    print("machine " + json.dumps(info))
    print("input_shape " + json.dumps(shape))
    for r in reps:
        if r.get("crashed"):
            print(f"process crashed: {r['crashed']}", file=sys.stderr)
        for op, msg in r.get("failures", {}).items():
            print(f"failed {op}: {msg}", file=sys.stderr)
    if not determinism.get("ok"):
        print(f"determinism check failed: {determinism}", file=sys.stderr)
    if run_failure:
        print(f"failed run check: {run_failure}", file=sys.stderr)
    if result is None:
        print("error: no process completed the workload", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
