"""One fresh benchmark process: set up, run the operations, check them.

The harness (run.py) starts this script once per repetition, with the
checkout root, the generated inputs and an empty output directory. Set-up
is interpreter start, `import erasure_sensing` from the checkout's `src`
and loading the inputs; the worker stamps the moment it is ready. It then
runs the workload's operations back to back, timed, optionally under the
tracer, and checks every output afterwards. Everything it measures goes
to `<out>/result.json`.

With --determinism it instead runs `simulate` on the determinism config
at 1 thread and at --threads threads and compares the outputs byte for
byte.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace


def load_program(root: Path) -> SimpleNamespace:
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import erasure_sensing
    from erasure_sensing import cli, clock, estimation, fisher, states

    if Path(erasure_sensing.__file__).resolve().parent != src / "erasure_sensing":
        raise SystemExit(f"imported {erasure_sensing.__file__}, not the checkout's copy")
    return SimpleNamespace(package=erasure_sensing, cli=cli, clock=clock,
                           estimation=estimation, fisher=fisher, states=states)


def determinism(es, args) -> dict:
    import workloads

    config = args.inputs / "determinism.json"
    runs = {t: workloads.simulate_outputs(es.cli, config, args.out / f"threads{t}", t)
            for t in (1, args.threads)}
    differ = [n for n in runs[1] if runs[1][n] != runs[args.threads][n]]
    return {"ok": not differ,
            "detail": f"differ at 1 vs {args.threads} threads: {differ}" if differ else ""}


def run(es, args) -> dict:
    import workloads

    workload = workloads.WORKLOADS[args.workload](es, args.inputs, args.threads)
    ready = time.monotonic()

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        modules = {name: getattr(es, name) for name in layers.LAYERS}
        tracer = Tracer(layers.PACKAGE, modules, skip=layers.SKIP, hooks=layers.HOOKS)
        tracer.install()
    ops = workload.ops()
    results, failures, op_walls = {}, {}, {}
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for name, fn in ops:
        out = args.out / name
        out.mkdir()
        t = time.perf_counter()
        try:
            results[name] = fn(out)
        except Exception as exc:  # one failed operation must not stop the run
            failures[name] = f"{type(exc).__name__}: {exc}"
        op_walls[name] = time.perf_counter() - t
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    summaries = {}
    for name, result in results.items():
        try:
            summary = workload.check(name, args.out / name, result)
        except Exception as exc:
            failures[name] = f"{type(exc).__name__}: {exc}"
        else:
            if summary is not None:
                summaries[name] = summary

    record = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "op_walls": op_walls,
        "peak_rss_mb": peak_rss_mb,
        "cycles": workload.cycles,
        "bytes_written": sum(workloads.bytes_in(args.out / name) for name, _ in ops),
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "summaries": summaries,
    }
    if tracer is not None:
        table = tracer.table()
        values, absent = layers.layer_metrics(tracer, table)
        record.update(layers=values, absent=absent, table=table,
                      hook_errors=tracer.hook_errors)
        tracer.write_spans(args.out / "spans.csv")
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--determinism", action="store_true")
    args = parser.parse_args()

    es = load_program(args.root)
    record = determinism(es, args) if args.determinism else run(es, args)
    (args.out / "result.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
