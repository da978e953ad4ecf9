"""Span tracer that wraps a package's public functions from the outside.

`Tracer.install` replaces every public function defined in the given
modules with a timing wrapper, in every namespace of the package that
holds it (so `cli.run_comparison`, `clock.phase_series_from_cycles` and
`fisher.apply_noise` are all wrapped, not only the defining module's
name). `uninstall` puts the originals back.

Each call records one span: (id, name, start, end, parent id, raised,
thread). Spans are kept in memory and written out by `write_spans` when
the run ends. The parent is the innermost open span of the calling
thread; a span opened on a worker thread with nothing open on it (a
thread-pool task) takes the innermost open span of the installing thread
as parent, because that thread is blocked waiting for the pool. A
function may have a hook that sees its arguments and result and adds to
named counters; a failing hook marks its counters broken, never the run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self, package: str, modules: dict, skip: dict | None = None,
                 hooks: dict | None = None):
        """modules maps a short layer name ("clock") to the module object;
        skip maps a layer name to public names left unwrapped; hooks maps a
        span name ("clock.run_comparison") to hook(args, kwargs, result,
        counters)."""
        self.package = package
        self.modules = modules
        self.skip = skip or {}
        self.hooks = hooks or {}
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.hook_errors: dict[str, str] = {}
        self.names: set[str] = set()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_ident = None
        self._main_stack: list[int] = []
        self._restore: list[tuple] = []

    # installation

    def install(self) -> None:
        self._main_ident = threading.get_ident()
        self._local.stack = self._main_stack
        wrappers = {}
        for layer, module in self.modules.items():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__
                        or attr in self.skip.get(layer, ())):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = self._wrap(name, obj)
                self.names.add(name)
        for module in self._namespaces():
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _namespaces(self):
        prefix = self.package + "."
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(prefix))
        ]

    def _wrap(self, name: str, fn):
        local = self._local
        lock = self._lock
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        get_ident = threading.get_ident
        main_ident = self._main_ident
        main_stack = self._main_stack
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            tid = get_ident()
            if stack:
                parent = stack[-1]
            elif tid != main_ident:
                parent = next(reversed(main_stack), None)
            else:
                parent = None
            sid = next(ids)
            stack.append(sid)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                with lock:
                    spans.append((sid, name, start, end, parent, raised, tid))
            if hook is not None:
                self._run_hook(name, hook, args, kwargs, result)
            return result

        return traced

    def _run_hook(self, name, hook, args, kwargs, result) -> None:
        if name in self.hook_errors:
            return
        try:
            with self._lock:
                hook(args, kwargs, result, self.counters)
        except Exception as exc:  # a hook must never fail the traced program
            self.hook_errors[name] = f"{type(exc).__name__}: {exc}"

    # analysis

    def table(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds, raised calls.

        Self time is the span's duration minus the part of its interval
        covered by the union of its children's intervals.
        """
        children = defaultdict(list)
        for sid, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for sid, name, start, end, _, raised, _ in self.spans:
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "raised": 0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += (end - start) - _covered(start, end, children.get(sid, ()))
            row["raised"] += raised
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,raised,thread\n")
            for sid, name, start, end, parent, raised, tid in sorted(self.spans):
                fh.write(f"{sid},{name},{start!r},{end!r},"
                         f"{'' if parent is None else parent},{int(raised)},{tid}\n")


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
