"""Per-layer spans recorded from outside the package.

The tracer replaces chosen ``fdeconv`` functions with wrappers that time
each call. It keeps, per span name, the summed self time (the span's
duration minus the part covered by child spans), the call count, and for
some spans the bytes of the array arguments and result. Nothing inside
the package is edited: a wrapper is installed on every ``fdeconv`` module
that binds the original function object, and removed again afterwards.

Pool workers forked from a traced process inherit the wrappers. Each
worker starts from empty totals and writes them to ``worker-<pid>.json``
in the trace directory whenever its outermost span ends; the parent adds
those files in with :meth:`Tracer.merge_workers`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

import numpy as np

#: (module, attribute, span name). Several functions may share a name.
SPANS = (
    ("cli", "main", "cli"),
    ("cli", "_worker_init", "cli"),
    ("cli", "_run_one", "cli"),
    ("estimator", "estimate", "estimator.estimate"),
    ("estimator", "_deconvolved_rows", "estimator.deconvolve"),
    ("meyer", "forward_2d", "meyer.forward_2d"),
    ("meyer", "inverse_2d", "meyer.inverse_2d"),
    ("meyer", "_analyze", "meyer.analyze"),
    ("meyer", "_synthesize", "meyer.synthesize"),
    ("lrdnoise", "noise_sheet", "lrdnoise.noise_sheet"),
    ("model", "make_target", "model.make_target"),
    ("model", "make_power_kernel", "model.kernel"),
    ("model", "make_kernel", "model.kernel"),
    ("model", "convolve_columns", "model.convolve_columns"),
    ("model", "observe", "model.observe"),
)

#: Spans whose array traffic is computed from argument and result sizes.
BYTE_SPANS = ("meyer.analyze",)

#: (module, class, counter name): constructions are counted, not timed.
#: Both pool classes are counted so that a switch between them still shows.
COUNTERS = (
    ("fdeconv.meyer", "MeyerFilter", "meyer.filter_builds"),
    ("multiprocessing.pool", "Pool", "cli.pools_started"),
    ("concurrent.futures", "ProcessPoolExecutor", "cli.pools_started"),
)


def _array_bytes(args, result) -> int:
    total = sum(a.nbytes for a in args if isinstance(a, np.ndarray))
    if isinstance(result, np.ndarray):
        total += result.nbytes
    return total


class Tracer:
    """Span aggregator. ``totals[name] = [self_s, calls, bytes]``."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.totals: dict[str, list] = {}
        self._stack: list[list] = []
        self.owner_pid = os.getpid()
        self._pid = self.owner_pid
        self._patches: list[tuple] = []

    def reset(self) -> None:
        self.totals = {}
        self._stack = []

    def _entry(self, name: str) -> list:
        return self.totals.setdefault(name, [0.0, 0, 0])

    def _own_process(self) -> None:
        # A forked worker inherits the parent's totals and open spans.
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self.reset()

    def span(self, name: str, fn):
        count_bytes = name in BYTE_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._own_process()
            frame = [time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[0]
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += duration
                entry = self._entry(name)
                entry[0] += duration - frame[1]
                entry[1] += 1
                if not self._stack and self._pid != self.owner_pid:
                    self._flush_worker()
            if count_bytes:
                entry[2] += _array_bytes(args, result)
            return result

        return traced

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._own_process()
            self._entry(name)[1] += 1
            return fn(*args, **kwargs)

        return counted

    def _flush_worker(self) -> None:
        path = os.path.join(self.trace_dir, f"worker-{self._pid}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(self.totals, fh)
        os.replace(path + ".tmp", path)

    def install(self) -> None:
        """Wrap every span target and counter that the package still has."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "fdeconv" or key.startswith("fdeconv.")
        ]
        for module_name, attr, name in SPANS:
            module = importlib.import_module(f"fdeconv.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self.span(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for module_name, cls_name, name in COUNTERS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            if cls is None:
                continue
            original = cls.__dict__.get("__init__")
            if original is None:
                continue
            self._patches.append((cls, "__init__", original))
            cls.__init__ = self.counter(name, original)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def merge_workers(self) -> None:
        """Add the totals that pool workers wrote, then remove their files."""
        for entry in sorted(os.listdir(self.trace_dir)):
            if not (entry.startswith("worker-") and entry.endswith(".json")):
                continue
            path = os.path.join(self.trace_dir, entry)
            with open(path, encoding="utf-8") as fh:
                for name, (self_s, calls, nbytes) in json.load(fh).items():
                    total = self._entry(name)
                    total[0] += self_s
                    total[1] += calls
                    total[2] += nbytes
            os.unlink(path)
