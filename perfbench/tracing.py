"""Outside-in spans around the public functions of the program's layers.

The modules bind each other's functions at import (``pricing`` calls its own
``mpdata_step`` name, ``harness`` its own ``integrate``), so each function is
wrapped at the name its caller looks up, and every site of one function
records spans under one layer name.  Spans stay in memory and are written
out once the run ends.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gzip
import itertools
import threading
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute looked up by the caller, span name)
PATCH_SITES = (
    ("pricing", "integrate", "pricing.integrate"),
    ("pricing", "readout", "pricing.readout"),
    ("pricing", "terminal_condition", "pricing.terminal_condition"),
    ("pricing", "build_courant", "pricing.build_courant"),
    ("pricing", "fill_halos_scalar", "grid.fill_halos_scalar"),
    ("pricing", "fill_halos_vector", "grid.fill_halos_vector"),
    ("pricing", "check_stability", "advection.check_stability"),
    ("pricing", "mpdata_step", "advection.mpdata_step"),
    ("advection", "fill_halos_scalar", "grid.fill_halos_scalar"),
    ("advection", "fill_halos_vector", "grid.fill_halos_vector"),
    ("advection", "check_stability", "advection.check_stability"),
    ("advection", "upwind_step", "advection.upwind_step"),
    ("advection", "antidiffusive_courant", "advection.antidiffusive_courant"),
    ("advection", "nonoscillatory_limit", "advection.nonoscillatory_limit"),
    ("harness", "run_table", "harness.run_table"),
    ("harness", "integrate", "pricing.integrate"),
    ("harness", "readout", "pricing.readout"),
    ("harness", "mc_path_averages", "reference.mc_path_averages"),
    ("harness", "mc_result_from_averages", "reference.mc_result_from_averages"),
)

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "op")


class Tracer:
    """Records (id, name, start, end, parent, op) spans; parent 0 is the operation root."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent, self.op))

        return traced

    @contextlib.contextmanager
    def patched(self, modules: dict):
        """Wrap every patch site of ``modules`` (name -> module) and restore on exit."""
        originals = []
        try:
            for mod_name, attr, span_name in PATCH_SITES:
                module = modules[mod_name]
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(SPAN_FIELDS)
            writer.writerows(self.spans)


class SpanStats:
    """Per-name call counts, total and self seconds, and the duration of every step."""

    def __init__(self, spans: list[tuple]):
        child_seconds: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in spans:
            child_seconds[parent] += end - start
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.step_seconds: list[float] = []
        self.ids_of: dict[str, list[int]] = defaultdict(list)
        for span_id, name, start, end, parent, _ in spans:
            seconds = end - start
            self.calls[name] += 1
            self.total[name] += seconds
            self.self_time[name] += seconds - child_seconds.get(span_id, 0.0)
            self.ids_of[name].append(span_id)
            if name == "advection.mpdata_step":
                self.step_seconds.append(seconds)
        self._spans = spans

    def children_of(self, parent_name: str, names: tuple[str, ...]) -> tuple[int, float]:
        """Count and summed seconds of spans named ``names`` directly under ``parent_name`` spans."""
        parents = set(self.ids_of.get(parent_name, ()))
        count, seconds = 0, 0.0
        for _, name, start, end, parent, _ in self._spans:
            if parent in parents and name in names:
                count += 1
                seconds += end - start
        return count, seconds


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
