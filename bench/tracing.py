"""Per-layer spans recorded from outside the package.

:class:`Tracer` replaces each traced public function, in every package
module namespace that binds it, with a wrapper that records a span
(name, start, end, parent, operation). ``cli.main`` is the root span of
each operation. Spans stay in memory until :meth:`Tracer.write` and are
turned into per-operation counts, busy time and self time by
:func:`layer_metrics`. Spans inside the program (for example Gram
assembly versus factorization in the batched kernel) are out of reach
from here.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

PACKAGE = "paired_adjust"
ROOT_SPAN = "cli.main"

TRACED = (
    ("ols_core", "least_squares"),
    ("ols_core", "intercept_variance_classical"),
    ("ols_core", "intercept_variance_hc"),
    ("estimators", "estimate_classical"),
    ("estimators", "estimate_r1"),
    ("estimators", "estimate_r2"),
    ("estimators", "superpop_correct"),
    ("experiment_model", "build_design"),
    ("experiment_model", "load_experiment_csv"),
    ("experiment_model", "validate_design"),
    ("dgp", "generate_sample"),
    ("dgp", "load_science_table"),
    ("rng", "substream"),
    ("randomization_engine", "randomize"),
    ("randomization_engine", "reveal"),
    ("randomization_engine", "run_monte_carlo"),
    ("randomization_engine", "enumerate_exact"),
    ("randomization_engine", "run_study"),
)

# Calls whose peak Python-visible allocation (numpy included) is measured
# with tracemalloc, switched on only for the duration of the call.
_ALLOC_TRACED = ("randomization_engine.enumerate_exact",)
_MONTE_CARLO = "randomization_engine.run_monte_carlo"


class Tracer:
    """Span recorder; install it with ``with tracer:`` and run operations with :meth:`op`."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, operation index]
        self.spans: list[list[Any]] = []
        # Per-operation counters that are not spans: draws, peak allocation.
        self.counters: list[dict[str, float]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod_name, fn_name in TRACED:
            original = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                if module.__dict__.get(fn_name) is original:
                    self._patches.append((module, fn_name, original))
                    setattr(module, fn_name, wrapper)
        return self

    def __exit__(self, *exc: object) -> None:
        for module, fn_name, original in reversed(self._patches):
            setattr(module, fn_name, original)
        self._patches.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self._call(name, fn, args, kwargs)

        return traced

    def op(self, fn: Callable, *args: Any) -> Any:
        """Run one operation as a new root span."""
        self.counters.append(defaultdict(float))
        return self._call(ROOT_SPAN, fn, args, {})

    def _call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, len(self.counters) - 1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        alloc = name in _ALLOC_TRACED
        if alloc:
            tracemalloc.start()
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            if alloc:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                counters = self.counters[span[4]]
                counters[f"{name}.peak_alloc_mb"] = max(counters[f"{name}.peak_alloc_mb"], peak)
        if name == _MONTE_CARLO:
            counters = self.counters[span[4]]
            counters["draws_attempted"] += result.b * len(result.per)
            counters["draws_dropped"] += sum(s.errors for s in result.per.values())
        return result

    def write(self, path: Path, t0: float) -> None:
        """Write every span as CSV, times in seconds from ``t0``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,op,name,start_s,end_s\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{parent},{op},{name},{start - t0!r},{end - t0!r}\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Median over operations of each span name's calls, busy time and self time.

    Busy time is the total duration of a name's outermost spans in one
    operation; self time is the duration of all its spans less the time
    covered by their direct child spans.
    Every traced name appears; those no operation reached read 0.
    """
    ops = len(tracer.counters)
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    per_op: dict[str, list[float]] = defaultdict(lambda: [0.0] * ops)
    for i, (name, start, end, parent, op) in enumerate(tracer.spans):
        per_op[f"{name}.self_s"][op] += end - start - child[i]
        # A function that calls itself (a path opening a file, then
        # recursing on the handle) counts once, at its outermost span.
        while parent >= 0 and tracer.spans[parent][0] != name:
            parent = tracer.spans[parent][3]
        if parent < 0:
            per_op[f"{name}.calls"][op] += 1
            per_op[f"{name}.busy_s"][op] += end - start
    for op, counters in enumerate(tracer.counters):
        for key, value in counters.items():
            per_op[key][op] = value

    out: dict[str, float] = {}
    names = [ROOT_SPAN] + [f"{m}.{f}" for m, f in TRACED]
    for name in names:
        for kind in ("calls", "busy_s", "self_s"):
            key = f"{name}.{kind}"
            value = statistics.median(per_op[key]) if ops else 0.0
            out[key] = int(value) if kind == "calls" and value.is_integer() else value
    for name in _ALLOC_TRACED:
        key = f"{name}.peak_alloc_mb"
        out[key] = statistics.median(per_op[key]) if ops else 0.0
    attempted = sum(per_op["draws_attempted"])
    dropped = sum(per_op["draws_dropped"])
    out["randomization_engine.draws_dropped"] = statistics.median(per_op["draws_dropped"]) if ops else 0.0
    out["randomization_engine.useful_draw_frac"] = (attempted - dropped) / attempted if attempted else 0.0
    return out
