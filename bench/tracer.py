"""In-memory span tracer for the traced benchmark run.

The program itself carries no instrumentation, so the tracer wraps medcover
functions from outside: each layer function is replaced, in every medcover
module that binds it, by a wrapper that records a span around the call. A
name is wrapped where its caller looks it up (``medcover.suites.opt_continuous``,
``medcover.oracle.weiszfeld``, ...), so calls between library modules are
traced as well as the benchmark's own calls.

A span is a list ``[id, parent_id, name, start, end, duration, child_time,
item]``. Spans stay in memory and are written out once, at the end of the
run. Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
import time
from collections import Counter

ID, PARENT, NAME, START, END, DUR, CHILD, ITEM = range(8)

BLOCK_MEDIAN = "oracle.block_cost.median"
BLOCK_MEANS = "oracle.block_cost.means"
WEISZFELD = "costs.weiszfeld"

# (module that defines the function, function name, span name)
LAYERS = (
    ("costs", "weiszfeld", WEISZFELD),
    ("costs", "extra_cost", "costs.extra_cost"),
    ("oracle", "_centroid_cost_exact", BLOCK_MEANS),
    ("oracle", "opt_continuous", "oracle.opt_continuous"),
    ("oracle", "opt_discrete", "oracle.opt_discrete"),
    ("oracle", "min_vertex_cover", "oracle.min_vertex_cover"),
    ("oracle", "enumerate_triangle_free", "oracle.enumerate_triangle_free"),
    ("oracle", "canonical_form", "oracle.canonical_form"),
    ("graphs", "maximum_matching", "graphs.maximum_matching"),
    ("graphs", "classify", "graphs.classify"),
    ("decomposition", "certify_lower_bound", "decomposition.certify_lower_bound"),
    ("covers", "soundness_assemble", "covers.soundness_assemble"),
    ("covers", "cover_matching_two", "covers.constructions"),
    ("covers", "cover_general", "covers.constructions"),
    ("covers", "cover_case_dispatch", "covers.constructions"),
    ("covers", "cover_nonstar_means", "covers.constructions"),
    ("reduction", "reduce_graph", "reduction.reduce_graph"),
    ("reduction", "reduce_hypergraph", "reduction.reduce_hypergraph"),
    ("suites", "suite_decomposition", "suites.decomposition_soundness"),
    ("suites", "suite_extra_cost", "suites.extra_cost_floor"),
    ("suites", "suite_covers", "suites.cover_extraction"),
)

# Bindings whose spans get a more specific name than the function's layer:
# the block-cost table of opt_continuous calls weiszfeld as bound in oracle.
RENAMED = {("medcover.oracle", "weiszfeld"): BLOCK_MEDIAN}

GENERATORS = frozenset({"oracle.enumerate_triangle_free"})
ERROR_COUNTED = frozenset({"covers.soundness_assemble", "covers.constructions"})

# Per-layer metrics read straight from the counters.
COUNTED = (
    "costs.weiszfeld.iterations",
    "costs.weiszfeld.not_converged",
    "costs.extra_cost.calls",
    "costs.extra_cost.busy_s",
    "oracle.opt_continuous.calls",
    "oracle.opt_continuous.busy_s",
    "oracle.opt_discrete.calls",
    "oracle.opt_discrete.busy_s",
    "oracle.opt_discrete.subsets",
    "oracle.min_vertex_cover.calls",
    "oracle.min_vertex_cover.busy_s",
    "oracle.enumerate_triangle_free.busy_s",
    "oracle.enumerate_triangle_free.graphs",
    "oracle.canonical_form.calls",
    "oracle.canonical_form.busy_s",
    "graphs.maximum_matching.calls",
    "graphs.maximum_matching.busy_s",
    "graphs.classify.calls",
    "graphs.classify.busy_s",
    "decomposition.certify_lower_bound.calls",
    "decomposition.certify_lower_bound.busy_s",
    "covers.soundness_assemble.calls",
    "covers.soundness_assemble.busy_s",
    "covers.soundness_assemble.errors",
    "covers.constructions.calls",
    "covers.constructions.busy_s",
    "covers.constructions.errors",
    "reduction.reduce_graph.calls",
    "reduction.reduce_graph.busy_s",
    "reduction.reduce_hypergraph.calls",
    "reduction.reduce_hypergraph.busy_s",
    "suites.decomposition_soundness.busy_s",
    "suites.decomposition_soundness.checks",
    "suites.extra_cost_floor.busy_s",
    "suites.extra_cost_floor.checks",
    "suites.cover_extraction.busy_s",
    "suites.cover_extraction.checks",
    "bench.checks.busy_s",
)


class Tracer:
    """Records spans and per-layer counts while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        self.blocks: set = set()
        self.item = None
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self.stack[-1][ID] if self.stack else None
        rec = [len(self.spans), parent, name, None, None, 0.0, 0.0, self.item]
        self.spans.append(rec)
        self.counts[name + ".calls"] += 1
        return rec

    def _resume(self, rec: list) -> bool:
        """Push ``rec``; True when no enclosing span has the same name."""
        outer = self.active[rec[NAME]] == 0
        self.active[rec[NAME]] += 1
        self.stack.append(rec)
        t = time.perf_counter()
        if rec[START] is None:
            rec[START] = t
        rec.append(t)  # open time of this interval; _suspend pops it
        return outer

    def _suspend(self, rec: list, outer: bool) -> None:
        t = time.perf_counter()
        d = t - rec.pop()
        rec[END] = t
        rec[DUR] += d
        self.stack.pop()
        self.active[rec[NAME]] -= 1
        if self.stack:
            self.stack[-1][CHILD] += d
        if outer:
            self.counts[rec[NAME] + ".busy_s"] += d

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        outer = self._resume(rec)
        try:
            yield
        finally:
            self._suspend(rec, outer)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name: str):
        if name in GENERATORS:
            return self._wrap_generator(fn, name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name)
            outer = tracer._resume(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as ex:
                if outer and name in ERROR_COUNTED and _is_medcover_error(ex):
                    tracer.counts[name + ".errors"] += 1
                raise
            finally:
                tracer._suspend(rec, outer)
            tracer._record(name, args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name)
            gen = None
            while True:
                outer = tracer._resume(rec)
                try:
                    if gen is None:
                        gen = fn(*args, **kwargs)
                    value = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._suspend(rec, outer)
                tracer.counts[name + ".graphs"] += 1
                yield value

        return traced

    def _record(self, name: str, args, kwargs, result) -> None:
        c = self.counts
        if name in (WEISZFELD, BLOCK_MEDIAN):
            c["costs.weiszfeld.iterations"] += result.iterations
            c["costs.weiszfeld.not_converged"] += not result.converged
        if name in (BLOCK_MEDIAN, BLOCK_MEANS):
            points = args[0] if args else kwargs["points"]
            self.blocks.add((name, tuple(tuple(p) for p in points)))
        elif name == "oracle.opt_discrete":
            inst = args[0] if args else kwargs["inst"]
            c[name + ".subsets"] += math.comb(len(inst.candidate_centers), inst.k)
        elif name.startswith("suites."):
            c[name + ".checks"] += result["checks"]

    def install(self) -> None:
        """Wrap every binding of every layer function in loaded medcover modules."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "medcover" or n.startswith("medcover."))
        ]
        for home, attr, name in LAYERS:
            original = getattr(sys.modules["medcover." + home], attr)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    span_name = RENAMED.get((mod.__name__, attr), name)
                    setattr(mod, attr, self._wrap(original, span_name))
                    self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def top_level_time(self) -> float:
        """Sum of top-level span durations, which equals the sum of all self times."""
        return sum(s[DUR] for s in self.spans if s[PARENT] is None)

    def self_time(self, name: str) -> float:
        return sum(s[DUR] - s[CHILD] for s in self.spans if s[NAME] == name)

    def metrics(self, wall: float) -> dict:
        """Per-layer metrics of the traced pass (units are in BENCHMARK.json)."""
        c = self.counts
        med, mea = BLOCK_MEDIAN, BLOCK_MEANS
        evals = c[med + ".calls"] + c[mea + ".calls"]
        canon = c["oracle.canonical_form.calls"]
        out = {
            "costs.weiszfeld.calls": c[WEISZFELD + ".calls"] + c[med + ".calls"],
            "costs.weiszfeld.busy_s": c[WEISZFELD + ".busy_s"] + c[med + ".busy_s"],
            "oracle.opt_continuous.self_s": self.self_time("oracle.opt_continuous"),
            "oracle.block_cost.median_evals": c[med + ".calls"],
            "oracle.block_cost.median_busy_s": c[med + ".busy_s"],
            "oracle.block_cost.means_evals": c[mea + ".calls"],
            "oracle.block_cost.means_busy_s": c[mea + ".busy_s"],
            "oracle.block_cost.distinct_ratio": len(self.blocks) / evals if evals else 0.0,
            "oracle.canonical_form.yield_ratio": (
                c["oracle.enumerate_triangle_free.graphs"] / canon if canon else 0.0
            ),
            "trace.coverage_frac": self.top_level_time() / wall,
        }
        for name in COUNTED:
            out[name] = c[name]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["id", "parent", "name", "start", "end", "self_s", "item"],\n')
            fh.write(' "spans": [\n')
            for i, s in enumerate(self.spans):
                row = [s[ID], s[PARENT], s[NAME], s[START], s[END], s[DUR] - s[CHILD], s[ITEM]]
                fh.write(("  " if i == 0 else " ,") + json.dumps(row) + "\n")
            fh.write("]}\n")


def _is_medcover_error(ex: BaseException) -> bool:
    return isinstance(ex, sys.modules["medcover.errors"].MedcoverError)


class NullTracer:
    """Stand-in used by untraced runs: spans cost one no-op context."""

    item = None

    def span(self, name: str):
        return contextlib.nullcontext()
