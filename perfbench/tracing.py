"""Spans and counts around calls into dynfuse, recorded from outside ``src/``.

The traced run calls ``dynfuse.cli.main`` in-process. Every call the CLI
makes through a module attribute (``ingest.load_matrix``,
``engine.run_hier_mpf``, ``evaluate.write_json``, ...) and every call one
module makes into another (engine into fusion, evaluate into engine) is
seen by temporarily replacing the name the caller looks up in that
module's namespace. ``ratio_score`` and ``fuse_subset`` run hundreds of
thousands of times, so they are counted rather than given spans.

Spans stay in memory and are written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from math import comb


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counts for one traced run.

    Each thread keeps its own stack of open spans. A span opened on a
    worker thread with an empty stack takes the main thread's innermost
    open span as its parent: the engine's thread pool runs on behalf of
    the strategy call that started it.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        # next() on an itertools.count is one C call, so a per-call counter
        # needs no lock even on worker threads; it stays cheap at ~10^5 calls
        self._call_counters: dict[str, itertools.count] = {}
        self._stacks: dict[int, list[tuple[int, str]]] = {}  # open (index, name)
        self._main = threading.get_ident()
        self._lock = threading.Lock()

    def open_spans(self) -> list[str]:
        """Names of the spans open on the calling thread, outermost first."""
        return [name for _, name in self._stacks.get(threading.get_ident(), ())]

    @contextmanager
    def span(self, name: str):
        """A span; inside an open span of the same name it adds nothing."""
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack and stack[-1][1] == name:  # e.g. write_recall_outputs -> write_json
            yield
            return
        if stack:
            parent = stack[-1][0]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1][0] if (main and tid != self._main) else None
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        stack.append((index, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = Span(name, start, end, parent, tid)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def traced(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def counted(self, fn, name: str):
        tick = self._call_counters.setdefault(name, itertools.count()).__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)
        return wrapper

    def close(self) -> None:
        """Fold the per-call counters into ``counts`` once the run is over."""
        for name, counter in self._call_counters.items():
            self.counts[name] += next(counter)  # the number of calls so far
        self._call_counters.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds and call count.

        Self time is a span's duration minus the part of it covered by its
        children; children on worker threads may overlap each other, so
        their intervals are merged before they are subtracted.
        """
        spans = [s for s in self.spans if s is not None]
        children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[str, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            if s is None:
                continue
            covered = 0.0
            at = s.start
            for c in sorted(children.get(i, ()), key=lambda c: c.start):
                lo, hi = max(c.start, at), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    at = hi
            entry = out.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            entry["s"] += s.duration
            entry["self_s"] += s.duration - covered
            entry["calls"] += 1
        return out

    def top_level_seconds(self) -> float:
        return sum(s.duration for s in self.spans if s is not None and s.parent is None)

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [asdict(s) for s in self.spans if s is not None],
            "counts": dict(self.counts),
        }


def subsets_scored(normalized, config, degenerate=()) -> int:
    """Subsets ``select_best_subset`` enumerates for one call."""
    n = len(normalized)
    available = n - len(frozenset(degenerate))
    hi = min(config.resolved_max_subset_size(n), available)
    return sum(comb(available, k) for k in range(config.min_subset_size, hi + 1))


def _select_best_subset_hook(tracer: Tracer, fn, name: str):
    traced = tracer.traced(fn, name)

    @functools.wraps(fn)
    def wrapper(normalized, config, degenerate=()):
        tracer.count("fusion.subsets_scored", subsets_scored(normalized, config, degenerate))
        return traced(normalized, config, degenerate)
    return wrapper


def _load_matrix_hook(tracer: Tracer, fn, name: str):
    traced = tracer.traced(fn, name)

    @functools.wraps(fn)
    def wrapper(path, *args, **kwargs):
        tracer.count("ingest.bytes_read", os.path.getsize(path))
        return traced(path, *args, **kwargs)
    return wrapper


def _strategy_hook(tracer: Tracer, fn, name: str):
    traced = tracer.traced(fn, name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        # best-single-oracle runs static-subset inside it: one strategy, one span
        if STRATEGY_SPANS.intersection(tracer.open_spans()):
            return fn(*args, **kwargs)
        result = traced(*args, **kwargs)
        tracer.count("engine.queries", len(result.records))
        tracer.count("engine.invalid_queries", sum(not r.valid for r in result.records))
        return result
    return wrapper


HOOK_KINDS = {
    "span": lambda tracer, fn, name: tracer.traced(fn, name),
    "count": lambda tracer, fn, name: tracer.counted(fn, name),
    "load": _load_matrix_hook,
    "select": _select_best_subset_hook,
    "strategy": _strategy_hook,
}

# (module, attribute looked up by the caller, hook kind, metric name).
# The metrics of a hook whose attribute is gone are reported absent.
HOOKS = (
    ("ingest", "load_matrix", "load", "ingest.load_matrix"),
    ("ingest", "assemble_tensor", "span", "ingest.assemble_tensor"),
    ("core", "GroundTruth.from_json", "span", "core.ground_truth"),
    ("engine", "run_dyn_mpf", "strategy", "engine.dyn-mpf"),
    ("engine", "run_full_mpf", "strategy", "engine.full-mpf"),
    ("engine", "run_random_pair", "strategy", "engine.random-pair"),
    ("engine", "run_hier_mpf", "strategy", "engine.hier-mpf"),
    ("engine", "run_static_subset", "strategy", "engine.static-subset"),
    ("engine", "run_best_single_oracle", "strategy", "engine.best-single-oracle"),
    ("engine", "write_result_json", "span", "engine.write_result_json"),
    ("engine", "select_best_subset", "select", "fusion.select_best_subset"),
    ("engine", "normalize_query_slices", "span", "fusion.normalize"),
    ("engine", "minmax_normalize", "span", "fusion.normalize"),
    ("engine", "technique_weights", "span", "fusion.technique_weights"),
    ("engine", "weighted_fuse_and_match", "span", "fusion.weighted_fuse_and_match"),
    ("engine", "ratio_score", "count", "fusion.ratio_score"),
    ("engine", "fuse_subset", "count", "fusion.fuse_subset"),
    ("fusion", "ratio_score", "count", "fusion.ratio_score"),
    ("fusion", "fuse_subset", "count", "fusion.fuse_subset"),
    ("evaluate", "run_dyn_mpf", "strategy", "engine.dyn-mpf"),
    ("evaluate", "recall_at_k", "span", "evaluate.recall_at_k"),
    ("evaluate", "aliasing_histogram", "span", "evaluate.aliasing_histogram"),
    ("evaluate", "frame_separation_sweep", "span", "evaluate.frame_separation_sweep"),
    ("evaluate", "write_recall_outputs", "span", "evaluate.write"),
    ("evaluate", "write_histogram_outputs", "span", "evaluate.write"),
    ("evaluate", "write_json", "span", "evaluate.write"),
    ("evaluate", "write_csv", "span", "evaluate.write"),
)
STRATEGY_SPANS = frozenset(metric for *_, kind, metric in HOOKS if kind == "strategy")
# counts a hook adds besides its span; absent along with it
DERIVED = {
    "ingest.load_matrix": ("ingest.bytes_read",),
    "fusion.select_best_subset": ("fusion.subsets_scored",),
}


@contextmanager
def hooked(tracer: Tracer, modules: dict):
    """Install every hook whose target exists; yield the absent metric names.

    ``Owner.attr`` targets are attributes of a class in the module; a
    classmethod there is unwrapped, hooked and wrapped again.
    """
    saved = []
    absent = set()
    try:
        for mod_name, target, kind, metric in HOOKS:
            owner = modules[mod_name]
            *path, attr = target.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                absent.add(metric)
                continue
            if isinstance(original, classmethod):
                hook = classmethod(HOOK_KINDS[kind](tracer, original.__func__, metric))
            else:
                hook = HOOK_KINDS[kind](tracer, original, metric)
            saved.append((owner, attr, original))
            setattr(owner, attr, hook)
        yield absent
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
