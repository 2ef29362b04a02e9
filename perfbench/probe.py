"""Counters and spans around the calls into each layer of ``repro``.

A :class:`Probe` wraps the public functions the benchmark attributes to
layers (``compiler.compile_source``, ``Machine.run``, ``simulate_sweep``,
...).  Installed in *counting* mode it only bumps deterministic work
counters (calls, executions, machine steps, rows encoded and decoded,
trace passes, profile-store hits and misses); in *tracing* mode it also
records one span per call: name, start, end, parent span and operation
id.  Spans stay in memory; the caller writes them out at the end.

Module-level functions are re-bound in every loaded module that holds
the original object, so ``from x import f`` bindings are wrapped too;
methods are wrapped on their class.  :meth:`Probe.uninstall` restores
every binding.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Optional

#: Layer functions: (layer span name, module, attribute).
FUNCTIONS = (
    ("compiler.compile_source", "repro.compiler.driver", "compile_source"),
    ("patterns.build_load_infos", "repro.patterns.builder",
     "build_load_infos"),
    ("analytic.predict_profile", "repro.analytic.engine",
     "predict_profile"),
    ("cache.simulate_sweep", "repro.cache.stackdist", "simulate_sweep"),
    ("cache.simulate_trace_multi", "repro.cache.model",
     "simulate_trace_multi"),
    ("tlb.simulate_tlb", "repro.tlb.model", "simulate_tlb"),
    ("tlb.pcax_profile", "repro.tlb.pcax", "pcax_profile"),
    ("redundancy.analyze_redundancy", "repro.redundancy.analyzer",
     "analyze_redundancy"),
)

#: Layer methods: (layer span name, module, class, attribute).
METHODS = (
    ("heuristic.classify", "repro.heuristic.classifier",
     "DelinquencyClassifier", "classify"),
    ("analytic.evaluate", "repro.analytic.engine", "AnalyticProfile",
     "evaluate"),
    ("machine.init", "repro.machine.simulator", "Machine", "__init__"),
    ("machine.run", "repro.machine.simulator", "Machine", "run"),
    ("machine.run_streaming", "repro.machine.simulator", "Machine",
     "run_streaming"),
    ("campaign.run", "repro.campaign.engine", "Campaign", "run"),
)

#: Public Session stage methods (the ``pipeline`` layer).
SESSION_STAGES = (
    "program", "load_infos", "profile", "stats_multi", "stats",
    "tlb_stats", "pcax", "redundancy", "analytic_profile",
    "predict_stats", "measurement", "warm",
)

#: Modules whose import the wrappers need before :meth:`install`.
MODULES = sorted({module for _, module, _ in FUNCTIONS}
                 | {module for _, module, _, _ in METHODS}
                 | {"repro.pipeline.session", "repro.store.tracestore",
                    "repro.experiments.runner", "repro.service.ops",
                    "repro.api", "repro.tlb", "repro.redundancy",
                    "repro.analytic"})


class Probe:
    """Counters always, spans only when ``trace`` is on."""

    def __init__(self, trace: bool = False):
        self.trace = trace
        self.counters: Counter = Counter()
        self.spans: list[dict[str, Any]] = []
        self.op: Optional[str] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._restore: list[Callable[[], None]] = []

    # -- spans -------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Optional[dict[str, Any]]:
        if not self.trace:
            return None
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        span = {"id": span_id, "name": name,
                "parent": stack[-1] if stack else None, "op": self.op,
                "start": time.perf_counter(), "end": None}
        stack.append(span_id)
        return span

    def end(self, span: Optional[dict[str, Any]]) -> None:
        if span is None:
            return
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == span["id"]:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        handle = self.begin(name)
        try:
            yield
        finally:
            self.end(handle)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    # -- wrapping ----------------------------------------------------
    def _wrap(self, name: str, original: Callable,
              after: Optional[Callable[[Any, tuple, dict], None]] = None
              ) -> Callable:
        probe = self
        layer = name.split(".")[0]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            probe.counters[name + ".calls"] += 1
            handle = probe.begin(name)
            previous = getattr(probe._local, "layer", None)
            probe._local.layer = layer
            try:
                result = original(*args, **kwargs)
            finally:
                probe._local.layer = previous
                probe.end(handle)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def _rebind_function(self, original: Callable,
                         wrapper: Callable) -> None:
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append(
                        lambda m=module, a=attr: setattr(m, a, original))

    def _rebind_method(self, cls: type, attr: str,
                       wrapper: Callable) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper)
        self._restore.append(lambda: setattr(cls, attr, original))

    def install(self) -> "Probe":
        import importlib
        for module in MODULES:
            importlib.import_module(module)
        after = {
            "patterns.build_load_infos": self._after_load_infos,
            "analytic.predict_profile": self._after_predict,
            "machine.run": self._after_execution,
            "machine.run_streaming": self._after_execution,
        }
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            self._rebind_function(
                original, self._wrap(name, original, after.get(name)))
        for name, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            self._rebind_method(cls, attr, self._wrap(
                name, cls.__dict__[attr], after.get(name)))
        session_cls = sys.modules["repro.pipeline.session"].Session
        for stage in SESSION_STAGES:
            self._rebind_method(session_cls, stage, self._wrap(
                f"pipeline.{stage}", session_cls.__dict__[stage]))
        self._install_store()
        self._install_profile_store()
        self._install_experiments()
        return self

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- result hooks ------------------------------------------------
    def _after_load_infos(self, result, args, kwargs) -> None:
        self.counters["patterns.loads"] += len(result)

    def _after_predict(self, result, args, kwargs) -> None:
        if result.confident:
            self.counters["analytic.confident"] += 1

    def _after_execution(self, result, args, kwargs) -> None:
        self.counters["machine.runs"] += 1
        self.counters["machine.steps"] += result.steps

    # -- trace store -------------------------------------------------
    def _install_store(self) -> None:
        module = sys.modules["repro.store.tracestore"]
        probe = self
        writer_cls = module.TraceStoreWriter
        store_cls = module.TraceStore
        encode_chunk = writer_cls.__dict__["__call__"]
        encode_close = writer_cls.__dict__["close"]
        open_stream = store_cls.__dict__["open"]

        def call(writer, chunk):
            with probe.span("store.encode"):
                encode_chunk(writer, chunk)
            probe.counters["store.rows_written"] += len(chunk)

        def close(writer, **kwargs):
            with probe.span("store.encode"):
                meta = encode_close(writer, **kwargs)
            probe.counters["store.entries_written"] += 1
            probe.counters["store.bytes_written"] += \
                writer._store._bin(writer._key).stat().st_size
            return meta

        def open_(store, key):
            with probe.span("store.open"):
                stream = open_stream(store, key)
            probe.counters["store.opens"] += 1
            if stream is None:
                probe.counters["store.open_misses"] += 1
                return None
            factory = stream._factory
            stream._factory = lambda: probe._decode(factory())
            return stream

        self._rebind_method(writer_cls, "__call__", call)
        self._rebind_method(writer_cls, "close", close)
        self._rebind_method(store_cls, "open", open_)

    def _decode(self, chunks: Iterable) -> Iterator:
        """One pass over a stored trace, decode time as child spans."""
        layer = getattr(self._local, "layer", None) or "other"
        self.counters["store.passes"] += 1
        self.counters[f"{layer}.trace_passes"] += 1
        iterator = iter(chunks)
        while True:
            handle = self.begin("store.decode")
            try:
                chunk = next(iterator)
            except StopIteration:
                self.end(handle)
                return
            except BaseException:
                self.end(handle)
                raise
            self.end(handle)
            self.counters["store.rows_decoded"] += len(chunk)
            yield chunk

    # -- profile store -----------------------------------------------
    def _install_profile_store(self) -> None:
        cls = sys.modules["repro.cache.stackdist"].ProfileStore
        probe = self
        for attr in ("get", "get_analytic"):
            original = cls.__dict__[attr]

            def lookup(store, digest, block_size, _original=original):
                found = _original(store, digest, block_size)
                probe.counters["cache.profile_hits" if found is not None
                               else "cache.profile_misses"] += 1
                return found

            self._rebind_method(cls, attr, lookup)

    # -- tables ------------------------------------------------------
    def _install_experiments(self) -> None:
        table = sys.modules["repro.experiments.runner"].EXPERIMENTS
        for number, original in list(table.items()):
            table[number] = self._wrap(f"experiments.table{number}",
                                       original)
            self._restore.append(
                lambda n=number, o=original: table.__setitem__(n, o))


# -- span arithmetic ----------------------------------------------------

def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Iterable[dict[str, Any]]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, so overlapping
    children (threads) are not subtracted twice and a child that
    outlives its parent never drives the self time negative.
    """
    spans = [s for s in spans if s.get("end") is not None]
    children: dict[Any, list[tuple[float, float]]] = {}
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is None:
            continue
        start = max(span["start"], parent["start"])
        end = min(span["end"], parent["end"])
        if end > start:
            children.setdefault(parent["id"], []).append((start, end))
    return {span["id"]: (span["end"] - span["start"])
            - _union_length(children.get(span["id"], []))
            for span in spans}


def layer_self_times(spans: Iterable[dict[str, Any]]
                     ) -> dict[str, float]:
    """Span name -> summed self time."""
    spans = list(spans)
    own = self_times(spans)
    totals: Counter = Counter()
    for span in spans:
        if span["id"] in own:
            totals[span["name"]] += own[span["id"]]
    return dict(totals)


# -- sample statistics ----------------------------------------------------

def tail_percentile(values: Iterable[float],
                    beyond: int = 10) -> tuple[int, float, int]:
    """The highest whole percentile with at least ``beyond`` samples above.

    Returns ``(percentile, value, sample count)``.  Percentiles are
    searched from 99 down to 50; when none has ``beyond`` samples above
    it (fewer than ``2 * beyond`` samples) no tail is resolvable and the
    median is returned, labelled 50.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    for percentile in range(99, 49, -1):
        rank = max(1, math.ceil(percentile / 100.0 * n))
        if n - rank >= beyond:
            return percentile, ordered[rank - 1], n
    return 50, statistics.median(ordered), n
