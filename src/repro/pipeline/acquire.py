"""How one run's access trace is acquired: store first, execute once.

:class:`Acquisition` is the one place that executes a program for its
trace, for the pipeline session and the service ops alike.  Its
:meth:`~Acquisition.source` is, in order: a trace-store hit (execution
facts from the meta record the open parsed); else the execution
streamed into the store and the entry re-opened; else, with no store or
one that could not take the entry, the execution materialized.
:meth:`~Acquisition.replay` drops a stored entry that fails to decode
and re-executes materialized; :meth:`~Acquisition.facts` answers steps
and block counts without opening a stream.
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

from repro.asm.program import Program
from repro.cache.model import TraceSource
from repro.machine.simulator import ExecutionResult, Machine
from repro.machine.trace import MemoryTrace
from repro.store.tracestore import TraceStore, TraceStoreCorrupt

T = TypeVar("T")


def _meta_facts(meta: Optional[dict]) -> Optional[ExecutionResult]:
    """The execution facts a stored meta record carries, if readable."""
    try:
        return ExecutionResult(
            steps=int(meta.get("steps", 0)),
            exit_code=int(meta.get("exit_code", 0)),
            block_counts={int(a): int(c) for a, c
                          in (meta.get("block_counts") or {}).items()},
            trace=None,
            output=list(meta.get("output") or []))
    except (AttributeError, TypeError, ValueError):
        return None


class Acquisition:
    """One run's trace, acquired store-first, replayed many ways.

    ``program`` is a thunk, called at most once.  ``trace`` seeds the
    source with a trace the caller holds.  Entry points leave the run's
    facts in ``execution`` and any trace they materialized in ``trace``.
    """

    def __init__(self, store: Optional[TraceStore], key: str,
                 program: Callable[[], Program], max_steps: int,
                 engine: Optional[str] = None,
                 trace: Optional[MemoryTrace] = None):
        self._store = store
        self._key = key
        self._program_thunk = program
        self._program: Optional[Program] = None
        self._max_steps = max_steps
        # Operator-side switch only: both engines are bit-identical,
        # so the engine is absent from every store and cache key.
        self._engine = engine
        self._source: Optional[TraceSource] = trace
        self.execution: Optional[ExecutionResult] = None
        self.trace: Optional[MemoryTrace] = None

    @property
    def program(self) -> Program:
        if self._program is None:
            self._program = self._program_thunk()
        return self._program

    def _run(self, streaming: bool) -> None:
        """Execute once, into the store when possible (then re-open
        it), else in memory (then the trace is the source)."""
        machine = Machine(self.program, trace_memory=True,
                          max_steps=self._max_steps, engine=self._engine)
        writer = None
        if streaming and self._store is not None:
            try:
                writer = self._store.writer(self._key)
            except OSError:
                writer = None
        if writer is None:
            self.execution = machine.run()
            self._source = self.trace = self.execution.trace
            return
        try:
            self.execution = machine.run_streaming(writer)
        except BaseException:
            writer.abort()
            raise
        try:
            writer.close(block_counts=self.execution.block_counts,
                         steps=self.execution.steps,
                         exit_code=self.execution.exit_code,
                         output=self.execution.output)
        except OSError:
            self._store.delete(self._key)

    def _open(self) -> Optional[TraceSource]:
        if self._store is None:
            return None
        stream = self._store.open(self._key)
        if stream is not None and self.execution is None:
            self.execution = _meta_facts(stream.meta)
        return stream

    def source(self) -> TraceSource:
        """The cheapest replayable source (see the module docstring)."""
        if self._source is None:
            self._source = self._open()
        if self._source is None:
            self._run(streaming=True)
            if self._source is None:
                self._source = self._open()
            if self._source is None:
                self._run(streaming=False)
        return self._source

    def replay(self, compute: Callable[[TraceSource], T]) -> T:
        """``compute(source)``, re-executing once over a corrupt entry."""
        try:
            return compute(self.source())
        except TraceStoreCorrupt:
            self._store.delete(self._key)
            self._run(streaming=False)
            return compute(self._source)

    def facts(self) -> ExecutionResult:
        """Steps and block counts: the stored meta, else one execution."""
        if self.execution is None and self._store is not None:
            self.execution = _meta_facts(self._store.meta(self._key))
        if self.execution is None or not self.execution.block_counts:
            self._run(streaming=True)
        return self.execution
