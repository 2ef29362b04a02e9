"""The single trace-acquisition path and every fallback behind it.

Every consumer of a run's trace — the Session stages and the service
ops alike — must answer exactly what a store-less reference answers,
whether the stored entry is corrupt, the store cannot publish an
entry, or there is no store at all; and a program the store already
holds is never executed again.
"""

from __future__ import annotations

import json

import pytest

from repro.api import analyze_program
from repro.cache.config import CacheConfig
from repro.cache.stackdist import ProfileStore
from repro.compiler.driver import compile_source
from repro.export import report_to_dict
from repro.machine.errors import StepLimitExceeded
from repro.machine.simulator import Machine
from repro.pipeline.acquire import Acquisition
from repro.pipeline.session import Session
from repro.service import ops
from repro.service.protocol import parse_request
from repro.store import TraceStore, TraceStoreWriter, trace_key
from repro.tlb import TlbConfig
from tests.conftest import SAMPLE_SOURCE

MAX_STEPS = 300_000_000        # the Session and protocol default
ODD = CacheConfig(size=2048, assoc=2, block_size=16)
TLB = (TlbConfig(page_size=4096, entries=4, assoc=0),
       TlbConfig(page_size=4096, entries=8, assoc=2))

SESSION_CONSUMERS = {
    "stats": lambda s: s.stats("w", cache_config=ODD),
    "tlb_stats": lambda s: s.tlb_stats("w", configs=TLB),
    "pcax": lambda s: s.pcax("w").loads,
    "redundancy": lambda s: s.redundancy("w").loads,
}

OP_CONSUMERS = {
    "run_simulate": ("simulate", {"configs": [
        {"size": 2048, "assoc": 2, "block_size": 16}]}),
    "run_tlb": ("tlb", {"geometries": [
        {"page_size": t.page_size, "entries": t.entries,
         "assoc": t.assoc} for t in TLB]}),
    "run_redundancy": ("redundancy", {}),
    "run_analysis": ("analyze", {}),
}

CASES = ("truncated-bin", "close-raises", "no-store")


def _params(op: str, extra: dict) -> dict:
    payload = {"op": op, "params": {"source": SAMPLE_SOURCE, **extra}}
    return parse_request(json.dumps(payload).encode()).params


def _session(cache_dir=None, **kwargs) -> Session:
    session = Session(cache_dir=cache_dir, **kwargs)
    session.add_source("w", SAMPLE_SOURCE)
    return session


def _populate(root) -> TraceStore:
    """Stream SAMPLE_SOURCE's trace into a store under ``root``."""
    _session(root).profile("w")
    store = TraceStore(root / "traces")
    assert store.contains(trace_key(SAMPLE_SOURCE, False, MAX_STEPS))
    return store


def _truncate(store: TraceStore) -> None:
    (path,) = store.root.glob("tr-*.bin")
    path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])


def _failing_close(self, **kwargs):
    self.abort()
    raise OSError("disk full")


@pytest.fixture
def executions(monkeypatch):
    """Counts machine executions, materialized or streamed."""
    count = [0]
    for name in ("run", "run_streaming"):
        original = getattr(Machine, name)

        def counted(self, *args, _original=original, **kwargs):
            count[0] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Machine, name, counted)
    return count


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("consumer", sorted(SESSION_CONSUMERS))
def test_session_fallback_matches_storeless(consumer, case, tmp_path,
                                            monkeypatch):
    compute = SESSION_CONSUMERS[consumer]
    reference = compute(_session(use_disk_cache=False))
    if case == "truncated-bin":
        _truncate(_populate(tmp_path))
        session = _session(tmp_path)
    elif case == "close-raises":
        monkeypatch.setattr(TraceStoreWriter, "close", _failing_close)
        session = _session(tmp_path)
    else:
        session = _session(tmp_path)
        session._trace_store = None
    assert compute(session) == reference
    if case != "no-store":
        assert not TraceStore(tmp_path / "traces").keys()


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("consumer", sorted(OP_CONSUMERS))
def test_op_fallback_matches_clean_path(consumer, case, tmp_path,
                                        monkeypatch):
    op, extra = OP_CONSUMERS[consumer]
    params = _params(op, extra)
    compute = getattr(ops, consumer)
    monkeypatch.setattr(ops, "_PROFILE_STORE", ProfileStore())
    monkeypatch.setattr(ops, "_TRACE_STORE",
                        TraceStore(tmp_path / "clean" / "traces"))
    reference = compute(params)
    if op == "analyze":
        assert reference == report_to_dict(analyze_program(SAMPLE_SOURCE))
    monkeypatch.setattr(ops, "_PROFILE_STORE", ProfileStore())
    store = None
    if case == "truncated-bin":
        store = _populate(tmp_path)
        _truncate(store)
    elif case == "close-raises":
        monkeypatch.setattr(TraceStoreWriter, "close", _failing_close)
        store = TraceStore(tmp_path / "traces")
    monkeypatch.setattr(ops, "_TRACE_STORE", store)
    assert compute(params) == reference
    if store is not None:
        assert not store.keys()


def test_analyze_then_simulate_executes_once(tmp_path, monkeypatch,
                                             executions):
    monkeypatch.setattr(ops, "_PROFILE_STORE", ProfileStore())
    monkeypatch.setattr(ops, "_TRACE_STORE", TraceStore(tmp_path))
    analyzed = ops.run_analysis(_params("analyze", {}))
    ops.run_simulate(_params("simulate", OP_CONSUMERS["run_simulate"][1]))
    assert executions[0] == 1
    assert ops.run_analysis(_params("analyze", {})) == analyzed
    assert executions[0] == 1
    assert analyzed == report_to_dict(analyze_program(SAMPLE_SOURCE))


class TestAcquisition:
    def _acquisition(self, store):
        return Acquisition(store, "k",
                           lambda: compile_source(SAMPLE_SOURCE),
                           MAX_STEPS)

    def test_hit_takes_facts_from_the_open(self, tmp_path, monkeypatch,
                                           executions):
        store = TraceStore(tmp_path)
        cold = self._acquisition(store)
        cold.source()
        assert executions[0] == 1 and cold.trace is None
        reads = []
        meta = store.meta
        monkeypatch.setattr(store, "meta",
                            lambda key: reads.append(key) or meta(key))
        warm = self._acquisition(store)
        warm.source()
        warm.facts()
        assert executions[0] == 1
        assert reads == ["k"]            # the open's own parse only
        assert warm.execution.steps == cold.execution.steps
        assert warm.execution.block_counts == cold.execution.block_counts
        assert warm.execution.output == cold.execution.output

    def test_facts_execute_without_opening(self, tmp_path, monkeypatch,
                                           executions):
        store = TraceStore(tmp_path)

        def no_open(key):
            raise AssertionError("facts opened a stream")

        monkeypatch.setattr(store, "open", no_open)
        facts = self._acquisition(store).facts()
        assert executions[0] == 1 and facts.block_counts
        assert self._acquisition(store).facts().steps == facts.steps
        assert executions[0] == 1

    def test_storeless_materializes_once(self, executions):
        acquisition = self._acquisition(None)
        facts = acquisition.facts()
        assert acquisition.source() is acquisition.trace
        assert executions[0] == 1 and facts.trace is acquisition.trace

    def test_failed_run_aborts_the_writer(self, tmp_path):
        store = TraceStore(tmp_path)
        acquisition = Acquisition(
            store, "k", lambda: compile_source(SAMPLE_SOURCE), 50)
        with pytest.raises(StepLimitExceeded):
            acquisition.source()
        assert not store.keys()
        assert not list(tmp_path.glob("*.tmp"))
