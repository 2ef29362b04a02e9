"""Parallel experiment-engine tests.

Covers the single-pass multi-configuration replay
(:func:`simulate_trace_multi`, :func:`simulate_trace_hierarchy_multi`),
the :meth:`Session.warm` fan-out, and the disk-cache hardening against
concurrent or corrupt writers.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.config import (BASELINE_CONFIG, TRAINING_CONFIG,
                                CacheConfig, associativity_sweep,
                                size_sweep)
from repro.cache.hierarchy import (DEFAULT_HIERARCHY, HierarchyConfig,
                                   simulate_trace_hierarchy,
                                   simulate_trace_hierarchy_multi)
from repro.cache.model import simulate_trace, simulate_trace_multi
from repro.machine.trace import LOAD, PREFETCH, STORE, MemoryTrace
from repro.pipeline.session import (RunKey, Session, WarmReport,
                                    _resolve_jobs, standard_warm_plan)

WL = "129.compress"
SCALE = 0.03

#: Same geometry under every replacement policy, plus a different
#: geometry — the shapes the sweeps exercise.
POLICY_CONFIGS = [
    CacheConfig(1024, 2, 32, replacement="lru"),
    CacheConfig(1024, 2, 32, replacement="fifo"),
    CacheConfig(1024, 2, 32, replacement="random"),
    CacheConfig(4096, 4, 64, replacement="lru"),
]


def trace_of(accesses):
    """accesses: iterable of (pc, addr, kind)."""
    trace = MemoryTrace()
    for pc, addr, kind in accesses:
        trace.append(pc, addr, kind)
    return trace


def stats_key(stats):
    """Every observable field of a CacheStats, for bit-exact compares."""
    return (stats.config, stats.load_accesses, stats.load_misses,
            stats.store_accesses, stats.store_misses,
            stats.prefetch_ops, stats.prefetch_fills)


def hier_key(stats):
    return (stats.config, stats.load_accesses, stats.l1_load_misses,
            stats.l2_load_misses, stats.store_accesses,
            stats.l1_store_misses, stats.l2_store_misses)


@pytest.fixture(scope="module")
def workload_trace():
    """A real (execution-produced) memory trace, once per module."""
    session = Session(scale=SCALE, use_disk_cache=False)
    session.profile(WL)      # no trace store: executes materialized
    return session._traces[RunKey(WL, "input1", False)]


# -- simulate_trace_multi ---------------------------------------------

class TestMultiEquivalence:
    def test_empty_config_list(self):
        assert simulate_trace_multi(trace_of([]), []) == []

    def test_empty_trace(self):
        results = simulate_trace_multi(trace_of([]), POLICY_CONFIGS)
        for config, stats in zip(POLICY_CONFIGS, results):
            assert stats_key(stats) == stats_key(
                simulate_trace(trace_of([]), config))

    def test_mixed_kinds_bit_identical(self):
        trace = trace_of([
            (4, 0, LOAD), (8, 64, STORE), (4, 0, LOAD),
            (12, 4096, PREFETCH), (16, 4096, LOAD), (8, 128, STORE),
            (20, 8192, LOAD), (12, 12288, PREFETCH), (4, 32, LOAD),
        ])
        results = simulate_trace_multi(trace, POLICY_CONFIGS)
        for config, stats in zip(POLICY_CONFIGS, results):
            assert stats_key(stats) == stats_key(
                simulate_trace(trace, config))

    def test_duplicate_configs_have_independent_state(self):
        config = CacheConfig(1024, 2, 32, replacement="random")
        trace = trace_of([(4, a * 32, LOAD) for a in range(200)]
                         + [(4, a * 32, LOAD) for a in range(200)])
        one, two = simulate_trace_multi(trace, [config, config])
        assert stats_key(one) == stats_key(two)
        assert stats_key(one) == stats_key(simulate_trace(trace, config))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from([4, 8, 12, 16]),
                  st.integers(min_value=0, max_value=1 << 14),
                  st.just(0)),
        max_size=200))
    def test_random_traces_bit_identical(self, accesses):
        # one kind per PC (the machine invariant): derive it from the PC
        accesses = [(pc, addr, (LOAD, STORE, PREFETCH)[pc % 3])
                    for pc, addr, _ in accesses]
        trace = trace_of(accesses)
        results = simulate_trace_multi(trace, POLICY_CONFIGS)
        for config, stats in zip(POLICY_CONFIGS, results):
            assert stats_key(stats) == stats_key(
                simulate_trace(trace, config))

    def test_workload_trace_bit_identical(self, workload_trace):
        configs = [BASELINE_CONFIG, TRAINING_CONFIG,
                   CacheConfig(8192, 4, 32, replacement="fifo"),
                   CacheConfig(8192, 4, 32, replacement="random")]
        results = simulate_trace_multi(workload_trace, configs)
        for config, stats in zip(configs, results):
            assert stats_key(stats) == stats_key(
                simulate_trace(workload_trace, config))

    def test_sweep_configs_bit_identical(self, workload_trace):
        configs = list(dict.fromkeys(associativity_sweep()
                                     + size_sweep()))
        results = simulate_trace_multi(workload_trace, configs)
        for config, stats in zip(configs, results):
            assert stats_key(stats) == stats_key(
                simulate_trace(workload_trace, config))


class TestHierarchyMultiEquivalence:
    CONFIGS = [
        DEFAULT_HIERARCHY,
        HierarchyConfig(
            l1=CacheConfig(1024, 2, 32, replacement="fifo"),
            l2=CacheConfig(16 * 1024, 4, 64, replacement="random")),
        HierarchyConfig(
            l1=CacheConfig(2048, 2, 32),
            l2=CacheConfig(32 * 1024, 8, 64)),
    ]

    def test_empty_config_list(self):
        assert simulate_trace_hierarchy_multi(trace_of([]), []) == []

    def test_synthetic_bit_identical(self):
        trace = trace_of(
            [(4, a * 32, LOAD) for a in range(600)]
            + [(8, a * 64, STORE) for a in range(300)]
            + [(4, a * 32, LOAD) for a in range(600)])
        results = simulate_trace_hierarchy_multi(trace, self.CONFIGS)
        for config, stats in zip(self.CONFIGS, results):
            assert hier_key(stats) == hier_key(
                simulate_trace_hierarchy(trace, config))

    def test_workload_trace_bit_identical(self, workload_trace):
        results = simulate_trace_hierarchy_multi(workload_trace,
                                                 self.CONFIGS)
        for config, stats in zip(self.CONFIGS, results):
            assert hier_key(stats) == hier_key(
                simulate_trace_hierarchy(workload_trace, config))


# -- Session.warm ------------------------------------------------------

PLAN = [
    (WL, "input1", False, (BASELINE_CONFIG, TRAINING_CONFIG)),
    ("181.mcf", "input1", False, (BASELINE_CONFIG,)),
]


def _measurements(session):
    return [
        (m.load_misses, m.load_exec, m.steps)
        for workload, input_name, optimize, configs in PLAN
        for m in [session.measurement(workload, input_name, optimize,
                                      configs[0])]
    ]


class TestWarm:
    def test_parallel_matches_serial(self, tmp_path):
        serial = Session(scale=SCALE, cache_dir=tmp_path / "a")
        report = serial.warm(PLAN, jobs=1)
        assert (report.runs, report.simulated, report.jobs) == (2, 2, 1)

        fanned = Session(scale=SCALE, cache_dir=tmp_path / "b")
        report = fanned.warm(PLAN, jobs=4)
        assert report.simulated == 2
        assert report.jobs == 2      # clamped to the pending run count

        assert _measurements(serial) == _measurements(fanned)

    def test_warm_fills_memory_without_disk(self, tmp_path):
        session = Session(scale=SCALE, cache_dir=tmp_path / "c",
                          use_disk_cache=False)
        session.warm(PLAN, jobs=4)
        # everything needed is already in memory: no trace executions
        assert not session._traces
        baseline = _measurements(session)
        assert not session._traces
        assert not (tmp_path / "c").exists()

        direct = Session(scale=SCALE, cache_dir=tmp_path / "d",
                         use_disk_cache=False)
        assert _measurements(direct) == baseline

    def test_rewarm_is_all_cache_hits(self, tmp_path):
        session = Session(scale=SCALE, cache_dir=tmp_path / "e")
        session.warm(PLAN, jobs=1)
        report = session.warm(PLAN, jobs=4)
        assert isinstance(report, WarmReport)
        assert (report.simulated, report.cached) == (0, 2)
        assert "already cached" in report.describe()

    def test_fresh_session_reads_warmed_disk(self, tmp_path):
        cache_dir = tmp_path / "f"
        Session(scale=SCALE, cache_dir=cache_dir).warm(PLAN, jobs=4)
        fresh = Session(scale=SCALE, cache_dir=cache_dir)
        _measurements(fresh)
        assert not fresh._traces  # served from disk, never executed

    def test_run_key_and_triple_forms(self, tmp_path):
        session = Session(scale=SCALE, cache_dir=tmp_path / "g")
        report = session.warm(
            [RunKey(WL, "input1", False), (WL, "input1", False)],
            configs=(BASELINE_CONFIG,), jobs=1)
        assert report.runs == 2

    def test_resolve_jobs(self, monkeypatch):
        assert _resolve_jobs(3) == 3
        assert _resolve_jobs(0) == 1
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert _resolve_jobs(None) == 5
        monkeypatch.delenv("REPRO_JOBS")
        assert _resolve_jobs(None) >= 1

    def test_standard_plan_shape(self):
        plan = standard_warm_plan()
        assert len(plan) == 40
        for workload, input_name, optimize, configs in plan:
            assert isinstance(workload, str)
            assert input_name in ("input1", "input2")
            assert isinstance(optimize, bool)
            assert configs  # never an empty config tuple


# -- disk-cache hardening ---------------------------------------------

class TestDiskCacheHardening:
    def _seed_cache(self, cache_dir):
        session = Session(scale=SCALE, cache_dir=cache_dir)
        stats = session.stats(WL)
        path = session._disk_path(RunKey(WL, "input1", False),
                                  BASELINE_CONFIG)
        assert path.exists()
        return stats, path

    def test_no_temp_files_left_behind(self, tmp_path):
        _, path = self._seed_cache(tmp_path / "c")
        assert not list(path.parent.glob("*.tmp"))
        assert f".{os.getpid()}." not in path.name

    def test_corrupt_entry_resimulated(self, tmp_path):
        stats, path = self._seed_cache(tmp_path / "c")
        path.write_text("{not json")
        again = Session(scale=SCALE, cache_dir=tmp_path / "c").stats(WL)
        assert again.load_misses == stats.load_misses

    def test_partial_entry_resimulated(self, tmp_path):
        stats, path = self._seed_cache(tmp_path / "c")
        path.write_text(json.dumps({"version": 3, "steps": 1}))
        again = Session(scale=SCALE, cache_dir=tmp_path / "c").stats(WL)
        assert again.load_misses == stats.load_misses

    def test_wrong_types_resimulated(self, tmp_path):
        stats, path = self._seed_cache(tmp_path / "c")
        payload = json.loads(path.read_text())
        payload["load_misses"] = {"not-an-int": "nope"}
        path.write_text(json.dumps(payload))
        again = Session(scale=SCALE, cache_dir=tmp_path / "c").stats(WL)
        assert again.load_misses == stats.load_misses

    def test_old_schema_version_resimulated(self, tmp_path):
        stats, path = self._seed_cache(tmp_path / "c")
        payload = json.loads(path.read_text())
        payload["version"] = 1
        path.write_text(json.dumps(payload))
        again = Session(scale=SCALE, cache_dir=tmp_path / "c").stats(WL)
        assert again.load_misses == stats.load_misses
