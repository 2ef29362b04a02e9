"""Answer checking and work-counter determinism, on a small slice.

The static-analyze workload runs here over two workloads of its
universe (four operations a pass), so each test takes a few seconds.
"""

import pytest

from perfbench import answers, inputs, workloads
from perfbench.run import (WORKLOADS, counter_failures, deterministic,
                           measure)

ITEMS = [(name, input_name, optimize)
         for name in ("129.compress", "181.mcf")
         for input_name in ("input1", "input2")
         for optimize in (False, True)]
OPS = 4     # each source once, one input of each workload optimized


@pytest.fixture
def small_universe(monkeypatch):
    monkeypatch.setattr(inputs, "static_universe", lambda: list(ITEMS))


def run_static(tmp_path, seed=7, passes=1):
    workload = workloads.Static(tmp_path, seed)
    workload.min_passes = passes
    return measure(workload, seconds=0.0, trace=False)


def test_correct_answers_pass(small_universe, tmp_path):
    result = run_static(tmp_path)
    assert result["attempted"] == OPS
    assert result["failures"] == []


def test_wrong_answer_counts_as_failure(small_universe, tmp_path,
                                        monkeypatch):
    from repro.analytic.engine import AnalyticProfile
    evaluate = AnalyticProfile.evaluate

    def off_by_one(self, config):
        stats = evaluate(self, config)
        pc = min(stats.load_accesses)
        stats.load_misses[pc] = stats.load_misses.get(pc, 0) + 1
        return stats

    monkeypatch.setattr(AnalyticProfile, "evaluate", off_by_one)
    result = run_static(tmp_path)
    assert result["attempted"] == OPS
    assert len(result["failures"]) == OPS
    assert all("differ" in failure for failure in result["failures"])


def test_service_check_counts_errors_and_wrong_answers():
    from repro.service.client import ServiceError
    service = workloads.Service.__new__(workloads.Service)
    service.expected = answers.load("service")["answers"]
    request = inputs.Request("redundancy", 0)
    wrong = {"steps": 1, "loads": {}, "classes": {}}
    error = ServiceError("internal", "boom")
    outcome = workloads.Pass(makespan_s=1.0, latencies_s=[0.1, 0.1],
                             outputs=[(request, wrong, 0.1),
                                      (request, error, 0.1)])
    attempted, failures = service.check(None, outcome)
    assert attempted == 2 and len(failures) == 2


def test_counters_repeat_across_passes_and_runs(small_universe,
                                                tmp_path):
    first = run_static(tmp_path / "a", passes=2)
    second = run_static(tmp_path / "b", passes=2)
    counters = [deterministic(p.counters)
                for run in (first, second) for _, p in run["passes"]]
    assert len(counters) == 4
    assert counters[0]["compiler.compile_source.calls"] == 2 * OPS
    assert counters[0]["patterns.loads"] > 0
    assert all(c == counters[0] for c in counters)
    assert "machine.runs" not in counters[0]


def test_counters_are_checked_against_the_recorded_ones():
    recorded = {"setup": {"machine.runs": 4},
                "passes": {"3,4,6": {"store.opens": 11,
                                     "experiments.table3.calls": 1}}}
    same = dict(recorded["passes"]["3,4,6"])
    assert counter_failures(recorded, "3,4,6", {"machine.runs": 4},
                            [same]) == []
    # a single pass is checked: one decode too many fails the run
    failures = counter_failures(recorded, "3,4,6", {"machine.runs": 4},
                                [dict(same, **{"store.opens": 12})])
    assert len(failures) == 1 and "store.opens" in failures[0]
    failures = counter_failures(recorded, "3,4,6", {"machine.runs": 5},
                                [same, same])
    assert len(failures) == 1 and failures[0].startswith("set-up")
    assert counter_failures(recorded, "3,5,6", {"machine.runs": 4},
                            [same]) != []


def test_recorded_counters_cover_every_workload_and_table_subset():
    recorded = answers.load("counters")["answers"]
    assert sorted(recorded) == sorted(WORKLOADS)
    subsets = {",".join(map(str, inputs.grid_tables(seed)))
               for seed in range(50)}
    for name in ("grid-cold", "grid-from-traces"):
        assert set(recorded[name]["passes"]) == subsets
    for name in ("service-mixed", "static-analyze"):
        assert set(recorded[name]["passes"]) == {"all"}
    assert recorded["grid-cold"]["passes"]["3,4,6"]["machine.runs"] > 0
    for name in ("grid-from-traces", "service-mixed", "static-analyze"):
        for counters in recorded[name]["passes"].values():
            assert "machine.runs" not in counters
