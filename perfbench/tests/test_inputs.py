"""The seeded workload draws are deterministic and balanced."""

from collections import Counter

from perfbench import inputs


def test_grid_tables_repeat_per_seed_and_share_run_cells():
    for seed in range(20):
        tables = inputs.grid_tables(seed)
        assert tables == inputs.grid_tables(seed)
        assert len(tables) == 3 and 6 in tables
        assert set(tables) - {6} <= set(inputs.GRID_POOL)
    assert len({tuple(inputs.grid_tables(s)) for s in range(20)}) == 3


def test_service_plan_is_deterministic():
    for seed in range(5):
        assert inputs.service_plan(seed) == inputs.service_plan(seed)
    assert inputs.service_plan(1) != inputs.service_plan(2)


def test_service_plan_repeats_each_key_after_computing_it():
    universe = {r.id for r in inputs.service_universe()}
    per_source = Counter()
    for op, _, count in inputs.SERVICE_MIX:
        per_source[op] += count
    sources = len(inputs.SERVICE_SOURCES)
    for seed in range(10):
        plan = inputs.service_plan(seed)
        counts = Counter(r.id for r in plan)
        assert set(counts.values()) == {1 + inputs.REPEATS}
        assert set(counts) <= universe
        assert Counter(r.op for r in plan) == {
            op: (1 + inputs.REPEATS) * n * sources
            for op, n in per_source.items()}
        # the same number of cheap and costly replays for every seed
        high = sum(1 for r in set(plan) if r.op in ("simulate", "predict")
                   and inputs.SIM_GEOMETRIES[r.variant][1] > 2)
        assert high == 3 * sources


def test_static_stream_is_seeded_and_covers_every_source():
    universe = inputs.static_universe()
    assert len(universe) == 72
    first = inputs.static_stream(3, 1)
    assert first == inputs.static_stream(3, 1)
    assert set(first) <= set(universe)
    assert sorted({(n, i) for n, i, _ in first}) == \
        sorted({(n, i) for n, i, _ in universe})
    assert len(first) == 36
    assert first != inputs.static_stream(4, 1)
    second = inputs.static_stream(3, 2)
    assert first != second and sorted(first) == sorted(second)
    for seed in range(5):
        stream = inputs.static_stream(seed, 1)
        optimized = {name for name, _, opt in stream if opt}
        plain = {name for name, _, opt in stream if not opt}
        assert optimized == plain and len(optimized) == 18
