"""Span self time and tail-percentile selection."""

import pytest

import math

from perfbench.probe import (Probe, layer_self_times, self_times,
                             tail_percentile)


def span(id, name, start, end, parent=None):
    return {"id": id, "name": name, "start": start, "end": end,
            "parent": parent, "op": None}


def test_self_time_subtracts_nested_children():
    spans = [span(1, "a.x", 0.0, 10.0),
             span(2, "b.y", 1.0, 4.0, parent=1),
             span(3, "c.z", 2.0, 3.0, parent=2),
             span(4, "b.y", 6.0, 7.0, parent=1)]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert layer_self_times(spans) == pytest.approx(
        {"a.x": 6.0, "b.y": 3.0, "c.z": 1.0})


def test_overlapping_children_are_subtracted_once():
    # two threads' children overlap on [3, 5]; union is [2, 7]
    spans = [span(1, "a", 0.0, 10.0),
             span(2, "b", 2.0, 5.0, parent=1),
             span(3, "b", 3.0, 7.0, parent=1)]
    assert self_times(spans)[1] == pytest.approx(5.0)


def test_child_outliving_parent_is_clipped():
    spans = [span(1, "a", 0.0, 4.0),
             span(2, "b", 3.0, 9.0, parent=1)]
    own = self_times(spans)
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(6.0)


def test_probe_spans_nest_through_wrappers():
    probe = Probe(trace=True)

    def inner():
        with probe.span("inner.work"):
            return 1

    outer = probe._wrap("outer.call", inner)
    assert outer() == 1
    by_name = {s["name"]: s for s in probe.spans}
    assert by_name["inner.work"]["parent"] == by_name["outer.call"]["id"]
    assert probe.counters["outer.call.calls"] == 1


def test_counting_mode_records_no_spans():
    probe = Probe(trace=False)
    wrapped = probe._wrap("x.f", lambda: 2)
    assert wrapped() == 2
    assert probe.spans == []
    assert probe.counters["x.f.calls"] == 1


@pytest.mark.parametrize("n, percentile", [
    (100, 90),   # rank 90, 10 samples beyond
    (1000, 99),  # rank 990, 10 beyond
    (72, 86),    # rank 62, 10 beyond; p87 would leave only 9
    (40, 75),    # rank 30, 10 beyond
    (20, 50),    # rank 10, 10 beyond
])
def test_tail_is_highest_percentile_with_ten_beyond(n, percentile):
    values = [float(i) for i in range(1, n + 1)]
    got, value, count = tail_percentile(values)
    assert (got, count) == (percentile, n)
    assert value == values[math.ceil(percentile * n / 100) - 1]
    assert sum(1 for v in values if v > value) >= 10
    if got < 99:
        above = values[math.ceil((got + 1) * n / 100) - 1]
        assert sum(1 for v in values if v > above) < 10


def test_tail_falls_back_to_median_when_too_few_samples():
    values = [5.0, 1.0, 3.0, 4.0, 2.0]
    assert tail_percentile(values) == (50, 3.0, 5)


def test_tail_needs_samples():
    with pytest.raises(ValueError):
        tail_percentile([])
