"""Span arithmetic: self time, percentiles."""

import types

import pytest

from spans import (SpanRecorder, percentile, quartiles, self_times,
                   tail_percentile)


def test_self_time_of_nested_spans():
    # 0: [0, 10] with children 1: [1, 4] and 2: [5, 9];
    # 1 has child 3: [2, 3]; 4 is a second top-level span [10, 12].
    starts = [0, 1, 5, 2, 10]
    ends = [10, 4, 9, 3, 12]
    parents = [-1, 0, 0, 1, -1]
    assert self_times(starts, ends, parents) == [3, 2, 4, 1, 2]
    # Self times partition the top-level spans.
    assert sum(self_times(starts, ends, parents)) == 12


def test_recorder_nests_spans_and_numbers_execs():
    ticks = iter(range(1000))
    rec = SpanRecorder(exec_names=("x.run",), clock=lambda: next(ticks))
    inner = types.SimpleNamespace(work=lambda: None)
    outer = types.SimpleNamespace()

    def run():
        inner.work()
        inner.work()
        return "done"

    outer.run = run
    seen = []
    rec.wrap(inner, "work", "y")
    rec.wrap(outer, "run", "x", on_result=seen.append)
    assert outer.run() == "done"
    inner.work()
    assert seen == ["done"]
    spans = rec.spans()
    assert [s[0] for s in spans] == ["x.run", "y.work", "y.work", "y.work"]
    assert [s[3] for s in spans] == [-1, 0, 0, -1]
    assert [s[4] for s in spans] == [1, 1, 1, 1]
    assert rec.layers == ["y", "x"]
    selfs = self_times(rec.start, rec.end, rec.parent)
    assert selfs[0] == (spans[0][2] - spans[0][1]) - 2


def test_recorder_ends_span_when_call_raises():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: next(ticks))

    def boom():
        raise ValueError("x")

    obj = types.SimpleNamespace(boom=boom)
    rec.wrap(obj, "boom", "z")
    with pytest.raises(ValueError):
        obj.boom()
    (name, start, end, parent, _), = rec.spans()
    assert end > start and parent == -1
    assert rec._stack == [-1]


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7], 99) == 7
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("n, expected", [
    (5, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (3500, 99.0), (9999, 99.0),
    (10000, 99.9), (100000, 99.99)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    q = tail_percentile(n)
    assert q == expected
    if q is not None:
        values = list(range(n))
        beyond = sum(1 for v in values if v > percentile(values, q))
        assert beyond >= 10


def test_quartiles_match_statistics():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    q1, med, q3 = quartiles([1, 2, 3, 4, 5])
    assert med == 3 and q1 < med < q3
