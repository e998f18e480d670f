"""Reference-time arithmetic on a scripted clock."""

import pytest

from refclock import REFERENCE_S, ReferenceClock, reference_seconds


def test_each_window_is_scaled_by_the_bursts_around_it():
    # Clock reads, in order: window 0 opens at 0.000; marks at 0.010 and
    # 0.030 (past the period, so a burst opens window 1 at 0.031); a
    # mark at 0.041; finish at 0.051 and the closing burst's read.
    times = iter([0.000, 0.010, 0.030, 0.031, 0.041, 0.051, 0.052])
    # Window 0 runs at reference speed, window 1 at two thirds of it.
    bursts = iter([REFERENCE_S, REFERENCE_S, 2 * REFERENCE_S])
    ref = ReferenceClock(clock=lambda: next(times),
                         burst=lambda: next(bursts))
    ref.mark()
    ref.mark()
    ref.mark()
    ref.finish()
    assert ref.windows[:2] == [pytest.approx([0.010, 0.020]),
                               pytest.approx([0.010])]
    assert ref.intervals() == pytest.approx([0.010, 0.020, 0.010 * 2 / 3])
    assert ref.tail == pytest.approx(0.010)
    assert ref.elapsed() == pytest.approx(0.030 + 0.020 * 2 / 3)
    # Burst time is excluded from both clocks.
    assert ref.host_elapsed() == pytest.approx(0.050)


def test_reference_seconds_follow_host_speed():
    assert reference_seconds(3.0, REFERENCE_S, REFERENCE_S) == 3.0
    # A host at half speed: bursts take twice as long, and so did the
    # three host seconds of work.
    assert reference_seconds(3.0, 2 * REFERENCE_S,
                             2 * REFERENCE_S) == pytest.approx(1.5)
