"""Time measured against a reference burst run next to the work.

The benchmark's host is shared, and its speed changes with what else
runs on the machine: on a shared 2-vCPU x86_64 VM a fixed loop of
Python code ran at one of two speeds about 1.5 times apart, switching
every few seconds, and one round of a campaign took up to 2.4 times as
long as another round of the same campaign.  A median over rounds does
not remove a slow spell that covers several rounds.

:class:`ReferenceClock` runs a fixed burst of pure-Python work (the
reference, independent of the program under test) once
:data:`PERIOD_S` seconds of measured work have passed since the last
one, at the end of the unit of work then running, and scales each
stretch of work between two bursts by how long they took.  A reference second is the time the work would have taken
on a host where one burst takes :data:`REFERENCE_S` seconds.  The
program and the reference slow down together, so a program change
moves reference time while a change of host speed mostly does not.
"""

from __future__ import annotations

import time
from typing import Callable, List

#: Iterations of the reference loop in one burst.
REFERENCE_LOOPS = 1500
#: One burst takes this many reference seconds (about its wall time on
#: the recording host at full speed).
REFERENCE_S = 0.0002
#: Longest stretch of measured work between two bursts, in host
#: seconds.  The host's speed changes every few seconds, and a burst
#: every 25 ms costs about 1 % of the run.
PERIOD_S = 0.025


def _step(x: int) -> int:
    return (x * 31 + 7) & 0xFFFF


def reference_work() -> int:
    """The reference: a fixed loop of Python calls and integer math."""
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc = _step(acc ^ i)
    return acc


def timed_burst() -> float:
    """Host seconds one reference burst takes now."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def reference_seconds(host_s: float, burst_before: float,
                      burst_after: float) -> float:
    """``host_s`` host seconds, bracketed by bursts of the given
    durations, in reference seconds."""
    return host_s * 2 * REFERENCE_S / (burst_before + burst_after)


class ReferenceClock:
    """Interval timer over units of work, in reference seconds.

    Create it where measured work starts; the first burst runs then.
    Call :meth:`mark` when each unit of work (an exec, a parse, a module
    import) completes and :meth:`finish` where measured work ends.
    Marks after that are ignored.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 burst: Callable[[], float] = timed_burst) -> None:
        self.clock = clock
        self.burst = burst
        #: Duration of each burst, in host seconds.
        self.bursts: List[float] = []
        #: Host seconds between consecutive marks, per window; window
        #: ``k`` lies between bursts ``k`` and ``k + 1``.
        self.windows: List[List[float]] = []
        #: Host seconds from the last mark to :meth:`finish`.
        self.tail = 0.0
        self.finished = False
        reference_work()  # warm the loop before the first timed burst
        self._open()

    def _open(self) -> None:
        self.bursts.append(self.burst())
        self.windows.append([])
        self._last = self._opened = self.clock()

    def mark(self) -> None:
        """A unit of work completed now."""
        if self.finished:
            return
        now = self.clock()
        self.windows[-1].append(now - self._last)
        self._last = now
        if now - self._opened >= PERIOD_S:
            self._open()

    def finish(self) -> None:
        """Measured work ended now: close the last window."""
        self.tail = self.clock() - self._last
        self._open()
        self.finished = True

    def _scales(self) -> List[float]:
        return [reference_seconds(1.0, a, b)
                for a, b in zip(self.bursts, self.bursts[1:])]

    def intervals(self) -> List[float]:
        """Reference seconds of each unit of work, in order."""
        return [gap * scale for window, scale in zip(self.windows,
                                                     self._scales())
                for gap in window]

    def elapsed(self) -> float:
        """Reference seconds of all measured work, bursts excluded."""
        scales = self._scales()
        return sum(self.intervals()) + self.tail * scales[-1]

    def host_elapsed(self) -> float:
        """Host seconds of all measured work, bursts excluded."""
        return sum(sum(window) for window in self.windows) + self.tail
