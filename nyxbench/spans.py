"""Span recording from outside the program, and the arithmetic on spans.

The benchmark never edits the program: it replaces public methods on
the live objects a workload builds with wrappers that record one span
per call (name, start, end, parent span, exec id).  Spans are kept in
flat arrays in memory and reduced when the run ends.

Everything here is stdlib only and independent of ``repro``, so the
reductions can be tested on synthetic spans.
"""

from __future__ import annotations

import statistics
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class SpanRecorder:
    """Collects spans from wrapped methods.

    ``exec_names`` are the span names that start a new exec (the
    executor's ``run_full``/``run_suffix``); every span carries the id
    of the exec running or most recently run when it started.
    """

    def __init__(self, exec_names: Iterable[str] = (),
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self.layers: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._exec_ids = set()
        self._exec_names = set(exec_names)
        self.name_id = array("H")
        self.parent = array("i")
        self.exec_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._execs = 0

    def _intern(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            if name in self._exec_names:
                self._exec_ids.add(nid)
        return nid

    def wrap(self, obj, method: str, layer: str,
             on_result: Optional[Callable[[object], None]] = None,
             before: Optional[Callable] = None) -> None:
        """Replace ``obj.method`` by a recording wrapper.

        Setting the attribute on an object shadows its class method for
        every later ``obj.method(...)`` lookup, and setting it on a
        module replaces the function for every caller that looks it up
        through the module, so the program's own calls are recorded.
        ``before`` sees each call's arguments and ``on_result`` its
        return value (used for counts such as novelty verdicts).
        """
        fn = getattr(obj, method)
        nid = self._intern("%s.%s" % (layer, method), layer)
        clock = self.clock
        stack = self._stack
        name_id = self.name_id
        parent = self.parent
        exec_id = self.exec_id
        start = self.start
        end = self.end
        starts_exec = nid in self._exec_ids

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            index = len(start)
            if starts_exec:
                self._execs += 1
            name_id.append(nid)
            parent.append(stack[-1])
            exec_id.append(self._execs)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        setattr(obj, method, wrapper)

    def spans(self) -> List[Tuple[str, float, float, int, int]]:
        """All spans as ``(name, start, end, parent, exec_id)`` tuples."""
        names = self.names
        return [(names[n], s, e, p, x) for n, s, e, p, x in
                zip(self.name_id, self.start, self.end, self.parent,
                    self.exec_id)]

    def write_tsv(self, path: str) -> None:
        """Write the spans, one per line, when the run ends."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart\tend\tparent\texec\n")
            for i, (name, s, e, p, x) in enumerate(self.spans()):
                out.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n"
                          % (i, name, s, e, p, x))


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> List[float]:
    """Each span's duration minus its child spans' durations.

    Spans come from one thread's call stack, so a span's children never
    overlap and lie inside it.
    """
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


def _rank(q: float, n: int) -> int:
    """1-based nearest rank ``ceil(q n / 100)``, in integers so that
    e.g. p99.9 of 10 000 samples is rank 9990, not 9991."""
    hundredths = round(q * 100)
    return max(1, -(-hundredths * n // 10000))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values`` (0 < q <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(q, len(ordered)) - 1]


#: Percentiles considered for the tail, from the highest down.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)


def tail_percentile(n: int) -> Optional[float]:
    """Highest percentile with at least ten samples beyond it.

    With ``n`` samples, the nearest-rank ``q``-th percentile leaves
    ``n - ceil(q n / 100)`` samples above it.  Returns None when even
    the median has fewer than ten samples beyond it.
    """
    for q in TAIL_PERCENTILES:
        if n - _rank(q, n) >= 10:
            return q
    return None


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(n=4)`` gives them."""
    vals = list(values)
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3
