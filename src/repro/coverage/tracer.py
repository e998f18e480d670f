"""The edge tracer: folds a guest target's block sites into edges.

This is the reproduction's AFL compile-time instrumentation (§4.5).
The traced modules are compiled with one precomputed site append at
each basic-block leader (:mod:`repro.coverage.instrument`), and
:class:`TracerCore` folds ``(previous site, current site)``
transitions into a sparse AFL-style trace with AFL's
``cur ^ (prev >> 1)`` edge formula.  Only the targets are instrumented,
so the kernel, fuzzer and harness never pollute coverage — the
analogue of only instrumenting the target binary.

The tracer sits on the hottest host path there is — every block of
every target function of every execution — so the work is split into
a record phase and a fold phase:

* the instrumented code appends one precomputed *site* integer per
  block to a flat stream — no edge arithmetic, no interpreter hook;
  :meth:`TracerCore.run` points the process-wide sink at the stream
  for the trace window;
* :meth:`TracerCore.take_trace` packs the site stream as 32-bit
  lanes and folds it into the sparse edge trace once per execution,
  every edge at once with big-integer arithmetic on the packed buffer
  (:func:`_fold_packed`).  Every stream is folded afresh;
  docs/performance.md records why a fold memo does not pay.
"""

from __future__ import annotations

import sys
from array import array as _array
from collections import _count_elements
from typing import Callable, Dict, List

from repro.coverage.bitmap import MAP_SIZE
from repro.coverage.instrument import SINK

#: Bitmap region where IJON state annotations land (distinct from the
#: hash range used by code edges only probabilistically, like IJON).
IJON_BASE = 0xF000

#: Bytes per site in a packed stream: one little-endian 32-bit lane.
SITE_BYTES = 4

# The fold keeps every lane's low bits with one mask, so the map must
# be a power of two below lane bit 31, where the fold's shift carries
# each site's own bit 0.
if (MAP_SIZE & (MAP_SIZE - 1) or not 0 < MAP_SIZE <= 1 << 31
        or _array("I").itemsize != SITE_BYTES):
    raise ValueError("the lane fold needs 4-byte array('I') items and a "
                     "power-of-two MAP_SIZE <= 2**31, not %d" % MAP_SIZE)

#: One lane of the fold's mask: the low ``MAP_SIZE - 1`` bits.
_LANE_MASK = (MAP_SIZE - 1).to_bytes(SITE_BYTES, "little")


def _lanes(data) -> _array:
    """``array("I", data)``, byte-swapped on a big-endian host: site
    values in, little-endian lanes out (``.tobytes()``); or
    little-endian lane bytes in, their values out."""
    lanes = _array("I", data)
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes


def _fold_packed(packed: bytes) -> Dict[int, int]:
    """Fold a packed site stream into a fresh ``{edge: hits}``, edges
    in first-occurrence order.

    Every edge ``(site ^ (prev >> 1)) % MAP_SIZE`` (``prev`` starting at
    0) comes out of three big-integer operations on the stream read as
    one integer: lane *i* of ``stream << 31`` holds bits 1 and up of
    site *i - 1* (zero for lane 0), and the bit of site *i* it pushes
    into the lane's top bit falls outside the mask.
    """
    if not packed:
        return {}
    stream = int.from_bytes(packed, "little")
    mask = int.from_bytes(_LANE_MASK * (len(packed) // SITE_BYTES), "little")
    edges = (stream ^ (stream << 31)) & mask
    trace: Dict[int, int] = {}
    _count_elements(trace, _lanes(edges.to_bytes(len(packed), "little")))
    return trace


class TracerCore:
    """Site stream, fold pipeline and IJON slots."""

    def __init__(self) -> None:
        #: Flat stream of site values in execution order.  Persistent
        #: list (cleared in place) so its bound ``append`` is taken once.
        self._stream: List[int] = []
        self._append = self._stream.append
        #: IJON state hits land directly on edges (they bypass the
        #: prev-site chain), so they live outside the site stream.
        self._ijon: Dict[int, int] = {}

    # -- per-test lifecycle --------------------------------------------------

    def begin(self) -> None:
        """Reset the trace for a new test case."""
        del self._stream[:]
        self._ijon.clear()

    def take_trace(self) -> Dict[int, int]:  # nyx: hot
        """Fold the site stream into the sparse edge trace.

        Returns a fresh dict each call; the stream itself is only
        cleared by :meth:`begin`, so repeated calls agree.
        """
        trace = _fold_packed(_lanes(self._stream).tobytes())
        if self._ijon:
            get = trace.get
            for edge, count in self._ijon.items():
                trace[edge] = get(edge, 0) + count
        return trace

    def ijon_set(self, slot: int) -> None:
        """IJON-style state feedback: mark a state slot as reached.

        Mirrors IJON-SET/IJON-MAX: the annotated state value selects a
        bitmap entry, so novel states look like novel edges to the
        fuzzer's novelty check.
        """
        edge = (IJON_BASE + slot) % MAP_SIZE
        ijon = self._ijon
        ijon[edge] = ijon.get(edge, 0) + 1

    # -- the trace window ------------------------------------------------------

    def run(self, fn: Callable, *args):  # nyx: hot
        """Return ``fn(*args)``, run with the instrumented code's sites
        going to this tracer's stream.

        Restores the sink's previous target on exit, so windows nest.
        """
        sink = SINK
        previous = sink.hit
        sink.hit = self._append
        try:
            return fn(*args)
        finally:
            sink.hit = previous
