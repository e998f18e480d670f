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
  (:meth:`TracerCore._fold_packed`), memoized on the packed stream
  under an LRU cap;
* the executor's prefix-trace elision suspends collection across an
  op prefix that a previous recording already proved deterministic and
  seeds :meth:`take_trace` with the recorded prefix fold instead
  (:meth:`elide_suspend` / :meth:`elide_resume`), yielding the same
  bytes without re-recording the prefix.
"""

from __future__ import annotations

import sys
from array import array as _array
from collections import OrderedDict, _count_elements
from typing import Callable, Dict, List, Optional

from repro.coverage.bitmap import MAP_SIZE
from repro.coverage.instrument import DISCARD, SINK

#: Bitmap region where IJON state annotations land (distinct from the
#: hash range used by code edges only probabilistically, like IJON).
IJON_BASE = 0xF000

#: Fold-memo LRU cap.  Mutated inputs mostly retrace known paths, so a
#: campaign's distinct streams stay far below this; the cap exists so
#: week-long campaigns with pathological path churn cannot grow the
#: memo without bound (evictions are counted into ``CampaignStats``).
FOLD_MEMO_LIMIT = 8192

#: Bytes per site in a packed stream (recordings, memo keys): one
#: little-endian 32-bit lane.
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


class TracerCore:
    """Site stream, fold pipeline, IJON slots and prefix seeding."""

    def __init__(self, fold_memo_limit: int = FOLD_MEMO_LIMIT) -> None:
        self.fold_memo_limit = fold_memo_limit
        #: Sparse trace of the last folded execution (edge -> count);
        #: refreshed by :meth:`take_trace`.
        self.trace: Dict[int, int] = {}
        #: Flat stream of site values in execution order.  Persistent
        #: list (cleared in place) so its bound ``append`` is taken once.
        self._stream: List[int] = []
        self._append = self._stream.append
        #: IJON state hits land directly on edges (they bypass the
        #: prev-site chain), so they live outside the site stream.
        self._ijon: Dict[int, int] = {}
        #: Fold memo: packed site stream -> folded edge trace,
        #: LRU-bounded.  Keying on the exact packed stream keeps
        #: the memo collision-proof (bytes equality compares it all).
        self._fold_cache: "OrderedDict[bytes, Dict[int, int]]" = OrderedDict()
        #: Entries evicted from the fold memo (stamped into
        #: ``CampaignStats.fold_memo_evictions``).
        self.fold_evictions = 0
        #: Packed full-stream bytes of the last :meth:`take_trace`
        #: (prefix + live suffix) — the executor's trace recordings
        #: reuse it instead of re-packing.
        self.last_packed: bytes = b""
        #: Elision state: while suspended, :meth:`run` leaves the sink
        #: discarding and :meth:`ijon_set` is a no-op (the recorded prefix
        #: already contains those hits).
        self._suspended = False
        self._prefix_packed: bytes = b""

    # -- per-test lifecycle --------------------------------------------------

    def begin(self) -> None:
        """Reset the trace for a new test case."""
        del self._stream[:]
        self._ijon.clear()
        self.trace = {}
        self._prefix_packed = b""
        self._suspended = False

    def take_trace(self) -> Dict[int, int]:  # nyx: hot
        """Fold the site stream into the sparse edge trace.

        Returns a fresh dict each call; the stream itself is only
        cleared by :meth:`begin`, so repeated calls agree.  When a
        prefix was seeded via :meth:`elide_resume`, the recorded prefix
        and the live suffix are folded as one stream — byte-identical
        to having traced the whole run.
        """
        # Folding the concatenation runs the edge chain through the
        # join, and the joined stream is byte-equal to a fully-traced
        # run's, so elided and traced runs share fold-memo entries.
        packed = self._prefix_packed + _lanes(self._stream).tobytes()
        trace = dict(self._fold_packed(packed))
        self.last_packed = packed
        if self._ijon:
            get = trace.get
            for edge, count in self._ijon.items():
                trace[edge] = get(edge, 0) + count
        self.trace = trace
        return trace

    def _fold_packed(self, packed: bytes) -> Dict[int, int]:
        """Memoized fold of a packed site stream into ``{edge: hits}``,
        edges in first-occurrence order.

        Returns a shared dict — callers copy before mutating.  Every
        edge ``(site ^ (prev >> 1)) % MAP_SIZE`` (``prev`` starting at
        0) comes out of three big-integer operations on the stream read
        as one integer: lane *i* of ``stream << 31`` holds bits 1 and up
        of site *i - 1* (zero for lane 0), and the bit of site *i* it
        pushes into the lane's top bit falls outside the mask.
        """
        if not packed:
            return {}
        cache = self._fold_cache
        trace = cache.get(packed)
        if trace is not None:
            cache.move_to_end(packed)
            return trace
        stream = int.from_bytes(packed, "little")
        mask = int.from_bytes(_LANE_MASK * (len(packed) // SITE_BYTES),
                              "little")
        edges = (stream ^ (stream << 31)) & mask
        trace = {}
        _count_elements(trace, _lanes(edges.to_bytes(len(packed), "little")))
        if len(cache) >= self.fold_memo_limit:
            cache.popitem(last=False)
            self.fold_evictions += 1
        cache[packed] = trace
        return trace

    def ijon_set(self, slot: int) -> None:
        """IJON-style state feedback: mark a state slot as reached.

        Mirrors IJON-SET/IJON-MAX: the annotated state value selects a
        bitmap entry, so novel states look like novel edges to the
        fuzzer's novelty check.
        """
        if self._suspended:
            return
        edge = (IJON_BASE + slot) % MAP_SIZE
        ijon = self._ijon
        ijon[edge] = ijon.get(edge, 0) + 1

    def ijon_snapshot(self) -> Optional[Dict[int, int]]:
        """Copy of the IJON slot counts so far (None when empty)."""
        return dict(self._ijon) if self._ijon else None

    # -- prefix-trace elision (driven by the executor) -----------------------

    def stream_pos(self) -> int:
        """Number of sites recorded so far in the live stream."""
        return len(self._stream)

    @property
    def prefix_site_count(self) -> int:
        """Sites covered by the seeded prefix, so boundary marks stay
        in full-stream coordinates after an elided resume."""
        return len(self._prefix_packed) // SITE_BYTES

    def elide_suspend(self) -> None:
        """Stop collecting: a recorded deterministic prefix is being
        replayed, so its events would only repeat known bytes."""
        self._suspended = True

    def elide_resume(self, prefix_packed: bytes,
                     ijon_seed: Optional[Dict[int, int]] = None) -> None:
        """Resume collection, seeding the recorded prefix.

        ``prefix_packed`` is the packed site stream the suspended
        window *would* have produced; ``ijon_seed`` the IJON counts it
        would have accumulated.  :meth:`take_trace` then returns the
        same bytes a fully-traced run yields.
        """
        self._suspended = False
        self._prefix_packed = prefix_packed
        if ijon_seed:
            ijon = self._ijon
            get = ijon.get
            for edge, count in ijon_seed.items():
                ijon[edge] = get(edge, 0) + count

    @property
    def suspended(self) -> bool:
        return self._suspended

    # -- the trace window ------------------------------------------------------

    def run(self, fn: Callable, *args) -> None:  # nyx: hot
        """Run ``fn(*args)`` with the instrumented code's sites going to
        this tracer's stream.

        Restores the sink's previous target on exit, so windows nest.
        While suspended (prefix elision), the sink discards.
        """
        sink = SINK
        previous = sink.hit
        sink.hit = DISCARD if self._suspended else self._append
        try:
            fn(*args)
        finally:
            sink.hit = previous
