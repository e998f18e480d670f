"""The corpus ("queue") of interesting inputs.

AFL-style: every input that produced new coverage joins the queue;
scheduling walks the queue in cycles, favoring fast/small entries.
Entries also carry the per-input state the *aggressive* snapshot
placement policy needs (its cursor and fruitless counter, §3.4).

Parallel campaigns sync corpora between instances the AFL -M/-S way:
:meth:`Corpus.export_entries` hands out entries found since the last
sync (with their discovery metadata and trace), and
:meth:`Corpus.import_foreign` adopts a peer's exports, deduplicating
by coverage checksum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.fuzz.input import FuzzInput
from repro.sim.rng import DeterministicRandom


@dataclass
class QueueEntry:
    """One corpus entry plus its scheduling metadata."""

    entry_id: int
    input: FuzzInput
    exec_time: float = 0.0
    new_edges: int = 0
    favored: bool = False
    times_scheduled: int = 0
    found_at: float = 0.0
    #: Packets the target actually consumed when this entry first ran
    #: (0 = unknown).  Policies never place snapshots past this point:
    #: packets the target no longer reads cannot hide progress.
    effective_packets: int = 0
    #: Aggressive-policy state: current snapshot index (None = start
    #: from the end on first schedule) and fruitless-iteration count.
    aggr_cursor: Optional[int] = None
    aggr_fruitless: int = 0
    #: Bandit-policy state: per-chain-depth pull counts, accumulated
    #: coverage reward and accumulated sim cost (None until the entry
    #: is first fuzzed over a chain).  Travels with the entry through
    #: corpus checkpoints, so a resumed campaign keeps its learned arm
    #: preferences.
    arm_pulls: Optional[Dict[int, int]] = None
    arm_reward: Optional[Dict[int, float]] = None
    arm_cost: Optional[Dict[int, float]] = None
    #: Coverage checksum of the discovering execution (dedup key for
    #: cross-instance corpus sync).
    checksum: Optional[int] = None
    #: Sparse edge trace of the discovering execution.  Lets a peer
    #: (or the campaign-level merged bitmap) absorb this entry's
    #: coverage without re-executing it.
    trace: Optional[Dict[int, int]] = None

    def fuzzable_packets(self) -> int:
        """Packets worth snapshotting over (consumed, else all)."""
        n = self.input.num_packets
        if self.effective_packets > 0:
            return min(n, self.effective_packets)
        return n

    @property
    def score(self) -> float:
        """Lower is better: prefer fast inputs that found much."""
        return self.exec_time / (1.0 + self.new_edges)


class Corpus:
    """The fuzzer's queue of inputs."""

    def __init__(self, rng: DeterministicRandom) -> None:
        self.rng = rng
        self.entries: List[QueueEntry] = []
        self._next_id = 0
        self._cursor = 0
        self.cycles_done = 0
        self._seen_checksums: set = set()

    @property
    def next_id(self) -> int:
        """The id the next added entry will receive (sync watermark)."""
        return self._next_id

    def add(self, input_: FuzzInput, exec_time: float = 0.0,
            new_edges: int = 0, found_at: float = 0.0,
            checksum: Optional[int] = None,
            packets_consumed: int = 0,
            trace: Optional[Dict[int, int]] = None) -> QueueEntry:
        """Insert an input (dedup by coverage checksum if given)."""
        if checksum is not None:
            if checksum in self._seen_checksums:
                # Same coverage signature; keep the corpus lean.
                pass
            self._seen_checksums.add(checksum)
        entry = QueueEntry(self._next_id, input_, exec_time=exec_time,
                           new_edges=new_edges, found_at=found_at,
                           effective_packets=packets_consumed,
                           checksum=checksum, trace=trace)
        self._next_id += 1
        self.entries.append(entry)
        self._refresh_favored()
        return entry

    # -- cross-instance corpus sync (parallel campaigns) -----------------

    def export_entries(self, since_id: int = 0) -> List[QueueEntry]:
        """Entries with id >= ``since_id``, in discovery order.

        The caller keeps :attr:`next_id` as its watermark so each sync
        round only ships entries found since the previous one.
        """
        return [e for e in self.entries if e.entry_id >= since_id]

    def import_foreign(self, entries: Sequence[QueueEntry],
                       found_at: float = 0.0,
                       spec=None) -> List[QueueEntry]:
        """Adopt entries exported by a peer instance.

        Entries whose coverage checksum this corpus has already seen
        are dropped (the peer found the same behaviour independently).
        When a ``spec`` is given, entries that fail affine validation
        (mutation-introduced damage on the peer) are repaired through
        the static analyzer's fix-its — or skipped if unrepairable —
        instead of poisoning the queue.  Returns the entries actually
        adopted, with fresh local ids.
        """
        adopted: List[QueueEntry] = []
        for foreign in entries:
            if (foreign.checksum is not None
                    and foreign.checksum in self._seen_checksums):
                continue
            clone = foreign.input.copy()
            clone.origin = "import"
            if spec is not None and not self._repair_in_place(clone, spec):
                continue
            trace = dict(foreign.trace) if foreign.trace else None
            adopted.append(self.add(
                clone, exec_time=foreign.exec_time,
                new_edges=foreign.new_edges, found_at=found_at,
                checksum=foreign.checksum,
                packets_consumed=foreign.effective_packets,
                trace=trace))
        return adopted

    @staticmethod
    def _repair_in_place(clone: FuzzInput, spec) -> bool:
        """Validate a foreign input, repairing it if needed.

        Returns False when nothing usable is left after repair.
        """
        from repro.analysis.fixes import apply_fixes
        from repro.spec.bytecode import validate
        from repro.spec.nodes import SpecError
        try:
            validate(spec, clone.ops)
            return True
        except SpecError:
            pass
        result = apply_fixes(spec, clone.ops)
        if not result.ops:
            return False
        clone.ops = result.ops
        clone.origin = "import+repaired"
        return True

    def _refresh_favored(self) -> None:
        """Mark the best-scoring quartile as favored."""
        if not self.entries:
            return
        ranked = sorted(self.entries, key=lambda e: e.score)
        cutoff = max(1, len(ranked) // 4)
        favored_ids = {e.entry_id for e in ranked[:cutoff]}
        for entry in self.entries:
            entry.favored = entry.entry_id in favored_ids

    # -- durability (checkpoint/resume) ----------------------------------

    def snapshot_state(self) -> dict:
        """Resumable scheduler state (see :mod:`repro.fuzz.journal`).

        The returned dict holds live references; callers pickle it
        immediately, which deep-copies everything at that instant.
        """
        return {
            "entries": self.entries,
            "next_id": self._next_id,
            "cursor": self._cursor,
            "cycles_done": self.cycles_done,
            # Sorted: pickling a raw set would make two snapshots of
            # equal state byte-different (NYX063).
            "seen_checksums": sorted(self._seen_checksums),
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a checkpointed scheduler state (inverse of
        :meth:`snapshot_state`).  ``rng`` is deliberately untouched: the
        corpus shares the fuzzer's RNG, which the fuzzer restores."""
        self.entries = list(state["entries"])
        self._next_id = int(state["next_id"])
        self._cursor = int(state["cursor"])
        self.cycles_done = int(state["cycles_done"])
        self._seen_checksums = set(state["seen_checksums"])

    def next_entry(self) -> QueueEntry:
        """Cycle through the queue, probabilistically skipping
        non-favored entries (AFL's skip heuristic)."""
        if not self.entries:
            raise IndexError("corpus is empty")
        for _ in range(len(self.entries) * 2):
            if self._cursor >= len(self.entries):
                self._cursor = 0
                self.cycles_done += 1
            entry = self.entries[self._cursor]
            self._cursor += 1
            if entry.favored or self.rng.chance(0.25):
                entry.times_scheduled += 1
                return entry
        entry = self.entries[0]
        entry.times_scheduled += 1
        return entry

    # -- quarantine (parallel-campaign supervision) ----------------------

    def remove(self, entry_id: int) -> bool:
        """Drop one entry (quarantine); keeps the schedule cursor
        pointing at the same next entry.  The entry's checksum stays in
        the seen set so a peer cannot re-import the same behaviour."""
        for index, entry in enumerate(self.entries):
            if entry.entry_id == entry_id:
                del self.entries[index]
                if index < self._cursor:
                    self._cursor -= 1
                self._refresh_favored()
                return True
        return False

    def remove_by_checksum(self, checksum: int) -> int:
        """Drop every entry with the given coverage checksum (the
        cross-instance identity used by corpus sync)."""
        removed = 0
        for entry in list(self.entries):
            if entry.checksum is not None and entry.checksum == checksum:
                if self.remove(entry.entry_id):
                    removed += 1
        return removed

    def splice_donor(self, exclude: QueueEntry) -> Optional[FuzzInput]:
        """A random other entry's input, for splicing."""
        candidates = [e for e in self.entries if e.entry_id != exclude.entry_id]
        if not candidates:
            return None
        return self.rng.pick(candidates).input

    def __len__(self) -> int:
        return len(self.entries)
