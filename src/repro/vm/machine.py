"""The virtual machine: memory + devices + disk + snapshots + clock.

A :class:`Machine` is the host-side object the fuzzer controls.  The
guest OS (:mod:`repro.guestos.kernel`) runs "inside" it, storing all of
its mutable state in guest memory so that snapshot restores genuinely
rewind guest execution.  Components that cache guest state host-side
register ``on_restore`` callbacks and reload themselves from memory
after every restore.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.sim.clock import SimClock
from repro.sim.costs import DEFAULT_COSTS, CostModel
from repro.vm.devices import DeviceBoard
from repro.vm.disk import EmulatedDisk
from repro.vm.hypercall import Hypercall, HypercallEvent
from repro.vm.memory import GuestMemory, RegionAllocator
from repro.vm.snapshot import (RootSnapshot, SnapshotCorruption,
                               SnapshotManager)

#: Default VM geometry: enough pages for a busy guest without making
#: root snapshot captures slow in host time.
DEFAULT_MEMORY_BYTES = 64 * 1024 * 1024
DEFAULT_DISK_SECTORS = 8192


class Machine:
    """A simulated whole VM with root and chain snapshot support."""

    def __init__(self, memory_bytes: int = DEFAULT_MEMORY_BYTES,
                 disk_sectors: int = DEFAULT_DISK_SECTORS,
                 costs: Optional[CostModel] = None,
                 clock: Optional[SimClock] = None,
                 snapshot_verify_every: int = 1) -> None:
        self.costs = costs or DEFAULT_COSTS
        self.clock = clock or SimClock()
        self.memory = GuestMemory(memory_bytes)
        self.devices = DeviceBoard()
        self.disk = EmulatedDisk(disk_sectors)
        self.allocator = RegionAllocator(self.memory)
        self.snapshots = SnapshotManager(
            self.memory, self.devices, self.disk, self.clock, self.costs,
            verify_every=snapshot_verify_every)
        # Boot-time host wiring (restore callbacks, hypercall handler):
        # registered once before the root snapshot, never per-exec.
        self._on_restore: List[Callable[[], None]] = []  # nyx: allow[reset]
        # Fuzzer-facing event log, consumed via drain_hypercalls();
        # hypervisor-side diagnostics, not guest state.
        self._hypercall_log: List[HypercallEvent] = []  # nyx: allow[reset]
        self._hypercall_handler: Optional[Callable[[HypercallEvent], None]] = None  # nyx: allow[reset]
        #: Chain restores that failed validation and fell back to the
        #: root snapshot (see :meth:`reset_for_next_test`).
        self.snapshot_corruptions = 0

    # -- guest <-> host plumbing ------------------------------------------------

    def on_restore(self, callback: Callable[[], None]) -> None:
        """Register a callback invoked after every snapshot restore."""
        self._on_restore.append(callback)

    def set_hypercall_handler(self, handler: Callable[[HypercallEvent], None]) -> None:
        """Install the fuzzer-side hypercall handler."""
        self._hypercall_handler = handler

    def hypercall(self, call: Hypercall, **payload: Any) -> None:
        """Issue a hypercall from the guest (charges a VM exit)."""
        self.clock.charge(self.costs.context_switch)
        event = HypercallEvent(call, payload)
        self._hypercall_log.append(event)
        if self._hypercall_handler is not None:
            self._hypercall_handler(event)

    def drain_hypercalls(self) -> List[HypercallEvent]:
        """Return and clear the hypercall log."""
        log = self._hypercall_log
        self._hypercall_log = []
        return log

    # -- snapshot operations (fuzzer-facing) -----------------------------------

    def capture_root(self) -> RootSnapshot:
        """Take the root snapshot of the current VM state."""
        return self.snapshots.capture_root()

    def adopt_root(self, root: RootSnapshot) -> None:
        """Share another machine's root snapshot (§5.3 scalability)."""
        self.snapshots.adopt_root(root)
        self._notify_restore()

    def restore_root(self) -> int:
        """Reset to the root snapshot; returns pages reset."""
        n = self.snapshots.restore_root()
        self._notify_restore()
        return n

    def create_incremental(self) -> int:
        """Replace the snapshot chain with a new layer 1 (the paper's
        incremental snapshot) at the current execution point."""
        return self.snapshots.create_incremental()

    def restore_incremental(self) -> int:
        """Reset to chain layer 1; returns pages reset."""
        return self.restore_to_depth(1)

    def push_overlay(self) -> int:
        """Stack a new chain layer on the current state; returns pages
        captured."""
        return self.snapshots.push_overlay()

    def restore_to_depth(self, depth: int) -> int:
        """Reset to chain node ``depth``; returns pages reset."""
        n = self.snapshots.restore_to_depth(depth)
        self._notify_restore()
        return n

    def reset_for_next_test(self) -> int:
        """Reset to the chain node the live state descends from, or to
        the root when no chain is live.

        Self-healing: a chain layer that fails checksum validation
        tears the whole chain down and the VM falls back to the
        (immutable, trustworthy) root snapshot instead of propagating
        corrupt state into the next execution.  Callers holding suffix
        state notice via :attr:`SnapshotManager.chain_depth` dropping
        to 0 and rebuild from the root.
        """
        snaps = self.snapshots
        if snaps.chain_depth:
            try:
                return self.restore_to_depth(snaps.base_depth)
            except SnapshotCorruption:
                self.snapshot_corruptions += 1
        return self.restore_root()

    def _notify_restore(self) -> None:
        for callback in self._on_restore:
            callback()

    # -- introspection ------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Snapshot statistics merged with memory counters."""
        out = self.snapshots.stats.as_dict()
        out["total_pages"] = self.memory.num_pages
        out["pages_ever_dirtied"] = self.memory.total_dirtied
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Machine(%d MiB, t=%.3fs)" % (
            self.memory.size_bytes // (1024 * 1024), self.clock.now)


def unique_page_footprint(machines: Iterable[Machine],
                          roots: Iterable[RootSnapshot] = ()) -> int:
    """Distinct page objects across a fleet of machines plus their
    shared root images — the real memory cost of §5.3's shared root
    snapshots.  Machines holding CoW references into the same root (or
    the zero-page sentinel) contribute each shared page exactly once.
    """
    ids: set = set()
    for root in roots:
        ids.update(root.page_id_set())
    for machine in machines:
        ids.update(machine.snapshots.owned_page_identities())
    return len(ids)
