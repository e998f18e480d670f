"""Root snapshots and the snapshot chain above them (the paper's §4.2).

The root snapshot is a full copy of guest memory, device state and the
disk overlay.  Restoring it walks the Nyx dirty-page *stack* (never the
whole bitmap) and resets exactly the pages that diverged.

Every snapshot above the root is a layer of one QCOW2-style backing
chain: root → layer₁ → layer₂ → … (docs/snapshots.md).  A
:class:`ChainLayer` holds a dense page **mirror** that "looks like a
complete root snapshot without incurring anywhere near the full memory
cost": entries for pages the layer never captured are copy-on-write
references into its parent's view, the rest are real copies with their
own CRC32s.

* **Layer 1 is the paper's incremental snapshot.**  Its mirror is a
  CoW view of the root's page array that outlives the layer: each new
  layer 1 overwrites the entries of every page dirtied since the root
  snapshot with a real copy of the current content, after reverting
  the stale copies of the previous layer 1 to root references (a
  per-page charge only layer 1 pays).  Because real copies accumulate,
  the mirror is **re-mirrored** to a clean CoW view of the root "every
  2,000 snapshots created".
* **Deeper layers** are fresh per push: a CoW view of the parent's
  mirror plus real copies of the pages written since the parent's
  capture.
* The operations are *new* (``create_incremental`` replaces the chain
  with a fresh layer 1, ``push_overlay`` stacks a layer on it),
  *restore* (``restore_to_depth(k)`` resets to any live node in one
  dirty-write-avoiding batch), *commit* (``commit_overlay`` folds the
  deepest layer into its parent) and *discard* (``discard_deepest``
  drops one layer, ``discard_chain`` all of them when scheduling a new
  input, §3.4).

Cost accounting: every operation charges the machine clock through the
cost model, so Table 3 and Figure 6 reproduce the structural costs of
the paper (per-dirty-page work + a fixed hypercall/device cost).  The
*simulated* charges are a function of the dirty/diverged sets only —
the host-side bookkeeping below (incremental CRC maintenance, the
since-create delta set, identity-memoized verification) reduces Python
work per operation without moving a single charge.  Which pages a
restore rewrote stays inside this module: consumers that cache guest
state re-read it from memory after every restore.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.vm.devices import DeviceBoard
from repro.vm.disk import EmulatedDisk
from repro.vm.memory import GuestMemory

#: The paper's re-mirror period: "we re-mirror the physical memory used
#: in the incremental snapshot to a clean copy of the original root
#: memory every 2,000 snapshots created."
REMIRROR_PERIOD = 2000


class SnapshotError(Exception):
    """Raised on snapshot protocol violations (e.g., no root yet)."""


class SnapshotCorruption(SnapshotError):
    """A chain layer failed checksum validation on restore.

    The manager has already torn the chain down and healed the damaged
    mirror entries back to CoW root references; the caller recovers by
    restoring the root snapshot and (optionally) rebuilding the chain
    from it.
    """


class RootSnapshot:
    """An immutable full copy of the VM state.

    Instances can be *shared* between machines (§5.3 scalability: "we
    share the root snapshots between different instances"): the page
    list is never mutated after capture, so any number of VMs may hold
    references into it.
    """

    __slots__ = ("pages", "device_state", "disk_overlay", "guest_blob",
                 "_page_ids")

    def __init__(self, pages: List[bytes], device_state: Dict[str, Tuple],
                 disk_overlay: Dict[int, bytes], guest_blob: bytes) -> None:
        self.pages = pages
        self.device_state = device_state
        self.disk_overlay = disk_overlay
        #: Opaque host-side guest-OS bookkeeping captured with the root
        #: (the directory of state regions; see repro.guestos.kernel).
        self.guest_blob = guest_blob
        # Lazy memo of immutable data, not guest state.
        self._page_ids: Optional[FrozenSet[int]] = None  # nyx: allow[reset]

    @property
    def num_pages(self) -> int:
        return len(self.pages)

    def page_id_set(self) -> FrozenSet[int]:
        """``id()`` of every page in the (immutable) root image, cached.

        The page list never changes after capture, so the set is
        computed once and shared by every footprint query against this
        root — fleet accounting stops paying an O(num_pages) scan per
        machine per query.
        """
        ids = self._page_ids
        if ids is None:
            ids = self._page_ids = frozenset(map(id, self.pages))
        return ids


class SnapshotStats:
    """Counters describing snapshot activity for a machine.

    Layer 1 keeps the paper's names: its captures count as
    ``incremental_creates`` and a restore on a one-layer chain as an
    ``incremental_restores``; deeper layers count as overlay pushes and
    chain restores.
    """

    def __init__(self) -> None:
        self.root_restores = 0
        self.incremental_creates = 0
        self.incremental_restores = 0
        self.remirrors = 0
        self.pages_reset = 0
        self.pages_captured = 0
        self.corruption_detected = 0
        # Activity above layer 1 (0 for single-layer campaigns).
        self.overlay_pushes = 0
        self.overlay_commits = 0
        self.chain_restores = 0
        self.deepest_chain = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class ChainLayer:
    """One snapshot layer above the root.

    A dense page mirror that *looks like* a complete snapshot of the VM
    at capture time: entries outside ``touched`` are CoW references into
    the parent's view (the root's page array under layer 1); ``touched``
    pages are real copies, each with a CRC32 in ``checksums``.  Captures
    and commits write a layer; restores only read it, except to heal
    entries that fail validation.
    """

    __slots__ = ("mirror", "touched", "checksums", "verified_ids",
                 "device_state", "disk_overlay", "disk_touched")

    def __init__(self, mirror: List[bytes]) -> None:
        self.mirror = mirror
        self.touched: set = set()
        self.checksums: Dict[int, int] = {}
        #: ``id()`` of each real copy when its CRC last validated.
        #: Mirror pages are immutable ``bytes`` — any corruption vector
        #: in this simulation replaces the object — so an unchanged
        #: identity lets verification skip the CRC recompute while
        #: still charging the modelled validation cost.  Process-local
        #: ``id()``s: must never cross a checkpoint.
        self.verified_ids: Dict[int, int] = {}
        self.device_state: Optional[Dict[str, Tuple]] = None
        self.disk_overlay: Optional[Dict[int, bytes]] = None
        #: Sectors written between the parent's capture and this one —
        #: the disk-level ``touched`` set cross-depth restores resolve.
        self.disk_touched: set = set()


class SnapshotManager:  # nyx: allow[reset]
    """Implements Nyx-Net's root snapshot and the chain above it.

    Reset-lint suppression: the manager *is* the reset mechanism; its
    snapshot handles, divergence bookkeeping and CRC tables are
    definitionally cross-exec state.

    Every restore validates every layer it crosses.
    """

    #: Layout version of :meth:`snapshot_state` (durability lint NYX062).
    #: 2: one chain — ``chain_depth`` replaced ``chain_overlays`` and
    #: ``base_depth``.
    #: 3: validation has no schedule — ``verify_countdown`` is gone.
    STATE_FORMAT = 3

    def __init__(self, memory: GuestMemory, devices: DeviceBoard,
                 disk: EmulatedDisk, clock: SimClock,
                 costs: CostModel) -> None:
        self._memory = memory
        self._devices = devices
        self._disk = disk
        self._clock = clock
        self._costs = costs
        #: Perf counters; recounted by the resumed campaign's fresh
        #: machine (CampaignStats travels independently).
        self.stats = SnapshotStats()  # nyx: state[ephemeral]

        #: Rebuilt by ``capture_root`` on the resumed machine.
        self._root: Optional[RootSnapshot] = None  # nyx: state[ephemeral]
        #: Pages that may differ from the root snapshot.  Rebuilt from
        #: scratch each cycle; checkpoints happen at root boundaries.
        self._diverged: set = set()  # nyx: state[ephemeral]
        #: Pages (re)written since the base's capture (or restore) —
        #: the subset of ``_diverged`` whose base-view entry is out of
        #: date.  Fed by ``_absorb_dirty``; drained at boundaries.
        self._since_create: set = set()  # nyx: state[ephemeral]
        #: Pages whose live memory object differs (by identity) from
        #: the root page — maintained incrementally so footprint
        #: queries never scan the whole page array.
        self._private: set = set()  # nyx: state[ephemeral]
        #: Disk sectors that may differ from the root overlay.
        self._disk_diverged: set = set()  # nyx: state[ephemeral]

        # The chain.  Chains live inside one snapshot cycle — every
        # cycle ends back at the root — so checkpoints carry only the
        # sim-charge cursors of layer 1 (see ``snapshot_state``); page
        # mirrors and device/disk captures are rebuilt by the next
        # create on the resumed machine.
        #: Live layers, shallow to deep; element ``i`` is depth ``i + 1``.
        self._layers: List[ChainLayer] = []  # nyx: state[ephemeral]
        #: Layer 1's persistent mirror: it outlives discards (the next
        #: create reverts its stale copies instead of starting over) and
        #: is replaced on root capture and on every re-mirror.  Its
        #: ``touched`` set travels as ``mirror_touched``.
        self._layer1 = ChainLayer([])  # nyx: state[ephemeral]
        self._creates_since_remirror = 0
        #: Chain depth the live VM state currently descends from
        #: (0 = root, exactly when the chain is empty).  Restores and
        #: captures move it.
        self._base_depth = 0  # nyx: state[ephemeral]
        #: Sectors written since the current base's capture — the disk
        #: counterpart of ``_since_create`` for cross-depth restores.
        self._disk_since_base: set = set()  # nyx: state[ephemeral]

        #: Optional :class:`~repro.faults.injector.FaultInjector` hooked
        #: into the restore paths (fault-injection campaigns).
        self.injector: Optional[Any] = None

    # -- root snapshot ------------------------------------------------------

    @property
    def has_root(self) -> bool:
        return self._root is not None

    @property
    def chain_depth(self) -> int:
        """Number of live snapshot layers above the root (0 = none)."""
        return len(self._layers)

    @property
    def base_depth(self) -> int:
        """Chain depth the live VM state currently descends from."""
        return self._base_depth

    @property
    def root(self) -> RootSnapshot:
        if self._root is None:
            raise SnapshotError("no root snapshot has been captured")
        return self._root

    def capture_root(self, guest_blob: bytes = b"") -> RootSnapshot:
        """Take the (expensive) full-copy root snapshot.

        "Creating a root snapshot is expensive because it requires to
        copy the whole physical memory" — we charge per page of the
        whole memory, not per dirty page.
        """
        pages = self._memory.pages_snapshot()
        root = RootSnapshot(
            pages=pages,
            device_state=self._devices.capture_fast(),
            disk_overlay=self._disk.capture_overlay(),
            guest_blob=guest_blob,
        )
        self._clock.charge(
            self._costs.snapshot_fixed
            + self._memory.num_pages * self._costs.root_page_copy)
        self._memory.clear_dirty_log()
        self._disk.take_dirty()
        self._start_at(root)
        return root

    def adopt_root(self, root: RootSnapshot) -> None:
        """Attach a *shared* root snapshot captured by another machine.

        This is the §5.3 scalability mechanism: 80 instances sharing one
        root only pay for their private dirty pages.  The caller must
        ensure memory geometry matches.
        """
        if root.num_pages != self._memory.num_pages:
            raise SnapshotError("shared root has mismatched memory geometry")
        # Load the shared image into this machine (CoW references).
        for idx, page in enumerate(root.pages):
            self._memory.set_page(idx, page, log=False)
        self._devices.restore_fast(root.device_state)
        self._disk.restore_overlay(root.disk_overlay, self._disk.take_dirty())
        self._memory.clear_dirty_log()
        self._start_at(root)

    def _start_at(self, root: RootSnapshot) -> None:
        """Make ``root`` the live state's root, with no divergence, no
        chain and a fresh layer-1 mirror."""
        self._root = root
        self._diverged = set()
        self._since_create = set()
        self._private = set()
        self._disk_diverged = set()
        self._layers = []
        self._layer1 = ChainLayer(list(root.pages))
        self._creates_since_remirror = 0
        self._base_depth = 0
        self._disk_since_base = set()

    def restore_root(self) -> int:  # nyx: hot
        """Reset the VM to the root snapshot; returns pages reset."""
        root = self.root
        if self.injector is not None:
            self.injector.on_root_restore(self)
        self._absorb_dirty()
        diverged = self._diverged
        self._memory.restore_pages(diverged, root.pages)
        n = len(diverged)
        self._diverged = set()
        self._since_create = set()
        self._private = set()
        self._devices.restore_fast(root.device_state)
        for sector in self._disk_diverged:
            overlay = root.disk_overlay
            self._disk.restore_overlay(overlay, [sector])
        nsect = len(self._disk_diverged)
        self._disk_diverged = set()
        self._disk.take_dirty()
        self._clock.charge(
            self._costs.snapshot_fixed
            + self._costs.device_reset_fast
            + n * self._costs.page_copy
            + nsect * self._costs.sector_copy)
        self.stats.root_restores += 1
        self.stats.pages_reset += n
        # The chain dies with its cycle (free: layer 1's mirror is
        # recaptured lazily by the next create).
        if self._layers:
            self._layers = []
        self._base_depth = 0
        self._disk_since_base = set()
        return n

    # -- the chain: new, restore, commit, discard ----------------------------

    def create_incremental(self) -> int:
        """Replace the whole chain with a new layer 1 at the *current*
        state (the paper's incremental snapshot).

        Returns the number of pages captured.  Cost: per page diverged
        from root plus each stale layer-1 copy reverted, a fixed
        hypercall cost, and a device state copy.
        """
        self._truncate(0)
        return self._capture()

    def push_overlay(self) -> int:
        """Stack a new deepest layer on the live chain at the *current*
        state; returns the number of pages captured.

        Charged like a layer-1 create without the stale-revert term (a
        fresh layer has no stale entries to revert).
        """
        if not self._layers:
            raise SnapshotError("push_overlay needs a live layer below it "
                                "(create_incremental starts the chain)")
        if self._base_depth != len(self._layers):
            raise SnapshotError(
                "live state descends from depth %d, not the deepest layer "
                "%d; restore there before pushing"
                % (self._base_depth, len(self._layers)))
        return self._capture()

    def _capture(self) -> int:
        """Capture the live state as the new deepest layer.

        A deeper layer starts from a CoW view of its parent's mirror and
        copies the pages written since the parent's capture.  Layer 1
        reuses its persistent mirror: its real copies are the pages
        diverged from the root, stale copies of the previous layer 1
        revert to root references first (charged per page), and only
        entries that can be out of date are recopied and re-CRC'd.
        """
        self._absorb_dirty()
        layers = self._layers
        depth = len(layers) + 1
        since = self._since_create
        stale = 0
        if layers:
            layer = ChainLayer(list(layers[-1].mirror))
            touched = to_copy = since
        else:
            root_pages = self.root.pages
            if self._creates_since_remirror >= REMIRROR_PERIOD:
                # Re-mirror: throw away accumulated real copies (and
                # their CRCs) and start from a clean CoW view of the
                # root image.
                self._layer1 = ChainLayer(list(root_pages))
                self._creates_since_remirror = 0
                self.stats.remirrors += 1
                self._clock.charge(self._costs.snapshot_fixed)
            layer = self._layer1
            touched = self._diverged
            previous = layer.touched
            # Revert copies left over from the previous layer 1 whose
            # pages are no longer diverged.
            for idx in previous - touched:
                layer.mirror[idx] = root_pages[idx]
                layer.checksums.pop(idx, None)
                layer.verified_ids.pop(idx, None)
                stale += 1
            # Entries untouched since the previous capture already hold
            # the right content and keep their CRC.
            to_copy = ((touched & since) | (touched - previous)
                       if previous else touched)
            self._creates_since_remirror += 1
        mirror = layer.mirror
        checksums = layer.checksums
        verified = layer.verified_ids
        crc32 = zlib.crc32
        for idx, page in self._memory.pages_at(to_copy).items():
            mirror[idx] = page
            checksums[idx] = crc32(page)
            verified[idx] = id(page)
        layer.touched = set(touched)
        layer.device_state = self._devices.capture_fast()
        layer.disk_overlay = self._disk.capture_overlay()
        layer.disk_touched = set(self._disk_since_base)
        layers.append(layer)
        self._since_create = set()
        self._disk_since_base = set()
        self._base_depth = depth
        n = len(touched)
        self._clock.charge(
            self._costs.snapshot_fixed
            + self._costs.device_reset_fast
            + (n + stale) * self._costs.page_copy)
        self.stats.pages_captured += n
        if depth == 1:
            self.stats.incremental_creates += 1
        else:
            self.stats.overlay_pushes += 1
            if depth > self.stats.deepest_chain:
                self.stats.deepest_chain = depth
        return n

    def restore_to_depth(self, depth: int) -> int:  # nyx: hot
        """Reset the VM to chain node ``depth`` (1 = the paper's
        incremental snapshot); returns pages reset.

        Page identity resolves newest-to-oldest: the reset set is the
        pages written since the current base plus the symmetric
        difference between the base's view and the target's view (the
        union of the ``touched`` sets of every layer strictly between
        them), each restored from the target's dense mirror in one
        dirty-write-avoiding batch.  On a one-layer chain that is the
        paper's rule: only pages dirtied since the incremental snapshot
        are reset, straight from the mirror, with no per-page
        root-vs-incremental decision.  Deeper layers stay alive, so the
        placement bandit can hop between nodes restore-by-restore.
        """
        layers = self._layers
        top = len(layers)
        if depth < 1 or depth > top:
            raise SnapshotError("no chain node at depth %d (chain depth %d)"
                                % (depth, top))
        if self.injector is not None:
            self.injector.on_incremental_restore(self)
        for d in range(1, depth + 1):
            self._verify(d)
        base = self._base_depth
        # Layers strictly between base and target (none for the usual
        # end-of-run reset back to the node the run resumed from).
        between = (layers[min(base, depth):max(base, depth)]
                   if base != depth else ())
        reset = self._memory.take_dirty()
        since = self._since_create
        if since or between:
            # Writes absorbed before this restore (e.g. a mid-cycle
            # footprint query drained the dirty log, or a commit or
            # discard parked pages there) and the pages the layers in
            # between hold privately differ from the target's view too.
            since.update(reset)
            for layer in between:
                since |= layer.touched
            reset = since
        target = layers[depth - 1]
        view = target.mirror
        self._memory.restore_pages(reset, view)
        diverged = self._diverged
        private = self._private
        root_pages = self._root.pages
        for idx in reset:
            diverged.add(idx)
            # A CoW reference all the way down to the root image
            # restores the page to shared-root identity; anything else
            # is a private copy.
            if view[idx] is root_pages[idx]:
                private.discard(idx)
            else:
                private.add(idx)
        self._since_create = set()
        self._devices.restore_fast(target.device_state)
        # Sectors drained into the since-base set mid-cycle (or parked
        # there by a commit or discard) still differ from the capture
        # and are reset too, like pages.
        sectors = set(self._disk.take_dirty())
        sectors |= self._disk_since_base
        for layer in between:
            sectors |= layer.disk_touched
        self._disk.restore_overlay(target.disk_overlay, sectors)
        self._disk_diverged.update(sectors)
        self._disk_since_base = set()
        self._base_depth = depth
        n = len(reset)
        self._clock.charge(
            self._costs.snapshot_fixed
            + self._costs.device_reset_fast
            + n * self._costs.page_copy
            + len(sectors) * self._costs.sector_copy)
        if top == 1:
            self.stats.incremental_restores += 1
        else:
            self.stats.chain_restores += 1
        self.stats.pages_reset += n
        return n

    def commit_overlay(self) -> int:
        """Fold the deepest layer into its parent (QCOW2 *commit*).

        Bounds chain length without losing the deepest state: the
        parent's mirror adopts the child's real copies (and their
        CRCs), its touched/disk sets absorb the child's, and its
        device/disk captures are replaced by the child's — after which
        the parent *is* the child's snapshot, one level shallower.
        Returns the number of pages folded; charged per folded page
        plus the fixed hypercall cost.
        """
        layers = self._layers
        if len(layers) < 2:
            raise SnapshotError("no overlay to commit")
        child = layers.pop()
        parent = layers[-1]
        n = len(child.touched)
        mirror = parent.mirror
        for idx in child.touched:
            mirror[idx] = child.mirror[idx]
            parent.checksums[idx] = child.checksums[idx]
            parent.verified_ids[idx] = child.verified_ids[idx]
        parent.touched |= child.touched
        parent.disk_touched |= child.disk_touched
        parent.device_state = child.device_state
        parent.disk_overlay = child.disk_overlay
        depth = len(layers)
        if self._base_depth > depth:
            # The live state descended from the committed child; its
            # view now lives one level down, contents unchanged.
            self._base_depth = depth
        elif self._base_depth == depth:
            # The live state descends from the parent, whose captured
            # view just adopted the child's content: every page (and
            # sector) the child held may now differ between the live
            # state and its base, so they join the written-since-base
            # sets for the next restore to reset.
            self._since_create |= child.touched
            self._disk_since_base |= child.disk_touched
        self._clock.charge(
            self._costs.snapshot_fixed
            + n * self._costs.page_copy)
        self.stats.overlay_commits += 1
        return n

    def discard_deepest(self) -> None:
        """Drop the deepest layer (QCOW2 *discard*; free)."""
        if self._layers:
            self._truncate(len(self._layers) - 1)

    def discard_chain(self) -> None:
        """Drop every layer (scheduling a new input, §3.4; free and
        constant-time on an empty chain)."""
        if self._layers:
            self._truncate(0)

    def _truncate(self, depth: int) -> None:
        """Drop every layer deeper than ``depth``.

        When the live state descends from a dropped layer, the pages and
        sectors the dropped layers held privately rejoin the
        written-since-base sets: the next restore resets them against
        the new base's view, and the next layer-1 capture recopies
        them.  Layer 1's own copies never need to — its mirror outlives
        the discard.
        """
        layers = self._layers
        if self._base_depth > depth:
            for layer in layers[max(depth, 1):]:
                self._since_create |= layer.touched
                self._disk_since_base |= layer.disk_touched
            self._base_depth = depth
        del layers[depth:]

    def _verify(self, depth: int) -> None:
        """Checksum-validate layer ``depth``'s real copies before a
        restore crosses it.

        Cost: one pass over the real copies, charged like a page copy
        each.  Host-side, pages whose object identity is unchanged since
        their last successful check skip the CRC recompute — immutable
        pages cannot change content without changing identity.

        On mismatch the corrupt entries are healed back to CoW root
        references (the root image is immutable and trustworthy, and
        layer 1's mirror outlives the chain), the whole chain is torn
        down — layers build on each other, so one bad layer poisons
        everything deeper — and :class:`SnapshotCorruption` tells the
        caller to rebuild from the root.  Live memory is untouched.
        """
        layer = self._layers[depth - 1]
        mirror = layer.mirror
        checksums = layer.checksums
        verified = layer.verified_ids
        crc32 = zlib.crc32
        bad = []
        for idx, crc in checksums.items():
            page = mirror[idx]
            if verified.get(idx) == id(page):
                continue
            if crc32(page) != crc:
                bad.append(idx)
            else:
                verified[idx] = id(page)
        self._clock.charge(len(checksums) * self._costs.page_copy)
        if not bad:
            return
        root_pages = self.root.pages
        for idx in bad:
            mirror[idx] = root_pages[idx]
            layer.touched.discard(idx)
            del checksums[idx]
            verified.pop(idx, None)
        self._layers = []
        self._base_depth = 0
        self._disk_since_base = set()
        self.stats.corruption_detected += 1
        raise SnapshotCorruption(
            "chain layer %d failed validation on %d page(s): %s"
            % (depth, len(bad), sorted(bad)[:8]))

    # -- durability (checkpoint/resume) ----------------------------------------

    def snapshot_state(self) -> dict:
        """Sim-charge-relevant cursors for a campaign checkpoint.

        Taken at a step boundary (no layer above layer 1 live), the
        only snapshot state that influences *future* sim charges is:
        which layer-1 mirror entries are real copies (the stale revert
        at the next create charges per page) and how far the re-mirror
        period has advanced.  Page contents, per-page CRCs and the
        verified-identity memo are deliberately excluded — they are
        host-side caches rebuilt by the next ``create_incremental``
        (and verified identities are process-local ``id()``s that must
        never cross a checkpoint).  ``chain_depth`` is captured only to
        assert the boundary invariant on restore.
        """
        return {"mirror_touched": sorted(self._layer1.touched),
                "creates_since_remirror": self._creates_since_remirror,
                "chain_depth": len(self._layers)}

    def restore_state(self, state: dict) -> None:
        """Adopt checkpointed cursors on a freshly (re)built machine.

        The restored ``mirror_touched`` entries point at CoW root
        references rather than the original private copies; the next
        ``create_incremental`` reverts or recopies every one of them
        (charging exactly what the original run would have), so the
        invariant heals before any restore can observe the difference.
        A checkpoint may catch layer 1 live (a seed's snapshot marker
        leaves it up after the import run); the next step discards it
        anyway, so the resumed machine starts with an empty chain.
        """
        if int(state.get("chain_depth", 0)) > 1:
            raise SnapshotError(
                "checkpoint captured a live overlay chain; checkpoints "
                "must land on step boundaries")
        layer1 = self._layer1
        layer1.touched = set(state["mirror_touched"])
        layer1.checksums = {}
        layer1.verified_ids = {}
        self._creates_since_remirror = int(state["creates_since_remirror"])
        self._layers = []
        self._base_depth = 0
        self._disk_since_base = set()

    # -- fault-injection surface (see repro.faults) ---------------------------

    def mirror_private_pages(self) -> set:
        """Indices of layer-1 mirror pages that are real copies (safe to
        corrupt without touching the shared root image)."""
        return set(self._layer1.touched)

    def flip_mirror_bit(self, idx: int, byte: int = 0, bit: int = 0) -> None:
        """Corrupt one bit of a real-copy layer-1 page (fault injection).

        Refuses CoW references into the root: those page objects may be
        shared with other machines, and the point of the fault model is
        that only *this* instance's incremental state decays.
        """
        layer = self._layer1
        if idx not in layer.touched:
            return
        page = bytearray(layer.mirror[idx])
        if not page:
            return
        page[byte % len(page)] ^= 1 << (bit % 8)
        layer.mirror[idx] = bytes(page)

    def charge_fault_latency(self, seconds: float) -> None:
        """Charge injected reset latency (the SLOW_RESET fault)."""
        self._clock.charge(seconds)

    # -- accounting -----------------------------------------------------------

    def diverged_pages(self) -> int:
        """Pages currently known to differ from the root snapshot."""
        self._absorb_dirty()
        return len(self._diverged)

    def owned_page_identities(self) -> set:
        """``id()`` of every page object this VM keeps alive.

        Covers the shared root image (held via the root snapshot and
        through every CoW reference in live memory and the mirror),
        this VM's private live pages, and layer 1's real copies.
        Unioning these sets across a fleet — together with the root
        image's own pages — yields the fleet's true unique-page
        footprint.  O(private + mirror copies): the shared portion
        comes from the root's cached id set.
        """
        if self._root is None:
            return set(self._memory.page_identities())
        ids = set(self._root.page_id_set())
        memory = self._memory
        for idx in self._private:
            ids.add(id(memory.page(idx)))
        mirror = self._layer1.mirror
        for idx in self._layer1.touched:
            ids.add(id(mirror[idx]))
        return ids

    def private_page_count(self) -> int:
        """Pages of this VM not shared (by identity) with the root.

        Used by the §5.3 scalability experiment: instances sharing a
        root snapshot only own their diverged pages plus layer-1 copies.
        Maintained incrementally — no O(num_pages) identity scan.
        """
        self._absorb_dirty()
        return len(self._private) + len(self._layer1.touched)

    def _absorb_dirty(self) -> None:
        """Fold the hardware dirty log into the diverged-from-root set."""
        dirty = self._memory.take_dirty()
        if dirty:
            self._diverged.update(dirty)
            self._since_create.update(dirty)
            self._private.update(dirty)
        dirty_sectors = self._disk.take_dirty()
        if dirty_sectors:
            self._disk_diverged.update(dirty_sectors)
            self._disk_since_base.update(dirty_sectors)
