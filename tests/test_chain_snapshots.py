"""Overlay-chain snapshot tests (multi-depth incremental snapshots).

Covers the QCOW2-style backing chain the bandit placement runs over:
push/restore/commit/discard semantics, device and disk capture per
layer, accounting, corruption teardown — plus a hypothesis state
machine that checks any interleaving of chain operations against a
flat model that stores every layer as a full state copy, and a
depth-1 equivalence test pinning the chain API to the classic
single-incremental path (state *and* sim clock).
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.vm.machine import Machine
from repro.vm.memory import PAGE_SIZE
from repro.vm.snapshot import SnapshotCorruption, SnapshotError


def small_machine() -> Machine:
    return Machine(memory_bytes=256 * PAGE_SIZE, disk_sectors=64)


def chain_machine(layers):
    """A machine with one chain layer per ``layers`` entry; entry i
    writes ``layers[i]`` at page i before capturing."""
    m = small_machine()
    m.capture_root()
    for i, payload in enumerate(layers):
        m.memory.write(i * PAGE_SIZE, payload)
        if i == 0:
            m.create_incremental()
        else:
            m.push_overlay()
    return m


class TestChainBasics:
    def test_push_requires_incremental(self):
        m = small_machine()
        m.capture_root()
        with pytest.raises(SnapshotError):
            m.push_overlay()

    def test_push_requires_deepest_base(self):
        m = chain_machine([b"one", b"two"])
        m.restore_to_depth(1)
        with pytest.raises(SnapshotError):
            m.push_overlay()

    def test_restore_to_each_depth(self):
        m = chain_machine([b"one", b"two", b"three"])
        assert m.snapshots.chain_depth == 3
        for depth, visible in ((1, 1), (3, 3), (2, 2)):
            m.memory.write(20 * PAGE_SIZE, b"junk")
            m.restore_to_depth(depth)
            for i in range(3):
                want = [b"one", b"two", b"three"][i] if i < visible else b""
                got = m.memory.read(i * PAGE_SIZE, 5).rstrip(b"\x00")
                assert got == want, (depth, i)
            assert m.memory.read(20 * PAGE_SIZE, 4) == bytes(4)

    def test_deeper_layers_survive_shallow_restore(self):
        m = chain_machine([b"one", b"two"])
        m.restore_to_depth(1)
        assert m.snapshots.chain_depth == 2
        m.restore_to_depth(2)
        assert m.memory.read(PAGE_SIZE, 3) == b"two"

    def test_restore_depth_bounds(self):
        m = chain_machine([b"one", b"two"])
        with pytest.raises(SnapshotError):
            m.restore_to_depth(0)
        with pytest.raises(SnapshotError):
            m.restore_to_depth(3)

    def test_chain_captures_devices_and_disk(self):
        m = small_machine()
        m.capture_root()
        m.devices.nic.on_rx(64)
        m.disk.write_sector(3, b"a" * 512)
        m.create_incremental()
        m.devices.nic.on_rx(64)
        m.disk.write_sector(3, b"b" * 512)
        m.push_overlay()
        m.devices.nic.on_rx(64)
        m.disk.write_sector(3, b"c" * 512)
        m.restore_to_depth(2)
        assert m.devices.nic.rx_packets == 2
        assert m.disk.read_sector(3) == b"b" * 512
        m.restore_to_depth(1)
        assert m.devices.nic.rx_packets == 1
        assert m.disk.read_sector(3) == b"a" * 512

    def test_commit_folds_child_into_parent(self):
        m = chain_machine([b"one", b"two", b"three"])
        m.snapshots.commit_overlay()
        assert m.snapshots.chain_depth == 2
        # The parent *is* the child's snapshot now, one level down.
        m.memory.write(20 * PAGE_SIZE, b"junk")
        m.restore_to_depth(2)
        assert m.memory.read(2 * PAGE_SIZE, 5) == b"three"

    def test_commit_to_depth_one(self):
        m = chain_machine([b"one", b"two"])
        m.snapshots.commit_overlay()
        assert m.snapshots.chain_depth == 1
        m.memory.write(20 * PAGE_SIZE, b"junk")
        m.restore_incremental()
        assert m.memory.read(PAGE_SIZE, 3) == b"two"

    def test_commit_without_overlay_raises(self):
        m = chain_machine([b"one"])
        with pytest.raises(SnapshotError):
            m.snapshots.commit_overlay()

    def test_discard_deepest_drops_layer(self):
        m = chain_machine([b"one", b"two", b"three"])
        m.snapshots.discard_deepest()
        assert m.snapshots.chain_depth == 2
        with pytest.raises(SnapshotError):
            m.restore_to_depth(3)
        m.restore_to_depth(2)
        assert m.memory.read(PAGE_SIZE, 3) == b"two"
        assert m.memory.read(2 * PAGE_SIZE, 5) == bytes(5)

    def test_discard_deepest_at_depth_one_discards_incremental(self):
        m = chain_machine([b"one"])
        m.snapshots.discard_deepest()
        assert m.snapshots.chain_depth == 0
        with pytest.raises(SnapshotError):
            m.restore_incremental()

    def test_create_incremental_replaces_chain(self):
        m = chain_machine([b"one", b"two"])
        m.memory.write(5 * PAGE_SIZE, b"fresh")
        m.create_incremental()
        assert m.snapshots.chain_depth == 1
        m.memory.write(5 * PAGE_SIZE, b"junk!")
        m.restore_incremental()
        assert m.memory.read(5 * PAGE_SIZE, 5) == b"fresh"
        assert m.memory.read(PAGE_SIZE, 3) == b"two"

    def test_reset_for_next_test_uses_chain_base(self):
        m = chain_machine([b"one", b"two"])
        m.memory.write(20 * PAGE_SIZE, b"junk")
        m.reset_for_next_test()
        assert m.memory.read(PAGE_SIZE, 3) == b"two"
        assert m.memory.read(20 * PAGE_SIZE, 4) == bytes(4)


class TestChainAccounting:
    def test_stats_counters(self):
        m = chain_machine([b"one", b"two", b"three"])
        m.restore_to_depth(2)
        m.restore_to_depth(3)
        m.snapshots.commit_overlay()
        stats = m.snapshots.stats
        assert stats.overlay_pushes == 2
        assert stats.chain_restores == 2
        assert stats.overlay_commits == 1
        assert stats.deepest_chain == 3

    def test_depth_one_chain_api_matches_legacy(self):
        """restore_incremental is restore_to_depth(1): the paper's
        incremental snapshot is chain layer 1, in state *and* sim
        clock."""
        ops = [("w", 3, b"dirty"), ("r",), ("w", 7, b"more!"), ("w", 3, b"x"),
               ("r",), ("r",)]
        machines = [small_machine(), small_machine()]
        for m in machines:
            m.capture_root()
            m.memory.write(0, b"prefix")
            m.create_incremental()
        legacy, chained = machines
        for op in ops:
            if op[0] == "w":
                legacy.memory.write(op[1] * PAGE_SIZE, op[2])
                chained.memory.write(op[1] * PAGE_SIZE, op[2])
            else:
                legacy.restore_incremental()
                chained.restore_to_depth(1)
        assert legacy.clock.now == chained.clock.now
        for page in (0, 3, 7):
            assert (legacy.memory.page(page) == chained.memory.page(page))

    def test_reset_set_grows_with_distance(self):
        """Hopping across more layers resets more pages: the reset set
        is the symmetric difference of the two nodes' views, so a
        same-depth restore touches nothing extra."""
        layers = [bytes([65 + i]) * 64 for i in range(4)]
        near, far = chain_machine(layers), chain_machine(layers)
        assert near.restore_to_depth(4) == 0
        # Depth 1 undoes the pages layers 2..4 captured privately.
        assert far.restore_to_depth(1) == 3


class TestChainCorruption:
    def test_corrupt_overlay_detected_and_chain_torn_down(self):
        m = chain_machine([b"one", b"two", b"three"])
        overlay = m.snapshots._layers[1]
        idx = next(iter(overlay.checksums))
        overlay.mirror[idx] = b"\xff" * PAGE_SIZE
        with pytest.raises(SnapshotCorruption):
            m.restore_to_depth(2)
        # One corrupt layer poisons everything deeper: the chain (and
        # the depth-1 snapshot under it) is gone, the root still works.
        assert m.snapshots.chain_depth == 0
        assert m.snapshots.stats.corruption_detected == 1
        m.restore_root()

    def test_reset_for_next_test_falls_back_to_root(self):
        m = chain_machine([b"one", b"two"])
        overlay = m.snapshots._layers[1]
        idx = next(iter(overlay.checksums))
        overlay.mirror[idx] = b"\xff" * PAGE_SIZE
        m.memory.write(20 * PAGE_SIZE, b"junk")
        m.reset_for_next_test()
        assert m.memory.read(20 * PAGE_SIZE, 4) == bytes(4)
        assert m.memory.read(0, 3) == bytes(3)  # back at the root


N_PAGES = 32


def _tiny_machine():
    return Machine(memory_bytes=N_PAGES * PAGE_SIZE, disk_sectors=16)


class ChainModel(RuleBasedStateMachine):
    """Chain ops against a flat model: every layer a full state copy.

    The model stores each chain node as a complete (memory, nic, timer,
    disk) state — the semantics a chain of CoW overlays must be
    observationally indistinguishable from.  ``base`` mirrors which
    node the live state descends from (pushes are only legal from the
    deepest node, as in the real manager).
    """

    def __init__(self):
        super().__init__()
        self.machine = _tiny_machine()
        self.machine.capture_root()
        self.live_mem = {}      # page -> byte value
        self.live_nic = 0
        self.live_disk = {}     # sector -> byte value
        self.stack = []         # depth k -> full state at stack[k-1]
        self.base = 0

    def _state(self):
        return (dict(self.live_mem), self.live_nic, dict(self.live_disk))

    @rule(page=st.integers(0, N_PAGES - 1), value=st.integers(1, 255))
    def write(self, page, value):
        self.machine.memory.write(page * PAGE_SIZE, bytes([value]))
        self.live_mem[page] = value

    @rule(sector=st.integers(0, 15), value=st.integers(1, 255))
    def write_disk(self, sector, value):
        self.machine.disk.write_sector(sector, bytes([value]) * 512)
        self.live_disk[sector] = value

    @rule()
    def rx_packet(self):
        self.machine.devices.nic.on_rx(64)
        self.live_nic += 1

    @precondition(lambda self: not self.stack)
    @rule()
    def create_incremental(self):
        self.machine.create_incremental()
        self.stack = [self._state()]
        self.base = 1

    @precondition(lambda self: self.stack
                  and self.base == len(self.stack) < 5)
    @rule()
    def push_overlay(self):
        self.machine.push_overlay()
        self.stack.append(self._state())
        self.base = len(self.stack)

    @precondition(lambda self: self.stack)
    @rule(data=st.data())
    def restore_to_depth(self, data):
        depth = data.draw(st.integers(1, len(self.stack)))
        self.machine.restore_to_depth(depth)
        mem, nic, disk = self.stack[depth - 1]
        self.live_mem = dict(mem)
        self.live_nic = nic
        self.live_disk = dict(disk)
        self.base = depth

    @precondition(lambda self: len(self.stack) >= 2)
    @rule()
    def commit_overlay(self):
        # Fold: the parent becomes the child's snapshot, one shallower.
        self.machine.snapshots.commit_overlay()
        self.stack[-2] = self.stack[-1]
        self.stack.pop()
        self.base = min(self.base, len(self.stack))

    @precondition(lambda self: self.stack)
    @rule()
    def discard_deepest(self):
        self.machine.snapshots.discard_deepest()
        self.stack.pop()
        self.base = min(self.base, len(self.stack))

    @invariant()
    def machine_matches_model(self):
        memory = self.machine.memory
        for page in range(N_PAGES):
            want = self.live_mem.get(page, 0)
            assert memory.page(page)[0] == want, page
        assert self.machine.devices.nic.rx_packets == self.live_nic
        for sector in range(16):
            want = self.live_disk.get(sector, 0)
            assert self.machine.disk.read_sector(sector)[0] == want, sector
        assert self.machine.snapshots.chain_depth == len(self.stack)


ChainModel.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
TestChainModel = ChainModel.TestCase


def test_chain_operations_are_deterministic():
    """The same op sequence replayed on a fresh machine lands on the
    same sim clock and the same state — chains stay replayable."""
    def run():
        m = chain_machine([b"one", b"two", b"three"])
        m.restore_to_depth(1)
        m.memory.write(9 * PAGE_SIZE, b"dirty")
        m.restore_to_depth(3)
        m.snapshots.commit_overlay()
        m.memory.write(4 * PAGE_SIZE, b"again")
        m.restore_to_depth(2)
        return m
    a, b = run(), run()
    assert a.clock.now == b.clock.now
    for page in range(12):
        assert a.memory.page(page) == b.memory.page(page)
