"""Tests for root and incremental whole-VM snapshots (§4.2)."""

import pytest

from repro.vm.machine import Machine
from repro.vm.memory import PAGE_SIZE
from repro.vm.snapshot import REMIRROR_PERIOD, SnapshotError


def small_machine() -> Machine:
    return Machine(memory_bytes=256 * PAGE_SIZE, disk_sectors=64)


class TestRootSnapshot:
    def test_restore_root_rewinds_memory(self):
        m = small_machine()
        m.memory.write(0, b"original")
        m.capture_root()
        m.memory.write(0, b"clobber!")
        m.memory.write(50 * PAGE_SIZE, b"more")
        reset = m.restore_root()
        assert m.memory.read(0, 8) == b"original"
        assert m.memory.read(50 * PAGE_SIZE, 4) == bytes(4)
        assert reset == 2

    def test_restore_root_rewinds_devices(self):
        m = small_machine()
        m.capture_root()
        m.devices.nic.on_rx(100)
        m.devices.timer.tick()
        m.restore_root()
        assert m.devices.nic.rx_packets == 0
        assert m.devices.timer.ticks == 0

    def test_restore_root_rewinds_disk(self):
        m = small_machine()
        m.disk.write_sector(5, b"a" * 512)
        m.capture_root()
        m.disk.write_sector(5, b"b" * 512)
        m.disk.write_sector(6, b"c" * 512)
        m.restore_root()
        assert m.disk.read_sector(5) == b"a" * 512
        assert m.disk.read_sector(6) == bytes(512)

    def test_restore_without_root_raises(self):
        m = small_machine()
        with pytest.raises(SnapshotError):
            m.restore_root()

    def test_repeated_restores_are_idempotent(self):
        m = small_machine()
        m.memory.write(0, b"base")
        m.capture_root()
        for i in range(5):
            m.memory.write(0, b"dirty %d" % i)
            m.restore_root()
            assert m.memory.read(0, 4) == b"base"

    def test_second_restore_touches_nothing(self):
        m = small_machine()
        m.capture_root()
        m.memory.write(0, b"x")
        assert m.restore_root() == 1
        assert m.restore_root() == 0


class TestIncrementalSnapshot:
    def test_restore_incremental_rewinds_to_midpoint(self):
        m = small_machine()
        m.capture_root()
        m.memory.write(0, b"prefix")           # packets 1..k
        m.create_incremental()
        m.memory.write(0, b"suffix")           # mutated tail
        m.memory.write(10 * PAGE_SIZE, b"junk")
        m.restore_incremental()
        assert m.memory.read(0, 6) == b"prefix"
        assert m.memory.read(10 * PAGE_SIZE, 4) == bytes(4)

    def test_incremental_then_root_restores_cleanly(self):
        m = small_machine()
        m.memory.write(0, b"root state")
        m.capture_root()
        m.memory.write(0, b"prefixed..")
        m.create_incremental()
        m.memory.write(0, b"mutated...")
        m.restore_incremental()
        m.restore_root()
        assert m.memory.read(0, 10) == b"root state"

    def test_many_cycles_from_incremental(self):
        m = small_machine()
        m.capture_root()
        m.memory.write(0, b"prefix")
        m.create_incremental()
        for i in range(50):
            m.memory.write(0, b"test%02d" % i)
            m.memory.write((i % 20 + 1) * PAGE_SIZE, b"scratch")
            m.restore_incremental()
            assert m.memory.read(0, 6) == b"prefix"

    def test_restore_incremental_without_create_raises(self):
        m = small_machine()
        m.capture_root()
        with pytest.raises(SnapshotError):
            m.restore_incremental()

    def test_new_incremental_replaces_old(self):
        m = small_machine()
        m.capture_root()
        m.memory.write(0, b"first")
        m.create_incremental()
        m.restore_root()
        m.memory.write(0, b"second")
        m.create_incremental()
        m.memory.write(0, b"garbage")
        m.restore_incremental()
        assert m.memory.read(0, 6) == b"second"

    def test_incremental_captures_devices_and_disk(self):
        m = small_machine()
        m.capture_root()
        m.devices.nic.on_rx(10)
        m.disk.write_sector(3, b"p" * 512)
        m.create_incremental()
        m.devices.nic.on_rx(10)
        m.disk.write_sector(3, b"q" * 512)
        m.restore_incremental()
        assert m.devices.nic.rx_packets == 1
        assert m.disk.read_sector(3) == b"p" * 512

    def test_remirror_keeps_correctness(self):
        m = small_machine()
        m.capture_root()
        for i in range(REMIRROR_PERIOD + 5):
            m.memory.write(0, b"gen%06d" % i)
            m.create_incremental()
            m.memory.write(0, b"scribble..")
            m.restore_incremental()
            assert m.memory.read(0, 9) == b"gen%06d" % i
            m.restore_root()
        assert m.snapshots.stats.remirrors >= 1

    def test_remirror_drops_stale_checksums(self, monkeypatch):
        # Regression: a re-mirror kept the previous layer 1's CRCs, so
        # the next restore "found" corruption on pages the fresh mirror
        # never copied.
        monkeypatch.setattr("repro.vm.snapshot.REMIRROR_PERIOD", 1)
        m = small_machine()
        m.capture_root()
        m.memory.write(0, b"first")
        m.create_incremental()
        m.restore_root()
        m.memory.write(PAGE_SIZE, b"second")
        m.create_incremental()
        assert m.snapshots.stats.remirrors == 1
        m.memory.write(PAGE_SIZE, b"junk..")
        m.restore_incremental()
        assert m.snapshots.stats.corruption_detected == 0
        assert m.memory.read(PAGE_SIZE, 6) == b"second"

    def test_reset_for_next_test_prefers_incremental(self):
        m = small_machine()
        m.capture_root()
        m.memory.write(0, b"prefix")
        m.create_incremental()
        m.memory.write(0, b"tail")
        m.reset_for_next_test()
        assert m.memory.read(0, 6) == b"prefix"
        m.snapshots.discard_chain()
        m.reset_for_next_test()
        assert m.memory.read(0, 6) == bytes(6)


class TestSharedRootSnapshot:
    def test_adopt_root_copies_state(self):
        a = small_machine()
        a.memory.write(0, b"golden")
        root = a.capture_root()
        b = small_machine()
        b.adopt_root(root)
        assert b.memory.read(0, 6) == b"golden"

    def test_adopted_instances_are_independent(self):
        a = small_machine()
        a.memory.write(0, b"golden")
        root = a.capture_root()
        b = small_machine()
        b.adopt_root(root)
        b.memory.write(0, b"private-b")
        a.memory.write(0, b"private-a")
        b.restore_root()
        assert b.memory.read(0, 6) == b"golden"
        assert a.memory.read(0, 9) == b"private-a"

    def test_private_pages_stay_small(self):
        a = small_machine()
        root = a.capture_root()
        b = small_machine()
        b.adopt_root(root)
        b.memory.write(0, b"x")
        b.memory.write(7 * PAGE_SIZE, b"y")
        # Shared instance owns only its two diverged pages.
        assert b.snapshots.private_page_count() <= 4

    def test_geometry_mismatch_rejected(self):
        a = small_machine()
        root = a.capture_root()
        b = Machine(memory_bytes=128 * PAGE_SIZE, disk_sectors=64)
        with pytest.raises(SnapshotError):
            b.adopt_root(root)


class TestSnapshotAccounting:
    def test_clock_charged_for_resets(self):
        m = small_machine()
        m.capture_root()
        t0 = m.clock.now
        for _ in range(10):
            m.memory.write(0, b"dirty")
            m.restore_root()
        assert m.clock.now > t0

    def test_reset_cost_scales_with_dirty_pages(self):
        m = small_machine()
        m.capture_root()
        m.memory.write(0, b"x")
        t0 = m.clock.now
        m.restore_root()
        small_cost = m.clock.now - t0
        for page in range(100):
            m.memory.write(page * PAGE_SIZE, b"x")
        t1 = m.clock.now
        m.restore_root()
        large_cost = m.clock.now - t1
        assert large_cost > small_cost

    def test_stats_counters(self):
        m = small_machine()
        m.capture_root()
        m.memory.write(0, b"a")
        m.create_incremental()
        m.memory.write(0, b"b")
        m.restore_incremental()
        m.restore_root()
        stats = m.stats()
        assert stats["incremental_creates"] == 1
        assert stats["incremental_restores"] == 1
        assert stats["root_restores"] == 1
