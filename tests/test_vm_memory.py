"""Unit tests for guest physical memory and dirty logging."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vm.memory import PAGE_SIZE, GuestMemory, MemoryError_, RegionAllocator


class TestGeometry:
    def test_rounds_up_to_pages(self):
        mem = GuestMemory(PAGE_SIZE + 1)
        assert mem.num_pages == 2
        assert mem.size_bytes == 2 * PAGE_SIZE

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            GuestMemory(0)

    def test_starts_zeroed_and_clean(self):
        mem = GuestMemory(4 * PAGE_SIZE)
        assert mem.read(0, 16) == bytes(16)
        assert mem.dirty_count == 0


class TestReadWrite:
    def test_write_read_roundtrip(self):
        mem = GuestMemory(4 * PAGE_SIZE)
        mem.write(100, b"hello world")
        assert mem.read(100, 11) == b"hello world"

    def test_write_spanning_pages(self):
        mem = GuestMemory(4 * PAGE_SIZE)
        data = bytes(range(256)) * 20  # 5120 bytes, crosses a boundary
        mem.write(PAGE_SIZE - 100, data)
        assert mem.read(PAGE_SIZE - 100, len(data)) == data
        assert sorted(mem.dirty_stack) == [0, 1, 2]

    def test_out_of_range_read_raises(self):
        mem = GuestMemory(PAGE_SIZE)
        with pytest.raises(MemoryError_):
            mem.read(PAGE_SIZE - 1, 2)

    def test_out_of_range_write_raises(self):
        mem = GuestMemory(PAGE_SIZE)
        with pytest.raises(MemoryError_):
            mem.write(PAGE_SIZE, b"x")

    def test_zero_length_read(self):
        mem = GuestMemory(PAGE_SIZE)
        assert mem.read(0, 0) == b""


class TestSealingTiers:
    """Every page is an immutable ``bytes`` object, so snapshots can
    alias pages by reference."""

    def test_whole_page_write_adopts_bytes_by_reference(self):
        mem = GuestMemory(4 * PAGE_SIZE)
        payload = bytes(range(256)) * 16
        mem.write(PAGE_SIZE, payload)
        assert mem._pages[1] is payload

    def test_pages_snapshot_never_leaks_mutable_pages(self):
        mem = GuestMemory(4 * PAGE_SIZE)
        mem.write(3, b"q")
        snap = mem.pages_snapshot()
        assert all(type(p) is bytes for p in snap)
        mem.write(3, b"z")  # must not mutate the snapshot's view
        assert snap[0][3:4] == b"q"


class TestReadFastPath:
    """Single-page reads take a direct-slice fast path; straddling
    reads assemble chunks — both must agree byte-for-byte."""

    def test_single_page_read_after_whole_page_write(self):
        mem = GuestMemory(4 * PAGE_SIZE)
        mem.write(0, bytes(PAGE_SIZE))
        out = mem.read(100, 50)
        assert type(out) is bytes
        assert out == bytes(50)

    def test_single_page_read_after_subpage_write(self):
        mem = GuestMemory(4 * PAGE_SIZE)
        mem.write(100, b"hot")
        out = mem.read(100, 3)
        assert type(out) is bytes
        assert out == b"hot"

    def test_read_straddling_page_boundary(self):
        mem = GuestMemory(4 * PAGE_SIZE)
        left = bytes([7]) * 64
        right = bytes([9]) * 64
        mem.write(PAGE_SIZE - 64, left)
        mem.write(PAGE_SIZE, right)
        assert mem.read(PAGE_SIZE - 64, 128) == left + right

    def test_read_straddling_whole_and_subpage_writes(self):
        mem = GuestMemory(4 * PAGE_SIZE)
        mem.write(PAGE_SIZE, bytes([1]) * PAGE_SIZE)  # page 1: whole-page
        mem.write(2 * PAGE_SIZE + 5, b"\x02")         # page 2: sub-page
        out = mem.read(2 * PAGE_SIZE - 8, 16)
        assert type(out) is bytes
        assert out == bytes([1]) * 8 + bytes(5) + b"\x02" + bytes(2)

    def test_read_spanning_three_pages(self):
        mem = GuestMemory(4 * PAGE_SIZE)
        data = bytes(range(256)) * ((2 * PAGE_SIZE + 512) // 256)
        mem.write(PAGE_SIZE - 256, data)
        assert mem.read(PAGE_SIZE - 256, len(data)) == data

    def test_exact_page_read_at_boundary_is_whole_page(self):
        mem = GuestMemory(4 * PAGE_SIZE)
        mem.write(PAGE_SIZE, b"edge")
        out = mem.read(PAGE_SIZE, PAGE_SIZE)
        assert len(out) == PAGE_SIZE
        assert out[:4] == b"edge"

    @given(st.integers(0, 3 * PAGE_SIZE - 1), st.integers(0, PAGE_SIZE + 17))
    @settings(max_examples=60)
    def test_fast_path_agrees_with_bytewise_reads(self, addr, length):
        # Five pages, so every generated read (up to 4 * PAGE_SIZE + 16)
        # stays inside guest memory.
        mem = GuestMemory(5 * PAGE_SIZE)
        pattern = bytes((i * 31 + 7) & 0xFF for i in range(PAGE_SIZE))
        mem.write(0, pattern)            # page 0: whole-page
        mem.write(PAGE_SIZE + 3, b"mid")  # page 1: sub-page
        mem.write(2 * PAGE_SIZE, pattern)
        chunk = mem.read(addr, length)
        assert chunk == b"".join(mem.read(addr + i, 1)
                                 for i in range(length))


class TestDirtyLogging:
    def test_first_write_pushes_stack_once(self):
        mem = GuestMemory(8 * PAGE_SIZE)
        mem.write(0, b"a")
        mem.write(1, b"b")
        mem.write(10, b"c")
        assert mem.dirty_stack == [0]
        assert mem.dirty_count == 1

    def test_take_dirty_clears_both_structures(self):
        mem = GuestMemory(8 * PAGE_SIZE)
        mem.write(0, b"a")
        mem.write(PAGE_SIZE * 3, b"b")
        pages = mem.take_dirty()
        assert sorted(pages) == [0, 3]
        assert mem.dirty_count == 0
        assert not any(mem.dirty_bitmap)

    def test_scan_bitmap_matches_stack(self):
        mem = GuestMemory(16 * PAGE_SIZE)
        for page in (1, 5, 9):
            mem.write(page * PAGE_SIZE, b"x")
        assert mem.scan_bitmap() == [1, 5, 9]
        assert mem.dirty_count == 0

    def test_redirty_after_flush_is_logged_again(self):
        mem = GuestMemory(4 * PAGE_SIZE)
        mem.write(0, b"a")
        mem.take_dirty()
        mem.write(0, b"b")
        assert mem.dirty_stack == [0]

    def test_set_page_without_log(self):
        mem = GuestMemory(4 * PAGE_SIZE)
        mem.set_page(2, bytes(PAGE_SIZE), log=False)
        assert mem.dirty_count == 0

    @given(st.lists(st.integers(min_value=0, max_value=63), max_size=200))
    @settings(max_examples=50)
    def test_stack_is_exact_set_of_dirty_pages(self, pages):
        mem = GuestMemory(64 * PAGE_SIZE)
        for page in pages:
            mem.write(page * PAGE_SIZE, b"\xff")
        assert sorted(set(pages)) == sorted(mem.dirty_stack)

    @given(st.binary(min_size=1, max_size=3 * PAGE_SIZE),
           st.integers(min_value=0, max_value=PAGE_SIZE))
    @settings(max_examples=50)
    def test_roundtrip_any_offset(self, data, offset):
        mem = GuestMemory(8 * PAGE_SIZE)
        mem.write(offset, data)
        assert mem.read(offset, len(data)) == data


class TestRegionAllocator:
    def test_alloc_is_page_aligned_and_disjoint(self):
        mem = GuestMemory(64 * PAGE_SIZE)
        alloc = RegionAllocator(mem)
        r1 = alloc.alloc(100)
        r2 = alloc.alloc(PAGE_SIZE + 1)
        assert r1.num_pages == 1
        assert r2.num_pages == 2
        assert r2.start_page == r1.start_page + r1.num_pages

    def test_blob_roundtrip(self):
        mem = GuestMemory(64 * PAGE_SIZE)
        alloc = RegionAllocator(mem)
        region = alloc.alloc(1000)
        alloc.write_blob(region, b"state blob")
        assert alloc.read_blob(region) == b"state blob"

    def test_blob_too_large_raises(self):
        mem = GuestMemory(64 * PAGE_SIZE)
        alloc = RegionAllocator(mem)
        region = alloc.alloc(100)  # one page
        with pytest.raises(MemoryError_):
            alloc.write_blob(region, bytes(PAGE_SIZE))

    def test_oom(self):
        mem = GuestMemory(2 * PAGE_SIZE)
        alloc = RegionAllocator(mem)
        alloc.alloc(2 * PAGE_SIZE)
        with pytest.raises(MemoryError_):
            alloc.alloc(1)

    def test_bump_pointer_state_roundtrip(self):
        mem = GuestMemory(8 * PAGE_SIZE)
        alloc = RegionAllocator(mem)
        alloc.alloc(PAGE_SIZE)
        saved = alloc.state()
        alloc.alloc(PAGE_SIZE)
        alloc.set_state(saved)
        assert alloc.state() == saved

