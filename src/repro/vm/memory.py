"""Paged guest physical memory with hardware-style dirty logging.

This module substitutes for the VM physical memory managed by KVM in
the paper.  Two dirty-tracking structures are maintained side by side,
exactly as §2.3 describes:

* a **dirty bitmap** with one byte per page ("for some reason, KVM uses
  1 byte in the bitmap for each page"), and
* Nyx's **dirty-page stack**, which records each page the first time it
  is dirtied so a reset never needs to scan the whole bitmap.

Every page is an immutable ``bytes`` object, so pages are safe to
share: root snapshots, chain-layer mirrors and fleet-wide CoW all hold
references to them, and sharing a reference *is* the copy-on-write
primitive.  An all-zero page is shared via a sentinel, the analogue of
lazily allocated guest memory.  A write replaces the page with a new
object (a whole-page write adopts an immutable payload by reference).
The guest kernel's flush writes each changed page once per flush, so a
mutable in-place page buffer would save no copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

PAGE_SIZE = 4096
#: ``PAGE_SIZE == 1 << PAGE_SHIFT``; the hot paths use shifts/masks
#: instead of ``divmod``.
PAGE_SHIFT = 12
PAGE_MASK = PAGE_SIZE - 1

_ZERO_PAGE = bytes(PAGE_SIZE)


class MemoryError_(Exception):
    """Raised on out-of-range guest physical accesses."""


class GuestMemory:  # nyx: allow[reset]
    """Guest physical memory: a page array plus dirty logging.

    Reset-lint suppression: the page array and dirty log *are* the
    snapshot substrate — the SnapshotManager rewrites pages and drains
    the dirty log on every restore; there is nothing above it to reset
    through.

    Parameters
    ----------
    size_bytes:
        Total guest physical memory.  Rounded up to whole pages.
    """

    def __init__(self, size_bytes: int) -> None:
        if size_bytes <= 0:
            raise ValueError("memory size must be positive")
        self.num_pages = -(-size_bytes // PAGE_SIZE)
        self.size_bytes = self.num_pages * PAGE_SIZE
        self._pages: List[bytes] = [_ZERO_PAGE] * self.num_pages
        #: KVM-style dirty bitmap, one byte per page.
        self.dirty_bitmap = bytearray(self.num_pages)
        #: Nyx-style stack of pages dirtied since the last flush.
        self.dirty_stack: List[int] = []
        #: Count of pages ever dirtied (statistics only).
        self.total_dirtied = 0

    # -- raw page access -------------------------------------------------

    def page(self, index: int) -> bytes:
        """Return the current content of page ``index``: an immutable
        object, safe to alias in snapshot structures."""
        self._check_page(index)
        return self._pages[index]

    def set_page(self, index: int, content: bytes, *, log: bool = True) -> None:
        """Replace page ``index``; marks it dirty unless ``log`` is False.

        Restores pass ``log=False`` — resetting a page must not make it
        appear dirty again, or the next reset would do wasted work.
        ``content`` is coerced to immutable ``bytes`` (snapshot restores
        pass CoW references, which are adopted as-is).
        """
        self._check_page(index)
        if len(content) != PAGE_SIZE:
            raise ValueError("page content must be exactly PAGE_SIZE bytes")
        if type(content) is not bytes:
            content = bytes(content)
        self._pages[index] = content
        if log:
            self.mark_dirty(index)

    def restore_pages(self, indices: Sequence[int],  # nyx: hot
                      source: List[bytes]) -> None:
        """Reset every page in ``indices`` to ``source[idx]`` without
        dirty-logging — the batch form of ``set_page(..., log=False)``
        used by snapshot restores (one call instead of one per page).
        """
        pages = self._pages
        for idx in indices:
            pages[idx] = source[idx]

    def pages_at(self, indices) -> Dict[int, bytes]:  # nyx: hot
        """``{idx: page}`` for every page in ``indices`` — the batch
        form of :meth:`page` used when a chain layer captures its write
        delta (one call instead of one per touched page).
        """
        pages = self._pages
        return {idx: pages[idx] for idx in indices}

    def pages_snapshot(self) -> List[bytes]:
        """Shallow copy of the page array (CoW view of all memory); it
        stays valid when shared across machines or stored in a root
        snapshot."""
        return list(self._pages)

    def page_identities(self) -> List[int]:
        """``id()`` of every page object currently mapped.

        Pages shared with a root snapshot (or the zero-page sentinel)
        alias the same objects, so unique-id counting across a fleet of
        machines measures the true memory footprint of §5.3's shared
        root snapshots.
        """
        return [id(p) for p in self._pages]

    # -- byte-granular access ---------------------------------------------

    def read(self, addr: int, length: int) -> bytes:  # nyx: hot
        """Read ``length`` bytes starting at guest physical ``addr``."""
        self._check_range(addr, length)
        if length == 0:
            return b""
        page_off = addr & PAGE_MASK
        end = page_off + length
        if end <= PAGE_SIZE:
            # Single-page fast path: one slice, no assembly buffer.
            return self._pages[addr >> PAGE_SHIFT][page_off:end]
        parts = []
        remaining = length
        offset = addr
        while remaining:
            page_idx = offset >> PAGE_SHIFT
            page_off = offset & PAGE_MASK
            chunk = min(remaining, PAGE_SIZE - page_off)
            parts.append(self._pages[page_idx][page_off:page_off + chunk])
            offset += chunk
            remaining -= chunk
        return b"".join(parts)

    def write(self, addr: int, data: bytes) -> None:  # nyx: hot
        """Write ``data`` at guest physical ``addr``, dirtying pages."""
        length = len(data)
        self._check_range(addr, length)
        if not length:
            return
        page_off = addr & PAGE_MASK
        if page_off + length <= PAGE_SIZE:
            # Single-page fast path (the overwhelmingly common case).
            self._write_chunk(addr >> PAGE_SHIFT, page_off, data, length)
            return
        view = memoryview(data)
        page_idx = addr >> PAGE_SHIFT
        start = 0
        while start < length:
            chunk = min(length - start, PAGE_SIZE - page_off)
            self._write_chunk(page_idx, page_off,
                              view[start:start + chunk], chunk)
            start += chunk
            page_idx += 1
            page_off = 0

    def write_if_changed(self, addr: int, data: bytes) -> int:  # nyx: hot
        """Like :meth:`write`, but skip pages whose bytes are identical.

        Returns the number of pages actually written.  Used by the
        state-blob flush path: reserializing a component whose bytes
        landed unchanged must not dirty its pages (dirty pages are real
        reset work on the next restore).
        """
        length = len(data)
        self._check_range(addr, length)
        if not length:
            return 0
        pages = self._pages
        page_idx = addr >> PAGE_SHIFT
        page_off = addr & PAGE_MASK
        start = 0
        written = 0
        while start < length:
            chunk = min(length - start, PAGE_SIZE - page_off)
            # bytes slices on both sides: the comparison is a C-level
            # memcmp (a memoryview here would compare elementwise).
            piece = data[start:start + chunk]
            if pages[page_idx][page_off:page_off + chunk] != piece:
                self._write_chunk(page_idx, page_off, piece, chunk)
                written += 1
            start += chunk
            page_idx += 1
            page_off = 0
        return written

    def _write_chunk(self, page_idx: int, page_off: int, data, length: int) -> None:
        """Store one intra-page chunk as a new immutable page."""
        pages = self._pages
        if length == PAGE_SIZE:
            # Whole-page store: ``bytes()`` of a ``bytes`` payload is the
            # payload itself, so immutable data is adopted by reference.
            pages[page_idx] = bytes(data)
        else:
            page = pages[page_idx]
            pages[page_idx] = b"".join(
                (page[:page_off], data, page[page_off + length:]))
        if not self.dirty_bitmap[page_idx]:
            self.dirty_bitmap[page_idx] = 1
            self.dirty_stack.append(page_idx)
            self.total_dirtied += 1

    # -- dirty logging -----------------------------------------------------

    def mark_dirty(self, index: int) -> None:
        """Record a write to page ``index``.

        The stack only records the *first* write since the last flush —
        the bitmap byte acts as the dedup filter, mirroring how Nyx's
        KVM extension maintains its stack.
        """
        if not self.dirty_bitmap[index]:
            self.dirty_bitmap[index] = 1
            self.dirty_stack.append(index)
            self.total_dirtied += 1

    @property
    def dirty_count(self) -> int:
        """Number of distinct pages dirtied since the last flush."""
        return len(self.dirty_stack)

    def take_dirty(self) -> List[int]:
        """Pop and return all dirty pages, clearing the log (Nyx path).

        This is O(number of dirty pages): the stack is drained and only
        the bitmap bytes it names are cleared.
        """
        pages = self.dirty_stack
        self.dirty_stack = []
        bitmap = self.dirty_bitmap
        for idx in pages:
            bitmap[idx] = 0
        return pages

    def scan_bitmap(self) -> List[int]:
        """Scan the whole bitmap for dirty pages (Agamotto path).

        O(total pages) regardless of how few are dirty — this is the
        cost asymmetry Figure 6 of the paper measures.  The log is
        cleared as a side effect, like ``take_dirty``.
        """
        pages = [i for i, b in enumerate(self.dirty_bitmap) if b]
        self.dirty_stack = []
        for idx in pages:
            self.dirty_bitmap[idx] = 0
        return pages

    def clear_dirty_log(self) -> None:
        """Drop all dirty state without reporting it."""
        self.take_dirty()

    # -- validation --------------------------------------------------------

    def _check_page(self, index: int) -> None:
        if not 0 <= index < self.num_pages:
            raise MemoryError_(
                "page %d out of range (memory has %d pages)" % (index, self.num_pages)
            )

    def _check_range(self, addr: int, length: int) -> None:
        if addr < 0 or length < 0 or addr + length > self.size_bytes:
            raise MemoryError_(
                "access [%#x, +%d) outside guest memory of %d bytes"
                % (addr, length, self.size_bytes)
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "GuestMemory(%d pages, %d dirty)" % (self.num_pages, self.dirty_count)


@dataclass(frozen=True)
class Region:
    """A page-aligned allocation of guest physical memory."""

    start_page: int
    num_pages: int

    @property
    def start_addr(self) -> int:
        return self.start_page * PAGE_SIZE

    @property
    def size(self) -> int:
        return self.num_pages * PAGE_SIZE


class RegionAllocator:  # nyx: allow[reset]
    """Bump allocator handing out page-aligned regions of guest memory.

    The guest OS stores every piece of mutable state (process control
    blocks, socket buffers, target state machines) in regions, so that
    whole-VM snapshots of the page array genuinely capture and restore
    guest state.  The bump pointer itself is part of guest state and is
    saved/restored through :meth:`state` / :meth:`set_state` — the
    reset-lint suppression above records that
    ``Kernel.reload_from_memory`` restores it on every snapshot
    restore, just not through a method name the lint recognises.
    """

    def __init__(self, memory: GuestMemory, first_page: int = 0) -> None:
        self._memory = memory
        self._next_page = first_page

    def alloc(self, nbytes: int) -> Region:
        """Allocate a region large enough for ``nbytes``."""
        if nbytes <= 0:
            raise ValueError("allocation must be positive")
        npages = -(-nbytes // PAGE_SIZE)
        if self._next_page + npages > self._memory.num_pages:
            raise MemoryError_(
                "guest out of memory: need %d pages, %d free"
                % (npages, self._memory.num_pages - self._next_page)
            )
        region = Region(self._next_page, npages)
        self._next_page += npages
        return region

    def write_blob(self, region: Region, blob: bytes) -> None:
        """Store ``blob`` (length-prefixed) into ``region``.

        Pages whose bytes come out identical to what they already hold
        are skipped entirely (no write, no dirty marking): rewriting a
        blob that only changed near its tail must not cost a reset of
        its unchanged leading pages.
        """
        framed = len(blob).to_bytes(8, "little") + blob
        if len(framed) > region.size:
            raise MemoryError_(
                "blob of %d bytes does not fit region of %d bytes"
                % (len(blob), region.size)
            )
        self._memory.write_if_changed(region.start_addr, framed)

    def read_blob(self, region: Region) -> bytes:
        """Read back a blob previously stored with :meth:`write_blob`."""
        length = int.from_bytes(self._memory.read(region.start_addr, 8), "little")
        if length > region.size - 8:
            raise MemoryError_("corrupt blob header in region %r" % (region,))
        return self._memory.read(region.start_addr + 8, length)

    def state(self) -> int:
        """The bump pointer, for inclusion in snapshotted state."""
        return self._next_page

    def set_state(self, next_page: int) -> None:
        """Restore the bump pointer from a snapshot."""
        self._next_page = next_page
