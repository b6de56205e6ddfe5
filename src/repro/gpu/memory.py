"""Physical backing store and the device virtual address space.

* :class:`PhysicalMemory` — a sparse byte store (64KB chunks) with typed
  scalar accessors.  Both the GPU and (through SVM) the host read and write
  the same store, which is how Figure 4's host-observable corruption works.
* :class:`AddressSpace` — the driver-managed page table.  Pages carry
  ``writable`` and ``accessible`` flags; translation faults raise
  :class:`~repro.errors.IllegalAddressError`, modelling the CUDA "illegal
  memory access" abort of Figure 4 case 3.  RBT pages are mapped with
  ``accessible=False`` so only the BCU's bypass path can read them (§5.4).

The device uses a 2MB page size in the Nvidia configuration, which is what
makes in-page overflow writes (case 2) succeed silently on the baseline.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict

from repro.errors import IllegalAddressError
from repro.utils.bitops import mask

_CHUNK_BITS = 16
_CHUNK_SIZE = 1 << _CHUNK_BITS
_CHUNK_MASK = _CHUNK_SIZE - 1


class PhysicalMemory:
    """Sparse physical memory; untouched bytes read as zero."""

    def __init__(self):
        self._chunks: Dict[int, bytearray] = {}
        self.bytes_read = 0
        self.bytes_written = 0

    def _chunk(self, index: int) -> bytearray:
        chunk = self._chunks.get(index)
        if chunk is None:
            chunk = bytearray(_CHUNK_SIZE)
            self._chunks[index] = chunk
        return chunk

    def read(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes starting at physical ``addr``."""
        self.bytes_read += size
        out = bytearray()
        while size > 0:
            index, offset = addr >> _CHUNK_BITS, addr & _CHUNK_MASK
            take = min(size, _CHUNK_SIZE - offset)
            chunk = self._chunks.get(index)
            if chunk is None:
                out.extend(b"\x00" * take)
            else:
                out.extend(chunk[offset:offset + take])
            addr += take
            size -= take
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` starting at physical ``addr``."""
        self.bytes_written += len(data)
        view = memoryview(data)
        while view:
            index, offset = addr >> _CHUNK_BITS, addr & _CHUNK_MASK
            take = min(len(view), _CHUNK_SIZE - offset)
            self._chunk(index)[offset:offset + take] = view[:take]
            addr += take
            view = view[take:]

    # -- typed accessors ------------------------------------------------------

    def read_uint(self, addr: int, size: int) -> int:
        return int.from_bytes(self.read(addr, size), "little")

    def write_uint(self, addr: int, size: int, value: int) -> None:
        self.write(addr, (value & mask(size * 8)).to_bytes(size, "little"))

    def read_int(self, addr: int, size: int) -> int:
        return int.from_bytes(self.read(addr, size), "little", signed=True)

    def write_int(self, addr: int, size: int, value: int) -> None:
        lim = 1 << (size * 8)
        self.write(addr, ((value + lim) % lim).to_bytes(size, "little"))

    def read_f32(self, addr: int) -> float:
        return struct.unpack("<f", self.read(addr, 4))[0]

    def write_f32(self, addr: int, value: float) -> None:
        self.write(addr, struct.pack("<f", value))

    def fill(self, addr: int, size: int, byte: int = 0) -> None:
        self.write(addr, bytes([byte]) * size)

    # -- device lifecycle -----------------------------------------------------

    def reset(self) -> None:
        """Forget every byte written (device reset); reads are zero again."""
        self._chunks.clear()
        self.bytes_read = 0
        self.bytes_written = 0

    def snapshot_chunks(self) -> Dict[int, bytes]:
        """Immutable copy of the sparse store for snapshot/restore."""
        return {index: bytes(chunk)
                for index, chunk in self._chunks.items()}

    def restore_chunks(self, chunks: Dict[int, bytes]) -> None:
        """Re-install a :meth:`snapshot_chunks` image (contents only;
        the caller restores the byte counters)."""
        self._chunks.clear()
        for index, blob in chunks.items():
            self._chunks[index] = bytearray(blob)


@dataclass(frozen=True)
class PageFlags:
    """Permissions of one mapped page."""

    writable: bool = True
    accessible: bool = True   # False: only BCU-bypass reads allowed (RBT)
    svm: bool = False         # host-visible (shared virtual memory)


class AddressSpace:
    """Driver-managed page table with identity VA->PA mapping.

    Identity mapping keeps physical addresses readable in traces while
    still modelling what matters: page presence, permissions, and the
    page-granularity of native protection.
    """

    def __init__(self, memory: PhysicalMemory, page_size: int = 2 << 20):
        if page_size & (page_size - 1):
            raise ValueError("page size must be a power of two")
        self.memory = memory
        self.page_size = page_size
        self._pages: Dict[int, PageFlags] = {}

    def page_of(self, va: int) -> int:
        return va // self.page_size

    def map_range(self, va: int, size: int,
                  flags: PageFlags = PageFlags()) -> None:
        """Map every page overlapping ``[va, va+size)``."""
        if size <= 0:
            return
        first = self.page_of(va)
        last = self.page_of(va + size - 1)
        for page in range(first, last + 1):
            self._pages[page] = flags

    def unmap_range(self, va: int, size: int) -> None:
        if size <= 0:
            return
        first = self.page_of(va)
        last = self.page_of(va + size - 1)
        for page in range(first, last + 1):
            self._pages.pop(page, None)

    def is_mapped(self, va: int) -> bool:
        return self.page_of(va) in self._pages

    def translate(self, va: int, *, is_store: bool = False,
                  bypass_protection: bool = False) -> int:
        """VA -> PA or raise :class:`IllegalAddressError`.

        ``bypass_protection`` is the BCU's RBT access path: it skips the
        ``accessible`` check but still requires the page to be mapped.
        """
        flags = self._pages.get(self.page_of(va))
        if flags is None:
            raise IllegalAddressError(va, f"unmapped page at {va:#x}")
        if not bypass_protection:
            if not flags.accessible:
                raise IllegalAddressError(va, f"inaccessible page at {va:#x}")
            if is_store and not flags.writable:
                raise IllegalAddressError(va, f"write to read-only page {va:#x}")
        return va  # identity mapping

    def reset(self) -> None:
        """Unmap everything (device reset).

        The page dict is cleared **in place**: the fast memory pipeline
        binds ``space._pages`` once at construction, so the dict object
        must never be replaced — only emptied and refilled.
        """
        self._pages.clear()

    def restore_pages(self, pages: Dict[int, PageFlags]) -> None:
        """Re-install a page-table image (same in-place contract)."""
        self._pages.clear()
        self._pages.update(pages)

    def pages_snapshot(self) -> Dict[int, PageFlags]:
        """Copy of the page table (PageFlags is frozen, keys are ints)."""
        return dict(self._pages)

    def mapped_bytes(self) -> int:
        return len(self._pages) * self.page_size
