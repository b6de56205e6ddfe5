"""Physical backing store and the device virtual address space.

* :class:`PhysicalMemory` — a sparse, copy-on-write byte store (64KB
  chunks) with typed scalar accessors.  Both the GPU and (through SVM) the
  host read and write the same store, which is how Figure 4's
  host-observable corruption works.  A chunk is either *private* (a
  ``bytearray`` this memory owns) or *shared* (a read-only view of an
  immutable ``bytes`` payload, which any number of memories may hold).
  A whole-chunk write of ``bytes`` shares the payload without copying
  it; the first store to a shared chunk copies it into a private one,
  so a store never shows anywhere else.  :meth:`PhysicalMemory.capture`
  uses the same rule to image the store by reference: it freezes each
  private chunk into a read-only view of itself, so the image costs no
  copy and the next store copies only the chunk it hits.  It is the one
  image format: device snapshots and relaunch probes both take it, and
  :meth:`PhysicalMemory.restore` installs one as it is.
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
from typing import Dict, Union

from repro.errors import IllegalAddressError
from repro.utils.bitops import mask

_CHUNK_BITS = 16
_CHUNK_SIZE = 1 << _CHUNK_BITS
_CHUNK_MASK = _CHUNK_SIZE - 1

#: A chunk as held: private ``bytearray`` or shared read-only
#: ``memoryview``.  Readers (slicing, ``unpack_from``, ``int.from_bytes``)
#: accept both alike.
Chunk = Union[bytearray, memoryview]


class PhysicalMemory:
    """Sparse copy-on-write physical memory; untouched bytes read as zero."""

    def __init__(self):
        self._chunks: Dict[int, Chunk] = {}
        self.bytes_read = 0
        self.bytes_written = 0

    def _chunk(self, index: int) -> bytearray:
        """The chunk at ``index`` as a private, writable ``bytearray``.

        The only writable accessor (``write`` and the fast lane's bulk
        and per-lane stores use it).  A missing chunk is created zeroed;
        a shared one is copied into a private chunk first.
        """
        chunk = self._chunks.get(index)
        if type(chunk) is not bytearray:
            chunk = (bytearray(_CHUNK_SIZE) if chunk is None
                     else bytearray(chunk))
            self._chunks[index] = chunk
        return chunk

    def read(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes starting at physical ``addr``."""
        self.bytes_read += size
        return self.peek(addr, size)

    def peek(self, addr: int, size: int) -> bytes:
        """:meth:`read` without counting the bytes (host-side inspection
        that no modelled access makes)."""
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
        """Write ``data`` starting at physical ``addr``.

        Each chunk an immutable ``bytes`` payload covers whole is
        installed as a shared view of it, without a copy.  Partial
        chunks, and every chunk of a mutable payload (``bytearray``,
        views), are copied into private chunks.
        """
        self.bytes_written += len(data)
        view = memoryview(data)
        share = type(data) is bytes
        while view:
            index, offset = addr >> _CHUNK_BITS, addr & _CHUNK_MASK
            take = min(len(view), _CHUNK_SIZE - offset)
            if share and take == _CHUNK_SIZE:
                self._chunks[index] = view[:take]
            else:
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

    def resident_bytes(self) -> int:
        """Bytes of backing store referenced: the sum of the chunk sizes.

        A shared chunk counts at its full size, although the payload it
        views may be held once for many memories.
        """
        return sum(len(chunk) for chunk in self._chunks.values())

    def discard(self, addr: int, size: int) -> None:
        """Forget every chunk lying wholly inside ``[addr, addr+size)``;
        its bytes read as zero again.  Chunks the range covers only in
        part are kept."""
        chunks = self._chunks
        first = (addr + _CHUNK_MASK) >> _CHUNK_BITS
        for index in range(first, (addr + size) >> _CHUNK_BITS):
            chunks.pop(index, None)

    def capture(self, skip: range) -> Dict[int, Chunk]:
        """The chunks outside ``skip`` (a range of chunk indices), by
        reference.

        Each private chunk is frozen first: memory holds a read-only
        view of it instead, so the next store copies it as it copies
        any shared chunk, and the returned image never changes.  No
        byte is copied here.
        """
        chunks = self._chunks
        image: Dict[int, Chunk] = {}
        for index, chunk in chunks.items():
            if index in skip:
                continue
            if type(chunk) is bytearray:
                chunk = chunks[index] = memoryview(chunk).toreadonly()
            image[index] = chunk
        return image

    def matches(self, image: Dict[int, Chunk], skip: range) -> bool:
        """Whether the chunks outside ``skip`` hold a :meth:`capture`
        image's bytes, chunk for chunk.

        A chunk still identical to its image chunk compares by identity,
        any other by content; an equal one is swapped for its image
        chunk, so the bytes are held once and the next compare goes by
        identity.  The swap changes no byte.
        """
        chunks = self._chunks
        seen = 0
        for index, chunk in chunks.items():
            if index in skip:
                continue
            ref = image.get(index)
            if ref is None:
                return False
            if chunk is not ref:
                # bytearray's compare is one memcmp; a memoryview's
                # goes item by item.
                if (chunk if type(chunk) is bytearray
                        else bytearray(chunk)) != ref:
                    return False
                chunks[index] = ref
            seen += 1
        return seen == len(image)

    def restore(self, image: Dict[int, Chunk]) -> None:
        """Re-install a :meth:`capture` image, uncopied: its chunks are
        read-only, so the first store to each copies it and the image
        never changes (contents only; the caller restores the byte
        counters)."""
        self._chunks.clear()
        self._chunks.update(image)


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

    def pages_snapshot(self, skip: range = range(0)) -> Dict[int, PageFlags]:
        """Copy of the page table (PageFlags is frozen, keys are ints),
        without the page numbers in ``skip``."""
        if not skip:
            return dict(self._pages)
        return {page: flags for page, flags in self._pages.items()
                if page not in skip}

    def mapped_bytes(self) -> int:
        return len(self._pages) * self.page_size
