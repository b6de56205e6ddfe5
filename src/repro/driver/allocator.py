"""Device memory allocator.

Reproduces the allocation behaviour the paper's Figure 4 experiment
depends on:

* buffers are aligned to 512 bytes (the "default 512B address alignment"
  that *suppresses* small overflow writes into padding);
* device pages (2MB on the Nvidia configuration) are mapped on demand, so
  consecutive small buffers share a page — an overflow write inside the
  page silently corrupts the neighbour, while crossing into an unmapped
  page faults ("kernel aborted with an illegal memory access error");
* with ``pow2_pad=True`` (Intel / Type-3 mode, §5.3.3) every buffer is
  padded to the next power of two, enabling offset-optimised pointers at
  the cost of fragmentation.

Separate regions exist for constant data, global buffers, the device
heap, local (stack) memory and driver-internal structures (the RBT).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.errors import AllocationError
from repro.gpu.memory import AddressSpace, PageFlags, PhysicalMemory
from repro.utils.bitops import next_power_of_two, round_up


@dataclass(frozen=True)
class MemoryRegions:
    """Base addresses of the device virtual-memory regions."""

    constant: int = 0x1000_0000_0000
    texture: int = 0x1800_0000_0000
    global_: int = 0x2000_0000_0000
    heap: int = 0x6000_0000_0000
    local: int = 0x7000_0000_0000
    internal: int = 0x0F00_0000_0000   # RBT and other driver structures

    def region_of(self, va: int) -> str:
        if va >= self.local:
            return "local"
        if va >= self.heap:
            return "heap"
        if va >= self.global_:
            return "global"
        if va >= self.texture:
            return "texture"
        if va >= self.constant:
            return "constant"
        return "internal"


_buffer_ids = itertools.count(1)


@dataclass
class Buffer:
    """One device allocation as the host sees it."""

    va: int
    size: int              # requested size
    padded_size: int       # size actually reserved (alignment / pow2 pad)
    region: str
    name: str = ""
    read_only: bool = False
    svm: bool = False
    freed: bool = False
    handle: int = field(default_factory=lambda: next(_buffer_ids))

    @property
    def end(self) -> int:
        return self.va + self.size


class DeviceAllocator:
    """Bump allocator over the region layout with on-demand page mapping."""

    def __init__(self, memory: PhysicalMemory, space: AddressSpace,
                 regions: Optional[MemoryRegions] = None,
                 alignment: int = 512, pow2_pad: bool = False):
        self.memory = memory
        self.space = space
        self.regions = regions or MemoryRegions()
        self.alignment = alignment
        self.pow2_pad = pow2_pad
        self._cursors: Dict[str, int] = {
            "constant": self.regions.constant,
            "texture": self.regions.texture,
            "global": self.regions.global_,
            "local": self.regions.local,
            "internal": self.regions.internal,
        }
        #: The live buffers, in allocation order.
        self.allocations: List[Buffer] = []
        #: page number -> handles of the live buffers overlapping it, so
        #: ``free`` looks only at the neighbours that can share its pages.
        self._page_users: Dict[int, Set[int]] = {}

    def _pages(self, buffer: Buffer) -> range:
        page = self.space.page_size
        return range(buffer.va // page,
                     (buffer.va + buffer.padded_size - 1) // page + 1)

    def _occupy(self, buffer: Buffer) -> None:
        users = self._page_users
        for pg in self._pages(buffer):
            users.setdefault(pg, set()).add(buffer.handle)

    def _record(self, buffer: Buffer) -> Buffer:
        self._occupy(buffer)
        self.allocations.append(buffer)
        return buffer

    def malloc(self, size: int, *, name: str = "", read_only: bool = False,
               svm: bool = False, region: str = "global") -> Buffer:
        """Allocate ``size`` bytes; maps the covering pages on demand."""
        if size <= 0:
            raise AllocationError(f"bad allocation size {size}")
        if region not in self._cursors:
            raise AllocationError(f"unknown region {region!r}")
        padded = round_up(size, self.alignment)
        if self.pow2_pad:
            padded = max(next_power_of_two(size), self.alignment)
        cursor = round_up(self._cursors[region], self.alignment)
        if self.pow2_pad:
            # Power-of-two padded buffers are naturally aligned so the
            # base+offset check covers exactly the padded region.
            cursor = round_up(cursor, padded)
        va = cursor
        self._cursors[region] = va + padded
        flags = PageFlags(writable=not read_only, accessible=True, svm=svm)
        self.space.map_range(va, padded, flags)
        return self._record(Buffer(va=va, size=size, padded_size=padded,
                                   region=region, name=name,
                                   read_only=read_only, svm=svm))

    def malloc_internal(self, size: int, name: str = "") -> Buffer:
        """Driver-internal allocation on pages normal accesses cannot touch
        (the RBT pages of §5.4)."""
        padded = round_up(size, self.alignment)
        cursor = round_up(self._cursors["internal"], self.alignment)
        va = cursor
        self._cursors["internal"] = va + padded
        self.space.map_range(va, padded,
                             PageFlags(writable=False, accessible=False))
        return self._record(Buffer(va=va, size=size, padded_size=padded,
                                   region="internal", name=name))

    def free(self, buffer: Buffer) -> None:
        """Release an allocation.

        Pages are left mapped if other live buffers share them — exactly
        the coarse page-granularity behaviour that native protection has.
        """
        if buffer.freed:
            raise AllocationError(f"double free of {buffer.name or buffer.va:#x}")
        buffer.freed = True
        # Newest first: launches free their own RBT and locals.  A buffer
        # allocated after a restored snapshot is in no list.
        allocations = self.allocations
        for index in range(len(allocations) - 1, -1, -1):
            if allocations[index] is buffer:
                del allocations[index]
                break
        page = self.space.page_size
        top = self._cursors.get(buffer.region, 0)
        users = self._page_users
        for pg in self._pages(buffer):
            live = users.get(pg)
            if live:
                live.discard(buffer.handle)
                if live:
                    continue
                del users[pg]
            if (pg + 1) * page <= top:
                self.space.unmap_range(pg * page, page - 1)

    def live_buffers(self) -> List[Buffer]:
        return list(self.allocations)

    # -- device lifecycle -------------------------------------------------------

    def reset(self) -> None:
        """Forget every allocation: cursors back to the region bases.

        Page unmapping is the address space's job (the device resets it
        alongside); ``allocations`` is cleared in place so any holder of
        the list sees the wipe.  Previously returned :class:`Buffer`
        objects become dangling — exactly like a freed CUDA context.
        """
        self._cursors.update({
            "constant": self.regions.constant,
            "texture": self.regions.texture,
            "global": self.regions.global_,
            "local": self.regions.local,
            "internal": self.regions.internal,
        })
        self.allocations.clear()
        self._page_users.clear()

    def restore_allocations(self, live: List[Buffer]) -> None:
        """Re-install a snapshot's live buffers whole and re-index them."""
        self.allocations[:] = live
        self._page_users.clear()
        for buffer in live:
            buffer.freed = False
            self._occupy(buffer)

    def cursors_snapshot(self) -> Dict[str, int]:
        return dict(self._cursors)

    def restore_cursors(self, cursors: Dict[str, int]) -> None:
        self._cursors.update(cursors)

    # -- host-side data movement (cudaMemcpy equivalents) ----------------------

    def write_buffer(self, buffer: Buffer, offset: int, data: bytes) -> None:
        """Host -> device copy (bounds-checked on the host side)."""
        if offset < 0 or offset + len(data) > buffer.padded_size:
            raise AllocationError("host copy escapes allocation")
        self.memory.write(buffer.va + offset, data)

    def read_buffer(self, buffer: Buffer, offset: int, size: int) -> bytes:
        """Device -> host copy."""
        if offset < 0 or offset + size > buffer.padded_size:
            raise AllocationError("host copy escapes allocation")
        return self.memory.read(buffer.va + offset, size)
