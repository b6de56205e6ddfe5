"""TLB timing models (paper Table 5).

* per-core L1 TLB: 64 entries, fully associative, LRU;
* shared L2 TLB: 1024 entries, 32-way, LRU.

A TLB is a :class:`~repro.gpu.cache.Cache` over virtual page numbers:
one-byte "lines", so ``access(vpage)`` probes and fills the page number
itself.  Like the caches, TLBs track only residency; actual translation
(and protection) is done by the driver's
:class:`~repro.gpu.memory.AddressSpace`.
"""

from __future__ import annotations

from repro.gpu.cache import Cache


class Tlb(Cache):
    """A set-associative LRU TLB over virtual page numbers."""

    def __init__(self, entries: int, assoc: int = 0, name: str = "tlb"):
        # assoc == 0 means fully associative.
        super().__init__(entries, assoc or entries, 1, name)
