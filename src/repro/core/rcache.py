"""The RBT cache (RCache) hierarchy of the BCU (paper §5.5).

Two levels per core:

* **L1 RCache** — tiny (default 4 entries), FIFO replacement, parallel tag
  lookup and data read, so a hit adds no pipeline bubble beyond the rule in
  Figure 12.  An LRU variant is provided for the replacement-policy
  ablation bench.
* **L2 RCache** — 64-entry fully associative, physically split into tag and
  data arrays: a hit needs one cycle for the tag match plus one for the
  data read (hence the 3-cycle L2 access of the default configuration).

Entries are tagged by (kernel_id, buffer_id) — the kernel-ID field is what
lets intra-core multi-kernel sharing work without flushes (paper §6.2).
Both levels are flushed on kernel termination or context switch.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.bounds import Bounds
from repro.utils.stats import CacheStats


@dataclass(frozen=True)
class RCacheEntry:
    """One cached RBT entry: §5.5's 14b ID tag + 93-bit data payload."""

    buffer_id: int
    kernel_id: int
    bounds: Bounds

    @property
    def tag(self) -> Tuple[int, int]:
        return (self.kernel_id, self.buffer_id)


class _BaseRCache:
    """Shared mechanics of both RCache levels (tag lookup + replacement).

    With ``partitioned=True`` (the §6.2 intra-core mitigation: "double and
    partition RCaches"), every kernel gets its own bank of ``entries``
    lines, so co-resident kernels cannot thrash each other's metadata.
    """

    def __init__(self, entries: int, policy: str = "fifo",
                 partitioned: bool = False):
        if entries <= 0:
            raise ValueError("RCache needs at least one entry")
        if policy not in ("fifo", "lru"):
            raise ValueError(f"unknown replacement policy {policy!r}")
        self.capacity = entries
        self.policy = policy
        self.partitioned = partitioned
        self._banks: "dict[int, OrderedDict]" = {}
        self.stats = CacheStats()

    def _bank(self, kernel_id: int) -> "OrderedDict":
        key = kernel_id if self.partitioned else 0
        bank = self._banks.get(key)
        if bank is None:
            bank = OrderedDict()
            self._banks[key] = bank
        return bank

    def lookup(self, kernel_id: int, buffer_id: int) -> Optional[RCacheEntry]:
        """Probe the cache; updates hit/miss statistics."""
        bank = self._bank(kernel_id)
        tag = (kernel_id, buffer_id)
        entry = bank.get(tag)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        if self.policy == "lru":
            bank.move_to_end(tag)
        return entry

    def fill(self, entry: RCacheEntry) -> None:
        """Insert an entry, evicting the oldest (FIFO) / coldest (LRU)."""
        bank = self._bank(entry.kernel_id)
        tag = entry.tag
        if tag in bank:
            bank[tag] = entry
            if self.policy == "lru":
                bank.move_to_end(tag)
            return
        if len(bank) >= self.capacity:
            bank.popitem(last=False)
        bank[tag] = entry

    def flush(self, kernel_id: Optional[int] = None) -> None:
        """Drop entries (kernel termination / context switch, §5.5).

        With per-kernel banks (§6.2's "double and partition" mitigation)
        a terminating kernel drops only its own bank, so co-resident
        kernels keep their entries.  ``kernel_id=None`` — a context
        switch, or an unpartitioned cache whose single bank is shared —
        clears everything.
        """
        if kernel_id is None or not self.partitioned:
            self._banks.clear()
        else:
            self._banks.pop(kernel_id, None)

    def reset(self) -> None:
        self._banks.clear()
        self.stats.reset()

    def state(self) -> List[Tuple[int, list]]:
        """Each bank's entries in replacement order, banks in creation
        order."""
        return [(kernel_id, list(bank.items()))
                for kernel_id, bank in self._banks.items()]

    def __len__(self) -> int:
        return sum(len(bank) for bank in self._banks.values())

    def __contains__(self, tag: Tuple[int, int]) -> bool:
        return any(tag in bank for bank in self._banks.values())


class L1RCache(_BaseRCache):
    """The 4-entry FIFO queue with parallel tag/data access (§5.5)."""

    def __init__(self, entries: int = 4, policy: str = "fifo",
                 partitioned: bool = False):
        super().__init__(entries, policy, partitioned)


class L2RCache(_BaseRCache):
    """The 64-entry fully associative level with split tag/data arrays."""

    def __init__(self, entries: int = 64, policy: str = "lru",
                 partitioned: bool = False):
        super().__init__(entries, policy, partitioned)
