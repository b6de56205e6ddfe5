"""The hit/miss counters every cache-like structure reports.

Caches, TLBs and both RCache levels share this one dataclass, so the
stats registry harvests the same two fields (``hits``, ``misses``)
from each of them.  It lives in a leaf module so that ``repro.gpu``
and ``repro.core`` import it without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit fraction in [0, 1]; 1.0 when never accessed (vacuously hot)."""
        if self.accesses == 0:
            return 1.0
        return self.hits / self.accesses

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
