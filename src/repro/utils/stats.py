"""The counter dataclasses' base and the cache hit/miss counters.

Caches, TLBs and both RCache levels share :class:`CacheStats`, so the
stats registry harvests the same two fields (``hits``, ``misses``)
from each of them.  This is a leaf module so that ``repro.gpu`` and
``repro.core`` import it without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass


class Counters:
    """Base of the counter dataclasses (every field has a default)."""

    def reset(self) -> None:
        """Zero every counter in place: the fast engine and the stats
        registry hold this object, so it is never replaced."""
        self.__init__()


@dataclass
class CacheStats(Counters):
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
