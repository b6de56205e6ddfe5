"""Set-associative cache *timing* model.

Data itself lives in :class:`~repro.gpu.memory.PhysicalMemory`; caches only
track which line addresses are resident, which is all the evaluation needs
(hit/miss latency, bandwidth pressure).  LRU replacement, allocate on both
reads and writes (write-back write-allocate approximation).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict

from repro.utils.bitops import is_power_of_two
from repro.utils.stats import CacheStats


class Cache:
    """An LRU set-associative cache over line addresses."""

    def __init__(self, size_bytes: int, assoc: int, line_size: int,
                 name: str = "cache"):
        if not is_power_of_two(line_size):
            raise ValueError("line size must be a power of two")
        num_lines = size_bytes // line_size
        if num_lines < assoc or num_lines % assoc:
            raise ValueError(
                f"{name}: {size_bytes}B / {line_size}B lines not divisible "
                f"into {assoc}-way sets")
        self.name = name
        self.assoc = assoc
        self.line_size = line_size
        self.num_sets = num_lines // assoc
        self._sets: Dict[int, OrderedDict] = {}
        self.stats = CacheStats()

    def _set_for(self, line_addr: int) -> OrderedDict:
        index = line_addr % self.num_sets
        s = self._sets.get(index)
        if s is None:
            s = OrderedDict()
            self._sets[index] = s
        return s

    def access(self, addr: int) -> bool:
        """Probe-and-fill: returns True on hit.  Misses allocate the line."""
        line_addr = addr // self.line_size
        cache_set = self._set_for(line_addr)
        if line_addr in cache_set:
            cache_set.move_to_end(line_addr)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(cache_set) >= self.assoc:
            cache_set.popitem(last=False)
        cache_set[line_addr] = True
        return False

    def probe(self, addr: int) -> bool:
        """Check residency without filling or touching statistics."""
        line_addr = addr // self.line_size
        return line_addr in self._sets.get(line_addr % self.num_sets, {})

    def flush(self) -> None:
        self._sets.clear()

    def reset_stats(self) -> None:
        self.stats.reset()
