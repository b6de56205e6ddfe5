"""Channelised DRAM timing model (paper Table 5: 16 channels, 2KB row
buffer, FR-FCFS policy).

We approximate FR-FCFS with its two dominant effects:

* **row-buffer locality** — a request to the currently open row of its
  bank/channel pays the row-hit latency; otherwise the row-miss latency
  (precharge + activate) and the row buffer switches;
* **channel serialisation** — each channel services one transaction per
  ``service_interval`` cycles, so bursts queue up.

Requests are identified by physical address; channel interleaving is at
cache-line granularity, the standard layout for GPU memory systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.utils.stats import Counters


@dataclass
class DramStats(Counters):
    requests: int = 0
    row_hits: int = 0
    row_misses: int = 0
    total_queue_cycles: int = 0


class Dram:
    """Per-channel open-row + occupancy model."""

    def __init__(self, channels: int = 16, row_bytes: int = 2048,
                 line_size: int = 128, row_hit_latency: int = 160,
                 row_miss_latency: int = 260, service_interval: int = 4):
        self.channels = channels
        self.row_bytes = row_bytes
        self.line_size = line_size
        self.row_hit_latency = row_hit_latency
        self.row_miss_latency = row_miss_latency
        self.service_interval = service_interval
        self._open_row: Dict[int, int] = {}
        self._free_at: List[int] = [0] * channels
        self.stats = DramStats()

    def _channel_of(self, addr: int) -> int:
        return (addr // self.line_size) % self.channels

    def _row_of(self, addr: int) -> int:
        return addr // (self.row_bytes * self.channels)

    def access(self, addr: int, cycle: int) -> int:
        """Issue one line-sized transaction; returns its completion cycle."""
        self.stats.requests += 1
        channel = self._channel_of(addr)
        row = self._row_of(addr)

        start = max(cycle, self._free_at[channel])
        self.stats.total_queue_cycles += start - cycle

        if self._open_row.get(channel) == row:
            latency = self.row_hit_latency
            self.stats.row_hits += 1
        else:
            latency = self.row_miss_latency
            self.stats.row_misses += 1
            self._open_row[channel] = row

        self._free_at[channel] = start + self.service_interval
        return start + latency

    def begin_core_epoch(self) -> None:
        """Align channel-busy bookkeeping with a new core's timeline.

        Cores are simulated sequentially, each with its own cycle counter
        starting at 0; occupancy carried over from another core's
        timeline would be meaningless (and was observed to fabricate
        megacycles of queueing).  Open-row state is spatial, so it stays.
        """
        self._free_at = [0] * self.channels

    def reset(self) -> None:
        self._open_row.clear()
        self._free_at = [0] * self.channels
        self.stats.reset()

    def state(self) -> Tuple[Dict[int, int], Tuple[int, ...]]:
        """Each channel's open row and the cycle it is next free."""
        return dict(self._open_row), tuple(self._free_at)
