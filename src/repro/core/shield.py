"""GPUShield facade: one object bundling the mechanism's configuration.

A :class:`GPUShield` instance is handed to the driver and the GPU model:

* the driver consults it to decide whether to assign buffer IDs, encrypt
  them, tag pointers and materialise the RBT (paper §5.4);
* the GPU instantiates one :class:`~repro.core.bcu.BoundsCheckingUnit` per
  shader core through :meth:`make_bcu`, all feeding a shared violation log;
* after a run, aggregate statistics (L1 RCache hit rate, static-filtering
  rate, violation counts) are read back here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.bcu import BCUConfig, BoundsCheckingUnit
from repro.core.violations import ReportPolicy, ViolationLog, ViolationRecord


@dataclass
class ShieldConfig:
    """Top-level GPUShield switches.

    ``enabled=False`` reproduces the paper's *no bounds checking* baseline:
    the driver leaves pointers untagged and the BCU never engages.
    ``static_analysis`` toggles the compiler filtering of Figure 17.

    ``id_budget`` caps the buffer IDs a single kernel may consume; when a
    launch would exceed it the driver merges adjacent buffers onto shared
    IDs with merged bounds (the §6.3 fallback).  ``fine_grained_heap``
    enables the paper's future-work extension: individual device-malloc
    allocations get their own IDs (from ``heap_id_pool`` reserved slots)
    instead of the single whole-heap region.
    """

    enabled: bool = True
    static_analysis: bool = True
    policy: ReportPolicy = ReportPolicy.LOG
    bcu: BCUConfig = field(default_factory=BCUConfig)
    id_budget: int = 16384
    fine_grained_heap: bool = False
    heap_id_pool: int = 64


class GPUShield:
    """The deployed mechanism: configuration + per-core BCUs + shared log."""

    def __init__(self, config: Optional[ShieldConfig] = None,
                 mailbox_write: Optional[Callable[[bytes], None]] = None):
        self.config = config or ShieldConfig()
        self.log = ViolationLog(policy=self.config.policy,
                                mailbox_write=mailbox_write)
        self._bcus: List[BoundsCheckingUnit] = []

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    def make_bcu(self, engine: str = "slow") -> BoundsCheckingUnit:
        """Create the BCU for one shader core (shared violation log).

        ``engine="fast"`` returns the bit-identical fast-lane variant
        (memoized pointer decode and ID decrypt) — see
        :mod:`repro.engine`.
        """
        if engine == "fast":
            # Imported lazily: fastpath pulls in the gpu package, which
            # imports this module back at package-import time.
            from repro.gpu.fastpath import FastBoundsCheckingUnit
            bcu: BoundsCheckingUnit = FastBoundsCheckingUnit(
                self.config.bcu, log=self.log)
        else:
            bcu = BoundsCheckingUnit(self.config.bcu, log=self.log)
        self._bcus.append(bcu)
        return bcu

    # -- aggregate statistics -------------------------------------------------

    @property
    def bcus(self) -> List[BoundsCheckingUnit]:
        return list(self._bcus)

    def violations(self) -> List[ViolationRecord]:
        """All logged violations so far (without draining)."""
        return list(self.log.records)

    def drain_violations(self) -> List[ViolationRecord]:
        """End-of-kernel error report (paper §5.5.2)."""
        return self.log.drain()

    def l1_hit_rate(self) -> float:
        """L1 RCache hit rate over all cores (Figures 15/16)."""
        hits = sum(b.l1.stats.hits for b in self._bcus)
        accesses = sum(b.l1.stats.accesses for b in self._bcus)
        if accesses == 0:
            return 1.0
        return hits / accesses

    def l2_hit_rate(self) -> float:
        hits = sum(b.l2.stats.hits for b in self._bcus)
        accesses = sum(b.l2.stats.accesses for b in self._bcus)
        if accesses == 0:
            return 1.0
        return hits / accesses

    def reduction_percent(self) -> float:
        """Runtime-check reduction achieved by static analysis (Fig. 17)."""
        mem = sum(b.stats.mem_instructions for b in self._bcus)
        skipped = sum(b.stats.checks_skipped_static for b in self._bcus)
        if mem == 0:
            return 0.0
        return 100.0 * skipped / mem

    def total_stall_cycles(self) -> int:
        return sum(b.stats.stall_cycles for b in self._bcus)

    def total_rbt_fills(self) -> int:
        return sum(b.stats.rbt_fills for b in self._bcus)

    def reset_stats(self) -> None:
        for bcu in self._bcus:
            bcu.reset_stats()
