"""The Bounds-Checking Unit (paper §5.5, Figure 12).

The BCU sits next to the LSU.  For every warp-level memory instruction it
receives (from the address-gathering stage) the *min/max* byte range of the
coalesced transactions plus the tag bits of the base pointer, and decides:

* **Type 1** (C=0): statically verified — no check, no cost.
* **Type 2** (C=1): decrypt the 14-bit payload with the per-kernel key,
  look the buffer up in the RCache hierarchy (L1 -> L2 -> RBT in memory)
  and compare the access range against the region bounds.
* **Type 3** (C=2): compare the access range against the power-of-two size
  embedded in the pointer — no RCache access at all (§5.3.3).

Timing (Figure 12): the LSU pipeline offers a *hiding window*; the check
stalls the pipeline only by ``max(0, bcu_latency - window)`` cycles.  With
the default 1-cycle L1 RCache the only bubble is the paper's case of a
single coalesced transaction that hits the L1 Dcache but misses the L1
RCache (1 cycle for an L2 RCache hit).  Dcache misses, multi-transaction
accesses and TLB misses widen the window and hide the check entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.bounds import Bounds
from repro.core.checker import ALLOW, AccessContext, CheckOutcome
from repro.core.crypto import IdCipher
from repro.core.pointer import PointerType, decode
from repro.core.rcache import L1RCache, L2RCache, RCacheEntry
from repro.core.violations import ReportPolicy, ViolationLog, ViolationRecord
from repro.utils.stats import Counters

__all__ = ["BCUConfig", "KernelSecurityContext", "BCUStats", "CheckOutcome",
           "BoundsCheckingUnit", "BCUAccessChecker"]


@dataclass
class BCUConfig:
    """Tunables of the BCU (the knobs swept in Figures 14, 15 and 17)."""

    l1_entries: int = 4
    l2_entries: int = 64
    l1_latency: int = 1          # cycles for an L1 RCache hit
    l2_latency: int = 3          # cycles for an L2 RCache hit (tag + data)
    rbt_fetch_latency: int = 120  # memory fetch of an RBT entry on L2 miss
    lsu_hiding_window: int = 2   # LSU pipeline slack for a 1-tx Dcache hit
    l1_policy: str = "fifo"
    check_per_lane: bool = False  # ablation: per-thread instead of per-warp
    type3_enabled: bool = True    # ablation: offset-optimised pointers
    # §6.2 intra-core mitigation: per-kernel RCache banks ("double and
    # partition"), priced separately by the hwcost model.
    partition_rcache: bool = False


@dataclass
class KernelSecurityContext:
    """Everything the BCU needs to check accesses of one running kernel."""

    kernel_id: int
    cipher: IdCipher
    rbt_read_entry: Callable[[int], Bounds]


@dataclass
class BCUStats(Counters):
    """Per-core BCU activity counters."""

    mem_instructions: int = 0
    checks_skipped_static: int = 0   # Type 1 pointers
    checks_type2: int = 0
    checks_type3: int = 0
    lane_comparisons: int = 0
    rbt_fills: int = 0
    stall_cycles: int = 0
    violations: int = 0

    @property
    def runtime_checks(self) -> int:
        return self.checks_type2 + self.checks_type3

    def reduction_percent(self) -> float:
        """Share of memory instructions filtered by static analysis (%)."""
        if self.mem_instructions == 0:
            return 0.0
        return 100.0 * self.checks_skipped_static / self.mem_instructions


class BoundsCheckingUnit:
    """One BCU instance per shader core."""

    def __init__(self, config: Optional[BCUConfig] = None,
                 log: Optional[ViolationLog] = None):
        self.config = config or BCUConfig()
        self.l1 = L1RCache(self.config.l1_entries, self.config.l1_policy,
                           partitioned=self.config.partition_rcache)
        self.l2 = L2RCache(self.config.l2_entries,
                           partitioned=self.config.partition_rcache)
        # Note: an empty ViolationLog is falsy, so test against None.
        self.log = log if log is not None else ViolationLog(
            policy=ReportPolicy.LOG)
        self.stats = BCUStats()

    # -- lifecycle -----------------------------------------------------------

    def flush(self, kernel_id: Optional[int] = None) -> None:
        """Flush both RCache levels (kernel end / context switch, §5.5).

        ``kernel_id`` scopes the flush to one terminating kernel's bank
        when the RCaches are partitioned (§6.2); ``None`` flushes all.
        """
        self.l1.flush(kernel_id)
        self.l2.flush(kernel_id)

    def reset_stats(self) -> None:
        self.stats.reset()
        self.l1.stats.reset()
        self.l2.stats.reset()

    def reset(self) -> None:
        """Device reset of the unit itself: its RCaches are parts of
        their own (``GPU.parts``)."""
        self.stats.reset()

    def state(self) -> tuple:
        """Nothing but its RCaches (parts of their own) shapes timing."""
        return ()

    # -- checking ------------------------------------------------------------

    def check(self, ctx: KernelSecurityContext, pointer: int,
              lo: int, hi: int, *, is_store: bool,
              num_transactions: int = 1, dcache_hit: bool = True,
              tlb_miss: bool = False, num_lanes: int = 1,
              cycle: int = 0) -> CheckOutcome:
        """Check one warp memory instruction covering bytes ``[lo, hi]``.

        ``pointer`` is the tagged base-pointer value the address was
        computed from; ``num_transactions``/``dcache_hit``/``tlb_miss``
        describe the concurrent LSU activity and only affect timing.
        """
        self.stats.mem_instructions += 1
        tp = decode(pointer)

        if tp.ptype is PointerType.UNPROTECTED:
            self.stats.checks_skipped_static += 1
            return CheckOutcome(allowed=True, stall_cycles=0)

        if tp.ptype is PointerType.OFFSET_OPT:
            if self.config.type3_enabled:
                return self._check_type3(ctx, tp, lo, hi, is_store=is_store,
                                         num_lanes=num_lanes, cycle=cycle)
            # Ablation (Type 3 off): the payload is a log2 size, not an
            # encrypted buffer ID — running it through _check_type2 would
            # decrypt garbage and fetch a bogus RBT entry.  The driver
            # re-encodes eligible buffers as Type 2 at launch when the
            # ablation is active, so only pointers tagged under a
            # different configuration land here; check them against the
            # true (power-of-two) region they encode, accounted as the
            # Type-2 check the ablated hardware would have issued.
            self.stats.checks_type2 += 1
            return self._check_offset_range(ctx, tp, lo, hi,
                                            is_store=is_store,
                                            num_lanes=num_lanes, cycle=cycle)

        return self._check_type2(ctx, tp, lo, hi, is_store=is_store,
                                 num_transactions=num_transactions,
                                 dcache_hit=dcache_hit, tlb_miss=tlb_miss,
                                 num_lanes=num_lanes, cycle=cycle)

    def _lane_cost(self, num_lanes: int) -> int:
        """Comparator invocations for the per-lane checking ablation."""
        if self.config.check_per_lane:
            self.stats.lane_comparisons += num_lanes
            # Serialised per-lane comparison: one extra cycle per lane pair
            # beyond what the warp-level comparator covers.
            return max(0, (num_lanes + 1) // 2 - 1)
        self.stats.lane_comparisons += 1
        return 0

    def _hiding_window(self, num_transactions: int, dcache_hit: bool,
                       tlb_miss: bool) -> int:
        """Cycles of LSU latency the BCU can hide behind (Figure 12)."""
        window = self.config.lsu_hiding_window
        window += max(0, num_transactions - 1)
        if not dcache_hit:
            window += 20  # L2 data-cache round trip at minimum
        if tlb_miss:
            window += 100  # page-walk latency overlaps RBT fetch (§5.5)
        return window

    def _check_type3(self, ctx: KernelSecurityContext, tp, lo: int, hi: int,
                     *, is_store: bool, num_lanes: int,
                     cycle: int) -> CheckOutcome:
        self.stats.checks_type3 += 1
        return self._check_offset_range(ctx, tp, lo, hi, is_store=is_store,
                                        num_lanes=num_lanes, cycle=cycle)

    def _check_offset_range(self, ctx: KernelSecurityContext, tp,
                            lo: int, hi: int, *, is_store: bool,
                            num_lanes: int, cycle: int) -> CheckOutcome:
        """Compare ``[lo, hi]`` against the pow2 region in the payload."""
        stall = self._lane_cost(num_lanes)
        size = 1 << tp.payload
        base = tp.va
        if lo >= base and hi < base + size:
            if stall:
                self.stats.stall_cycles += stall
            return CheckOutcome(allowed=True, stall_cycles=stall)
        record = ViolationRecord(kernel_id=ctx.kernel_id, buffer_id=-1,
                                 lo=lo, hi=hi, is_store=is_store,
                                 reason="type3-offset", cycle=cycle)
        return self._violate(record, stall)

    def _check_type2(self, ctx: KernelSecurityContext, tp, lo: int, hi: int,
                     *, is_store: bool, num_transactions: int,
                     dcache_hit: bool, tlb_miss: bool, num_lanes: int,
                     cycle: int) -> CheckOutcome:
        self.stats.checks_type2 += 1
        buffer_id = ctx.cipher.decrypt(tp.payload)

        entry = self.l1.lookup(ctx.kernel_id, buffer_id)
        rbt_fill = False
        check_latency = self.config.l1_latency
        if entry is None:
            entry = self.l2.lookup(ctx.kernel_id, buffer_id)
            if entry is not None:
                check_latency = self.config.l2_latency
            else:
                # Initial miss: fetch from the RBT image in device memory,
                # bypassing translation (§5.4), then fill both levels.
                # The fetch is a memory access — it delays this warp's
                # result (check_latency) but does not block issue.
                bounds = ctx.rbt_read_entry(buffer_id)
                entry = RCacheEntry(buffer_id=buffer_id,
                                    kernel_id=ctx.kernel_id, bounds=bounds)
                self.l2.fill(entry)
                check_latency = (self.config.l2_latency
                                 + self.config.rbt_fetch_latency)
                rbt_fill = True
                self.stats.rbt_fills += 1
            self.l1.fill(entry)

        window = self._hiding_window(num_transactions, dcache_hit, tlb_miss)
        # Only the RCache pipeline portion can bubble the issue stage; an
        # RBT memory fetch is overlapped like any other memory latency.
        pipeline_latency = min(check_latency, self.config.l2_latency)
        stall = max(0, pipeline_latency - window) + self._lane_cost(num_lanes)

        bounds = entry.bounds
        if not bounds.valid:
            record = ViolationRecord(kernel_id=ctx.kernel_id,
                                     buffer_id=buffer_id, lo=lo, hi=hi,
                                     is_store=is_store, reason="invalid-id",
                                     cycle=cycle)
            return self._violate(record, stall, check_latency, rbt_fill)
        if is_store and bounds.read_only:
            record = ViolationRecord(kernel_id=ctx.kernel_id,
                                     buffer_id=buffer_id, lo=lo, hi=hi,
                                     is_store=True, reason="read-only",
                                     cycle=cycle)
            return self._violate(record, stall, check_latency, rbt_fill)
        if not bounds.contains_range(lo, hi):
            record = ViolationRecord(kernel_id=ctx.kernel_id,
                                     buffer_id=buffer_id, lo=lo, hi=hi,
                                     is_store=is_store, reason="out-of-bounds",
                                     cycle=cycle)
            return self._violate(record, stall, check_latency, rbt_fill)

        if stall:
            self.stats.stall_cycles += stall
        return CheckOutcome(allowed=True, stall_cycles=stall,
                            check_latency=check_latency, rbt_fill=rbt_fill)

    def _violate(self, record: ViolationRecord, stall: int,
                 check_latency: int = 0,
                 rbt_fill: bool = False) -> CheckOutcome:
        self.stats.violations += 1
        if stall:
            self.stats.stall_cycles += stall
        self.log.report(record)  # raises under the PRECISE policy
        return CheckOutcome(allowed=False, stall_cycles=stall,
                            check_latency=check_latency,
                            violation=record, rbt_fill=rbt_fill)

    def as_checker(self) -> "BCUAccessChecker":
        """This BCU behind the unified :class:`AccessChecker` protocol."""
        return BCUAccessChecker(self)


class BCUAccessChecker:
    """:class:`AccessChecker` facade over one :class:`BoundsCheckingUnit`.

    Kernels launched without GPUShield metadata (``ctx.security is
    None``) pass through for free — the BCU never even sees them, so its
    statistics keep counting only protected launches.
    """

    def __init__(self, bcu: BoundsCheckingUnit):
        self.bcu = bcu

    def check(self, ctx: AccessContext) -> CheckOutcome:
        if ctx.security is None:
            return ALLOW
        return self.bcu.check(
            ctx.security, ctx.base_pointer, ctx.lo, ctx.hi,
            is_store=ctx.is_store,
            num_transactions=ctx.num_transactions,
            dcache_hit=ctx.dcache_hit,
            tlb_miss=ctx.tlb_miss,
            num_lanes=ctx.num_lanes,
            cycle=ctx.cycle)
