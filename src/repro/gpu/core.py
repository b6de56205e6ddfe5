"""One shader core: warp scheduling and issue accounting.

The core model is warp-level and cycle-approximate:

* one instruction issues per cycle (greedy-then-oldest warp scheduling,
  so a warp keeps issuing until it stalls — the behaviour that gives
  bounds metadata its strong temporal locality, §5.5);
* ALU/SFU instructions make the warp ready again after a fixed latency;
* memory instructions are handed to the core's
  :class:`~repro.gpu.pipeline.MemoryPipeline` (AGU -> coalescer ->
  TLB/L1 -> L2 -> DRAM plus the checker seam) and block the issuing
  warp until data returns — other warps hide the latency (the TLP
  argument of §8.1);
* the attached :class:`~repro.core.checker.AccessChecker` (GPUShield's
  BCU by default) can inject issue bubbles per Figure 12's rule;
  blocked accesses return zero (loads) or are dropped (stores) under
  the logging policy.

Native (no-GPUShield) protection is the address space's page-granularity
check: touching an unmapped or inaccessible page aborts the kernel.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type

from repro.core.bcu import BoundsCheckingUnit
from repro.errors import KernelAborted
from repro.gpu.cache import Cache
from repro.gpu.config import GPUConfig
from repro.gpu.dram import Dram
from repro.gpu.executor import Executor, MemRequest, WarpState
from repro.gpu.memory import AddressSpace, PhysicalMemory
from repro.gpu.pipeline import MemoryPipeline
from repro.gpu.tlb import Tlb

_FAR_FUTURE = 1 << 60


@dataclass
class CoreJob:
    """One kernel launch as seen by a core."""

    executor: Executor
    launch: object   # LaunchContext (duck-typed to avoid the import cycle)


@dataclass
class CoreStats:
    cycles: int = 0
    instructions: int = 0
    mem_instructions: int = 0
    transactions: int = 0
    idle_cycles: int = 0
    bcu_stall_cycles: int = 0


class ShaderCore:
    """Executes assigned workgroups to completion."""

    def __init__(self, core_id: int, config: GPUConfig,
                 memory: PhysicalMemory, space: AddressSpace,
                 l2cache: Cache, l2tlb: Tlb, dram: Dram,
                 bcu: Optional[BoundsCheckingUnit] = None,
                 pipeline_cls: Type[MemoryPipeline] = MemoryPipeline):
        self.core_id = core_id
        self.config = config
        self.memory = memory
        self.space = space
        self.bcu = bcu
        self.pipeline = pipeline_cls(
            core_id, config, memory, space, l2cache, l2tlb, dram,
            checker=bcu.as_checker() if bcu is not None else None)
        self.stats = CoreStats()

    # The per-core memory structures live in the pipeline; these views
    # keep the historical attribute paths working (tests, stats wiring).

    @property
    def l1d(self) -> Cache:
        return self.pipeline.l1d

    @property
    def const_cache(self) -> Cache:
        return self.pipeline.const_cache

    @property
    def tex_cache(self) -> Cache:
        return self.pipeline.tex_cache

    @property
    def l1tlb(self) -> Tlb:
        return self.pipeline.l1tlb

    @property
    def l2cache(self) -> Cache:
        return self.pipeline.l2cache

    @property
    def l2tlb(self) -> Tlb:
        return self.pipeline.l2tlb

    @property
    def dram(self) -> Dram:
        return self.pipeline.dram

    # -- execution ---------------------------------------------------------------------

    def run(self, assignments: List[Tuple[CoreJob, int]]) -> int:
        """Run the assigned (job, workgroup) list; returns finish cycle."""
        self.pipeline.dram.begin_core_epoch()
        queue = deque(assignments)
        resident: List[Tuple[WarpState, CoreJob]] = []
        barrier_count: Dict[Tuple[int, int], int] = {}
        wg_live: Dict[Tuple[int, int], int] = {}
        # Workgroups still owed per launch on this core: when a launch's
        # count hits zero it has terminated here, and a partitioned BCU
        # flushes just that kernel's RCache bank (§6.2) so co-resident
        # kernels keep their entries.
        launch_wgs: Dict[int, int] = {}
        for job, _wg in assignments:
            key = job.executor.launch_key
            launch_wgs[key] = launch_wgs.get(key, 0) + 1
        cycle = 0
        next_warp_id = 0

        max_warps = self.config.max_warps_per_core

        def refill():
            nonlocal next_warp_id
            while queue:
                job, wg = queue[0]
                wg_warps = job.executor.warps_per_wg
                if resident and len(resident) + wg_warps > max_warps:
                    break
                queue.popleft()
                warps = job.executor.make_workgroup(wg, next_warp_id)
                next_warp_id += wg_warps
                for warp in warps:
                    resident.append((warp, job))
                wg_live[(job.executor.launch_key, wg)] = wg_warps

        refill()
        try:
            cycle = self._run_loop(resident, barrier_count, wg_live,
                                   launch_wgs, cycle, refill)
        finally:
            self.stats.cycles = max(self.stats.cycles, cycle)
        return cycle

    def _run_loop(self, resident, barrier_count, wg_live, launch_wgs, cycle,
                  refill) -> int:
        last_issued = -1
        stats = self.stats
        alu_latency = self.config.alu_latency
        sfu_latency = self.config.sfu_latency
        while resident:
            # Greedy-then-oldest: stay on the last issued warp if ready.
            chosen = -1
            if 0 <= last_issued < len(resident):
                warp, _job = resident[last_issued]
                if not warp.at_barrier and warp.ready_at <= cycle:
                    chosen = last_issued
            if chosen < 0:
                soonest = _FAR_FUTURE
                for i, (warp, _job) in enumerate(resident):
                    if warp.at_barrier:
                        continue
                    ready = warp.ready_at
                    if ready <= cycle:
                        chosen = i
                        break
                    if ready < soonest:
                        soonest = ready
                if chosen < 0:
                    if soonest >= _FAR_FUTURE:
                        stats.cycles = max(stats.cycles, cycle)
                        raise KernelAborted(RuntimeError(
                            "barrier deadlock: all warps waiting"))
                    stats.idle_cycles += soonest - cycle
                    cycle = soonest
                    continue

            warp, job = resident[chosen]
            last_issued = chosen
            executor = job.executor
            try:
                kind, payload = executor.issue(warp)
            finally:
                # Burst cycles precede the returned instruction, so it
                # issues or faults at the reference cycle.
                burst = executor.burst
                cycle += burst
                stats.instructions += burst
            stats.instructions += 1

            if kind == "alu":
                latency = (sfu_latency if payload == "sfu"
                           else alu_latency)
                warp.ready_at = cycle + latency
                cycle += 1
            elif kind == "mem":
                latency, stall = self._process_mem(warp, job, payload, cycle)
                warp.ready_at = cycle + latency
                cycle += 1 + stall
            elif kind == "malloc":
                heap = executor.heap
                grid_warps = executor.workgroups * executor.warps_per_wg
                cost = heap.alloc_cost_cycles(payload, len(resident),
                                              grid_warps=grid_warps)
                warp.ready_at = cycle + cost
                cycle += 1
            elif kind == "bar":
                key = (warp.launch_key, warp.wg)
                arrived = barrier_count.get(key, 0) + 1
                total = wg_live[key]
                if arrived >= total:
                    barrier_count[key] = 0
                    for other, _ojob in resident:
                        if (other.launch_key, other.wg) == key:
                            other.at_barrier = False
                            other.ready_at = cycle + 1
                    for observer in self.pipeline.observers:
                        observer.on_barrier(key)
                else:
                    barrier_count[key] = arrived
                    warp.at_barrier = True
                cycle += 1
            elif kind == "exit":
                key = (warp.launch_key, warp.wg)
                resident.pop(chosen)
                last_issued = -1
                wg_live[key] -= 1
                if wg_live[key] == 0:
                    del wg_live[key]
                    launch_wgs[key[0]] -= 1
                    if (launch_wgs[key[0]] == 0 and self.bcu is not None
                            and self.bcu.config.partition_rcache):
                        # This kernel has terminated on this core: drop
                        # only its RCache bank (§6.2) — survivors keep
                        # theirs.  Flushing is timing- and stats-free,
                        # and the kernel never probes again here.
                        self.bcu.flush(key[0])
                    refill()
                cycle += 1

        return cycle

    # -- issue accounting for memory instructions --------------------------------------

    def _process_mem(self, warp: WarpState, job: CoreJob,
                     request: MemRequest, cycle: int) -> Tuple[int, int]:
        """Hand one warp access to the pipeline; account the outcome.

        Returns (latency until data ready, issue-stall cycles).
        """
        self.stats.mem_instructions += 1
        result = self.pipeline.access(warp, job, request, cycle)
        if result.space != "shared":
            # Shared memory is on-chip: no off-chip transactions counted.
            self.stats.transactions += result.transactions
        self.stats.bcu_stall_cycles += result.stall
        return result.latency, result.stall
