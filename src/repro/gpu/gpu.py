"""The whole-GPU model: cores, shared memory-side structures, dispatch.

Supports the three execution modes of the evaluation:

* ``single`` — one kernel over all cores (Figures 14-17);
* ``inter_core`` — two kernels, each on half the cores (§6.2 mode 1);
* ``intra_core`` — two kernels interleaved on every core (§6.2 mode 2),
  where the RCache kernel-ID tags prevent cross-kernel confusion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple, Union

from typing import TYPE_CHECKING

from repro.core.shield import GPUShield
from repro.engine import resolve as resolve_engine
from repro.errors import BoundsViolation, KernelAborted, LaunchError
from repro.gpu.core import CoreJob, ShaderCore
from repro.gpu.dram import Dram
from repro.gpu.executor import Executor
from repro.gpu.observer import Observer
from repro.gpu.pipeline import MemoryPipeline

if TYPE_CHECKING:  # avoid a circular import; the driver imports gpu.memory
    from repro.driver.driver import GpuDriver, LaunchContext


@dataclass
class LaunchResult:
    """Aggregate outcome of one GPU.run() invocation."""

    cycles: int
    instructions: int
    mem_instructions: int
    transactions: int
    aborted: bool = False
    error: str = ""
    per_core_cycles: List[int] = field(default_factory=list)
    l1d_hit_rate: float = 1.0
    l1_rcache_hit_rate: float = 1.0
    l2_rcache_hit_rate: float = 1.0
    check_reduction_percent: float = 0.0
    bcu_stall_cycles: int = 0
    rbt_fills: int = 0
    violations: int = 0
    divergent_branches: int = 0

    @property
    def ok(self) -> bool:
        return not self.aborted


def _hit_rate(hits: int, misses: int) -> float:
    """``StatsSnapshot.hit_rate``: 1.0 when never accessed."""
    accesses = hits + misses
    return hits / accesses if accesses else 1.0


@dataclass
class CounterTotals:
    """The GPU-wide counters that launch and run records report.

    Each field equals what a registry snapshot gives for the pattern in
    its comment (``total``, ``hit_rate``, ``ratio_percent`` or ``get``),
    read straight off the components instead of flattening them all.
    Every value is cumulative since the last reset.
    """

    instructions: int            # cores.*.issue.instructions
    mem_instructions: int        # cores.*.issue.mem_instructions
    transactions: int            # cores.*.issue.transactions
    issue_stall_cycles: int      # cores.*.issue.bcu_stall_cycles
    l1d_hit_rate: float          # cores.*.l1d
    l1_rcache_hit_rate: float    # cores.*.rcache.l1
    l2_rcache_hit_rate: float    # cores.*.rcache.l2
    #: cores.*.bcu.checks_skipped_static over cores.*.bcu.mem_instructions
    check_reduction_percent: float
    bcu_stall_cycles: int        # cores.*.bcu.stall_cycles
    rbt_fills: int               # cores.*.bcu.rbt_fills
    violations: int              # shield.log.violations


class GPU:
    """Simulated GPU bound to one driver (its memory and shield)."""

    def __init__(self, driver: GpuDriver):
        self.driver = driver
        self.config = driver.config
        self.shield: GPUShield = driver.shield
        config = self.config
        # The one place the engine picks classes: the pipeline (and with
        # it every cache and TLB, the shared L2 pair included) and the
        # executor; the shield picks the BCU from the same name.
        self.engine = resolve_engine(config.engine)
        if self.engine == "fast":
            from repro.gpu.fastpath import FastExecutor, FastMemoryPipeline
            pipeline_cls = FastMemoryPipeline
            self._executor_cls = FastExecutor
            # Issue bursts are exact only while a retired ALU op leaves
            # its warp ready on the next cycle (DESIGN.md §9).
            self._executor_options = {"fuse": config.alu_latency <= 1}
        else:
            pipeline_cls = MemoryPipeline
            self._executor_cls = Executor
            self._executor_options = {}
        self.l2cache = pipeline_cls.cache_cls(
            config.l2_bytes, config.l2_assoc, config.line_size, name="l2")
        self.l2tlb = pipeline_cls.tlb_cls(
            config.l2tlb_entries, config.l2tlb_assoc, name="l2tlb")
        self.dram = Dram(channels=config.dram_channels,
                         row_bytes=config.dram_row_bytes,
                         line_size=config.line_size,
                         row_hit_latency=config.dram_row_hit_latency,
                         row_miss_latency=config.dram_row_miss_latency,
                         service_interval=config.dram_service_interval)
        self.cores = [
            ShaderCore(i, config, driver.memory, driver.space,
                       self.l2cache, self.l2tlb, self.dram,
                       bcu=(self.shield.make_bcu(engine=self.engine)
                            if self.shield.enabled else None),
                       pipeline_cls=pipeline_cls)
            for i in range(config.num_cores)
        ]
        self.observers: Tuple[Observer, ...] = ()
        self.stats = self._build_stats_registry()
        # Steady-state relaunches fast-forward on the fast engine only;
        # the reference engine always simulates (it is the oracle).
        self.relaunch = None
        if self.engine == "fast":
            from repro.gpu.relaunch import Relaunch
            self.relaunch = Relaunch(self)

    def _build_stats_registry(self):
        """Register every component's counters under one hierarchy."""
        # Imported lazily: repro.analysis pulls the harness (and hence
        # this module) back in at package-import time.
        from repro.analysis.stats import StatsRegistry
        registry = StatsRegistry()
        registry.register("l2cache", self.l2cache.stats)
        registry.register("l2tlb", self.l2tlb.stats)
        registry.register("dram", self.dram.stats)
        for core in self.cores:
            prefix = f"cores.{core.core_id}"
            registry.register(f"{prefix}.issue", core.stats)
            registry.register(f"{prefix}.l1d", core.l1d.stats)
            registry.register(f"{prefix}.const", core.const_cache.stats)
            registry.register(f"{prefix}.tex", core.tex_cache.stats)
            registry.register(f"{prefix}.l1tlb", core.l1tlb.stats)
            if core.bcu is not None:
                # The BCU swaps its stats object on reset; bind the unit.
                registry.register(f"{prefix}.bcu",
                                  lambda b=core.bcu: b.stats)
                registry.register(f"{prefix}.rcache.l1", core.bcu.l1.stats)
                registry.register(f"{prefix}.rcache.l2", core.bcu.l2.stats)
        if self.shield.enabled:
            registry.register(
                "shield.log",
                lambda: {"violations": len(self.shield.log)})
        return registry

    def observe(self, *observers: Observer) -> None:
        """Replace the observer tuple; ``observe()`` detaches them all.

        Every core's pipeline shares the tuple, and each observer's
        counters are registered under its :attr:`~Observer.name`.
        """
        for observer in self.observers:
            if observer.name:
                self.stats.unregister(observer.name)
        self.observers = observers
        for core in self.cores:
            core.pipeline.observers = observers
        for observer in observers:
            if observer.name:
                self.stats.register(observer.name, observer.stats)

    def reset(self) -> None:
        """Scrub every micro-architectural structure back to cold state.

        Flushes the shared L2/L2TLB, resets DRAM channel timing, resets
        each core's private pipeline state and BCU (RCache banks, memo
        tables), re-attaches the default checker (harness tools may have
        swapped it), detaches every observer, zeroes every registered
        statistic in place — the registry keeps its registrations so
        references bound at construction (fast engine) stay live — and
        drops the relaunch record, so the next launches simulate.
        """
        self.l2cache.flush()
        self.l2tlb.flush()
        self.dram.reset()
        for core in self.cores:
            core.pipeline.reset()
            if core.bcu is not None:
                core.bcu.reset()
                core.pipeline.checker = core.bcu.as_checker()
            else:
                core.pipeline.checker = None
        self.observe()
        self.stats.reset()
        if self.relaunch is not None:
            self.relaunch.drop()

    # -- dispatch ------------------------------------------------------------------

    def run(self, launches: Union[LaunchContext, Sequence[LaunchContext]],
            mode: str = "single") -> LaunchResult:
        """Execute prepared launches to completion.

        On the fast engine a relaunch from a verified fixed point
        returns the recorded outcome without simulating
        (:mod:`repro.gpu.relaunch`).
        """
        if not isinstance(launches, (list, tuple)):
            launches = [launches]
        launches = list(launches)
        if not launches:
            raise LaunchError("nothing to run")
        if mode == "single" and len(launches) != 1:
            raise LaunchError("mode 'single' takes exactly one launch")
        if mode in ("inter_core", "intra_core") and len(launches) < 2:
            raise LaunchError(f"mode {mode!r} needs at least two launches")

        if self.relaunch is not None:
            replayed = self.relaunch.replay(launches, mode)
            if replayed is not None:
                return replayed

        jobs = [self._make_job(launch) for launch in launches]
        assignments = self._assign(jobs, mode)

        # Core counters are cumulative across runs; keep a base for deltas.
        before = self.totals()
        aborted = False
        error = ""
        per_core: List[int] = []
        for core, work in zip(self.cores, assignments):
            if not work:
                per_core.append(0)
                continue
            try:
                per_core.append(core.run(work))
            except KernelAborted as err:
                aborted = True
                error = str(err)
                per_core.append(core.stats.cycles)
                break
            except BoundsViolation as err:
                # PRECISE reporting policy: the fault aborts the kernel
                # immediately (§5.5.2).
                aborted = True
                error = f"precise bounds fault: {err}"
                per_core.append(core.stats.cycles)
                break

        result = self._collect(per_core, aborted, error, before)
        result.divergent_branches = sum(j.executor.divergent_branches
                                        for j in jobs)
        for observer in self.observers:
            for launch in launches:
                observer.on_kernel_finish(launch.kernel_id)
        # Kernel termination flushes the RCaches (§5.5).  Partitioned
        # RCaches (§6.2) flush per terminating kernel so banks belonging
        # to kernels outside this dispatch survive.
        partitioned = (self.shield.enabled
                       and self.shield.config.bcu.partition_rcache)
        for core in self.cores:
            if core.bcu is not None:
                if partitioned:
                    for launch in launches:
                        core.bcu.flush(launch.kernel_id)
                else:
                    core.bcu.flush()
        if self.relaunch is not None:
            self.relaunch.settle(result)
        return result

    def _make_job(self, launch: LaunchContext) -> CoreJob:
        executor = self._executor_cls(
            kernel=launch.kernel,
            workgroups=launch.workgroups,
            wg_size=launch.wg_size,
            warp_size=self.config.warp_size,
            initial_regs=launch.initial_registers(),
            heap=self.driver.heap,
            heap_tagger=launch.heap_pointer_tagger,
            launch_key=launch.kernel_id,
            **self._executor_options,
        )
        return CoreJob(executor=executor, launch=launch)

    def _assign(self, jobs: List[CoreJob],
                mode: str) -> List[List[Tuple[CoreJob, int]]]:
        ncores = len(self.cores)
        assignments: List[List[Tuple[CoreJob, int]]] = [[] for _ in range(ncores)]
        if mode == "single":
            job = jobs[0]
            for wg in range(job.launch.workgroups):
                assignments[wg % ncores].append((job, wg))
        elif mode == "inter_core":
            half = max(1, ncores // len(jobs))
            for j, job in enumerate(jobs):
                lo = j * half
                hi = ncores if j == len(jobs) - 1 else (j + 1) * half
                span = max(1, hi - lo)
                for wg in range(job.launch.workgroups):
                    assignments[lo + wg % span].append((job, wg))
        elif mode == "intra_core":
            interleaved: List[Tuple[CoreJob, int]] = []
            counters = [0] * len(jobs)
            remaining = sum(j.launch.workgroups for j in jobs)
            j = 0
            while remaining:
                job = jobs[j % len(jobs)]
                idx = counters[j % len(jobs)]
                if idx < job.launch.workgroups:
                    interleaved.append((job, idx))
                    counters[j % len(jobs)] += 1
                    remaining -= 1
                j += 1
            for i, item in enumerate(interleaved):
                assignments[i % ncores].append(item)
        else:
            raise LaunchError(f"unknown mode {mode!r}")
        return assignments

    # -- statistics ---------------------------------------------------------------------

    def totals(self) -> CounterTotals:
        """Sum the reported counters over every core (see
        :class:`CounterTotals`); the registry stays for every other
        consumer."""
        instructions = mem = txs = issue_stalls = 0
        l1d_hits = l1d_misses = 0
        rc1_hits = rc1_misses = rc2_hits = rc2_misses = 0
        skipped = checked = stalls = fills = 0
        for core in self.cores:
            stats = core.stats
            instructions += stats.instructions
            mem += stats.mem_instructions
            txs += stats.transactions
            issue_stalls += stats.bcu_stall_cycles
            l1d = core.l1d.stats
            l1d_hits += l1d.hits
            l1d_misses += l1d.misses
            bcu = core.bcu
            if bcu is not None:
                rc1_hits += bcu.l1.stats.hits
                rc1_misses += bcu.l1.stats.misses
                rc2_hits += bcu.l2.stats.hits
                rc2_misses += bcu.l2.stats.misses
                bcu_stats = bcu.stats
                skipped += bcu_stats.checks_skipped_static
                checked += bcu_stats.mem_instructions
                stalls += bcu_stats.stall_cycles
                fills += bcu_stats.rbt_fills
        return CounterTotals(
            instructions=instructions,
            mem_instructions=mem,
            transactions=txs,
            issue_stall_cycles=issue_stalls,
            l1d_hit_rate=_hit_rate(l1d_hits, l1d_misses),
            l1_rcache_hit_rate=_hit_rate(rc1_hits, rc1_misses),
            l2_rcache_hit_rate=_hit_rate(rc2_hits, rc2_misses),
            check_reduction_percent=(100.0 * skipped / checked
                                     if checked else 0.0),
            bcu_stall_cycles=stalls,
            rbt_fills=fills,
            violations=len(self.shield.log) if self.shield.enabled else 0,
        )

    def _collect(self, per_core: List[int], aborted: bool, error: str,
                 before: CounterTotals) -> LaunchResult:
        after = self.totals()
        return LaunchResult(
            cycles=max(per_core) if per_core else 0,
            instructions=after.instructions - before.instructions,
            mem_instructions=after.mem_instructions - before.mem_instructions,
            transactions=after.transactions - before.transactions,
            aborted=aborted,
            error=error,
            per_core_cycles=per_core,
            l1d_hit_rate=after.l1d_hit_rate,
            l1_rcache_hit_rate=after.l1_rcache_hit_rate,
            l2_rcache_hit_rate=after.l2_rcache_hit_rate,
            check_reduction_percent=after.check_reduction_percent,
            bcu_stall_cycles=(after.issue_stall_cycles
                              - before.issue_stall_cycles),
            rbt_fills=after.rbt_fills,
            violations=after.violations,
        )
