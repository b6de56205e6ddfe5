"""The staged memory-access pipeline of one shader core.

:class:`MemoryPipeline` owns everything that happens to a warp memory
instruction after issue — the stages the paper draws beside the LSU
(Figure 12), each a separately testable method:

1. **coalesce** — the ACU merges lane addresses into aligned
   transactions and the (min, max) range the checker needs;
2. **translate** — L1 TLB -> L2 TLB -> page walk, per transaction;
3. **cache** — L1 (Dcache / constant / texture) -> L2 -> DRAM timing,
   per transaction;
4. **check** — the attached :class:`~repro.core.checker.AccessChecker`
   (GPUShield's BCU, a shadow-table tool, or nothing) rides beside the
   timing stages and may veto the access or bubble the issue stage;
5. **commit** — the functional access: native page-granularity
   protection, then real loads/stores against physical memory (or the
   on-chip shared-memory scratchpad).

The owning :class:`~repro.gpu.core.ShaderCore` is left with warp
scheduling and issue accounting; it consumes the returned
:class:`AccessResult`, which carries the full per-stage breakdown.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

from repro.core.checker import AccessChecker, AccessContext, CheckOutcome
from repro.errors import IllegalAddressError, KernelAborted
from repro.gpu.cache import Cache
from repro.gpu.coalescer import CoalescedAccess, coalesce
from repro.gpu.config import GPUConfig
from repro.gpu.dram import Dram
from repro.gpu.executor import MemRequest, WarpState
from repro.gpu.memory import AddressSpace, PhysicalMemory
from repro.gpu.observer import Observer
from repro.gpu.tlb import Tlb
from repro.isa.instructions import DTYPE_SIZE

#: Precompiled f32 packer for the shared-memory scratchpad hot loop.
_F32 = struct.Struct("<f")


@dataclass(frozen=True)
class TranslationResult:
    """Translate-stage outcome for one transaction."""

    latency: int                 # cycles added on top of the LSU depth
    l1_hit: bool
    l2_hit: bool
    walked: bool                 # full page walk (both TLB levels missed)


@dataclass(frozen=True)
class CacheResult:
    """Cache-stage outcome for one transaction."""

    latency: int                 # cycles added on top of the LSU depth
    l1_hit: bool
    l2_hit: bool
    dram: bool                   # the line came from DRAM


@dataclass
class AccessResult:
    """Per-access record of one trip through the pipeline."""

    space: str
    is_store: bool
    cycle: int = 0               # issue cycle
    latency: int = 0             # cycles until the warp's data is ready
    stall: int = 0               # issue bubbles injected by the checker
    allowed: bool = True
    transactions: int = 0
    min_addr: int = 0
    max_addr: int = 0
    coalesced: Optional[CoalescedAccess] = None
    # hit/miss per stage, summed over the access's transactions
    tlb_l1_hits: int = 0
    tlb_l2_hits: int = 0
    page_walks: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    dram_accesses: int = 0
    check: Optional[CheckOutcome] = None
    per_transaction: List[Tuple[TranslationResult, CacheResult]] = \
        field(default_factory=list)

    @property
    def tlb_missed(self) -> bool:
        return self.page_walks > 0

    @property
    def l1_all_hit(self) -> bool:
        return self.l1_hits == self.transactions


class MemoryPipeline:
    """Coalesce -> translate -> cache -> check -> commit for one core."""

    #: The set-associative structures this engine builds; the GPU builds
    #: its shared L2 cache and L2 TLB from the same two classes.
    cache_cls = Cache
    tlb_cls = Tlb

    def __init__(self, core_id: int, config: GPUConfig,
                 memory: PhysicalMemory, space: AddressSpace,
                 l2cache: Cache, l2tlb: Tlb, dram: Dram,
                 checker: Optional[AccessChecker] = None):
        self.core_id = core_id
        self.config = config
        self.memory = memory
        self.space = space
        cache_cls = self.cache_cls
        self.l1d = cache_cls(config.l1d_bytes, config.l1d_assoc,
                             config.line_size, name=f"l1d{core_id}")
        # Read-only paths (Table 1: constant and texture memory).
        self.const_cache = cache_cls(config.const_cache_bytes, 4, 64,
                                     name=f"const{core_id}")
        self.tex_cache = cache_cls(config.tex_cache_bytes, 4,
                                   config.line_size, name=f"tex{core_id}")
        self.l1tlb = self.tlb_cls(config.l1tlb_entries,
                                  name=f"l1tlb{core_id}")
        self.l2cache = l2cache
        self.l2tlb = l2tlb
        self.dram = dram
        self.checker = checker
        # Installed by GPU.observe; shared by every core of one GPU.
        self.observers: Tuple[Observer, ...] = ()
        # (launch_key, wg) -> shared-memory scratchpad
        self._shared: Dict[Tuple[int, int], bytearray] = {}

    def reset(self) -> None:
        """Scrub the per-core scratch state back to post-construction.

        Flushes the private caches/TLB (in place — the fast engine binds
        their line arrays at construction), zeroes their statistics and
        drops the shared-memory scratchpads.  The shared L2/L2TLB/DRAM
        and the checker/observer attachments are the device's to reset.
        """
        for component in (self.l1d, self.const_cache, self.tex_cache,
                          self.l1tlb):
            component.flush()
            component.reset_stats()
        self._shared.clear()

    # -- stage 1: address coalescing ---------------------------------------------------

    def coalesce(self, request: MemRequest) -> CoalescedAccess:
        """ACU stage: lane addresses -> aligned transactions + range."""
        access_size = DTYPE_SIZE[request.dtype]
        ca = coalesce(request.lane_addrs, access_size, self.config.line_size)
        assert ca is not None  # executor filters empty masks
        return ca

    # -- stage 2: address translation --------------------------------------------------

    def translate(self, tx: int) -> TranslationResult:
        """TLB stage for one transaction: L1 -> L2 -> page walk."""
        vpage = tx // self.config.page_size
        if self.l1tlb.access(vpage):
            return TranslationResult(0, l1_hit=True, l2_hit=False,
                                     walked=False)
        if self.l2tlb.access(vpage):
            return TranslationResult(self.config.tlb_l2_latency,
                                     l1_hit=False, l2_hit=True, walked=False)
        return TranslationResult(self.config.page_walk_latency,
                                 l1_hit=False, l2_hit=False, walked=True)

    # -- stage 3: cache hierarchy ------------------------------------------------------

    def _level1_for(self, space: str) -> Cache:
        """Constant/texture accesses ride their read-only caches instead
        of the L1 Dcache (Table 1's extra memory types)."""
        if space == "const":
            return self.const_cache
        if space == "texture":
            return self.tex_cache
        return self.l1d

    def cache_access(self, tx: int, cycle: int,
                     level1: Optional[Cache] = None) -> CacheResult:
        """Cache stage for one transaction: L1 -> L2 -> DRAM."""
        level1 = level1 if level1 is not None else self.l1d
        if level1.access(tx):
            return CacheResult(0, l1_hit=True, l2_hit=False, dram=False)
        if self.l2cache.access(tx):
            return CacheResult(self.config.l2_latency, l1_hit=False,
                               l2_hit=True, dram=False)
        done = self.dram.access(tx, cycle + self.config.l2_latency)
        return CacheResult(done - cycle, l1_hit=False, l2_hit=False,
                           dram=True)

    # -- stage 4: the checker seam -----------------------------------------------------

    def run_checker(self, request: MemRequest, job,
                    result: AccessResult, cycle: int) -> CheckOutcome:
        """Present the gathered (min, max) range to the access checker.

        The check overlaps the LSU pipeline (Figure 12): its resolution
        latency widens the access latency but only its pipeline portion
        can bubble the issue stage.
        """
        ctx = AccessContext(
            security=getattr(job.launch, "security", None),
            base_pointer=request.base_pointer,
            lo=result.min_addr,
            hi=result.max_addr,
            is_store=request.is_store,
            space=request.space,
            num_transactions=result.transactions,
            dcache_hit=result.l1_all_hit,
            tlb_miss=result.tlb_missed,
            num_lanes=result.coalesced.active_lanes,
            cycle=cycle)
        return self.checker.check(ctx)

    # -- the assembled pipeline --------------------------------------------------------

    def access(self, warp: WarpState, job, request: MemRequest,
               cycle: int) -> AccessResult:
        """Run one warp memory instruction through every stage."""
        if request.space == "shared":
            return self._access_shared(warp, job, request, cycle)

        # Stage events are built only when some observer wants them.
        stage = any(o.stage_level for o in self.observers)
        t0 = perf_counter_ns()

        result = AccessResult(space=request.space, is_store=request.is_store,
                              cycle=cycle)
        ca = self.coalesce(request)
        result.coalesced = ca
        result.transactions = ca.num_transactions
        result.min_addr = ca.min_addr
        result.max_addr = ca.max_addr
        if stage:
            self.emit_stage(
                stage="coalesce", cycle=cycle, core=self.core_id,
                warp_id=warp.warp_id, kernel_id=warp.launch_key,
                space=request.space, is_store=request.is_store,
                lo=ca.min_addr, hi=ca.max_addr,
                transactions=ca.num_transactions,
                segments=ca.transactions, active_lanes=ca.active_lanes)
        t_coal = perf_counter_ns()

        # LSU timing per transaction (they pipeline; the slowest dominates).
        level1 = self._level1_for(request.space)
        worst = 0
        for tx in ca.transactions:
            tr = self.translate(tx)
            result.tlb_l1_hits += tr.l1_hit
            result.tlb_l2_hits += tr.l2_hit
            result.page_walks += tr.walked
            cr = self.cache_access(tx, cycle, level1)
            result.l1_hits += cr.l1_hit
            result.l2_hits += cr.l2_hit
            result.dram_accesses += cr.dram
            result.per_transaction.append((tr, cr))
            worst = max(worst,
                        self.config.lsu_pipeline_depth
                        + tr.latency + cr.latency)
            if stage:
                self.emit_stage(
                    stage="translate", cycle=cycle, core=self.core_id,
                    warp_id=warp.warp_id, kernel_id=warp.launch_key,
                    space=request.space, is_store=request.is_store, tx=tx,
                    level=("l1" if tr.l1_hit
                           else "l2" if tr.l2_hit else "walk"))
                self.emit_stage(
                    stage="cache", cycle=cycle, core=self.core_id,
                    warp_id=warp.warp_id, kernel_id=warp.launch_key,
                    space=request.space, is_store=request.is_store, tx=tx,
                    level=("l1" if cr.l1_hit
                           else "l2" if cr.l2_hit else "dram"))
        result.latency = worst + (ca.num_transactions - 1)
        t_tim = perf_counter_ns()

        # Bounds checking (overlapped with the LSU pipeline, Figure 12).
        if self.checker is not None:
            outcome = self.run_checker(request, job, result, cycle)
            result.check = outcome
            result.allowed = outcome.allowed
            result.stall = outcome.stall_cycles
            # Bounds resolution (e.g. an RBT fill) delays this warp's
            # completion but overlaps the access's own latency (§5.5).
            result.latency = max(result.latency, outcome.check_latency)
            if stage:
                self.emit_stage(
                    stage="check", cycle=cycle, core=self.core_id,
                    warp_id=warp.warp_id, kernel_id=warp.launch_key,
                    space=request.space, is_store=request.is_store,
                    lo=result.min_addr, hi=result.max_addr,
                    transactions=result.transactions,
                    active_lanes=ca.active_lanes,
                    level=self._decode_level(request, job),
                    allowed=outcome.allowed,
                    reason=(outcome.violation.reason
                            if outcome.violation is not None else ""),
                    check_latency=outcome.check_latency,
                    stall=outcome.stall_cycles,
                    rbt_fill=outcome.rbt_fill)
        t_chk = perf_counter_ns()

        if result.allowed:
            self.commit(warp, job, request, ca)
            for observer in self.observers:
                observer.on_commit(self, warp, job, request, cycle)
        elif not request.is_store:
            # §5.5.2 logging policy: zero loads, drop stores silently.
            job.executor.deliver_load(
                warp, request, {lane: 0 for lane in request.active_lanes})
        marks = (t0, t_coal, t_tim, t_chk, perf_counter_ns())
        for observer in self.observers:
            observer.on_access(self, warp, job, request, result, marks)
        return result

    def _access_shared(self, warp: WarpState, job, request: MemRequest,
                       cycle: int) -> AccessResult:
        t0 = perf_counter_ns()
        self.do_shared(warp, job, request)
        for observer in self.observers:
            observer.on_commit(self, warp, job, request, cycle)
        offs = [a for a in request.lane_addrs if a is not None]
        result = AccessResult(space="shared", is_store=request.is_store,
                              cycle=cycle,
                              latency=self.config.lsu_pipeline_depth,
                              transactions=1, min_addr=min(offs),
                              max_addr=max(offs))
        marks = (t0, t0, t0, t0, perf_counter_ns())
        for observer in self.observers:
            observer.on_access(self, warp, job, request, result, marks)
        return result

    def emit_stage(self, **fields) -> None:
        """Hand one stage event to every stage-level observer."""
        for observer in self.observers:
            if observer.stage_level:
                observer.on_stage(**fields)

    # -- stage 5: functional commit ----------------------------------------------------

    def commit(self, warp: WarpState, job, request: MemRequest,
               ca: CoalescedAccess) -> None:
        """Native page-granularity protection + the real data movement."""
        try:
            for tx in ca.transactions:
                self.space.translate(tx, is_store=request.is_store)
        except IllegalAddressError as err:
            raise KernelAborted(err) from err
        if request.is_store:
            self.do_stores(request)
        else:
            self.do_loads(warp, job, request)

    def do_loads(self, warp: WarpState, job, request: MemRequest) -> None:
        memory = self.memory
        dtype = request.dtype
        values: Dict[int, object] = {}
        addrs = request.lane_addrs
        if dtype == "f32":
            for lane in request.active_lanes:
                values[lane] = memory.read_f32(addrs[lane])
        elif dtype in ("i32", "i64"):
            size = DTYPE_SIZE[dtype]
            for lane in request.active_lanes:
                values[lane] = memory.read_int(addrs[lane], size)
        else:
            size = DTYPE_SIZE[dtype]
            for lane in request.active_lanes:
                values[lane] = memory.read_uint(addrs[lane], size)
        job.executor.deliver_load(warp, request, values)

    def do_stores(self, request: MemRequest) -> None:
        memory = self.memory
        dtype = request.dtype
        addrs = request.lane_addrs
        values = request.store_values
        if dtype == "f32":
            for lane in request.active_lanes:
                memory.write_f32(addrs[lane], float(values[lane]))
        else:
            size = DTYPE_SIZE[dtype]
            for lane in request.active_lanes:
                memory.write_int(addrs[lane], size, int(values[lane]))

    # -- shared memory -----------------------------------------------------------------

    def shared_pad(self, warp: WarpState, job) -> bytearray:
        key = (warp.launch_key, warp.wg)
        pad = self._shared.get(key)
        if pad is None:
            size = max(4, job.executor.kernel.shared_bytes)
            pad = bytearray(size)
            self._shared[key] = pad
        return pad

    def do_shared(self, warp: WarpState, job, request: MemRequest) -> None:
        """Shared memory is on-chip and unprotected (Table 1): offsets wrap
        inside the scratchpad, so intra-workgroup corruption is possible."""
        pad = self.shared_pad(warp, job)
        size = DTYPE_SIZE[request.dtype]
        n = len(pad)
        if request.is_store:
            for lane in request.active_lanes:
                off = request.lane_addrs[lane] % n
                value = request.store_values[lane]
                if request.dtype == "f32":
                    blob = _F32.pack(float(value))
                else:
                    lim = 1 << (size * 8)
                    blob = ((int(value) + lim) % lim).to_bytes(size, "little")
                end = min(off + size, n)
                pad[off:end] = blob[:end - off]
        else:
            values: Dict[int, object] = {}
            for lane in request.active_lanes:
                off = request.lane_addrs[lane] % n
                blob = bytes(pad[off:off + size]).ljust(size, b"\x00")
                if request.dtype == "f32":
                    values[lane] = _F32.unpack(blob[:4])[0]
                elif request.dtype in ("i32", "i64"):
                    values[lane] = int.from_bytes(blob, "little", signed=True)
                else:
                    values[lane] = int.from_bytes(blob, "little")
            job.executor.deliver_load(warp, request, values)

    # -- stage events ------------------------------------------------------------------

    @staticmethod
    def _decode_level(request: MemRequest, job) -> str:
        """The BCU's decode outcome for the check stage event: the
        pointer type the base pointer decodes to, or ``"off"`` when the
        launch carries no security context (check bypassed)."""
        if getattr(job.launch, "security", None) is None:
            return "off"
        from repro.core.pointer import decode
        return decode(request.base_pointer).ptype.name.lower()
