"""The hot-path fast lane (``engine="fast"``, see :mod:`repro.engine`).

Every warp memory instruction walks coalesce -> translate -> cache ->
check -> commit.  The reference implementation spends most of its time
on interpreter overhead: a frozen dataclass per stage outcome, an
OrderedDict probe per set-associative lookup, a full pointer ``decode``
per access, and a dict build per lane load.  This module re-implements
exactly the same arithmetic with flat pre-bound structures:

* :class:`FastCache` / :class:`FastTlb` — a list of plain dicts indexed
  by precomputed line shift + set mask (plain dicts preserve insertion
  order, so ``del d[next(iter(d))]`` is the FIFO/LRU eviction);
* :class:`FastL1RCache` / :class:`FastL2RCache` — the same flat-bank
  treatment for the BCU's RBT caches;
* :class:`FastBoundsCheckingUnit` — memoized pointer decode per raw
  pointer and memoized ID decrypt per (kernel, payload), plus shared
  :class:`~repro.core.checker.CheckOutcome` singletons for the hot
  allow paths;
* :class:`FastMemoryPipeline` — one reusable scratch ``AccessResult``,
  the coalescer and both timing stages inlined into a single loop, and
  batched lane load/store loops that index the sparse physical-memory
  chunks directly;
* :class:`FastExecutor` — inline effective-address generation (the
  ``tagged_add(...) & VA_MASK`` composition reduces to one masked add),
  whole-warp ALU vectorization via ``list(map(...))``, and a cached
  all-lanes active list.

**Bit-identity contract**: every class here must produce exactly the
cycle counts, stats-counter values, functional memory contents and
violation records of its reference counterpart — same hits, same
evictions, same stall arithmetic, same rounding.  The contract is
enforced by ``python -m repro bench --compare-engines`` (all artefacts
plus the fuzz campaign under both engines must digest identically) and
by the property/differential tests in ``tests/test_fastpath.py``.
Anything that cannot be made bit-identical does not belong here.
"""

from __future__ import annotations

import operator
import struct
from typing import Dict, List, Optional

from repro.core.bcu import (BCUAccessChecker, BoundsCheckingUnit,
                            KernelSecurityContext)
from repro.core.checker import ALLOW, AccessContext, CheckOutcome
from repro.core.pointer import VA_MASK, PointerType, decode
from repro.core.rcache import L1RCache, L2RCache, RCacheEntry
from repro.core.violations import ViolationRecord
from repro.errors import IllegalAddressError, KernelAborted
from repro.gpu.cache import Cache
from repro.gpu.executor import (_ALU_FUNCS, _CMP_FUNCS, _UNARY_FUNCS,
                                Executor, Instr, MemRequest, WarpState)
from repro.gpu.memory import _CHUNK_BITS, _CHUNK_MASK, _CHUNK_SIZE
from repro.gpu.pipeline import AccessResult, MemoryPipeline
from repro.gpu.tlb import Tlb
from repro.isa.instructions import DTYPE_SIZE, Imm, Reg

_F32 = struct.Struct("<f")

#: Opcodes handled by ``_exec_alu`` (the reference ``step`` if-chain).
_ALU_OPS = (frozenset(_ALU_FUNCS) | frozenset(_UNARY_FUNCS)
            | {"mov", "mad", "fmad", "setp", "sel"})

#: C-implemented replacements for the reference's per-element lambdas.
#: ``operator.add(a, b)`` invokes the exact ``__add__`` protocol of
#: ``a + b``, so substituting them is bit-identical — but ``map`` over a
#: C function runs the whole lane loop without Python frames.
_C_ALU_FUNCS = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "fadd": operator.add, "fsub": operator.sub, "fmul": operator.mul,
}


# ---------------------------------------------------------------------------
# Flat set-associative probes
# ---------------------------------------------------------------------------


class FastCache(Cache):
    """Array-backed variant of :class:`~repro.gpu.cache.Cache`.

    One plain dict per set, indexed by a precomputed line shift and
    (for power-of-two set counts) a set mask.  Insertion order doubles
    as the LRU chain: a hit re-inserts, eviction drops the first key.
    """

    def __init__(self, size_bytes: int, assoc: int, line_size: int,
                 name: str = "cache"):
        super().__init__(size_bytes, assoc, line_size, name)
        self._shift = line_size.bit_length() - 1
        n = self.num_sets
        self._mask = (n - 1) if n & (n - 1) == 0 else -1
        self._lines: List[dict] = [{} for _ in range(n)]

    def access(self, addr: int) -> bool:
        line_addr = addr >> self._shift
        mask = self._mask
        s = self._lines[line_addr & mask if mask >= 0
                        else line_addr % self.num_sets]
        stats = self.stats
        if line_addr in s:
            # Move to the LRU tail: delete + re-insert keeps dict order.
            del s[line_addr]
            s[line_addr] = True
            stats.hits += 1
            return True
        stats.misses += 1
        if len(s) >= self.assoc:
            del s[next(iter(s))]
        s[line_addr] = True
        return False

    def probe(self, addr: int) -> bool:
        line_addr = addr >> self._shift
        mask = self._mask
        s = self._lines[line_addr & mask if mask >= 0
                        else line_addr % self.num_sets]
        return line_addr in s

    def flush(self) -> None:
        for s in self._lines:
            s.clear()


class FastTlb(Tlb):
    """Array-backed variant of :class:`~repro.gpu.tlb.Tlb`."""

    def __init__(self, entries: int, assoc: int = 0, name: str = "tlb"):
        super().__init__(entries, assoc, name)
        n = self.num_sets
        self._mask = (n - 1) if n & (n - 1) == 0 else -1
        self._lines: List[dict] = [{} for _ in range(n)]

    def access(self, vpage: int) -> bool:
        mask = self._mask
        s = self._lines[vpage & mask if mask >= 0 else vpage % self.num_sets]
        stats = self.stats
        if vpage in s:
            del s[vpage]
            s[vpage] = True
            stats.hits += 1
            return True
        stats.misses += 1
        if len(s) >= self.assoc:
            del s[next(iter(s))]
        s[vpage] = True
        return False

    def flush(self) -> None:
        for s in self._lines:
            s.clear()


# ---------------------------------------------------------------------------
# Flat RCache banks
# ---------------------------------------------------------------------------


class _FastRCacheMixin:
    """Plain-dict banks with inline FIFO/LRU for both RCache levels.

    Mirrors :class:`~repro.core.rcache._BaseRCache` exactly: same tag
    scheme, same hit/miss accounting, same replacement order.  The
    inherited ``flush``/``__len__``/``__contains__`` work unchanged on
    plain dicts.
    """

    def lookup(self, kernel_id: int,
               buffer_id: int) -> Optional[RCacheEntry]:
        bank = self._banks.get(kernel_id if self.partitioned else 0)
        tag = (kernel_id, buffer_id)
        entry = None if bank is None else bank.get(tag)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        if self.policy == "lru":
            del bank[tag]
            bank[tag] = entry
        return entry

    def fill(self, entry: RCacheEntry) -> None:
        key = entry.kernel_id if self.partitioned else 0
        bank = self._banks.get(key)
        if bank is None:
            bank = {}
            self._banks[key] = bank
        tag = (entry.kernel_id, entry.buffer_id)
        if tag in bank:
            if self.policy == "lru":
                del bank[tag]
            bank[tag] = entry
            return
        if len(bank) >= self.capacity:
            del bank[next(iter(bank))]
        bank[tag] = entry


class FastL1RCache(_FastRCacheMixin, L1RCache):
    pass


class FastL2RCache(_FastRCacheMixin, L2RCache):
    pass


# ---------------------------------------------------------------------------
# Fast BCU
# ---------------------------------------------------------------------------


class FastBoundsCheckingUnit(BoundsCheckingUnit):
    """Bit-identical BCU with memoized decode/decrypt and flat RCaches.

    The decode memo is pure (a raw pointer always decodes the same
    way); the decrypt memo keys on (kernel_id, payload) — kernel IDs
    are unique per driver, and each kernel's cipher is fixed, so the
    mapping never changes within this BCU's lifetime.
    """

    _MEMO_LIMIT = 1 << 16

    def __init__(self, config=None, log=None):
        super().__init__(config, log)
        cfg = self.config
        self.l1 = FastL1RCache(cfg.l1_entries, cfg.l1_policy,
                               partitioned=cfg.partition_rcache)
        self.l2 = FastL2RCache(cfg.l2_entries,
                               partitioned=cfg.partition_rcache)
        self._decode_memo: Dict[int, tuple] = {}
        self._decrypt_memo: Dict[tuple, int] = {}
        self._type3 = cfg.type3_enabled
        self._per_lane = cfg.check_per_lane
        self._l1_latency = cfg.l1_latency
        self._l2_latency = cfg.l2_latency
        self._window_base = cfg.lsu_hiding_window
        self._fill_latency = cfg.l2_latency + cfg.rbt_fetch_latency
        # Shared allow outcomes for the hot paths (all fields equal the
        # reference-constructed instances; CheckOutcome is frozen).
        self._allow_l1 = CheckOutcome(allowed=True, stall_cycles=0,
                                      check_latency=cfg.l1_latency)
        self._allow_l2 = CheckOutcome(allowed=True, stall_cycles=0,
                                      check_latency=cfg.l2_latency)

    def reset(self) -> None:
        """Device reset: also drop the decode/decrypt memos.

        The decrypt memo keys on ``(kernel_id, payload)`` and its
        correctness rests on kernel IDs being unique for this BCU's
        lifetime — a device reset restarts the driver's kernel counter,
        so stale entries would alias the new launches.
        """
        super().reset()
        self._decode_memo.clear()
        self._decrypt_memo.clear()

    def check(self, ctx: KernelSecurityContext, pointer: int,
              lo: int, hi: int, *, is_store: bool,
              num_transactions: int = 1, dcache_hit: bool = True,
              tlb_miss: bool = False, num_lanes: int = 1,
              cycle: int = 0) -> CheckOutcome:
        stats = self.stats
        stats.mem_instructions += 1
        info = self._decode_memo.get(pointer)
        if info is None:
            if len(self._decode_memo) >= self._MEMO_LIMIT:
                self._decode_memo.clear()
            tp = decode(pointer)
            info = (tp.ptype, tp.va, tp.payload)
            self._decode_memo[pointer] = info
        ptype, va, payload = info

        if ptype is PointerType.UNPROTECTED:
            stats.checks_skipped_static += 1
            return ALLOW

        if ptype is PointerType.OFFSET_OPT:
            if self._type3:
                stats.checks_type3 += 1
            else:
                # Ablation fallback: account as the Type-2 check the
                # hardware would issue, but compare the true pow2
                # region (see BoundsCheckingUnit.check).
                stats.checks_type2 += 1
            if self._per_lane:
                stats.lane_comparisons += num_lanes
                stall = (num_lanes + 1) // 2 - 1
                if stall < 0:
                    stall = 0
            else:
                stats.lane_comparisons += 1
                stall = 0
            if lo >= va and hi < va + (1 << payload):
                if stall:
                    stats.stall_cycles += stall
                    return CheckOutcome(allowed=True, stall_cycles=stall)
                return ALLOW
            record = ViolationRecord(kernel_id=ctx.kernel_id, buffer_id=-1,
                                     lo=lo, hi=hi, is_store=is_store,
                                     reason="type3-offset", cycle=cycle)
            return self._violate(record, stall)

        # Type 2: decrypt (memoized) -> RCache hierarchy -> compare.
        stats.checks_type2 += 1
        key = (ctx.kernel_id, payload)
        buffer_id = self._decrypt_memo.get(key)
        if buffer_id is None:
            if len(self._decrypt_memo) >= self._MEMO_LIMIT:
                self._decrypt_memo.clear()
            buffer_id = ctx.cipher.decrypt(payload)
            self._decrypt_memo[key] = buffer_id

        entry = self.l1.lookup(ctx.kernel_id, buffer_id)
        rbt_fill = False
        check_latency = self._l1_latency
        if entry is None:
            entry = self.l2.lookup(ctx.kernel_id, buffer_id)
            if entry is not None:
                check_latency = self._l2_latency
            else:
                bounds = ctx.rbt_read_entry(buffer_id)
                entry = RCacheEntry(buffer_id=buffer_id,
                                    kernel_id=ctx.kernel_id, bounds=bounds)
                self.l2.fill(entry)
                check_latency = self._fill_latency
                rbt_fill = True
                stats.rbt_fills += 1
            self.l1.fill(entry)

        window = self._window_base + num_transactions - 1
        if not dcache_hit:
            window += 20
        if tlb_miss:
            window += 100
        l2_latency = self._l2_latency
        pipeline_latency = (check_latency if check_latency < l2_latency
                            else l2_latency)
        stall = pipeline_latency - window
        if stall < 0:
            stall = 0
        if self._per_lane:
            stats.lane_comparisons += num_lanes
            extra = (num_lanes + 1) // 2 - 1
            if extra > 0:
                stall += extra
        else:
            stats.lane_comparisons += 1

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
            stats.stall_cycles += stall
            return CheckOutcome(allowed=True, stall_cycles=stall,
                                check_latency=check_latency,
                                rbt_fill=rbt_fill)
        if rbt_fill:
            return CheckOutcome(allowed=True, stall_cycles=0,
                                check_latency=check_latency, rbt_fill=True)
        return (self._allow_l1 if check_latency == self._l1_latency
                else self._allow_l2)


# ---------------------------------------------------------------------------
# Fast memory pipeline
# ---------------------------------------------------------------------------


class FastMemoryPipeline(MemoryPipeline):
    """The assembled fast lane: one loop, one scratch result object.

    The scratch :class:`~repro.gpu.pipeline.AccessResult` is valid only
    until the next ``access`` call — the owning core consumes it
    immediately, which is the lifetime the reference path guarantees
    anyway (a fresh object per access that nothing retains).
    """

    def __init__(self, core_id, config, memory, space, l2cache, l2tlb,
                 dram, checker=None):
        super().__init__(core_id, config, memory, space, l2cache, l2tlb,
                         dram, checker=checker)
        # Swap the per-core structures for their flat variants (fresh
        # and empty, so probe behaviour starts identical).
        self.l1d = FastCache(config.l1d_bytes, config.l1d_assoc,
                             config.line_size, name=f"l1d{core_id}")
        self.const_cache = FastCache(config.const_cache_bytes, 4, 64,
                                     name=f"const{core_id}")
        self.tex_cache = FastCache(config.tex_cache_bytes, 4,
                                   config.line_size, name=f"tex{core_id}")
        self.l1tlb = FastTlb(config.l1tlb_entries, name=f"l1tlb{core_id}")
        self._result = AccessResult(space="", is_store=False)
        self._result.per_transaction = []   # never filled on the fast lane
        self._line_shift = config.line_size.bit_length() - 1
        self._page_shift = config.page_size.bit_length() - 1
        self._depth = config.lsu_pipeline_depth
        self._l2_latency = config.l2_latency
        self._tlb_l2_latency = config.tlb_l2_latency
        self._walk_latency = config.page_walk_latency
        # Pre-bound probes (these objects are never replaced, only
        # flushed, so binding once is safe).
        self._l1tlb_access = self.l1tlb.access
        self._l2tlb_access = self.l2tlb.access
        self._l2_access = l2cache.access
        self._dram_access = dram.access
        # GPU-shared L2 structures: inline their probes too when they
        # are the flat pow2 variants (flush/map mutate in place, so the
        # bound dicts stay live).
        self._l2_bundle = None
        if type(l2cache) is FastCache and l2cache._mask >= 0:
            self._l2_bundle = (l2cache._lines, l2cache._mask,
                               l2cache._shift, l2cache.assoc,
                               l2cache.stats)
        self._l2tlb_bundle = None
        if type(l2tlb) is FastTlb and l2tlb._mask >= 0:
            self._l2tlb_bundle = (l2tlb._lines, l2tlb._mask,
                                  l2tlb.assoc, l2tlb.stats)
        self._space_pages = (space._pages
                             if space.page_size == config.page_size
                             else None)

    # -- the assembled pipeline (fast) ---------------------------------------

    def access(self, warp: WarpState, job, request: MemRequest,
               cycle: int) -> AccessResult:
        if self.observers:
            # Observers want stage events, commit hooks and the full
            # per-transaction breakdown: take the reference pipeline,
            # which runs against this object's fast structures
            # (bit-identical by the engine contract).
            return MemoryPipeline.access(self, warp, job, request, cycle)
        if request.space == "shared":
            return self._access_shared_fast(warp, job, request, cycle)

        result = self._result
        space = request.space
        is_store = request.is_store
        result.space = space
        result.is_store = is_store
        result.cycle = cycle
        result.stall = 0
        result.allowed = True
        result.coalesced = None
        result.check = None

        # Stage 1: coalesce (inline; same set arithmetic as coalesce()).
        addrs = request.lane_addrs
        active = request.active_lanes
        size_m1 = DTYPE_SIZE[request.dtype] - 1
        shift = self._line_shift
        a0 = addrs[active[0]]
        lo = a0
        hi = a0 + size_m1
        segs = set()
        for lane in active:
            a = addrs[lane]
            last = a + size_m1
            if a < lo:
                lo = a
            if last > hi:
                hi = last
            s0 = a >> shift
            s1 = last >> shift
            if s0 == s1:
                segs.add(s0)
            else:
                segs.update(range(s0, s1 + 1))
        txs = sorted(segs)
        ntx = len(txs)
        result.transactions = ntx
        result.min_addr = lo
        result.max_addr = hi

        # Stages 2+3: translate + cache per transaction, one loop.
        if space == "const":
            l1 = self.const_cache
        elif space == "texture":
            l1 = self.tex_cache
        else:
            l1 = self.l1d
        l2tlb_access = self._l2tlb_access
        l2_access = self._l2_access
        dram_access = self._dram_access
        page_shift = self._page_shift
        l2_latency = self._l2_latency
        tlb_l2_lat = self._tlb_l2_latency
        walk_lat = self._walk_latency
        tlb = self.l1tlb
        tlb_l1_hits = tlb_l2_hits = page_walks = 0
        l1_hits = l2_hits = dram_accesses = 0
        worst = 0
        l1_mask = l1._mask
        tlb_mask = tlb._mask
        if l1_mask >= 0 and tlb_mask >= 0:
            # Pow2 set counts (the common geometries): probe the set
            # dicts directly — same hits, victims and stats as the
            # FastCache/FastTlb methods, minus two calls per tx.
            l1_lines = l1._lines
            l1_shift = l1._shift
            l1_assoc = l1.assoc
            l1_stats = l1.stats
            tlb_lines = tlb._lines
            tlb_assoc = tlb.assoc
            tlb_stats = tlb.stats
            l2_bundle = self._l2_bundle
            l2tlb_bundle = self._l2tlb_bundle
            for i in range(ntx):
                seg = txs[i]
                tx = seg << shift
                txs[i] = tx
                vpage = tx >> page_shift
                s = tlb_lines[vpage & tlb_mask]
                if vpage in s:
                    del s[vpage]
                    s[vpage] = True
                    tlb_stats.hits += 1
                    tlb_l1_hits += 1
                    latency = 0
                else:
                    tlb_stats.misses += 1
                    if len(s) >= tlb_assoc:
                        del s[next(iter(s))]
                    s[vpage] = True
                    if l2tlb_bundle is None:
                        l2tlb_hit = l2tlb_access(vpage)
                    else:
                        t_lines, t_mask, t_assoc, t_stats = l2tlb_bundle
                        s = t_lines[vpage & t_mask]
                        if vpage in s:
                            del s[vpage]
                            s[vpage] = True
                            t_stats.hits += 1
                            l2tlb_hit = True
                        else:
                            t_stats.misses += 1
                            if len(s) >= t_assoc:
                                del s[next(iter(s))]
                            s[vpage] = True
                            l2tlb_hit = False
                    if l2tlb_hit:
                        tlb_l2_hits += 1
                        latency = tlb_l2_lat
                    else:
                        page_walks += 1
                        latency = walk_lat
                line = tx >> l1_shift
                s = l1_lines[line & l1_mask]
                if line in s:
                    del s[line]
                    s[line] = True
                    l1_stats.hits += 1
                    l1_hits += 1
                else:
                    l1_stats.misses += 1
                    if len(s) >= l1_assoc:
                        del s[next(iter(s))]
                    s[line] = True
                    if l2_bundle is None:
                        l2_hit = l2_access(tx)
                    else:
                        c_lines, c_mask, c_shift, c_assoc, c_stats = \
                            l2_bundle
                        l2_line = tx >> c_shift
                        s = c_lines[l2_line & c_mask]
                        if l2_line in s:
                            del s[l2_line]
                            s[l2_line] = True
                            c_stats.hits += 1
                            l2_hit = True
                        else:
                            c_stats.misses += 1
                            if len(s) >= c_assoc:
                                del s[next(iter(s))]
                            s[l2_line] = True
                            l2_hit = False
                    if l2_hit:
                        l2_hits += 1
                        latency += l2_latency
                    else:
                        dram_accesses += 1
                        latency += dram_access(tx, cycle + l2_latency) \
                            - cycle
                if latency > worst:
                    worst = latency
        else:
            # Non-pow2 sets (e.g. the 24-set texture cache): the
            # method path, still array-backed.
            l1_access = l1.access
            l1tlb_access = self._l1tlb_access
            for i in range(ntx):
                seg = txs[i]
                tx = seg << shift
                txs[i] = tx
                if l1tlb_access(tx >> page_shift):
                    tlb_l1_hits += 1
                    latency = 0
                elif l2tlb_access(tx >> page_shift):
                    tlb_l2_hits += 1
                    latency = tlb_l2_lat
                else:
                    page_walks += 1
                    latency = walk_lat
                if l1_access(tx):
                    l1_hits += 1
                elif l2_access(tx):
                    l2_hits += 1
                    latency += l2_latency
                else:
                    dram_accesses += 1
                    latency += dram_access(tx, cycle + l2_latency) - cycle
                if latency > worst:
                    worst = latency
        result.tlb_l1_hits = tlb_l1_hits
        result.tlb_l2_hits = tlb_l2_hits
        result.page_walks = page_walks
        result.l1_hits = l1_hits
        result.l2_hits = l2_hits
        result.dram_accesses = dram_accesses
        result.latency = self._depth + worst + ntx - 1

        # Stage 4: the checker seam.
        checker = self.checker
        if checker is not None:
            if type(checker) is BCUAccessChecker:
                security = getattr(job.launch, "security", None)
                if security is None:
                    outcome = ALLOW
                else:
                    outcome = checker.bcu.check(
                        security, request.base_pointer, lo, hi,
                        is_store=is_store, num_transactions=ntx,
                        dcache_hit=l1_hits == ntx,
                        tlb_miss=page_walks > 0,
                        num_lanes=len(active), cycle=cycle)
            else:
                outcome = checker.check(AccessContext(
                    security=getattr(job.launch, "security", None),
                    base_pointer=request.base_pointer,
                    lo=lo, hi=hi, is_store=is_store, space=space,
                    num_transactions=ntx, dcache_hit=l1_hits == ntx,
                    tlb_miss=page_walks > 0, num_lanes=len(active),
                    cycle=cycle))
            result.check = outcome
            result.allowed = outcome.allowed
            result.stall = outcome.stall_cycles
            if outcome.check_latency > result.latency:
                result.latency = outcome.check_latency

        if not result.allowed:
            # §5.5.2 logging policy: zero loads, drop stores silently.
            if not is_store:
                dst = warp.regs[request.dst]
                for lane in active:
                    dst[lane] = 0
            return result

        # Stage 5: commit (page protection + real data movement).
        translate = self.space.translate
        pages = self._space_pages
        try:
            if pages is None:
                for tx in txs:
                    translate(tx, is_store=is_store)
            else:
                # Inline the happy path of AddressSpace.translate; any
                # denial re-runs the method for the precise error.
                for tx in txs:
                    flags = pages.get(tx >> page_shift)
                    if (flags is None or not flags.accessible
                            or (is_store and not flags.writable)):
                        translate(tx, is_store=is_store)
        except IllegalAddressError as err:
            raise KernelAborted(err) from err
        if is_store:
            self._fast_stores(request)
        else:
            self._fast_loads(warp, request)
        return result

    def _access_shared_fast(self, warp: WarpState, job,
                            request: MemRequest, cycle: int) -> AccessResult:
        self.do_shared(warp, job, request)
        addrs = request.lane_addrs
        active = request.active_lanes
        lo = hi = addrs[active[0]]
        for lane in active:
            a = addrs[lane]
            if a < lo:
                lo = a
            elif a > hi:
                hi = a
        result = self._result
        result.space = "shared"
        result.is_store = request.is_store
        result.cycle = cycle
        result.latency = self._depth
        result.stall = 0
        result.allowed = True
        result.transactions = 1
        result.min_addr = lo
        result.max_addr = hi
        result.coalesced = None
        result.check = None
        result.tlb_l1_hits = result.tlb_l2_hits = result.page_walks = 0
        result.l1_hits = result.l2_hits = result.dram_accesses = 0
        return result

    # -- batched lane data movement ------------------------------------------

    def _fast_loads(self, warp: WarpState, request: MemRequest) -> None:
        """Chunk-direct scalar loads (same bytes_read accounting)."""
        memory = self.memory
        chunks = memory._chunks
        dtype = request.dtype
        addrs = request.lane_addrs
        active = request.active_lanes
        dst = warp.regs[request.dst]
        counted = 0
        chunk_index = -1
        chunk = None
        if dtype == "f32":
            unpack_from = _F32.unpack_from
            for lane in active:
                a = addrs[lane]
                off = a & _CHUNK_MASK
                if off <= _CHUNK_SIZE - 4:
                    index = a >> _CHUNK_BITS
                    if index != chunk_index:
                        chunk = chunks.get(index)
                        chunk_index = index
                    dst[lane] = (unpack_from(chunk, off)[0]
                                 if chunk is not None else 0.0)
                    counted += 4
                else:
                    dst[lane] = memory.read_f32(a)   # counts its own bytes
        else:
            size = DTYPE_SIZE[dtype]
            signed = dtype in ("i32", "i64")
            from_bytes = int.from_bytes
            bound = _CHUNK_SIZE - size
            for lane in active:
                a = addrs[lane]
                off = a & _CHUNK_MASK
                if off <= bound:
                    index = a >> _CHUNK_BITS
                    if index != chunk_index:
                        chunk = chunks.get(index)
                        chunk_index = index
                    dst[lane] = (from_bytes(chunk[off:off + size], "little",
                                            signed=signed)
                                 if chunk is not None else 0)
                    counted += size
                elif signed:
                    dst[lane] = memory.read_int(a, size)
                else:
                    dst[lane] = memory.read_uint(a, size)
        memory.bytes_read += counted

    def _fast_stores(self, request: MemRequest) -> None:
        """Chunk-direct scalar stores (same bytes_written accounting)."""
        memory = self.memory
        get_chunk = memory._chunk
        dtype = request.dtype
        addrs = request.lane_addrs
        values = request.store_values
        active = request.active_lanes
        counted = 0
        if dtype == "f32":
            pack_into = _F32.pack_into
            for lane in active:
                a = addrs[lane]
                off = a & _CHUNK_MASK
                if off <= _CHUNK_SIZE - 4:
                    pack_into(get_chunk(a >> _CHUNK_BITS), off,
                              float(values[lane]))
                    counted += 4
                else:
                    memory.write_f32(a, float(values[lane]))
        else:
            size = DTYPE_SIZE[dtype]
            lim = 1 << (size * 8)
            bound = _CHUNK_SIZE - size
            for lane in active:
                a = addrs[lane]
                off = a & _CHUNK_MASK
                value = int(values[lane])
                if off <= bound:
                    chunk = get_chunk(a >> _CHUNK_BITS)
                    chunk[off:off + size] = \
                        ((value + lim) % lim).to_bytes(size, "little")
                    counted += size
                else:
                    memory.write_int(a, size, value)
        memory.bytes_written += counted

    def do_shared(self, warp: WarpState, job, request: MemRequest) -> None:
        """Shared-memory scratchpad with direct register delivery."""
        pad = self.shared_pad(warp, job)
        dtype = request.dtype
        size = DTYPE_SIZE[dtype]
        n = len(pad)
        addrs = request.lane_addrs
        active = request.active_lanes
        if request.is_store:
            values = request.store_values
            if dtype == "f32":
                pack = _F32.pack
                for lane in active:
                    off = addrs[lane] % n
                    blob = pack(float(values[lane]))
                    end = off + size
                    if end <= n:
                        pad[off:end] = blob
                    else:
                        pad[off:n] = blob[:n - off]
            else:
                lim = 1 << (size * 8)
                for lane in active:
                    off = addrs[lane] % n
                    blob = ((int(values[lane]) + lim) % lim).to_bytes(
                        size, "little")
                    end = off + size
                    if end <= n:
                        pad[off:end] = blob
                    else:
                        pad[off:n] = blob[:n - off]
        else:
            dst = warp.regs[request.dst]
            if dtype == "f32":
                unpack_from = _F32.unpack_from
                for lane in active:
                    off = addrs[lane] % n
                    if off + 4 <= n:
                        dst[lane] = unpack_from(pad, off)[0]
                    else:
                        blob = bytes(pad[off:off + 4]).ljust(4, b"\x00")
                        dst[lane] = _F32.unpack(blob)[0]
            else:
                signed = dtype in ("i32", "i64")
                from_bytes = int.from_bytes
                for lane in active:
                    off = addrs[lane] % n
                    # Short tail reads match the reference's ljust: the
                    # missing high bytes are zero, so from_bytes on the
                    # short slice only differs for signed reads whose
                    # top present byte has the sign bit set.
                    blob = pad[off:off + size]
                    if signed and len(blob) < size:
                        blob = bytes(blob).ljust(size, b"\x00")
                    dst[lane] = from_bytes(blob, "little", signed=signed)


# ---------------------------------------------------------------------------
# Fast executor
# ---------------------------------------------------------------------------


#: Shared constant return payloads — consumers compare values only.
_EXIT = ("exit", None)
_MEM_NOP = ("alu", "mem-nop")


class FastExecutor(Executor):
    """Reference executor compiled to per-instruction closures.

    The instruction list is fixed at construction, so every per-step
    decision the reference dispatcher re-derives — opcode branch,
    operand kinds, predicate shape, destination index — is resolved
    exactly once into a specialized closure.  ``step`` then indexes a
    flat program array.  Control flow, ``bar``, ``exit`` and ``malloc``
    stay on the reference dispatcher (they are off the hot path and
    manage the pc themselves).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._all_lanes = list(range(self.warp_size))
        self._num_instr = len(self.instructions)
        # Special-register vectors ([gtid], [tid], ...) are pure in
        # (name, wg, warp_in_wg) and every consumer treats operand
        # vectors as read-only (destinations are always fresh lists or
        # element-wise writes), so they memoize safely.
        self._special_memo: Dict[tuple, List] = {}
        self._program = [self._compile(i) for i in self.instructions]

    # -- compilation ----------------------------------------------------------

    def _getter(self, operand):
        """Operand -> ``fn(warp) -> vector`` with the kind pre-resolved."""
        if isinstance(operand, Reg):
            index = operand.index
            return lambda warp: warp.regs[index]
        if isinstance(operand, Imm):
            const = (operand.value,) * self.warp_size  # read-only
            return lambda warp: const
        name = operand.name
        memo = self._special_memo
        special_values = self._special_values

        def special(warp):
            key = (name, warp.wg, warp.warp_in_wg)
            vec = memo.get(key)
            if vec is None:
                vec = special_values(warp, name)
                memo[key] = vec
            return vec
        return special

    def _compile(self, instr: Instr):
        op = instr.op
        if op in _ALU_OPS:
            return (0, self._compile_alu(instr), ("alu", instr.category))
        if op == "ld" or op == "st":
            return (1, self._compile_mem(instr))
        return None                     # reference dispatcher territory

    def _compile_alu(self, instr: Instr):
        op = instr.op
        dsti = instr.dst.index
        ws = self.warp_size
        lanes = self._all_lanes
        pred_idx = instr.pred.index if instr.pred is not None else None
        inv = instr.pred_invert
        # Normalize every opcode to an arity + element function; the
        # wrappers below produce exactly the reference element values.
        if op == "mov":
            arity, fn = 1, None
        elif op in _UNARY_FUNCS:
            arity, fn = 1, _UNARY_FUNCS[op]
        elif op in ("mad", "fmad"):
            arity, fn = 3, (lambda x, y, z: x * y + z)
        elif op == "sel":
            arity, fn = 3, (lambda p, x, y: x if p else y)
        elif op == "setp":
            arity = 2
            fn = (lambda x, y, c=_CMP_FUNCS[instr.cmp]:
                  1 if c(x, y) else 0)
        else:
            arity, fn = 2, _C_ALU_FUNCS.get(op) or _ALU_FUNCS[op]
        getters = [self._getter(s) for s in instr.srcs[:arity]]

        if arity == 1:
            g0, = getters

            def run(warp):
                mask = warp.mask
                regs = warp.regs
                if pred_idx is None:
                    if all(mask):
                        a = g0(warp)
                        regs[dsti] = (list(a) if fn is None
                                      else list(map(fn, a)))
                        return
                    active = [l for l in lanes if mask[l]]
                else:
                    p = regs[pred_idx]
                    active = ([l for l in lanes if mask[l] and not p[l]]
                              if inv else
                              [l for l in lanes if mask[l] and p[l]])
                    if len(active) == ws:
                        a = g0(warp)
                        regs[dsti] = (list(a) if fn is None
                                      else list(map(fn, a)))
                        return
                if not active:
                    return
                dst = regs[dsti]
                a = g0(warp)
                if fn is None:
                    for l in active:
                        dst[l] = a[l]
                else:
                    for l in active:
                        dst[l] = fn(a[l])
            return run

        if arity == 2:
            g0, g1 = getters

            def run(warp):
                mask = warp.mask
                regs = warp.regs
                if pred_idx is None:
                    if all(mask):
                        regs[dsti] = list(map(fn, g0(warp), g1(warp)))
                        return
                    active = [l for l in lanes if mask[l]]
                else:
                    p = regs[pred_idx]
                    active = ([l for l in lanes if mask[l] and not p[l]]
                              if inv else
                              [l for l in lanes if mask[l] and p[l]])
                    if len(active) == ws:
                        regs[dsti] = list(map(fn, g0(warp), g1(warp)))
                        return
                if not active:
                    return
                dst = regs[dsti]
                a = g0(warp)
                b = g1(warp)
                for l in active:
                    dst[l] = fn(a[l], b[l])
            return run

        g0, g1, g2 = getters

        def run(warp):
            mask = warp.mask
            regs = warp.regs
            if pred_idx is None:
                if all(mask):
                    regs[dsti] = list(map(fn, g0(warp), g1(warp),
                                          g2(warp)))
                    return
                active = [l for l in lanes if mask[l]]
            else:
                p = regs[pred_idx]
                active = ([l for l in lanes if mask[l] and not p[l]]
                          if inv else
                          [l for l in lanes if mask[l] and p[l]])
                if len(active) == ws:
                    regs[dsti] = list(map(fn, g0(warp), g1(warp),
                                          g2(warp)))
                    return
            if not active:
                return
            dst = regs[dsti]
            a = g0(warp)
            b = g1(warp)
            c = g2(warp)
            for l in active:
                dst[l] = fn(a[l], b[l], c[l])
        return run

    def _compile_mem(self, instr: Instr):
        is_store = instr.op == "st"
        space = instr.space
        shared = space == "shared"
        dtype = instr.dtype
        dsti = instr.dst.index if instr.dst is not None else None
        ws = self.warp_size
        lanes = self._all_lanes
        pred_idx = instr.pred.index if instr.pred is not None else None
        inv = instr.pred_invert
        gbase = self._getter(instr.srcs[0])
        goff = self._getter(instr.srcs[1])
        gstore = self._getter(instr.srcs[2]) if is_store else None

        def run(warp):
            mask = warp.mask
            if pred_idx is None:
                # Shared read-only list: consumers only iterate it.
                active = (lanes if all(mask)
                          else [l for l in lanes if mask[l]])
            else:
                p = warp.regs[pred_idx]
                active = ([l for l in lanes if mask[l] and not p[l]]
                          if inv else
                          [l for l in lanes if mask[l] and p[l]])
            if not active:
                return _MEM_NOP
            base = gbase(warp)
            offset = goff(warp)
            lane_addrs: List[Optional[int]] = [None] * ws
            if shared:
                for l in active:
                    lane_addrs[l] = int(offset[l])
                base_pointer = 0
            else:
                # tagged_add(base, off) & VA_MASK == (base + off) &
                # VA_MASK: the metadata bits are stripped by the mask
                # and 2**48 divides 2**64, so 64-bit wrapping cannot
                # change the low 48 bits of the sum.
                for l in active:
                    lane_addrs[l] = (int(base[l]) + int(offset[l])) \
                        & VA_MASK
                base_pointer = int(base[active[0]])
            store_values = list(gstore(warp)) if is_store else None
            return ("mem", MemRequest(
                instr=instr, space=space, dtype=dtype,
                is_store=is_store, lane_addrs=lane_addrs,
                base_pointer=base_pointer, store_values=store_values,
                dst=dsti, active_lanes=active))
        return run

    # -- dispatch -------------------------------------------------------------

    def step(self, warp: WarpState):
        if warp.finished:
            return _EXIT
        pc = warp.pc
        if pc >= self._num_instr:
            warp.finished = True
            return _EXIT
        entry = self._program[pc]
        if entry is None:
            # Control flow / bar / exit / malloc: the reference
            # dispatcher (it counts the instruction itself).
            return super().step(warp)
        self.instructions_executed += 1
        warp.pc = pc + 1
        if entry[0] == 0:
            entry[1](warp)
            return entry[2]
        return entry[1](warp)
