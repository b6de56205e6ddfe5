"""The fast lane's bit-identity contract (see DESIGN.md §9).

Two layers of evidence that ``repro.gpu.fastpath`` is observationally
identical to the reference engine:

* **Property tests** drive the array-backed :class:`FastCache` (a
  :class:`FastTlb` is one with one-byte lines) and the OrderedDict
  reference with the same random operation sequences and compare every
  observable after every operation — return values, stats counters,
  residency probes.  A fixed set-overflow sequence pins the victim
  choice, and a latency sweep pins the fast BCU's stall at every
  hiding-window edge.
* **Differential tests** run whole campaigns/workloads under each
  engine and compare digests: the PR-2 fuzz corpus (per-case outcomes,
  detection matrix, and per-config cycles all feed
  :func:`campaign_digest`) and a real benchmark's full
  :class:`RunRecord`.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bcu import BCUConfig, BoundsCheckingUnit, KernelSecurityContext
from repro.core.bounds import Bounds
from repro.core.crypto import IdCipher
from repro.core.pointer import make_base_pointer
from repro.engine import ENGINES, current_engine, engine, resolve, set_engine
from repro.gpu.cache import Cache
from repro.gpu.fastpath import (
    _ALU_OPS,
    FastBoundsCheckingUnit,
    FastCache,
    FastExecutor,
    FastTlb,
)
from repro.gpu.tlb import Tlb


# ---------------------------------------------------------------------------
# Engine selection plumbing
# ---------------------------------------------------------------------------


class TestEngineSelection:
    def test_default_is_fast(self):
        assert resolve("") == current_engine()
        assert current_engine() in ENGINES

    def test_context_manager_restores(self):
        before = current_engine()
        with engine("slow"):
            assert current_engine() == "slow"
        assert current_engine() == before

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            set_engine("turbo")
        with pytest.raises(ValueError):
            resolve("turbo")

    def test_config_pin_beats_global(self):
        from repro.gpu.config import nvidia_config
        assert resolve(nvidia_config(engine="slow").engine) == "slow"

    def test_gpu_picks_engine_classes(self):
        from repro import GpuSession, ShieldConfig
        from repro.gpu.config import nvidia_config
        from repro.gpu.fastpath import (FastBoundsCheckingUnit,
                                        FastMemoryPipeline)
        from repro.gpu.pipeline import MemoryPipeline

        fast = GpuSession(nvidia_config(num_cores=1, engine="fast"),
                          shield=ShieldConfig(enabled=True))
        assert type(fast.gpu.cores[0].pipeline) is FastMemoryPipeline
        assert type(fast.gpu.cores[0].bcu) is FastBoundsCheckingUnit
        slow = GpuSession(nvidia_config(num_cores=1, engine="slow"),
                          shield=ShieldConfig(enabled=True))
        assert type(slow.gpu.cores[0].pipeline) is MemoryPipeline


# ---------------------------------------------------------------------------
# FastCache vs the OrderedDict reference
# ---------------------------------------------------------------------------

#: Two address pools: a small one so sequences collide in sets and
#: evict at every line size (one-byte TLB lines included), and a wide
#: one that spreads over every set.
_ADDR = st.one_of(st.integers(0, 255), st.integers(0, 1 << 14))
_OPS = st.lists(st.tuples(st.sampled_from(["access", "probe", "flush"]),
                          _ADDR),
                min_size=1, max_size=200)

#: (size_bytes, assoc, line_size) — pow2 sets, a single set, the
#: texture cache's 24-set geometry (12 KiB / 128B / 4-way), and four
#: TLB geometries (one-byte lines): 8 sets, two fully associative, and
#: 12 sets.
_CACHE_GEOMETRIES = [
    (16384, 4, 128),
    (512, 4, 128),       # one set: pure associativity
    (12288, 4, 128),     # 24 sets: not a power of two
    (4096, 1, 64),       # direct-mapped
    (32, 4, 1),          # a 32-entry 4-way TLB
    (32, 32, 1),         # a fully associative TLB
    (8, 8, 1),
    (48, 4, 1),          # a 12-set TLB
]


def _set_overflow(ways, stride):
    """Keys of one set: fill every way, touch the oldest, overflow by
    one, then revisit the oldest two — a hit then a miss under LRU, two
    misses under FIFO, two hits with one way too many."""
    keys = [i * stride for i in range(ways + 1)]
    return keys[:ways] + [keys[0], keys[ways], keys[0], keys[1]]


class TestFastCacheEquivalence:
    @pytest.mark.parametrize("geometry", _CACHE_GEOMETRIES)
    def test_overflowing_a_set_evicts_its_lru_line(self, geometry):
        ref, fast = Cache(*geometry), FastCache(*geometry)
        for addr in _set_overflow(ref.assoc, ref.num_sets * ref.line_size):
            assert ref.access(addr) == fast.access(addr)

    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS, geometry=st.sampled_from(_CACHE_GEOMETRIES))
    def test_matches_reference(self, ops, geometry):
        size_bytes, assoc, line = geometry
        ref = Cache(size_bytes, assoc, line, name="ref")
        fast = FastCache(size_bytes, assoc, line, name="fast")
        for op, addr in ops:
            if op == "access":
                assert ref.access(addr) == fast.access(addr)
            elif op == "probe":
                assert ref.probe(addr) == fast.probe(addr)
            else:
                ref.flush()
                fast.flush()
            assert (ref.stats.hits, ref.stats.misses) == \
                (fast.stats.hits, fast.stats.misses)

    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS, later=_OPS, geometry=st.sampled_from(_CACHE_GEOMETRIES))
    def test_flush_leaves_a_fresh_cache(self, ops, later, geometry):
        fast = FastCache(*geometry, name="fast")
        for op, addr in ops:
            getattr(fast, op)(*(() if op == "flush" else (addr,)))
        fast.flush()
        assert not any(fast._lines)
        fresh = FastCache(*geometry, name="fresh")
        hits, misses = fast.stats.hits, fast.stats.misses
        for op, addr in later:
            args = () if op == "flush" else (addr,)
            assert getattr(fast, op)(*args) == getattr(fresh, op)(*args)
        assert (fast.stats.hits - hits, fast.stats.misses - misses) == \
            (fresh.stats.hits, fresh.stats.misses)

    def test_reset_stats(self):
        fast = FastCache(16384, 4, 128)
        fast.access(0)
        fast.reset_stats()
        assert fast.stats.accesses == 0
        assert fast.probe(0)          # residency survives a stats reset

    @pytest.mark.parametrize("entries,assoc", [(32, 4), (32, 0), (48, 4)])
    def test_a_tlb_is_a_cache_with_one_byte_lines(self, entries, assoc):
        for tlb_cls, cache_cls in ((Tlb, Cache), (FastTlb, FastCache)):
            tlb = tlb_cls(entries, assoc)
            cache = cache_cls(entries, assoc or entries, 1)
            assert isinstance(tlb, cache_cls)
            assert (tlb.num_sets, tlb.assoc, tlb.line_size) == \
                (cache.num_sets, cache.assoc, 1)


_TLB_GEOMETRIES = [(32, 4), (32, 0), (8, 8), (48, 4)]  # 0 = fully assoc
_PAGES = st.integers(0, 255)
_TLB_OPS = st.lists(st.tuples(st.sampled_from(["access", "flush"]), _PAGES),
                    min_size=1, max_size=200)


class TestFastTlbEquivalence:
    """The TLBs through their own constructors (entries, assoc with 0
    for fully associative) rather than as raw one-byte-line caches."""

    @settings(max_examples=60, deadline=None)
    @given(ops=_TLB_OPS, geometry=st.sampled_from(_TLB_GEOMETRIES))
    def test_matches_reference(self, ops, geometry):
        entries, assoc = geometry
        ref = Tlb(entries, assoc, name="ref")
        fast = FastTlb(entries, assoc, name="fast")
        for op, vpage in ops:
            if op == "access":
                assert ref.access(vpage) == fast.access(vpage)
            else:
                ref.flush()
                fast.flush()
            assert (ref.stats.hits, ref.stats.misses) == \
                (fast.stats.hits, fast.stats.misses)

    @settings(max_examples=60, deadline=None)
    @given(ops=_TLB_OPS, later=_TLB_OPS,
           geometry=st.sampled_from(_TLB_GEOMETRIES))
    def test_flush_leaves_a_fresh_tlb(self, ops, later, geometry):
        fast = FastTlb(*geometry, name="fast")
        for op, vpage in ops:
            getattr(fast, op)(*(() if op == "flush" else (vpage,)))
        fast.flush()
        assert not any(fast._lines)
        fresh = FastTlb(*geometry, name="fresh")
        hits, misses = fast.stats.hits, fast.stats.misses
        for op, vpage in later:
            args = () if op == "flush" else (vpage,)
            assert getattr(fast, op)(*args) == getattr(fresh, op)(*args)
        assert (fast.stats.hits - hits, fast.stats.misses - misses) == \
            (fresh.stats.hits, fresh.stats.misses)


# ---------------------------------------------------------------------------
# Fast BCU timing vs the reference
# ---------------------------------------------------------------------------


class TestFastBcuEquivalence:
    """A cold type-2 check stalls ``l2_latency`` minus the LSU hiding
    window, which a Dcache miss widens by 20 and a TLB miss by 100; the
    latencies the figures use (at most 5) never reach past a widened
    window, so sweep ``l2_latency`` across every window edge."""

    @pytest.mark.parametrize("num_transactions", [1, 4])
    @pytest.mark.parametrize("dcache_hit", [True, False])
    @pytest.mark.parametrize("tlb_miss", [False, True])
    def test_cold_check_stall_matches_reference(self, num_transactions,
                                                dcache_hit, tlb_miss):
        cipher = IdCipher(0xFEED)
        ctx = KernelSecurityContext(
            kernel_id=1, cipher=cipher,
            rbt_read_entry=lambda buffer_id: Bounds(base_addr=0x2000,
                                                    size=1024))
        pointer = make_base_pointer(0x2000, cipher.encrypt(7))
        for l2_latency in range(1, 130):
            outcomes = []
            for cls in (BoundsCheckingUnit, FastBoundsCheckingUnit):
                bcu = cls(BCUConfig(l2_latency=l2_latency))
                out = bcu.check(ctx, pointer, 0x2000, 0x20ff,
                                is_store=False,
                                num_transactions=num_transactions,
                                dcache_hit=dcache_hit, tlb_miss=tlb_miss)
                outcomes.append((out.allowed, out.stall_cycles,
                                 out.check_latency, out.rbt_fill,
                                 bcu.stats.stall_cycles))
            assert outcomes[0] == outcomes[1], l2_latency


# ---------------------------------------------------------------------------
# Compiled ALU lane kernels vs the reference element functions
# ---------------------------------------------------------------------------

_WS = 8
#: Lane values of the types whose ``int()`` coercion or result type a
#: C-level kernel could get wrong (``True & True`` is ``True``).  Each
#: example draws all-bool lanes, integral lanes, or floats mixed in.
_INTEGRAL = st.one_of(st.integers(-(1 << 40), 1 << 40), st.booleans())
_LANE = st.one_of(_INTEGRAL, st.floats(-1e6, 1e6, allow_nan=False))
_SHIFT = st.one_of(st.integers(0, 63), st.booleans(), st.floats(0, 63))


def _reference_element(op, cmp):
    from repro.gpu.executor import _ALU_FUNCS, _CMP_FUNCS, _UNARY_FUNCS
    if op == "mov":
        return 1, lambda a: a
    if op in _UNARY_FUNCS:
        return 1, _UNARY_FUNCS[op]
    if op in ("mad", "fmad"):
        return 3, lambda a, b, c: a * b + c
    if op == "sel":
        return 3, lambda p, a, b: a if p else b
    if op == "setp":
        return 2, lambda a, b: 1 if _CMP_FUNCS[cmp](a, b) else 0
    return 2, _ALU_FUNCS[op]


def _check_lane_kernel(op, data, domains, shift, seed):
    """Draw operands from one of ``domains`` (``shift`` for a shift
    count), write them into the source registers of a one-op kernel whose
    launch seeds each source register with ``seed``, step once and
    compare every lane with the reference element function.  Returns,
    per register operand, whether the integer-register proof proved it."""
    from repro.isa.instructions import Imm, Instr, Reg
    from repro.isa.program import Kernel

    cmp = data.draw(st.sampled_from(["lt", "le", "eq", "ne", "gt", "ge"])
                    ) if op == "setp" else None
    arity, element = _reference_element(op, cmp)
    domain = data.draw(st.sampled_from(domains))
    srcs, lanes = [], []
    for i in range(arity):
        values = shift if op in ("shl", "shr") and i == 1 else domain
        if data.draw(st.booleans(), label=f"imm{i}"):
            value = data.draw(values)
            srcs.append(Imm(value))
            lanes.append([value] * _WS)
        else:
            srcs.append(Reg(i + 1))
            lanes.append(data.draw(st.lists(values, min_size=_WS,
                                            max_size=_WS)))
    mask = data.draw(st.one_of(
        st.just([True] * _WS),
        st.lists(st.booleans(), min_size=_WS, max_size=_WS)))

    kernel = Kernel("lane", [Instr(op, dst=Reg(0), srcs=tuple(srcs),
                                   cmp=cmp), Instr("exit")], num_regs=4)
    executor = FastExecutor(kernel, workgroups=1, wg_size=_WS,
                            warp_size=_WS,
                            initial_regs={i + 1: seed for i in range(arity)},
                            fuse=False)
    warp = executor.make_warp(0, 0, 0)
    for src, values in zip(srcs, lanes):
        if isinstance(src, Reg):
            warp.regs[src.index] = list(values)
    warp.mask = list(mask)
    executor.step(warp)

    want = [element(*(v[l] for v in lanes)) if mask[l] else 0
            for l in range(_WS)]
    got = warp.regs[0]
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]
    return [src.index in executor._ints for src in srcs
            if isinstance(src, Reg)]


class TestLaneKernels:
    """Every compiled ALU op, over full and divergent masks and register
    and immediate operands, writes per lane exactly the value *and type*
    the reference element function produces."""

    @pytest.mark.parametrize("op", sorted(_ALU_OPS))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_reference_elements(self, op, data):
        # Bools and floats written straight into registers are values no
        # launch of a proven register can hold, so a non-int launch value
        # seeds every source register: the proof leaves them unproven and
        # the closures keep the reference's int() coercion.
        proven = _check_lane_kernel(
            op, data, [st.booleans(), _INTEGRAL, _LANE], _SHIFT, seed=0.5)
        assert not any(proven)

    @pytest.mark.parametrize("op", sorted(_ALU_OPS))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_proven_int_operands_match_reference_elements(self, op, data):
        # Exact ints only: every source register is proven, so the
        # closures take the coercion-free path.
        proven = _check_lane_kernel(
            op, data, [st.integers(-(1 << 40), 1 << 40)],
            st.integers(0, 63), seed=0)
        assert all(proven)


# ---------------------------------------------------------------------------
# Differential: the fuzz corpus, digest-for-digest
# ---------------------------------------------------------------------------


def _campaign_digest(seed, cases, engine_name):
    from repro.fuzz.campaign import run_campaign
    from repro.fuzz.generator import CaseGenerator
    from repro.fuzz.parallel import campaign_digest
    from repro.gpu.config import nvidia_config

    specs = CaseGenerator(seed).draw_many(cases)
    with engine(engine_name):
        result = run_campaign(specs, seed=seed,
                              config=nvidia_config(num_cores=1))
    assert not result.failures
    return campaign_digest(result)


class TestFuzzCorpusDigests:
    """The campaign digest covers the detection matrix, every per-case
    outcome (violations, aborts) and — since the ``cycles`` field landed
    on :class:`CaseOutcome` — per-config simulated cycle counts.  Equal
    digests therefore mean cycle-identical engines over the corpus."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_slow_and_fast_digests_match(self, seed):
        assert _campaign_digest(seed, 12, "slow") == \
            _campaign_digest(seed, 12, "fast")

    def test_digest_covers_cycles(self):
        from repro.fuzz.campaign import run_campaign
        from repro.fuzz.generator import CaseGenerator
        from repro.fuzz.parallel import campaign_digest
        from repro.gpu.config import nvidia_config

        specs = CaseGenerator(1).draw_many(3)
        result = run_campaign(specs, seed=1,
                              config=nvidia_config(num_cores=1))
        outcome = result.outcomes[0]
        assert outcome.cycles            # per-config cycles recorded
        before = campaign_digest(result)
        key = next(iter(outcome.cycles))
        outcome.cycles[key] += 1
        assert campaign_digest(result) != before


# ---------------------------------------------------------------------------
# Differential: a real workload, record-for-record
# ---------------------------------------------------------------------------


def _sfu_kernel(b):
    out = b.arg_ptr("out")
    g = b.gtid()
    acc = b.mov(g)
    with b.loop(6) as i:
        root = b.fsqrt(acc)
        b.div(b.add(root, i), 3, out=acc)
        b.add(acc, 1, out=acc)
    b.st_idx(out, g, acc, dtype="f32")


def _barrier_kernel(b):
    out = b.arg_ptr("out")
    b.shared_mem(64 * 4)
    t = b.tid()
    g = b.gtid()
    b.st_shared(b.mul(t, 4), g, dtype="i32")
    b.bar()
    mirror = b.sub(b.sub(b.ntid(), t), 1)
    v = b.ld_shared(b.mul(mirror, 4), dtype="i32")
    b.bar()
    b.st_idx(out, g, b.add(b.mul(v, 3), 1), dtype="i32")


def _divergent_kernel(b):
    out = b.arg_ptr("out")
    g = b.gtid()
    r = b.mov(0)
    with b.if_(b.setp("eq", b.and_(g, 1), 1)):
        b.add(r, g, out=r)
        b.else_mark()
        b.sub(r, g, out=r)
    n = b.and_(g, 7)
    i = b.mov(0)
    p = b.setp("lt", i, n)
    with b.while_(p):
        b.mad(i, i, r, out=r)
        b.add(i, 1, out=i)
        b.setp("lt", i, n, out=p)
    b.st_idx(out, g, r, dtype="i32")


def _oob_kernel(b):
    out = b.arg_ptr("out")
    g = b.gtid()
    x = b.mov(g)
    with b.loop(4) as i:
        b.add(x, i, out=x)
    b.st_idx(out, b.add(g, 4096), x, dtype="i32")   # every lane past the end


def _replay_kernel(b):
    """The MEMCHECK call-out's shape: an all-ALU counted loop between a
    load and a store, with a loop of each replayable count around."""
    out = b.arg_ptr("out")
    g = b.gtid()
    acc = b.ld_idx(out, g, dtype="i32")
    with b.loop(16) as i:
        b.add(acc, i, out=acc)
        b.and_(acc, 0xFFFF, out=acc)
    for count in (0, 1, 2):
        with b.loop(count) as i:
            b.xor(acc, i, out=acc)
    b.st_idx(out, g, acc, dtype="i32")


def _replay_predicated_kernel(b):
    """A predicated all-ALU loop body under a divergent ``if`` mask."""
    out = b.arg_ptr("out")
    g = b.gtid()
    acc = b.mov(g)
    p = b.setp("lt", b.and_(g, 7), 5)
    with b.if_(b.setp("eq", b.and_(g, 1), 1)):
        with b.loop(6) as i:
            b.add(acc, i, out=acc, pred=p)
            b.shl(acc, 1, out=acc)
            b.and_(acc, 0xFFFF, out=acc, pred=p)
    b.st_idx(out, g, acc, dtype="i32")


def _replay_nested_kernel(b):
    """An outer loop (its body holds a loop, so it is not replayed)
    around an inner all-ALU loop (replayed)."""
    out = b.arg_ptr("out")
    g = b.gtid()
    acc = b.mov(g)
    with b.loop(3) as j:
        with b.loop(4) as i:
            b.mad(acc, 3, i, out=acc)
            b.and_(acc, 0xFFF, out=acc)
        b.add(acc, j, out=acc)
    b.st_idx(out, g, acc, dtype="i32")


#: Kernels whose ALU runs end at each kind of burst boundary: an SFU op,
#: a barrier, divergent control flow, a store that aborts the kernel and
#: the end of a replayed loop.
_BURST_KERNELS = {
    "sfu": _sfu_kernel,
    "barrier": _barrier_kernel,
    "divergent": _divergent_kernel,
    "oob_precise": _oob_kernel,
    "replay": _replay_kernel,
    "replay_predicated": _replay_predicated_kernel,
    "replay_nested": _replay_nested_kernel,
}


def _burst_launch(engine_name, kernel, alu_latency):
    """One 3x64-thread launch on 2 cores: (LaunchResult, full stats)."""
    from repro import GpuSession, KernelBuilder, ReportPolicy, ShieldConfig
    from repro.gpu.config import nvidia_config

    b = KernelBuilder(kernel)
    _BURST_KERNELS[kernel](b)
    policy = (ReportPolicy.PRECISE if kernel == "oob_precise"
              else ReportPolicy.LOG)
    with engine(engine_name):
        session = GpuSession(
            nvidia_config(num_cores=2, alu_latency=alu_latency),
            shield=ShieldConfig(enabled=True, policy=policy))
        out = session.driver.malloc(3 * 64 * 4, name="out")
        launch = session.driver.launch(b.build(), {"out": out}, 3, 64)
        result = session.gpu.run(launch)
    return asdict(result), session.gpu.stats.snapshot().as_dict()


class TestWorkloadEquivalence:
    def _record(self, engine_name, tool):
        from repro.analysis.harness import default_shield, run_workload
        from repro.baselines.memcheck import MemcheckRunner
        from repro.gpu.config import nvidia_config
        from repro.workloads.suite import get_benchmark

        config = nvidia_config(num_cores=2)
        with engine(engine_name):
            if tool == "memcheck":
                # Instrumented loop/endloop check routines: the issue
                # bursts' longest runs (a small benchmark keeps the
                # reference engine's 64-iteration loops cheap).
                runner = MemcheckRunner(get_benchmark("transpose").build(),
                                        config, seed=11)
                try:
                    return runner.run()
                finally:
                    runner.runner.close()
            return run_workload(
                get_benchmark("mm").build(), config=config,
                shield=default_shield() if tool == "shield" else None,
                config_name="eq", seed=11)

    @pytest.mark.parametrize("tool", ["shield", "base", "memcheck"])
    def test_full_record_identical(self, tool):
        slow = self._record("slow", tool)
        fast = self._record("fast", tool)
        assert asdict(slow) == asdict(fast)
        assert fast.cycles > 0

    @pytest.mark.parametrize("alu_latency", [0, 1, 2, 5])
    @pytest.mark.parametrize("kernel", sorted(_BURST_KERNELS))
    def test_launch_identical_at_burst_boundary(self, kernel, alu_latency):
        """Bursts fuse only at ``alu_latency <= 1``; at every latency the
        fast engine must schedule exactly as the reference does."""
        slow = _burst_launch("slow", kernel, alu_latency)
        fast = _burst_launch("fast", kernel, alu_latency)
        assert slow == fast
        result, _snapshot = fast
        assert result["instructions"] > 0
        assert result["aborted"] == (kernel == "oob_precise")

    @pytest.mark.parametrize("alu_latency", [1, 2])
    def test_bursts_fuse_only_at_latency_one(self, monkeypatch, alu_latency):
        calls = {"issue": 0, "step": 0}
        executors = set()
        issue, step = FastExecutor.issue, FastExecutor.step

        def counting_issue(executor, warp):
            calls["issue"] += 1
            executors.add(executor)
            return issue(executor, warp)

        def counting_step(executor, warp):
            calls["step"] += 1
            return step(executor, warp)

        monkeypatch.setattr(FastExecutor, "issue", counting_issue)
        monkeypatch.setattr(FastExecutor, "step", counting_step)
        for kernel in ("divergent", "replay", "replay_predicated",
                       "replay_nested"):
            calls.update(issue=0, step=0)
            executors.clear()
            result, _snapshot = _burst_launch("fast", kernel, alu_latency)
            # A step is one instruction plus those its loop replay retired.
            replayed = sum(executor.replayed for executor in executors)
            assert calls["step"] + replayed == result["instructions"]
            if alu_latency == 1:
                assert calls["issue"] < result["instructions"] / 4
                assert (replayed > 0) == kernel.startswith("replay")
            else:
                # No fusing, so no replay: one issue, one step, one
                # instruction.
                assert replayed == 0
                assert calls["issue"] == result["instructions"]

    def test_burst_ended_by_a_raising_op_accounts_like_the_reference(self):
        """A negative shift count raises mid-burst; the instructions the
        burst retired before it still reach every counter."""
        from repro import GpuSession, KernelBuilder
        from repro.gpu.config import nvidia_config

        def raising_launch(engine_name):
            b = KernelBuilder("negative_shift")
            x = b.mov(b.gtid())
            with b.loop(4) as i:
                b.add(x, i, out=x)
            b.shl(x, -1, out=x)
            with engine(engine_name):
                session = GpuSession(nvidia_config(num_cores=2))
                launch = session.driver.launch(b.build(), {}, 2, 64)
                with pytest.raises(ValueError, match="negative shift"):
                    session.gpu.run(launch)
            return session.gpu.stats.snapshot().as_dict()

        slow = raising_launch("slow")
        assert raising_launch("fast") == slow
        assert slow["cores.0.issue.instructions"] > 0


# ---------------------------------------------------------------------------
# The compile cache: one program per (kernel object, warp size)
# ---------------------------------------------------------------------------


def _geometry_kernel():
    """Reads every launch-dependent special, mallocs and diverges."""
    from repro import KernelBuilder

    b = KernelBuilder("geometry")
    out = b.arg_ptr("out")
    g = b.gtid()
    v = b.add(b.mul(b.ntid(), 1000), b.mul(b.nctaid(), 100))
    b.add(v, b.ctaid(), out=v)
    with b.if_(b.setp("eq", b.and_(g, 1), 1)):
        b.add(v, b.tid(), out=v)
        b.else_mark()
        b.sub(v, b.lane(), out=v)
    with b.if_(b.setp("eq", b.tid(), 0)):
        hp = b.malloc(64)
        b.st(hp, 0, v, dtype="i32")
        b.add(v, b.ld(hp, 0, dtype="i32"), out=v)
    b.st_idx(out, g, v, dtype="i32")
    return b.build()


def _geometry_runs(engine_name, kernel, config):
    """Launch ``kernel`` twice at different geometries in one intra-core
    run, then once more on its own: every LaunchResult and the output
    buffers."""
    from repro import GpuSession

    with engine(engine_name):
        session = GpuSession(config)
        driver = session.driver
        launches, bufs = [], []
        for workgroups, wg_size in ((3, 64), (2, 32), (4, 32)):
            buf = driver.malloc(workgroups * wg_size * 4)
            bufs.append(buf)
            launches.append(driver.launch(kernel, {"out": buf},
                                          workgroups, wg_size))
        pair = session.gpu.run(launches[:2], mode="intra_core")
        single = session.gpu.run(launches[2])
    memory = [driver.read(buf, buf.size) for buf in bufs]
    return [asdict(pair), asdict(single)], memory


class TestCompileCache:
    @pytest.mark.parametrize("alu_latency", [1, 2])
    @pytest.mark.parametrize("factory,lanes", [("nvidia_config", 32),
                                               ("intel_config", 8)])
    def test_shared_program_matches_reference(self, monkeypatch, factory,
                                              lanes, alu_latency):
        from repro.gpu import config as gpu_config

        config = getattr(gpu_config, factory)(num_cores=2,
                                              alu_latency=alu_latency)
        assert config.warp_size == lanes
        kernel = _geometry_kernel()
        slow = _geometry_runs("slow", kernel, config)

        compiled = []
        compile_ = FastExecutor._compile

        def counting_compile(executor, instr, pc):
            compiled.append(pc)
            return compile_(executor, instr, pc)

        monkeypatch.setattr(FastExecutor, "_compile", counting_compile)
        fast = _geometry_runs("fast", kernel, config)
        assert fast == slow
        # Three launches of one kernel object: compiled exactly once.
        assert compiled == list(range(len(kernel.instructions)))
        (pair, single), _memory = fast
        assert pair["divergent_branches"] > 0
        assert single["divergent_branches"] > 0

        # A further launch, on a fresh session, compiles nothing.
        del compiled[:]
        assert _geometry_runs("fast", kernel, config) == slow
        assert compiled == []

    def test_equal_kernels_with_distinct_immediates_compile_apart(self):
        from repro.isa.instructions import Imm, Instr, Reg
        from repro.isa.program import Kernel

        def kernel(value):
            return Kernel("imm", [Instr("mov", dst=Reg(0), srcs=(Imm(value),)),
                                  Instr("exit")], num_regs=1)

        as_int, as_float = kernel(1), kernel(1.0)
        # Structurally equal, so an equality-keyed cache would conflate them.
        assert as_int == as_float
        assert Imm(1) == Imm(1.0) and hash(Imm(1)) == hash(Imm(1.0))
        values = []
        for k in (as_int, as_float):
            executor = FastExecutor(k, workgroups=1, wg_size=_WS,
                                    warp_size=_WS, initial_regs={},
                                    fuse=False)
            warp = executor.make_warp(0, 0, 0)
            executor.step(warp)
            values.append(warp.regs[0])
        assert values == [[1] * _WS, [1.0] * _WS]
        assert [type(v[0]) for v in values] == [int, float]

    def test_program_dies_with_its_kernel(self):
        import gc

        from repro.gpu import fastpath

        kernel = _geometry_kernel()
        FastExecutor(kernel, workgroups=1, wg_size=32, warp_size=32,
                     initial_regs={}, fuse=True)
        assert id(kernel) in fastpath._PROGRAMS
        key = id(kernel)
        del kernel
        gc.collect()
        assert key not in fastpath._PROGRAMS


# ---------------------------------------------------------------------------
# The integer-register proof
# ---------------------------------------------------------------------------


def _proof(instrs, num_regs, non_int_args=()):
    """``_int_registers`` of a hand-built kernel ending in ``exit``."""
    from repro.gpu.fastpath import _int_registers
    from repro.isa.instructions import Instr
    from repro.isa.program import Kernel

    kernel = Kernel("proof", list(instrs) + [Instr("exit")],
                    num_regs=num_regs)
    return _int_registers(kernel, frozenset(non_int_args))


class TestIntRegisters:
    """Pinned verdicts of the integer-register proof, its launch key,
    and a differential over random kernels that mix int and float
    producers."""

    def test_fdiv_result_and_its_consumers_are_unproven(self):
        from repro.isa.instructions import Imm, Instr, Reg, Special
        gtid = Special("gtid")
        proven = _proof([
            Instr("fdiv", dst=Reg(1), srcs=(gtid, Imm(2))),
            Instr("add", dst=Reg(2), srcs=(Reg(1), Imm(1))),
            Instr("and", dst=Reg(3), srcs=(Reg(1), Imm(3))),   # int()s it
            Instr("div", dst=Reg(4), srcs=(gtid, Imm(2))),     # int // int
        ], num_regs=5)
        assert proven == {0, 3, 4}

    def test_only_integer_loads_are_proven(self):
        from repro.isa.instructions import Imm, Instr, Reg
        proven = _proof([
            Instr("ld", dst=Reg(1), srcs=(Reg(0), Imm(0)), space="global",
                  dtype="f32"),
            Instr("ld", dst=Reg(2), srcs=(Reg(0), Imm(0)), space="global",
                  dtype="u64"),
            Instr("ld", dst=Reg(3), srcs=(Reg(0), Imm(0)), space="shared",
                  dtype="i32"),
        ], num_regs=4)
        assert proven == {0, 2, 3}

    def test_only_exact_int_immediates_are_proven(self):
        from repro.isa.instructions import Imm, Instr, Reg
        proven = _proof([
            Instr("mov", dst=Reg(0), srcs=(Imm(True),)),
            Instr("mov", dst=Reg(1), srcs=(Imm(2.5),)),
            Instr("mov", dst=Reg(2), srcs=(Imm(7),)),
            Instr("add", dst=Reg(3), srcs=(Reg(2), Imm(1.0))),
        ], num_regs=4)
        assert proven == {2}

    def test_sel_needs_both_values_not_its_predicate(self):
        from repro.isa.instructions import Imm, Instr, Reg
        proven = _proof([
            Instr("fadd", dst=Reg(1), srcs=(Reg(0), Imm(0.5))),
            Instr("sel", dst=Reg(2), srcs=(Reg(0), Imm(1), Reg(1))),
            Instr("sel", dst=Reg(3), srcs=(Reg(1), Imm(1), Reg(0))),
        ], num_regs=4)
        assert proven == {0, 3}

    def test_malloc_and_unlisted_writers_are_unproven(self):
        from repro.isa.instructions import Imm, Instr, Reg
        proven = _proof([
            Instr("malloc", dst=Reg(1), srcs=(Imm(64),)),
            Instr("fsqrt", dst=Reg(2), srcs=(Reg(0),)),
            Instr("mov", dst=Reg(3), srcs=(Reg(1),)),
        ], num_regs=4)
        assert proven == {0}

    def test_self_referential_loop_is_a_greatest_fixed_point(self):
        """``r = (r + i) & m`` and ``s = s + i`` prove themselves; one
        float write into the cycle drops every register it reaches."""
        from repro.isa.instructions import Imm, Instr, Reg
        loop = [
            Instr("loop", dst=Reg(9), srcs=(Imm(4),)),
            Instr("add", dst=Reg(1), srcs=(Reg(1), Reg(9))),
            Instr("and", dst=Reg(1), srcs=(Reg(1), Imm(255))),
            Instr("add", dst=Reg(2), srcs=(Reg(2), Reg(9))),
            Instr("add", dst=Reg(3), srcs=(Reg(3), Reg(4))),
            Instr("mov", dst=Reg(5), srcs=(Reg(3),)),
            Instr("endloop", dst=Reg(9)),
        ]
        assert _proof(loop, num_regs=10) == set(range(10))
        floated = loop[:-1] + [Instr("fdiv", dst=Reg(4),
                                     srcs=(Reg(2), Imm(3))), loop[-1]]
        assert _proof(floated, num_regs=10) == {0, 1, 2, 6, 7, 8, 9}

    def test_non_int_argument_keys_a_second_program(self):
        from repro.gpu import fastpath
        from repro.isa.instructions import Imm, Instr, Reg
        from repro.isa.program import Kernel, KernelParam

        kernel = Kernel("scalar", [
            Instr("add", dst=Reg(1), srcs=(Reg(0), Imm(1))),
            Instr("and", dst=Reg(2), srcs=(Reg(1), Imm(7))),
            Instr("exit"),
        ], num_regs=3, params=[KernelParam("s", "scalar")],
            arg_regs={"s": 0})
        regs = []
        for value in (3, 2.5):
            executor = FastExecutor(kernel, workgroups=1, wg_size=_WS,
                                    warp_size=_WS, initial_regs={0: value},
                                    fuse=True)
            warp = executor.make_warp(0, 0, 0)
            while executor.issue(warp)[0] != "exit":
                pass
            regs.append(warp.regs)
        assert regs[0][1:] == [[4] * _WS, [4] * _WS]
        assert regs[1][1:] == [[3.5] * _WS, [3] * _WS]
        assert type(regs[1][2][0]) is int
        programs = fastpath._PROGRAMS[id(kernel)][1]
        assert set(programs) == {(_WS, frozenset()),
                                 (_WS, frozenset({0}))}

    @settings(max_examples=150, deadline=None)
    @given(spec=st.data())
    def test_random_kernels_match_reference(self, spec):
        from repro.gpu.fastpath import _int_registers

        kernel, scalar = _mixed_kernel(spec)
        slow = _mixed_launch("slow", kernel, scalar)
        fast = _mixed_launch("fast", kernel, scalar)
        assert slow == fast
        # The proof is sound on what the run left: proven means int.
        proven = _int_registers(kernel, frozenset(
            () if type(scalar) is int else (1,)))
        for regs in fast[1]:
            for index in proven:
                assert all(t is int for t, _v in regs[index]), index


#: Operands of the random mixed kernels: general registers, the loop
#: induction register, a special and immediates of each type.
_MIXED_REGS = list(range(1, 8))


def _mixed_kernel(data):
    """A random kernel over ``buf`` (r0) and scalar ``s`` (r1) whose
    registers r2-r7 mix int producers (integer ALU, i32/u64 loads, int
    immediates) and float producers (``fdiv``, ``fsqrt``, f32 loads,
    float immediates), optionally under a predicate and inside a loop.
    Addresses stay inside ``buf``: every memory op indexes it with
    ``(x & 15) << 2``."""
    from repro.isa.instructions import Imm, Instr, Reg, Special
    from repro.isa.program import Kernel, KernelParam

    draw = data.draw
    addr, iv, pred = Reg(8), Reg(9), Reg(10)

    def operand():
        kind = draw(st.sampled_from(["reg", "reg", "special", "imm"]))
        if kind == "reg":
            return Reg(draw(st.sampled_from(_MIXED_REGS + [9])))
        if kind == "special":
            return Special(draw(st.sampled_from(["gtid", "lane"])))
        return Imm(draw(st.one_of(st.integers(-9, 9), st.booleans(),
                                  st.sampled_from([0.5, 2.5, -1.25]))))

    def statement():
        dst = Reg(draw(st.sampled_from(_MIXED_REGS[1:])))
        p = pred if draw(st.integers(0, 3)) == 0 else None
        kind = draw(st.sampled_from([
            "add", "sub", "min", "max", "fadd", "fmul", "mov", "sel",
            "and", "xor", "shl", "setp", "not", "mad", "fdiv", "fsqrt",
            "abs", "ld", "ld", "ld", "st"]))
        if kind in ("ld", "st"):
            dtype = draw(st.sampled_from(["i32", "u32", "f32", "u64"]))
            index = [Instr("and", dst=addr, srcs=(operand(), Imm(15))),
                     Instr("shl", dst=addr, srcs=(addr, Imm(2)))]
            if kind == "ld":
                return index + [Instr("ld", dst=dst, srcs=(Reg(0), addr),
                                      pred=p, space="global", dtype=dtype)]
            return index + [Instr("st", srcs=(Reg(0), addr, operand()),
                                  pred=p, space="global", dtype=dtype)]
        if kind == "shl":
            srcs = (operand(), Imm(draw(st.integers(0, 3))))
        elif kind == "mad":
            srcs = (operand(), Imm(draw(st.integers(-3, 3))), operand())
        elif kind == "fmul":
            srcs = (operand(), Imm(draw(st.sampled_from([0.5, 2, -1]))))
        elif kind in ("mov", "not", "fsqrt", "abs"):
            srcs = (operand(),)
        elif kind == "sel":
            srcs = (operand(), operand(), operand())
        else:
            srcs = (operand(), operand())
        return [Instr(kind, dst=dst, srcs=srcs, pred=p,
                      cmp="lt" if kind == "setp" else None)]

    body = [Instr("setp", dst=pred, srcs=(Special("lane"),
                                          Imm(draw(st.integers(0, 40)))),
                  cmp="lt")]
    statements = [statement() for _ in range(draw(st.integers(1, 8)))]
    lo = draw(st.integers(0, len(statements)))
    hi = draw(st.integers(lo, len(statements)))
    for i, stmt in enumerate(statements):
        if i == lo and hi > lo:
            body.append(Instr("loop", dst=iv,
                              srcs=(Imm(draw(st.integers(0, 3))),)))
        body.extend(stmt)
        if i == hi - 1 and hi > lo:
            body.append(Instr("endloop", dst=iv))
    body.append(Instr("exit"))
    kernel = Kernel("mixed", body, num_regs=11,
                    params=[KernelParam("buf", "buffer"),
                            KernelParam("s", "scalar")],
                    arg_regs={"buf": 0, "s": 1})
    scalar = draw(st.sampled_from([3, 2.5, True]))
    return kernel, scalar


def _mixed_launch(engine_name, kernel, scalar):
    """Launch ``kernel`` (2 warps of 32, shielded): the launch outcome,
    every warp's final ``(type, value)`` lanes and ``buf``'s bytes."""
    from unittest import mock

    from repro import GpuSession, ShieldConfig
    from repro.gpu.config import nvidia_config
    from repro.gpu.executor import Executor

    warps = []
    make_workgroup = Executor.make_workgroup

    def recording(executor, wg, base_warp_id):
        made = make_workgroup(executor, wg, base_warp_id)
        warps.extend(made)
        return made

    with engine(engine_name), mock.patch.object(Executor, "make_workgroup",
                                                recording):
        session = GpuSession(nvidia_config(num_cores=1),
                             shield=ShieldConfig(enabled=True))
        buf = session.driver.malloc(128, name="buf")
        session.driver.write(buf, bytes(range(7, 135)))
        launch = session.driver.launch(kernel, {"buf": buf, "s": scalar},
                                       1, 64)
        try:
            outcome = asdict(session.gpu.run(launch))
        except (ArithmeticError, ValueError, TypeError) as exc:
            outcome = (type(exc).__name__, str(exc))
    regs = [[[(type(v), v) for v in reg] for reg in warp.regs]
            for warp in warps]
    return outcome, regs, session.driver.read(buf, 128)


# ---------------------------------------------------------------------------
# Loop replay
# ---------------------------------------------------------------------------


def _issue_to_end(executor, warp):
    """Issue ``warp`` until it exits or an op raises: ``(instructions
    retired, the exception or None)``.  Memory outcomes are dropped, so
    only ALU/control kernels belong here."""
    retired = 0
    try:
        while True:
            kind, _payload = executor.issue(warp)
            retired += executor.burst + 1
            if kind == "exit":
                return retired, None
    except ValueError as exc:
        return retired + executor.burst, str(exc)


def _loop_state(executor_cls, instrs, mask=None, **options):
    """Run one warp of a hand-built kernel to its end: everything the
    reference leaves observable, plus the executor (for ``replayed``)."""
    from repro.isa.instructions import Instr
    from repro.isa.program import Kernel

    kernel = Kernel("replay", list(instrs) + [Instr("exit")], num_regs=6)
    executor = executor_cls(kernel, workgroups=1, wg_size=_WS,
                            warp_size=_WS, initial_regs={}, **options)
    warp = executor.make_warp(0, 0, 0)
    if mask is not None:
        warp.mask = list(mask)
    retired, error = _issue_to_end(executor, warp)
    state = (retired, error, warp.pc, warp.stack, warp.finished,
             executor.instructions_executed,
             [[(type(v), v) for v in reg] for reg in warp.regs])
    return state, executor


class TestLoopReplay:
    """An all-ALU counted loop retires in the one step that reaches its
    ``endloop``, leaving every observable where the reference's
    instruction-by-instruction steps leave it."""

    def _compare(self, instrs, mask=None):
        from repro.gpu.executor import Executor
        slow, _ = _loop_state(Executor, instrs, mask)
        fast, executor = _loop_state(FastExecutor, instrs, mask, fuse=True)
        assert fast == slow
        unfused, plain = _loop_state(FastExecutor, instrs, mask, fuse=False)
        assert unfused == slow and plain.replayed == 0
        return slow, executor

    def _shift_loop(self, count):
        """``x = gtid; loop i < count { t = 2 - i; x = x << t; x &= m }``
        — the shift count goes negative at ``i == 3``."""
        from repro.isa.instructions import Imm, Instr, Reg, Special
        return [
            Instr("mov", dst=Reg(1), srcs=(Special("gtid"),)),
            Instr("loop", dst=Reg(2), srcs=(Imm(count),)),
            Instr("sub", dst=Reg(3), srcs=(Imm(2), Reg(2))),
            Instr("shl", dst=Reg(1), srcs=(Reg(1), Reg(3))),
            Instr("and", dst=Reg(1), srcs=(Reg(1), Imm(0xFFFF))),
            Instr("endloop", dst=Reg(2)),
        ]

    def test_body_op_raising_mid_replay_leaves_reference_state(self):
        (retired, error, pc, stack, *_rest), executor = self._compare(
            self._shift_loop(4))
        assert error == "negative shift count"
        # Faulted in iteration 3 on the shl, with the loop entry live.
        assert pc == 3 and stack == [["loop", 2, 4, 4]]
        assert executor.replayed == 2 * 4 + 2   # iterations 1, 2 + sub, shl
        assert retired == 2 + 3 * 4 + 1   # mov, loop, 3 iterations, sub

    @pytest.mark.parametrize("count", [0, 1, 2, 3])
    def test_counts_replay_what_remains(self, count):
        state, executor = self._compare(self._shift_loop(count))
        assert state[1] is None
        # The first iteration runs before the endloop; replay the rest.
        assert executor.replayed == max(count - 1, 0) * 4

    def test_predicated_body_under_a_divergent_mask(self):
        from repro.isa.instructions import Imm, Instr, Reg, Special
        instrs = [
            Instr("setp", dst=Reg(4), srcs=(Special("lane"), Imm(5)),
                  cmp="lt"),
            Instr("mov", dst=Reg(1), srcs=(Special("gtid"),)),
            Instr("loop", dst=Reg(2), srcs=(Imm(5),)),
            Instr("add", dst=Reg(1), srcs=(Reg(1), Reg(2)), pred=Reg(4)),
            Instr("xor", dst=Reg(1), srcs=(Reg(1), Imm(3)), pred=Reg(4),
                  pred_invert=True),
            Instr("endloop", dst=Reg(2)),
        ]
        _state, executor = self._compare(
            instrs, mask=[l % 3 != 0 for l in range(_WS)])
        assert executor.replayed == 4 * 3

    def test_only_the_inner_of_two_nested_loops_replays(self):
        from repro.isa.instructions import Imm, Instr, Reg
        instrs = [
            Instr("loop", dst=Reg(3), srcs=(Imm(3),)),
            Instr("loop", dst=Reg(2), srcs=(Imm(4),)),
            Instr("add", dst=Reg(1), srcs=(Reg(1), Reg(2))),
            Instr("endloop", dst=Reg(2)),
            Instr("add", dst=Reg(1), srcs=(Reg(1), Reg(3))),
            Instr("endloop", dst=Reg(3)),
        ]
        _state, executor = self._compare(instrs)
        names = [run.__qualname__.split(".")[1] for run in executor._program]
        assert names[3] == "_replay_endloop"
        assert names[5] == "_compile_ctrl"
        # Each of the 3 outer iterations replays 3 inner iterations.
        assert executor.replayed == 3 * 3 * 2

    def test_sfu_body_is_not_replayed(self):
        from repro.isa.instructions import Imm, Instr, Reg
        instrs = [
            Instr("loop", dst=Reg(2), srcs=(Imm(4),)),
            Instr("div", dst=Reg(1), srcs=(Reg(2), Imm(2))),
            Instr("endloop", dst=Reg(2)),
        ]
        _state, executor = self._compare(instrs)
        assert executor.replayed == 0

    def test_raising_replay_accounts_like_the_reference(self):
        """The launch-level twin of the first test: a shift count that
        goes negative in iteration 3 of a replayed loop."""
        from repro import GpuSession, KernelBuilder
        from repro.gpu.config import nvidia_config

        def raising_launch(engine_name):
            b = KernelBuilder("replay_raises")
            x = b.mov(b.gtid())
            with b.loop(4) as i:
                b.shl(x, b.sub(2, i), out=x)
                b.and_(x, 0xFFFF, out=x)
            with engine(engine_name):
                session = GpuSession(nvidia_config(num_cores=2))
                launch = session.driver.launch(b.build(), {}, 2, 64)
                with pytest.raises(ValueError, match="negative shift"):
                    session.gpu.run(launch)
            return session.gpu.stats.snapshot().as_dict()

        slow = raising_launch("slow")
        assert raising_launch("fast") == slow
        assert slow["cores.0.issue.instructions"] > 0


# ---------------------------------------------------------------------------
# Differential: stage-level tracer streams, field-for-field
# ---------------------------------------------------------------------------


class TestTracerParity:
    """With stage-level tracing on, the fast engine delegates traced
    accesses to the reference pipeline bound over its own structures —
    so both engines must emit *identical* event streams, not merely
    identical end-of-run digests.  Held here over 20 fuzz seeds plus a
    template workload, field for field on the wire form."""

    SEEDS = list(range(1, 21))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fuzz_stage_streams_identical(self, seed):
        from repro.oracle import capture
        slow = capture(f"fuzz:{seed}", engine="slow", stage_level=True)
        fast = capture(f"fuzz:{seed}", engine="fast", stage_level=True)
        assert slow.wire_events() == fast.wire_events()
        assert slow.violations == fast.violations
        assert slow.stats == fast.stats
        assert slow.cycles == fast.cycles
        assert slow.content_hash() == fast.content_hash()

    def test_template_stage_streams_identical(self):
        from repro.oracle import capture
        slow = capture("tpl:stencil", engine="slow", stage_level=True)
        fast = capture("tpl:stencil", engine="fast", stage_level=True)
        assert slow.wire_events() == fast.wire_events()

    def test_access_only_streams_identical(self):
        # A plain (access-only) tracer is an observer too, so the fast
        # engine delegates to the reference pipeline; both engines'
        # access-event streams must match exactly.
        from repro.oracle import capture
        slow = capture("fuzz:9", engine="slow", stage_level=False)
        fast = capture("fuzz:9", engine="fast", stage_level=False)
        assert slow.wire_events() == fast.wire_events()
        assert slow.content_hash() == fast.content_hash()


# ---------------------------------------------------------------------------
# Delegation rule: the fast lane leaves its inlined path iff observed
# ---------------------------------------------------------------------------


def _observer_kinds():
    from repro.analysis.trace import MemoryTracer
    from repro.gpu.observer import Observer
    from repro.profiler import Profiler
    from repro.racedetect.detector import RaceDetector
    return {
        "base": Observer,
        "tracer": MemoryTracer,
        "stage_tracer": lambda: MemoryTracer(stage_level=True),
        "racedetect": RaceDetector,
        "profiler": Profiler,
    }


class TestDelegationRule:
    """With no observer the fast engine must never enter the reference
    ``MemoryPipeline.access`` (or every run would silently pay the
    reference cost); with any one observer every global-space access
    must go through it, so the observer sees all of them."""

    def _run_vecadd(self, monkeypatch, *observers):
        from repro import GpuSession, nvidia_config
        from repro.gpu.pipeline import MemoryPipeline
        from tests.conftest import build_vecadd
        spaces = []
        reference = MemoryPipeline.access

        def spy(pipeline, warp, job, request, cycle):
            spaces.append(request.space)
            return reference(pipeline, warp, job, request, cycle)

        monkeypatch.setattr(MemoryPipeline, "access", spy)
        with engine("fast"):
            session = GpuSession(nvidia_config(num_cores=2))
            session.gpu.observe(*observers)
            n = 128
            bufs = {name: session.driver.malloc(n * 4) for name in "abc"}
            result, _ = session.run(build_vecadd(), dict(bufs, n=n), 2, 64)
        assert result.mem_instructions == 12
        return spaces, result

    def test_unobserved_run_never_enters_the_reference_pipeline(
            self, monkeypatch):
        spaces, _ = self._run_vecadd(monkeypatch)
        assert spaces == []

    @pytest.mark.parametrize("kind", ["base", "tracer", "stage_tracer",
                                      "racedetect", "profiler"])
    def test_any_observer_sees_every_global_access(self, monkeypatch, kind):
        observer = _observer_kinds()[kind]()
        seen = []
        hook = observer.on_access

        def counting(pipeline, warp, job, request, result, marks):
            seen.append(request.space)
            hook(pipeline, warp, job, request, result, marks)

        observer.on_access = counting
        spaces, result = self._run_vecadd(monkeypatch, observer)
        assert spaces == ["global"] * result.mem_instructions
        assert seen == spaces


# ---------------------------------------------------------------------------
# Affine warp requests: closed form vs per-lane, one request at a time
# ---------------------------------------------------------------------------


#: 64 KiB physical-memory chunk and the 128 B line both configs use.
_CHUNK = 1 << 16
_LINE = 128
#: Runs start around here: a chunk boundary inside the mapped range.
_BASE = 0x200000
#: Every AccessResult field the fast lane fills in.
_RESULT_FIELDS = ("space", "is_store", "cycle", "latency", "stall",
                  "allowed", "transactions", "min_addr", "max_addr",
                  "tlb_l1_hits", "tlb_l2_hits", "page_walks", "l1_hits",
                  "l2_hits", "dram_accesses")


def _lane_pipelines(lanes, prefill_seed):
    """A reference and a fast pipeline on fresh, identical state: 32
    lanes run the Nvidia config, 8 lanes the Intel one (64 KiB pages)."""
    import random
    from repro.core.checker import RecordingChecker
    from repro.gpu.config import intel_config, nvidia_config
    from repro.gpu.dram import Dram
    from repro.gpu.fastpath import FastMemoryPipeline
    from repro.gpu.memory import AddressSpace, PhysicalMemory
    from repro.gpu.pipeline import MemoryPipeline
    cfg = (nvidia_config if lanes == 32 else intel_config)(num_cores=1)
    assert cfg.warp_size == lanes and cfg.line_size == _LINE
    pipes = []
    for pipe_cls in (MemoryPipeline, FastMemoryPipeline):
        memory = PhysicalMemory()
        if prefill_seed is not None:
            # Old bytes on both sides of the chunk boundaries the runs
            # straddle, so a store that writes too much or too little
            # shows up in the memory image.
            memory.write(_BASE - _CHUNK, random.Random(prefill_seed)
                         .randbytes(3 * _CHUNK))
        space = AddressSpace(memory, page_size=cfg.page_size)
        space.map_range(0, 8 << 20)
        dram = Dram(channels=cfg.dram_channels, row_bytes=cfg.dram_row_bytes,
                    line_size=cfg.line_size,
                    row_hit_latency=cfg.dram_row_hit_latency,
                    row_miss_latency=cfg.dram_row_miss_latency,
                    service_interval=cfg.dram_service_interval)
        pipes.append(pipe_cls(
            0, cfg, memory, space,
            pipe_cls.cache_cls(cfg.l2_bytes, cfg.l2_assoc, cfg.line_size,
                               name="l2"),
            pipe_cls.tlb_cls(cfg.l2tlb_entries, cfg.l2tlb_assoc,
                             name="l2tlb"),
            dram, checker=RecordingChecker()))
    return pipes


def _lane_job():
    """A launch without GPUShield metadata whose executor delivers loads
    as the reference executor does."""
    from functools import partial
    from types import SimpleNamespace
    from repro.gpu.executor import Executor
    executor = SimpleNamespace(deliver_load=partial(Executor.deliver_load,
                                                    None))
    return SimpleNamespace(executor=executor,
                           launch=SimpleNamespace(security=None))


def _lane_request(addrs, dtype, is_store, space, values):
    from repro.gpu.executor import MemRequest
    return MemRequest(instr=None, space=space, dtype=dtype, is_store=is_store,
                      lane_addrs=list(addrs), base_pointer=0,
                      store_values=list(values) if is_store else None,
                      dst=None if is_store else 0,
                      active_lanes=[i for i, a in enumerate(addrs)
                                    if a is not None])


def _observe(pipe, addrs, dtype, is_store, space, values):
    """Everything one request leaves behind on ``pipe``."""
    from repro.gpu.executor import WarpState
    warp = WarpState(warp_id=0, wg=0, warp_in_wg=0, num_regs=1,
                     warp_size=len(addrs))
    request = _lane_request(addrs, dtype, is_store, space, values)
    try:
        result = pipe.access(warp, _lane_job(), request, cycle=5)
        outcome = tuple(getattr(result, f) for f in _RESULT_FIELDS)
    except Exception as err:    # the reference's own error, compared below
        outcome = (type(err), str(err))
    memory = pipe.memory
    return {
        "outcome": outcome,
        "regs": [(type(v), repr(v)) for v in warp.regs[0]],
        "memory": memory.snapshot_chunks(),
        "bytes": (memory.bytes_read, memory.bytes_written),
        "checked": pipe.checker.contexts,
        "stats": [vars(c.stats) for c in (
            pipe.l1d, pipe.const_cache, pipe.tex_cache, pipe.l1tlb,
            pipe.l2cache, pipe.l2tlb, pipe.dram)],
    }


_SHAPES = ("contiguous", "stride<=line", "stride>line", "stride0",
           "descending", "irregular")

#: Store values the coercion must agree on: negatives, bools, floats
#: (truncated for ints), i32 values in [2**31, 2**32) that a signed
#: bulk pack rejects, and 64-bit extremes.
_STORE_VALUES = st.one_of(
    st.integers(-8, 8), st.booleans(),
    st.integers(2 ** 31, 2 ** 32 - 1), st.integers(-2 ** 63, 2 ** 64 - 1),
    st.floats(-1e6, 1e6, allow_nan=False))
#: One lane's value that some coercion refuses: above FLT_MAX ('<f'
#: raises), or not finite (``int()`` raises).
_POISON = st.sampled_from([1e39, float("inf"), float("nan")])


@st.composite
def _lane_cases(draw):
    from repro.isa.instructions import DTYPE_SIZE
    lanes = draw(st.sampled_from([8, 32]))
    dtype = draw(st.sampled_from(sorted(DTYPE_SIZE)))
    size = DTYPE_SIZE[dtype]
    # Half the draws are contiguous: the bulk load/store path.
    shape = draw(st.one_of(st.just("contiguous"), st.sampled_from(_SHAPES)))
    stride = {
        "contiguous": size,
        "stride<=line": draw(st.integers(1, _LINE)),
        "stride>line": draw(st.integers(_LINE + 1, 4 * _LINE)),
        "stride0": 0,
        "descending": -draw(st.integers(1, 2 * _LINE)),
        "irregular": None,
    }[shape]
    span = lanes * max(size, abs(stride or 0)) + size
    anchor = draw(st.sampled_from(["chunk", "line", "free"]))
    if anchor == "chunk":       # straddles the chunk boundary, or ends at it
        a0 = _BASE + _CHUNK - draw(st.integers(0, span))
    elif anchor == "line":      # starts just before or on a line boundary
        a0 = _BASE + _LINE * draw(st.integers(1, 64)) \
            - draw(st.integers(0, 2 * size))
    else:
        a0 = _BASE + draw(st.integers(0, 4096))
    if stride is None:
        addrs = [_BASE + draw(st.integers(0, 8192)) for _ in range(lanes)]
    else:
        addrs = [a0 + i * stride for i in range(lanes)]
    if draw(st.integers(0, 3)) == 0:    # partial mask, one lane or more
        mask = draw(st.lists(st.booleans(), min_size=lanes,
                             max_size=lanes).filter(any))
        addrs = [a if on else None for a, on in zip(addrs, mask)]
    is_store = draw(st.booleans())
    space = "global" if is_store else draw(
        st.sampled_from(["global", "const", "texture"]))
    values = draw(st.lists(_STORE_VALUES, min_size=lanes, max_size=lanes))
    if draw(st.integers(0, 3)) == 0:
        # Both engines must raise at the same lane, with the same lanes
        # before it written.
        values[draw(st.integers(0, lanes - 1))] = draw(_POISON)
    prefill = draw(st.one_of(st.none(), st.integers(0, 2 ** 16)))
    return addrs, dtype, is_store, space, values, prefill


class TestAffineRequests:
    """The closed-form coalesce and bulk load/store of a full-warp
    affine request are observationally the per-lane reference."""

    @settings(max_examples=400, deadline=None)
    @given(_lane_cases())
    def test_matches_reference(self, case):
        from repro.gpu.coalescer import CoalescedAccess, coalesce
        from repro.isa.instructions import DTYPE_SIZE
        addrs, dtype, is_store, space, values, prefill = case
        ref, fast = _lane_pipelines(len(addrs), prefill)
        # Fresh caches: every transaction reaches DRAM, in order.
        txs = []
        dram_access = fast._dram_access

        def recording(tx, cycle):
            txs.append(tx)
            return dram_access(tx, cycle)

        fast._dram_access = recording
        want = _observe(ref, addrs, dtype, is_store, space, values)
        got = _observe(fast, addrs, dtype, is_store, space, values)
        assert got == want
        expected = coalesce(addrs, DTYPE_SIZE[dtype], _LINE)
        assert txs == list(expected.transactions)
        assert CoalescedAccess(
            transactions=tuple(txs), min_addr=expected.min_addr,
            max_addr=expected.max_addr,
            active_lanes=expected.active_lanes).tiles_footprint(_LINE)

    @pytest.mark.parametrize("space", ["const", "texture"])
    @pytest.mark.parametrize("shape", ["affine", "partial", "irregular"])
    def test_read_only_caches_match_reference(self, space, shape):
        """Const and texture loads take the same probe loop as global
        ones, through the 32-set constant cache (64 B lines) and the
        24-set texture cache.  Between two rounds of the request, a
        conflict request overflows one set, so which lines survive
        depends on the set index."""
        addrs = {
            "affine": [_BASE + 4 * i for i in range(32)],
            "partial": [_BASE + 8 * i if i % 3 else None for i in range(32)],
            "irregular": [_BASE + (i * 37 % 32) * 520 for i in range(32)],
        }[shape]
        ref, fast = _lane_pipelines(32, 5)
        level1 = ref.const_cache if space == "const" else ref.tex_cache
        set_span = level1.num_sets * level1.line_size
        conflict = [_BASE + k * set_span for k in range(32)]
        for request in (addrs, conflict, addrs, conflict, addrs):
            want = _observe(ref, request, "i32", False, space, [0] * 32)
            assert _observe(fast, request, "i32", False, space,
                            [0] * 32) == want
        assert level1.stats.hits and level1.stats.misses

    def test_overflowing_f32_run_raises_like_the_reference(self):
        addrs = [_BASE + 4 * i for i in range(32)]
        values = [float(i) for i in range(32)]
        values[5] = 1e39
        ref, fast = _lane_pipelines(32, 7)
        want = _observe(ref, addrs, "f32", True, "global", values)
        assert want["outcome"][0] is OverflowError
        assert _observe(fast, addrs, "f32", True, "global", values) == want


class TestAffineBranch:
    """Which lane path the fast pipeline takes, seen from outside."""

    def _branches(self, monkeypatch, addrs, dtype="f32", values=None):
        from repro.gpu import fastpath
        taken = []
        per_lane = fastpath._coalesce_lanes

        def coalesce_spy(*args):
            taken.append("per-lane coalesce")
            return per_lane(*args)

        def spy(name):
            method = getattr(fastpath.FastMemoryPipeline, name)

            def wrapper(self, *args):
                taken.append(name)
                return method(self, *args)
            return wrapper

        monkeypatch.setattr(fastpath, "_coalesce_lanes", coalesce_spy)
        for name in ("_bulk_loads", "_fast_loads", "_bulk_stores",
                     "_fast_stores"):
            monkeypatch.setattr(fastpath.FastMemoryPipeline, name, spy(name))
        ref, fast = _lane_pipelines(len(addrs), 3)
        is_store = values is not None
        values = values or [0] * len(addrs)
        want = _observe(ref, addrs, dtype, is_store, "global", values)
        assert _observe(fast, addrs, dtype, is_store, "global",
                        values) == want
        return taken

    def test_contiguous_f32_load_takes_the_closed_form(self, monkeypatch):
        addrs = [_BASE + 4 * i for i in range(32)]
        assert self._branches(monkeypatch, addrs) == ["_bulk_loads"]

    def test_i32_residues_above_int_max_store_in_bulk(self, monkeypatch):
        """i32 values in [2**31, 2**32) are legal residues: one unsigned
        pack stores them, with no per-lane retry."""
        addrs = [_BASE + 4 * i for i in range(32)]
        values = [2 ** 31 + i for i in range(32)]
        assert self._branches(monkeypatch, addrs, "i32", values) == [
            "_bulk_stores"]

    def test_overflowing_f32_store_retries_per_lane(self, monkeypatch):
        addrs = [_BASE + 4 * i for i in range(32)]
        values = [float(i) for i in range(32)]
        values[5] = 1e39
        assert self._branches(monkeypatch, addrs, "f32", values) == [
            "_bulk_stores", "_fast_stores"]

    def test_partial_mask_takes_the_per_lane_path(self, monkeypatch):
        addrs = [_BASE + 4 * i for i in range(31)] + [None]
        assert self._branches(monkeypatch, addrs) == [
            "per-lane coalesce", "_fast_loads"]

    def test_stride_above_a_line_takes_the_per_lane_path(self, monkeypatch):
        addrs = [_BASE + 256 * i for i in range(32)]
        assert self._branches(monkeypatch, addrs) == [
            "per-lane coalesce", "_fast_loads"]

    def test_irregular_gather_takes_the_per_lane_path(self, monkeypatch):
        addrs = [_BASE + (i * 37 % 32) * 4 for i in range(32)]
        assert self._branches(monkeypatch, addrs) == [
            "per-lane coalesce", "_fast_loads"]
