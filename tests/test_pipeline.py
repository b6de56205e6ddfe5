"""Unit tests for the staged memory pipeline and its checker seam."""

from types import SimpleNamespace

import pytest

from repro import GpuSession, ShieldConfig, nvidia_config
from repro.core.bcu import BoundsCheckingUnit
from repro.core.checker import AccessContext, CheckOutcome, RecordingChecker
from repro.gpu.cache import Cache
from repro.gpu.dram import Dram
from repro.gpu.executor import MemRequest, WarpState
from repro.gpu.memory import AddressSpace, PhysicalMemory
from repro.gpu.pipeline import MemoryPipeline
from repro.gpu.tlb import Tlb
from tests.conftest import build_vecadd

CFG = nvidia_config(num_cores=1)


def make_pipeline(checker=None):
    memory = PhysicalMemory()
    space = AddressSpace(memory, page_size=CFG.page_size)
    space.map_range(0, 8 << 20)
    l2cache = Cache(CFG.l2_bytes, CFG.l2_assoc, CFG.line_size, name="l2")
    l2tlb = Tlb(CFG.l2tlb_entries, CFG.l2tlb_assoc, name="l2tlb")
    dram = Dram(line_size=CFG.line_size,
                row_hit_latency=CFG.dram_row_hit_latency,
                row_miss_latency=CFG.dram_row_miss_latency,
                service_interval=CFG.dram_service_interval)
    return MemoryPipeline(0, CFG, memory, space, l2cache, l2tlb, dram,
                          checker=checker)


def make_request(lane_addrs, *, is_store=False, space="global",
                 dtype="i32", store_values=None):
    active = [i for i, a in enumerate(lane_addrs) if a is not None]
    return MemRequest(instr=None, space=space, dtype=dtype,
                      is_store=is_store, lane_addrs=list(lane_addrs),
                      base_pointer=0, store_values=store_values, dst=None,
                      active_lanes=active)


def make_job(shared_bytes=64, deliveries=None):
    def deliver_load(warp, request, values):
        if deliveries is not None:
            deliveries.append(values)

    executor = SimpleNamespace(kernel=SimpleNamespace(
        shared_bytes=shared_bytes), deliver_load=deliver_load)
    return SimpleNamespace(executor=executor,
                           launch=SimpleNamespace(security=None))


def make_warp():
    return WarpState(warp_id=0, wg=0, warp_in_wg=0, num_regs=1, warp_size=4)


class TestStagesInIsolation:
    def test_translate_walk_then_hits(self):
        pipe = make_pipeline()
        cold = pipe.translate(0x1000)
        assert cold.walked and not cold.l1_hit and not cold.l2_hit
        assert cold.latency == CFG.page_walk_latency
        warm = pipe.translate(0x1000)
        assert warm.l1_hit and warm.latency == 0

    def test_translate_l2_tlb_hit(self):
        pipe = make_pipeline()
        pipe.translate(0x2000)              # fills both TLB levels
        pipe.l1tlb.flush()                  # keep only the L2 entry
        mid = pipe.translate(0x2000)
        assert mid.l2_hit and not mid.l1_hit and not mid.walked
        assert mid.latency == CFG.tlb_l2_latency

    def test_cache_dram_then_l1_hit(self):
        pipe = make_pipeline()
        cold = pipe.cache_access(0x4000, cycle=0)
        assert cold.dram and not cold.l1_hit and not cold.l2_hit
        assert cold.latency >= CFG.l2_latency + CFG.dram_row_hit_latency
        warm = pipe.cache_access(0x4000, cycle=0)
        assert warm.l1_hit and warm.latency == 0

    def test_cache_l2_hit(self):
        pipe = make_pipeline()
        pipe.cache_access(0x8000, cycle=0)  # fills L1 + L2
        pipe.l1d.flush()
        mid = pipe.cache_access(0x8000, cycle=0)
        assert mid.l2_hit and mid.latency == CFG.l2_latency


class TestAccessBreakdown:
    """One coalesced access across TLB hit/miss x L1D hit/miss x stall."""

    def test_cold_access_sums_stage_latencies(self):
        pipe = make_pipeline()
        result = pipe.access(make_warp(), make_job(),
                             make_request([0, 4, 8, 12]), cycle=0)
        assert result.transactions == 1
        assert (result.page_walks, result.dram_accesses) == (1, 1)
        (tr, cr), = result.per_transaction
        assert result.latency == CFG.lsu_pipeline_depth \
            + tr.latency + cr.latency
        assert tr.latency == CFG.page_walk_latency
        assert result.stall == 0

    def test_warm_access_is_lsu_depth_only(self):
        pipe = make_pipeline()
        pipe.access(make_warp(), make_job(), make_request([0, 4]), cycle=0)
        result = pipe.access(make_warp(), make_job(),
                             make_request([0, 4]), cycle=500)
        assert (result.tlb_l1_hits, result.l1_hits) == (1, 1)
        assert result.l1_all_hit and not result.tlb_missed
        assert result.latency == CFG.lsu_pipeline_depth

    def test_tlb_hit_dcache_miss(self):
        pipe = make_pipeline()
        pipe.access(make_warp(), make_job(), make_request([0]), cycle=0)
        # Same page (TLB hit) but a fresh line far away (Dcache miss).
        result = pipe.access(make_warp(), make_job(),
                             make_request([0x10000]), cycle=1000)
        assert result.tlb_l1_hits == 1 and result.l1_hits == 0
        (tr, cr), = result.per_transaction
        assert tr.latency == 0 and cr.latency > 0
        assert result.latency == CFG.lsu_pipeline_depth + cr.latency

    def test_multi_transaction_adds_pipelining_cycles(self):
        pipe = make_pipeline()
        # Two lanes a line apart -> two transactions, +1 pipeline cycle.
        result = pipe.access(make_warp(), make_job(),
                             make_request([0, CFG.line_size]), cycle=0)
        assert result.transactions == 2
        worst = max(CFG.lsu_pipeline_depth + tr.latency + cr.latency
                    for tr, cr in result.per_transaction)
        assert result.latency == worst + 1

    def test_checker_stall_and_latency_overlap(self):
        class StallChecker:
            def check(self, ctx):
                return CheckOutcome(allowed=True, stall_cycles=3,
                                    check_latency=10_000)

        pipe = make_pipeline(checker=StallChecker())
        result = pipe.access(make_warp(), make_job(),
                             make_request([0, 4]), cycle=0)
        assert result.stall == 3
        # Bounds resolution dominates the access's own latency (Fig. 12).
        assert result.latency == 10_000

    def test_blocked_load_is_zeroed(self):
        class Blocker:
            def check(self, ctx):
                return CheckOutcome(allowed=False, stall_cycles=1)

        deliveries = []
        pipe = make_pipeline(checker=Blocker())
        pipe.memory.write_int(0, 4, 77)
        result = pipe.access(make_warp(), make_job(deliveries=deliveries),
                             make_request([0]), cycle=0)
        assert not result.allowed
        assert deliveries == [{0: 0}]      # zero-load policy (§5.5.2)


class TestSharedMemory:
    def test_offset_wraparound(self):
        pipe = make_pipeline()
        job = make_job(shared_bytes=16)
        req = make_request([20, None, None, None], is_store=True,
                           space="shared", store_values={0: 0x11223344})
        pipe.access(make_warp(), job, req, cycle=0)
        pad = pipe.shared_pad(make_warp(), job)
        assert len(pad) == 16
        # Offset 20 wraps to 4 inside the 16-byte scratchpad.
        assert pad[4:8] == bytes.fromhex("44332211")

    def test_wrapped_load_reads_back(self):
        pipe = make_pipeline()
        deliveries = []
        job = make_job(shared_bytes=16, deliveries=deliveries)
        pipe.access(make_warp(), job,
                    make_request([8], is_store=True, space="shared",
                                 store_values={0: 99}), cycle=0)
        pipe.access(make_warp(), job,
                    make_request([8 + 16], space="shared"), cycle=1)
        assert deliveries == [{0: 99}]

    def test_store_truncated_at_pad_end(self):
        pipe = make_pipeline()
        job = make_job(shared_bytes=16)
        req = make_request([14], is_store=True, space="shared",
                           store_values={0: 0x55667788})
        pipe.access(make_warp(), job, req, cycle=0)
        pad = pipe.shared_pad(make_warp(), job)
        assert pad[14:16] == bytes.fromhex("8877")


class TestCheckerSeam:
    def test_fake_checker_sees_the_bcu_ranges(self, monkeypatch):
        """A fake AccessChecker observes exactly the (min, max) ranges
        the BCU judges — the seam is the BCU's own vantage point."""
        session = GpuSession(nvidia_config(num_cores=1),
                             shield=ShieldConfig(enabled=True))
        # Patch the class actually in use (the fast engine substitutes a
        # BoundsCheckingUnit subclass that overrides check()).
        bcu_cls = type(session.gpu.cores[0].bcu)
        bcu_ranges = []
        real_check = bcu_cls.check

        def spy(self, ctx, pointer, lo, hi, **kw):
            bcu_ranges.append((lo, hi))
            return real_check(self, ctx, pointer, lo, hi, **kw)

        monkeypatch.setattr(bcu_cls, "check", spy)
        recorders = []
        for core in session.gpu.cores:
            rec = RecordingChecker(inner=core.pipeline.checker)
            core.pipeline.checker = rec
            recorders.append(rec)

        n = 128
        bufs = {name: session.driver.malloc(n * 4) for name in "abc"}
        result, viol = session.run(build_vecadd(),
                                   {**bufs, "n": n}, 2, 64)
        assert result.ok and viol == []

        seen = [(c.lo, c.hi) for r in recorders for c in r.contexts
                if c.security is not None]
        assert len(seen) > 0
        assert sorted(seen) == sorted(bcu_ranges)
        # Every range is a genuine (min, max) pair inside the buffers.
        for lo, hi in seen:
            assert lo <= hi

    def test_access_context_carries_lsu_state(self):
        contexts = []

        class Probe:
            def check(self, ctx):
                contexts.append(ctx)
                return CheckOutcome(allowed=True, stall_cycles=0)

        pipe = make_pipeline(checker=Probe())
        pipe.access(make_warp(), make_job(), make_request([0, 4]), cycle=7)
        ctx, = contexts
        assert isinstance(ctx, AccessContext)
        assert (ctx.lo, ctx.hi) == (0, 7)
        assert ctx.num_transactions == 1
        assert ctx.tlb_miss is True          # cold TLB: the walk happened
        assert ctx.dcache_hit is False
        assert ctx.cycle == 7
        assert ctx.num_lanes == 2

    def test_context_and_outcome_are_immutable(self):
        ctx = AccessContext(security=None, base_pointer=0, lo=0, hi=3,
                            is_store=False, space="global")
        outcome = CheckOutcome(allowed=True, stall_cycles=0)
        assert (ctx.num_transactions, ctx.dcache_hit, ctx.tlb_miss,
                ctx.num_lanes, ctx.cycle) == (1, True, False, 1, 0)
        assert (outcome.check_latency, outcome.violation,
                outcome.rbt_fill) == (0, None, False)
        for record, name in ((ctx, "lo"), (outcome, "allowed")):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)

    def test_software_guard_returns_its_two_verdicts(self):
        from repro.baselines.swbounds import SoftwareGuardChecker
        guard = SoftwareGuardChecker({"a": (0x1000, 64)}, guard_cost=3)

        def check(lo, hi):
            return guard.check(AccessContext(
                security=None, base_pointer=0x1000, lo=lo, hi=hi,
                is_store=False, space="global"))

        inside, outside = check(0x1000, 0x103F), check(0x1000, 0x1040)
        assert inside == CheckOutcome(allowed=True, stall_cycles=3)
        assert outside == CheckOutcome(allowed=False, stall_cycles=3)
        assert check(0x1010, 0x1013) is inside
        assert check(0x0FFF, 0x1000) is outside
        assert guard.checks == 4
        assert guard.failures == [(0x1000, 0x1040), (0x0FFF, 0x1000)]


class TestCoreDelegation:
    def test_core_has_no_inline_memory_timing(self):
        """ShaderCore delegates all TLB/cache/DRAM timing to the pipeline."""
        import inspect

        from repro.gpu.core import ShaderCore
        src = inspect.getsource(ShaderCore._process_mem)
        for needle in ("l1tlb", "l2tlb", "l1d", "dram.access", "coalesce"):
            assert needle not in src
        assert "pipeline.access" in src

    def test_end_to_end_still_correct(self):
        session = GpuSession(nvidia_config(num_cores=2),
                             shield=ShieldConfig(enabled=True))
        n = 128
        bufs = {name: session.driver.malloc(n * 4) for name in "abc"}
        import struct as s
        session.driver.write(bufs["a"], s.pack(f"<{n}i", *range(n)))
        session.driver.write(bufs["b"], s.pack(f"<{n}i", *([5] * n)))
        result, viol = session.run(build_vecadd(), {**bufs, "n": n}, 2, 64)
        assert result.ok and viol == []
        out = s.unpack(f"<{n}i", session.driver.read(bufs["c"], n * 4))
        assert list(out) == [i + 5 for i in range(n)]
