"""The fast lane's bit-identity contract (see DESIGN.md §9).

Two layers of evidence that ``repro.gpu.fastpath`` is observationally
identical to the reference engine:

* **Property tests** drive the array-backed probe structures
  (:class:`FastCache`, :class:`FastTlb`, the fast RCaches) and an
  OrderedDict reference with the same random operation sequences and
  compare every observable after every operation — return values,
  stats counters, residency probes, occupancy.
* **Differential tests** run whole campaigns/workloads under each
  engine and compare digests: the PR-2 fuzz corpus (per-case outcomes,
  detection matrix, and per-config cycles all feed
  :func:`campaign_digest`) and a real benchmark's full
  :class:`RunRecord`.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bounds import Bounds
from repro.core.rcache import L1RCache, L2RCache, RCacheEntry
from repro.engine import ENGINES, current_engine, engine, resolve, set_engine
from repro.gpu.cache import Cache
from repro.gpu.fastpath import (
    FastCache,
    FastL1RCache,
    FastL2RCache,
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
# FastCache / FastTlb vs the OrderedDict reference
# ---------------------------------------------------------------------------

#: Small address pool so sequences actually collide in sets and evict.
_ADDR = st.integers(0, 1 << 14)
_OPS = st.lists(st.tuples(st.sampled_from(["access", "probe", "flush"]),
                          _ADDR),
                min_size=1, max_size=200)

#: (size_bytes, assoc, line_size) — pow2 sets, a single set, and the
#: texture cache's non-pow2 24-set geometry (12 KiB / 128B / 4-way).
_CACHE_GEOMETRIES = [
    (16384, 4, 128),
    (512, 4, 128),       # one set: pure associativity
    (12288, 4, 128),     # 24 sets: the non-pow2 '% num_sets' path
    (4096, 1, 64),       # direct-mapped
]


class TestFastCacheEquivalence:
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

    def test_reset_stats(self):
        fast = FastCache(16384, 4, 128)
        fast.access(0)
        fast.reset_stats()
        assert fast.stats.accesses == 0
        assert fast.probe(0)          # residency survives a stats reset


_TLB_GEOMETRIES = [(32, 4), (32, 0), (8, 8), (48, 4)]  # 0 = fully assoc
_PAGES = st.integers(0, 255)
_TLB_OPS = st.lists(st.tuples(st.sampled_from(["access", "flush"]), _PAGES),
                    min_size=1, max_size=200)


class TestFastTlbEquivalence:
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


# ---------------------------------------------------------------------------
# Fast RCaches vs the reference
# ---------------------------------------------------------------------------

_TAGS = st.tuples(st.integers(1, 3), st.integers(0, 7))  # (kernel, buffer)
_RC_OPS = st.lists(
    st.tuples(st.sampled_from(["lookup", "fill", "flush", "flush_kernel"]),
              _TAGS),
    min_size=1, max_size=150)


def _rc_entry(kernel_id, buffer_id):
    return RCacheEntry(buffer_id=buffer_id, kernel_id=kernel_id,
                       bounds=Bounds(base_addr=0x1000 * (buffer_id + 1),
                                     size=64))


def _same_entry(a, b):
    if a is None or b is None:
        return a is b
    return (a.buffer_id, a.kernel_id, a.bounds) == \
        (b.buffer_id, b.kernel_id, b.bounds)


@pytest.mark.parametrize("ref_cls,fast_cls,policy,partitioned", [
    (L1RCache, FastL1RCache, "fifo", False),
    (L1RCache, FastL1RCache, "lru", False),
    (L2RCache, FastL2RCache, "lru", False),
    (L2RCache, FastL2RCache, "lru", True),
    (L2RCache, FastL2RCache, "fifo", True),
])
class TestFastRCacheEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(ops=_RC_OPS)
    def test_matches_reference(self, ref_cls, fast_cls, policy,
                               partitioned, ops):
        ref = ref_cls(entries=4, policy=policy, partitioned=partitioned)
        fast = fast_cls(entries=4, policy=policy, partitioned=partitioned)
        for op, (kernel_id, buffer_id) in ops:
            if op == "lookup":
                assert _same_entry(ref.lookup(kernel_id, buffer_id),
                                   fast.lookup(kernel_id, buffer_id))
            elif op == "fill":
                ref.fill(_rc_entry(kernel_id, buffer_id))
                fast.fill(_rc_entry(kernel_id, buffer_id))
            elif op == "flush":
                ref.flush()
                fast.flush()
            else:
                ref.flush(kernel_id)
                fast.flush(kernel_id)
            assert len(ref) == len(fast)
            assert ((kernel_id, buffer_id) in ref) == \
                ((kernel_id, buffer_id) in fast)
            assert (ref.stats.hits, ref.stats.misses) == \
                (fast.stats.hits, fast.stats.misses)


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


class TestWorkloadEquivalence:
    def _record(self, engine_name, shield):
        from repro.analysis.harness import default_shield, run_workload
        from repro.gpu.config import nvidia_config
        from repro.workloads.suite import get_benchmark

        with engine(engine_name):
            return run_workload(
                get_benchmark("mm").build(),
                config=nvidia_config(num_cores=2),
                shield=default_shield() if shield else None,
                config_name="eq", seed=11)

    @pytest.mark.parametrize("shield", [True, False],
                             ids=["shield", "base"])
    def test_full_record_identical(self, shield):
        slow = self._record("slow", shield)
        fast = self._record("fast", shield)
        assert asdict(slow) == asdict(fast)
        assert fast.cycles > 0


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
