"""The device lifecycle layer: reset == fresh, snapshot/restore, cache.

The contract under test is the warm path's bit-identity promise: a
:meth:`~repro.device.GpuDevice.reset` device must be observably
indistinguishable — cycles, statistics, buffer bytes, violations — from
a freshly constructed one with the same seed, under both engines and
for §6.2 co-resident pairs.  The cache tests pin the reuse key
(configuration fingerprint, never the seed) and the idle-pool bounds.
"""

import contextlib
import struct

import pytest

from repro.analysis.stats import StatsRegistry
from repro.core.bcu import BCUConfig
from repro.core.checker import ALLOW
from repro.core.shield import ShieldConfig
from repro.device import (GpuDevice, acquire_device, device_cache_stats,
                          device_fingerprint, release_device,
                          reset_device_cache, set_warm_devices,
                          warm_devices, warm_devices_enabled)
from repro.device.cache import MAX_IDLE_PER_KEY
from repro.engine import ENGINES, engine
from repro.gpu.config import intel_config, nvidia_config
from repro.gpu.core import ShaderCore
from tests.conftest import build_vecadd

N = 64


def _device(seed=11, shielded=True, cores=2):
    shield = ShieldConfig(enabled=True) if shielded else None
    return GpuDevice(nvidia_config(num_cores=cores), shield=shield,
                     seed=seed)


def _vecadd(device):
    """One vecadd through ``device.run``: (result, violations, output)."""
    drv = device.driver
    a = drv.malloc(4 * N, name="a", read_only=True)
    b = drv.malloc(4 * N, name="b", read_only=True)
    c = drv.malloc(4 * N, name="c")
    drv.write(a, struct.pack(f"<{N}i", *range(N)))
    drv.write(b, struct.pack(f"<{N}i", *range(0, 2 * N, 2)))
    result, violations = device.run(build_vecadd(),
                                    {"a": a, "b": b, "c": c, "n": N}, 2, 64)
    return result, violations, c


def _run_vecadd(device):
    """One vecadd through ``device.run``; returns an observables tuple."""
    result, violations, c = _vecadd(device)
    return (result.cycles, device.driver.read(c), len(violations),
            tuple(sorted(device.stats.snapshot().as_dict().items())))


def _run_pair(device, mode):
    """Two co-resident vecadds (§6.2) through ``device.run_pair``."""
    drv = device.driver
    launches, outs = [], []
    for _ in range(2):
        a = drv.malloc(4 * N, read_only=True)
        b = drv.malloc(4 * N, read_only=True)
        c = drv.malloc(4 * N)
        drv.write(a, struct.pack(f"<{N}i", *range(N)))
        drv.write(b, struct.pack(f"<{N}i", *range(N)))
        launches.append(drv.launch(build_vecadd(),
                                   {"a": a, "b": b, "c": c, "n": N}, 2, 64))
        outs.append(c)
    result, violations = device.run_pair(launches, mode=mode)
    return (result.cycles, tuple(drv.read(c) for c in outs),
            len(violations),
            tuple(sorted(device.stats.snapshot().as_dict().items())))


@pytest.fixture(autouse=True)
def _cold_cache():
    """Every test starts from an empty cache and leaves none behind."""
    reset_device_cache()
    yield
    reset_device_cache()


class TestStatsRegistryReset:
    def test_zeroes_counters_without_dropping_registrations(self):
        reg = StatsRegistry()
        counters = reg.counters("x")
        counters["hits"] = 5
        reg.reset()
        assert reg.snapshot().get("x.hits") == 0
        # The same dict object is still registered: bumps land again.
        counters["hits"] = 2
        assert reg.snapshot().get("x.hits") == 2

    def test_delegates_to_a_source_reset_method(self):
        class Src:
            def __init__(self):
                self.hits = 3
                self.reset_calls = 0

            def reset(self):
                self.hits = 0
                self.reset_calls += 1

        src = Src()
        reg = StatsRegistry()
        reg.register("l1", src)
        reg.reset()
        assert src.reset_calls == 1
        assert reg.snapshot().get("l1.hits") == 0

    def test_clears_absorbed_worker_snapshots(self):
        reg = StatsRegistry()
        reg.merge({"w.jobs": 4})
        assert reg.snapshot().get("w.jobs") == 4
        reg.reset()
        assert "w.jobs" not in reg.snapshot()


class TestResetEquivalence:
    @pytest.mark.parametrize("eng", ENGINES)
    def test_reset_matches_fresh_single_kernel(self, eng):
        with engine(eng):
            fresh = _run_vecadd(_device(seed=11))
            warmed = _device(seed=23)
            _run_vecadd(warmed)          # dirty it under another seed
            warmed.reset(11)
            assert _run_vecadd(warmed) == fresh

    @pytest.mark.parametrize("eng", ENGINES)
    @pytest.mark.parametrize("mode", ["inter_core", "intra_core"])
    def test_reset_matches_fresh_coresident_pair(self, eng, mode):
        with engine(eng):
            fresh = _run_pair(_device(seed=7), mode)
            warmed = _device(seed=19)
            _run_pair(warmed, mode)
            warmed.reset(7)
            assert _run_pair(warmed, mode) == fresh

    def test_reset_without_seed_reuses_construction_seed(self):
        fresh = _run_vecadd(_device(seed=31))
        device = _device(seed=31)
        _run_vecadd(device)
        device.reset()
        assert device.seed == 31
        assert _run_vecadd(device) == fresh


class TestSnapshotRestore:
    def test_restore_replays_from_the_snapshot_point(self):
        device = _device(seed=9)
        snap = device.snapshot()
        first = _run_vecadd(device)
        device.restore(snap)
        assert _run_vecadd(device) == first

    def test_restore_rejects_a_foreign_snapshot(self):
        a, b = _device(seed=1), _device(seed=1)
        snap = a.snapshot()
        with pytest.raises(ValueError, match="different device"):
            b.restore(snap)


class TestDeviceCache:
    def test_release_then_acquire_reuses_and_reseeds(self):
        cfg = nvidia_config(num_cores=2)
        first = acquire_device(cfg, None, seed=1)
        release_device(first)
        second = acquire_device(cfg, None, seed=2)
        assert second is first
        assert second.seed == 2
        stats = device_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["releases"] == 1
        release_device(second)

    def test_fingerprint_separates_config_shield_and_engine(self):
        nv, intel = nvidia_config(num_cores=2), intel_config(num_cores=2)
        shield = ShieldConfig(enabled=True)
        assert device_fingerprint(nv, None) != device_fingerprint(intel, None)
        assert device_fingerprint(nv, None) != device_fingerprint(nv, shield)
        with engine("slow"):
            slow_key = device_fingerprint(nv, None)
        with engine("fast"):
            fast_key = device_fingerprint(nv, None)
        assert slow_key != fast_key

    def test_engine_flip_never_reuses_the_other_lane(self):
        cfg = nvidia_config(num_cores=2)
        with engine("slow"):
            device = acquire_device(cfg, None, seed=1)
            release_device(device)
        with engine("fast"):
            other = acquire_device(cfg, None, seed=1)
            assert other is not device
            release_device(other)

    def test_idle_pool_is_bounded(self):
        cfg = nvidia_config(num_cores=2)
        devices = [acquire_device(cfg, None, seed=i)
                   for i in range(MAX_IDLE_PER_KEY + 2)]
        for device in devices:
            release_device(device)
        stats = device_cache_stats()
        assert stats["idle"] == MAX_IDLE_PER_KEY
        # Pool-overflow drops are evictions (capacity), not discards
        # (cold/duplicate/disabled releases).
        assert stats["evictions"] == 2
        assert stats["discards"] == 0

    def test_double_release_is_idempotent(self):
        device = acquire_device(nvidia_config(num_cores=2), None, seed=1)
        release_device(device)
        release_device(device)
        release_device(None)
        assert device_cache_stats()["idle"] == 1

    def test_warm_disabled_builds_cold_and_drops(self):
        cfg = nvidia_config(num_cores=2)
        with warm_devices(False):
            assert not warm_devices_enabled()
            a = acquire_device(cfg, None, seed=1)
            release_device(a)
            b = acquire_device(cfg, None, seed=1)
            assert b is not a
            release_device(b)
        stats = device_cache_stats()
        assert stats["cold_builds"] == 2
        assert stats["hits"] == 0 and stats["idle"] == 0

    def test_cold_leg_device_never_enters_a_warm_pool(self):
        cfg = nvidia_config(num_cores=2)
        with warm_devices(False):
            device = acquire_device(cfg, None, seed=1)
        # Warm again by the time it is released (a cold-vs-warm
        # comparison flips the switch between runs): still dropped.
        release_device(device)
        assert device_cache_stats()["idle"] == 0

    def test_set_warm_devices_returns_previous(self):
        assert set_warm_devices(False) is True
        assert set_warm_devices(True) is False


class TestWarmCellMemo:
    def _cell(self, config_name="base", seed=11, shield=None):
        from repro.analysis.harness import run_workload
        from repro.workloads.suite import get_benchmark
        return run_workload(get_benchmark("vectoradd").build(),
                            nvidia_config(num_cores=2), shield,
                            config_name, seed=seed)

    def test_warm_repeat_replays_the_record(self):
        from repro.device import warm_memo_stats
        first = self._cell("base")
        again = self._cell("renamed")
        stats = warm_memo_stats()
        assert stats["cell_hits"] == 1
        # The replay is the same measurement under the caller's label.
        assert again.config == "renamed"
        assert (again.cycles, again.instructions, again.violations) \
            == (first.cycles, first.instructions, first.violations)

    def test_key_covers_seed_and_shield(self):
        from repro.device import warm_memo_stats
        self._cell(seed=11)
        self._cell(seed=12)
        self._cell(seed=11, shield=ShieldConfig(enabled=True))
        assert warm_memo_stats()["cell_hits"] == 0
        assert warm_memo_stats()["cell_misses"] == 3

    def test_cold_path_never_memoizes(self):
        from repro.device import warm_memo_stats
        with warm_devices(False):
            self._cell()
            self._cell()
        stats = warm_memo_stats()
        assert stats["cell_hits"] == 0 and stats["cells"] == 0

    def test_workload_fingerprint_tracks_content(self):
        from repro.device import workload_fingerprint
        from repro.workloads.suite import get_benchmark
        a = workload_fingerprint(get_benchmark("vectoradd").build())
        b = workload_fingerprint(get_benchmark("vectoradd").build())
        c = workload_fingerprint(get_benchmark("vectoradd").build(scale=2.0))
        assert a == b
        assert a != c

    def test_reset_device_cache_clears_memo(self):
        from repro.device import warm_memo_stats
        self._cell()
        assert warm_memo_stats()["cells"] == 1
        reset_device_cache()
        assert warm_memo_stats()["cells"] == 0


class TestColdWarmDifferential:
    """Warm reuse must be invisible end to end: a fuzz campaign digests
    the same with every device cold-built as with pooled devices, the
    cell memo and the init-bytes cache, under each engine."""

    #: The smallest campaign whose digest drifts when the init-bytes
    #: key drops the seed (two cases share a buffer shape).
    CASES = 2

    @pytest.mark.parametrize("eng", ENGINES)
    def test_campaign_digest_cold_equals_warm(self, eng):
        from repro.device import warm_memo_stats
        from repro.fuzz.campaign import run_campaign
        from repro.fuzz.generator import CaseGenerator
        from repro.fuzz.parallel import campaign_digest
        specs = CaseGenerator(1).draw_many(self.CASES)
        digests = {}
        for warm in (False, True):
            reset_device_cache()
            with engine(eng), warm_devices(warm):
                digests[warm] = campaign_digest(run_campaign(
                    specs, seed=1, config=nvidia_config(num_cores=1)))
        # The warm leg really reused devices and init bytes.
        assert device_cache_stats()["hits"] > 0
        assert warm_memo_stats()["init_hits"] > 0
        assert digests[True] == digests[False]

    @pytest.mark.parametrize("eng", ENGINES)
    def test_seeded_cells_cold_equal_warm(self, eng):
        """Per seed: the memoized record, and the tagged pointers a
        shielded launch hands its kernel (region IDs drawn from the
        driver's seeded RNG).  Histogram's cycles depend on the seed."""
        from repro.analysis.harness import WorkloadRunner, run_workload
        from repro.device import warm_memo_stats
        from repro.workloads.suite import get_benchmark
        cfg = nvidia_config(num_cores=1)
        observed = {}
        for warm in (False, True):
            reset_device_cache()
            rows = []
            with engine(eng), warm_devices(warm):
                for seed in (11, 12, 11):
                    record = run_workload(get_benchmark("Histogram").build(),
                                          cfg, seed=seed)
                    pointers = []
                    runner = WorkloadRunner(
                        get_benchmark("Histogram").build(), config=cfg,
                        shield=ShieldConfig(enabled=True), seed=seed,
                        launch_mutator=lambda r, launch, i: pointers.append(
                            sorted(launch.arg_values.items())))
                    try:
                        runner.run()
                    finally:
                        runner.close()
                    rows.append((record, pointers))
            observed[warm] = rows
        # The warm leg replayed a memoized cell and reused devices.
        assert warm_memo_stats()["cell_hits"] > 0
        assert device_cache_stats()["hits"] > 0
        assert observed[True] == observed[False]


class TestHarnessSeedPlumbing:
    def test_workload_runner_seed_reaches_the_device(self):
        from repro.analysis.harness import WorkloadRunner
        from repro.workloads.suite import get_benchmark
        workload = get_benchmark("vectoradd").build()
        runner = WorkloadRunner(workload,
                                config=nvidia_config(num_cores=2),
                                shield=None, seed=0x1234)
        try:
            assert runner.seed == 0x1234
            assert runner.device.seed == 0x1234
            assert runner.session.seed == 0x1234
            assert runner.session.driver.seed == 0x1234
        finally:
            runner.close()


def _tracer():
    from repro.analysis.trace import MemoryTracer
    return MemoryTracer()


def _detector():
    from repro.racedetect.detector import RaceDetector
    return RaceDetector()


def _profiler():
    from repro.profiler import Profiler
    return Profiler()


def _observed(observer):
    """Everything an observer has recorded so far."""
    return (list(getattr(observer, "stream", ())),
            {k: v for k, v in observer.stats().items() if v})


def _unobserved(gpu):
    return gpu.observers == () and all(core.pipeline.observers == ()
                                       for core in gpu.cores)


@pytest.mark.parametrize("make_observer",
                         [_tracer, _detector, _profiler],
                         ids=["tracer", "racedetect", "profiler"])
class TestWarmPoolObserverHygiene:
    """No observer may ride into the idle pool: a stale tracer would
    append the next owner's events to the old stream, a stale race
    detector would shadow (and blame old sites for) the next owner's
    accesses, a stale profiler would keep attributing them — and any of
    them keeps the fast engine on the reference path."""

    def test_release_detaches_observer(self, make_observer):
        cfg = nvidia_config(num_cores=2)
        with warm_devices(True):
            device = acquire_device(cfg, None, seed=3)
            observer = make_observer()
            device.gpu.observe(observer)
            assert all(core.pipeline.observers == (observer,)
                       for core in device.gpu.cores)
            release_device(device)
            assert _unobserved(device.gpu)
            again = acquire_device(cfg, None, seed=3)
            assert again is device          # same pooled object
            assert _unobserved(again.gpu)
            release_device(again)

    def test_gpu_reset_detaches_observer(self, make_observer):
        device = acquire_device(nvidia_config(num_cores=2), None, seed=3)
        try:
            device.gpu.observe(make_observer())
            device.gpu.reset()
            assert _unobserved(device.gpu)
        finally:
            release_device(device)

    def test_old_observer_sees_nothing_of_next_owner(self, make_observer):
        cfg = nvidia_config(num_cores=2)
        with warm_devices(True):
            first = acquire_device(cfg, None, seed=3)
            observer = make_observer()
            first.gpu.observe(observer)
            _run_vecadd(first)
            baseline = _observed(observer)
            assert baseline != ([], {})     # it did watch its own run
            release_device(first)
            second = acquire_device(cfg, None, seed=3)
            assert second is first
            _run_vecadd(second)
            assert _observed(observer) == baseline
            release_device(second)

    def test_observe_twice_leaves_no_stats(self, make_observer):
        def observer_keys():
            return [k for k in device.stats.snapshot().as_dict()
                    if k.startswith(("racedetect.", "profiler."))]

        device = acquire_device(nvidia_config(num_cores=2), None, seed=3)
        try:
            observer = make_observer()
            device.gpu.observe(observer)
            _run_vecadd(device)
            assert bool(observer_keys()) == bool(observer.name)
            device.gpu.observe()
            device.gpu.observe()
            assert not observer_keys()
        finally:
            release_device(device)


class TestWarmPoolViolationHygiene:
    """``release_device`` must scrub undrained violation records: the
    driver's ``finish`` drains the *whole* shield log, so records a
    previous owner executed but never collected would be attributed to
    the next owner's first kernel — a cross-tenant audit leak."""

    def _violating_launch(self, device):
        """Execute (but never ``finish``) a kernel that stores past its
        output buffer, leaving violation records undrained in the log."""
        drv = device.driver
        a = drv.malloc(4 * N, name="a", read_only=True)
        b = drv.malloc(4 * N, name="b", read_only=True)
        c = drv.malloc(4 * (N // 2), name="c")   # half-sized output
        drv.write(a, struct.pack(f"<{N}i", *range(N)))
        drv.write(b, struct.pack(f"<{N}i", *range(N)))
        launch = drv.launch(build_vecadd(),
                            {"a": a, "b": b, "c": c, "n": N}, 2, 64)
        device.gpu.run(launch, mode="single")
        return launch

    def test_release_scrubs_undrained_violations(self):
        cfg = nvidia_config(num_cores=2)
        shield = ShieldConfig(enabled=True)
        first = acquire_device(cfg, shield, seed=3)
        self._violating_launch(first)
        assert first.shield.log.records        # undrained, pending
        release_device(first)

        second = acquire_device(cfg, shield, seed=3)
        assert second is first                 # same pooled object
        assert not second.shield.log.records
        # The next owner's clean run must report zero violations.
        drv = second.driver
        a = drv.malloc(4 * N, name="a", read_only=True)
        b = drv.malloc(4 * N, name="b", read_only=True)
        c = drv.malloc(4 * N, name="c")
        drv.write(a, struct.pack(f"<{N}i", *range(N)))
        drv.write(b, struct.pack(f"<{N}i", *range(N)))
        _result, violations = second.run(
            build_vecadd(), {"a": a, "b": b, "c": c, "n": N}, 2, 64)
        assert violations == []
        release_device(second)


class _CoreRuns:
    """Counts ``ShaderCore.run`` calls while :meth:`spy` is active."""

    count = 0

    @classmethod
    @contextlib.contextmanager
    def spy(cls):
        run = ShaderCore.run

        def counted(core, work):
            cls.count += 1
            return run(core, work)

        ShaderCore.run = counted
        try:
            yield
        finally:
            ShaderCore.run = run


class _ToolChecker:
    """A harness tool's checker swapped in for the BCU: allows all."""

    def check(self, ctx):
        return ALLOW


@pytest.mark.parametrize("eng", ENGINES)
@pytest.mark.parametrize("shielded", [False, True], ids=["plain", "shield"])
class TestIdleDeviceIsFresh:
    """An idle pooled device holds only its construction image.

    One device goes through every source of state a tenant can leave
    behind — megabytes of buffer writes, a heap ``malloc``, a
    partitioned-RCache §6.2 pair, an undrained violating launch, an
    attached observer and a swapped-in tool checker — and is released.
    In the pool it must equal its baseline, and once acquired under a
    new seed it must run exactly like a cold device built with it.
    """

    BIG = 4 << 20

    def _config(self, shielded):
        shield = (ShieldConfig(enabled=True,
                               bcu=BCUConfig(partition_rcache=True))
                  if shielded else None)
        return nvidia_config(num_cores=2), shield

    @staticmethod
    def _relaunches(device, launches=5, finish=True):
        """One vecadd relaunched on the same buffers: per launch, its
        result, its violations (when ``finish``) and the core runs it
        simulated."""
        drv = device.driver
        a, b, c = (drv.malloc(4 * N) for _ in range(3))
        drv.write(a, struct.pack(f"<{N}i", *range(N)))
        drv.write(b, struct.pack(f"<{N}i", *range(N)))
        kernel = build_vecadd()
        out = []
        for _ in range(launches):
            runs = _CoreRuns.count
            launch = drv.launch(kernel, {"a": a, "b": b, "c": c, "n": N},
                                2, 64)
            result = device.gpu.run(launch)
            violations = drv.finish(launch) if finish else None
            out.append((result, violations, _CoreRuns.count - runs))
        return out

    def _dirty(self, device):
        tracer = _tracer()
        device.gpu.observe(tracer)
        drv = device.driver
        big = drv.malloc(self.BIG, name="big")
        drv.write(big, bytes(range(256)) * (self.BIG // 256))
        drv.heap.device_malloc(256)
        _run_pair(device, "intra_core")
        TestWarmPoolViolationHygiene()._violating_launch(device)
        # A relaunch record (fast engine): unobserved, and unfinished so
        # the violation log stays undrained.
        device.gpu.observe()
        self._relaunches(device, finish=False)
        relaunch = device.gpu.relaunch
        assert relaunch is None or relaunch.record is not None
        device.gpu.observe(tracer)
        for core in device.gpu.cores:
            core.pipeline.checker = _ToolChecker()
        # Every source really left something behind.
        assert tracer.stream
        assert drv.memory.resident_bytes() > self.BIG
        assert drv.heap.used > 0
        assert any(device.stats.snapshot().as_dict().values())
        assert bool(device.shield.log.records) == device.shield.enabled

    @staticmethod
    def _observed(device):
        result, violations, _c = _vecadd(device)
        return (result, violations, device.driver.memory.snapshot_chunks(),
                device.stats.snapshot().as_dict())

    def test_released_device_holds_only_its_baseline(self, eng, shielded):
        config, shield = self._config(shielded)
        with engine(eng), warm_devices(True):
            device = acquire_device(config, shield, seed=5)
            self._dirty(device)
            release_device(device)
            assert device_cache_stats()["idle"] == 1

            state = device.snapshot()._driver_state
            baseline = device._baseline._driver_state
            assert state.keys() == baseline.keys()
            for part in baseline:   # chunks, pages, cursors, heap, rng, ...
                assert state[part] == baseline[part], part
            assert not any(device.stats.snapshot().as_dict().values())
            assert _unobserved(device.gpu)
            relaunch = device.gpu.relaunch
            assert relaunch is None or relaunch.record is None
            for core in device.gpu.cores:
                checker = core.pipeline.checker
                if core.bcu is None:
                    assert checker is None
                else:
                    assert type(checker) is type(core.bcu.as_checker())
                    assert checker.bcu is core.bcu
            assert device_cache_stats()["idle_bytes"] == sum(
                len(blob) for blob in baseline["chunks"].values())

    def test_reacquired_device_runs_like_a_cold_one(self, eng, shielded):
        config, shield = self._config(shielded)
        with engine(eng), warm_devices(True):
            cold = self._observed(GpuDevice(config, shield=shield, seed=29))
            device = acquire_device(config, shield, seed=5)
            self._dirty(device)
            release_device(device)
            again = acquire_device(config, shield, seed=29)
            assert again is device
            assert again.seed == 29
            assert self._observed(again) == cold
            release_device(again)

    def test_reacquired_device_simulates_its_first_relaunches(self, eng,
                                                              shielded):
        config, shield = self._config(shielded)
        with engine(eng), warm_devices(True), _CoreRuns.spy():
            cold = self._relaunches(GpuDevice(config, shield=shield,
                                              seed=29))
            device = acquire_device(config, shield, seed=5)
            self._dirty(device)
            release_device(device)
            again = acquire_device(config, shield, seed=29)
            assert again is device
            assert self._relaunches(again) == cold
            release_device(again)
        # Signature, key and probe launches simulate on both engines.
        assert all(runs for _r, _v, runs in cold[:3])


@pytest.mark.parametrize("eng", ENGINES)
@pytest.mark.parametrize("store", ["affine", "scattered", "host"])
class TestCopyOnWriteIsolation:
    """Pooled devices share each cached init payload; stores never do.

    Two runners load the same workload, so both devices' buffer chunks
    are views of the one ``bytes`` object in the init-bytes cache.  A
    store on one device — a contiguous warp store (the fast lane's
    ``_bulk_stores``), a strided one (``_fast_stores``), either of them
    on the reference pipeline under the slow engine, or a host
    ``driver.write`` of a ``bytearray`` — must change that device only:
    not the other device, not the cached payload, not a snapshot taken
    before it, and not the host buffer the host goes on to reuse.
    """

    CHUNK = 1 << 16
    WORDS = 3 * CHUNK // 4
    SEED = 11

    @staticmethod
    def _store_kernel(stride):
        from repro.isa.builder import KernelBuilder
        b = KernelBuilder(f"store_stride{stride}")
        data = b.arg_ptr("data")
        base = b.arg_scalar("base")
        value = b.arg_scalar("value")
        b.st_idx(data, b.mad(b.gtid(), stride, base), value, dtype="i32")
        return b.build()

    def _workload(self):
        from repro.workloads.templates import BufferSpec, Workload
        return Workload(
            name="cow-isolation", runs=[],
            buffers=[BufferSpec("data", 4 * self.WORDS, init="iota")])

    def _shared(self, runner, payload):
        memory = runner.device.driver.memory
        return {i for i, chunk in memory._chunks.items()
                if type(chunk) is memoryview and chunk.obj is payload}

    def _store(self, runner, store, word, value, expected):
        """Store ``value`` at ``word`` and after it on one device, and
        record the same in ``expected``."""
        buf = runner.buffers["data"]
        if store == "host":
            blob = bytearray(struct.pack("<i", value) * (self.CHUNK // 4))
            runner.session.driver.write(buf, blob, 4 * word)
            expected[4 * word:4 * word + len(blob)] = blob
            blob[:] = bytes(len(blob))    # the host reuses its buffer
            return
        stride = 1 if store == "affine" else 3
        _result, violations = runner.device.run(
            self._store_kernel(stride),
            {"data": buf, "base": word, "value": value}, 1, 32)
        assert violations == []
        for lane in range(32):
            at = 4 * (word + lane * stride)
            expected[at:at + 4] = struct.pack("<i", value)

    def test_store_changes_only_its_own_device(self, eng, store,
                                               monkeypatch):
        from repro.analysis.harness import WorkloadRunner
        from repro.device.memo import init_payload
        from repro.gpu.fastpath import FastMemoryPipeline
        calls = {"_bulk_stores": 0, "_fast_stores": 0}
        for name in calls:
            original = getattr(FastMemoryPipeline, name)

            def counted(self, *args, _original=original, _name=name):
                calls[_name] += 1
                return _original(self, *args)
            monkeypatch.setattr(FastMemoryPipeline, name, counted)

        cfg = nvidia_config(num_cores=1)
        with engine(eng), warm_devices(True):
            mine = WorkloadRunner(self._workload(), config=cfg, seed=self.SEED)
            other = WorkloadRunner(self._workload(), config=cfg,
                                   seed=self.SEED)
            try:
                assert mine.device is not other.device
                payload = init_payload(
                    "iota", self.WORDS, self.SEED * 1009,
                    lambda: pytest.fail("payload was not cached"))
                original = struct.pack(f"<{self.WORDS}i", *range(self.WORDS))
                shared = self._shared(mine, payload)
                assert shared and shared == self._shared(other, payload)

                buf = mine.buffers["data"]
                # The first whole chunk of the buffer, in words.
                word = (-buf.va % self.CHUNK) // 4
                expected = bytearray(original)
                drv = mine.session.driver
                before = mine.device.snapshot()
                self._store(mine, store, word, 0x5A5A5A5A, expected)
                stored = bytes(expected)
                assert drv.read(buf) == stored
                # A later store leaves this snapshot be too.
                middle = mine.device.snapshot()
                self._store(mine, store, word, -7, expected)
                assert drv.read(buf) == expected != stored

                assert other.session.driver.read(other.buffers["data"]) \
                    == original
                assert self._shared(other, payload) == shared
                assert payload == original
                mine.device.restore(middle)
                assert drv.read(buf) == stored
                mine.device.restore(before)
                assert drv.read(buf) == original
            finally:
                mine.close()
                other.close()
        # Host writes and the reference pipeline run neither fast method.
        expected_calls = dict.fromkeys(calls, 0)
        if eng == "fast" and store != "host":
            path = "_bulk_stores" if store == "affine" else "_fast_stores"
            expected_calls[path] = 2
        assert calls == expected_calls
