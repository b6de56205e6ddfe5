"""The device lifecycle layer: reset == fresh, snapshot/restore, cache.

The contract under test is the warm path's bit-identity promise: a
:meth:`~repro.device.GpuDevice.reset` device must be observably
indistinguishable — cycles, statistics, buffer bytes, violations — from
a freshly constructed one with the same seed, under both engines and
for §6.2 co-resident pairs.  The cache tests pin the reuse key
(configuration fingerprint, never the seed) and the idle-pool bounds.
"""

import struct

import pytest

from repro.analysis.stats import StatsRegistry
from repro.core.shield import ShieldConfig
from repro.device import (MAX_IDLE_PER_KEY, GpuDevice, acquire_device,
                          device_cache_stats, device_fingerprint,
                          max_idle_per_key, release_device,
                          reset_device_cache, set_max_idle_per_key,
                          set_warm_devices, warm_devices,
                          warm_devices_enabled)
from repro.device.selftest import device_selftest_job
from repro.engine import ENGINES, engine
from repro.gpu.config import intel_config, nvidia_config
from tests.conftest import build_vecadd

N = 64


def _device(seed=11, shielded=True, cores=2):
    shield = ShieldConfig(enabled=True) if shielded else None
    return GpuDevice(nvidia_config(num_cores=cores), shield=shield,
                     seed=seed)


def _run_vecadd(device):
    """One vecadd through the launch queue; returns an observables tuple."""
    drv = device.driver
    a = drv.malloc(4 * N, name="a", read_only=True)
    b = drv.malloc(4 * N, name="b", read_only=True)
    c = drv.malloc(4 * N, name="c")
    drv.write(a, struct.pack(f"<{N}i", *range(N)))
    drv.write(b, struct.pack(f"<{N}i", *range(0, 2 * N, 2)))
    result, violations = device.run(build_vecadd(),
                                    {"a": a, "b": b, "c": c, "n": N}, 2, 64)
    return (result.cycles, drv.read(c), len(violations),
            tuple(sorted(device.stats.snapshot().as_dict().items())))


def _run_pair(device, mode):
    """Two co-resident vecadds (§6.2) through the launch queue."""
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

    @pytest.mark.parametrize("eng", ENGINES)
    def test_selftest_job_passes(self, eng):
        result = device_selftest_job({"engine": eng, "seed": 13})
        assert result["identical"]

    def test_selftest_runs_as_a_runner_job(self):
        from repro.runner import JobSpec, run_jobs
        plan = [JobSpec(job_id="selftest", kind="device.selftest",
                        payload={"seed": 17})]
        report = run_jobs(plan, jobs=0)
        assert report.ok
        assert report.stats.get("device.selftest.identical") == 1


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

    def test_snapshot_refuses_queued_launches(self):
        device = _device(seed=5)
        drv = device.driver
        a = drv.malloc(4 * N, read_only=True)
        b = drv.malloc(4 * N, read_only=True)
        c = drv.malloc(4 * N)
        device.submit(build_vecadd(), {"a": a, "b": b, "c": c, "n": N},
                      2, 64)
        assert device.pending == 1
        with pytest.raises(RuntimeError, match="queued launches"):
            device.snapshot()
        device.drain()
        assert device.pending == 0
        device.snapshot()   # quiesced again

    def test_drain_is_fifo_over_queued_entries(self):
        device = _device(seed=3)
        drv = device.driver
        for _ in range(3):
            a = drv.malloc(4 * N, read_only=True)
            b = drv.malloc(4 * N, read_only=True)
            c = drv.malloc(4 * N)
            device.submit(build_vecadd(),
                          {"a": a, "b": b, "c": c, "n": N}, 2, 64)
        assert device.pending == 3
        results = device.drain()
        assert len(results) == 3
        assert device.pending == 0
        assert device.launches_run == 3


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
        assert stats["resets"] == 1
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

    def test_max_idle_is_configurable(self):
        cfg = nvidia_config(num_cores=2)
        previous = set_max_idle_per_key(2)
        try:
            assert max_idle_per_key() == 2
            assert device_cache_stats()["max_idle_per_key"] == 2
            devices = [acquire_device(cfg, None, seed=i) for i in range(4)]
            for device in devices:
                release_device(device)
            stats = device_cache_stats()
            assert stats["idle"] == 2
            assert stats["evictions"] == 2
        finally:
            set_max_idle_per_key(previous)

    def test_shrinking_the_limit_evicts_oldest_first(self):
        cfg = nvidia_config(num_cores=2)
        previous = set_max_idle_per_key(3)
        try:
            devices = [acquire_device(cfg, None, seed=i) for i in range(3)]
            for device in devices:
                release_device(device)
            assert device_cache_stats()["idle"] == 3
            assert set_max_idle_per_key(1) == 3
            stats = device_cache_stats()
            assert stats["idle"] == 1
            assert stats["evictions"] == 2
            # The survivor is the most recently released device.
            assert acquire_device(cfg, None, seed=9) is devices[-1]
            release_device(devices[-1])
        finally:
            set_max_idle_per_key(previous)

    def test_negative_limit_is_rejected(self):
        with pytest.raises(ValueError):
            set_max_idle_per_key(-1)

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
        # Warm again by the time it is released (the compare-warm legs
        # flip the switch between runs): still dropped.
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

    def test_reset_device_cache_clears_memo_and_clock(self):
        from repro.device import provision_seconds, warm_memo_stats
        self._cell()
        assert warm_memo_stats()["cells"] == 1
        assert provision_seconds() > 0
        reset_device_cache()
        assert warm_memo_stats()["cells"] == 0
        assert provision_seconds() == 0.0


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
