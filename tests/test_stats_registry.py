"""Unit tests for the unified stats registry and the launch interposer."""

from dataclasses import dataclass

import pytest

from repro import GpuSession, ShieldConfig, nvidia_config
from repro.analysis.harness import LaunchInterposer, WorkloadRunner
from repro.analysis.stats import StatsRegistry
from repro.workloads.templates import BufferSpec, KernelRun, Workload, _buf, _scalar
from tests.conftest import build_vecadd


@dataclass
class FakeCacheStats:
    hits: int = 0
    misses: int = 0
    _private: int = 99          # underscore counters stay hidden
    name: str = "l1"            # non-numeric attributes stay hidden
    enabled: bool = True        # bools are flags, not counters


class TestRegistry:
    def test_sources_dataclass_dict_callable(self):
        reg = StatsRegistry()
        reg.register("cores.0.l1d", FakeCacheStats(hits=3, misses=1))
        reg.register("dram", {"accesses": 7, "label": "hbm"})
        reg.register("shield.log", lambda: {"violations": 2})
        snap = reg.snapshot()
        assert snap.get("cores.0.l1d.hits") == 3
        assert snap.get("dram.accesses") == 7
        assert snap.get("shield.log.violations") == 2
        # Non-numeric / underscore / bool fields never become counters.
        for absent in ("cores.0.l1d._private", "cores.0.l1d.name",
                       "cores.0.l1d.enabled", "dram.label"):
            assert absent not in snap

    def test_snapshot_is_frozen_but_sources_are_live(self):
        reg = StatsRegistry()
        stats = FakeCacheStats(hits=1)
        reg.register("l1", stats)
        before = reg.snapshot()
        stats.hits = 10
        assert before.get("l1.hits") == 1
        assert reg.snapshot().get("l1.hits") == 10

    def test_wildcard_totals(self):
        reg = StatsRegistry()
        for i in range(3):
            reg.register(f"cores.{i}.l1d", FakeCacheStats(hits=i, misses=1))
        snap = reg.snapshot()
        assert snap.total("cores.*.l1d.hits") == 0 + 1 + 2
        assert snap.total("cores.*.l1d.misses") == 3
        # One segment per ``*`` — no deep-glob surprises.
        assert snap.total("cores.*.hits") == 0
        assert set(snap.select("cores.1.l1d.*")) == {"cores.1.l1d.hits",
                                                     "cores.1.l1d.misses"}

    def test_hit_rate_and_vacuous_convention(self):
        reg = StatsRegistry()
        reg.register("cores.0.l1d", FakeCacheStats(hits=9, misses=1))
        reg.register("cores.1.l1d", FakeCacheStats())
        snap = reg.snapshot()
        assert snap.hit_rate("cores.0.l1d") == 0.9
        # Never-accessed components are vacuously hot — matches the
        # CacheStats convention (repro.utils.stats), which caches, TLBs
        # and RCaches all share.
        assert snap.hit_rate("cores.1.l1d") == 1.0
        assert snap.hit_rate("cores.*.l1d") == 0.9

    def test_ratio_percent_empty_denominator(self):
        reg = StatsRegistry()
        reg.register("bcu", {"skipped": 5, "mem": 0})
        snap = reg.snapshot()
        assert snap.ratio_percent("bcu.skipped", "bcu.mem") == 0.0
        reg.register("bcu", {"skipped": 5, "mem": 20})
        assert reg.snapshot().ratio_percent("bcu.skipped", "bcu.mem") == 25.0

    def test_register_replaces_and_unregister(self):
        reg = StatsRegistry()
        reg.register("dram", {"accesses": 1})
        reg.register("dram", {"accesses": 2})
        assert reg.snapshot().get("dram.accesses") == 2
        reg.unregister("dram")
        assert reg.paths() == []
        reg.unregister("dram")  # idempotent

    def test_bad_paths_rejected(self):
        reg = StatsRegistry()
        for bad in ("", ".l1", "l1."):
            with pytest.raises(ValueError):
                reg.register(bad, {})

    def test_tree_and_render(self):
        reg = StatsRegistry()
        reg.register("cores.0.l1d", FakeCacheStats(hits=4, misses=2))
        reg.register("dram", {"rate": 0.5})
        snap = reg.snapshot()
        assert snap.tree() == {
            "cores": {"0": {"l1d": {"hits": 4, "misses": 2}}},
            "dram": {"rate": 0.5},
        }
        text = snap.render("run stats")
        assert text.splitlines()[0] == "run stats"
        assert "    l1d:" in text and "rate: 0.5000" in text


class TestGpuRegistry:
    """The GPU wires its components into one registry at construction."""

    def test_session_exposes_component_paths(self):
        session = GpuSession(nvidia_config(num_cores=2),
                             shield=ShieldConfig(enabled=True))
        paths = session.stats.paths()
        for expected in ("l2cache", "l2tlb", "dram", "cores.0.l1d",
                         "cores.1.issue", "cores.0.bcu",
                         "cores.0.rcache.l1", "shield.log"):
            assert expected in paths

    def test_counters_track_a_real_run(self):
        session = GpuSession(nvidia_config(num_cores=2),
                             shield=ShieldConfig(enabled=True))
        n = 128
        bufs = {name: session.driver.malloc(n * 4) for name in "abc"}
        result, _ = session.run(build_vecadd(), {**bufs, "n": n}, 2, 64)
        assert result.ok
        snap = session.stats.snapshot()
        assert snap.total("cores.*.issue.instructions") > 0
        assert snap.total("cores.*.bcu.mem_instructions") > 0
        assert snap.get("shield.log.violations") == 0
        assert 0.0 <= snap.hit_rate("cores.*.l1d") <= 1.0

    def test_bcu_reset_does_not_stale_the_registry(self):
        """BCU.reset_stats reassigns its stats object; the registry must
        read through to the live one."""
        session = GpuSession(nvidia_config(num_cores=1),
                             shield=ShieldConfig(enabled=True))
        n = 64
        bufs = {name: session.driver.malloc(n * 4) for name in "abc"}
        session.run(build_vecadd(), {**bufs, "n": n}, 1, 64)
        assert session.stats.snapshot().total(
            "cores.*.bcu.mem_instructions") > 0
        for core in session.gpu.cores:
            core.bcu.reset_stats()
        assert session.stats.snapshot().total(
            "cores.*.bcu.mem_instructions") == 0


def _vecadd_workload(n: int = 256) -> Workload:
    return Workload(
        name="vecadd-test",
        buffers=[BufferSpec("a", n * 4, "iota", read_only=True),
                 BufferSpec("b", n * 4, "iota", read_only=True),
                 BufferSpec("c", n * 4, "zero")],
        runs=[KernelRun(build_vecadd(),
                        {"a": _buf("a"), "b": _buf("b"), "c": _buf("c"),
                         "n": _scalar(n)},
                        workgroups=4, wg_size=64)])


class TestLaunchInterposer:
    def test_default_hooks_are_free(self):
        class Passive(LaunchInterposer):
            pass

        runner = WorkloadRunner(_vecadd_workload(),
                                nvidia_config(num_cores=2))
        baseline = WorkloadRunner(_vecadd_workload(),
                                  nvidia_config(num_cores=2))
        charged = runner.run(interposer=Passive())
        free = baseline.run()
        assert charged.cycles == free.cycles

    def test_interposer_charges_cycles(self):
        class Canaryish(LaunchInterposer):
            def __init__(self):
                self.pre_calls = 0
                self.post_results = []

            def pre_launch(self, runner, result):
                self.pre_calls += 1
                assert result is None
                return 100

            def post_launch(self, runner, result):
                self.post_results.append(result)
                return 10

        tool = Canaryish()
        runner = WorkloadRunner(_vecadd_workload(),
                                nvidia_config(num_cores=2))
        baseline = WorkloadRunner(_vecadd_workload(),
                                  nvidia_config(num_cores=2))
        record = runner.run(interposer=tool)
        free = baseline.run()
        launches = tool.pre_calls
        assert launches == len(tool.post_results) > 0
        assert all(r is not None and r.ok for r in tool.post_results)
        assert record.cycles == free.cycles + 110 * launches
