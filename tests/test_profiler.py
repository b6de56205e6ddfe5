"""Profiler attribution: reconciliation, engines, and the hook seam."""

import pytest

from repro.analysis.harness import default_shield, run_workload
from repro.engine import engine
from repro.gpu.config import nvidia_config
from repro.profiler import (Profiler, profile_benchmark, profile_case,
                            profile_workload)
from repro.profiler.report import flame, render, top_rows
from repro.fuzz.generator import CaseGenerator
from repro.workloads.suite import get_benchmark


def _config():
    return nvidia_config(num_cores=1)


class TestReconciliation:
    @pytest.mark.parametrize("eng", ["slow", "fast"])
    def test_workload_reconciles_exactly(self, eng):
        with engine(eng):
            report = profile_benchmark("bfs", config=_config())
        assert report.mismatches == []
        assert report.reconciled

    def test_attack_case_reconciles_with_blocked_commits(self):
        spec = CaseGenerator(3).draw_kind("overflow", 0)
        report = profile_case(spec, config=_config())
        assert report.mismatches == []
        snap = report.snapshot
        assert snap.total("cores.*.commit.blocked") > 0

    def test_stage_sum_equals_total_latency(self):
        report = profile_benchmark("gaussian", config=_config())
        snap = report.snapshot
        stages = snap.stage_cycles()
        attributed = (stages["issue"] + stages["coalesce"]
                      + stages["translate"] + stages["cache"]
                      + stages["check"] + stages["shared"])
        assert attributed == snap.latency_cycles()

    def test_shield_substeps_populated_under_default_shield(self):
        report = profile_benchmark("bfs", config=_config())
        snap = report.snapshot
        checked = snap.total("cores.*.check.checked")
        assert checked > 0
        # Every checked access is static-skipped, type2 or type3.
        assert checked == (snap.total("cores.*.check.static_skipped")
                           + snap.total("cores.*.check.type2")
                           + snap.total("cores.*.check.type3"))
        # Type2 checks probe the L1 RCache; probes = hits + misses.
        probes = snap.total("cores.*.check.rcache_l1_probes")
        assert probes == snap.total("cores.*.check.type2")
        assert probes >= snap.total("cores.*.check.rcache_l1_hits")


class TestPinnedCycles:
    """Simulated cycles and profiler attribution, pinned exactly.

    These values are deterministic on every host, so any drift is a
    change to the timing model.  An intended change re-pins them in the
    same commit that moves them, and says why.
    """

    #: (base cycles, GPUShield cycles, latency_cycles, check_cycles)
    PINNED = {
        "bfs": (16223, 16284, 395189, 63),
        "gaussian": (49099, 49099, 206548, 0),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_cycles_and_attribution(self, name):
        base = run_workload(get_benchmark(name).build(), config=_config(),
                            seed=11)
        report = profile_benchmark(name, config=_config(), seed=11)
        snap = report.snapshot
        check = (snap.total("cores.*.check.cycles")
                 + snap.total("cores.*.check.stall_cycles"))
        measured = (base.cycles, report.record.cycles,
                    snap.latency_cycles(), check)
        assert report.reconciled
        assert measured == self.PINNED[name], (
            f"{name}: measured {measured}, pinned {self.PINNED[name]}; "
            f"re-pin PINNED in the commit that changes the timing model")


class TestEngines:
    def test_counters_identical_across_engines(self):
        snaps = {}
        for eng in ("slow", "fast"):
            with engine(eng):
                snaps[eng] = profile_benchmark(
                    "bfs", config=_config()).snapshot
        assert snaps["slow"].counters == snaps["fast"].counters
        assert (snaps["slow"].counters_digest()
                == snaps["fast"].counters_digest())
        # The engine label is the only canonical difference.
        assert snaps["slow"].engines == frozenset({"slow"})
        assert snaps["fast"].engines == frozenset({"fast"})
        assert snaps["slow"].digest() != snaps["fast"].digest()

    def test_profiling_does_not_perturb_the_simulation(self):
        # The fast engine delegates hooked accesses to the reference
        # pipeline; the record it produces must still be bit-identical
        # to an unprofiled run (the engine contract extended to hooks).
        workload = get_benchmark("bfs").build()
        plain = run_workload(workload, config=_config(),
                             shield=default_shield(), seed=11)
        profiled = profile_workload(get_benchmark("bfs").build(),
                                    config=_config(),
                                    shield=default_shield(), seed=11)
        assert profiled.record.cycles == plain.cycles
        assert (profiled.record.mem_instructions
                == plain.mem_instructions)
        assert profiled.record.bcu_stall_cycles == plain.bcu_stall_cycles


class TestHookSeam:
    def test_detached_registry_contributes_nothing(self):
        from repro.analysis.harness import WorkloadRunner
        runner = WorkloadRunner(get_benchmark("bfs").build(),
                                config=_config(), shield=default_shield(),
                                seed=11)
        try:
            runner.run()
            snap = runner.session.stats.snapshot()
            assert not [k for k in snap.as_dict()
                        if k.startswith("profiler.")]
        finally:
            runner.close()

    def test_attached_profiler_feeds_the_stats_registry(self):
        from repro.analysis.harness import WorkloadRunner
        runner = WorkloadRunner(get_benchmark("bfs").build(),
                                config=_config(), shield=default_shield(),
                                seed=11)
        try:
            profiler = Profiler()
            runner.session.gpu.observe(profiler)
            runner.run()
            snap = runner.session.stats.snapshot()
            keys = [k for k in snap.as_dict()
                    if k.startswith("profiler.")]
            assert keys
            assert snap.get("profiler.cores.0.issue.accesses") > 0
        finally:
            runner.close()

    def test_engine_stamped_on_attach(self):
        report = profile_benchmark("bfs", config=_config())
        assert len(report.snapshot.engines) == 1


class TestReports:
    def test_flame_tree_values_consistent(self):
        report = profile_benchmark("bfs", config=_config())
        tree = flame(report.snapshot)
        assert tree["name"] == "gpu"
        assert tree["value"] == report.snapshot.latency_cycles()
        assert tree["value"] == sum(c["value"] for c in tree["children"])
        core = tree["children"][0]
        stages = {n["name"]: n for n in core["children"]}
        assert set(stages) == {"issue", "coalesce", "translate", "cache",
                               "check", "commit", "shared"}
        assert core["value"] == sum(n["value"]
                                    for n in core["children"])

    def test_top_rows_sorted_and_bounded(self):
        report = profile_benchmark("bfs", config=_config())
        rows = top_rows(report.snapshot, n=3)
        assert len(rows) <= 3
        cycles = [r["cycles"] for r in rows]
        assert cycles == sorted(cycles, reverse=True)

    def test_render_mentions_stages_and_subjects(self):
        report = profile_benchmark("bfs", config=_config())
        text = render(report.snapshot,
                      [{"subject": "bfs", "cycles": report.record.cycles,
                        "reconciled": True, "mismatches": []}])
        for token in ("cache", "check", "shield:", "bfs"):
            assert token in text
