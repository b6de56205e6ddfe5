"""Tests for the run harness and result records."""

import json
import os

import pytest

from repro import ShieldConfig, nvidia_config
from repro.analysis.harness import (LaunchInterposer, WorkloadRunner,
                                    run_benchmark, run_workload)
from repro.analysis.results import RunRecord, geomean, load_records, save_records
from repro.workloads.suite import get_benchmark
from repro.workloads.templates import gather, streaming

CFG = nvidia_config(num_cores=2)


class TestRunWorkload:
    def test_record_fields(self):
        record = run_workload(streaming("s", n=128, wg_size=64), CFG,
                              None, "base")
        assert record.benchmark == "s"
        assert record.config == "base"
        assert record.cycles > 0
        assert record.launches == 1
        assert not record.aborted
        assert record.violations == 0

    def test_repeats_accumulate(self):
        once = run_workload(streaming("s", n=128, wg_size=64), CFG)
        wl = streaming("s", n=128, wg_size=64)
        wl.repeats = 3
        thrice = run_workload(wl, CFG)
        assert thrice.launches == 3
        # Later launches run warm (caches/TLBs already filled), so cycles
        # grow sub-linearly; instruction counts are exact.
        assert thrice.instructions == 3 * once.instructions
        assert thrice.cycles > once.cycles

    def test_shield_stats_populated(self):
        record = run_workload(gather("g", n=128, wg_size=64, data_len=128),
                              CFG, ShieldConfig(enabled=True), "shield")
        assert 0.0 <= record.l1_rcache_hit_rate <= 1.0
        assert record.check_reduction_percent > 0

    def test_violation_raises_by_default(self):
        # data_len larger than the actual data buffer -> OOB indices.
        wl = gather("bad", n=128, wg_size=64, data_len=128)
        # Corrupt the index init to point far outside.
        bad_spec = wl.buffers[0].__class__(
            name="idx", nbytes=128 * 4, init="index:data:100000",
            read_only=True)
        wl.buffers[0] = bad_spec
        with pytest.raises(AssertionError):
            run_workload(wl, CFG, ShieldConfig(enabled=True))

    def test_allow_violations_flag(self):
        wl = gather("bad", n=128, wg_size=64, data_len=128)
        wl.buffers[0] = wl.buffers[0].__class__(
            name="idx", nbytes=128 * 4, init="index:data:100000",
            read_only=True)
        record = run_workload(wl, CFG, ShieldConfig(enabled=True),
                              allow_violations=True)
        assert record.violations > 0

    def test_run_benchmark_by_def(self):
        record = run_benchmark(get_benchmark("vectoradd"), CFG)
        assert record.benchmark == "vectoradd"


class TestRunnerHooks:
    def test_hooks_charge_cycles(self):
        class Flat(LaunchInterposer):
            def pre_launch(self, runner, result):
                return 1000

            def post_launch(self, runner, result):
                return 500

        wl = streaming("s", n=128, wg_size=64)
        runner = WorkloadRunner(wl, CFG)
        plain = WorkloadRunner(streaming("s", n=128, wg_size=64), CFG).run()
        hooked = runner.run(interposer=Flat())
        assert hooked.cycles == plain.cycles + 1500


class TestRecords:
    def test_normalized(self):
        base = RunRecord(benchmark="x", config="base", cycles=100)
        other = RunRecord(benchmark="x", config="s", cycles=150)
        assert other.normalized_to(base) == pytest.approx(1.5)

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([]) == 0.0
        assert geomean([2.0, 0.0]) == pytest.approx(2.0)   # zeros skipped

    def test_save_load_roundtrip(self, tmp_path):
        records = [RunRecord(benchmark="a", config="c", cycles=5,
                             extra={"k": 1.0})]
        path = tmp_path / "r.json"
        save_records(records, str(path))
        loaded = load_records(str(path))
        assert loaded[0].benchmark == "a"
        assert loaded[0].extra == {"k": 1.0}


class TestResultRecordClobberGuard:
    def test_newer_schema_record_is_not_overwritten(self, tmp_path):
        from repro.analysis.bench import (RESULT_SCHEMA,
                                          write_result_record)
        results = str(tmp_path)
        path = os.path.join(results, "record.json")
        with open(path, "w") as fh:
            json.dump({"schema": RESULT_SCHEMA + 1, "name": "record"}, fh)
        with pytest.raises(ValueError, match="newer"):
            write_result_record(results, "record", "text")
        # The newer record survives untouched.
        with open(path) as fh:
            assert json.load(fh)["schema"] == RESULT_SCHEMA + 1

    def test_same_schema_record_overwrites_normally(self, tmp_path):
        from repro.analysis.bench import write_result_record
        results = str(tmp_path)
        write_result_record(results, "record", "one", metrics={"v": 1})
        write_result_record(results, "record", "two", metrics={"v": 2})
        with open(os.path.join(results, "record.json")) as fh:
            assert json.load(fh)["metrics"]["v"] == 2


class TestInitKinds:
    def test_bad_init_rejected(self):
        from repro.workloads.templates import BufferSpec
        wl = streaming("s", n=128, wg_size=64)
        wl.buffers[0] = BufferSpec(name="in0", nbytes=512, init="mystery")
        with pytest.raises(ValueError):
            run_workload(wl, CFG)

    def test_iota_and_csr_inits(self):
        from repro.workloads.templates import BufferSpec
        wl = streaming("s", n=128, wg_size=64)
        wl.buffers[0] = BufferSpec(name="in0", nbytes=512, init="iota")
        runner = WorkloadRunner(wl, CFG)
        blob = runner.session.driver.read(runner.buffers["in0"], 16)
        import struct
        assert struct.unpack("<4i", blob) == (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# Counter totals vs the registry-snapshot formulas they replaced
# ---------------------------------------------------------------------------


def _launch_oracle(before, after):
    """``GPU.run``'s LaunchResult counters as registry-snapshot formulas:
    issue-counter deltas, cumulative hit rates and RBT fills."""
    def delta(path):
        return int(after.total(path)) - int(before.total(path))

    return {
        "instructions": delta("cores.*.issue.instructions"),
        "mem_instructions": delta("cores.*.issue.mem_instructions"),
        "transactions": delta("cores.*.issue.transactions"),
        "bcu_stall_cycles": delta("cores.*.issue.bcu_stall_cycles"),
        "l1d_hit_rate": after.hit_rate("cores.*.l1d"),
        "l1_rcache_hit_rate": after.hit_rate("cores.*.rcache.l1"),
        "l2_rcache_hit_rate": after.hit_rate("cores.*.rcache.l2"),
        "check_reduction_percent": after.ratio_percent(
            "cores.*.bcu.checks_skipped_static",
            "cores.*.bcu.mem_instructions"),
        "rbt_fills": int(after.total("cores.*.bcu.rbt_fills")),
        "violations": int(after.get("shield.log.violations", 0)),
    }


def _record_oracle(snap, shielded):
    """``WorkloadRunner.run``'s end-of-run RunRecord statistics."""
    want = {"l1d_hit_rate": snap.hit_rate("cores.*.l1d")}
    if shielded:
        want.update(
            l1_rcache_hit_rate=snap.hit_rate("cores.*.rcache.l1"),
            l2_rcache_hit_rate=snap.hit_rate("cores.*.rcache.l2"),
            check_reduction_percent=snap.ratio_percent(
                "cores.*.bcu.checks_skipped_static",
                "cores.*.bcu.mem_instructions"),
            bcu_stall_cycles=int(snap.total("cores.*.bcu.stall_cycles")),
            rbt_fills=int(snap.total("cores.*.bcu.rbt_fills")))
    return want


def _run_gather(shield):
    wl = gather("g", n=256, wg_size=64, data_len=256)
    wl.repeats = 2
    runner = WorkloadRunner(wl, CFG, shield)
    try:
        runner.run()
    finally:
        runner.close()


def _run_partitioned_pair():
    """§6.2: two co-resident kernels over partitioned RCaches."""
    from repro import GpuSession, KernelBuilder
    from repro.core.bcu import BCUConfig

    def fill(name, value):
        b = KernelBuilder(name)
        out = b.arg_ptr("out")
        g = b.gtid()
        b.st_idx(out, g, b.add(b.ld_idx(out, g, dtype="i32"), value),
                 dtype="i32")
        return b.build()

    # No static analysis: every access takes the RBT/RCache path.
    session = GpuSession(nvidia_config(num_cores=2), shield=ShieldConfig(
        enabled=True, static_analysis=False,
        bcu=BCUConfig(partition_rcache=True, l1_entries=1)))
    bufs = [session.driver.malloc(256 * 4, name=name) for name in "ab"]
    for mode in ("intra_core", "inter_core"):
        launches = [session.driver.launch(fill(f"k{mode}{i}", 100 * i),
                                          {"out": buf}, 4, 64)
                    for i, buf in enumerate(bufs)]
        session.run_pair(launches, mode=mode)


def _run_stale_replay():
    """A two-launch case through all six protection configs."""
    from repro.fuzz import CaseGenerator, run_case

    outcome = run_case(CaseGenerator(9).draw_kind("stale_replay", 0))
    assert outcome.ok, outcome.cell_failures


_SCENARIOS = {
    "shield-off": lambda: _run_gather(None),
    "shield-on": lambda: _run_gather(ShieldConfig(enabled=True)),
    "partitioned-pair": _run_partitioned_pair,
    "stale-replay": _run_stale_replay,
}


class TestCounterTotalsOracle:
    """``GPU.totals`` must give every LaunchResult and RunRecord field
    exactly what the registry snapshots gave, on both engines."""

    @pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
    def test_matches_snapshot_formulas(self, monkeypatch, scenario):
        from dataclasses import asdict

        from repro.engine import engine
        from repro.gpu.gpu import GPU

        gpu_run, runner_run = GPU.run, WorkloadRunner.run
        observed = {}
        for engine_name in ("slow", "fast"):
            launches, records = [], []

            def checked_gpu_run(gpu, *args, **kwargs):
                before = gpu.stats.snapshot()
                result = gpu_run(gpu, *args, **kwargs)
                got = asdict(result)
                want = _launch_oracle(before, gpu.stats.snapshot())
                assert {k: got[k] for k in want} == want
                launches.append(got)
                return result

            def checked_runner_run(runner, *args, **kwargs):
                record = runner_run(runner, *args, **kwargs)
                want = _record_oracle(runner.session.stats.snapshot(),
                                      runner.session.shield.enabled)
                assert {k: getattr(record, k) for k in want} == want
                records.append(record.to_json())
                return record

            monkeypatch.setattr(GPU, "run", checked_gpu_run)
            monkeypatch.setattr(WorkloadRunner, "run", checked_runner_run)
            with engine(engine_name):
                _SCENARIOS[scenario]()
            monkeypatch.undo()
            observed[engine_name] = (launches, records)
        assert observed["slow"] == observed["fast"]
        launches, _records = observed["fast"]
        assert launches
        if scenario != "shield-off":
            assert any(r["rbt_fills"] for r in launches)
