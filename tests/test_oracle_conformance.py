"""Conformance-oracle tests: capture, diff, golden corpus, faults.

(tests/test_oracle.py is the older NumPy *results* oracle for the
workload templates; this file tests the trace-conformance subsystem in
src/repro/oracle/.)
"""

import dataclasses
import json

import pytest

from repro.analysis.trace import (TRACE_SCHEMA_VERSION, StageEvent,
                                  TraceEvent, event_from_wire,
                                  event_to_wire)
from repro.engine import ENGINES
from repro.oracle import (CoalescerFault, DiffResult,
                          FingerprintMismatchError, SchemaMismatchError,
                          capture, check_capture, diff_captures,
                          diff_wire_events)
from repro.oracle.capture import build_runner, expand_subjects
from repro.oracle.golden import (GOLDEN_ENGINE, GOLDEN_SUBJECTS,
                                 CorruptGoldenError, default_golden_root,
                                 golden_filename, load_golden,
                                 load_manifest, record_golden,
                                 verify_golden)
from repro.oracle.runner import oracle_diff_job, plan_diff_jobs
from repro.runner import run_jobs


class TestCapture:
    def test_capture_is_deterministic(self):
        a = capture("tpl:streaming", engine="fast")
        b = capture("tpl:streaming", engine="fast")
        assert a.wire_events() == b.wire_events()
        assert a.content_hash() == b.content_hash()

    def test_stage_level_off_keeps_access_events_only(self):
        cap = capture("tpl:streaming", engine="fast", stage_level=False)
        assert cap.events
        assert all(isinstance(e, TraceEvent) for e in cap.events)

    def test_stage_level_interleaves_stage_events(self):
        cap = capture("tpl:streaming", engine="fast", stage_level=True)
        kinds = {e.stage for e in cap.events
                 if isinstance(e, StageEvent)}
        assert kinds == {"coalesce", "translate", "cache", "check"}
        # Stage events of an access precede the access event itself.
        first = cap.events[0]
        assert isinstance(first, StageEvent)
        assert first.stage == "coalesce"

    def test_fuzz_subject_mirrors_campaign_recipe(self):
        cap = capture("fuzz:101", engine="fast")
        assert cap.subject == "fuzz:101"
        # Seed 101's first drawn case attacks: the trace must carry the
        # blocked event and the matching violation record.
        assert any(not e.allowed for e in cap.events
                   if isinstance(e, TraceEvent))
        assert cap.violations

    def test_unknown_subject_kinds_rejected(self):
        with pytest.raises(ValueError, match="subject kind"):
            build_runner("nope:thing")
        with pytest.raises(ValueError, match="template"):
            build_runner("tpl:missing")

    def test_expand_subjects(self):
        subjects = expand_subjects(["bfs", "lud"], fuzz_seeds=3,
                                   scale=0.5)
        assert subjects == ["bench:bfs@0.5", "bench:lud@0.5",
                            "fuzz:1", "fuzz:2", "fuzz:3"]


class TestDiff:
    def test_identical_captures_are_clean(self):
        a = capture("tpl:stencil", engine="fast")
        b = capture("tpl:stencil", engine="fast")
        result = diff_captures(a, b)
        assert result.ok
        assert result.divergence is None
        assert not result.stats_diff

    @pytest.mark.parametrize("subject", ["tpl:gather", "fuzz:7"])
    def test_slow_vs_fast_is_clean(self, subject):
        a = capture(subject, engine="slow")
        b = capture(subject, engine="fast")
        result = diff_captures(a, b)
        assert result.ok, result.describe()

    def test_first_divergent_event_reported_with_context(self):
        a = [{"event": "access", "cycle": c, "lo": 0} for c in range(6)]
        b = [dict(e) for e in a]
        b[4]["lo"] = 128
        div = diff_wire_events(a, b, context=2)
        assert div.index == 4
        assert div.fields == ["lo"]
        assert div.context == a[2:4]

    def test_length_mismatch_reported(self):
        a = [{"cycle": 0}, {"cycle": 1}]
        div = diff_wire_events(a, a[:1])
        assert div.index == 1
        assert div.fields == ["<length>"]
        assert div.b is None

    def test_schema_mismatch_refused(self):
        a = capture("tpl:scatter", engine="fast")
        b = dataclasses.replace(a, schema_version=a.schema_version - 1)
        with pytest.raises(SchemaMismatchError, match="schema_version"):
            diff_captures(a, b)

    def test_fingerprint_mismatch_refused(self):
        a = capture("tpl:scatter", engine="fast")
        b = dataclasses.replace(a, fingerprint="deadbeefdeadbeef")
        with pytest.raises(FingerprintMismatchError, match="fingerprint"):
            diff_captures(a, b)

    def test_stats_divergence_fails_even_with_equal_events(self):
        a = capture("tpl:scatter", engine="fast")
        stats = dict(a.stats)
        stats["cores.0.l1d.hits"] = stats.get("cores.0.l1d.hits", 0) + 1
        b = dataclasses.replace(a, stats=stats)
        result = diff_captures(a, b)
        assert not result.ok
        assert "cores.0.l1d.hits" in result.stats_diff


class TestFaultLocalization:
    def test_single_bit_coalescer_fault_localized(self):
        site = 5
        clean = capture("tpl:streaming", engine="fast")
        faulted = capture("tpl:streaming", engine="fast",
                          fault=CoalescerFault(site=site, bit=7))
        result = diff_captures(clean, faulted)
        assert not result.ok
        div = result.divergence
        # tpl:streaming emits exactly 5 events per access (coalesce,
        # translate, cache, check, access): the fault on the 5th
        # coalesce must surface as exactly that coalesce stage event.
        assert div.index == site * 5
        assert div.a["event"] == "coalesce"
        assert div.fields == ["segments"]
        flipped = [x ^ y for x, y in zip(div.a["segments"],
                                         div.b["segments"])]
        assert flipped == [1 << 7]

    def test_fault_localizes_identically_under_both_engines(self):
        divs = []
        for eng in ENGINES:
            clean = capture("tpl:streaming", engine=eng)
            faulted = capture("tpl:streaming", engine=eng,
                              fault=CoalescerFault(site=9, bit=7))
            div = diff_captures(clean, faulted).divergence
            divs.append((div.index, div.fields, div.a, div.b))
        assert divs[0] == divs[1]

    def test_fault_wrapper_is_removed_after_capture(self):
        from repro.gpu.pipeline import MemoryPipeline
        capture("tpl:streaming", engine="fast",
                fault=CoalescerFault(site=2))
        cap = capture("tpl:streaming", engine="fast")
        assert check_capture(cap).ok
        # No instance-attribute shadow may survive anywhere.
        runner, _ = build_runner("tpl:streaming")
        try:
            for core in runner.session.gpu.cores:
                assert "coalesce" not in core.pipeline.__dict__
                assert isinstance(core.pipeline, MemoryPipeline)
        finally:
            runner.close()


class TestGoldenCorpus:
    def test_checked_in_corpus_matches_both_engines(self):
        manifest = load_manifest()
        assert set(manifest["subjects"]) == set(GOLDEN_SUBJECTS)
        assert manifest["schema_version"] == TRACE_SCHEMA_VERSION
        for subject in GOLDEN_SUBJECTS:
            for eng in ENGINES:
                result, _capture = verify_golden(subject, engine=eng)
                assert result.ok, result.describe()

    def test_golden_hash_verification(self, tmp_path):
        record_golden(tmp_path, subjects=["tpl:streaming"],
                      engine=GOLDEN_ENGINE)
        path = tmp_path / golden_filename("tpl:streaming")
        golden = load_golden(path)
        assert golden.subject == "tpl:streaming"
        # Tamper with one event: the content hash must catch it.
        lines = path.read_text().splitlines()
        event = json.loads(lines[1])
        event["cycle"] += 1
        lines[1] = json.dumps(event, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptGoldenError, match="content-hash"):
            load_golden(path)

    def test_golden_schema_mismatch_refused(self, tmp_path):
        record_golden(tmp_path, subjects=["tpl:streaming"],
                      engine=GOLDEN_ENGINE)
        path = tmp_path / golden_filename("tpl:streaming")
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema_version"] = TRACE_SCHEMA_VERSION - 1
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaMismatchError,
                           match="re-record"):
            verify_golden("tpl:streaming", root=tmp_path, engine="fast")

    def test_regeneration_is_bit_identical(self, tmp_path):
        manifest = record_golden(tmp_path, subjects=["fuzz:101"],
                                 engine=GOLDEN_ENGINE)
        pinned = load_manifest()["subjects"]["fuzz:101"]["content_hash"]
        fresh = manifest["subjects"]["fuzz:101"]["content_hash"]
        assert fresh == pinned, (
            "regenerating a golden produced a different trace — either "
            "a regression or an intentional change that must re-record "
            "the corpus (python -m repro oracle record)")
        checked_in = load_golden(default_golden_root()
                                 / golden_filename("fuzz:101"))
        regenerated = load_golden(tmp_path / golden_filename("fuzz:101"))
        assert regenerated.wire_events() == checked_in.wire_events()


class TestWireFormat:
    def test_event_wire_roundtrip(self):
        access = TraceEvent(cycle=7, core=1, warp_id=3, kernel_id=2,
                            space="global", is_store=True, lo=256,
                            hi=383, transactions=1, active_lanes=32,
                            allowed=False)
        stage = StageEvent(stage="coalesce", cycle=7, core=1, warp_id=3,
                           kernel_id=2, space="global", is_store=True,
                           lo=256, hi=383, transactions=1,
                           segments=(256,), active_lanes=32)
        for event in (access, stage):
            wire = event_to_wire(event)
            assert event_from_wire(json.loads(json.dumps(wire))) == event

    def test_legacy_wire_form_still_parses(self):
        legacy = {"cycle": 1, "core": 0, "warp_id": 0, "kernel_id": 1,
                  "space": "global", "is_store": False, "lo": 0, "hi": 3,
                  "transactions": 1, "active_lanes": 4, "allowed": True}
        event = event_from_wire(legacy)
        assert isinstance(event, TraceEvent)


class TestRunnerIntegration:
    def test_diff_jobs_shard_across_the_pool(self, tmp_path):
        specs = plan_diff_jobs(["tpl:streaming", "fuzz:101"],
                               mode="engines")
        report = run_jobs(specs, jobs=2, run_name="oracle-test",
                          out_dir=str(tmp_path))
        assert report.ok
        payloads = [report.results[s.job_id].payload for s in specs]
        assert all(p["ok"] for p in payloads)
        assert [p["subject"] for p in payloads] == ["tpl:streaming",
                                                    "fuzz:101"]

    def test_job_reports_divergence_via_invariants(self):
        from repro.analysis.stats import StatsRegistry
        from repro.runner.job import JobContext, JobSpec
        spec = JobSpec(job_id="t", kind="oracle.diff", payload={})
        ctx = JobContext(spec=spec, stats=StatsRegistry(), attempt=1)
        out = oracle_diff_job({"subject": "fuzz:101", "mode": "engines",
                               "engines": ["slow", "fast"],
                               "stage_level": True, "invariants": True},
                              ctx)
        assert out["ok"]
        assert len(out["invariants"]) == 2
        assert ctx.stats.snapshot().get("oracle.diff.subjects") == 1

    @pytest.mark.parametrize("invariants", [True, False])
    def test_golden_job_checks_each_fresh_capture(self, invariants):
        """Golden mode checks invariants on every engine's fresh capture,
        and ``--no-invariants`` drops those reports."""
        from repro.analysis.stats import StatsRegistry
        from repro.runner.job import JobContext, JobSpec
        spec = JobSpec(job_id="t", kind="oracle.diff", payload={})
        ctx = JobContext(spec=spec, stats=StatsRegistry(), attempt=1)
        out = oracle_diff_job({"subject": "tpl:streaming", "mode": "golden",
                               "engines": list(ENGINES),
                               "invariants": invariants}, ctx)
        assert out["ok"] and out["diff"]["divergence"] is None
        reports = out["invariants"]
        if invariants:
            assert [r["engine"] for r in reports] == list(ENGINES)
            assert all(r["ok"] for r in reports)
        else:
            assert reports == []


class TestCli:
    def test_record_and_golden_diff_roundtrip(self, tmp_path, capsys):
        from repro.oracle.cli import main
        root = str(tmp_path / "golden")
        assert main(["record", "--root", root,
                     "--subjects", "tpl:streaming"]) == 0
        assert main(["diff", "--golden", "--root", root,
                     "--subjects", "tpl:streaming", "--fuzz-seeds", "0",
                     "--report", str(tmp_path / "report.json")]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["ok"] and report["subjects"] == 1
        out = capsys.readouterr().out
        assert "1/1 subjects clean" in out

    def test_engine_diff_cli_smoke(self, tmp_path):
        from repro.oracle.cli import main
        assert main(["diff", "--engines", "slow,fast",
                     "--subjects", "fuzz:5",
                     "--report", str(tmp_path / "report.json")]) == 0

    def test_fault_injection_cli(self, capsys):
        from repro.oracle.cli import main
        assert main(["diff", "--subjects", "tpl:streaming",
                     "--inject-fault", "3"]) == 0
        out = capsys.readouterr().out
        assert "first divergent event" in out
        assert "coalesce" in out

    def test_main_module_forwards_oracle(self, capsys):
        from repro.__main__ import main as repro_main
        assert repro_main(["oracle", "diff", "--subjects", "fuzz:2",
                           "--fuzz-seeds", "0"]) == 0
        assert "1/1 subjects clean" in capsys.readouterr().out


def test_diff_result_describe_mentions_first_divergence():
    div_a = {"event": "cache", "cycle": 10, "level": "l1"}
    div_b = {"event": "cache", "cycle": 10, "level": "dram"}
    from repro.oracle.diff import Divergence
    result = DiffResult(subject="s", a_label="slow", b_label="fast",
                        events=(5, 5), cycles=(9, 9),
                        divergence=Divergence(index=4, a=div_a, b=div_b,
                                              fields=["level"],
                                              context=[]))
    text = result.describe()
    assert "DIVERGED" in text and "index 4" in text and "level" in text
