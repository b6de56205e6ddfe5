"""The engine: journalled runs, checkpoint/resume, manifests, digests.

The contract under test: a run that is killed mid-campaign and resumed
merges **bit-identically** (same results digest, same payloads) to a run
that never stopped, regardless of worker count or completion order.
"""

import hashlib
import json
import os

import pytest

from repro.runner import (JobResult, JobSpec, load_journal, plan_fingerprint,
                          results_digest, run_jobs)


def _echo_plan(n=6, base=0):
    return [JobSpec(job_id=f"job-{i:02d}", kind="util.echo",
                    payload={"value": base + i}, seed=i) for i in range(n)]


def fail_until_sentinel(payload: dict, ctx) -> dict:
    """Fail while ``payload["sentinel"]`` is absent, creating it."""
    sentinel = payload["sentinel"]
    if not os.path.exists(sentinel):
        open(sentinel, "w").close()
        raise RuntimeError("sentinel was missing")
    return {"sentinel": sentinel}


class TestRunJobs:
    def test_inline_and_pooled_runs_are_bit_identical(self):
        plan = _echo_plan()
        inline = run_jobs(plan, jobs=0)
        pooled = run_jobs(plan, jobs=2)
        assert inline.digest == pooled.digest
        assert [r.payload for r in inline.results.values()] \
            == [r.payload for r in pooled.results.values()]

    def test_results_come_back_in_plan_order(self):
        plan = _echo_plan()
        report = run_jobs(plan, jobs=2)
        assert list(report.results) == [s.job_id for s in plan]

    def test_runner_counters_and_worker_stats_merge(self):
        report = run_jobs(_echo_plan(4), jobs=2)
        assert report.stats.get("runner.jobs_total") == 4
        assert report.stats.get("runner.jobs_ok") == 4
        # Per-worker counters sum across processes.
        assert report.stats.get("util.echo.calls") == 4

    def test_failures_are_reported_not_raised(self):
        plan = _echo_plan(2) + [JobSpec(job_id="bad", kind="util.raise",
                                        payload={"message": "x"})]
        report = run_jobs(plan, jobs=2)
        assert not report.ok
        assert [r.job_id for r in report.failures] == ["bad"]
        assert report.stats.get("runner.jobs_failed") == 1

    def test_duplicate_job_ids_rejected(self):
        spec = JobSpec(job_id="dup", kind="util.echo", payload={})
        with pytest.raises(ValueError, match="duplicate"):
            run_jobs([spec, spec], jobs=0)

    def test_manifest_written_with_per_job_rows(self, tmp_path):
        out = tmp_path / "run"
        report = run_jobs(_echo_plan(3), jobs=1, out_dir=str(out),
                          meta={"campaign": "unit"})
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest == report.manifest
        assert manifest["fingerprint"] == plan_fingerprint(_echo_plan(3))
        assert manifest["results_digest"] == report.digest
        assert manifest["statuses"] == {"ok": 3}
        assert manifest["meta"] == {"campaign": "unit"}
        rows = {row["job_id"]: row for row in manifest["per_job"]}
        assert rows["job-01"]["kind"] == "util.echo"
        assert rows["job-01"]["status"] == "ok"


class TestJournal:
    def test_journal_records_plan_and_results(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        run_jobs(_echo_plan(3), jobs=1, journal_path=str(journal))
        state = load_journal(str(journal))
        assert state.header["total_jobs"] == 3
        assert len(state.results) == 3
        assert state.torn_lines == 0
        types = [json.loads(line)["type"]
                 for line in journal.read_text().splitlines()]
        assert types == ["plan"] + ["result"] * 3

    def test_torn_final_line_is_tolerated(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        run_jobs(_echo_plan(2), jobs=0, journal_path=str(journal))
        with open(journal, "a") as fh:
            fh.write('{"type": "result", "resu')   # kill-mid-write
        state = load_journal(str(journal))
        assert state.torn_lines == 1
        assert len(state.results) == 2

    def test_corrupt_middle_line_raises(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        run_jobs(_echo_plan(2), jobs=0, journal_path=str(journal))
        lines = journal.read_text().splitlines()
        lines.insert(1, "not json")
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt"):
            load_journal(str(journal))


def _truncate_journal_to(journal_path, keep_results):
    """Simulate a mid-campaign kill: keep the header and the first
    ``keep_results`` result lines, drop everything after."""
    kept, results_seen = [], 0
    with open(journal_path) as fh:
        for line in fh:
            record = json.loads(line)
            if record.get("type") == "result":
                results_seen += 1
                if results_seen > keep_results:
                    break
            kept.append(line)
    with open(journal_path, "w") as fh:
        fh.writelines(kept)


class TestResume:
    def test_resume_is_bit_identical_to_uninterrupted(self, tmp_path):
        plan = _echo_plan(8)
        baseline = run_jobs(plan, jobs=2)

        journal = tmp_path / "j.jsonl"
        run_jobs(plan, jobs=2, journal_path=str(journal))
        _truncate_journal_to(str(journal), keep_results=3)

        resumed = run_jobs(plan, jobs=2, journal_path=str(journal),
                           resume=True)
        assert resumed.reused == 3
        assert resumed.digest == baseline.digest
        assert sum(r.reused for r in resumed.results.values()) == 3
        # The journal now holds a final result for every job.
        state = load_journal(str(journal))
        assert len(state.results) == 8
        assert state.resumes == 1

    def test_resume_reruns_failed_jobs(self, tmp_path):
        sentinel = tmp_path / "sentinel"
        plan = [JobSpec(job_id="once",
                        kind="tests.test_runner_engine:fail_until_sentinel",
                        payload={"sentinel": str(sentinel)})]
        journal = tmp_path / "j.jsonl"
        first = run_jobs(plan, jobs=1, journal_path=str(journal))
        assert not first.ok
        second = run_jobs(plan, jobs=1, journal_path=str(journal),
                          resume=True)
        assert second.ok
        assert second.reused == 0   # failures never replay from journal

    def test_resume_ignores_results_of_an_earlier_plan(self, tmp_path):
        # A fresh run into a used journal appends its own plan header;
        # resuming it must not replay the earlier plan's results.
        journal = tmp_path / "j.jsonl"
        run_jobs(_echo_plan(4, base=100), jobs=0, journal_path=str(journal))
        plan = _echo_plan(4, base=200)
        fresh = run_jobs(plan, jobs=0, journal_path=str(journal))
        kept, plans = [], 0
        for line in journal.read_text().splitlines(keepends=True):
            kept.append(line)
            record_type = json.loads(line)["type"]
            plans += record_type == "plan"
            if plans == 2 and record_type == "result":
                break   # cut the second run after its first result
        journal.write_text("".join(kept))

        resumed = run_jobs(plan, jobs=0, journal_path=str(journal),
                           resume=True)
        assert resumed.reused == 1
        assert [r.payload["echo"] for r in resumed.results.values()] \
            == [200, 201, 202, 203]
        assert resumed.digest == fresh.digest

    def test_resume_refuses_a_foreign_journal(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        run_jobs(_echo_plan(2), jobs=0, journal_path=str(journal))
        other = _echo_plan(3)
        with pytest.raises(ValueError, match="different plan"):
            run_jobs(other, jobs=0, journal_path=str(journal), resume=True)

    def test_resume_refuses_a_journal_with_retry_fields(self, tmp_path):
        # Specs that carried retry fields fingerprint differently, and
        # their results carried an attempt count: such a journal is
        # refused as another plan, not a crash.
        journal = tmp_path / "j.jsonl"
        plan = _echo_plan(2)
        run_jobs(plan, jobs=0, journal_path=str(journal))
        old_specs = [{**s.to_dict(), "max_retries": 1, "retry_backoff": 0.5}
                     for s in plan]
        old_fingerprint = hashlib.sha256(json.dumps(
            old_specs, sort_keys=True).encode()).hexdigest()
        records = [json.loads(line)
                   for line in journal.read_text().splitlines()]
        for record in records:
            if record["type"] == "plan":
                record["fingerprint"] = old_fingerprint
            else:
                record["result"]["attempts"] = 1
        journal.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(ValueError, match="different plan"):
            run_jobs(plan, jobs=0, journal_path=str(journal), resume=True)

    def test_resume_refuses_same_shape_plan_with_changed_payload(
            self, tmp_path):
        # Same job count, same ids, one payload changed: the fingerprint
        # must still catch it — splicing old results under new payloads
        # would silently corrupt the merge.
        journal = tmp_path / "j.jsonl"
        run_jobs(_echo_plan(3), jobs=0, journal_path=str(journal))
        changed = _echo_plan(3)
        changed[1] = JobSpec(job_id="job-01", kind="util.echo",
                             payload={"value": 99}, seed=1)
        with pytest.raises(ValueError, match="refusing to splice"):
            run_jobs(changed, jobs=0, journal_path=str(journal),
                     resume=True)

    def test_resume_without_journal_path_rejected(self):
        with pytest.raises(ValueError, match="journal"):
            run_jobs(_echo_plan(1), jobs=0, resume=True)

    def test_out_dir_derives_journal_path(self, tmp_path):
        out = tmp_path / "campaign"
        report = run_jobs(_echo_plan(2), jobs=0, out_dir=str(out))
        assert report.journal_path == str(out / "journal.jsonl")
        assert os.path.exists(report.journal_path)


class TestDeterminism:
    def test_digest_excludes_runtime_telemetry(self):
        a = JobResult(job_id="x", status="ok", payload={"v": 1}, stats={},
                      error="", wall_seconds=0.5)
        b = JobResult(job_id="x", status="ok", payload={"v": 1}, stats={},
                      error="", wall_seconds=9.9, reused=True)
        assert results_digest([a]) == results_digest([b])

    def test_digest_is_completion_order_independent(self):
        results = [JobResult(job_id=f"j{i}", status="ok",
                             payload={"v": i}, stats={}, error="")
                   for i in range(4)]
        assert results_digest(results) \
            == results_digest(list(reversed(results)))

    def test_fingerprint_tracks_plan_content(self):
        base = _echo_plan(3)
        assert plan_fingerprint(base) == plan_fingerprint(_echo_plan(3))
        changed = _echo_plan(3)
        changed[1] = JobSpec(job_id="job-01", kind="util.echo",
                             payload={"value": 99}, seed=1)
        assert plan_fingerprint(base) != plan_fingerprint(changed)
