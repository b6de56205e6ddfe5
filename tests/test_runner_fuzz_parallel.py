"""The sharded fuzz campaign must be indistinguishable from serial.

These tests run small campaigns both ways and require identical
detection matrices, identical per-case outcome digests, and identical
merged statistics — then kill a campaign mid-journal and require the
resumed merge to stay bit-identical.
"""

import json

from repro.fuzz.campaign import run_campaign
from repro.fuzz.generator import CaseGenerator
from repro.fuzz.parallel import (campaign_digest, merge_campaign,
                                 plan_fuzz_shards)
from repro.gpu.config import nvidia_config
from repro.runner import JobResult, run_jobs

CASES = 8
SEED = 5


def _specs():
    return CaseGenerator(SEED).draw_many(CASES)


def _serial(specs, determinism_every=3):
    return run_campaign(specs, seed=SEED, config=nvidia_config(num_cores=1),
                        determinism_every=determinism_every)


def _parallel(specs, jobs=2, determinism_every=3, **run_kw):
    plan = plan_fuzz_shards(specs, seed=SEED, jobs=jobs,
                            determinism_every=determinism_every)
    report = run_jobs(plan, jobs=jobs, run_name="test-fuzz", **run_kw)
    return plan, report, merge_campaign(
        [report.results[s.job_id] for s in plan], seed=SEED)


class TestSerialParallelEquivalence:
    def test_matrix_digest_and_stats_match(self):
        specs = _specs()
        serial = _serial(specs)
        plan, report, parallel = _parallel(specs)
        assert len(plan) > 1, "campaign must actually shard"

        assert parallel.matrix() == serial.matrix()
        assert campaign_digest(parallel) == campaign_digest(serial)
        assert parallel.stats.snapshot().as_dict() \
            == serial.stats.snapshot().as_dict()

    def test_outcomes_keep_serial_enumeration_order(self):
        specs = _specs()
        _plan, _report, parallel = _parallel(specs)
        assert [o.spec.case_id for o in parallel.outcomes] \
            == [s.case_id for s in specs]

    def test_shard_count_does_not_change_the_merge(self):
        specs = _specs()
        one = _parallel(specs, jobs=1)[2]
        two = _parallel(specs, jobs=2)[2]
        assert campaign_digest(one) == campaign_digest(two)


class TestResumeBitIdentity:
    def test_mid_campaign_kill_then_resume(self, tmp_path):
        specs = _specs()
        serial = _serial(specs)
        journal = tmp_path / "journal.jsonl"

        # Full journalled run, then chop the journal after the first
        # completed shard — exactly what a SIGKILL mid-campaign leaves.
        _parallel(specs, journal_path=str(journal))
        kept, results_seen = [], 0
        for line in journal.read_text().splitlines(keepends=True):
            if json.loads(line).get("type") == "result":
                results_seen += 1
                if results_seen > 1:
                    break
            kept.append(line)
        journal.write_text("".join(kept))

        plan, report, resumed = _parallel(specs, journal_path=str(journal),
                                          resume=True)
        assert report.reused == 1
        assert resumed.matrix() == serial.matrix()
        assert campaign_digest(resumed) == campaign_digest(serial)
        assert resumed.stats.snapshot().as_dict() \
            == serial.stats.snapshot().as_dict()


def test_merge_campaign_sums_slice_stats():
    results = [JobResult(job_id=f"t-{i}", status="ok",
                         payload={"index_base": i, "outcomes": [],
                                  "truncated": 0},
                         stats={"fuzz.cases": 2, "fuzz.detected": i})
               for i in range(3)]
    stats = merge_campaign(results, seed=SEED).stats.snapshot().as_dict()
    assert stats == {"fuzz.cases": 6, "fuzz.detected": 3}


def test_merge_campaign_raises_on_failed_shard():
    specs = _specs()
    plan = plan_fuzz_shards(specs, seed=SEED, jobs=2)
    report = run_jobs(plan, jobs=0)
    # Sabotage one shard result to simulate an unrecovered crash.
    bad = report.results[plan[0].job_id]
    bad.status = "crashed"
    try:
        merge_campaign([report.results[s.job_id] for s in plan], seed=SEED)
    except RuntimeError as exc:
        assert plan[0].job_id in str(exc)
    else:
        raise AssertionError("merge_campaign accepted a failed shard")
