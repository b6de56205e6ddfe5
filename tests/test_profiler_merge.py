"""ProfileSnapshot merge algebra + the serial-vs-sharded contract.

The sharded profile folds per-subject snapshots gathered from shards;
the fold reproduces the serial profile whatever the grouping because
merge is commutative and associative with the empty snapshot as
identity.
Hypothesis pins the algebra; a seeded fuzz slice pins the end-to-end
equality.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import StatsRegistry
from repro.fuzz.generator import CaseGenerator
from repro.profiler.cli import PROFILE
from repro.profiler.profile import ProfileSnapshot
from repro.runner.job import JobContext, JobResult
from repro.runner.shard import merge_slices
from repro.runner.sweep import (SWEEP_KIND, plan_sweep, run_slice,
                                run_sweep_shard, sweep_subjects)

_PATHS = st.sampled_from([
    f"cores.{cid}.{key}"
    for cid in (0, 1)
    for key in ("issue.accesses", "issue.cycles", "cache.cycles",
                "check.cycles", "check.rbt_fills",
                "total.latency_cycles", "shared.cycles")])

_WALL_PATHS = st.sampled_from([
    f"cores.{cid}.{stage}.wall_ns"
    for cid in (0, 1)
    for stage in ("coalesce", "timing", "check", "commit")])

_SNAPSHOTS = st.builds(
    ProfileSnapshot,
    counters=st.dictionaries(_PATHS, st.integers(0, 10**9), max_size=8),
    wall_ns=st.dictionaries(_WALL_PATHS, st.integers(0, 10**12),
                            max_size=4),
    engines=st.sets(st.sampled_from(["slow", "fast"]), max_size=2))


def _same(a: ProfileSnapshot, b: ProfileSnapshot) -> bool:
    """Full equality including the wall-ns telemetry side."""
    return (a == b and a.wall_ns == b.wall_ns
            and a.digest() == b.digest())


class TestMergeAlgebra:
    @settings(max_examples=200, deadline=None)
    @given(_SNAPSHOTS, _SNAPSHOTS)
    def test_commutative(self, a, b):
        assert _same(a.merge(b), b.merge(a))

    @settings(max_examples=200, deadline=None)
    @given(_SNAPSHOTS, _SNAPSHOTS, _SNAPSHOTS)
    def test_associative(self, a, b, c):
        assert _same(a.merge(b).merge(c), a.merge(b.merge(c)))

    @settings(max_examples=200, deadline=None)
    @given(_SNAPSHOTS)
    def test_empty_is_identity(self, a):
        empty = ProfileSnapshot.empty()
        assert _same(a.merge(empty), a)
        assert _same(empty.merge(a), a)

    @settings(max_examples=100, deadline=None)
    @given(_SNAPSHOTS, _SNAPSHOTS)
    def test_counters_sum(self, a, b):
        merged = a.merge(b)
        for path in set(a.counters) | set(b.counters):
            assert merged.counters.get(path, 0) == (
                a.counters.get(path, 0) + b.counters.get(path, 0))
        assert merged.engines == a.engines | b.engines

    @settings(max_examples=100, deadline=None)
    @given(_SNAPSHOTS, _SNAPSHOTS)
    def test_round_trips_through_json(self, a, b):
        merged = a.merge(b)
        back = ProfileSnapshot.from_dict(merged.to_dict())
        assert _same(merged, back)


def _run_shard(spec) -> JobResult:
    """Execute one shard job in-process, as the worker would."""
    ctx = JobContext(spec=spec, stats=StatsRegistry())
    payload = run_sweep_shard(spec.payload, ctx)
    return JobResult(job_id=spec.job_id, status="ok", payload=payload)


class TestSerialVsSharded:
    def test_fuzz_slice_profiles_identically(self):
        specs = [CaseGenerator(1).draw_kind("safe", i) for i in range(8)]
        subjects = sweep_subjects([], specs)
        serial_snap, serial_rows = PROFILE.fold(
            run_slice(PROFILE, subjects, 1, {}))

        plan = plan_sweep(PROFILE, subjects, seed=1, jobs=3)
        assert len(plan) > 1
        assert all(s.kind == SWEEP_KIND for s in plan)
        # Merge in reversed completion order: order must not matter.
        results = [_run_shard(s) for s in reversed(plan)]
        sharded_snap, sharded_rows = PROFILE.fold(
            merge_slices(results, "records", "profile"))

        assert sharded_snap == serial_snap
        assert sharded_snap.wall_ns.keys() == serial_snap.wall_ns.keys()
        assert sharded_snap.digest() == serial_snap.digest()
        assert sharded_rows == serial_rows

    def test_failed_shard_refuses_to_merge(self):
        import pytest
        bad = JobResult(job_id="profile-0000", status="crashed",
                        error="boom")
        with pytest.raises(RuntimeError, match="boom"):
            merge_slices([bad], "records", "profile")
