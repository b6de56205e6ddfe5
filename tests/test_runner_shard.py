"""The sharding planner: pure arithmetic, reproducible boundaries."""

import pytest

from repro.analysis.stats import StatsRegistry
from repro.runner import (JobResult, Shard, default_shard_count, plan_shards,
                          shard_items)
from repro.runner.kinds import _LAZY, resolve
from repro.runner.shard import merge_slice_stats, merge_slices, plan_slice_jobs


class TestPlanShards:
    def test_even_split(self):
        shards = plan_shards(12, 4)
        assert [(s.start, s.stop) for s in shards] \
            == [(0, 3), (3, 6), (6, 9), (9, 12)]
        assert [s.index for s in shards] == [0, 1, 2, 3]

    def test_remainder_goes_to_leading_shards(self):
        shards = plan_shards(10, 4)
        assert [len(s) for s in shards] == [3, 3, 2, 2]

    def test_sizes_differ_by_at_most_one_and_cover_everything(self):
        for n_items in (1, 5, 17, 100, 257):
            for n_shards in (1, 2, 3, 7, 16):
                shards = plan_shards(n_items, n_shards)
                sizes = [len(s) for s in shards]
                assert max(sizes) - min(sizes) <= 1
                assert all(size > 0 for size in sizes)
                # Contiguous, ordered, complete coverage.
                assert shards[0].start == 0
                assert shards[-1].stop == n_items
                for a, b in zip(shards, shards[1:]):
                    assert a.stop == b.start

    def test_never_more_shards_than_items(self):
        assert len(plan_shards(3, 10)) == 3

    def test_zero_items_is_empty_plan(self):
        assert plan_shards(0, 4) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_shards(-1, 2)
        with pytest.raises(ValueError):
            plan_shards(5, 0)


class TestShardItems:
    def test_concatenation_reproduces_the_sequence(self):
        items = list(range(23))
        chunks = shard_items(items, 5)
        assert [x for chunk in chunks for x in chunk] == items

    def test_slices_preserve_serial_order_within_shard(self):
        chunks = shard_items("abcdefg", 3)
        assert [list(c) for c in chunks] \
            == [["a", "b", "c"], ["d", "e"], ["f", "g"]]


class TestDefaultShardCount:
    def test_per_worker_multiplier(self):
        assert default_shard_count(100, 4) == 16
        assert default_shard_count(100, 4, per_worker=2) == 8

    def test_capped_at_item_count(self):
        assert default_shard_count(5, 4) == 5

    def test_at_least_one(self):
        assert default_shard_count(0, 4) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            default_shard_count(10, 0)


def test_shard_is_frozen():
    shard = Shard(index=0, start=0, stop=3)
    with pytest.raises(AttributeError):
        shard.start = 1


class TestSliceJobs:
    """The one plan and merge every sharded runner kind goes through."""

    def _plan(self):
        return plan_slice_jobs(list("abcdefg"), kind="util.echo",
                               prefix="t", seed=3, jobs=1, shards=3,
                               key="letters", payload={"x": 1})

    def test_slices_carry_index_base_and_the_extra_payload(self):
        plan = self._plan()
        assert [s.job_id for s in plan] == ["t-0000", "t-0001", "t-0002"]
        assert [s.payload["index_base"] for s in plan] == [0, 3, 5]
        assert [s.payload["letters"] for s in plan] \
            == [list("abc"), list("de"), list("fg")]
        assert all(s.kind == "util.echo" and s.seed == 3
                   and s.payload["x"] == 1 for s in plan)

    def test_merge_follows_index_base_not_completion_order(self):
        results = [JobResult(job_id=s.job_id, status="ok",
                             payload={"index_base": s.payload["index_base"],
                                      "letters": s.payload["letters"]})
                   for s in reversed(self._plan())]
        assert merge_slices(results, "letters", "t") == list("abcdefg")

    def test_merge_raises_naming_every_failed_slice(self):
        results = [JobResult(job_id="t-0000", status="ok",
                             payload={"index_base": 0, "letters": ["a"]}),
                   JobResult(job_id="t-0001", status="crashed", error="boom"),
                   JobResult(job_id="t-0002", status="timeout")]
        with pytest.raises(RuntimeError,
                           match=r"2 t shard\(s\) failed terminally: "
                                 r"t-0001: crashed \(boom\); t-0002"):
            merge_slices(results, "letters", "t")

    def test_slice_stats_sum_without_warm_cache_telemetry(self):
        results = [JobResult(job_id=f"t-{i}", status="ok",
                             stats={"sweep.race.subjects": 2,
                                    "device.cache.hits": i})
                   for i in range(3)]
        stats = StatsRegistry()
        merge_slice_stats(results, stats)
        assert stats.snapshot().as_dict() == {"sweep.race.subjects": 6}


def test_builtin_kinds_resolve():
    assert sorted(_LAZY) == ["bench.artifact", "fuzz.shard",
                             "oracle.diff", "sweep.shard"]
    assert all(callable(resolve(kind)) for kind in _LAZY)
