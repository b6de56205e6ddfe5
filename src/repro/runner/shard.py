"""The sharding planner: split a campaign into independent jobs.

Sharding is pure arithmetic over item counts — no I/O, no randomness —
so a plan is reproducible from (n_items, shards) alone and two
processes planning the same campaign agree on every shard boundary.

Contiguous chunking is the default: it preserves the serial enumeration
order *within* each shard, which lets sharded consumers reproduce
index-dependent behaviour (the fuzz campaign's every-Nth determinism
re-check) exactly, and makes merging a simple ordered concatenation.

:func:`plan_slice_jobs` and :func:`merge_slices` are that plan and that
merge for every sharded runner kind (fuzz campaigns, artefact
slices, analysis sweeps): each job carries its slice's
``index_base``, and the merge concatenates slices in that order, so
completion order never shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, TypeVar

from repro.analysis.stats import StatsRegistry
from repro.runner.job import JobResult, JobSpec

T = TypeVar("T")


@dataclass(frozen=True)
class Shard:
    """A half-open slice ``[start, stop)`` of the item sequence."""

    index: int
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start


def plan_shards(n_items: int, shards: int) -> List[Shard]:
    """Split ``n_items`` into at most ``shards`` contiguous shards.

    Sizes differ by at most one (the first ``n_items % shards`` shards
    take the extra item), no shard is empty, and concatenating the
    slices in shard order reproduces the original sequence.
    """
    if n_items < 0:
        raise ValueError(f"negative item count {n_items}")
    if shards < 1:
        raise ValueError(f"shard count must be positive, got {shards}")
    shards = min(shards, n_items) or (1 if n_items == 0 else shards)
    if n_items == 0:
        return []
    base, extra = divmod(n_items, shards)
    out: List[Shard] = []
    start = 0
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        out.append(Shard(index=i, start=start, stop=start + size))
        start += size
    return out


def shard_items(items: Sequence[T], shards: int) -> List[Sequence[T]]:
    """The planned slices applied to an actual sequence."""
    return [items[s.start:s.stop] for s in plan_shards(len(items), shards)]


def default_shard_count(n_items: int, jobs: int,
                        per_worker: int = 4) -> int:
    """How many shards to cut for a ``jobs``-worker pool.

    ``per_worker`` shards per worker keeps the pool busy when shard
    runtimes vary (stragglers hand their tail to idle workers) without
    drowning small campaigns in per-process overhead.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    return max(1, min(n_items, jobs * per_worker))


def plan_slice_jobs(items: Sequence[object], *, kind: str, prefix: str,
                    key: str, seed: int, jobs: int,
                    shards: Optional[int] = None,
                    payload: Optional[Dict[str, object]] = None,
                    timeout: Optional[float] = None,
                    max_retries: int = 1) -> List[JobSpec]:
    """One ``kind`` job per contiguous slice of ``items``.

    Each job's payload holds ``index_base`` (the slice's first index),
    the slice itself under ``key`` and every entry of ``payload``; job
    ids are ``<prefix>-NNNN``.  ``shards`` defaults to
    :func:`default_shard_count` for ``jobs`` workers.
    """
    shards = shards or default_shard_count(len(items), jobs)
    return [JobSpec(job_id=f"{prefix}-{shard.index:04d}", kind=kind,
                    seed=seed, timeout=timeout, max_retries=max_retries,
                    retry_backoff=0.5,
                    payload={"index_base": shard.start,
                             key: list(items[shard.start:shard.stop]),
                             **(payload or {})})
            for shard in plan_shards(len(items), shards)]


def merge_slices(results: Sequence[JobResult], key: str,
                 label: str) -> List[object]:
    """Concatenate each slice's ``payload[key]`` in ``index_base`` order.

    Raises ``RuntimeError`` naming every failed job when any slice
    failed terminally: a merge accounts for all items or for none.
    """
    failed = [r for r in results if not r.ok]
    if failed:
        detail = "; ".join(f"{r.job_id}: {r.status} ({r.error})"
                           for r in failed)
        raise RuntimeError(f"{len(failed)} {label} shard(s) failed "
                           f"terminally: {detail}")
    merged: List[object] = []
    for result in sorted(results, key=lambda r: int(r.payload["index_base"])):
        merged.extend(result.payload[key])
    return merged


def merge_slice_stats(results: Sequence[JobResult],
                      stats: StatsRegistry) -> None:
    """Fold every slice's counters into ``stats``, minus ``device.cache.*``.

    The warm device cache's counters are process-local scheduling
    telemetry (how many warm hits each worker happened to get), not a
    workload observable; folding them in would make a sharded run's
    stats differ from the serial run's by construction.
    """
    for result in results:
        stats.merge({k: v for k, v in result.stats.items()
                     if not k.startswith("device.cache.")})
