"""The fuzz campaign on the parallel runner: shard, execute, merge.

A campaign of N cases becomes a handful of ``fuzz.shard`` jobs, each a
contiguous slice of the serial case order.  Shards are fully
self-contained (specs travel as JSON in the job payload) and every case
seeds its own session, so a shard's outcomes are independent of which
process runs it — the merged campaign is **identical to the serial
run**: same outcome order, same detection matrix, same counter totals
(per-shard stats snapshots sum back to the serial numbers).

``merge_campaign`` consumes job results in shard order regardless of
completion order, which together with the runner's checkpoint journal
gives the resume guarantee: a campaign killed mid-run and resumed
merges bit-identically to one that never stopped.
"""

from __future__ import annotations

import json
from typing import List, Optional, Sequence

from repro.analysis.stats import StatsRegistry
from repro.fuzz.campaign import (CONFIG_NAMES, CampaignResult, CaseOutcome,
                                 run_campaign)
from repro.fuzz.spec import CaseSpec
from repro.gpu.config import nvidia_config
from repro.runner.job import JobContext, JobResult, JobSpec
from repro.runner.shard import merge_slices, plan_slice_jobs

SHARD_KIND = "fuzz.shard"

#: Generous per-shard wall-clock cap: a shard that wedges (infinite
#: loop in a generated kernel) is killed and reported as ``timeout``
#: rather than stalling the campaign.
DEFAULT_SHARD_TIMEOUT = 900.0


def plan_fuzz_shards(specs: Sequence[CaseSpec], *, seed: int,
                     jobs: int, shards: Optional[int] = None,
                     configs: Sequence[str] = CONFIG_NAMES,
                     determinism_every: int = 0,
                     timeout: float = DEFAULT_SHARD_TIMEOUT,
                     ) -> List[JobSpec]:
    """Cut a campaign into contiguous, self-contained shard jobs."""
    return plan_slice_jobs(
        [s.to_dict() for s in specs], kind=SHARD_KIND, prefix="fuzz",
        seed=seed, jobs=jobs, shards=shards, key="cases",
        payload={"configs": list(configs),
                 "determinism_every": determinism_every},
        timeout=timeout)


def run_shard_job(payload: dict, ctx: JobContext) -> dict:
    """Worker entrypoint: run one contiguous campaign slice.

    Campaign counters land on ``ctx.stats`` (the per-worker registry the
    engine snapshots and merges); outcomes return in full wire form.
    """
    specs = [CaseSpec.from_dict(d) for d in payload["cases"]]
    result = run_campaign(
        specs,
        seed=ctx.spec.seed,
        config=nvidia_config(num_cores=1),
        configs=tuple(payload["configs"]),
        determinism_every=int(payload["determinism_every"]),
        index_base=int(payload["index_base"]),
        stats=ctx.stats)
    return {
        "index_base": payload["index_base"],
        "outcomes": [o.to_dict(full=True) for o in result.outcomes],
        "truncated": result.truncated,
    }


def merge_campaign(results: Sequence[JobResult], *, seed: int,
                   ) -> CampaignResult:
    """Fold shard job results back into one serial-order campaign.

    Ordering key is each shard's ``index_base`` (carried in the result
    payload), so merging is independent of completion order.  A shard
    that failed terminally raises — the campaign's integrity guarantee
    is all-cases-accounted-for, never silent holes.
    """
    outcomes = merge_slices(results, "outcomes", "fuzz")
    stats = StatsRegistry()
    for result in results:
        stats.merge(result.stats)
    return CampaignResult(
        seed=seed, stats=stats,
        outcomes=[CaseOutcome.from_dict(o) for o in outcomes],
        truncated=sum(int(r.payload.get("truncated", 0)) for r in results))


def campaign_digest(result: CampaignResult) -> str:
    """A stable digest of everything the campaign observed.

    Used by tests and the run manifest to state bit-identity between
    serial, parallel, and interrupted-then-resumed executions.
    """
    import hashlib
    blob = json.dumps(
        {"matrix": result.matrix(), "truncated": result.truncated,
         "outcomes": [o.to_dict(full=True) for o in result.outcomes]},
        sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()
