"""The execution engine: plan in, checkpointed parallel run out.

:func:`run_jobs` is the one entry every parallel campaign goes through
(fuzz ``--jobs``, the bench driver, the analysis sweeps):

1. validate the plan and fingerprint it;
2. with ``resume=True``, load the checkpoint journal, verify it belongs
   to *this* plan, and replay completed jobs instead of re-running them;
3. execute the remainder on a :class:`~repro.runner.pool.WorkerPool`
   (or inline when ``jobs=0`` — the serial baseline), checkpointing
   every result as it lands;
4. merge per-worker stats snapshots into one aggregate tree and emit a
   machine-readable run manifest.

Results are returned in **plan order** and digested over canonical
forms only, so a run that crashed halfway and resumed merges
bit-identically to one that never stopped.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.stats import StatsSnapshot, merge_snapshots
from repro.runner.job import (JobResult, JobSpec, plan_fingerprint,
                              results_digest)
from repro.runner.journal import Journal, load_journal
from repro.runner.pool import PoolEvent, WorkerPool, execute_attempt

MANIFEST_NAME = "run_manifest.json"


@dataclass
class RunReport:
    """Everything one engine invocation produced."""

    run_name: str
    results: Dict[str, JobResult]          # plan order
    stats: StatsSnapshot
    manifest: Dict[str, object]
    digest: str
    wall_seconds: float
    reused: int = 0
    journal_path: Optional[str] = None
    manifest_path: Optional[str] = None
    failures: List[JobResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _run_inline(specs: Sequence[JobSpec], on_event: PoolEvent,
                ) -> Dict[str, JobResult]:
    """Serial in-process execution with the same retry policy."""
    results: Dict[str, JobResult] = {}
    for spec in specs:
        prior_wall = 0.0
        for attempt in range(1, spec.max_retries + 2):
            on_event("start", {"job_id": spec.job_id, "attempt": attempt})
            result = execute_attempt(spec, attempt)
            result.wall_seconds += prior_wall
            prior_wall = result.wall_seconds
            on_event("attempt", {"job_id": spec.job_id, "attempt": attempt,
                                 "status": result.status,
                                 "error": result.error,
                                 "wall_seconds": result.wall_seconds})
            if result.ok or attempt == spec.max_retries + 1:
                break
            backoff = spec.retry_backoff * (2 ** (attempt - 1))
            on_event("retry", {"job_id": spec.job_id, "attempt": attempt,
                               "status": result.status, "backoff": backoff})
            if backoff:
                time.sleep(backoff)
        results[spec.job_id] = result
        on_event("result", {"job_id": spec.job_id, "status": result.status,
                            "result": result})
        on_event("tick", {"running": 0, "done": len(results),
                          "total": len(specs)})
    return results


def run_jobs(specs: Sequence[JobSpec], *, jobs: int = 1,
             run_name: str = "run",
             journal_path: Optional[str] = None, resume: bool = False,
             out_dir: Optional[str] = None,
             reporter: Optional[PoolEvent] = None,
             gauges: Sequence[str] = (),
             meta: Optional[Dict[str, object]] = None) -> RunReport:
    """Execute a job plan; see the module docstring for the lifecycle.

    ``jobs=0`` runs inline (serial, no isolation); ``jobs>=1`` uses that
    many worker processes.  ``resume`` requires ``journal_path`` (or an
    ``out_dir`` to derive it from) and refuses a journal whose plan
    fingerprint differs from this plan's.
    """
    specs = list(specs)
    seen: set = set()
    for spec in specs:
        spec.validate()
        if spec.job_id in seen:
            raise ValueError(f"duplicate job id {spec.job_id!r}")
        seen.add(spec.job_id)
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")

    if journal_path is None and out_dir is not None:
        journal_path = os.path.join(out_dir, "journal.jsonl")
    if resume and journal_path is None:
        raise ValueError("resume requires a journal path (or out_dir)")

    fingerprint = plan_fingerprint(specs)
    on_event: PoolEvent = reporter or (lambda event, info: None)
    started_at = time.time()
    started = time.monotonic()

    # -- resume: replay completed jobs from the checkpoint journal ---------
    completed: Dict[str, JobResult] = {}
    if resume and journal_path and os.path.exists(journal_path):
        state = load_journal(journal_path)
        if state.header and state.fingerprint != fingerprint:
            raise ValueError(
                f"journal {journal_path} belongs to a different plan "
                f"(fingerprint {state.fingerprint[:12]}… != "
                f"{fingerprint[:12]}…); refusing to splice results")
        for job_id, result in state.results.items():
            if job_id in seen and result.ok:
                result.reused = True
                completed[job_id] = result
    remaining = [s for s in specs if s.job_id not in completed]

    journal: Optional[Journal] = None
    if journal_path:
        fresh = not (resume and os.path.exists(journal_path)
                     and os.path.getsize(journal_path) > 0)
        journal = Journal(journal_path)
        if fresh:
            journal.write_plan(run_name=run_name, fingerprint=fingerprint,
                               total_jobs=len(specs), meta=meta)
        else:
            journal.write_resume(reused=len(completed),
                                 remaining=len(remaining))

    for result in completed.values():
        on_event("reused", {"job_id": result.job_id})

    def checkpoint(event: str, info: dict) -> None:
        on_event(event, info)
        if journal is not None and event == "attempt":
            journal.write_attempt(info["job_id"], info["attempt"],
                                  info["status"],
                                  info.get("wall_seconds", 0.0),
                                  info.get("error", ""))

    # -- execute -----------------------------------------------------------
    try:
        def journalling_event(event: str, info: dict) -> None:
            checkpoint(event, info)
            if journal is not None and event == "result":
                journal.write_result(info["result"])

        if not remaining:
            fresh_results: Dict[str, JobResult] = {}
        elif jobs == 0:
            fresh_results = _run_inline(remaining, journalling_event)
        else:
            pool = WorkerPool(jobs, on_event=journalling_event)
            fresh_results = pool.run(remaining)
    finally:
        if journal is not None:
            journal.close()

    merged: Dict[str, JobResult] = {}
    for spec in specs:
        merged[spec.job_id] = (completed.get(spec.job_id)
                               or fresh_results[spec.job_id])
    wall = time.monotonic() - started

    # -- aggregate stats ---------------------------------------------------
    statuses: Dict[str, int] = {}
    for result in merged.values():
        statuses[result.status] = statuses.get(result.status, 0) + 1
    runner_counters = {
        "runner.jobs_total": len(merged),
        "runner.jobs_ok": statuses.get("ok", 0),
        "runner.jobs_failed": len(merged) - statuses.get("ok", 0),
        "runner.jobs_reused": len(completed),
        "runner.attempts": sum(r.attempts for r in merged.values()),
    }
    stats = merge_snapshots(
        [r.stats for r in merged.values()] + [runner_counters],
        gauges=tuple(gauges) or ("capacity", "peak", "high_water", "limit"))

    digest = results_digest(list(merged.values()))
    failures = [r for r in merged.values() if not r.ok]
    manifest: Dict[str, object] = {
        "schema": 1,
        "run": run_name,
        "fingerprint": fingerprint,
        "results_digest": digest,
        "jobs": jobs,
        "total_jobs": len(merged),
        "reused_from_journal": len(completed),
        "statuses": statuses,
        "wall_seconds": round(wall, 3),
        "jobs_per_second": round(len(merged) / wall, 3) if wall else 0.0,
        "started_at": started_at,
        "finished_at": time.time(),
        "cpu_count": os.cpu_count(),
        "journal": journal_path,
        "meta": meta or {},
        "per_job": [{
            "job_id": r.job_id, "kind": merged_spec.kind,
            "status": r.status, "attempts": r.attempts,
            "wall_seconds": round(r.wall_seconds, 6),
            "reused": r.reused,
            **({"error": r.error} if r.error else {}),
        } for merged_spec, r in zip(specs, merged.values())],
    }

    manifest_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        manifest_path = os.path.join(out_dir, MANIFEST_NAME)
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)

    on_event("done", {"total": len(merged), "failed": len(failures)})
    return RunReport(run_name=run_name, results=merged, stats=stats,
                     manifest=manifest, digest=digest, wall_seconds=wall,
                     reused=len(completed), journal_path=journal_path,
                     manifest_path=manifest_path, failures=failures)
