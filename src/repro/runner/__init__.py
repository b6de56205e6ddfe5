"""Parallel execution engine: sharded multi-process job running.

The subsystem every campaign and sweep schedules through:

* :mod:`repro.runner.job`      — JobSpec/JobResult model, fingerprints;
* :mod:`repro.runner.kinds`    — job-kind registry (entrypoints);
* :mod:`repro.runner.shard`    — deterministic sharding planner;
* :mod:`repro.runner.pool`     — crash-isolated worker pool, one run
  per job, per-job timeouts;
* :mod:`repro.runner.journal`  — JSONL checkpoint journal / resume;
* :mod:`repro.runner.engine`   — orchestration, stats merge, manifest;
* :mod:`repro.runner.reporter` — heartbeat progress reporting.
"""

from repro.runner.engine import MANIFEST_NAME, RunReport, run_jobs
from repro.runner.job import (CRASHED, ERROR, FAILURE_STATUSES, OK, TIMEOUT,
                              JobContext, JobResult, JobSpec,
                              plan_fingerprint, results_digest)
from repro.runner.journal import Journal, JournalState, load_journal
from repro.runner.kinds import register, resolve
from repro.runner.pool import WorkerPool, execute_attempt
from repro.runner.reporter import HeartbeatReporter
from repro.runner.shard import (Shard, default_shard_count, plan_shards,
                                shard_items)
