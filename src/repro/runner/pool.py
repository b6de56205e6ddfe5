"""The multiprocessing worker pool: crash-isolated, timed, retried.

Every job **attempt** runs in its own child process with a dedicated
pipe back to the parent — the strongest isolation Python offers without
leaving the standard library.  A worker that raises reports a clean
``error``; a worker that dies without reporting (segfault, OOM-kill,
``SIGKILL``) is observed as ``crashed`` via pipe EOF + exit code; a
worker that outlives its per-job timeout is killed by the parent and
recorded as ``timeout``.  None of these can take the pool or sibling
jobs down.

Failed attempts retry up to ``spec.max_retries`` times with exponential
backoff (``retry_backoff * 2**(attempt-1)`` seconds).  The parent is a
single-threaded event loop over :func:`multiprocessing.connection.wait`
— no helper threads, no signals, so it composes safely with pytest and
with being a child itself.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing as mp
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as _conn_wait
from typing import Callable, Dict, List, Optional, Sequence

from repro.runner.job import (CRASHED, ERROR, OK, TIMEOUT, JobContext,
                              JobResult, JobSpec)

#: Pool event callback: ``fn(event, info)`` with events ``start``,
#: ``attempt`` (one per finished attempt, incl. retried failures),
#: ``retry``, ``result`` (final), ``tick`` (idle heartbeat).
PoolEvent = Callable[[str, dict], None]

#: Upper bound on one select/heartbeat cycle; keeps timeout and backoff
#: deadlines honoured within this granularity.
_TICK = 0.2


def _pool_context():
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


_CACHE_COUNTER_KEYS = ("hits", "misses", "cold_builds", "releases",
                       "discards", "resets", "evictions")


def _merge_device_cache_stats(stats, before: Dict[str, int]) -> None:
    """Fold this attempt's warm-device-cache activity into the job stats.

    The cache counters are process-cumulative (inline mode runs many
    jobs in one process; forked workers inherit the parent's totals), so
    each attempt ships only its *delta* — deltas are what the parent's
    counter merge can sum meaningfully across jobs.
    """
    from repro.device.cache import device_cache_stats
    after = device_cache_stats()
    delta = {key: after[key] - before.get(key, 0)
             for key in _CACHE_COUNTER_KEYS}
    if any(delta.values()):
        stats.counters("device.cache").update(delta)


def execute_attempt(spec: JobSpec, attempt: int) -> JobResult:
    """Run one attempt in-process (the ``--jobs 0`` / inline path).

    Same entrypoint contract and error capture as a child process, minus
    process isolation: timeouts and hard crashes cannot be contained, so
    inline mode is for serial baselines and debugging.
    """
    from repro.analysis.stats import StatsRegistry
    from repro.device.cache import device_cache_stats
    from repro.runner import kinds

    stats = StatsRegistry()
    cache_before = device_cache_stats()
    started = time.monotonic()
    try:
        fn = kinds.resolve(spec.kind)
        payload = fn(spec.payload, JobContext(spec, stats, attempt)) or {}
        status, error = OK, ""
    except Exception as exc:
        payload, status = {}, ERROR
        error = "".join(traceback.format_exception_only(
            type(exc), exc)).strip()
    _merge_device_cache_stats(stats, cache_before)
    return JobResult(job_id=spec.job_id, status=status, payload=payload,
                     stats=dict(stats.snapshot().as_dict()), error=error,
                     attempts=attempt,
                     wall_seconds=time.monotonic() - started)


def _child_main(conn, spec_dict: dict, attempt: int) -> None:
    """Child-process entry: run the job, ship one message, exit."""
    from repro.analysis.stats import StatsRegistry
    from repro.device.cache import device_cache_stats
    from repro.runner import kinds

    stats = StatsRegistry()
    cache_before = device_cache_stats()
    status, payload, error = OK, {}, ""
    try:
        spec = JobSpec.from_dict(spec_dict)
        fn = kinds.resolve(spec.kind)
        payload = fn(spec.payload, JobContext(spec, stats, attempt)) or {}
    except BaseException as exc:
        status = ERROR
        error = "".join(traceback.format_exception_only(
            type(exc), exc)).strip()
    _merge_device_cache_stats(stats, cache_before)
    try:
        conn.send({"status": status, "payload": payload,
                   "stats": dict(stats.snapshot().as_dict()),
                   "error": error})
    except Exception:
        pass   # parent went away; nothing useful left to do
    finally:
        conn.close()


@dataclass
class _Running:
    spec: JobSpec
    attempt: int
    proc: "mp.process.BaseProcess"
    conn: object
    started: float
    deadline: Optional[float]
    prior_wall: float             # wall seconds spent in earlier attempts


class WorkerPool:
    """Run a batch of jobs across ``workers`` child processes."""

    def __init__(self, workers: int,
                 on_event: Optional[PoolEvent] = None):
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = workers
        self._on_event = on_event or (lambda event, info: None)
        self._ctx = _pool_context()

    # -- internals ---------------------------------------------------------

    def _spawn(self, spec: JobSpec, attempt: int,
               prior_wall: float) -> _Running:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(target=_child_main,
                                 args=(child_conn, spec.to_dict(), attempt),
                                 daemon=True)
        proc.start()
        child_conn.close()
        now = time.monotonic()
        deadline = now + spec.timeout if spec.timeout else None
        self._on_event("start", {"job_id": spec.job_id, "attempt": attempt})
        return _Running(spec=spec, attempt=attempt, proc=proc,
                        conn=parent_conn, started=now, deadline=deadline,
                        prior_wall=prior_wall)

    def _reap(self, run: _Running, message: Optional[dict],
              timed_out: bool) -> JobResult:
        """Turn a finished/killed attempt into a JobResult."""
        if timed_out:
            run.proc.kill()
        run.proc.join(timeout=10.0)
        run.conn.close()
        wall = time.monotonic() - run.started
        if timed_out:
            status, payload, stats = TIMEOUT, {}, {}
            error = (f"attempt exceeded {run.spec.timeout:.3f}s timeout "
                     "and was killed")
        elif message is not None:
            status = message["status"]
            payload = message["payload"]
            stats = message["stats"]
            error = message["error"]
        else:
            status, payload, stats = CRASHED, {}, {}
            error = (f"worker died without reporting "
                     f"(exitcode {run.proc.exitcode})")
        return JobResult(job_id=run.spec.job_id, status=status,
                         payload=payload, stats=stats, error=error,
                         attempts=run.attempt,
                         wall_seconds=run.prior_wall + wall)

    # -- driver ------------------------------------------------------------

    def run(self, specs: Sequence[JobSpec]) -> Dict[str, JobResult]:
        """Execute all specs; returns final results keyed by job id.

        Completion order is whatever the scheduler produced — callers
        re-order by plan; the ``result`` event fires as each job
        finishes (checkpointing hooks there).
        """
        for spec in specs:
            spec.validate()
        seq = itertools.count()
        # (ready_time, tiebreak, spec, attempt, prior_wall)
        ready: List[tuple] = [(0.0, next(seq), spec, 1, 0.0)
                              for spec in specs]
        heapq.heapify(ready)
        running: Dict[int, _Running] = {}   # keyed by conn fileno
        results: Dict[str, JobResult] = {}

        try:
            while ready or running:
                now = time.monotonic()
                while (ready and ready[0][0] <= now
                       and len(running) < self.workers):
                    _t, _n, spec, attempt, prior = heapq.heappop(ready)
                    run = self._spawn(spec, attempt, prior)
                    running[run.conn.fileno()] = run

                wait_for = _TICK
                if ready and len(running) < self.workers:
                    wait_for = min(wait_for, max(0.0, ready[0][0] - now))
                for run in running.values():
                    if run.deadline is not None:
                        wait_for = min(wait_for,
                                       max(0.0, run.deadline - now))

                done: List[tuple] = []   # (running, message, timed_out)
                if running:
                    for conn in _conn_wait(
                            [r.conn for r in running.values()],
                            timeout=wait_for):
                        run = running[conn.fileno()]
                        try:
                            done.append((run, conn.recv(), False))
                        except (EOFError, OSError):
                            done.append((run, None, False))
                else:
                    time.sleep(wait_for)

                now = time.monotonic()
                reaped = {id(run) for run, _m, _t in done}
                for run in list(running.values()):
                    if (id(run) not in reaped and run.deadline is not None
                            and now > run.deadline):
                        done.append((run, None, True))

                for run, message, timed_out in done:
                    del running[run.conn.fileno()]
                    result = self._reap(run, message, timed_out)
                    self._on_event("attempt", {
                        "job_id": result.job_id, "attempt": run.attempt,
                        "status": result.status, "error": result.error,
                        "wall_seconds": result.wall_seconds})
                    retries_left = run.spec.max_retries - (run.attempt - 1)
                    if not result.ok and retries_left > 0:
                        backoff = (run.spec.retry_backoff
                                   * (2 ** (run.attempt - 1)))
                        heapq.heappush(ready, (
                            time.monotonic() + backoff, next(seq),
                            run.spec, run.attempt + 1,
                            result.wall_seconds))
                        self._on_event("retry", {
                            "job_id": result.job_id,
                            "attempt": run.attempt,
                            "status": result.status,
                            "backoff": backoff})
                        continue
                    results[result.job_id] = result
                    # The full result rides the event so checkpointing
                    # hooks can journal it the moment it lands.
                    self._on_event("result", {"job_id": result.job_id,
                                              "status": result.status,
                                              "result": result})
                self._on_event("tick", {"running": len(running),
                                        "done": len(results),
                                        "total": len(specs)})
        finally:
            for run in running.values():
                run.proc.kill()
                run.proc.join(timeout=5.0)
                run.conn.close()
        return results
