"""The multiprocessing worker pool: crash-isolated and timed.

Every job runs once, in its own child process with a dedicated pipe
back to the parent — the strongest isolation Python offers without
leaving the standard library.  A worker that raises reports a clean
``error``; a worker that dies without reporting (segfault, OOM-kill,
``SIGKILL``) is observed as ``crashed`` via pipe EOF + exit code; a
worker that outlives its per-job timeout is killed by the parent and
recorded as ``timeout``.  None of these can take the pool or sibling
jobs down.

Jobs are pure functions of their payload and seed, so a failure is not
repeated: ``--resume`` re-runs failed jobs when the user asks.  The
parent is a single-threaded event loop over
:func:`multiprocessing.connection.wait` — no helper threads, no
signals, so it composes safely with pytest and with being a child
itself.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _conn_wait
from typing import Callable, Dict, List, Optional, Sequence

from repro.runner.job import (CRASHED, ERROR, OK, TIMEOUT, JobContext,
                              JobResult, JobSpec)

#: Pool event callback: ``fn(event, info)`` with events ``start``,
#: ``result`` (carrying the :class:`JobResult`) and ``tick`` (idle
#: heartbeat).
PoolEvent = Callable[[str, dict], None]

#: Upper bound on one select/heartbeat cycle; keeps timeout deadlines
#: honoured within this granularity.
_TICK = 0.2


def _pool_context():
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def _describe(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def execute_attempt(spec: JobSpec) -> JobResult:
    """Run one job in this process; the body of every job run.

    The inline (``--jobs 0``) path calls it directly and a pool child
    calls it behind its pipe.  Inline there is no process isolation:
    timeouts and hard crashes cannot be contained, so inline mode is
    for serial baselines and debugging.
    """
    from repro.analysis.stats import StatsRegistry
    from repro.runner import kinds

    stats = StatsRegistry()
    started = time.monotonic()
    try:
        fn = kinds.resolve(spec.kind)
        payload = fn(spec.payload, JobContext(spec, stats)) or {}
        status, error = OK, ""
    except Exception as exc:
        payload, status, error = {}, ERROR, _describe(exc)
    return JobResult(job_id=spec.job_id, status=status, payload=payload,
                     stats=dict(stats.snapshot().as_dict()), error=error,
                     wall_seconds=time.monotonic() - started)


def _child_main(conn, spec: JobSpec) -> None:
    """Child-process entry: run the job, ship its result, exit."""
    try:
        result = execute_attempt(spec)
    except BaseException as exc:   # SystemExit, KeyboardInterrupt
        result = JobResult(job_id=spec.job_id, status=ERROR,
                           error=_describe(exc))
    try:
        conn.send(result)
    except Exception:
        pass   # parent went away; nothing useful left to do
    finally:
        conn.close()


@dataclass
class _Running:
    spec: JobSpec
    proc: "mp.process.BaseProcess"
    conn: object
    started: float
    deadline: Optional[float]


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

    def _spawn(self, spec: JobSpec) -> _Running:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(target=_child_main,
                                 args=(child_conn, spec), daemon=True)
        proc.start()
        child_conn.close()
        now = time.monotonic()
        deadline = now + spec.timeout if spec.timeout else None
        self._on_event("start", {"job_id": spec.job_id})
        return _Running(spec=spec, proc=proc, conn=parent_conn,
                        started=now, deadline=deadline)

    def _reap(self, run: _Running, message: Optional[JobResult],
              timed_out: bool) -> JobResult:
        """Turn a finished/killed child into its JobResult."""
        if timed_out:
            run.proc.kill()
        run.proc.join(timeout=10.0)
        run.conn.close()
        if timed_out:
            result = JobResult(
                job_id=run.spec.job_id, status=TIMEOUT,
                error=(f"job exceeded {run.spec.timeout:.3f}s timeout "
                       "and was killed"))
        elif message is not None:
            result = message
        else:
            result = JobResult(
                job_id=run.spec.job_id, status=CRASHED,
                error=(f"worker died without reporting "
                       f"(exitcode {run.proc.exitcode})"))
        result.wall_seconds = time.monotonic() - run.started
        return result

    # -- driver ------------------------------------------------------------

    def run(self, specs: Sequence[JobSpec]) -> Dict[str, JobResult]:
        """Execute all specs; returns results keyed by job id.

        Specs start in plan order, at most ``workers`` at a time.
        Completion order is whatever the scheduler produced — callers
        re-order by plan; the ``result`` event fires as each job
        finishes (checkpointing hooks there).
        """
        for spec in specs:
            spec.validate()
        pending = deque(specs)
        running: Dict[int, _Running] = {}   # keyed by conn fileno
        results: Dict[str, JobResult] = {}

        try:
            while pending or running:
                while pending and len(running) < self.workers:
                    run = self._spawn(pending.popleft())
                    running[run.conn.fileno()] = run

                now = time.monotonic()
                wait_for = _TICK
                for run in running.values():
                    if run.deadline is not None:
                        wait_for = min(wait_for,
                                       max(0.0, run.deadline - now))

                done: List[tuple] = []   # (running, message, timed_out)
                for conn in _conn_wait([r.conn for r in running.values()],
                                       timeout=wait_for):
                    run = running[conn.fileno()]
                    try:
                        done.append((run, conn.recv(), False))
                    except (EOFError, OSError):
                        done.append((run, None, False))

                now = time.monotonic()
                reaped = {id(run) for run, _m, _t in done}
                for run in list(running.values()):
                    if (id(run) not in reaped and run.deadline is not None
                            and now > run.deadline):
                        done.append((run, None, True))

                for run, message, timed_out in done:
                    del running[run.conn.fileno()]
                    result = self._reap(run, message, timed_out)
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
