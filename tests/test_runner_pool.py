"""Fault paths of the multiprocessing worker pool.

Every failure mode a worker can hit — clean exception, hard SIGKILL,
hang-past-timeout — must come back as a classified :class:`JobResult`,
never as a wedged or crashed parent, and after exactly one run.
"""

import os

import pytest

from repro.runner import (CRASHED, ERROR, OK, TIMEOUT, JobSpec, WorkerPool,
                          execute_attempt, run_jobs)


def _spec(job_id, kind, payload=None, **kw):
    return JobSpec(job_id=job_id, kind=kind, payload=payload or {}, **kw)


def _run_one(spec, workers=1, on_event=None):
    results = WorkerPool(workers, on_event=on_event).run([spec])
    return results[spec.job_id]


class TestHappyPath:
    def test_echo_roundtrip(self):
        result = _run_one(_spec("e1", "util.echo", {"value": 42}, seed=7))
        assert result.status == OK and result.ok
        assert result.payload == {"echo": 42, "seed": 7}
        assert result.wall_seconds > 0

    def test_worker_stats_ship_back(self):
        result = _run_one(_spec("e2", "util.echo", {"value": 1}))
        assert result.stats.get("util.echo.calls") == 1

    def test_many_jobs_two_workers(self):
        specs = [_spec(f"j{i}", "util.echo", {"value": i}) for i in range(6)]
        results = WorkerPool(2).run(specs)
        assert sorted(results) == sorted(s.job_id for s in specs)
        assert all(r.ok for r in results.values())
        assert [results[f"j{i}"].payload["echo"] for i in range(6)] \
            == list(range(6))


class TestFaultPaths:
    def test_clean_exception_is_error(self):
        result = _run_one(_spec("r1", "util.raise", {"message": "boom-7"}))
        assert result.status == ERROR and not result.ok
        assert "boom-7" in result.error
        assert result.payload == {}

    def test_sigkill_mid_job_is_crashed(self):
        result = _run_one(_spec("k1", "util.kill_self"))
        assert result.status == CRASHED and not result.ok
        assert "signal" in result.error or "exit" in result.error

    def test_hang_past_deadline_is_timeout(self):
        result = _run_one(_spec("t1", "util.sleep", {"seconds": 60},
                                timeout=0.4))
        assert result.status == TIMEOUT and not result.ok
        assert result.wall_seconds < 30

    def test_parent_survives_a_crashing_job_among_good_ones(self):
        specs = [_spec("a", "util.echo", {"value": 1}),
                 _spec("b", "util.kill_self"),
                 _spec("c", "util.echo", {"value": 3})]
        results = WorkerPool(2).run(specs)
        assert results["a"].ok and results["c"].ok
        assert results["b"].status == CRASHED


class TestRunsOnce:
    @pytest.mark.parametrize("jobs", [0, 2])
    def test_raising_job_runs_once(self, jobs):
        events = []
        report = run_jobs(
            [_spec("r", "util.raise", {"message": "deterministic"})],
            jobs=jobs,
            reporter=lambda ev, info: events.append((ev, dict(info))))
        kinds = [ev for ev, _ in events]
        assert kinds.count("start") == 1
        assert kinds.count("result") == 1
        result = report.results["r"]
        assert result.status == ERROR
        assert "RuntimeError: deterministic" in result.error


class TestInlineAttempt:
    """execute_attempt is the jobs=0 serial path — same classification."""

    def test_inline_ok_and_error(self):
        ok = execute_attempt(_spec("i1", "util.echo", {"value": 5}))
        assert ok.ok and ok.payload["echo"] == 5
        err = execute_attempt(_spec("i2", "util.raise", {}))
        assert err.status == ERROR and "injected" in err.error

    def test_unknown_kind_is_error_not_raise(self):
        result = execute_attempt(_spec("i3", "no.such.kind"))
        assert result.status == ERROR
        assert "unknown job kind" in result.error


def test_worker_count_validation():
    with pytest.raises(ValueError):
        WorkerPool(0)


def test_fork_context_preferred_on_posix():
    from repro.runner.pool import _pool_context
    if hasattr(os, "fork"):
        assert _pool_context().get_start_method() == "fork"
