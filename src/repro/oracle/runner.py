"""Oracle jobs on the parallel runner: one subject per job.

``oracle.diff`` jobs are self-contained — the payload names a subject
and a mode, the worker captures every leg in-process and returns the
serialized :class:`~repro.oracle.diff.DiffResult` plus each leg's
invariant report.  Because captures are deterministic, a sharded
sweep is observably identical to a serial one (the runner guarantees
the rest: crash isolation, timeouts, checkpoint/resume).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.runner.job import JobContext, JobSpec

DIFF_KIND = "oracle.diff"

#: Slow-engine stage-level captures of the artifact workloads are the
#: slowest legs; one subject comfortably fits, with margin for CI.
DEFAULT_SUBJECT_TIMEOUT = 900.0


def plan_diff_jobs(subjects: Sequence[str], *, mode: str = "engines",
                   engines: Sequence[str] = ("slow", "fast"),
                   golden_root: Optional[str] = None,
                   stage_level: bool = True,
                   invariants: bool = True, seed: int = 11,
                   timeout: float = DEFAULT_SUBJECT_TIMEOUT,
                   ) -> List[JobSpec]:
    """One self-contained job per subject."""
    plan: List[JobSpec] = []
    for index, subject in enumerate(subjects):
        plan.append(JobSpec(
            job_id=f"oracle-{index:04d}",
            kind=DIFF_KIND,
            seed=seed,
            timeout=timeout,
            payload={
                "subject": subject,
                "mode": mode,
                "engines": list(engines),
                "golden_root": golden_root,
                "stage_level": stage_level,
                "invariants": invariants,
            }))
    return plan


def oracle_diff_job(payload: dict, ctx: JobContext) -> dict:
    """Worker entrypoint: capture, diff and invariant-check one subject."""
    from repro.oracle.capture import capture
    from repro.oracle.diff import diff_captures
    from repro.oracle.golden import verify_golden
    from repro.oracle.invariants import check_capture

    subject = payload["subject"]
    mode = payload.get("mode", "engines")
    stage_level = bool(payload.get("stage_level", True))
    run_invariants = bool(payload.get("invariants", True))
    captures = []

    if mode == "engines":
        leg_a, leg_b = payload["engines"]
        a = capture(subject, engine=leg_a, stage_level=stage_level)
        b = capture(subject, engine=leg_b, stage_level=stage_level)
        captures = [a, b]
        diff = diff_captures(a, b)
    elif mode == "golden":
        engines = payload.get("engines") or [""]
        legs = [verify_golden(subject, root=payload.get("golden_root"),
                              engine=eng) for eng in engines]
        captures = [cap for _diff, cap in legs]
        # Report the first failing leg (or the last passing one).
        diff = next((d for d, _cap in legs if not d.ok), legs[-1][0])
    elif mode == "invariants":
        engines = payload.get("engines") or [""]
        captures = [capture(subject, engine=eng, stage_level=stage_level)
                    for eng in engines]
        diff = None
        run_invariants = True
    else:
        raise ValueError(f"unknown oracle job mode {mode!r}")

    invariant_reports: List[Dict[str, object]] = []
    if run_invariants:
        for cap in captures:
            invariant_reports.append(check_capture(cap).to_dict())

    ok = (diff is None or diff.ok) \
        and all(r["ok"] for r in invariant_reports)
    counters = ctx.stats.counters("oracle.diff")
    counters["subjects"] = counters.get("subjects", 0) + 1
    if not ok:
        counters["divergent"] = counters.get("divergent", 0) + 1
    return {
        "subject": subject,
        "mode": mode,
        "ok": ok,
        "diff": diff.to_dict() if diff is not None else None,
        "invariants": invariant_reports,
    }
