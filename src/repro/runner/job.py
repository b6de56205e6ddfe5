"""The job model: pure-data units of parallel work.

A :class:`JobSpec` is everything a worker process needs to execute one
independent unit of a campaign or sweep: a stable id, an entrypoint
*kind* (resolved through :mod:`repro.runner.kinds`), a JSON-serializable
payload, a seed, and a timeout.  Specs are frozen pure data, which is
what makes the checkpoint journal and ``--resume`` trivial: the plan
can be fingerprinted and re-derived bit-identically.

A :class:`JobResult` separates **canonical** output (job id, status,
payload, stats — deterministic, what merging consumes) from **runtime**
telemetry (wall seconds, the reused flag — useful in the manifest,
excluded from result digests so an interrupted-and-resumed run merges
bit-identically to an uninterrupted one).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Optional, Sequence

from repro.analysis.stats import StatsRegistry

#: Terminal statuses a job can end in.
OK, ERROR, CRASHED, TIMEOUT = "ok", "error", "crashed", "timeout"
FAILURE_STATUSES = (ERROR, CRASHED, TIMEOUT)


@dataclass(frozen=True)
class JobSpec:
    """One schedulable unit of work.  Pure data; ``to_dict`` feeds the
    plan fingerprint."""

    job_id: str
    kind: str                      # registry name or "module:function"
    payload: Dict[str, object] = field(default_factory=dict)
    seed: int = 0
    timeout: Optional[float] = None   # seconds; None = unbounded

    def validate(self) -> None:
        if not self.job_id:
            raise ValueError("job_id must be non-empty")
        if not self.kind:
            raise ValueError(f"job {self.job_id}: kind must be non-empty")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"job {self.job_id}: bad timeout {self.timeout}")

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def plan_fingerprint(specs: Sequence[JobSpec]) -> str:
    """A stable digest of a job plan.

    The journal records it so ``--resume`` can refuse to splice results
    from a *different* plan (changed seed, shard count, payloads, …)
    into this run.
    """
    blob = json.dumps([s.to_dict() for s in specs], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class JobResult:
    """Outcome of one job's single run."""

    job_id: str
    status: str                       # ok | error | crashed | timeout
    payload: Dict[str, object] = field(default_factory=dict)
    stats: Dict[str, float] = field(default_factory=dict)
    error: str = ""
    # -- runtime telemetry (excluded from canonical form) ------------------
    wall_seconds: float = 0.0
    reused: bool = False              # replayed from a checkpoint journal

    @property
    def ok(self) -> bool:
        return self.status == OK

    def canonical(self) -> Dict[str, object]:
        """The deterministic slice of this result.

        Merging and digests read only this: two runs that executed the
        same plan — in any order, resumed or not — produce identical
        canonical forms.
        """
        return {
            "job_id": self.job_id,
            "status": self.status,
            "payload": self.payload,
            "stats": self.stats,
            "error": self.error,
        }

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobResult":
        """Rebuild a result, dropping keys this version does not have.

        A journal written by an older version (its results carried an
        ``attempts`` count) must still load far enough for ``--resume``
        to refuse it by plan fingerprint.
        """
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items()   # type: ignore[arg-type]
                      if k in names})


def results_digest(results: Sequence[JobResult]) -> str:
    """SHA-256 over the canonical forms, sorted by job id.

    This is the bit-identity the resume guarantee is stated in: the
    digest of a resumed run equals the digest of an uninterrupted one.
    """
    blob = json.dumps(sorted((r.canonical() for r in results),
                             key=lambda c: c["job_id"]), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class JobContext:
    """What a worker entrypoint receives besides its payload."""

    spec: JobSpec
    stats: StatsRegistry          # harvested and shipped back on exit
