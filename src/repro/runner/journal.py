"""The checkpoint journal: an append-only JSONL log of run progress.

One line per event, flushed as written, so a run killed at any point —
including mid-write — leaves a loadable journal:

* ``plan``    — header: run name, plan fingerprint, job count;
* ``resume``  — appended each time a run resumes this journal;
* ``result``  — one per finished job; resume replays these.

A fresh run into an existing journal appends a new ``plan`` header;
everything before the last header belongs to an earlier run and is
ignored on load.

Loading tolerates a torn final line (the kill-mid-write case) by
discarding it; everything before a torn line is intact because lines
are flushed whole.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.runner.job import JobResult

_SCHEMA = 1


@dataclass
class JournalState:
    """Everything a resuming run recovers from an existing journal."""

    header: Dict[str, object] = field(default_factory=dict)
    results: Dict[str, JobResult] = field(default_factory=dict)
    resumes: int = 0
    torn_lines: int = 0

    @property
    def fingerprint(self) -> str:
        return str(self.header.get("fingerprint", ""))


class Journal:
    """Append-only writer over one journal file."""

    def __init__(self, path: str):
        self.path = path
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fh: Optional[io.TextIOWrapper] = open(path, "a")

    def _emit(self, record: Dict[str, object]) -> None:
        if self._fh is None:
            raise ValueError(f"journal {self.path} is closed")
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def write_plan(self, *, run_name: str, fingerprint: str,
                   total_jobs: int, meta: Optional[Dict[str, object]] = None,
                   ) -> None:
        self._emit({"type": "plan", "schema": _SCHEMA, "run": run_name,
                    "fingerprint": fingerprint, "total_jobs": total_jobs,
                    "meta": meta or {}})

    def write_resume(self, *, reused: int, remaining: int) -> None:
        self._emit({"type": "resume", "reused": reused,
                    "remaining": remaining})

    def write_result(self, result: JobResult) -> None:
        self._emit({"type": "result", "result": result.to_dict()})

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def load_journal(path: str) -> JournalState:
    """Parse a journal back into resumable state.

    Only records after the last ``plan`` header count: results before
    it come from another run, possibly of another plan.  The *last*
    ``result`` line per job wins (a resumed run may re-run a previously
    failed job and append a newer result).  A torn trailing line is
    counted and dropped.
    """
    state = JournalState()
    if not os.path.exists(path):
        return state
    with open(path) as fh:
        lines = fh.readlines()
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                state.torn_lines += 1
                continue
            raise ValueError(
                f"journal {path}: corrupt record on line {i + 1} "
                "(only the final line may be torn)")
        rtype = record.get("type")
        if rtype == "plan":
            state = JournalState(header=record)
        elif rtype == "resume":
            state.resumes += 1
        elif rtype == "result":
            result = JobResult.from_dict(record["result"])
            state.results[result.job_id] = result
    return state
