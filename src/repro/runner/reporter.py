"""Progress/heartbeat reporting for long parallel runs.

The reporter is a pool-event callback (see
:data:`repro.runner.pool.PoolEvent`): it prints a heartbeat line at a
bounded rate while jobs run, one line per failure as it happens, and a
final summary.  Output goes to stderr so it never contaminates
machine-readable stdout (detection matrices, JSON reports).
"""

from __future__ import annotations

import sys
import time

#: Minimum seconds between two heartbeat lines.
_INTERVAL = 2.0


class HeartbeatReporter:
    """Rate-limited progress lines: ``[runner] 12/50 done, 2 running``."""

    def __init__(self, total: int, *, label: str = "runner"):
        self.total = total
        self.label = label
        self.done = 0
        self.failed = 0
        self.reused = 0
        self._started = time.monotonic()
        self._last_beat = 0.0

    def _print(self, text: str) -> None:
        print(f"[{self.label}] {text}", file=sys.stderr, flush=True)

    def _beat(self, running: int, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_beat < _INTERVAL:
            return
        self._last_beat = now
        elapsed = now - self._started
        rate = self.done / elapsed if elapsed > 0 else 0.0
        self._print(f"{self.done}/{self.total} jobs done "
                    f"({self.failed} failed, {self.reused} reused), "
                    f"{running} running, {elapsed:.1f}s elapsed, "
                    f"{rate:.2f} jobs/s")

    # -- pool-event protocol ----------------------------------------------

    def __call__(self, event: str, info: dict) -> None:
        if event == "reused":
            self.done += 1
            self.reused += 1
        elif event == "result":
            self.done += 1
            if info.get("status") != "ok":
                self.failed += 1
                self._print(f"job {info.get('job_id')} failed "
                            f"({info.get('status')})")
        elif event == "tick":
            self._beat(info.get("running", 0))
        elif event == "done":
            self._beat(0, force=True)
