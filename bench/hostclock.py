"""Host-speed-corrected timing for a shared, noisy machine.

On a host shared with other tenants the same pass runs 1.3-1.6x slower
for seconds at a time, so raw wall times of identical passes spread by
13-25% (IQR over median).  :class:`HostClock` corrects for it: an
interval timer interrupts the process every ``PERIOD_S`` of wall time
and runs :func:`probe`, a fixed pure-Python loop that shares no code
with the simulator.  Each stretch of program time since the previous
probe is scaled by ``NOMINAL_S / duration of the probe that ends it``;
the sum estimates how long the same work takes on a host where the
probe takes ``NOMINAL_S``, i.e. this host when nothing else runs.
Identical passes then spread by about 1%.

The probes cost about 1.3% of wall time.  The signal handler runs
between bytecodes of whatever the program is doing and touches none of
its state.
"""

from __future__ import annotations

import signal
import time

#: Wall seconds between probes.
PERIOD_S = 0.01
#: About the probe's duration inside the handler on the quiet baseline
#: host (results/baseline.json), so corrected and raw seconds agree
#: there.  Changing it rescales every corrected time.
NOMINAL_S = 1.2e-4


def probe() -> float:
    """Seconds one fixed unit of interpreter work takes right now."""
    start = time.perf_counter()
    x, table = 1, {}
    for i in range(800):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        table[x & 255] = i
    return time.perf_counter() - start


class HostClock:
    """Corrected seconds of the main thread's work, lap by lap."""

    def __init__(self):
        self.probes = 0
        self._corrected = 0.0
        self._mark = 0.0
        #: NOMINAL_S over the first probe's duration: the correction for
        #: time spent before :meth:`start`.
        self.first_factor = 1.0

    def start(self) -> float:
        """Start probing; returns the start time on ``perf_counter``."""
        now = time.perf_counter()
        self.first_factor = NOMINAL_S / probe()
        self._mark = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return now

    def _tick(self, _signum=None, _frame=None) -> None:
        now = time.perf_counter()
        duration = probe()
        self._corrected += (now - self._mark) * NOMINAL_S / duration
        self.probes += 1
        self._mark = time.perf_counter()

    def lap(self) -> float:
        """Corrected seconds since :meth:`start` or the previous lap."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._tick()
            lap, self._corrected = self._corrected, 0.0
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return lap

    def stop(self) -> float:
        """Stop probing; returns the last lap.

        The handler stays installed: a tick already pending when the
        timer stops must still find it (CPython reports a tick that
        arrives after a handler reset as a race)."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return self.lap()
