"""Intra-kernel data-race detection: dynamic shadow memory + static pass.

Two independent oracles agree on whether a kernel races *with itself*
inside one launch:

* :class:`~repro.racedetect.detector.RaceDetector` — a per-byte shadow
  memory over the global/local/heap and shared spaces that rides the
  memory pipeline's commit point and reports every pair of concurrent
  conflicting accesses with exact (address, both-site) attribution;
* :func:`~repro.compiler.mayrace.analyze_kernel_races` — the static
  may-race pass over the mini IR (affine index disjointness plus the
  barrier-epoch happens-before model), whose ``race-free`` claims the
  detector cross-checks.

:mod:`repro.racedetect.scan` runs both over workloads and fuzz cases;
``python -m repro race`` is the CLI, a plug-in of the shared sweep
(:mod:`repro.runner.sweep`), which shards scans as ``sweep.shard`` jobs.
"""

from repro.compiler.mayrace import (
    MAY_RACE, RACE_FREE, RACES, analyze_kernel_races, worst_verdict,
)
from repro.racedetect.detector import RaceDetector, RaceRecord, Site
from repro.racedetect.scan import (
    CaseScan, WorkloadScan, scan_benchmark, scan_case, scan_workload,
)
from repro.racedetect.verdict import (
    buffer_sizes_for, launch_bounds_for, static_workload_verdict,
)

__all__ = [
    "MAY_RACE", "RACE_FREE", "RACES",
    "CaseScan", "RaceDetector", "RaceRecord", "Site", "WorkloadScan",
    "analyze_kernel_races", "buffer_sizes_for", "launch_bounds_for",
    "scan_benchmark", "scan_case", "scan_workload",
    "static_workload_verdict", "worst_verdict",
]
