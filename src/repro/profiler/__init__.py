"""Hierarchical performance profiler + the perf-regression gate.

``profile`` holds the :class:`Profiler` observer and the
mergeable :class:`ProfileSnapshot`; ``collect`` runs subjects with the
profiler attached and reconciles the attribution against the stats
registry; ``report`` renders flame JSON and the text top-N; ``runner``
shards profiles across worker processes; ``gate`` is the baseline
comparator behind ``python -m repro bench --gate``.
"""

from repro.profiler.collect import (ProfileReport, profile_benchmark,
                                    profile_case, profile_workload,
                                    reconcile)
from repro.profiler.profile import (PROFILE_SCHEMA, Profiler,
                                    ProfileSnapshot)
from repro.profiler.report import flame, render, top_rows

__all__ = [
    "PROFILE_SCHEMA",
    "ProfileReport",
    "Profiler",
    "ProfileSnapshot",
    "flame",
    "profile_benchmark",
    "profile_case",
    "profile_workload",
    "reconcile",
    "render",
    "top_rows",
]
