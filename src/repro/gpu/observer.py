"""The observer seam: software watchers at the LSU commit point.

The stage tracer, the race detector and the profiler all watch warp
memory accesses at the point where GPUShield's BCU sits (Figure 12).
Each one subclasses :class:`Observer` and overrides only the hooks it
needs; :meth:`repro.gpu.gpu.GPU.observe` installs an ordered tuple of
them on every core's pipeline.  Per global-space access the reference
pipeline calls, in order:

1. ``on_stage(**fields)`` per pipeline stage, for observers with
   :attr:`Observer.stage_level` set;
2. the functional commit, then ``on_commit`` for every observer
   (committed accesses only: a blocked access has no architectural
   effect);
3. ``on_access`` for every observer, with the finished
   :class:`~repro.gpu.pipeline.AccessResult` and five host clock marks.

With no observer attached, the fast engine never leaves its inlined
lane; with any observer attached it delegates to the reference pipeline,
which runs over the fast structures bit-identically.
"""

from __future__ import annotations

from typing import Dict, Tuple


class Observer:
    """No-op base for everything that watches the memory pipeline."""

    #: Stats-registry prefix for :meth:`stats` ("" registers nothing).
    name = ""
    #: Whether the pipeline emits per-stage events to :meth:`on_stage`.
    stage_level = False

    def on_stage(self, **fields) -> None:
        """One pipeline-stage observation (see ``analysis.trace.StageEvent``)."""

    def on_commit(self, pipeline, warp, job, request, cycle: int) -> None:
        """An access passed the checker and moved its data."""

    def on_access(self, pipeline, warp, job, request, result,
                  marks: Tuple[int, int, int, int, int]) -> None:
        """An access left the pipeline (allowed or blocked).

        ``marks`` are host ``perf_counter_ns`` readings at the stage
        boundaries: start, after coalesce, after the translate/cache
        loop, after the check, end.
        """

    def on_barrier(self, key: Tuple[int, int]) -> None:
        """The ``(launch_key, wg)`` workgroup barrier released."""

    def on_kernel_finish(self, launch_key: int) -> None:
        """A launch retired on the GPU."""

    def stats(self) -> Dict[str, int]:
        """Counters registered under :attr:`name`."""
        return {}
