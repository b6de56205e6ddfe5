"""The dynamic intra-kernel data-race detector.

A :class:`RaceDetector` is an :class:`~repro.gpu.observer.Observer`
(attach it with ``gpu.observe(detector)``) that shadows every
*committed* warp memory access at byte granularity.  Shadow state records, per byte, the last
write :class:`Site` and the latest read per thread since that write;
each new access is compared against the recorded sites under the
happens-before relation the hardware actually provides:

* **program order** — two accesses by the same thread are ordered;
* **workgroup barriers** — ``bar`` releases a workgroup only when every
  live warp of that workgroup arrived, so accesses of the same
  workgroup in *different* barrier epochs are ordered (the detector
  counts epochs per ``(launch, workgroup)``, bumped by the core's
  barrier-release path);
* **kernel boundaries** — the GPU notifies the detector when a launch
  retires, which drops that launch's whole shadow: accesses of
  different launches never race.

Everything else is concurrent.  Barriers order *nothing* across
workgroups — a cross-workgroup conflicting pair races regardless of
epochs, exactly as on real hardware.

Only committed accesses are shadowed: a checker-blocked access has no
architectural effect (loads are zeroed, stores dropped, §5.5.2), so it
cannot race.  Shared-memory offsets are shadowed *after* the scratchpad
wrap (``offset % pad``), because that is the byte actually touched.

Conflicts are reported as :class:`RaceRecord` rows — kinds ``ww``
(write-after-write), ``rw`` (write racing an earlier read) and ``wr``
(read racing an earlier write) — deduplicated per (launch, space,
site-pair, kind) with exact first/second attribution, surfaced through
the GPU stats registry (``racedetect.*`` counters) and, through the
pipeline's stage-emit path, as ``stage="race"`` events for any
stage-level observer (the oracle's trace stream).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.gpu.observer import Observer
from repro.isa.instructions import DTYPE_SIZE

#: Retained RaceRecord rows; beyond this only the counters grow.  The
#: cap keeps a pathological kernel (every thread racing on every byte)
#: from turning the shadow pass into an allocation storm.
RECORD_CAP = 64


@dataclass(frozen=True)
class Site:
    """One side of a conflicting pair: where an access happened."""

    access_id: int       # static access site in the kernel (AccessInfo id)
    thread: int          # global thread id
    warp_id: int
    wg: int              # workgroup
    is_store: bool
    cycle: int
    epoch: int           # barrier epoch of (launch, wg) at access time
    core: int

    def label(self) -> str:
        return (f"a{self.access_id}/t{self.thread}"
                f"/wg{self.wg}/e{self.epoch}@{self.cycle}")


@dataclass(frozen=True)
class RaceRecord:
    """One deduplicated race: two concurrent conflicting sites."""

    launch_key: int
    space: str
    addr: int            # VA (global spaces) or scratchpad offset (shared)
    kind: str            # "ww" | "rw" | "wr"
    first: Site          # the earlier access in observation order
    second: Site

    def to_dict(self) -> dict:
        return {
            "launch_key": self.launch_key,
            "space": self.space,
            "addr": self.addr,
            "kind": self.kind,
            "first": vars(self.first).copy(),
            "second": vars(self.second).copy(),
        }


class _Entry:
    """Per-byte shadow cell: last write + reads since that write."""

    __slots__ = ("write", "reads")

    def __init__(self):
        self.write: Optional[Site] = None
        self.reads: Dict[int, Site] = {}


def _concurrent(a: Site, b: Site) -> bool:
    """No happens-before edge between two sites of one launch.

    Same thread -> program order.  Same workgroup in different barrier
    epochs -> ordered by the barrier.  Anything else is concurrent —
    including same-epoch neighbours and *all* cross-workgroup pairs.
    """
    if a.thread == b.thread:
        return False
    if a.wg == b.wg and a.epoch != b.epoch:
        return False
    return True


class RaceDetector(Observer):
    """Byte-granular shadow-memory race detector for one device."""

    name = "racedetect"

    def __init__(self, record_cap: int = RECORD_CAP):
        self.record_cap = record_cap
        self.records: List[RaceRecord] = []
        # (launch_key, wg) -> current barrier epoch
        self._epochs: Dict[Tuple[int, int], int] = {}
        # launch_key -> {shadow_key -> _Entry}; shadow_key is the VA
        # (int) for off-chip spaces and (wg, wrapped offset) for shared.
        self._shadow: Dict[int, Dict[object, _Entry]] = {}
        self._dedup: set = set()
        self._counts = {"ww": 0, "rw": 0, "wr": 0}
        self._accesses = 0
        self._bytes = 0

    # -- observer hooks ----------------------------------------------------

    def on_commit(self, pipeline, warp, job, request, cycle: int) -> None:
        """Shadow one committed warp memory access (all active lanes)."""
        launch_key = warp.launch_key
        wg = warp.wg
        executor = job.executor
        base_thread = (wg * executor.wg_size
                       + warp.warp_in_wg * executor.warp_size)
        epoch = self._epochs.get((launch_key, wg), 0)
        size = DTYPE_SIZE[request.dtype]
        is_store = request.is_store
        space = request.space
        shared = space == "shared"
        pad_n = len(pipeline.shared_pad(warp, job)) if shared else 0
        access_id = getattr(request.instr, "access_id", -1)
        if access_id is None:
            access_id = -1
        shadow = self._shadow.get(launch_key)
        if shadow is None:
            shadow = self._shadow[launch_key] = {}
        addrs = request.lane_addrs
        self._accesses += 1
        for lane in request.active_lanes:
            addr = addrs[lane]
            site = Site(access_id=access_id, thread=base_thread + lane,
                        warp_id=warp.warp_id, wg=wg, is_store=is_store,
                        cycle=cycle, epoch=epoch, core=pipeline.core_id)
            self._bytes += size
            for b in range(size):
                if shared:
                    byte = (addr + b) % pad_n
                    key: object = (wg, byte)
                else:
                    byte = addr + b
                    key = byte
                entry = shadow.get(key)
                if entry is None:
                    entry = shadow[key] = _Entry()
                if is_store:
                    if (entry.write is not None
                            and _concurrent(entry.write, site)):
                        self._report(pipeline, launch_key, space, byte,
                                     "ww", entry.write, site, warp, cycle)
                    for read in entry.reads.values():
                        if _concurrent(read, site):
                            self._report(pipeline, launch_key, space, byte,
                                         "rw", read, site, warp, cycle)
                    entry.write = site
                    entry.reads.clear()
                else:
                    if (entry.write is not None
                            and _concurrent(entry.write, site)):
                        self._report(pipeline, launch_key, space, byte,
                                     "wr", entry.write, site, warp, cycle)
                    entry.reads[site.thread] = site

    def on_barrier(self, key: Tuple[int, int]) -> None:
        """A ``(launch_key, wg)`` barrier released: new epoch."""
        self._epochs[key] = self._epochs.get(key, 0) + 1

    def on_kernel_finish(self, launch_key: int) -> None:
        """A launch retired: its accesses can no longer race."""
        self._shadow.pop(launch_key, None)
        for key in [k for k in self._epochs if k[0] == launch_key]:
            del self._epochs[key]

    # -- reporting ---------------------------------------------------------

    def _report(self, pipeline, launch_key: int, space: str, addr: int,
                kind: str, first: Site, second: Site, warp,
                cycle: int) -> None:
        self._counts[kind] += 1
        dedup = (launch_key, space, first.access_id, second.access_id,
                 first.thread, second.thread, kind)
        if dedup in self._dedup:
            return
        self._dedup.add(dedup)
        if len(self.records) < self.record_cap:
            self.records.append(RaceRecord(
                launch_key=launch_key, space=space, addr=addr, kind=kind,
                first=first, second=second))
        # Ride the oracle's stage stream: the structural invariant skips
        # stage=="race" rows, and the trace differ compares them across
        # engines like any other event.
        pipeline.emit_stage(
            stage="race", cycle=cycle, core=pipeline.core_id,
            warp_id=warp.warp_id, kernel_id=launch_key, space=space,
            is_store=second.is_store, tx=addr, lo=addr, hi=addr,
            level=kind, reason=f"{first.label()}|{second.label()}")

    # -- results -----------------------------------------------------------

    @property
    def race_count(self) -> int:
        """Deduplicated races observed (may exceed retained records)."""
        return len(self._dedup)

    @property
    def has_races(self) -> bool:
        return bool(self._dedup)

    def verdict(self) -> str:
        """Dynamic verdict in the static pass's lattice vocabulary."""
        return "races" if self.has_races else "race-free"

    def stats(self) -> Dict[str, int]:
        """Counters for the GPU stats registry (``racedetect.*``)."""
        return {
            "races": len(self._dedup),
            "records": len(self.records),
            "conflicts_ww": self._counts["ww"],
            "conflicts_rw": self._counts["rw"],
            "conflicts_wr": self._counts["wr"],
            "accesses": self._accesses,
            "bytes_shadowed": self._bytes,
        }

    def record_dicts(self) -> List[dict]:
        return [record.to_dict() for record in self.records]

    def reset(self) -> None:
        """Scrub everything — shadow, epochs, records, counters."""
        self.records.clear()
        self._epochs.clear()
        self._shadow.clear()
        self._dedup.clear()
        self._counts = {"ww": 0, "rw": 0, "wr": 0}
        self._accesses = 0
        self._bytes = 0
