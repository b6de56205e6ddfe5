"""Memory-access tracing: capture, summarise, export.

A :class:`MemoryTracer` is an :class:`~repro.gpu.observer.Observer`:
pass it to a GPU and every warp-level memory instruction is recorded
after coalescing and bounds checking — the same vantage point the BCU
has.  Useful for debugging workloads, validating access-pattern claims
(affine vs indirect), and teaching.

    tracer = MemoryTracer()
    session.gpu.observe(tracer)
    session.run(...)
    print(render_summary(tracer.summarize()))

With ``stage_level=True`` the tracer additionally captures one
:class:`StageEvent` per pipeline stage — coalescer segment emission,
TLB hit level, cache hit level and the BCU decode/check outcome —
giving the conformance oracle (:mod:`repro.oracle`) the full
intra-access picture.  Any attached tracer, stage-level or not, sends
the fast engine through the reference pipeline; with no observer the
fast engine's inlined hot lane runs untouched.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.gpu.observer import Observer

#: Version of the on-disk trace wire format.  Bump on any change to the
#: event dataclasses below; the trace-diff engine refuses to compare
#: traces recorded under different schema versions.
TRACE_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class TraceEvent:
    """One warp memory instruction, post-coalescing."""

    cycle: int
    core: int
    warp_id: int
    kernel_id: int
    space: str
    is_store: bool
    lo: int                  # lowest byte touched
    hi: int                  # highest byte touched (inclusive)
    transactions: int
    active_lanes: int
    allowed: bool            # False when the BCU blocked it


@dataclass(frozen=True)
class StageEvent:
    """One pipeline-stage observation inside a warp memory instruction.

    ``stage`` selects which optional fields are meaningful:

    ``coalesce``
        ACU output: ``lo``/``hi`` footprint, ``transactions`` count,
        the aligned ``segments`` tuple and ``active_lanes``.
    ``translate``
        One transaction's TLB outcome: ``tx`` base address and
        ``level`` in ``{"l1", "l2", "walk"}``.
    ``cache``
        One transaction's cache outcome: ``tx`` and ``level`` in
        ``{"l1", "l2", "dram"}``.
    ``check``
        The BCU seam: decoded pointer type in ``level`` (``"off"``
        when the launch carries no security context), ``allowed``,
        the violation ``reason`` (empty string when allowed), and the
        ``check_latency`` / ``stall`` / ``rbt_fill`` pricing.
    """

    stage: str
    cycle: int
    core: int
    warp_id: int
    kernel_id: int
    space: str
    is_store: bool
    tx: int = -1
    level: str = ""
    lo: int = 0
    hi: int = 0
    transactions: int = 0
    segments: Tuple[int, ...] = ()
    active_lanes: int = 0
    allowed: bool = True
    reason: str = ""
    check_latency: int = 0
    stall: int = 0
    rbt_fill: bool = False


AnyEvent = Union[TraceEvent, StageEvent]


def event_to_wire(event: AnyEvent) -> Dict[str, object]:
    """Flatten an event into its JSON wire dict (``event`` key tags
    the kind: ``"access"`` for :class:`TraceEvent`, else the stage)."""
    if isinstance(event, TraceEvent):
        wire = asdict(event)
        wire["event"] = "access"
        return wire
    wire = asdict(event)
    wire["event"] = wire.pop("stage")
    wire["segments"] = list(event.segments)
    return wire


def event_from_wire(wire: Dict[str, object]) -> AnyEvent:
    """Inverse of :func:`event_to_wire`.

    Also accepts the legacy schema-1 form (no ``event`` key), which only
    ever carried access events.
    """
    data = dict(wire)
    kind = data.pop("event", "access")
    if kind == "access":
        return TraceEvent(**data)
    data["segments"] = tuple(data.get("segments", ()))
    return StageEvent(stage=kind, **data)


class MemoryTracer(Observer):
    """Collects :class:`TraceEvent` records (bounded, drop-oldest).

    ``stage_level=True`` additionally collects :class:`StageEvent`
    records; :attr:`stream` interleaves both kinds in emission order
    (stage events of an access precede its access event), which is the
    sequence the trace-diff engine compares.
    """

    #: Stage events per access event, roughly (1 coalesce + 2 per
    #: transaction + 1 check) — the stage buffer gets this much more
    #: headroom than the access buffer.
    STAGE_FANOUT = 8

    def __init__(self, capacity: int = 100_000, stage_level: bool = False):
        self.capacity = capacity
        self.stage_level = stage_level
        self.events: List[TraceEvent] = []
        self.stage_events: List[StageEvent] = []
        self.dropped = 0
        self.stage_dropped = 0
        self._stream: List[AnyEvent] = []

    def record(self, event: TraceEvent) -> None:
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(event)
        self._stream.append(event)

    def on_stage(self, **fields) -> None:
        """Record one stage observation (the pipeline emits these only
        when :attr:`stage_level` is set)."""
        if len(self.stage_events) >= self.capacity * self.STAGE_FANOUT:
            self.stage_dropped += 1
            return
        event = StageEvent(**fields)
        self.stage_events.append(event)
        self._stream.append(event)

    def on_access(self, pipeline, warp, job, request, result,
                  marks) -> None:
        self.record(TraceEvent(
            cycle=result.cycle, core=pipeline.core_id, warp_id=warp.warp_id,
            kernel_id=warp.launch_key, space=request.space,
            is_store=request.is_store, lo=result.min_addr,
            hi=result.max_addr, transactions=result.transactions,
            active_lanes=len(request.active_lanes),
            allowed=result.allowed))

    @property
    def stream(self) -> List[AnyEvent]:
        """Access + stage events, in emission order."""
        return self._stream

    def clear(self) -> None:
        self.events.clear()
        self.stage_events.clear()
        self._stream.clear()
        self.dropped = 0
        self.stage_dropped = 0

    def __len__(self) -> int:
        return len(self.events)

    # -- analysis ---------------------------------------------------------------

    def summarize(self) -> TraceSummary:
        summary = TraceSummary()
        lines = set()
        pages = set()
        spaces: Counter = Counter()
        for ev in self.events:
            summary.events += 1
            summary.stores += 1 if ev.is_store else 0
            summary.blocked += 0 if ev.allowed else 1
            summary.transactions += ev.transactions
            spaces[ev.space] += 1
            lines.update(range(ev.lo // 128, ev.hi // 128 + 1))
            pages.update(range(ev.lo // 4096, ev.hi // 4096 + 1))
            summary.max_range_bytes = max(summary.max_range_bytes,
                                          ev.hi - ev.lo + 1)
        summary.by_space = dict(spaces)
        summary.footprint_lines = len(lines)
        summary.footprint_pages_4k = len(pages)
        return summary

    def stores_to(self, lo: int, hi: int) -> List[TraceEvent]:
        """All stores overlapping the byte range [lo, hi] — forensic
        queries like "who wrote over my buffer?"."""
        return [ev for ev in self.events
                if ev.is_store and ev.lo <= hi and lo <= ev.hi]

    # -- export -----------------------------------------------------------------

    def to_jsonl(self, path: str,
                 meta: Optional[Dict[str, object]] = None) -> int:
        """Write the trace as JSONL; returns the access-event count.

        The first line is a schema header carrying
        ``schema_version``/``events`` plus any caller ``meta`` (the
        oracle stamps the config fingerprint there); every following
        line is one event of the unified stream in wire form.
        """
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        header: Dict[str, object] = {
            "schema_version": TRACE_SCHEMA_VERSION,
            "events": len(self._stream),
        }
        header.update(meta or {})
        with out.open("w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for ev in self._stream:
                fh.write(json.dumps(event_to_wire(ev), sort_keys=True)
                         + "\n")
        return len(self.events)

    @classmethod
    def from_jsonl(cls, path: str) -> "MemoryTracer":
        header, events = read_trace_file(path)
        tracer = cls(capacity=max(100_000, len(events)),
                     stage_level=any(isinstance(e, StageEvent)
                                     for e in events))
        for ev in events:
            if isinstance(ev, TraceEvent):
                tracer.record(ev)
            else:
                tracer.stage_events.append(ev)
                tracer._stream.append(ev)
        tracer.meta = header
        return tracer


def read_trace_file(path: str) -> Tuple[Dict[str, object], List[AnyEvent]]:
    """Parse a trace JSONL file into (header, events).

    Accepts both the schema-2 form (header line first) and the legacy
    headerless schema-1 form, for which a synthetic
    ``{"schema_version": 1}`` header is returned.
    """
    header: Dict[str, object] = {"schema_version": 1}
    events: List[AnyEvent] = []
    with Path(path).open() as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            if i == 0 and "schema_version" in data and "event" not in data \
                    and "cycle" not in data:
                header = data
                continue
            events.append(event_from_wire(data))
    return header, events


@dataclass
class TraceSummary:
    """Aggregates over a capture."""

    events: int = 0
    stores: int = 0
    blocked: int = 0
    by_space: Dict[str, int] = field(default_factory=dict)
    transactions: int = 0
    footprint_lines: int = 0         # distinct 128B segments touched
    footprint_pages_4k: int = 0      # distinct 4KB pages touched
    max_range_bytes: int = 0         # widest single warp access


def render_summary(summary: TraceSummary) -> str:
    lines = [
        "memory trace summary",
        f"  events:          {summary.events} "
        f"({summary.stores} stores, {summary.blocked} blocked)",
        f"  transactions:    {summary.transactions}",
        f"  footprint:       {summary.footprint_lines} x 128B lines, "
        f"{summary.footprint_pages_4k} x 4KB pages",
        f"  widest access:   {summary.max_range_bytes} bytes",
    ]
    for space, count in sorted(summary.by_space.items()):
        lines.append(f"  space {space:8s} {count}")
    return "\n".join(lines)


def iter_access_events(events: Iterable[AnyEvent]) -> Iterable[TraceEvent]:
    for ev in events:
        if isinstance(ev, TraceEvent):
            yield ev
