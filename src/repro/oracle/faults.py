"""Deterministic fault injection for oracle self-tests.

The conformance oracle is only trustworthy if a real defect shows up as
a localised first-divergent event.  :func:`injected_coalescer_fault`
plants exactly that kind of defect: on the Nth coalesce across the
whole GPU it flips one bit of the first emitted transaction base — a
single-event corruption of the ACU output that then ripples through
the TLB/cache stages.  The trace-diff must pin the divergence to that
coalesce stage event (and the fault-localisation test asserts it
does).

Injection wraps ``pipeline.coalesce`` per core, which both engines
funnel through while any observer is attached (the fast lane delegates
to the reference pipeline whenever ``pipeline.observers`` is
non-empty, and the oracle always attaches its tracer).  The wrapper is an
instance-attribute shadow and is always removed on exit, so a warm
device never returns to the pool carrying a fault.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from repro.gpu.coalescer import CoalescedAccess


@dataclass(frozen=True)
class CoalescerFault:
    """Flip ``bit`` of the first transaction base of the ``site``-th
    coalesce (0-based, counted across every core in dispatch order)."""

    site: int
    bit: int = 7     # 1 << 7 = 128: shifts the segment by one line


@contextmanager
def injected_coalescer_fault(gpu, fault):
    """Scoped injection; ``fault=None`` is a no-op passthrough."""
    if fault is None:
        yield None
        return
    counter = [0]
    pipelines = [core.pipeline for core in gpu.cores]
    for pipeline in pipelines:
        original = pipeline.coalesce

        def wrapped(request, _original=original):
            ca = _original(request)
            site = counter[0]
            counter[0] += 1
            if site != fault.site:
                return ca
            txs = list(ca.transactions)
            txs[0] ^= 1 << fault.bit
            return CoalescedAccess(transactions=tuple(txs),
                                   min_addr=ca.min_addr,
                                   max_addr=ca.max_addr,
                                   active_lanes=ca.active_lanes)

        pipeline.coalesce = wrapped
    try:
        yield counter
    finally:
        for pipeline in pipelines:
            # Drop the instance-attribute shadow; the class method
            # resurfaces untouched.
            pipeline.__dict__.pop("coalesce", None)
