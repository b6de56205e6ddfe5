"""The unified per-access checker protocol.

Every per-access protection mechanism — GPUShield's BCU, the
CUDA-MEMCHECK shadow-table walk, in-kernel software guards — answers the
same question: *may this warp-level access of bytes ``[lo, hi]`` proceed,
and what does deciding cost?*  This module gives that question one
vocabulary so the memory pipeline (:mod:`repro.gpu.pipeline`) carries a
single hook instead of tool-specific plumbing:

* :class:`AccessContext` — everything the address-gathering stage knows
  about one coalesced warp access (the BCU's exact vantage, Figure 12);
* :class:`CheckOutcome` — the verdict plus its timing footprint;
* :class:`AccessChecker` — the protocol: ``check(ctx) -> CheckOutcome``.

Launch-granularity tools (clArmor, GMOD) do not fit a per-access seam;
they interpose around kernel launches instead — see
:class:`repro.analysis.harness.LaunchInterposer`.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, NamedTuple, Optional, Protocol,
                    runtime_checkable)

if TYPE_CHECKING:
    from repro.core.violations import ViolationRecord


class AccessContext(NamedTuple):
    """One warp-level memory access as the check hardware sees it.

    ``security`` is the launch's
    :class:`~repro.core.bcu.KernelSecurityContext` (``None`` when the
    kernel runs without GPUShield metadata).  ``num_transactions``,
    ``dcache_hit`` and ``tlb_miss`` describe the concurrent LSU activity
    — checkers may use them to compute how much latency they can hide.

    Immutable, and a named tuple rather than a frozen dataclass because
    the pipeline builds one per checked warp access: a tuple is several
    times cheaper to construct.
    """

    security: Optional[object]
    base_pointer: int
    lo: int                      # lowest byte touched
    hi: int                      # highest byte touched (inclusive)
    is_store: bool
    space: str
    num_transactions: int = 1
    dcache_hit: bool = True
    tlb_miss: bool = False
    num_lanes: int = 1
    cycle: int = 0


class CheckOutcome(NamedTuple):
    """Result of one warp-level bounds check (immutable, like
    :class:`AccessContext`, and as cheap to build).

    ``stall_cycles`` is an *issue bubble*: the pipeline cannot issue for
    that many cycles (Figure 12's 1-cycle penalty case).  ``check_latency``
    is how long until the bounds are resolved; the warp's memory result
    cannot commit earlier, but other warps keep running — on an RBT fill
    (L2 RCache miss) this is a full memory fetch, hidden behind TLB-miss
    and DRAM latency in the common case (§5.5).
    """

    allowed: bool
    stall_cycles: int
    check_latency: int = 0
    violation: Optional["ViolationRecord"] = None
    rbt_fill: bool = False


#: The trivially-allowing outcome shared by pass-through checkers.
ALLOW = CheckOutcome(allowed=True, stall_cycles=0)


@runtime_checkable
class AccessChecker(Protocol):
    """Anything that can veto (and price) a warp-level memory access."""

    def check(self, ctx: AccessContext) -> CheckOutcome:
        """Judge one access; never raises for an allowed access."""
        ...


class NullChecker:
    """The no-protection baseline: every access is free and allowed."""

    def check(self, ctx: AccessContext) -> CheckOutcome:
        return ALLOW


class RecordingChecker:
    """Test helper: records every context, optionally delegating.

    Wrap a real checker to observe the exact ``(lo, hi)`` ranges the
    pipeline feeds it — the seam the pipeline tests use to prove a fake
    checker sees what the BCU sees.
    """

    def __init__(self, inner: Optional[AccessChecker] = None):
        self.inner = inner
        self.contexts: list = []

    def check(self, ctx: AccessContext) -> CheckOutcome:
        self.contexts.append(ctx)
        if self.inner is None:
            return ALLOW
        return self.inner.check(ctx)
