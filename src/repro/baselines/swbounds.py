"""In-kernel software bounds checks (paper §6.4, Figure 13).

Programmers commonly guard GPU accesses with ``if (tid < n)`` clauses.
The paper measures up to 76% overhead from (1) the extra instructions
executed by *every* workitem and (2) control-flow divergence when some
lanes fail the check.  GPUShield's hardware checks could subsume these
guards (left as future work in the paper; the ablation bench
``bench_ablation_swcheck`` quantifies the same comparison here).

This module builds kmeans-swap variants:

* ``checked`` — Figure 13's kernel with the software guard on every
  access (per-access ``if`` + index clamp re-evaluation);
* ``unchecked`` — the raw kernel with no guard, relying on GPUShield;
* ``divergent`` — the guard plus an oversubscribed launch so that part
  of every warp fails it (the divergence cost).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.checker import ALLOW, AccessContext, CheckOutcome
from repro.isa.builder import KernelBuilder
from repro.isa.program import Kernel
from repro.workloads.templates import BufferSpec, KernelRun, Workload, _buf, _scalar

#: Instructions one in-kernel guard adds per access (setp + branch).
GUARD_COST_CYCLES = 2


class SoftwareGuardChecker:
    """The in-kernel ``if (tid < n)`` guard behind the unified
    :class:`~repro.core.checker.AccessChecker` protocol.

    Each global access is compared against the known buffer regions —
    the same (min, max) range the BCU judges — and charged the guard's
    instruction cost as an issue bubble.  Unlike the real in-kernel
    variant this form cannot diverge (the comparison is per warp, not
    per lane), which is exactly the saving the paper attributes to
    hardware subsuming software guards (§6.4).
    """

    def __init__(self, regions: Dict[str, Tuple[int, int]],
                 guard_cost: int = GUARD_COST_CYCLES):
        self.regions = dict(regions)
        self.guard_cost = guard_cost
        self.checks = 0
        self.failures: List[Tuple[int, int]] = []
        # Every check returns one of two verdicts; build them once.
        self._pass = CheckOutcome(allowed=True, stall_cycles=guard_cost)
        self._fail = CheckOutcome(allowed=False, stall_cycles=guard_cost)

    def check(self, ctx: AccessContext) -> CheckOutcome:
        if ctx.space != "global":
            return ALLOW
        self.checks += 1
        for va, size in self.regions.values():
            if ctx.lo >= va and ctx.hi < va + size:
                return self._pass
        # The guard clause fails: the lanes skip the access (predicated
        # off), modelled as a zero-load/drop-store like the BCU's policy.
        self.failures.append((ctx.lo, ctx.hi))
        return self._fail


def _kmeans_kernel(name: str, *, guard_per_access: bool,
                   guard_entry: bool) -> Kernel:
    b = KernelBuilder(name)
    feat = b.arg_ptr("feat", read_only=True)
    feat_swap = b.arg_ptr("feat_swap")
    npoints = b.arg_scalar("npoints")
    nfeatures = b.arg_scalar("nfeatures")
    tid = b.gtid()

    def body():
        with b.loop(nfeatures) as i:
            src_idx = b.mad(tid, nfeatures, i)
            dst_idx = b.mad(i, npoints, tid)
            if guard_per_access:
                # Software checking of both accesses: bounds comparison
                # per access, as instrumenting compilers emit.
                total = b.mul(npoints, nfeatures)
                p_src = b.setp("lt", src_idx, total)
                with b.if_(p_src):
                    value = b.ld_idx(feat, src_idx, dtype="f32")
                    p_dst = b.setp("lt", dst_idx, total)
                    with b.if_(p_dst):
                        b.st_idx(feat_swap, dst_idx, value, dtype="f32")
            else:
                value = b.ld_idx(feat, src_idx, dtype="f32")
                b.st_idx(feat_swap, dst_idx, value, dtype="f32")

    if guard_entry:
        pred = b.setp("lt", tid, npoints)
        with b.if_(pred):
            body()
    else:
        body()
    return b.build()


def kmeans_swap_sw_checks(variant: str, *, npoints: int = 2048,
                          nfeatures: int = 4, wg_size: int = 64,
                          oversubscribe: float = 1.0) -> Workload:
    """Build one §6.4 comparison variant.

    ``oversubscribe`` > 1 launches more threads than ``npoints`` so the
    entry guard diverges inside warps (the paper's worst case).
    """
    if variant == "unchecked":
        kernel = _kmeans_kernel("kmeans_raw", guard_per_access=False,
                                guard_entry=False)
    elif variant == "guarded":
        kernel = _kmeans_kernel("kmeans_guarded", guard_per_access=False,
                                guard_entry=True)
    elif variant == "checked":
        kernel = _kmeans_kernel("kmeans_swchecked", guard_per_access=True,
                                guard_entry=True)
    else:
        raise ValueError(f"unknown variant {variant!r}")

    threads = int(npoints * oversubscribe)
    workgroups = -(-threads // wg_size)
    nbytes = npoints * nfeatures * 4
    return Workload(
        name=f"kmeans-swap:{variant}",
        buffers=[BufferSpec("feat", nbytes, "randf", read_only=True),
                 BufferSpec("feat_swap", nbytes, "zero")],
        runs=[KernelRun(kernel,
                        {"feat": _buf("feat"),
                         "feat_swap": _buf("feat_swap"),
                         "npoints": _scalar(npoints),
                         "nfeatures": _scalar(nfeatures)},
                        workgroups=workgroups, wg_size=wg_size)])
