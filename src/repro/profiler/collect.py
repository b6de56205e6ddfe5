"""Profile collection: run a subject with the profiler attached.

Profiling, like race scanning, always drives
:class:`~repro.analysis.harness.WorkloadRunner` directly — never the
memoized ``run_workload`` path, whose warm cell replay would skip
execution and leave the profiler with an empty window.

Every collection also cross-checks itself: :func:`reconcile` compares
the profiler's attributed counters against the GPU's own stats registry
(the independently maintained component counters) and any inequality is
a bug in the attribution model.  The CLI refuses to emit a profile that
does not reconcile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.harness import WorkloadRunner, default_shield
from repro.analysis.results import RunRecord
from repro.analysis.stats import StatsSnapshot
from repro.core.shield import ShieldConfig
from repro.fuzz.generator import build_workload
from repro.fuzz.spec import CaseSpec
from repro.gpu.config import GPUConfig, nvidia_config
from repro.profiler.profile import Profiler, ProfileSnapshot
from repro.workloads.templates import Workload


@dataclass
class ProfileReport:
    """One subject's profile + the run it came from."""

    subject: str
    snapshot: ProfileSnapshot
    record: RunRecord
    mismatches: List[dict] = field(default_factory=list)

    @property
    def reconciled(self) -> bool:
        """Attribution sums match the stats registry exactly."""
        return not self.mismatches

    def to_dict(self) -> dict:
        return {"subject": self.subject,
                "profile": self.snapshot.to_dict(),
                "cycles": self.record.cycles,
                "mem_instructions": self.record.mem_instructions,
                "reconciled": self.reconciled,
                "mismatches": list(self.mismatches)}


def _core_ids(profile: ProfileSnapshot, stats: StatsSnapshot) -> List[int]:
    ids = set()
    for path in profile.counters:
        ids.add(int(path.split(".")[1]))
    for path in stats.select("cores.*.issue.mem_instructions"):
        ids.add(int(path.split(".")[1]))
    return sorted(ids)


def reconcile(profile: ProfileSnapshot,
              stats: StatsSnapshot) -> List[dict]:
    """Exact cross-check of the attribution model, per core.

    The profiler and the stats registry count the same events through
    entirely different code paths (post-hoc ``AccessResult``
    decomposition vs live component counters); every pair below must be
    *equal*, not close.  Returns one dict per violated identity (empty
    means fully reconciled).

    The registry must cover the same window as the profiler — i.e. the
    profiler was attached for the device's whole post-reset life, which
    is what :func:`profile_workload` guarantees.
    """
    mismatches: List[dict] = []

    def check(path: str, mine: int, theirs: int) -> None:
        if mine != theirs:
            mismatches.append({"path": path, "profiler": int(mine),
                               "registry": int(theirs)})

    for cid in _core_ids(profile, stats):
        p = StatsSnapshot(profile.select(f"cores.{cid}.*.*")).get
        s = stats.get
        pre = f"cores.{cid}"
        check(f"{pre}.mem_instructions",
              p(f"{pre}.issue.accesses") + p(f"{pre}.shared.accesses"),
              s(f"{pre}.issue.mem_instructions"))
        check(f"{pre}.transactions",
              p(f"{pre}.coalesce.transactions"),
              s(f"{pre}.issue.transactions"))
        check(f"{pre}.bcu_stall_cycles",
              p(f"{pre}.check.stall_cycles"),
              s(f"{pre}.issue.bcu_stall_cycles"))
        check(f"{pre}.tlb_l1_hits",
              p(f"{pre}.translate.l1_hits"), s(f"{pre}.l1tlb.hits"))
        check(f"{pre}.tlb_misses",
              p(f"{pre}.translate.l2_hits") + p(f"{pre}.translate.walks"),
              s(f"{pre}.l1tlb.misses"))
        check(f"{pre}.cache_l1_hits",
              p(f"{pre}.cache.l1_hits"),
              s(f"{pre}.l1d.hits") + s(f"{pre}.const.hits")
              + s(f"{pre}.tex.hits"))
        check(f"{pre}.cache_l1_misses",
              p(f"{pre}.cache.l2_hits") + p(f"{pre}.cache.dram"),
              s(f"{pre}.l1d.misses") + s(f"{pre}.const.misses")
              + s(f"{pre}.tex.misses"))
        # The stage decomposition must re-sum to the access latencies.
        check(f"{pre}.latency_decomposition",
              p(f"{pre}.issue.cycles") + p(f"{pre}.coalesce.cycles")
              + p(f"{pre}.translate.cycles") + p(f"{pre}.cache.cycles")
              + p(f"{pre}.check.cycles"),
              p(f"{pre}.total.latency_cycles"))
        if f"{pre}.bcu.mem_instructions" not in stats:
            continue
        check(f"{pre}.bcu_checked",
              p(f"{pre}.check.checked"), s(f"{pre}.bcu.mem_instructions"))
        check(f"{pre}.bcu_static_skipped",
              p(f"{pre}.check.static_skipped"),
              s(f"{pre}.bcu.checks_skipped_static"))
        check(f"{pre}.bcu_type2",
              p(f"{pre}.check.type2"), s(f"{pre}.bcu.checks_type2"))
        check(f"{pre}.bcu_type3",
              p(f"{pre}.check.type3"), s(f"{pre}.bcu.checks_type3"))
        check(f"{pre}.bcu_rbt_fills",
              p(f"{pre}.check.rbt_fills"), s(f"{pre}.bcu.rbt_fills"))
        check(f"{pre}.bcu_stalls",
              p(f"{pre}.check.stall_cycles"),
              s(f"{pre}.bcu.stall_cycles"))
        check(f"{pre}.rcache_l1_hits",
              p(f"{pre}.check.rcache_l1_hits"),
              s(f"{pre}.rcache.l1.hits"))
        check(f"{pre}.rcache_l1_misses",
              p(f"{pre}.check.rcache_l1_probes")
              - p(f"{pre}.check.rcache_l1_hits"),
              s(f"{pre}.rcache.l1.misses"))
        check(f"{pre}.rcache_l2_hits",
              p(f"{pre}.check.rcache_l2_hits"),
              s(f"{pre}.rcache.l2.hits"))
        check(f"{pre}.rcache_l2_misses",
              p(f"{pre}.check.rcache_l2_probes")
              - p(f"{pre}.check.rcache_l2_hits"),
              s(f"{pre}.rcache.l2.misses"))
    return mismatches


def profile_workload(workload: Workload, *,
                     config: Optional[GPUConfig] = None,
                     shield: Optional[ShieldConfig] = None,
                     seed: int = 11,
                     allow_violations: bool = False,
                     subject: str = "") -> ProfileReport:
    """Execute ``workload`` once with a fresh profiler attached."""
    runner = WorkloadRunner(workload, config=config, shield=shield,
                            config_name="profile", seed=seed,
                            allow_violations=allow_violations)
    try:
        gpu = runner.session.gpu
        profiler = Profiler(engine=gpu.engine)
        gpu.observe(profiler)
        record = runner.run()
        # Read both sides *before* close(): releasing the device
        # resets it, which detaches the profiler and zeroes the stats.
        snapshot = profiler.snapshot()
        mismatches = reconcile(snapshot, runner.session.stats.snapshot())
    finally:
        runner.close()
    return ProfileReport(subject=subject or workload.name,
                         snapshot=snapshot, record=record,
                         mismatches=mismatches)


def profile_benchmark(name: str, *, config: Optional[GPUConfig] = None,
                      shield: Optional[ShieldConfig] = None,
                      seed: int = 11) -> ProfileReport:
    """Profile one registered benchmark under the (default) shield.

    The default shield is the paper's GPUShield configuration so the
    ``check`` stage and its RCache sub-steps carry real activity; pass
    ``shield=None``-producing configs explicitly to profile the base.
    """
    from repro.workloads.suite import get_benchmark
    if shield is None:
        shield = default_shield()
    return profile_workload(get_benchmark(name).build(),
                            config=config or nvidia_config(num_cores=1),
                            shield=shield, seed=seed, subject=name)


def profile_case(spec: CaseSpec, *,
                 config: Optional[GPUConfig] = None) -> ProfileReport:
    """Profile one fuzz case under the shielded config.

    Mirrors the campaign's ``shield`` cell: violations are tolerated so
    attack kinds profile their (blocked) accesses too.
    """
    spec.validate()
    workload = build_workload(spec)
    return profile_workload(workload,
                            config=config or nvidia_config(num_cores=1),
                            shield=default_shield(),
                            seed=spec.seed & 0xFFFF,
                            allow_violations=True, subject=spec.case_id)
