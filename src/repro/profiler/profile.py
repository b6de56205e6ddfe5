"""Hierarchical performance attribution: engine -> core -> stage -> sub-step.

The profiler answers the question BENCH records cannot: *where inside
the coalesce -> translate -> cache -> check -> commit pipeline do the
cycles (and the host's wall-time) go?*  It is an
:class:`~repro.gpu.observer.Observer`, like the stage tracer and race
detector: :meth:`Profiler.on_access` is called once per warp memory
instruction with the finished :class:`~repro.gpu.pipeline.AccessResult`.
A detached profiler costs nothing, and every digest recorded without
one stays bit-identical.

**Cycle attribution** is derived post-hoc from the ``AccessResult``,
never measured separately, so it reconciles *exactly* with the stats
registry (the cross-check :func:`repro.profiler.collect.reconcile`
asserts).  Per access::

    latency = max(lsu_depth + worst(tr + cr) + (ntx - 1), check_latency)

decomposes into

* ``issue``      — the constant LSU pipeline depth;
* ``translate``  — the dominant (critical-path) transaction's TLB latency;
* ``cache``      — the dominant transaction's cache latency;
* ``coalesce``   — the ``ntx - 1`` serialisation cycles;
* ``check``      — whatever the bounds check extends beyond the timing
  path (RBT fills mostly), plus the issue-stall bubbles it injects.

The shield sub-steps under ``check`` (decode, decrypt, RCache L1/L2
probe, RBT fill) are reconstructed from the
:class:`~repro.core.checker.CheckOutcome` and the BCU configuration:
``check_latency == l1_latency`` is an L1 RCache hit, ``l2_latency`` an
L2 hit, and ``rbt_fill`` a bounds-table fetch.  (When an ablation sets
``l1_latency == l2_latency`` the two hits are indistinguishable from
timing alone; attribution follows the BCU's L1-first lookup order.)

**Wall-time** is telemetry, not part of the canonical counters: the
pipeline brackets its stage boundaries with ``perf_counter_ns`` and
the nanoseconds land in a separate ``wall_ns`` mapping that merges by
summation but never enters digests or equality of the canonical side.

:class:`ProfileSnapshot` reuses the :mod:`repro.analysis.stats` merge
discipline — every counter sums, so merging is commutative and
associative with the empty snapshot as identity — which is what lets
runner shards profile independently and fold back into exactly the
serial profile.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, Mapping, Optional

from repro.analysis.stats import StatsSnapshot, merge_snapshots
from repro.gpu.observer import Observer

PROFILE_SCHEMA = 1

#: Stage order used by reports and the flame tree.
STAGES = ("issue", "coalesce", "translate", "cache", "check", "commit",
          "shared")

#: Host-side wall buckets (the pipeline's measurable boundaries; the
#: translate/cache loop interleaves per transaction, so it is one
#: honest ``timing`` bucket rather than a fabricated split).
WALL_STAGES = ("coalesce", "timing", "check", "commit")


class ProfileSnapshot:
    """Immutable profile: canonical counters + wall-time telemetry.

    ``counters`` are deterministic simulated quantities (cycles,
    counts) keyed ``cores.<id>.<stage>.<metric>``; ``wall_ns`` holds
    host nanoseconds keyed ``cores.<id>.<stage>.wall_ns``.  Equality,
    digests and the serial-vs-sharded contract cover the canonical side
    plus the engine label set; wall-time is telemetry and may differ
    run to run.
    """

    __slots__ = ("counters", "wall_ns", "engines")

    def __init__(self, counters: Optional[Mapping[str, int]] = None,
                 wall_ns: Optional[Mapping[str, int]] = None,
                 engines: Iterable[str] = ()):
        self.counters: Dict[str, int] = {
            k: v for k, v in dict(counters or {}).items() if v}
        self.wall_ns: Dict[str, int] = {
            k: v for k, v in dict(wall_ns or {}).items() if v}
        self.engines = frozenset(engines)

    @classmethod
    def empty(cls) -> "ProfileSnapshot":
        """The merge identity: no counters, no wall, no engines."""
        return cls()

    # -- merge (the StatsSnapshot discipline: every counter sums) ------

    def merge(self, *others: "ProfileSnapshot") -> "ProfileSnapshot":
        """Fold snapshots together; commutative and associative.

        All profile counters are monotonic totals, so the merge uses
        the stats registry's counter rule (sum) with no gauges; the
        engine label sets union.
        """
        counters = merge_snapshots(
            [self.counters, *(o.counters for o in others)], gauges=())
        wall = merge_snapshots(
            [self.wall_ns, *(o.wall_ns for o in others)], gauges=())
        engines = self.engines.union(*(o.engines for o in others))
        return ProfileSnapshot(counters.as_dict(), wall.as_dict(), engines)

    # -- queries -------------------------------------------------------

    def select(self, pattern: str) -> Dict[str, int]:
        """Counters whose path matches a ``*``-segment pattern."""
        return StatsSnapshot(self.counters).select(pattern)

    def total(self, pattern: str) -> int:
        return int(sum(self.select(pattern).values()))

    def stage_cycles(self) -> Dict[str, int]:
        """Aggregate attributed cycles per pipeline stage, all cores."""
        out = {
            "issue": self.total("cores.*.issue.cycles"),
            "coalesce": self.total("cores.*.coalesce.cycles"),
            "translate": self.total("cores.*.translate.cycles"),
            "cache": self.total("cores.*.cache.cycles"),
            "check": self.total("cores.*.check.cycles"),
            "commit": 0,   # functional only: commit adds no cycles
            "shared": self.total("cores.*.shared.cycles"),
        }
        return out

    def latency_cycles(self) -> int:
        """Total attributed latency (the decomposition's right side)."""
        return (self.total("cores.*.total.latency_cycles")
                + self.total("cores.*.shared.cycles"))

    # -- canonical form / digest ---------------------------------------

    def canonical(self) -> dict:
        return {"schema": PROFILE_SCHEMA,
                "engines": sorted(self.engines),
                "counters": dict(sorted(self.counters.items()))}

    def digest(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def counters_digest(self) -> str:
        """Digest of the counters alone — the cross-engine invariant
        (the engine *label* necessarily differs between legs)."""
        blob = json.dumps(dict(sorted(self.counters.items())),
                          sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProfileSnapshot):
            return NotImplemented
        return (self.counters == other.counters
                and self.engines == other.engines)

    def __hash__(self) -> int:   # pragma: no cover - dict use only
        return hash(self.digest())

    def __repr__(self) -> str:
        return (f"ProfileSnapshot(engines={sorted(self.engines)}, "
                f"{len(self.counters)} counters, digest {self.digest()})")

    # -- serialisation (runner shards ship these as JSON) --------------

    def to_dict(self) -> dict:
        return {"schema": PROFILE_SCHEMA,
                "engines": sorted(self.engines),
                "counters": dict(sorted(self.counters.items())),
                "wall_ns": dict(sorted(self.wall_ns.items()))}

    @classmethod
    def from_dict(cls, data: Mapping) -> "ProfileSnapshot":
        schema = int(data.get("schema", PROFILE_SCHEMA))
        if schema > PROFILE_SCHEMA:
            raise ValueError(
                f"profile schema {schema} is newer than supported "
                f"({PROFILE_SCHEMA})")
        return cls(counters={k: int(v)
                             for k, v in data.get("counters", {}).items()},
                   wall_ns={k: int(v)
                            for k, v in data.get("wall_ns", {}).items()},
                   engines=data.get("engines", ()))


class _CoreProfile:
    """Mutable per-core accumulator; flattened at snapshot time."""

    COUNTER_FIELDS = (
        "issue_accesses", "issue_cycles",
        "coalesce_transactions", "coalesce_cycles",
        "translate_cycles", "translate_l1_hits", "translate_l2_hits",
        "translate_walks",
        "cache_cycles", "cache_l1_hits", "cache_l2_hits", "cache_dram",
        "check_cycles", "check_stall_cycles", "check_checked",
        "check_bypassed", "check_static_skipped", "check_type2",
        "check_type3", "check_decrypt",
        "check_rcache_l1_probes", "check_rcache_l1_hits",
        "check_rcache_l2_probes", "check_rcache_l2_hits",
        "check_rbt_fills", "check_rbt_cycles",
        "commit_accesses", "commit_blocked",
        "shared_accesses", "shared_cycles",
        "total_latency_cycles",
    )
    WALL_FIELDS = tuple(f"wall_{s}_ns" for s in WALL_STAGES)

    __slots__ = COUNTER_FIELDS + WALL_FIELDS

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)


#: attr name -> dotted counter suffix ("check_rbt_fills" ->
#: "check.rbt_fills"): the first underscore separates stage from metric.
_COUNTER_KEYS = {name: name.replace("_", ".", 1)
                 for name in _CoreProfile.COUNTER_FIELDS}
_WALL_KEYS = {f"wall_{s}_ns": f"{s}.wall_ns" for s in WALL_STAGES}


class Profiler(Observer):
    """The profiling observer: accumulates per-core stage attribution.

    Attach via :meth:`repro.gpu.gpu.GPU.observe`; ``engine`` is the
    label stamped into every snapshot (pass the GPU's ``engine``).
    """

    name = "profiler"

    def __init__(self, engine: str = ""):
        self.engine = engine
        self._cores: Dict[int, _CoreProfile] = {}

    def reset(self) -> None:
        self._cores.clear()

    # -- the observer hook ---------------------------------------------

    def on_access(self, pipeline, warp, job, request, result,
                  marks) -> None:
        """Attribute one finished access (called at every pipeline exit).

        ``marks`` are the five ``perf_counter_ns`` readings the pipeline
        took at its stage boundaries: (start, after-coalesce,
        after-timing-loop, after-check, end).
        """
        core = self._cores.get(pipeline.core_id)
        if core is None:
            core = self._cores[pipeline.core_id] = _CoreProfile()
        t0, t_coal, t_tim, t_chk, t_end = marks

        if result.space == "shared":
            # On-chip scratchpad: constant LSU depth, no off-chip stages.
            core.shared_accesses += 1
            core.shared_cycles += result.latency
            core.wall_commit_ns += t_end - t0
            return

        core.wall_coalesce_ns += t_coal - t0
        core.wall_timing_ns += t_tim - t_coal
        core.wall_check_ns += t_chk - t_tim
        core.wall_commit_ns += t_end - t_chk

        config = pipeline.config
        depth = config.lsu_pipeline_depth
        core.issue_accesses += 1
        core.issue_cycles += depth
        ntx = result.transactions
        core.coalesce_transactions += ntx
        core.coalesce_cycles += ntx - 1

        # Critical-path decomposition: the access latency follows the
        # slowest transaction; attribute its TLB/cache split.
        tr_lat = cr_lat = 0
        for tr, cr in result.per_transaction:
            if tr.latency + cr.latency > tr_lat + cr_lat:
                tr_lat, cr_lat = tr.latency, cr.latency
        core.translate_cycles += tr_lat
        core.cache_cycles += cr_lat
        core.translate_l1_hits += result.tlb_l1_hits
        core.translate_l2_hits += result.tlb_l2_hits
        core.translate_walks += result.page_walks
        core.cache_l1_hits += result.l1_hits
        core.cache_l2_hits += result.l2_hits
        core.cache_dram += result.dram_accesses

        timing = depth + tr_lat + cr_lat + (ntx - 1)
        core.check_cycles += result.latency - timing
        core.check_stall_cycles += result.stall
        core.total_latency_cycles += result.latency

        if result.allowed:
            core.commit_accesses += 1
        else:
            core.commit_blocked += 1

        self._classify_check(core, pipeline, job, request, result)

    def _classify_check(self, core: _CoreProfile, pipeline, job,
                        request, result) -> None:
        """Shield sub-step attribution from the CheckOutcome."""
        outcome = result.check
        if outcome is None or getattr(job.launch, "security", None) is None:
            core.check_bypassed += 1
            return
        core.check_checked += 1
        bcu = getattr(pipeline.checker, "bcu", None)
        if bcu is None:
            # Software tools (memcheck-style checkers) have no decode /
            # RCache structure to attribute; stage totals still apply.
            return
        from repro.core.pointer import PointerType, decode
        ptype = decode(request.base_pointer).ptype
        if ptype is PointerType.UNPROTECTED:
            core.check_static_skipped += 1
            return
        bcu_config = bcu.config
        if ptype is PointerType.OFFSET_OPT:
            if bcu_config.type3_enabled:
                core.check_type3 += 1
            else:
                # Type-3 ablation: accounted as the Type-2 check the
                # hardware would issue, but no RCache is probed.
                core.check_type2 += 1
            return
        core.check_type2 += 1
        core.check_decrypt += 1
        core.check_rcache_l1_probes += 1
        if outcome.rbt_fill:
            core.check_rcache_l2_probes += 1
            core.check_rbt_fills += 1
            core.check_rbt_cycles += bcu_config.rbt_fetch_latency
        elif outcome.check_latency == bcu_config.l1_latency:
            core.check_rcache_l1_hits += 1
        else:
            core.check_rcache_l2_probes += 1
            core.check_rcache_l2_hits += 1

    # -- export --------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Flat canonical counters, registered under ``profiler`` while
        observed: a detached profiler contributes nothing, so stats
        digests recorded without one stay bit-identical."""
        out: Dict[str, int] = {}
        for cid in sorted(self._cores):
            core = self._cores[cid]
            for attr, key in _COUNTER_KEYS.items():
                value = getattr(core, attr)
                if value:
                    out[f"cores.{cid}.{key}"] = value
        return out

    def snapshot(self) -> ProfileSnapshot:
        wall: Dict[str, int] = {}
        for cid in sorted(self._cores):
            core = self._cores[cid]
            for attr, key in _WALL_KEYS.items():
                value = getattr(core, attr)
                if value:
                    wall[f"cores.{cid}.{key}"] = value
        engines = (self.engine,) if self.engine else ()
        return ProfileSnapshot(self.stats(), wall, engines)
