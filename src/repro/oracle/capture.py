"""Capture one subject's full memory-trace under one engine.

A *subject* is a short string naming a reproducible workload recipe:

``tpl:<name>``
    A tiny pinned template workload (the golden-corpus set) under the
    paper-default shield.
``bench:<name>[@scale]``
    A registered suite benchmark at ``scale`` (default
    :data:`DEFAULT_BENCH_SCALE`) under the paper-default shield — the
    9 artifact workloads are ``bench:`` subjects over
    :data:`ORACLE_WORKLOADS`.
``fuzz:<seed>``
    The first case drawn from :class:`~repro.fuzz.generator
    .CaseGenerator` for that seed, run exactly the way the
    differential campaign's shield config runs it (mutator attached,
    violations tolerated).

Captures are deterministic: same subject + engine + tree state ⇒ the
same event stream, violation list, stats snapshot and cycle count —
which is what makes them diffable and goldenable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.trace import (TRACE_SCHEMA_VERSION, AnyEvent,
                                  MemoryTracer, event_to_wire)
from repro.engine import engine as engine_ctx
from repro.engine import resolve as resolve_engine
from repro.workloads.suite import RODINIA_FIG19

#: The pinned artifact set the acceptance diff sweeps: Figure 19's nine
#: Rodinia benchmarks (the only artifact list with exactly one workload
#: per entry, and the set every tool-comparison figure leans on).
ORACLE_WORKLOADS: Tuple[str, ...] = tuple(RODINIA_FIG19)

#: Scale for ``bench:`` subjects unless the subject pins its own —
#: small enough that a stage-level trace of every artifact workload
#: stays tractable under the slow engine, large enough to exercise
#: multi-launch control flow, RCache traffic and DRAM misses.
DEFAULT_BENCH_SCALE = 0.25

#: Access-event headroom per capture; stage events get 8x this (see
#: MemoryTracer.STAGE_FANOUT).  A capture that overflows raises — a
#: truncated golden trace would "match" anything that diverges late.
CAPTURE_CAPACITY = 2_000_000

DEFAULT_SEED = 11


def _template_subjects():
    from repro.workloads import templates as T
    return {
        "streaming": lambda: T.streaming("oracle_streaming", n=256,
                                         wg_size=64),
        "stencil": lambda: T.stencil1d("oracle_stencil", n=256,
                                       wg_size=64),
        "gather": lambda: T.gather("oracle_gather", n=128, wg_size=32,
                                   data_len=512),
        "scatter": lambda: T.scatter("oracle_scatter", n=128, wg_size=32,
                                     out_len=512),
        "reduction": lambda: T.reduction("oracle_reduction", n=512,
                                         wg_size=64),
    }


def config_fingerprint(config, shield) -> str:
    """Engine-independent configuration fingerprint.

    Hashes the same (config repr, shield repr) pair the warm device
    pool keys on — minus the resolved engine, because the whole point
    of the oracle is comparing engines over one configuration.
    """
    from repro.device.cache import device_fingerprint
    cfg_repr, shield_repr, _engine = device_fingerprint(config, shield)
    blob = json.dumps([cfg_repr, shield_repr])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class CapturedTrace:
    """Everything one traced run observed, ready to diff or export."""

    subject: str
    engine: str
    seed: int
    stage_level: bool
    schema_version: int
    fingerprint: str
    line_size: int
    cycles: int
    aborted: bool
    events: List[AnyEvent] = field(default_factory=list)
    violations: List[Dict[str, object]] = field(default_factory=list)
    stats: Dict[str, float] = field(default_factory=dict)

    def wire_events(self) -> List[Dict[str, object]]:
        return [event_to_wire(ev) for ev in self.events]

    def content_hash(self) -> str:
        """Hash of every observable: events, violations, stats, cycles."""
        blob = json.dumps({
            "events": self.wire_events(),
            "violations": self.violations,
            "stats": self.stats,
            "cycles": self.cycles,
            "aborted": self.aborted,
        }, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def header(self) -> Dict[str, object]:
        """The schema header the JSONL export leads with."""
        return {
            "schema_version": self.schema_version,
            "subject": self.subject,
            "engine": self.engine,
            "seed": self.seed,
            "stage_level": self.stage_level,
            "fingerprint": self.fingerprint,
            "line_size": self.line_size,
            "cycles": self.cycles,
            "aborted": self.aborted,
            "violations": self.violations,
            "stats": self.stats,
            "content_hash": self.content_hash(),
        }


def build_runner(subject: str, config=None):
    """Materialise a subject into a ready :class:`WorkloadRunner`.

    Returns ``(runner, fingerprint)``; the caller owns ``runner`` and
    must :meth:`close` it.
    """
    from repro.analysis.harness import WorkloadRunner, default_shield
    from repro.gpu.config import nvidia_config

    kind, _, arg = subject.partition(":")
    if kind == "tpl":
        factories = _template_subjects()
        if arg not in factories:
            raise ValueError(f"unknown template subject {arg!r} "
                             f"(have {sorted(factories)})")
        cfg = config or nvidia_config(num_cores=2)
        shield = default_shield()
        runner = WorkloadRunner(factories[arg](), config=cfg,
                                shield=shield, config_name="oracle",
                                seed=DEFAULT_SEED, allow_violations=True)
        return runner, config_fingerprint(cfg, shield)

    if kind == "bench":
        from repro.workloads.suite import get_benchmark
        name, _, scale_s = arg.partition("@")
        scale = float(scale_s) if scale_s else DEFAULT_BENCH_SCALE
        cfg = config or nvidia_config(num_cores=2)
        shield = default_shield()
        runner = WorkloadRunner(get_benchmark(name).build(scale),
                                config=cfg, shield=shield,
                                config_name="oracle", seed=DEFAULT_SEED,
                                allow_violations=True)
        return runner, config_fingerprint(cfg, shield)

    if kind == "fuzz":
        from repro.core.shield import ShieldConfig
        from repro.fuzz.generator import (CaseGenerator, ShieldMutator,
                                          build_workload)
        spec = CaseGenerator(int(arg)).draw(0)
        cfg = config or nvidia_config(num_cores=1)
        shield = ShieldConfig(enabled=True)
        runner = WorkloadRunner(build_workload(spec), config=cfg,
                                shield=shield, config_name="shield",
                                seed=spec.seed & 0xFFFF,
                                allow_violations=True,
                                launch_mutator=ShieldMutator(spec))
        return runner, config_fingerprint(cfg, shield)

    raise ValueError(f"unknown subject kind {kind!r} in {subject!r} "
                     "(want tpl:/bench:/fuzz:)")


def capture(subject: str, *, engine: str = "",
            stage_level: bool = True, config=None,
            fault=None) -> CapturedTrace:
    """Run ``subject`` under ``engine`` with tracing on.

    ``fault`` optionally injects a :class:`~repro.oracle.faults
    .CoalescerFault` for the run — the localisation self-test.  The
    fault wrapper and the tracer are both removed before the device
    returns to the warm pool.
    """
    from repro.oracle.faults import injected_coalescer_fault

    engine = resolve_engine(engine)
    with engine_ctx(engine):
        runner, fingerprint = build_runner(subject, config=config)
        tracer = MemoryTracer(capacity=CAPTURE_CAPACITY,
                              stage_level=stage_level)
        gpu = runner.session.gpu
        gpu.observe(tracer)
        try:
            with injected_coalescer_fault(gpu, fault):
                record = runner.run()
            snapshot = runner.session.stats.snapshot()
            violations = [asdict(v) for v in runner.last_violations]
            line_size = runner.config.line_size
        finally:
            runner.close()
    if tracer.dropped or tracer.stage_dropped:
        raise RuntimeError(
            f"capture of {subject!r} overflowed the tracer "
            f"({tracer.dropped} access / {tracer.stage_dropped} stage "
            f"events dropped) — raise CAPTURE_CAPACITY")
    return CapturedTrace(
        subject=subject, engine=engine, seed=runner.seed,
        stage_level=stage_level, schema_version=TRACE_SCHEMA_VERSION,
        fingerprint=fingerprint, line_size=line_size,
        cycles=record.cycles, aborted=record.aborted,
        events=list(tracer.stream), violations=violations,
        stats=snapshot.as_dict())


def expand_subjects(workloads: Optional[Sequence[str]] = None,
                    fuzz_seeds: int = 0,
                    scale: Optional[float] = None) -> List[str]:
    """The default diff sweep: bench subjects + ``fuzz_seeds`` seeds."""
    names = list(workloads if workloads is not None else ORACLE_WORKLOADS)
    suffix = f"@{scale}" if scale is not None else ""
    subjects = [f"bench:{name}{suffix}" for name in names]
    subjects.extend(f"fuzz:{seed}" for seed in range(1, fuzz_seeds + 1))
    return subjects
