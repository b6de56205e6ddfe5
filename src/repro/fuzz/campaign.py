"""The differential campaign: every case through every protection config.

For each :class:`~repro.fuzz.spec.CaseSpec` the campaign executes the
same workload under six configurations and scores the observed
detections against a fixed **expectation matrix**:

=============  ========================================================
``base``       no protection; "detection" means a native illegal-address
               abort (only wildly-unmapped accesses, e.g. heap escapes)
``shield``     GPUShield (BCU + tagged pointers); must detect every
               planted attack *with correct buffer-ID attribution* and
               report zero false positives on safe cases
``swbounds``   in-kernel software guards behind the ``AccessChecker``
               seam — allocation-table range checks that block
``memcheck``   CUDA-MEMCHECK's shadow-table validation — detects but
               never blocks (global space only)
``clarmor``    clArmor canary interposer — post-launch canary scans
``gmod``       GMOD guard-thread interposer — polled canary scans
=============  ========================================================

Cells are ``always`` (tool must detect), ``never`` (tool must *not*
detect — known gaps must reproduce, not silently close) or ``maybe``
(layout-dependent; recorded but not scored).  The campaign also checks
two differential invariants on safe cases: final buffer contents are
bit-identical across all configs, and cycle counts are deterministic
per seed (same case re-run => same cycles).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.harness import WorkloadRunner
from repro.analysis.stats import StatsRegistry
from repro.baselines.canary import CanaryRunner
from repro.baselines.gmod import GmodRunner
from repro.baselines.memcheck import MemcheckChecker
from repro.baselines.swbounds import SoftwareGuardChecker
from repro.core.shield import ShieldConfig
from repro.fuzz.generator import ShieldMutator, build_workload, expected_fault
from repro.fuzz.spec import CaseSpec
from repro.gpu.config import GPUConfig, nvidia_config

CONFIG_NAMES = ("base", "shield", "swbounds", "memcheck", "clarmor", "gmod")

ALWAYS, NEVER, MAYBE = "always", "never", "maybe"


def expectation(kind: str, config: str, is_store: bool) -> str:
    """The paper-documented detection expectation for one matrix cell."""
    if kind == "safe":
        return NEVER
    if config == "shield":
        return ALWAYS                      # Tables 1 & 4: full coverage
    if config == "base":
        # Only accesses that leave mapped memory entirely fault natively;
        # the heap escape crosses its region's last mapped page.
        return ALWAYS if kind == "heap" else NEVER
    if config in ("swbounds", "memcheck"):
        # Allocation-table tools: catch accesses outside *every* region,
        # miss inter-buffer landings, and see only the global space.
        return (ALWAYS if kind in ("overflow", "underflow", "heap")
                else NEVER)
    if config in ("clarmor", "gmod"):
        # Canary tools: store-only, adjacency-only (§4.1's blind spots).
        if kind == "overflow" and is_store:
            return ALWAYS                  # margin < 64 hits the canary
        if kind == "underflow" and is_store:
            return MAYBE                   # depends on alignment slack
        return NEVER
    raise ValueError(f"unknown config {config!r}")


@dataclass
class CaseOutcome:
    """One case's observed behaviour across every config."""

    spec: CaseSpec
    detected: Dict[str, bool] = field(default_factory=dict)
    expected: Dict[str, str] = field(default_factory=dict)
    cell_failures: List[str] = field(default_factory=list)
    attribution_ok: Optional[bool] = None   # shield only, attack cases
    digests: Dict[str, str] = field(default_factory=dict)
    deterministic: Optional[bool] = None
    aborted: Dict[str, bool] = field(default_factory=dict)
    # Simulated cycles per config: covered by the campaign digest, which
    # is how --compare-engines proves the fast lane is cycle-identical.
    cycles: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.cell_failures

    def to_dict(self, full: bool = False) -> Dict[str, object]:
        """Report form by default; ``full=True`` adds everything needed
        to reconstruct the outcome (the cross-process wire format)."""
        out: Dict[str, object] = {
            "case_id": self.spec.case_id,
            "kind": self.spec.kind,
            "manifest": self.spec.manifest(),
            "detected": dict(self.detected),
            "expected": dict(self.expected),
            "failures": list(self.cell_failures),
            "attribution_ok": self.attribution_ok,
            "deterministic": self.deterministic,
        }
        if full:
            out["spec"] = self.spec.to_dict()
            out["digests"] = dict(self.digests)
            out["aborted"] = dict(self.aborted)
            out["cycles"] = dict(self.cycles)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CaseOutcome":
        """Rebuild a full-form outcome (see ``to_dict(full=True)``)."""
        return cls(
            spec=CaseSpec.from_dict(dict(data["spec"])),
            detected=dict(data["detected"]),
            expected=dict(data["expected"]),
            cell_failures=list(data["failures"]),
            attribution_ok=data.get("attribution_ok"),
            digests=dict(data.get("digests", {})),
            deterministic=data.get("deterministic"),
            aborted=dict(data.get("aborted", {})),
            cycles=dict(data.get("cycles", {})),
        )


def _digest(runner: WorkloadRunner, spec: CaseSpec) -> str:
    """Hash of every global buffer's *data* bytes (excludes canary pads)."""
    h = hashlib.sha256()
    for name in spec.buffer_names:
        h.update(runner.session.driver.read(runner.buffers[name],
                                            spec.nbytes))
    return h.hexdigest()


def _regions(runner: WorkloadRunner, spec: CaseSpec) -> Dict[str, tuple]:
    regions = {name: (buf.va, buf.size - runner.alloc_pad)
               for name, buf in runner.buffers.items()}
    heap = runner.session.driver.heap
    regions["__heap"] = (heap.base, heap.limit)
    return regions


def _attach(runner: WorkloadRunner, checker) -> None:
    for core in runner.session.gpu.cores:
        core.pipeline.checker = checker


def _run_shield(spec: CaseSpec, workload, config: GPUConfig):
    mutator = ShieldMutator(spec)
    runner = WorkloadRunner(workload, config=config,
                            shield=ShieldConfig(enabled=True),
                            config_name="shield", seed=spec.seed & 0xFFFF,
                            allow_violations=True, launch_mutator=mutator)
    record = runner.run()
    return runner, record, mutator


def run_case(spec: CaseSpec,
             config: Optional[GPUConfig] = None,
             configs: Sequence[str] = CONFIG_NAMES,
             check_determinism: bool = False) -> CaseOutcome:
    """Run one case through the requested configs and score it.

    The workload is built once and shared by every config and the
    determinism re-run.  Sharing is safe because running a workload
    never writes to it: runners, tools and launch mutators only read
    the kernel, its arguments and the buffer specs, and everything a
    launch changes lives in the device and its launch context.
    """
    config = config or nvidia_config(num_cores=1)
    seed = spec.seed & 0xFFFF
    outcome = CaseOutcome(spec=spec)
    out = outcome.detected
    workload = build_workload(spec)   # validates the spec

    for name in configs:
        if name == "base":
            runner = WorkloadRunner(workload, config=config, shield=None,
                                    config_name="base", seed=seed,
                                    allow_violations=True)
            record = runner.run()
            out["base"] = record.aborted
        elif name == "shield":
            runner, record, mutator = _run_shield(spec, workload, config)
            out["shield"] = bool(runner.last_violations) or record.aborted
            if not spec.safe:
                want = expected_fault(spec, runner, mutator)
                outcome.attribution_ok = any(
                    want.matches(v) for v in runner.last_violations)
            if check_determinism:
                again, record2, _m = _run_shield(spec, workload, config)
                # Seed-plumbing invariant: the campaign seed reaches the
                # device verbatim — were the session's 0xC0FFEE default
                # shadowing it, re-runs would still agree with each
                # other while silently ignoring the case seed.
                assert again.seed == spec.seed & 0xFFFF
                assert again.session.seed == spec.seed & 0xFFFF
                outcome.deterministic = (
                    record2.cycles == record.cycles
                    and _digest(again, spec) == _digest(runner, spec))
                again.close()
        elif name in ("swbounds", "memcheck"):
            runner = WorkloadRunner(workload, config=config, shield=None,
                                    config_name=name, seed=seed,
                                    allow_violations=True)
            if name == "swbounds":
                checker = SoftwareGuardChecker(_regions(runner, spec))
                detections: Callable[[], int] = lambda: len(checker.failures)
            else:
                checker = MemcheckChecker(_regions(runner, spec))
                detections = lambda: len(checker.detections)
            _attach(runner, checker)
            record = runner.run()
            out[name] = detections() > 0
        elif name in ("clarmor", "gmod"):
            tool_cls = CanaryRunner if name == "clarmor" else GmodRunner
            tool = tool_cls(workload, config=config, seed=seed)
            tool.runner.allow_violations = True
            record = tool.run()
            out[name] = len(tool.detections) > 0
            runner = tool.runner
        else:
            raise ValueError(f"unknown config {name!r}")
        outcome.aborted[name] = record.aborted
        outcome.cycles[name] = record.cycles
        if spec.safe:
            outcome.digests[name] = _digest(runner, spec)
        # Digests are read; the device can go back to the warm pool,
        # which resets it there for the next config/case.
        runner.close()

    _score(spec, outcome, configs)
    return outcome


def _score(spec: CaseSpec, outcome: CaseOutcome,
           configs: Sequence[str]) -> None:
    for name in configs:
        cell = expectation(spec.kind, name, spec.attack_is_store)
        outcome.expected[name] = cell
        got = outcome.detected[name]
        if cell == ALWAYS and not got:
            outcome.cell_failures.append(
                f"{name}: expected detection of {spec.kind}, got none")
        elif cell == NEVER and got:
            label = ("false positive on safe case" if spec.safe
                     else f"gap closed unexpectedly for {spec.kind}")
            outcome.cell_failures.append(f"{name}: {label}")
    if "shield" in configs and not spec.safe and not outcome.attribution_ok:
        outcome.cell_failures.append(
            "shield: violation reported without correct attribution "
            f"(expected {spec.victim_name})")
    if spec.safe and len(set(outcome.digests.values())) > 1:
        outcome.cell_failures.append(
            "differential: safe-case buffer contents diverge across "
            f"configs: { {k: v[:12] for k, v in outcome.digests.items()} }")
    if outcome.deterministic is False:
        outcome.cell_failures.append(
            "determinism: shield re-run changed cycles or contents")


@dataclass
class CampaignResult:
    """Aggregate of one campaign run."""

    seed: int
    outcomes: List[CaseOutcome] = field(default_factory=list)
    stats: Optional[StatsRegistry] = None
    truncated: int = 0          # cases skipped by the --budget cap

    @property
    def failures(self) -> List[CaseOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def matrix(self) -> Dict[str, Dict[str, str]]:
        """kind -> config -> ``detected/total`` counts."""
        hits: Dict[str, Dict[str, int]] = {}
        totals: Dict[str, int] = {}
        for o in self.outcomes:
            totals[o.spec.kind] = totals.get(o.spec.kind, 0) + 1
            row = hits.setdefault(o.spec.kind, {})
            for cfg, got in o.detected.items():
                row[cfg] = row.get(cfg, 0) + (1 if got else 0)
        return {kind: {cfg: f"{row.get(cfg, 0)}/{totals[kind]}"
                       for cfg in CONFIG_NAMES if cfg in row}
                for kind, row in hits.items()}

    def render_matrix(self) -> str:
        matrix = self.matrix()
        configs = [c for c in CONFIG_NAMES
                   if any(c in row for row in matrix.values())]
        width = max([len(k) for k in matrix] + [12])
        lines = ["detection matrix (detected/total)",
                 "-" * (width + 11 * len(configs))]
        lines.append(" " * width + "".join(f"{c:>11}" for c in configs))
        for kind in sorted(matrix):
            row = matrix[kind]
            lines.append(f"{kind:<{width}}"
                         + "".join(f"{row.get(c, '-'):>11}" for c in configs))
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "cases": len(self.outcomes),
            "truncated": self.truncated,
            "ok": self.ok,
            "matrix": self.matrix(),
            "failures": [o.to_dict() for o in self.failures],
        }


def init_campaign_counters(stats: StatsRegistry,
                           configs: Sequence[str]) -> Dict[str, Dict]:
    """Zero the campaign counter tree; returns the live counter dicts.

    Shared between the serial loop and each parallel shard so every
    execution mode bumps the *same* counter paths — what makes merged
    per-shard snapshots sum to exactly the serial totals.
    """
    campaign = stats.counters("fuzz.campaign")
    campaign.update({"cases": 0, "safe": 0, "attacks": 0,
                     "expectation_failures": 0, "truncated": 0})
    per_config = {name: stats.counters(f"fuzz.configs.{name}")
                  for name in configs}
    for name in configs:
        per_config[name].update(
            {"detected": 0, "missed": 0, "false_positives": 0})
    return {"campaign": campaign, "per_config": per_config}


def tally_outcome(outcome: CaseOutcome, counters: Dict[str, Dict]) -> None:
    """Fold one case outcome into the campaign counters."""
    spec = outcome.spec
    campaign, per_config = counters["campaign"], counters["per_config"]
    campaign["cases"] += 1
    campaign["safe" if spec.safe else "attacks"] += 1
    if not outcome.ok:
        campaign["expectation_failures"] += 1
    for name, got in outcome.detected.items():
        if spec.safe:
            if got:
                per_config[name]["false_positives"] += 1
        elif got:
            per_config[name]["detected"] += 1
        else:
            per_config[name]["missed"] += 1


def run_campaign(specs: Sequence[CaseSpec], *, seed: int = 0,
                 config: Optional[GPUConfig] = None,
                 configs: Sequence[str] = CONFIG_NAMES,
                 determinism_every: int = 0,
                 index_base: int = 0,
                 stats: Optional[StatsRegistry] = None,
                 should_stop: Optional[Callable[[], bool]] = None,
                 progress: Optional[Callable[[CaseOutcome], None]] = None,
                 ) -> CampaignResult:
    """Execute ``specs`` through every config and aggregate the scores.

    ``determinism_every=N`` re-runs every Nth case's shield config to
    check cycle/content determinism (0 disables); ``index_base`` offsets
    the "Nth" arithmetic so a shard covering cases ``[base, base+k)`` of
    a larger campaign re-checks exactly the cases the serial run would.
    ``should_stop`` is polled between cases (the CLI's ``--budget``
    wall-clock cap); skipped cases are *reported* as truncation, never
    silently dropped.
    """
    stats = stats or StatsRegistry()
    counters = init_campaign_counters(stats, configs)

    result = CampaignResult(seed=seed, stats=stats)
    for i, spec in enumerate(specs):
        if should_stop is not None and should_stop():
            result.truncated = len(specs) - i
            counters["campaign"]["truncated"] = result.truncated
            break
        check_det = (bool(determinism_every)
                     and (index_base + i) % determinism_every == 0)
        outcome = run_case(spec, config=config, configs=configs,
                           check_determinism=check_det)
        result.outcomes.append(outcome)
        tally_outcome(outcome, counters)
        if progress is not None:
            progress(outcome)
    return result
