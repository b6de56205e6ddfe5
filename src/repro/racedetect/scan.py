"""Race scans: run a workload with the shadow detector attached.

:func:`scan_workload` is the dynamic side of the race oracle — it
executes a workload on a warm device with a
:class:`~repro.racedetect.detector.RaceDetector` attached, runs the
static may-race pass over the same kernels, and cross-checks the two:

* **soundness** — a static ``race-free`` claim with dynamic races is a
  bug in the static pass (the contract tests and the CI smoke job fail
  on it);
* **definiteness** — a static ``races`` claim on a dynamically clean
  run is likewise a bug (the witness search overclaimed).

``may-race`` is compatible with either dynamic outcome.

:func:`scan_case` additionally checks a fuzz case's *constructive*
verdict (:attr:`CaseSpec.race_verdict` — what the generator promises by
construction) against the dynamic one: a ``race-free`` promise must
never dynamically race, which is what lets the co-residency matrix
(``tests/test_coresident_attacks.py``) pick safe victims without
rejection sampling.

Scans always drive :class:`~repro.analysis.harness.WorkloadRunner`
directly — never the memoized ``run_workload`` path, whose warm replay
would skip execution and leave the detector blind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.harness import WorkloadRunner
from repro.compiler.mayrace import RACE_FREE, RACES
from repro.core.shield import ShieldConfig
from repro.fuzz.generator import build_workload
from repro.fuzz.spec import CaseSpec
from repro.gpu.config import GPUConfig, nvidia_config
from repro.racedetect.detector import RaceDetector
from repro.racedetect.verdict import static_workload_verdict
from repro.workloads.templates import Workload


@dataclass
class WorkloadScan:
    """One workload's dynamic + static race classification."""

    name: str
    dynamic_verdict: str
    static_verdict: str
    races: int
    records: List[dict] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)
    static_report: Optional[dict] = None

    @property
    def sound(self) -> bool:
        """Static ``race-free`` was not refuted dynamically."""
        return not (self.static_verdict == RACE_FREE
                    and self.dynamic_verdict == RACES)

    @property
    def definite_ok(self) -> bool:
        """Static ``races`` was not refuted dynamically."""
        return not (self.static_verdict == RACES
                    and self.dynamic_verdict == RACE_FREE)

    @property
    def ok(self) -> bool:
        return self.sound and self.definite_ok

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "dynamic_verdict": self.dynamic_verdict,
            "static_verdict": self.static_verdict,
            "races": self.races,
            "sound": self.sound,
            "definite_ok": self.definite_ok,
            "records": list(self.records),
            "stats": dict(self.stats),
            "static_report": self.static_report,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadScan":
        return cls(name=data["name"],
                   dynamic_verdict=data["dynamic_verdict"],
                   static_verdict=data["static_verdict"],
                   races=int(data["races"]),
                   records=list(data.get("records", [])),
                   stats=dict(data.get("stats", {})),
                   static_report=data.get("static_report"))


def scan_workload(workload: Workload, *,
                  config: Optional[GPUConfig] = None,
                  shield: Optional[ShieldConfig] = None,
                  seed: int = 11,
                  allow_violations: bool = False,
                  full_report: bool = False) -> WorkloadScan:
    """Execute ``workload`` once with the detector attached."""
    static = static_workload_verdict(workload)
    detector = RaceDetector()
    runner = WorkloadRunner(workload, config=config, shield=shield,
                            config_name="racescan", seed=seed,
                            allow_violations=allow_violations)
    try:
        runner.session.gpu.observe(detector)
        runner.run()
        # Read the detector *before* close(): releasing the device
        # detaches and the warm pool must never see tenant shadow state.
        scan = WorkloadScan(
            name=workload.name,
            dynamic_verdict=detector.verdict(),
            static_verdict=static.verdict,
            races=detector.race_count,
            records=detector.record_dicts(),
            stats=detector.stats(),
            static_report=static.to_dict() if full_report else None)
    finally:
        runner.close()
    return scan


def scan_benchmark(name: str, *, config: Optional[GPUConfig] = None,
                   seed: int = 11, full_report: bool = False) -> WorkloadScan:
    """Scan one registered benchmark by name."""
    from repro.workloads.suite import get_benchmark
    return scan_workload(get_benchmark(name).build(),
                         config=config or nvidia_config(num_cores=1),
                         seed=seed, full_report=full_report)


@dataclass
class CaseScan:
    """One fuzz case's three-way verdict comparison."""

    case_id: str
    kind: str
    constructive_verdict: str      # CaseSpec.race_verdict (by construction)
    scan: WorkloadScan = None      # type: ignore[assignment]

    @property
    def ok(self) -> bool:
        """All pairwise verdict contracts hold for this case."""
        return self.scan.ok and not (
            self.constructive_verdict == RACE_FREE
            and self.scan.dynamic_verdict == RACES)

    def to_dict(self) -> dict:
        return {"case_id": self.case_id, "kind": self.kind,
                "constructive_verdict": self.constructive_verdict,
                "ok": self.ok, "scan": self.scan.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "CaseScan":
        return cls(case_id=data["case_id"], kind=data["kind"],
                   constructive_verdict=data["constructive_verdict"],
                   scan=WorkloadScan.from_dict(data["scan"]))


def scan_case(spec: CaseSpec, *, config: Optional[GPUConfig] = None,
              full_report: bool = False) -> CaseScan:
    """Scan one fuzz case under the base (unshielded) config.

    The race question is about the kernel's own accesses, not about
    protection: the scan runs unshielded with violations tolerated so
    attack kinds execute their (committed) OOB accesses too.
    """
    spec.validate()
    workload = build_workload(spec)
    scan = scan_workload(workload,
                         config=config or nvidia_config(num_cores=1),
                         seed=spec.seed & 0xFFFF, allow_violations=True,
                         full_report=full_report)
    return CaseScan(case_id=spec.case_id, kind=spec.kind,
                    constructive_verdict=spec.race_verdict, scan=scan)
