"""``python -m repro race`` — scan workloads and fuzz cases for races.

Usage::

    python -m repro race                          # the 9 artifact workloads
    python -m repro race --fuzz-cases 200 --seed 1
    python -m repro race --workloads bfs,lud
    python -m repro race --fuzz-cases 50 --jobs 4 --out artifacts/

Every subject runs with the shadow-memory detector attached and through
the static may-race pass; fuzz cases additionally check the generator's
constructive race-free promise.  Exit status is non-zero when any
artifact workload dynamically races (they are all race-free), when a
``race-free``-by-construction fuzz case races, or when the static and
dynamic verdicts violate their contract (see
:mod:`repro.racedetect.scan`).

The scan runs on the process engine (``REPRO_ENGINE``); the detector
observes the committed access stream, which the engine contract fixes,
and ``tests/test_racedetect.py`` holds the verdicts equal on both.
``--jobs N`` shards subjects across worker processes; the merged result
is identical to the serial scan.  With ``--out`` the full scan lands in
``race_scan.json`` and each failing subject's race records in a
``race_divergence_<subject>.json`` artifact.

The flags, sharding and the exit codes are the shared sweep's
(:mod:`repro.runner.sweep`); this module is its race plug-in.
"""

from __future__ import annotations

import json
import os
import sys
from typing import List, Optional

from repro.engine import current_engine
from repro.racedetect.scan import scan_benchmark, scan_case
from repro.runner.sweep import Analysis, run_sweep


def _scan(result: dict) -> dict:
    return result.get("scan") or result["case"]["scan"]


class RaceScan(Analysis):
    name = "race"
    title = "race scan"
    verb = "scan"
    description = ("Intra-kernel data-race scan: shadow-memory detector "
                   "+ static may-race cross-check.")
    kinds_help = ("fuzz case kinds to draw (default: safe — "
                  "the false-positive check)")
    out_help = "directory for race_scan.json and divergence artifacts"
    broken = "violated the race contract"

    def add_arguments(self, parser) -> None:
        parser.add_argument("--full-report", action="store_true",
                            help="include per-pair static findings in the "
                                 "JSON output")

    def options(self, args) -> dict:
        return {"full_report": args.full_report}

    def workload(self, name, config, seed, options) -> dict:
        scan = scan_benchmark(name, config=config, seed=seed,
                              full_report=options["full_report"])
        ok = scan.ok and scan.dynamic_verdict == "race-free"
        return {"subject": name, "scan": scan.to_dict(), "ok": ok}

    def case(self, spec, config, options) -> dict:
        case = scan_case(spec, config=config,
                         full_report=options["full_report"])
        return {"subject": spec.case_id, "case": case.to_dict(),
                "ok": case.ok}

    def failures(self, results: List[dict]) -> List[dict]:
        return [r for r in results if not r["ok"]]

    def render(self, results: List[dict], args) -> str:
        lines = [f"  {'subject':<28} {'dynamic':>10} {'static':>10} "
                 f"{'races':>6}  ok"]
        for result in results:
            scan = _scan(result)
            lines.append(
                f"  {result['subject']:<28} {scan['dynamic_verdict']:>10} "
                f"{scan['static_verdict']:>10} {scan['races']:>6}  "
                f"{'yes' if result['ok'] else 'NO'}")
        return "\n".join(lines)

    def clean(self, results: List[dict]) -> str:
        races = sum(_scan(r)["races"] for r in results)
        return f"clean ({races} races, 0 contract violations)"

    def write(self, out, results, args, ok) -> None:
        with open(os.path.join(out, "race_scan.json"), "w") as fh:
            json.dump({"seed": args.seed, "engine": current_engine(),
                       "results": results, "ok": ok},
                      fh, indent=2, sort_keys=True)
        for result in self.failures(results):
            name = result["subject"].replace(":", "_").replace("/", "_")
            path = os.path.join(out, f"race_divergence_{name}.json")
            with open(path, "w") as fh:
                json.dump(result, fh, indent=2, sort_keys=True)


RACE = RaceScan()


def main(argv: Optional[List[str]] = None) -> int:
    return run_sweep(RACE, argv)


if __name__ == "__main__":
    sys.exit(main())
