"""``python -m repro profile`` — hierarchical performance profiles.

Usage::

    python -m repro profile                          # 9 artifact workloads
    python -m repro profile --workloads bfs,gaussian --top 10
    python -m repro profile --fuzz-cases 50 --seed 1 --jobs 4
    python -m repro profile --out profile-artifacts

Every subject runs on a warm device with the profiler attached (which
routes the fast engine through the reference pipeline — attribution
needs the per-stage breakdown) and under the paper's default GPUShield
configuration, so the ``check`` stage carries real RCache/RBT activity.
The output is a text top-N report plus, with ``--out``, a flame-style
``profile.json`` and the same text in ``profile.txt``.

Attribution is self-checking: every subject's profile must reconcile
*exactly* with the GPU's stats registry.  Exit status is non-zero on
any reconciliation failure.  The profile runs on the process engine
(``REPRO_ENGINE``); ``tests/test_profiler.py`` holds its canonical
(cycle) side equal on both.  ``--jobs N`` shards subjects across worker
processes; the merged profile is identical to the serial one.

The flags, sharding and the exit codes are the shared sweep's
(:mod:`repro.runner.sweep`); this module is its profile plug-in.
"""

from __future__ import annotations

import json
import os
import sys
from typing import List, Optional, Tuple

from repro.engine import current_engine
from repro.profiler.collect import profile_benchmark, profile_case
from repro.profiler.profile import ProfileSnapshot
from repro.profiler.report import flame, render as render_report
from repro.runner.sweep import Analysis, run_sweep

Profiled = Tuple[ProfileSnapshot, List[dict]]

#: The per-subject row of the report and of ``profile.json``.
_ROW = ("subject", "cycles", "reconciled", "mismatches")


class Profile(Analysis):
    name = "profile"
    title = "profile"
    verb = "profile"
    description = ("Hierarchical cycle + wall-time attribution across "
                   "engine -> core -> pipeline stage -> shield "
                   "sub-step.")
    out_help = ("directory for profile.json (flame tree + counters) and "
                "profile.txt")
    broken = "failed to reconcile with the stats registry"

    def add_arguments(self, parser) -> None:
        parser.add_argument("--top", type=int, default=15,
                            help="frames in the top-N report (default 15)")

    def workload(self, name, config, seed, options) -> dict:
        return profile_benchmark(name, config=config, seed=seed).to_dict()

    def case(self, spec, config, options) -> dict:
        return profile_case(spec, config=config).to_dict()

    def fold(self, records: List[dict]) -> Profiled:
        """Merge the subjects' snapshots; rows keep subject order."""
        snapshot = ProfileSnapshot.empty()
        for record in records:
            snapshot = snapshot.merge(
                ProfileSnapshot.from_dict(record["profile"]))
        return snapshot, [{key: record[key] for key in _ROW}
                          for record in records]

    def failures(self, result: Profiled) -> List[dict]:
        return [row for row in result[1] if not row["reconciled"]]

    def render(self, result: Profiled, args) -> str:
        snapshot, rows = result
        return render_report(snapshot, rows, top_n=args.top)

    def clean(self, result: Profiled) -> str:
        return (f"reconciled exactly ({result[0].latency_cycles()} "
                f"cycles attributed)")

    def write(self, out, result: Profiled, args, ok) -> None:
        snapshot, rows = result
        payload = {
            "schema": 1,
            "seed": args.seed,
            "engine": current_engine(),
            "flame": flame(snapshot),
            "profile": snapshot.to_dict(),
            "subjects": rows,
            "ok": ok,
        }
        with open(os.path.join(out, "profile.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        with open(os.path.join(out, "profile.txt"), "w") as fh:
            fh.write(self.render(result, args) + "\n")


PROFILE = Profile()


def main(argv: Optional[List[str]] = None) -> int:
    return run_sweep(PROFILE, argv)


if __name__ == "__main__":
    sys.exit(main())
