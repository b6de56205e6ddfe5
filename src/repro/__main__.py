"""Command-line entry point: regenerate paper artefacts on demand.

Usage::

    python -m repro list                 # available artefacts
    python -m repro fig1                 # buffer-count distribution
    python -m repro table3               # BCU area/power
    python -m repro fig14 --subset 8     # overhead sweep on 8 benchmarks
    python -m repro fig19                # software-tool comparison
    python -m repro bench --jobs 4       # all sweeps on the parallel runner
    python -m repro fuzz --cases 200     # differential fuzzing campaign
    python -m repro race --fuzz-cases 50 # data-race scan (detector + static)
    python -m repro profile --top 10     # hierarchical perf attribution

Artefacts that need long sweeps accept ``--subset N`` to restrict to the
first N benchmarks of the relevant set.  ``bench`` runs every artefact
on the parallel runner (:mod:`repro.runner`) and records machine-
readable results; see ``python -m repro bench --help``.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Optional

from repro.analysis.figures import ARTIFACTS


def run_artifact(name: str, subset: Optional[int] = None) -> str:
    """Regenerate one artefact and return its rendered text."""
    if name not in ARTIFACTS:
        raise SystemExit(f"unknown artefact {name!r} "
                         f"(try: python -m repro list)")
    return ARTIFACTS[name].run(subset)["text"]


#: Subcommands forwarded to their own CLI: ``python -m repro <cmd> ...``.
SUBCOMMANDS = {
    "fuzz": "repro.fuzz.cli",              # differential fuzzing campaign
    "bench": "repro.analysis.bench",       # artefacts on the parallel runner
    "oracle": "repro.oracle.cli",          # conformance oracle
    "race": "repro.racedetect.cli",        # race scanner
    "profile": "repro.profiler.cli",       # hierarchical perf attribution
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        return importlib.import_module(SUBCOMMANDS[argv[0]]).main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate GPUShield paper tables/figures.")
    parser.add_argument("artifact",
                        help="one of: " + ", ".join(
                            ["list", *SUBCOMMANDS, *ARTIFACTS]))
    parser.add_argument("--subset", type=int, default=None,
                        help="restrict sweeps to the first N benchmarks")
    args = parser.parse_args(argv)

    if args.artifact == "list":
        print("available artefacts:")
        for name in ARTIFACTS:
            print(f"  {name}")
        return 0
    if args.artifact not in ARTIFACTS:
        # run_artifact raises SystemExit for API compatibility; the CLI
        # reports a clean validation error on stderr instead.
        print(f"unknown artefact {args.artifact!r} "
              f"(try: python -m repro list)", file=sys.stderr)
        return 2
    print(run_artifact(args.artifact, args.subset))
    return 0


if __name__ == "__main__":
    sys.exit(main())
