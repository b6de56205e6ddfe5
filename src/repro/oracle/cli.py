"""``python -m repro oracle`` — record, diff and check traces.

Subcommands::

    oracle record  [--root DIR] [--subjects S ...] [--engine slow]
        (Re)record the golden corpus.  Commit the result only alongside
        the intentional behavioural change that explains it.

    oracle diff    [--engines slow,fast | --golden] [--jobs N] ...
        Replay subjects under two legs and report the first divergent
        event per subject.  Default sweep: the 9 artifact workloads
        plus 50 fuzz seeds, slow vs fast.  ``--golden`` instead holds
        each engine to the pinned corpus.  ``--inject-fault N`` flips
        one coalescer output bit on the Nth access of a single subject
        and prints where the diff localises it (oracle self-test).

    oracle check   [--subjects S ...] [--engines fast] [--jobs N]
        Run the cross-layer invariant checker alone.

Exit status is 0 only when every subject is clean; ``--report`` writes
the full machine-readable divergence report (the CI artifact).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.oracle.capture import expand_subjects
from repro.oracle.golden import GOLDEN_SUBJECTS, default_golden_root
from repro.oracle.runner import (DEFAULT_SUBJECT_TIMEOUT, DIFF_KIND,
                                 plan_diff_jobs)
from repro.runner.sweep import ensure_out_dir


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--subjects", nargs="*", default=None,
                   help="explicit subject list (tpl:/bench:/fuzz:)")
    p.add_argument("--workloads", default=None,
                   help="comma-separated benchmark names for bench: "
                        "subjects (default: the 9 artifact workloads)")
    p.add_argument("--fuzz-seeds", type=int, default=50,
                   help="append fuzz:1..N subjects (default 50)")
    p.add_argument("--scale", type=float, default=None,
                   help="override the bench: subject scale")
    p.add_argument("--jobs", type=int, default=0,
                   help="worker processes (0 = inline)")
    p.add_argument("--report", default=None,
                   help="write the JSON divergence report here")
    p.add_argument("--no-stage-level", action="store_true",
                   help="trace only post-BCU access events")
    p.add_argument("--no-invariants", action="store_true",
                   help="skip the cross-layer invariant checker")
    p.add_argument("--timeout", type=float,
                   default=DEFAULT_SUBJECT_TIMEOUT,
                   help="per-subject wall-clock cap (seconds)")


def _subjects_from(args) -> List[str]:
    if args.subjects:
        return list(args.subjects)
    workloads = (args.workloads.split(",") if args.workloads else None)
    return expand_subjects(workloads, fuzz_seeds=args.fuzz_seeds,
                           scale=args.scale)


def _run_plan(specs, args, mode: str) -> int:
    from repro.runner import run_jobs
    report = run_jobs(specs, jobs=args.jobs, run_name=f"oracle-{mode}")
    results = [report.results[s.job_id] for s in specs]
    hard_failures = [r for r in results if not r.ok]
    payloads = [r.payload for r in results if r.ok]
    bad = [p for p in payloads if not p["ok"]]

    if args.report:
        with open(args.report, "w") as fh:
            json.dump({
                "mode": mode,
                "subjects": len(specs),
                "ok": not bad and not hard_failures,
                "failures": [{"job_id": r.job_id, "status": r.status,
                              "error": r.error} for r in hard_failures],
                "results": payloads,
            }, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report: {args.report}")

    clean = len(payloads) - len(bad)
    print(f"oracle {mode}: {clean}/{len(specs)} subjects clean, "
          f"{len(bad)} divergent, {len(hard_failures)} job failures")
    for r in hard_failures:
        print(f"  job {r.job_id} {r.status}: {r.error}")
    for p in bad[:10]:
        print(f"  DIVERGED {p['subject']}:")
        diff = p.get("diff")
        if diff and diff.get("divergence"):
            d = diff["divergence"]
            print(f"    first divergent event at index {d['index']} "
                  f"(fields: {', '.join(d['fields'])})")
            print(f"    a: {d['a']}")
            print(f"    b: {d['b']}")
        for inv in p.get("invariants", []):
            for failure in inv.get("failures", [])[:5]:
                print(f"    invariant [{inv['engine']}]: {failure}")
    return 0 if not bad and not hard_failures else 1


def _cmd_record(args) -> int:
    from repro.oracle.golden import record_golden
    root = Path(args.root) if args.root else default_golden_root()
    subjects = args.subjects or list(GOLDEN_SUBJECTS)
    manifest = record_golden(root, subjects=subjects, engine=args.engine)
    for subject, entry in sorted(manifest["subjects"].items()):
        print(f"recorded {subject}: {entry['events']} events -> "
              f"{entry['file']} ({entry['content_hash'][:12]}...)")
    print(f"golden corpus: {len(manifest['subjects'])} subjects "
          f"under {root}")
    return 0


def _cmd_fault(args, subjects: List[str]) -> int:
    """Inline fault-localisation self-test (single subject, one engine)."""
    from repro.oracle.capture import capture
    from repro.oracle.diff import diff_captures
    from repro.oracle.faults import CoalescerFault
    subject = subjects[0]
    engine = args.engines.split(",")[0]
    fault = CoalescerFault(site=args.inject_fault, bit=args.fault_bit)
    clean = capture(subject, engine=engine, stage_level=True)
    faulted = capture(subject, engine=engine, stage_level=True,
                      fault=fault)
    result = diff_captures(clean, faulted)
    if result.ok:
        print(f"fault at site {fault.site} produced no divergence "
              f"(subject too short?)")
        return 1
    print(result.describe())
    return 0


def _cmd_diff(args) -> int:
    subjects = _subjects_from(args)
    if args.inject_fault is not None:
        return _cmd_fault(args, subjects)
    if args.golden:
        subjects = args.subjects or list(GOLDEN_SUBJECTS)
        root = str(Path(args.root) if args.root else default_golden_root())
        specs = plan_diff_jobs(
            subjects, mode="golden",
            engines=args.engines.split(","), golden_root=root,
            stage_level=not args.no_stage_level,
            invariants=not args.no_invariants, timeout=args.timeout)
        return _run_plan(specs, args, "golden")
    specs = plan_diff_jobs(
        subjects, mode="engines", engines=args.engines.split(","),
        stage_level=not args.no_stage_level,
        invariants=not args.no_invariants, timeout=args.timeout)
    return _run_plan(specs, args, "engines")


def _cmd_check(args) -> int:
    subjects = _subjects_from(args)
    specs = plan_diff_jobs(
        subjects, mode="invariants", engines=args.engines.split(","),
        stage_level=not args.no_stage_level, invariants=True,
        timeout=args.timeout)
    return _run_plan(specs, args, "invariants")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro oracle",
        description="Conformance oracle: record/diff/check memory "
                    "traces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_record = sub.add_parser("record", help="(re)record golden traces")
    p_record.add_argument("--root", default=None,
                          help="corpus directory (default "
                               "tests/data/golden)")
    p_record.add_argument("--subjects", nargs="*", default=None)
    p_record.add_argument("--engine", default="slow",
                          help="recording engine (default slow)")

    p_diff = sub.add_parser("diff", help="diff two legs per subject")
    p_diff.add_argument("--engines", default="slow,fast",
                        help="comma-separated legs (default slow,fast)")
    p_diff.add_argument("--golden", action="store_true",
                        help="diff each engine against the golden "
                             "corpus instead")
    p_diff.add_argument("--root", default=None,
                        help="golden corpus directory")
    p_diff.add_argument("--inject-fault", type=int, default=None,
                        metavar="SITE",
                        help="self-test: flip a coalescer bit on the "
                             "SITE-th access of the first subject and "
                             "localise it")
    p_diff.add_argument("--fault-bit", type=int, default=7)
    _add_common(p_diff)

    p_check = sub.add_parser("check", help="invariant checker only")
    p_check.add_argument("--engines", default="fast",
                         help="engines to capture under (default fast)")
    _add_common(p_check)

    args = parser.parse_args(argv)
    if args.command == "record":
        return _cmd_record(args)
    if args.report and not ensure_out_dir(os.path.dirname(args.report),
                                          "--report"):
        return 2
    if args.command == "diff":
        return _cmd_diff(args)
    return _cmd_check(args)


if __name__ == "__main__":
    sys.exit(main())


# Re-exported for tests that drive the CLI pieces directly.
__all__ = ["main", "DIFF_KIND"]
