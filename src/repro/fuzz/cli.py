"""``python -m repro.fuzz`` — run a seeded differential campaign.

Usage::

    python -m repro.fuzz --cases 200 --seed 1
    python -m repro.fuzz --cases 200 --seed 1 --jobs 4 --out artifacts/
    python -m repro.fuzz --cases 200 --seed 1 --jobs 4 --out artifacts/ --resume
    python -m repro.fuzz --cases 50 --seed 1 --budget 300 --out artifacts/
    python -m repro.fuzz --replay reproducer.json
    python -m repro.fuzz --kinds overflow,forged_id --configs shield,base

Exit status is non-zero when any case violates the expectation matrix.
With ``--out`` the detection matrix (``detection_matrix.json``) and a
minimised JSON reproducer per failure land in the output directory;
``--replay FILE`` re-runs one serialized reproducer instead of drawing
fresh cases.

``--jobs N`` shards the campaign across N worker processes on the
parallel runner (:mod:`repro.runner`): per-shard timeouts, crash
isolation, a checkpoint journal (``journal.jsonl``) and a run manifest
(``run_manifest.json``) land next to the artifacts, and ``--resume``
continues an interrupted campaign from its journal — the merged result
is bit-identical to an uninterrupted run.  The wall-clock ``--budget``
applies to the serial path only: parallel campaigns bound time with
per-shard timeouts instead, and ``--budget`` with ``--jobs`` or
``--resume`` is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from repro.fuzz.campaign import CONFIG_NAMES, run_campaign, run_case
from repro.fuzz.generator import CaseGenerator
from repro.fuzz.minimize import minimize
from repro.fuzz.spec import KINDS, CaseSpec
from repro.gpu.config import nvidia_config
from repro.runner.sweep import ensure_out_dir


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential fuzzing campaign across every "
                    "protection config.")
    parser.add_argument("--cases", type=int, default=50,
                        help="number of cases to draw (default 50)")
    parser.add_argument("--seed", type=int, default=1,
                        help="campaign seed (default 1)")
    parser.add_argument("--budget", type=float, default=None,
                        help="wall-clock budget in seconds; remaining "
                             "cases are reported as truncated")
    parser.add_argument("--configs", default=",".join(CONFIG_NAMES),
                        help="comma-separated config subset")
    parser.add_argument("--kinds", default=None,
                        help="restrict drawing to these case kinds")
    parser.add_argument("--out", default=None,
                        help="directory for detection_matrix.json and "
                             "minimised reproducers")
    parser.add_argument("--replay", default=None, metavar="FILE",
                        help="re-run one serialized CaseSpec reproducer")
    parser.add_argument("--no-minimize", action="store_true",
                        help="skip reproducer minimisation on failure")
    parser.add_argument("--determinism-every", type=int, default=25,
                        help="re-run every Nth case's shield config to "
                             "check determinism (0 disables)")
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker processes for the parallel runner "
                             "(0 = serial in-process, the default)")
    parser.add_argument("--shards", type=int, default=None,
                        help="shard count (default: jobs * 4, capped at "
                             "the case count)")
    parser.add_argument("--journal", default=None, metavar="FILE",
                        help="checkpoint journal path (default: "
                             "<out>/journal.jsonl when --out is given)")
    parser.add_argument("--resume", action="store_true",
                        help="resume an interrupted campaign from its "
                             "checkpoint journal")
    parser.add_argument("--shard-timeout", type=float, default=None,
                        help="per-shard timeout in seconds "
                             "(default 900)")
    return parser.parse_args(argv)


def _run_parallel(args, specs, configs):
    """Shard the campaign onto the parallel runner and merge back."""
    from repro.fuzz.parallel import (DEFAULT_SHARD_TIMEOUT, merge_campaign,
                                     plan_fuzz_shards)
    from repro.runner import HeartbeatReporter, run_jobs

    jobs = max(args.jobs, 1)
    journal = args.journal
    if journal is None and args.out:
        journal = os.path.join(args.out, "journal.jsonl")
    if args.resume and journal is None:
        print("--resume needs --journal FILE (or --out DIR to derive it)",
              file=sys.stderr)
        return None
    plan = plan_fuzz_shards(
        specs, seed=args.seed, jobs=jobs, shards=args.shards,
        configs=configs, determinism_every=args.determinism_every,
        timeout=args.shard_timeout or DEFAULT_SHARD_TIMEOUT)
    try:
        report = run_jobs(
            plan, jobs=jobs, run_name=f"fuzz-seed{args.seed}",
            journal_path=journal, resume=args.resume, out_dir=args.out,
            reporter=HeartbeatReporter(len(plan), label="fuzz"),
            meta={"cases": len(specs), "seed": args.seed,
                  "configs": list(configs)})
    except ValueError as exc:   # a journal from another plan
        print(exc, file=sys.stderr)
        return None
    try:
        result = merge_campaign(
            [report.results[s.job_id] for s in plan], seed=args.seed)
    except RuntimeError as exc:
        print(f"campaign incomplete: {exc}", file=sys.stderr)
        return None
    cases_per_sec = (len(result.outcomes) / report.wall_seconds
                     if report.wall_seconds else 0.0)
    print(f"[fuzz] {len(result.outcomes)} cases via {len(plan)} shards "
          f"on {jobs} workers in {report.wall_seconds:.1f}s "
          f"({cases_per_sec:.1f} cases/s, {report.reused} shards reused "
          "from journal)", file=sys.stderr)
    return result


def _replay(path: str, configs: List[str]) -> int:
    with open(path) as fh:
        spec = CaseSpec.from_dict(json.load(fh))
    outcome = run_case(spec, configs=configs, check_determinism=True)
    print(json.dumps(outcome.to_dict(), indent=2, sort_keys=True))
    return 0 if outcome.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    configs = [c.strip() for c in args.configs.split(",") if c.strip()]
    unknown = [c for c in configs if c not in CONFIG_NAMES]
    if unknown:
        print(f"unknown configs: {unknown} (have {list(CONFIG_NAMES)})",
              file=sys.stderr)
        return 2
    if args.budget is not None and (args.jobs > 0 or args.resume):
        print("--budget applies to serial campaigns only; parallel ones "
              "(--jobs, --resume) bound time with --shard-timeout",
              file=sys.stderr)
        return 2
    if args.replay:
        return _replay(args.replay, configs)

    gen = CaseGenerator(args.seed)
    if args.kinds:
        kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
        bad = [k for k in kinds if k not in KINDS]
        if bad:
            print(f"unknown kinds: {bad} (have {list(KINDS)})",
                  file=sys.stderr)
            return 2
        specs = [gen.draw_kind(kinds[i % len(kinds)], i)
                 for i in range(args.cases)]
    else:
        specs = gen.draw_many(args.cases)
    if not ensure_out_dir(args.out):
        return 2

    config = nvidia_config(num_cores=1)
    if args.jobs > 0 or args.resume:
        result = _run_parallel(args, specs, configs)
        if result is None:
            return 2
    else:
        deadline = (time.monotonic() + args.budget
                    if args.budget is not None else None)
        should_stop = ((lambda: time.monotonic() > deadline)
                       if deadline is not None else None)

        done = 0

        def progress(outcome) -> None:
            nonlocal done
            done += 1
            if not outcome.ok:
                print(f"[{done}/{len(specs)}] FAIL {outcome.spec.case_id}: "
                      f"{'; '.join(outcome.cell_failures)}", file=sys.stderr)

        result = run_campaign(specs, seed=args.seed, config=config,
                              configs=configs,
                              determinism_every=args.determinism_every,
                              should_stop=should_stop, progress=progress)

    print(result.render_matrix())
    print()
    print(result.stats.snapshot().render("fuzz statistics"))
    if result.truncated:
        print(f"\nbudget exhausted: {result.truncated} of {len(specs)} "
              f"cases were NOT run", file=sys.stderr)

    reproducers = []
    if result.failures and not args.no_minimize:
        for outcome in result.failures:
            def fails(spec, _configs=configs) -> bool:
                return not run_case(spec, config=config,
                                    configs=_configs).ok
            reproducers.append(minimize(outcome.spec, fails))

    if args.out:
        with open(os.path.join(args.out, "detection_matrix.json"),
                  "w") as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        for spec in reproducers:
            name = f"reproducer_{spec.case_id}.json"
            with open(os.path.join(args.out, name), "w") as fh:
                fh.write(spec.to_json())
        print(f"\nartifacts written to {args.out}/")

    if result.failures:
        print(f"\n{len(result.failures)} of {len(result.outcomes)} cases "
              f"violated the expectation matrix", file=sys.stderr)
        for spec in reproducers:
            print(f"  minimised reproducer: {spec.case_id} -> "
                  f"{spec.to_dict()}", file=sys.stderr)
        return 1
    print(f"\nall {len(result.outcomes)} cases match the expectation "
          f"matrix (shield: 100% detection, 0 false positives)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
