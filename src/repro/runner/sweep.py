"""The sweep front-end shared by ``python -m repro race`` and ``profile``.

Both CLIs have one shape: subjects (artifact workloads, then drawn fuzz
cases) → one record per subject, computed serially in-process or
sharded over the runner → one fold in subject order → a report,
artifacts and an exit code.  This module owns that shape; an
:class:`Analysis` plug-in supplies what differs.  A sweep runs on the
process engine (``REPRO_ENGINE``); slow-vs-fast identity is checked by
``tests/test_fastpath.py``, ``bench --compare-engines`` and ``oracle
diff --engines``.

Sharded runs use one job kind, ``sweep.shard``: a contiguous slice of
the subjects plus the analysis name and its options, run by the same
:func:`run_slice` as the serial path.  Records are JSON-safe, so the
merged records equal the serial ones for any shard count.

Exit status: 2 for usage errors (unknown workload or kind, nothing to
do, an ``--out`` that cannot be created) and for a shard that failed
terminally; 1 when a subject breaks the analysis's contract; else 0.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import List, Optional, Sequence

from repro.engine import current_engine
from repro.fuzz.generator import CaseGenerator
from repro.fuzz.spec import KINDS, CaseSpec
from repro.gpu.config import nvidia_config
from repro.runner.job import JobContext, JobSpec
from repro.runner.shard import merge_slices, plan_slice_jobs
from repro.workloads.suite import CUDA_BENCHMARKS, RODINIA_FIG19

SWEEP_KIND = "sweep.shard"

#: analysis name -> "module:attribute" of its plug-in, imported on use.
ANALYSES = {"race": "repro.racedetect.cli:RACE",
            "profile": "repro.profiler.cli:PROFILE"}


class Analysis:
    """One analysis the sweep runs.

    Subclasses set the text attributes and define ``workload(name,
    config, seed, options)`` and ``case(spec, config, options)`` (one
    JSON-safe record per subject), ``failures(result)``,
    ``render(result, args)``, ``clean(result)`` (the tail of the success
    line) and ``write(out, result, args, ok)`` (the artifacts, into an
    existing ``out``; they name the engine as ``current_engine()``).
    """

    name = ""       # registry key, subcommand, job-id prefix, label
    title = ""      # "<title> [engine]: N workload(s), M fuzz case(s)"
    verb = ""       # "nothing to <verb>", "<verb> incomplete", help text
    broken = ""     # "N of M subject(s) <broken>"
    description = out_help = ""
    kinds_help = "fuzz case kinds to draw (default: safe)"

    def add_arguments(self, parser: argparse.ArgumentParser) -> None:
        """Add the analysis's own flags."""

    def options(self, args: argparse.Namespace) -> dict:
        """The options a worker needs; they travel in the job payload."""
        return {}

    def fold(self, records: List[dict]):
        """Subject-ordered records -> the analysis result."""
        return records


def ensure_out_dir(path: Optional[str], flag: str = "--out") -> bool:
    """Create an output directory before any work runs.

    Returns False, with the reason on stderr, when ``path`` cannot be
    created — callers exit 2 instead of crashing after the whole run.
    """
    try:
        if path:
            os.makedirs(path, exist_ok=True)
        return True
    except OSError as exc:
        print(f"cannot create {flag} directory {path!r}: {exc}",
              file=sys.stderr)
        return False


def sweep_subjects(workloads: Sequence[str],
                   specs: Sequence[CaseSpec]) -> List[dict]:
    """The wire-form subject list: workloads first, then fuzz cases."""
    return ([{"workload": name} for name in workloads]
            + [{"case": spec.to_dict()} for spec in specs])


def run_slice(analysis: Analysis, subjects: List[dict], seed: int,
              options: dict) -> List[dict]:
    """One record per subject, in order: the serial path and each shard."""
    config = nvidia_config(num_cores=1)
    records: List[dict] = []
    for subject in subjects:
        if "workload" in subject:
            records.append(analysis.workload(subject["workload"], config,
                                             seed, options))
        else:
            spec = CaseSpec.from_dict(dict(subject["case"]))
            records.append(analysis.case(spec, config, options))
    return records


def plan_sweep(analysis: Analysis, subjects: List[dict], *, seed: int,
               jobs: int, shards: Optional[int] = None,
               options: Optional[dict] = None) -> List[JobSpec]:
    """Cut a sweep into contiguous ``sweep.shard`` jobs."""
    return plan_slice_jobs(
        subjects, kind=SWEEP_KIND, prefix=analysis.name, seed=seed,
        jobs=jobs, shards=shards, key="subjects",
        payload={"analysis": analysis.name, "options": options or {}},
        timeout=600.0)


def run_sweep_shard(payload: dict, ctx: JobContext) -> dict:
    """Worker entrypoint (kind ``sweep.shard``): one analysis, one slice."""
    module, _, attr = ANALYSES[payload["analysis"]].partition(":")
    analysis = getattr(importlib.import_module(module), attr)
    records = run_slice(analysis, payload["subjects"], ctx.spec.seed,
                        payload["options"])
    return {"index_base": payload["index_base"], "records": records}


def _parse_args(analysis: Analysis,
                argv: Optional[List[str]]) -> argparse.Namespace:
    verb = analysis.verb
    parser = argparse.ArgumentParser(prog=f"python -m repro {analysis.name}",
                                     description=analysis.description)
    parser.add_argument("--workloads", default="fig19",
                        help="comma-separated benchmark names, 'fig19' "
                             "for the 9 artifact workloads (default), or "
                             "'none'")
    parser.add_argument("--fuzz-cases", type=int, default=0,
                        help=f"additionally {verb} N drawn fuzz cases "
                             "(default 0)")
    parser.add_argument("--kinds", default="safe",
                        help=analysis.kinds_help)
    parser.add_argument("--seed", type=int, default=1,
                        help="fuzz draw seed / workload device seed "
                             "(default 1)")
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker processes for the parallel runner "
                             "(0 = serial in-process)")
    parser.add_argument("--shards", type=int, default=None,
                        help="shard count (default: jobs * 4, capped at "
                             "the subject count)")
    parser.add_argument("--out", default=None, help=analysis.out_help)
    analysis.add_arguments(parser)
    return parser.parse_args(argv)


def _names(text: str) -> List[str]:
    return [name.strip() for name in text.split(",") if name.strip()]


def _usage(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def run_sweep(analysis: Analysis, argv: Optional[List[str]] = None) -> int:
    """Parse ``argv``, sweep the subjects, report; the exit code."""
    from repro.runner import HeartbeatReporter, run_jobs
    args = _parse_args(analysis, argv)

    if args.workloads == "fig19":
        workloads = list(RODINIA_FIG19)
    elif args.workloads in ("none", ""):
        workloads = []
    else:
        workloads = _names(args.workloads)
    bad = [w for w in workloads if w not in CUDA_BENCHMARKS]
    if bad:
        return _usage(f"unknown workloads: {bad} (see python -m repro list)")
    kinds = _names(args.kinds)
    bad = [k for k in kinds if k not in KINDS]
    if bad:
        return _usage(f"unknown kinds: {bad} (have {list(KINDS)})")
    gen = CaseGenerator(args.seed)
    specs = [gen.draw_kind(kinds[i % len(kinds)], i)
             for i in range(args.fuzz_cases)]
    if not workloads and not specs:
        return _usage(f"nothing to {analysis.verb} "
                      f"(no workloads, no fuzz cases)")
    if not ensure_out_dir(args.out):
        return 2

    subjects = sweep_subjects(workloads, specs)
    options = analysis.options(args)
    if args.jobs > 0:
        plan = plan_sweep(analysis, subjects, seed=args.seed,
                          jobs=args.jobs, shards=args.shards,
                          options=options)
        report = run_jobs(
            plan, jobs=args.jobs,
            run_name=f"{analysis.name}-seed{args.seed}", out_dir=args.out,
            reporter=HeartbeatReporter(len(plan), label=analysis.name),
            meta={"workloads": workloads, "cases": len(specs),
                  "seed": args.seed})
        try:
            records = merge_slices(
                [report.results[s.job_id] for s in plan], "records",
                analysis.title)
        except RuntimeError as exc:
            return _usage(f"{analysis.verb} incomplete: {exc}")
    else:
        records = run_slice(analysis, subjects, args.seed, options)
    result = analysis.fold(records)
    print(f"{analysis.title} [{current_engine()}]: {len(workloads)} "
          f"workload(s), {len(specs)} fuzz case(s)")
    print(analysis.render(result, args))

    failures = analysis.failures(result)
    if args.out:
        analysis.write(args.out, result, args, not failures)
        print(f"\nartifacts written to {args.out}/")
    if failures:
        print(f"\n{len(failures)} of {len(subjects)} subject(s) "
              f"{analysis.broken}", file=sys.stderr)
        return 1
    print(f"\nall {len(subjects)} subject(s) {analysis.clean(result)}")
    return 0
