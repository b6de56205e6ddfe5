"""The bench driver: ``python -m repro bench`` on the parallel runner.

Runs the paper artefacts of :data:`repro.analysis.figures.ARTIFACTS` on
:mod:`repro.runner`: every artefact becomes one or more ``bench.artifact``
jobs — one for the cheap tables, one per contiguous slice of benchmark
names (or Figure 18 pairs) for the sweeps — executed with crash
isolation, timeouts and checkpointing, then merged by the table's own
merge, so a sharded run renders exactly what a serial one does.

Every artefact also lands as a **machine-readable result record** under
``benchmarks/results/`` (see :func:`write_result_record`: an envelope
with the generating config, headline metrics like cycles/overhead %,
and the raw series).  Besides regeneration the driver runs one
differential, slow vs fast engine (``--compare-engines``).  Host timing
is not its job: ``bench/`` measures that in fresh processes.  Every run
does close with its peak RSS, the suite's memory figure.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from typing import Dict, Optional, Sequence

from repro.analysis.figures import ARTIFACTS

RESULT_SCHEMA = 2


# ---------------------------------------------------------------------------
# Result records (shared with benchmarks/conftest.py)
# ---------------------------------------------------------------------------


def write_result_record(results_dir: str, name: str, text: str, *,
                        data=None, config: Optional[dict] = None,
                        metrics: Optional[dict] = None) -> str:
    """Persist one artefact as ``<name>.txt`` + a JSON record.

    The JSON envelope is the machine-readable contract every bench
    emits: the configuration that produced the numbers, headline
    metrics (cycles, overhead %), and the raw data series.
    """
    os.makedirs(results_dir, exist_ok=True)
    json_path = os.path.join(results_dir, f"{name}.json")
    # Clobber guard: a record written by a newer schema must not be
    # silently downgraded — bump RESULT_SCHEMA (and migrate) instead.
    if os.path.exists(json_path):
        try:
            with open(json_path) as fh:
                existing = json.load(fh)
        except (json.JSONDecodeError, OSError):
            existing = None
        if (isinstance(existing, dict)
                and int(existing.get("schema", 0)) > RESULT_SCHEMA):
            raise ValueError(
                f"refusing to overwrite {json_path}: its schema "
                f"{existing['schema']} is newer than this writer's "
                f"({RESULT_SCHEMA}); bump RESULT_SCHEMA to migrate")
    txt_path = os.path.join(results_dir, f"{name}.txt")
    with open(txt_path, "w") as fh:
        fh.write(text + "\n")
    record = {
        "schema": RESULT_SCHEMA,
        "name": name,
        "config": config or default_record_config(),
        "metrics": metrics or {},
        "data": data,
    }
    with open(json_path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
    return json_path


def default_record_config(**settings) -> dict:
    """The environment knobs that shaped a bench run, plus ``settings``."""
    return {
        "scale": float(os.environ.get("REPRO_SCALE", 1.0)),
        "subset": (int(os.environ["REPRO_SUBSET"])
                   if os.environ.get("REPRO_SUBSET") else None),
        **settings,
    }


def publish_artifact(results_dir: str, name: str, final: dict, *,
                     subset: Optional[int], seed: int, jobs: int) -> str:
    """Write one artefact's record: the table's text, data and metrics."""
    return write_result_record(
        results_dir, ARTIFACTS[name].record, final["text"],
        data=final["data"], metrics=final["metrics"],
        config=default_record_config(subset=subset, seed=seed, jobs=jobs))


# ---------------------------------------------------------------------------
# The driver: one bench.artifact job per slice, the table's merge
# ---------------------------------------------------------------------------


def run_artifact_job(payload: dict, ctx) -> dict:
    """Runner entrypoint (kind ``bench.artifact``): one artefact slice."""
    artifact = ARTIFACTS[payload["artifact"]]
    return {"index_base": payload["index_base"],
            "slices": [artifact.compute(payload["items"], ctx.spec.seed)]}


def run_artifacts(artifacts: Sequence[str], *, jobs: int = 0,
                  subset: Optional[int] = None, seed: int = 11,
                  reporter=None, **run_options):
    """Run ``artifacts`` on the runner and merge each one.

    Every artefact is one ``bench.artifact`` job per contiguous slice of
    its items (sweeps shard when ``jobs > 1``).  Returns ``(finals,
    results)``, mapping each artefact to its ``{text, data, metrics}``
    and to its job results; ``run_options`` go to
    :func:`repro.runner.run_jobs`.  Raises ``RuntimeError`` naming the
    failed jobs when any slice failed.
    """
    from repro.runner import HeartbeatReporter, run_jobs
    from repro.runner.shard import (default_shard_count, merge_slices,
                                    plan_slice_jobs)

    plan = {}
    for name in artifacts:
        items = ARTIFACTS[name].items(subset)
        shards = (default_shard_count(len(items), jobs, per_worker=2)
                  if jobs > 1 else 1)
        plan[name] = plan_slice_jobs(
            items, kind="bench.artifact", prefix=f"bench-{name}",
            key="items", seed=seed, jobs=jobs, shards=shards,
            payload={"artifact": name}, timeout=1800.0)
    specs = [spec for name in artifacts for spec in plan[name]]
    report = run_jobs(specs, jobs=jobs, run_name="bench-suite",
                      reporter=reporter or HeartbeatReporter(
                          len(specs), label="bench"),
                      meta={"artifacts": list(artifacts), "subset": subset,
                            "seed": seed}, **run_options)
    results = {name: [report.results[s.job_id] for s in plan[name]]
               for name in artifacts}
    finals = {name: ARTIFACTS[name].merge(
                  merge_slices(results[name], "slices", f"bench {name}"))
              for name in artifacts}
    return finals, results


def run_bench_suite(artifacts: Optional[Sequence[str]] = None, *,
                    jobs: int = 0, subset: Optional[int] = None,
                    seed: int = 11,
                    results_dir: str = "benchmarks/results",
                    out_dir: Optional[str] = None,
                    journal_path: Optional[str] = None,
                    resume: bool = False, reporter=None) -> dict:
    """Run the artefacts and write their records.

    Returns each artefact's metrics, job count and summed job seconds.
    """
    artifacts = list(artifacts or ARTIFACTS)
    finals, results = run_artifacts(
        artifacts, jobs=jobs, subset=subset, seed=seed, out_dir=out_dir,
        journal_path=journal_path, resume=resume, reporter=reporter)
    summary = {}
    for name, final in finals.items():
        publish_artifact(results_dir, name, final, subset=subset,
                         seed=seed, jobs=jobs)
        wall = sum(r.wall_seconds for r in results[name])
        summary[name] = {"metrics": final["metrics"],
                         "jobs": len(results[name]),
                         "wall_seconds": round(wall, 3)}
    return summary


# ---------------------------------------------------------------------------
# Engine differential: slow vs fast, bit-identical by construction
# ---------------------------------------------------------------------------


def _digest_payload(payload) -> str:
    """A stable 16-hex digest of a finalized artefact's observables."""
    import hashlib
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def compare_engines(artifacts: Optional[Sequence[str]] = None, *,
                    jobs: int = 0, subset: Optional[int] = None,
                    seed: int = 11, fuzz_cases: int = 200,
                    fuzz_seed: int = 1,
                    results_dir: str = "benchmarks/results") -> dict:
    """Run every artefact plus a fuzz campaign under both engines.

    The fast lane's contract is *bit identity*: same cycles, same stats,
    same memory contents, same violations.  This driver proves it the
    blunt way — re-running the whole artefact suite and the PR-2 fuzz
    corpus under each engine and comparing digests of everything each
    produces ({text, data, metrics} per artefact; the full per-case
    outcome digest, which covers cycle counts, for the campaign) — and
    records the digest table in ``BENCH_hotpath.json``, the only record
    it writes.  Host time is ``bench/``'s to measure, not this check's.
    """
    from repro.engine import ENGINES, engine
    from repro.fuzz.campaign import run_campaign
    from repro.fuzz.generator import CaseGenerator
    from repro.fuzz.parallel import campaign_digest
    from repro.gpu.config import nvidia_config

    artifacts = list(artifacts or ARTIFACTS)
    specs = (CaseGenerator(fuzz_seed).draw_many(fuzz_cases)
             if fuzz_cases > 0 else [])

    legs: Dict[str, dict] = {}
    for leg in ENGINES:
        with engine(leg):
            finals, _results = run_artifacts(
                artifacts, jobs=jobs, subset=subset, seed=seed)
            fuzz_digest = None
            if specs:
                campaign = run_campaign(specs, seed=fuzz_seed,
                                        config=nvidia_config(num_cores=1))
                fuzz_digest = campaign_digest(campaign)
            legs[leg] = {
                "digests": {a: _digest_payload(finals[a]) for a in finals},
                "fuzz_digest": fuzz_digest,
            }

    slow, fast = legs["slow"], legs["fast"]
    mismatches = sorted(a for a in slow["digests"]
                        if slow["digests"][a] != fast["digests"][a])
    fuzz_identical = slow["fuzz_digest"] == fast["fuzz_digest"]
    identical = not mismatches and fuzz_identical

    lines = [f"Engine differential: {len(artifacts)} artefact(s) + "
             f"{len(specs)} fuzz case(s) (seed {fuzz_seed}), "
             f"slow vs fast", ""]
    lines.append(f"{'artifact':<12} {'slow digest':<18} "
                 f"{'fast digest':<18} match")
    for name in artifacts:
        s, f = slow["digests"][name], fast["digests"][name]
        lines.append(f"{name:<12} {s:<18} {f:<18} "
                     f"{'yes' if s == f else 'NO'}")
    if specs:
        lines.append(f"{'fuzz':<12} {str(slow['fuzz_digest']):<18} "
                     f"{str(fast['fuzz_digest']):<18} "
                     f"{'yes' if fuzz_identical else 'NO'}")
    lines.append("")
    lines.append(f"digests identical: {identical}")
    text = "\n".join(lines)

    result = {
        "identical": identical,
        "mismatches": mismatches,
        "fuzz_identical": fuzz_identical,
        "legs": legs,
        "text": text,
    }
    write_result_record(
        results_dir, "BENCH_hotpath", text,
        data={"artifacts": artifacts, "legs": legs,
              "mismatches": mismatches},
        config=default_record_config(
            subset=subset, seed=seed, jobs=jobs, fuzz_cases=len(specs),
            fuzz_seed=fuzz_seed),
        metrics={"digests_identical": identical})
    return result


# ---------------------------------------------------------------------------
# CLI: python -m repro bench
# ---------------------------------------------------------------------------


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Run the benchmark sweeps on the parallel runner "
                    "and record machine-readable results.  Host timing "
                    "lives in bench/ (python bench/run.py).")
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker processes (0 = serial in-process)")
    parser.add_argument("--artifacts", default=None,
                        help="comma-separated artefact subset "
                             f"(default: all of {', '.join(ARTIFACTS)})")
    parser.add_argument("--subset", type=int, default=None,
                        help="restrict sweeps to the first N benchmarks")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--results-dir", default="benchmarks/results",
                        help="where per-artefact records land")
    parser.add_argument("--manifest-dir", default=None,
                        help="directory for run manifest + journal")
    parser.add_argument("--resume", action="store_true",
                        help="resume from the manifest-dir journal")
    parser.add_argument("--compare-engines", action="store_true",
                        help="run the artefacts and a fuzz campaign "
                             "under both the slow and fast engines, "
                             "fail on any digest mismatch, and record "
                             "the digest table in BENCH_hotpath.json")
    parser.add_argument("--fuzz-cases", type=int, default=200,
                        help="fuzz cases in the --compare-engines "
                             "campaign (0 = artefacts only)")
    parser.add_argument("--fuzz-seed", type=int, default=1)
    return parser.parse_args(argv)


def _peak_rss_line(jobs: int) -> str:
    """The closing line: this process's peak RSS and, under ``--jobs
    N``, the largest worker's (Linux ``ru_maxrss`` is in KiB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    line = f"[bench] peak RSS: {peak / 1024:.1f} MB"
    if jobs > 0:
        worst = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        line += f", largest worker {worst / 1024:.1f} MB"
    return line


def main(argv=None) -> int:
    args = _parse_args(argv)
    artifacts = ([a.strip() for a in args.artifacts.split(",") if a.strip()]
                 if args.artifacts else None)
    if artifacts:
        bad = [a for a in artifacts if a not in ARTIFACTS]
        if bad:
            print(f"unknown artefacts: {bad} (have {list(ARTIFACTS)})",
                  file=sys.stderr)
            return 2
    if args.compare_engines and (args.resume or args.manifest_dir):
        ignored = [flag for flag, given in (("--resume", args.resume),
                                            ("--manifest-dir",
                                             args.manifest_dir)) if given]
        print(f"--compare-engines keeps no manifest or journal: drop "
              f"{' and '.join(ignored)}", file=sys.stderr)
        return 2
    if args.resume and not args.manifest_dir:
        print("--resume needs --manifest-dir DIR (where the journal lives)",
              file=sys.stderr)
        return 2
    # Every mode ends by writing records here: refuse an unwritable
    # directory before any job is planned, not after the sweep ran.
    try:
        os.makedirs(args.results_dir, exist_ok=True)
    except OSError as exc:
        print(f"cannot write results to {args.results_dir!r}: {exc}",
              file=sys.stderr)
        return 2

    if args.compare_engines:
        result = compare_engines(
            artifacts, jobs=args.jobs, subset=args.subset,
            seed=args.seed, fuzz_cases=args.fuzz_cases,
            fuzz_seed=args.fuzz_seed, results_dir=args.results_dir)
        print(result["text"])
        print(_peak_rss_line(args.jobs))
        if not result["identical"]:
            print("[bench] ERROR: fast engine diverged from slow "
                  f"(artifacts: {result['mismatches'] or 'none'}, "
                  f"fuzz identical: {result['fuzz_identical']})",
                  file=sys.stderr)
            return 1
        return 0

    try:
        summary = run_bench_suite(
            artifacts, jobs=args.jobs, subset=args.subset, seed=args.seed,
            results_dir=args.results_dir, out_dir=args.manifest_dir,
            resume=args.resume)
    except ValueError as exc:   # another plan's journal, a newer record
        print(exc, file=sys.stderr)
        return 2
    for name, info in summary.items():
        print(f"[bench] {name}: {info['jobs']} job(s), "
              f"{info['wall_seconds']:.1f}s, "
              f"metrics={json.dumps(info['metrics'], sort_keys=True)}")
    print(_peak_rss_line(args.jobs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
