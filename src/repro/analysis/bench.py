"""The bench driver: ``python -m repro bench`` on the parallel runner.

Re-targets the ``benchmarks/`` sweeps (each a paper table/figure) onto
:mod:`repro.runner`: every artefact becomes one or more ``bench.artifact``
jobs — single-shot for the cheap tables, sharded by benchmark name for
the big sweeps (Figures 14-19) — executed with crash isolation,
timeouts and checkpointing, then merged back into exactly the structure
the serial ``figures.*`` functions return.

Every artefact also lands as a **machine-readable result record** under
``benchmarks/results/`` (see :func:`write_result_record`: an envelope
with the generating config, headline metrics like cycles/overhead %,
and the raw series).  Besides regeneration the driver runs two
differentials — slow vs fast engine (``--compare-engines``) and the
serving layer (``--service``).  Host timing is not its job: ``bench/``
measures that in fresh processes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.analysis import figures
from repro.analysis.results import geomean

RESULT_SCHEMA = 2

#: Sharded sweeps: artefact -> item-list factory.  Items are the unit
#: of sharding (benchmark names; name pairs for Figure 18).
_SWEEPS = {
    "fig14": lambda: _names("CUDA_BENCHMARKS"),
    "fig15": lambda: _names("RCACHE_SENSITIVE"),
    "fig16": lambda: _names("OPENCL_BENCHMARKS"),
    "fig17": lambda: _names("RCACHE_SENSITIVE"),
    "fig18": lambda: _pairs(),
    "fig19": lambda: _names("RODINIA_FIG19"),
}

#: Single-job artefacts (no simulation sweep to shard).
_SINGLES = ("fig1", "fig11", "table3")

ARTIFACTS = tuple(_SINGLES) + tuple(_SWEEPS)


def _names(suite_attr: str) -> List[str]:
    from repro.workloads import suite
    return list(getattr(suite, suite_attr))


def _pairs() -> List[List[str]]:
    from repro.workloads.suite import MULTIKERNEL_SET
    return [[a, b] for i, a in enumerate(MULTIKERNEL_SET)
            for b in MULTIKERNEL_SET[i + 1:]]


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


def default_record_config() -> dict:
    """The environment knobs that shaped a bench run."""
    return {
        "scale": float(os.environ.get("REPRO_SCALE", 1.0)),
        "subset": (int(os.environ["REPRO_SUBSET"])
                   if os.environ.get("REPRO_SUBSET") else None),
        "cpu_count": os.cpu_count(),
    }


# ---------------------------------------------------------------------------
# Worker-side execution (kind "bench.artifact")
# ---------------------------------------------------------------------------


def _run_single(name: str) -> dict:
    """Fully compute a single-job artefact: text, data, and metrics."""
    if name == "fig1":
        result = figures.figure1()
        summary = result["summary"]
        return {
            "text": figures.render_figure1(result),
            "data": {"summary": summary,
                     "rows": [{"suite": r.suite, "total": r.total,
                               **r.buckets} for r in result["rows"]]},
            "metrics": {"benchmarks": summary["benchmarks"],
                        "avg_buffers": summary["average"]},
        }
    if name == "fig11":
        data = figures.figure11()
        return {
            "text": figures.render_figure11(data),
            "data": data,
            "metrics": {"avg_pages_per_buffer":
                        sum(data.values()) / len(data)},
        }
    if name == "table3":
        rows = figures.table3()
        total = rows[-1]
        return {
            "text": figures.render_table3(rows),
            "data": [r.__dict__ for r in rows],
            "metrics": {"sram_bytes": total.sram_bytes,
                        "area_mm2": total.area_mm2,
                        "leakage_uw": total.leakage_uw,
                        "dynamic_mw": total.dynamic_mw},
        }
    raise ValueError(f"unknown single artefact {name!r}")


def _run_fragment(name: str, items: Sequence, seed: int) -> dict:
    """Compute one shard of a sweep artefact (JSON-serializable)."""
    if name == "fig14":
        result = figures.figure14(list(items), seed=seed)
        return {"per_benchmark": result.per_benchmark,
                "cycles": sum(r.cycles for r in result.records)}
    if name == "fig15":
        return {"data": figures.figure15(list(items), seed=seed)}
    if name == "fig16":
        return {"data": figures.figure16(list(items), seed=seed)}
    if name == "fig17":
        result = figures.figure17(list(items), seed=seed)
        return {"normalized": result.normalized,
                "reduction": result.reduction}
    if name == "fig18":
        pairs = [tuple(p) for p in items]
        return {"data": figures.figure18(pairs, seed=seed)}
    if name == "fig19":
        return {"data": figures.figure19(list(items), seed=seed)}
    raise ValueError(f"unknown sweep artefact {name!r}")


def run_artifact_job(payload: dict, ctx) -> dict:
    """Runner entrypoint (kind ``bench.artifact``)."""
    name = payload["artifact"]
    counters = ctx.stats.counters("bench")
    counters["fragments"] = 1
    counters["items"] = len(payload.get("items") or [])
    if name in _SINGLES:
        return {"artifact": name, "final": _run_single(name)}
    return {"artifact": name,
            "fragment": _run_fragment(name, payload["items"],
                                      int(payload["seed"]))}


# ---------------------------------------------------------------------------
# Parent-side merge: shard fragments -> the serial structures
# ---------------------------------------------------------------------------


def _int_keys(data: Dict[str, Dict[str, float]]) -> Dict[str, Dict[int, float]]:
    """Undo JSON's stringification of the entries-sweep keys."""
    return {name: {int(k): v for k, v in vals.items()}
            for name, vals in data.items()}


def _merge_union(fragments: List[dict], key: str = "data") -> dict:
    merged: dict = {}
    for frag in fragments:
        merged.update(frag[key])
    return merged


def _finalize(name: str, payloads: List[dict]) -> dict:
    """Merge ordered job payloads into {text, data, metrics}."""
    if name in _SINGLES:
        return payloads[0]["final"]
    fragments = [p["fragment"] for p in payloads]

    if name == "fig14":
        from repro.workloads.suite import get_benchmark
        per_bench = _merge_union(fragments, "per_benchmark")
        cycles = sum(frag["cycles"] for frag in fragments)
        per_cat: Dict[str, Dict[str, float]] = {}
        for cat in figures.CATEGORY_ORDER:
            members = [n for n in per_bench
                       if get_benchmark(n).category == cat]
            if members:
                per_cat[cat] = {
                    label: geomean([per_bench[n][label] for n in members])
                    for label in next(iter(per_bench.values()))}
        result = figures.OverheadResult(per_benchmark=per_bench,
                                        per_category=per_cat)
        overall = geomean([v["L1:1,L2:3"] for v in per_bench.values()])
        return {"text": figures.render_figure14(result),
                "data": {"per_benchmark": per_bench,
                         "per_category": per_cat},
                "metrics": {"cycles": cycles,
                            "overhead_percent": (overall - 1.0) * 100.0}}
    if name in ("fig15", "fig16"):
        data = _int_keys(_merge_union(fragments))
        title = "Figure 15 (Nvidia)" if name == "fig15" else \
            "Figure 16 (Intel)"
        return {"text": figures.render_rcache_sensitivity(data, title),
                "data": {k: {str(s): v for s, v in vals.items()}
                         for k, vals in data.items()},
                "metrics": {"hit_rate_4entry":
                            geomean([vals[4] for vals in data.values()])}}
    if name == "fig17":
        normalized = _merge_union(fragments, "normalized")
        reduction = _merge_union(fragments, "reduction")
        result = figures.StaticResult(normalized=normalized,
                                      reduction=reduction)
        with_static = geomean([v["L1:1,L2:5+static"]
                               for v in normalized.values()])
        return {"text": figures.render_figure17(result),
                "data": {"normalized": normalized, "reduction": reduction},
                "metrics": {
                    "overhead_percent_static": (with_static - 1.0) * 100.0,
                    "mean_reduction_percent":
                        sum(reduction.values()) / max(len(reduction), 1)}}
    if name == "fig18":
        data = _merge_union(fragments)
        return {"text": figures.render_figure18(data),
                "data": data,
                "metrics": {
                    "overhead_percent_inter": (geomean(
                        [v["inter_core"] for v in data.values()]) - 1)
                    * 100.0,
                    "overhead_percent_intra": (geomean(
                        [v["intra_core"] for v in data.values()]) - 1)
                    * 100.0}}
    if name == "fig19":
        data = _merge_union(fragments)
        return {"text": figures.render_figure19(data),
                "data": data,
                "metrics": {
                    "slowdown_memcheck": geomean(
                        [v["cuda-memcheck"] for v in data.values()]),
                    "slowdown_clarmor": geomean(
                        [v["clarmor"] for v in data.values()]),
                    "slowdown_gmod": geomean(
                        [v["gmod"] for v in data.values()]),
                    "gpushield_overhead_percent": (geomean(
                        [v["gpushield"] for v in data.values()]) - 1)
                    * 100.0}}
    raise ValueError(f"unknown artefact {name!r}")


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


def plan_bench_jobs(artifacts: Sequence[str], *, jobs: int,
                    subset: Optional[int] = None, seed: int = 11,
                    timeout: float = 1800.0):
    """One-or-more JobSpecs per artefact; sweeps shard when jobs > 1."""
    from repro.runner import JobSpec, default_shard_count, shard_items

    plan = []
    for name in artifacts:
        if name not in ARTIFACTS:
            raise ValueError(f"unknown artefact {name!r} "
                             f"(have {list(ARTIFACTS)})")
        if name in _SINGLES:
            plan.append(JobSpec(
                job_id=f"bench-{name}", kind="bench.artifact", seed=seed,
                timeout=timeout, max_retries=1, retry_backoff=0.5,
                payload={"artifact": name, "items": None, "seed": seed}))
            continue
        items = _SWEEPS[name]()
        if subset:
            items = items[:subset]
        shards = (default_shard_count(len(items), jobs, per_worker=2)
                  if jobs > 1 else 1)
        for i, chunk in enumerate(shard_items(items, shards)):
            plan.append(JobSpec(
                job_id=f"bench-{name}-{i:03d}", kind="bench.artifact",
                seed=seed, timeout=timeout, max_retries=1,
                retry_backoff=0.5,
                payload={"artifact": name, "items": list(chunk),
                         "seed": seed}))
    return plan


def run_bench_suite(artifacts: Optional[Sequence[str]] = None, *,
                    jobs: int = 0, subset: Optional[int] = None,
                    seed: int = 11,
                    results_dir: str = "benchmarks/results",
                    out_dir: Optional[str] = None,
                    journal_path: Optional[str] = None,
                    resume: bool = False, reporter=None,
                    write_records: bool = True,
                    capture_finals: Optional[Dict[str, dict]] = None) -> dict:
    """Run the artefact sweeps on the runner; returns a run summary."""
    from repro.runner import HeartbeatReporter, run_jobs

    artifacts = list(artifacts or ARTIFACTS)
    plan = plan_bench_jobs(artifacts, jobs=jobs, subset=subset, seed=seed)
    if reporter is None:
        reporter = HeartbeatReporter(len(plan), label="bench")
    report = run_jobs(plan, jobs=jobs, run_name="bench-suite",
                      journal_path=journal_path, resume=resume,
                      out_dir=out_dir, reporter=reporter,
                      meta={"artifacts": artifacts, "subset": subset,
                            "seed": seed})
    if report.failures:
        detail = "; ".join(f"{r.job_id}: {r.status} ({r.error})"
                           for r in report.failures)
        raise RuntimeError(f"{len(report.failures)} bench job(s) failed: "
                           f"{detail}")

    summary: Dict[str, dict] = {}
    config = default_record_config()
    config.update({"subset": subset, "seed": seed, "jobs": jobs})
    for name in artifacts:
        ordered = [report.results[s.job_id] for s in plan
                   if s.payload["artifact"] == name]
        final = _finalize(name, [r.payload for r in ordered])
        if capture_finals is not None:
            capture_finals[name] = final
        wall = sum(r.wall_seconds for r in ordered)
        if write_records:
            record_name = {"fig1": "figure01", "fig11": "figure11",
                           "table3": "table03"}.get(
                               name, name.replace("fig", "figure"))
            write_result_record(results_dir, record_name, final["text"],
                                data=final["data"], config=config,
                                metrics=final["metrics"])
        summary[name] = {"metrics": final["metrics"],
                         "jobs": len(ordered),
                         "wall_seconds": round(wall, 3)}
    return {
        "artifacts": summary,
        "wall_seconds": round(report.wall_seconds, 3),
        "jobs": jobs,
        "stats": report.stats.as_dict(),
        "manifest_path": report.manifest_path,
    }


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
    records the digest table in ``BENCH_hotpath.json``.  Host time is
    ``bench/``'s to measure, not this check's.
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
            finals: Dict[str, dict] = {}
            # Only the fast leg (the process default) leaves records in
            # results_dir; the slow leg only contributes digests.
            run_bench_suite(artifacts, jobs=jobs, subset=subset,
                            seed=seed, results_dir=results_dir,
                            write_records=(leg == "fast"),
                            capture_finals=finals)
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
    config = default_record_config()
    config.update({"subset": subset, "seed": seed, "jobs": jobs,
                   "fuzz_cases": len(specs), "fuzz_seed": fuzz_seed})
    write_result_record(
        results_dir, "BENCH_hotpath", text,
        data={"artifacts": artifacts, "legs": legs,
              "mismatches": mismatches},
        config=config,
        metrics={"digests_identical": identical})
    return result


# ---------------------------------------------------------------------------
# Serving differential: the multi-tenant layer's determinism + isolation
# ---------------------------------------------------------------------------


def compare_service(*, tenants: int = 3, attackers: int = 1,
                    requests: int = 6, seed: int = 5, jobs: int = 2,
                    results_dir: str = "benchmarks/results") -> dict:
    """Prove the serving layer's two contracts and record BENCH_service.

    **Determinism**: one fixed trace (co-residency on, one attacker
    tenant) is served four ways — serial and ``--jobs N`` under each
    engine — and every leg must produce the same audit digest and the
    same per-tenant latency histograms.  **Isolation**: the cross-tenant
    attack matrix must show 100% detection, clean attribution, zero
    false positives and zero victim-digest drift.
    """
    from repro.engine import ENGINES, engine
    from repro.service.attacks import run_attack_matrix
    from repro.service.simulator import (default_service_config,
                                         run_service)

    cfg = default_service_config(tenants, attackers=attackers,
                                 requests_per_tenant=requests, seed=seed)
    legs: Dict[str, dict] = {}
    for eng in ENGINES:
        for label, leg_jobs in (("serial", 0), (f"jobs{jobs}", jobs)):
            started = time.monotonic()
            with engine(eng):
                report = run_service(cfg, jobs=leg_jobs)
            legs[f"{eng}/{label}"] = {
                "audit_digest": report.digest,
                "latency_digest": _digest_payload(report.latencies),
                "tenant_digest": _digest_payload(report.tenants),
                "served": report.counts()["ok"],
                "violations": report.violations,
                "wall_seconds": round(time.monotonic() - started, 3),
            }

    names = sorted(legs)
    reference = legs[names[0]]
    mismatches = sorted(
        name for name in names
        if any(legs[name][key] != reference[key]
               for key in ("audit_digest", "latency_digest",
                           "tenant_digest")))
    identical = not mismatches

    matrix = run_attack_matrix(seed=seed + 2)

    lines = [f"Serving differential: {tenants} tenant(s) "
             f"({attackers} attacker), {requests} requests/tenant, "
             f"seed {seed}, serial vs --jobs {jobs} x slow vs fast", ""]
    lines.append(f"{'leg':<14} {'audit digest':<18} {'latency':<18} "
                 f"{'viol':>4} match")
    for name in names:
        leg = legs[name]
        ok = (leg["audit_digest"] == reference["audit_digest"]
              and leg["latency_digest"] == reference["latency_digest"])
        lines.append(f"{name:<14} {leg['audit_digest'][:16]:<18} "
                     f"{leg['latency_digest']:<18} "
                     f"{leg['violations']:>4} {'yes' if ok else 'NO'}")
    lines.append("")
    lines.append(f"attack matrix: detection "
                 f"{100 * matrix['detection_rate']:.0f}%, false positives "
                 f"{matrix['false_positives']}, all pass: "
                 f"{matrix['all_pass']}")
    lines.append(f"legs identical: {identical}")
    text = "\n".join(lines)

    result = {
        "identical": identical,
        "mismatches": mismatches,
        "legs": legs,
        "matrix": matrix,
        "text": text,
    }
    config = default_record_config()
    config.update({"tenants": tenants, "attackers": attackers,
                   "requests_per_tenant": requests, "seed": seed,
                   "jobs": jobs})
    write_result_record(
        results_dir, "BENCH_service", text,
        data={"legs": legs, "mismatches": mismatches,
              "attack_matrix": matrix},
        config=config,
        metrics={"digests_identical": identical,
                 "detection_rate": matrix["detection_rate"],
                 "false_positives": matrix["false_positives"],
                 "attack_matrix_pass": matrix["all_pass"],
                 "serial_wall_seconds":
                     legs["fast/serial"]["wall_seconds"],
                 "parallel_wall_seconds":
                     legs[f"fast/jobs{jobs}"]["wall_seconds"]})
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
    parser.add_argument("--service", action="store_true",
                        help="run the multi-tenant serving differential "
                             "(serial vs --jobs N under both engines, "
                             "plus the cross-tenant attack matrix), fail "
                             "on any digest mismatch or isolation gap, "
                             "and record BENCH_service.json")
    parser.add_argument("--service-tenants", type=int, default=3)
    parser.add_argument("--service-attackers", type=int, default=1)
    parser.add_argument("--service-requests", type=int, default=6,
                        help="requests per tenant for --service "
                             "(default 6)")
    parser.add_argument("--fuzz-cases", type=int, default=200,
                        help="fuzz cases in the --compare-engines "
                             "campaign (0 = artefacts only)")
    parser.add_argument("--fuzz-seed", type=int, default=1)
    return parser.parse_args(argv)


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
        if not result["identical"]:
            print("[bench] ERROR: fast engine diverged from slow "
                  f"(artifacts: {result['mismatches'] or 'none'}, "
                  f"fuzz identical: {result['fuzz_identical']})",
                  file=sys.stderr)
            return 1
        return 0

    if args.service:
        result = compare_service(
            tenants=args.service_tenants,
            attackers=args.service_attackers,
            requests=args.service_requests, seed=args.seed,
            jobs=max(args.jobs, 2), results_dir=args.results_dir)
        print(result["text"])
        if not result["identical"] or not result["matrix"]["all_pass"]:
            print("[bench] ERROR: serving layer failed its contract "
                  f"(legs identical: {result['identical']}, attack "
                  f"matrix pass: {result['matrix']['all_pass']})",
                  file=sys.stderr)
            return 1
        return 0

    summary = run_bench_suite(
        artifacts, jobs=args.jobs, subset=args.subset, seed=args.seed,
        results_dir=args.results_dir, out_dir=args.manifest_dir,
        resume=args.resume)
    for name, info in summary["artifacts"].items():
        print(f"[bench] {name}: {info['jobs']} job(s), "
              f"{info['wall_seconds']:.1f}s, "
              f"metrics={json.dumps(info['metrics'], sort_keys=True)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
