"""Regeneration of every table and figure in the paper's evaluation.

Each ``figure*``/``table*`` function runs the required simulations and
returns structured results; ``render_*`` helpers turn them into the same
rows/series the paper plots.  :data:`ARTIFACTS`, at the end, is the one
table of the nine artefacts: ``python -m repro <artefact>``, ``python -m
repro bench`` and the ``benchmarks/`` regenerators all loop over it.
Tests call the figure functions on reduced inputs.

Paper-vs-measured numbers are recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.harness import WorkloadRunner, _init_buffer, run_workload
from repro.analysis.results import RunRecord, geomean
from repro.analysis import report
from repro.core.bcu import BCUConfig
from repro.core.hwcost import HardwareCostModel, table3
from repro.core.shield import ShieldConfig
from repro.gpu.config import GPUConfig, intel_config, nvidia_config
from repro.workloads import characterization
from repro.workloads.suite import (
    CUDA_BENCHMARKS,
    MULTIKERNEL_SET,
    OPENCL_BENCHMARKS,
    RCACHE_SENSITIVE,
    RODINIA_FIG19,
    get_benchmark,
)

# Table 6 category order used throughout the paper's figures.
CATEGORY_ORDER = ["ML", "LA", "GT", "GI", "PS", "IM", "DM"]


def _column_geomean(rows: Dict[str, dict], key) -> float:
    """Geomean of column ``key`` over every row of a figure's data."""
    return geomean([vals[key] for vals in rows.values()])


def _overhead_percent(rows: Dict[str, dict], key) -> float:
    return (_column_geomean(rows, key) - 1.0) * 100.0


def _shield(l1_latency=1, l2_latency=3, l1_entries=4, static=True,
            **kw) -> ShieldConfig:
    return ShieldConfig(
        enabled=True, static_analysis=static,
        bcu=BCUConfig(l1_latency=l1_latency, l2_latency=l2_latency,
                      l1_entries=l1_entries, **kw))


# ---------------------------------------------------------------------------
# Figure 1 — buffer-count distribution
# ---------------------------------------------------------------------------


def figure1() -> Dict[str, object]:
    rows = characterization.figure1_rows()
    return {"rows": rows, "summary": characterization.summary()}


def render_figure1(data) -> str:
    headers = ["suite", "<5", "<10", "<20", ">=20", "total"]
    body = [[r.suite, r.buckets["<5"], r.buckets["<10"], r.buckets["<20"],
             r.buckets[">=20"], r.total] for r in data["rows"]]
    s = data["summary"]
    caption = (f"145 benchmarks, avg {s['average']:.1f} buffers, "
               f"max {s['maximum']}, {s['under5_percent']:.1f}% under 5, "
               f"{s['over20']} with >=20  (paper: avg 6.5, max 34)")
    return report.table("Figure 1: buffers per benchmark", headers, body) \
        + "\n" + caption


# ---------------------------------------------------------------------------
# Figure 11 — 4KB pages per buffer (Rodinia)
# ---------------------------------------------------------------------------

RODINIA_FIG11 = [
    "b+tree", "backprop", "bfs", "cfd", "dwt2d", "gaussian", "heartwall",
    "hotspot", "hotspot3D", "hybridsort", "kmeans", "lavaMD", "lud",
    "myocyte", "nn", "nw", "particlefilter", "pathfinder", "srad",
    "streamcluster",
]


def figure11() -> Dict[str, float]:
    """Average 4KB pages per buffer for each Rodinia benchmark."""
    out: Dict[str, float] = {}
    for name in RODINIA_FIG11:
        workload = get_benchmark(name).build()
        pages = [-(-spec.nbytes // 4096) for spec in workload.buffers]
        out[name] = sum(pages) / len(pages)
    return out


def render_figure11(data: Dict[str, float]) -> str:
    avg = sum(data.values()) / len(data)
    body = report.series("Figure 11: 4KB pages per buffer (Rodinia)",
                         data, floatfmt=".0f")
    return body + f"\n  average: {avg:.0f} pages (paper: 1425)"


# ---------------------------------------------------------------------------
# Table 3 — hardware overhead
# ---------------------------------------------------------------------------


def render_table3(rows) -> str:
    headers = ["structure", "entries", "SRAM (B)", "area (mm2)",
               "leakage (uW)", "dynamic (mW)"]
    body = [[r.name, r.entries if r.entries else "-",
             round(r.sram_bytes, 1), round(r.area_mm2, 4),
             round(r.leakage_uw, 2), round(r.dynamic_mw, 2)] for r in rows]
    model = HardwareCostModel()
    footer = (f"per-GPU SRAM: {model.per_gpu_sram_kb(16):.1f}KB (Nvidia, "
              f"paper 14.2KB) / {model.per_gpu_sram_kb(24):.1f}KB (Intel, "
              f"paper 21.3KB)")
    return report.table("Table 3: GPUShield area & power", headers,
                        body) + "\n" + footer


# ---------------------------------------------------------------------------
# Figure 14 — normalized execution time per category
# ---------------------------------------------------------------------------


@dataclass
class OverheadResult:
    per_benchmark: Dict[str, Dict[str, float]]   # bench -> cfg -> norm
    per_category: Dict[str, Dict[str, float]]    # cat -> cfg -> geomean
    records: List[RunRecord] = field(default_factory=list)


def figure14(benchmarks: Optional[Sequence[str]] = None,
             config: Optional[GPUConfig] = None,
             seed: int = 11) -> OverheadResult:
    """Per-category GPUShield overhead at the two RCache latency points."""
    config = config or nvidia_config()
    names = list(benchmarks or CUDA_BENCHMARKS)
    configs = {
        "L1:1,L2:3": _shield(1, 3),
        "L1:2,L2:5": _shield(2, 5),
    }
    per_bench: Dict[str, Dict[str, float]] = {}
    records: List[RunRecord] = []
    for name in names:
        bench = get_benchmark(name)
        base = run_workload(bench.build(), config, None, "base", seed=seed)
        records.append(base)
        per_bench[name] = {}
        for label, shield in configs.items():
            rec = run_workload(bench.build(), config, shield, label,
                               seed=seed)
            records.append(rec)
            per_bench[name][label] = rec.normalized_to(base)

    return OverheadResult(per_benchmark=per_bench,
                          per_category=_per_category(per_bench),
                          records=records)


def _per_category(per_bench: Dict[str, Dict[str, float]]
                  ) -> Dict[str, Dict[str, float]]:
    """Geomean of each config's normalized time over each category."""
    labels = list(next(iter(per_bench.values()), {}))
    per_cat: Dict[str, Dict[str, float]] = {}
    for cat in CATEGORY_ORDER:
        members = [n for n in per_bench if get_benchmark(n).category == cat]
        if members:
            per_cat[cat] = {
                label: geomean([per_bench[n][label] for n in members])
                for label in labels}
    return per_cat


def render_figure14(result: OverheadResult) -> str:
    headers = ["category", "L1:1,L2:3 (default)", "L1:2,L2:5"]
    labels = ("L1:1,L2:3", "L1:2,L2:5")
    body = [[cat] + [vals[label] for label in labels]
            for cat, vals in result.per_category.items()]
    body.append(["GEOMEAN"] + [_column_geomean(result.per_benchmark, label)
                               for label in labels])
    return report.table(
        "Figure 14: normalized exec time per category "
        "(paper: ~1.00 everywhere, DM worst)", headers, body, ".4f")


# ---------------------------------------------------------------------------
# Figures 15 & 16 — L1 RCache size sensitivity
# ---------------------------------------------------------------------------


def rcache_sensitivity(benchmarks: Sequence[str], *, opencl: bool = False,
                       entries_sweep: Sequence[int] = (1, 2, 4, 8, 16),
                       config: Optional[GPUConfig] = None,
                       seed: int = 11,
                       scale: float = 4.0) -> Dict[str, Dict[int, float]]:
    """L1 RCache hit rate per benchmark per L1 size.

    Static filtering (Type 1) and Type-3 offset pointers both bypass the
    RCaches and would make the sweep vacuous for provably-safe kernels,
    so the sweep measures the full RBT-indexed access stream (both
    optimisations disabled here; each has its own bench: Figure 17 and
    the Type-3 ablation).

    Instances run at ``scale`` times the default size so compulsory
    (cold) RCache misses amortise as they do in the paper's long-running
    kernels.
    """
    config = config or (intel_config() if opencl else nvidia_config())
    out: Dict[str, Dict[int, float]] = {}
    for name in benchmarks:
        bench = get_benchmark(name, opencl=opencl)
        out[name] = {}
        for entries in entries_sweep:
            shield = _shield(l1_entries=entries, static=False,
                             type3_enabled=False)
            rec = run_workload(bench.build(scale=scale), config, shield,
                               f"l1x{entries}", seed=seed)
            out[name][entries] = rec.l1_rcache_hit_rate
    return out


def figure15(benchmarks: Optional[Sequence[str]] = None,
             **kw) -> Dict[str, Dict[int, float]]:
    return rcache_sensitivity(list(benchmarks or RCACHE_SENSITIVE), **kw)


def figure16(benchmarks: Optional[Sequence[str]] = None,
             **kw) -> Dict[str, Dict[int, float]]:
    return rcache_sensitivity(list(benchmarks or OPENCL_BENCHMARKS),
                              opencl=True, **kw)


def render_rcache_sensitivity(data: Dict[str, Dict[int, float]],
                              title: str) -> str:
    # Sizes sort numerically whether keyed by int or (from JSON) by str.
    sizes = sorted(next(iter(data.values())), key=int)
    headers = ["benchmark"] + [f"{s}-entry" for s in sizes]
    body = [[name] + [100.0 * vals[s] for s in sizes]
            for name, vals in data.items()]
    body.append(["GEOMEAN"] + [100.0 * _column_geomean(data, s)
                               for s in sizes])
    return report.table(title + " — L1 RCache hit rate (%)", headers,
                        body, ".1f")


# ---------------------------------------------------------------------------
# Figure 17 — static-analysis filtering
# ---------------------------------------------------------------------------


@dataclass
class StaticResult:
    normalized: Dict[str, Dict[str, float]]      # bench -> cfg -> norm
    reduction: Dict[str, float]                  # bench -> %


def figure17(benchmarks: Optional[Sequence[str]] = None,
             config: Optional[GPUConfig] = None,
             seed: int = 11) -> StaticResult:
    config = config or nvidia_config()
    names = list(benchmarks or RCACHE_SENSITIVE)
    configs = {
        "L1:1,L2:5": _shield(1, 5, static=False),
        "L1:1,L2:5+static": _shield(1, 5, static=True),
        "L1:2,L2:5": _shield(2, 5, static=False),
        "L1:2,L2:5+static": _shield(2, 5, static=True),
    }
    normalized: Dict[str, Dict[str, float]] = {}
    reduction: Dict[str, float] = {}
    for name in names:
        bench = get_benchmark(name)
        base = run_workload(bench.build(), config, None, "base", seed=seed)
        normalized[name] = {}
        for label, shield in configs.items():
            rec = run_workload(bench.build(), config, shield, label,
                               seed=seed)
            normalized[name][label] = rec.normalized_to(base)
            if label.endswith("+static") and label.startswith("L1:1"):
                reduction[name] = rec.check_reduction_percent
    return StaticResult(normalized=normalized, reduction=reduction)


def render_figure17(result: StaticResult) -> str:
    labels = ["L1:1,L2:5", "L1:1,L2:5+static", "L1:2,L2:5",
              "L1:2,L2:5+static"]
    headers = ["benchmark"] + labels + ["check reduction %"]
    body = []
    for name, vals in result.normalized.items():
        body.append([name] + [vals[l] for l in labels]
                    + [result.reduction.get(name, 0.0)])
    body.append(["GEOMEAN"]
                + [_column_geomean(result.normalized, l) for l in labels]
                + [sum(result.reduction.values())
                   / max(len(result.reduction), 1)])
    return report.table("Figure 17: static bounds-check filtering",
                        headers, body, ".3f")


# ---------------------------------------------------------------------------
# Figure 18 — multi-kernel execution
# ---------------------------------------------------------------------------


#: The 21 pairs of the multi-kernel set, as JSON-safe name lists.
MULTIKERNEL_PAIRS = [[a, b] for i, a in enumerate(MULTIKERNEL_SET)
                     for b in MULTIKERNEL_SET[i + 1:]]


def figure18(pair_names: Optional[Sequence[Tuple[str, str]]] = None,
             config: Optional[GPUConfig] = None,
             seed: int = 11) -> Dict[str, Dict[str, float]]:
    """21 OpenCL pairs, inter-core vs intra-core, normalized to the same
    pair running without bounds checking."""
    config = config or intel_config()
    if pair_names is None:
        pair_names = MULTIKERNEL_PAIRS
    out: Dict[str, Dict[str, float]] = {}
    for a, b in pair_names:
        label = f"{a}_{b}"
        out[label] = {}
        for mode in ("inter_core", "intra_core"):
            # Normalise against the same scheduling mode without bounds
            # checking, so only GPUShield's cost is measured.
            baseline = _run_pair(a, b, config, shield=None, mode=mode,
                                 seed=seed)
            # Type 3 would bypass the RCaches whose sharing this figure
            # studies (as in Figures 15/16): measure the RBT path.
            cycles = _run_pair(a, b, config,
                               shield=_shield(type3_enabled=False),
                               mode=mode, seed=seed)
            out[label][mode] = cycles / baseline
    return out


def _run_pair(a: str, b: str, config: GPUConfig,
              shield: Optional[ShieldConfig], mode: str, seed: int) -> int:
    wl_a = get_benchmark(a, opencl=True).build()
    wl_b = get_benchmark(b, opencl=True).build()
    # Multi-kernel runs use each workload's first kernel launch, repeated
    # workloads are truncated to keep pair runs comparable.
    runner_a = WorkloadRunner(wl_a, config, shield, seed=seed)
    try:
        session = runner_a.session
        # Run B's buffers in A's session so both kernels share the GPU.
        buffers_b = {}
        for i, spec in enumerate(wl_b.buffers):
            buf = session.driver.malloc(spec.nbytes, name=f"b:{spec.name}")
            _init_buffer(session, buf, spec, seed=seed * 31 + i)
            buffers_b[spec.name] = buf

        run_a = wl_a.runs[0]
        run_b = wl_b.runs[0]
        args_a = {p: (runner_a.buffers[v] if k == "buf" else v)
                  for p, (k, v) in run_a.args.items()}
        args_b = {p: (buffers_b[v] if k == "buf" else v)
                  for p, (k, v) in run_b.args.items()}
        la = session.driver.launch(run_a.kernel, args_a, run_a.workgroups,
                                   run_a.wg_size)
        lb = session.driver.launch(run_b.kernel, args_b, run_b.workgroups,
                                   run_b.wg_size)
        # The §6.2 co-resident pair runs through the device: both
        # kernels are admitted together and torn down per kernel through
        # the scoped (partitioned) RCache flush.
        result, _violations = runner_a.device.run_pair([la, lb], mode=mode)
        return result.cycles
    finally:
        runner_a.close()


def render_figure18(data: Dict[str, Dict[str, float]]) -> str:
    headers = ["pair", "inter-core", "intra-core"]
    body = [[pair, vals["inter_core"], vals["intra_core"]]
            for pair, vals in data.items()]
    body.append(["GEOMEAN", _column_geomean(data, "inter_core"),
                 _column_geomean(data, "intra_core")])
    return report.table(
        "Figure 18: multi-kernel normalized exec time "
        "(paper: <0.3% average overhead)", headers, body, ".4f")


# ---------------------------------------------------------------------------
# Figure 19 — software-tool overheads
# ---------------------------------------------------------------------------


def figure19(benchmarks: Optional[Sequence[str]] = None,
             config: Optional[GPUConfig] = None,
             seed: int = 11) -> Dict[str, Dict[str, float]]:
    """Tool slowdowns over the protection-config matrix.

    The per-(benchmark, tool) cells come from
    :func:`repro.analysis.harness.run_protection_matrix`.
    """
    from repro.analysis.harness import run_protection_matrix

    names = list(benchmarks or RODINIA_FIG19)
    matrix = run_protection_matrix(names, config=config, seed=seed)
    out: Dict[str, Dict[str, float]] = {}
    for name in names:
        cells = matrix[name]
        base = cells["base"]
        out[name] = {
            "cuda-memcheck": cells["cuda-memcheck"].normalized_to(base),
            "clarmor": cells["clarmor"].normalized_to(base),
            "gmod": cells["gmod"].normalized_to(base),
            "gpushield": cells["gpushield"].normalized_to(base),
            "reduction": cells["gpushield"].check_reduction_percent,
        }
    return out


def render_figure19(data: Dict[str, Dict[str, float]]) -> str:
    headers = ["benchmark", "CUDA-MEMCHECK", "clArmor", "GMOD",
               "GPUShield", "check reduction %"]
    body = [[name, v["cuda-memcheck"], v["clarmor"], v["gmod"],
             v["gpushield"], v["reduction"]] for name, v in data.items()]
    means = {label: _column_geomean(data, key) for label, key in (
        ("CUDA-MEMCHECK", "cuda-memcheck"), ("clArmor", "clarmor"),
        ("GMOD", "gmod"), ("GPUShield", "gpushield"))}
    body.append(["GEOMEAN", *means.values(),
                 sum(v["reduction"] for v in data.values()) / len(data)])
    text = report.table(
        "Figure 19: tool slowdowns over no checking "
        "(paper geomeans: 72.3x / 3.1x / 1.5x / 1.008x)",
        headers, body, ".2f")
    chart = report.bars("geomean slowdown (log scale)", means,
                        log_scale=True)
    return text + "\n\n" + chart


# ---------------------------------------------------------------------------
# The artefact table: every front-end loops over it
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Artifact:
    """One paper artefact, as ``python -m repro``, ``bench`` and
    ``benchmarks/`` regenerate it.

    ``suite`` holds the shard items (benchmark names, or Figure 18 name
    pairs); without one the artefact is a single ``[None]`` slice.
    ``compute(items, seed)`` runs one slice and returns JSON-safe data;
    ``merge`` folds the slices, in item order, into ``{text, data,
    metrics}``: the rendered artefact plus what its result record
    ``record`` publishes.
    """

    name: str
    record: str
    compute: Callable[[list, int], dict]
    merge: Callable[[List[dict]], dict]
    suite: Optional[Iterable] = None

    def items(self, subset: Optional[int] = None) -> list:
        """The shard items, restricted to the first ``subset``."""
        if self.suite is None:
            return [None]
        return list(self.suite)[:subset or None]

    def run(self, subset: Optional[int] = None, seed: int = 11) -> dict:
        """Regenerate serially: one slice over every item."""
        return self.merge([self.compute(self.items(subset), seed)])


def _union(slices: List[dict], key: Optional[str] = None) -> dict:
    merged: dict = {}
    for piece in slices:
        merged.update(piece[key] if key else piece)
    return merged


def _only(slices: List[dict]) -> dict:
    (final,) = slices
    return final


def _union_merge(render, metrics):
    """A merge whose slices are disjoint parts of one ``data`` dict."""

    def merge(slices: List[dict]) -> dict:
        data = _union(slices)
        return {"text": render(data), "data": data, "metrics": metrics(data)}

    return merge


def _figure1_final(_items, _seed) -> dict:
    result = figure1()
    summary = result["summary"]
    return {"text": render_figure1(result),
            "data": {"summary": summary,
                     "rows": [{"suite": r.suite, "total": r.total,
                               **r.buckets} for r in result["rows"]]},
            "metrics": {"benchmarks": summary["benchmarks"],
                        "avg_buffers": summary["average"]}}


def _table3_final(_items, _seed) -> dict:
    rows = table3()
    total = rows[-1]
    return {"text": render_table3(rows),
            "data": [r.__dict__ for r in rows],
            "metrics": {"sram_bytes": total.sram_bytes,
                        "area_mm2": total.area_mm2,
                        "leakage_uw": total.leakage_uw,
                        "dynamic_mw": total.dynamic_mw}}


def _figure14_slice(items, seed) -> dict:
    result = figure14(items, seed=seed)
    return {"per_benchmark": result.per_benchmark,
            "cycles": sum(r.cycles for r in result.records)}


def _figure14_merge(slices) -> dict:
    per_bench = _union(slices, "per_benchmark")
    per_cat = _per_category(per_bench)
    result = OverheadResult(per_benchmark=per_bench, per_category=per_cat)
    return {"text": render_figure14(result),
            "data": {"per_benchmark": per_bench, "per_category": per_cat},
            "metrics": {"cycles": sum(s["cycles"] for s in slices),
                        "overhead_percent":
                            _overhead_percent(per_bench, "L1:1,L2:3")}}


def _sensitivity_slice(figure):
    """Figure 15 or 16 over one slice, its sizes keyed as JSON keys them."""
    return lambda items, seed: {
        name: {str(size): rate for size, rate in vals.items()}
        for name, vals in figure(items, seed=seed).items()}


def _sensitivity_merge(title: str):
    return _union_merge(
        lambda data: render_rcache_sensitivity(data, title),
        lambda data: {"hit_rate_4entry": _column_geomean(data, "4")})


def _figure17_slice(items, seed) -> dict:
    result = figure17(items, seed=seed)
    return {"normalized": result.normalized, "reduction": result.reduction}


def _figure17_merge(slices) -> dict:
    normalized = _union(slices, "normalized")
    reduction = _union(slices, "reduction")
    return {"text": render_figure17(StaticResult(normalized, reduction)),
            "data": {"normalized": normalized, "reduction": reduction},
            "metrics": {
                "overhead_percent_static": _overhead_percent(
                    normalized, "L1:1,L2:5+static"),
                "mean_reduction_percent":
                    sum(reduction.values()) / max(len(reduction), 1)}}


#: The paper's evaluation, in ``python -m repro list`` order.
ARTIFACTS: Dict[str, Artifact] = {art.name: art for art in (
    Artifact("fig1", "figure01", _figure1_final, _only),
    Artifact("fig11", "figure11", lambda _items, _seed: figure11(),
             _union_merge(render_figure11, lambda data: {
                 "avg_pages_per_buffer": sum(data.values()) / len(data)})),
    Artifact("table3", "table03", _table3_final, _only),
    Artifact("fig14", "figure14", _figure14_slice, _figure14_merge,
             CUDA_BENCHMARKS),
    Artifact("fig15", "figure15", _sensitivity_slice(figure15),
             _sensitivity_merge("Figure 15 (Nvidia)"),
             RCACHE_SENSITIVE),
    Artifact("fig16", "figure16", _sensitivity_slice(figure16),
             _sensitivity_merge("Figure 16 (Intel)"),
             OPENCL_BENCHMARKS),
    Artifact("fig17", "figure17", _figure17_slice, _figure17_merge,
             RCACHE_SENSITIVE),
    Artifact("fig18", "figure18",
             lambda items, seed: figure18([tuple(p) for p in items],
                                          seed=seed),
             _union_merge(render_figure18, lambda data: {
                 "overhead_percent_inter":
                     _overhead_percent(data, "inter_core"),
                 "overhead_percent_intra":
                     _overhead_percent(data, "intra_core")}),
             MULTIKERNEL_PAIRS),
    Artifact("fig19", "figure19",
             lambda items, seed: figure19(items, seed=seed),
             _union_merge(render_figure19, lambda data: {
                 "slowdown_memcheck": _column_geomean(data, "cuda-memcheck"),
                 "slowdown_clarmor": _column_geomean(data, "clarmor"),
                 "slowdown_gmod": _column_geomean(data, "gmod"),
                 "gpushield_overhead_percent":
                     _overhead_percent(data, "gpushield")}),
             RODINIA_FIG19),
)}
