"""Metric names and units, and the statistics ``run.py`` and
``compare.py`` share.

End-to-end metrics come from untraced passes only.  Per-layer metrics
come from the one traced pass of a run, except ``sim_kips`` and
``trace.overhead``, which divide by the untraced ``pass_s``, and
``pass.wall_s`` and ``host.slowdown``, which describe the untraced
passes.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence

from tracer import LAYER_NAMES

ROOT = Path(__file__).resolve().parent.parent

#: name -> unit.  ``fail_ratio`` is printed and compared but is not in
#: BENCHMARK.json, whose end-to-end metrics must never read 0; the
#: result line carries the same information as ``attempted``/``failed``.
END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB",
              "fail_ratio": "ratio"}
#: The end-to-end metrics judged by median against a bound: the
#: result line's metrics without ``--trace``.
BOUNDED = ("setup_s", "pass_s", "peak_rss_mb")

#: Layers every workload reaches.  Only these report ``<layer>.self_s``
#: in the result line: a layer a workload never calls would report a
#: constant 0 s.  Its self time is still in the trace file.
TIMED_LAYERS = ("harness.provision", "device.construct", "device.reset",
                "driver.launch", "driver.finish", "gpu.run", "core.schedule",
                "executor.step", "pipeline.access", "dram.access", "other")

#: Derived per-layer metrics: name -> (unit, better).
DERIVED = {
    "sim.instructions": ("count", "lower"),
    "sim.mem_instructions": ("count", "lower"),
    "sim.transactions": ("count", "lower"),
    "sim.tx_per_mem": ("ratio", "lower"),
    "sim_kips": ("kinst/s", "higher"),
    "pipeline.us_per_call": ("us", "lower"),
    "executor.ns_per_step": ("ns", "lower"),
    "warm.pool_hit_ratio": ("ratio", "higher"),
    "warm.cell_hit_ratio": ("ratio", "higher"),
    "warm.init_hit_ratio": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
    "trace.wall_s": ("s", "lower"),
    "pass.wall_s": ("s", "lower"),
    "host.slowdown": ("ratio", "lower"),
}


def per_layer_spec() -> List[dict]:
    """The ``per_layer`` list of BENCHMARK.json, in result-line order."""
    spec = []
    for layer in LAYER_NAMES:
        if layer != "other":
            spec.append({"name": f"{layer}.calls", "unit": "count",
                         "better": "lower"})
        if layer in TIMED_LAYERS:
            spec.append({"name": f"{layer}.self_s", "unit": "s",
                         "better": "lower"})
        spec.append({"name": f"{layer}.share", "unit": "%",
                     "better": "lower"})
    spec += [{"name": name, "unit": unit, "better": better}
             for name, (unit, better) in DERIVED.items()]
    return spec


def per_layer(traced: dict, passes: List[dict]) -> Dict[str, float]:
    """Per-layer values from one traced child result and the untraced
    child results of the same run.

    Layer seconds are raw host seconds of the traced pass; shares divide
    them by its wall time.  ``sim_kips`` and ``trace.overhead`` divide
    by the untraced median ``pass_s``, so they are corrected like it.
    """
    trace, wall = traced["trace"], traced["wall_s"]
    layers, sim = trace["layers"], trace["sim"]
    pass_s = statistics.median(p["pass_s"] for p in passes)
    out: Dict[str, float] = {}
    for layer in LAYER_NAMES:
        row = layers[layer]
        if layer != "other":
            out[f"{layer}.calls"] = row["calls"]
        if layer in TIMED_LAYERS:
            out[f"{layer}.self_s"] = row["self_s"]
        out[f"{layer}.share"] = 100.0 * row["self_s"] / wall
    out["sim.instructions"] = sim["instructions"]
    out["sim.mem_instructions"] = sim["mem_instructions"]
    out["sim.transactions"] = sim["transactions"]
    out["sim.tx_per_mem"] = (sim["transactions"] / sim["mem_instructions"]
                             if sim["mem_instructions"] else 0.0)
    out["sim_kips"] = sim["instructions"] / pass_s / 1000.0
    pipe, step = layers["pipeline.access"], layers["executor.step"]
    out["pipeline.us_per_call"] = 1e6 * pipe["self_s"] / max(pipe["calls"], 1)
    out["executor.ns_per_step"] = 1e9 * step["self_s"] / max(step["calls"], 1)
    for name, value in traced["warm"].items():
        out[f"warm.{name}"] = value
    out["trace.overhead"] = traced["pass_s"] / pass_s
    out["trace.wall_s"] = wall
    out["pass.wall_s"] = statistics.median(p["wall_s"] for p in passes)
    out["host.slowdown"] = statistics.median(p["wall_s"] / p["pass_s"]
                                             for p in passes)
    return out


def residual(traced: dict) -> float:
    """(traced wall - sum of self times incl. ``other``) / traced wall."""
    wall = traced["wall_s"]
    total = sum(row["self_s"] for row in traced["trace"]["layers"].values())
    return (wall - total) / wall


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile (``statistics.quantiles``) and n."""
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def load_bounds() -> Dict[str, float]:
    """End-to-end metric -> regression bound, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}
