"""Figure 17: the effect of compile-time bounds-check filtering.

Runs the 17 RCache-sensitive benchmarks under four GPUShield
configurations with longer RCache latencies (L1:1/L1:2, L2:5), with and
without static analysis.  Expected shape (paper): +static reduces
overhead; graph benchmarks (bc, bfs-dtc, gc-dtc, sssp-dwc, nw) keep low
reduction rates because of indirect accesses, lud reaches 100%.
"""

from repro.analysis.results import geomean


def test_figure17(regenerate):
    final = regenerate("fig17")
    normalized = final["data"]["normalized"]
    reduction = final["data"]["reduction"]

    with_static = geomean([v["L1:1,L2:5+static"]
                           for v in normalized.values()])
    without = geomean([v["L1:1,L2:5"] for v in normalized.values()])
    assert with_static <= without + 0.001

    if "lud-64" in reduction:
        assert reduction["lud-64"] == 100.0
    graphish = [n for n in ("bc", "bfs-dtc", "gc-dtc", "sssp-dwc", "nw")
                if n in reduction]
    for name in graphish:
        assert reduction[name] < 70.0, (
            f"{name} is indirect-heavy; static filtering must stay partial")
    if "streamcluster" in reduction:
        assert 30.0 < reduction["streamcluster"] < 70.0
