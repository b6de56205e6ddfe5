"""Figure 14: GPUShield runtime overhead per benchmark category.

Runs all 88 CUDA benchmarks at the default (L1:1,L2:3) and slow
(L1:2,L2:5) RCache latency points, normalized to no bounds checking.
Expected shape (paper): every category ~1.00; DM (streamcluster) worst;
geomean overhead well under 1%.
"""

from repro.analysis.results import geomean


def test_figure14(regenerate):
    final = regenerate("fig14")
    per_benchmark = final["data"]["per_benchmark"]
    per_category = final["data"]["per_category"]
    overall = geomean([v["L1:1,L2:3"] for v in per_benchmark.values()])

    # Paper: 0.8% average slowdown at the default configuration.
    assert overall < 1.05
    # The slower RCache never beats the faster one systematically.
    slow = geomean([v["L1:2,L2:5"] for v in per_benchmark.values()])
    assert slow >= overall - 0.01
    if "streamcluster" in per_benchmark and len(per_benchmark) > 40:
        worst_cat = max(per_category,
                        key=lambda c: per_category[c]["L1:1,L2:3"])
        assert worst_cat == "DM", (
            "streamcluster's DM category should dominate the overhead")
