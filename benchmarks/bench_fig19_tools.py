"""Figure 19: software buffer-overflow tools vs GPUShield (Rodinia).

Expected shape (paper): CUDA-MEMCHECK ~72x geomean (224x streamcluster),
clArmor ~3.1x, GMOD ~1.5x average but exploding on streamcluster's 1000
launches, GPUShield ~0.8% — orderings and extremes, not exact factors.
"""

from repro.analysis.results import geomean


def test_figure19(regenerate):
    data = regenerate("fig19")["data"]
    mc = geomean([v["cuda-memcheck"] for v in data.values()])
    ca = geomean([v["clarmor"] for v in data.values()])
    gm = geomean([v["gmod"] for v in data.values()])
    shield = geomean([v["gpushield"] for v in data.values()])

    assert shield < 1.05, "GPUShield must be near-free"
    assert mc > 10, "instrumentation must be an order of magnitude worse"
    assert mc > ca and mc > gm
    assert ca > shield and gm > shield

    if "streamcluster" in data:
        sc = data["streamcluster"]
        others_gm = [v["gmod"] for k, v in data.items()
                     if k != "streamcluster"]
        assert sc["gmod"] > 2 * max(others_gm), (
            "per-launch ctor/dtor must blow up on streamcluster")
        # The paper's absolute MEMCHECK worst case is streamcluster
        # (224x); in our scaled model the densest-access kernels trade
        # places, but it must remain an order-of-magnitude victim.
        assert sc["cuda-memcheck"] > 10
