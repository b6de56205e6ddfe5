"""Ablation (paper §5's first key technique): warp-level vs per-thread
bounds checking.

GPUShield checks the (min, max) of the coalesced warp access once; a
naive design comparing every lane against the bounds serialises
comparator work.  This bench quantifies what workgroup/warp-level
checking buys.
"""

from repro import BCUConfig, ShieldConfig, nvidia_config
from repro.analysis.harness import run_workload
from repro.analysis.results import geomean
from repro.workloads.suite import get_benchmark

BENCHES = ["streamcluster", "bfs-dtc", "ScalarProd", "Histogram"]


def test_warp_vs_lane_checking(publish):
    config = nvidia_config()

    def run_all():
        out = {}
        for name in BENCHES:
            bench = get_benchmark(name)
            base = run_workload(bench.build(), config, None, "base")
            warp = run_workload(
                bench.build(), config,
                ShieldConfig(enabled=True,
                             bcu=BCUConfig(check_per_lane=False)), "warp")
            lane = run_workload(
                bench.build(), config,
                ShieldConfig(enabled=True,
                             bcu=BCUConfig(check_per_lane=True)), "lane")
            out[name] = {"warp": warp.cycles / base.cycles,
                         "lane": lane.cycles / base.cycles}
        return out

    data = run_all()
    lines = ["Ablation: warp-level vs per-lane bounds checking"]
    for name, v in data.items():
        lines.append(f"  {name:14s} warp={v['warp']:.3f}  "
                     f"lane={v['lane']:.3f}")
    publish("ablation_warpcheck", "\n".join(lines), data=data,
            metrics={"mean_warp_norm":
                     sum(v["warp"] for v in data.values()) / len(data),
                     "mean_lane_norm":
                     sum(v["lane"] for v in data.values()) / len(data)})

    warp_gm = geomean([v["warp"] for v in data.values()])
    lane_gm = geomean([v["lane"] for v in data.values()])
    assert lane_gm > warp_gm, "per-lane checking must cost more"
    assert warp_gm < 1.05
