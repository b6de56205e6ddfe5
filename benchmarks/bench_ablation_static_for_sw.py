"""Ablation (paper §8.5, last paragraph): GPUShield's static analysis
applied to *software* bounds-checking schemes.

The paper expects bfs / lud / streamcluster to improve significantly
under software checking once statically-proven accesses are left
unguarded (their check-reduction rates: 53.3% / 100% / 49.4%), while
indirect-heavy graph kernels keep most of their cost — and hardware
checking beats both.
"""

from repro import ShieldConfig, nvidia_config
from repro.analysis.harness import run_workload
from repro.compiler.swinsert import transform_workload
from repro.workloads.suite import get_benchmark

BENCHES = ["bfs", "lud", "streamcluster", "kmeans"]


def test_static_analysis_helps_software_schemes(publish):
    config = nvidia_config()

    def run_all():
        out = {}
        for name in BENCHES:
            bench = get_benchmark(name)
            base = run_workload(bench.build(), config, None, "base")
            naive = run_workload(transform_workload(bench.build(),
                                                    use_bat=False),
                                 config, None, "sw-naive")
            filtered = run_workload(transform_workload(bench.build(),
                                                       use_bat=True),
                                    config, None, "sw+static")
            hw = run_workload(bench.build(), config,
                              ShieldConfig(enabled=True), "gpushield")
            out[name] = {
                "sw_naive": naive.cycles / base.cycles,
                "sw_static": filtered.cycles / base.cycles,
                "gpushield": hw.cycles / base.cycles,
                "sw_naive_instr": naive.instructions / base.instructions,
                "sw_static_instr": (filtered.instructions
                                    / base.instructions),
            }
        return out

    data = run_all()
    lines = ["Ablation: static filtering applied to software checks "
             "(paper §8.5)"]
    for name, v in data.items():
        lines.append(
            f"  {name:14s} sw-naive={v['sw_naive']:.3f} "
            f"({v['sw_naive_instr']:.2f}x instr)  "
            f"sw+static={v['sw_static']:.3f} "
            f"({v['sw_static_instr']:.2f}x instr)  "
            f"gpushield={v['gpushield']:.3f}")
    publish("ablation_static_for_sw", "\n".join(lines), data=data,
            metrics={"mean_sw_naive":
                     sum(v["sw_naive"] for v in data.values()) / len(data),
                     "mean_sw_static":
                     sum(v["sw_static"] for v in data.values())
                     / len(data)})

    for name, v in data.items():
        # Static filtering never makes software checking worse...
        assert v["sw_static_instr"] <= v["sw_naive_instr"] + 1e-9, name
        # ...and hardware checking beats software checking.
        assert v["gpushield"] <= v["sw_naive"] + 0.02, name
    # Fully-affine lud loses *all* its guards (100% reduction).
    assert data["lud"]["sw_static_instr"] == 1.0
    # Graph kernels keep part of theirs.
    assert data["bfs"]["sw_static_instr"] > 1.0
