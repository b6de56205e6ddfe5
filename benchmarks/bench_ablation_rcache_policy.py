"""Ablation (paper §5.5): the L1 RCache is a FIFO queue.

The paper chose FIFO for the tiny L1 RCache (cheap, and lock-step warp
execution gives bounds metadata strong temporal locality anyway).  This
bench checks what an LRU L1 would have bought at the sensitive sizes —
the answer should be "very little at 4 entries", supporting the design.
"""

from repro import BCUConfig, ShieldConfig, nvidia_config
from repro.analysis.harness import run_workload
from repro.analysis.results import geomean
from repro.workloads.suite import RCACHE_SENSITIVE, get_benchmark

SIZES = (1, 2, 4)


def test_fifo_vs_lru(publish):
    config = nvidia_config()
    names = RCACHE_SENSITIVE[:8]

    def run_all():
        out = {}
        for name in names:
            bench = get_benchmark(name)
            out[name] = {}
            for policy in ("fifo", "lru"):
                for entries in SIZES:
                    rec = run_workload(
                        bench.build(), config,
                        ShieldConfig(enabled=True,
                                     bcu=BCUConfig(l1_entries=entries,
                                                   l1_policy=policy)),
                        f"{policy}{entries}")
                    out[name][f"{policy}-{entries}"] = \
                        rec.l1_rcache_hit_rate
        return out

    data = run_all()
    lines = ["Ablation: L1 RCache FIFO vs LRU hit rates (%)"]
    header = "  benchmark        " + "  ".join(
        f"{p}-{e}" for p in ("fifo", "lru") for e in SIZES)
    lines.append(header)
    for name, v in data.items():
        cells = "  ".join(f"{100 * v[f'{p}-{e}']:6.1f}"
                          for p in ("fifo", "lru") for e in SIZES)
        lines.append(f"  {name:16s} {cells}")
    publish("ablation_rcache_policy", "\n".join(lines), data=data,
            metrics={"mean_fifo_4entry":
                     sum(v["fifo-4"] for v in data.values()) / len(data),
                     "mean_lru_4entry":
                     sum(v["lru-4"] for v in data.values()) / len(data)})

    # At the design point (4 entries) the policies are within a point.
    fifo4 = geomean([v["fifo-4"] for v in data.values()])
    lru4 = geomean([v["lru-4"] for v in data.values()])
    assert abs(fifo4 - lru4) < 0.02
