"""Ablation (paper §6.2): partitioned RCaches for intra-core sharing.

When two kernels share every core, their bounds metadata competes for
the 4-entry L1 RCache.  The paper proposes doubling and partitioning the
RCaches (per-kernel banks) to recover the lost hit rate.  This bench
runs buffer-heavy kernel pairs intra-core with and without partitioning.
"""

from repro import BCUConfig, ShieldConfig, intel_config
from repro.analysis.harness import WorkloadRunner, _init_buffer
from repro.analysis.results import geomean
from repro.workloads.suite import get_benchmark

PAIRS = [("nn", "streamcluster"), ("nn", "kmeans"), ("cfd", "nn")]


def run_pair_hit_rate(a: str, b: str, partitioned: bool) -> float:
    config = intel_config()
    shield = ShieldConfig(
        enabled=True,
        bcu=BCUConfig(type3_enabled=False, partition_rcache=partitioned))
    wl_a = get_benchmark(a, opencl=True).build()
    wl_b = get_benchmark(b, opencl=True).build()
    runner = WorkloadRunner(wl_a, config, shield, seed=17)
    session = runner.session
    buffers_b = {}
    for i, spec in enumerate(wl_b.buffers):
        buf = session.driver.malloc(spec.nbytes, name=f"b:{spec.name}")
        _init_buffer(session, buf, spec, seed=601 + i)
        buffers_b[spec.name] = buf
    run_a, run_b = wl_a.runs[0], wl_b.runs[0]
    args_a = {p: (runner.buffers[v] if k == "buf" else v)
              for p, (k, v) in run_a.args.items()}
    args_b = {p: (buffers_b[v] if k == "buf" else v)
              for p, (k, v) in run_b.args.items()}
    la = session.driver.launch(run_a.kernel, args_a, run_a.workgroups,
                               run_a.wg_size)
    lb = session.driver.launch(run_b.kernel, args_b, run_b.workgroups,
                               run_b.wg_size)
    result = session.gpu.run([la, lb], mode="intra_core")
    session.driver.finish(la)
    session.driver.finish(lb)
    return result.l1_rcache_hit_rate


def test_partitioned_rcache(publish):
    def run_all():
        out = {}
        for a, b in PAIRS:
            out[f"{a}_{b}"] = {
                "shared": run_pair_hit_rate(a, b, partitioned=False),
                "partitioned": run_pair_hit_rate(a, b, partitioned=True),
            }
        return out

    data = run_all()
    lines = ["Ablation: intra-core L1 RCache sharing vs partitioning "
             "(hit rate %)"]
    for pair, v in data.items():
        lines.append(f"  {pair:22s} shared={100 * v['shared']:5.1f}  "
                     f"partitioned={100 * v['partitioned']:5.1f}")
    publish("ablation_partition", "\n".join(lines), data=data,
            metrics={"mean_shared_hit_rate":
                     sum(v["shared"] for v in data.values()) / len(data),
                     "mean_partitioned_hit_rate":
                     sum(v["partitioned"] for v in data.values())
                     / len(data)})

    shared = geomean([v["shared"] for v in data.values()])
    part = geomean([v["partitioned"] for v in data.values()])
    # Partitioning never loses hits and recovers any sharing-induced loss.
    assert part >= shared - 1e-9
