"""Ablation (paper §5.2.1 footnote 2): device-side malloc slowdown.

The paper measures CUDA's built-in ``malloc()`` at 4.9-63.7x slower than
preallocated buffers as the grid grows (RTX2080, 1K-16K blocks).  We run
the same experiment shape: every thread allocates a 16-byte buffer and
writes through it, vs. writing to a preallocated slot, sweeping the
number of workgroups.
"""


from repro import GpuSession, KernelBuilder, nvidia_config


def malloc_kernel():
    b = KernelBuilder("heap_storm")
    out = b.arg_ptr("out")
    p = b.malloc(16)
    b.st(p, 0, b.gtid(), dtype="i32")
    b.st_idx(out, b.gtid(), b.ld(p, 0, dtype="i32"), dtype="i32")
    return b.build()


def prealloc_kernel():
    b = KernelBuilder("prealloc")
    out = b.arg_ptr("out")
    pool = b.arg_ptr("pool")
    b.st_idx(pool, b.gtid(), b.gtid(), dtype="i32")
    b.st_idx(out, b.gtid(), b.ld_idx(pool, b.gtid(), dtype="i32"),
             dtype="i32")
    return b.build()


def run_pair(workgroups: int, wg_size: int = 64):
    config = nvidia_config()
    n = workgroups * wg_size

    session = GpuSession(config)
    session.driver.heap.set_limit(max(n * 32, 1 << 20))
    out = session.driver.malloc(n * 4)
    dynamic, _ = session.run(malloc_kernel(), {"out": out},
                             workgroups, wg_size)

    session2 = GpuSession(config)
    out2 = session2.driver.malloc(n * 4)
    pool = session2.driver.malloc(n * 4)
    static, _ = session2.run(prealloc_kernel(), {"out": out2, "pool": pool},
                             workgroups, wg_size)
    return dynamic.cycles / static.cycles


def test_heap_malloc_slowdown(publish):
    def sweep():
        return {wgs: run_pair(wgs) for wgs in (8, 32, 128, 512)}

    ratios = sweep()
    lines = ["Ablation: device malloc vs preallocation "
             "(paper: 4.9-63.7x slowdown)"]
    for wgs, ratio in ratios.items():
        lines.append(f"  {wgs:4d} workgroups: {ratio:6.1f}x")
    values = list(ratios.values())
    publish("ablation_heap", "\n".join(lines),
            data={str(k): v for k, v in ratios.items()},
            metrics={"min_slowdown": min(values),
                     "max_slowdown": max(values)})

    assert min(values) > 2.0
    assert max(values) > 10.0
    # Slowdown grows with allocation parallelism.
    assert values[-1] > values[0]
