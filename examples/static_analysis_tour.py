"""A tour of the compiler pipeline: IR, operand trees, the BAT, pointers.

Walks through §5.3 on three kernels of increasing difficulty:

* an affine streaming kernel — everything proven safe (Type 1);
* a stencil with clamped neighbours — min/max keep it provable;
* a gather kernel — indirect indices defeat the analysis (Type 2).

Shows the lowered IR (the Figure 8a shape), the per-access verdicts of
the Bounds-Analysis Table (Figure 5), the serialised BAT blob that would
be attached to the binary, and the pointer types the driver would embed.

Run:  python examples/static_analysis_tour.py
"""

from repro import GpuSession, KernelBuilder, ShieldConfig, nvidia_config
from repro.compiler.dataflow import LaunchBounds
from repro.compiler.lowering import lower_kernel
from repro.compiler.static_bounds import StaticBoundsChecker


def affine_kernel():
    b = KernelBuilder("affine")
    src = b.arg_ptr("src", read_only=True)
    dst = b.arg_ptr("dst")
    n = b.arg_scalar("n")
    gtid = b.gtid()
    p = b.setp("lt", gtid, n)
    with b.if_(p):
        b.st_idx(dst, gtid, b.ld_idx(src, gtid, dtype="f32"), dtype="f32")
    return b.build()


def stencil_kernel():
    b = KernelBuilder("stencil")
    src = b.arg_ptr("src", read_only=True)
    dst = b.arg_ptr("dst")
    n = b.arg_scalar("n")
    gtid = b.gtid()
    p = b.setp("lt", gtid, n)
    last = b.sub(n, 1)
    with b.if_(p):
        left = b.max_(b.sub(gtid, 1), 0)
        right = b.min_(b.add(gtid, 1), last)
        acc = b.fadd(b.ld_idx(src, left, dtype="f32"),
                     b.ld_idx(src, right, dtype="f32"))
        b.st_idx(dst, gtid, acc, dtype="f32")
    return b.build()


def gather_kernel():
    b = KernelBuilder("gather")
    idx = b.arg_ptr("idx", read_only=True)
    data = b.arg_ptr("data", read_only=True)
    out = b.arg_ptr("out")
    n = b.arg_scalar("n")
    gtid = b.gtid()
    p = b.setp("lt", gtid, n)
    with b.if_(p):
        j = b.ld_idx(idx, gtid, dtype="i32")
        b.st_idx(out, gtid, b.ld_idx(data, j, dtype="f32"), dtype="f32")
    return b.build()


def analyze(kernel, buffer_sizes, n=256):
    checker = StaticBoundsChecker()
    bounds = LaunchBounds(workgroups=4, workgroup_size=64,
                          scalar_args={"n": n})
    return checker.analyze(kernel, bounds, buffer_sizes)


def show(kernel, buffer_sizes):
    print(f"\n################ {kernel.name} ################")
    fn = lower_kernel(kernel)
    print("-- lowered IR (Figure 8a shape) --")
    print(fn.dump())

    bat = analyze(kernel, buffer_sizes)
    print("\n-- bounds-analysis table (Figure 5) --")
    for row in bat.rows:
        kind = "ST" if row.is_store else "LD"
        interval = (f"[{row.interval[0]}, {row.interval[1]}]"
                    if row.interval else "unknown")
        print(f"  {kind} via {row.param:5s} offset {interval:>16s} "
              f"-> {row.verdict.name}")
    print("-- pointer classification --")
    for name, safe in bat.pointer_safe.items():
        print(f"  {name:5s}: {'Type 1 (no runtime checks)' if safe else 'Type 2 (RBT-checked at runtime)'}")
    blob = bat.to_bytes()
    print(f"-- BAT blob attached to the binary: {len(blob)} bytes, "
          f"magic {blob[:8]!r}")


def live_demo():
    """What the driver actually embeds at launch time."""
    from repro.core.pointer import decode
    print("\n################ driver view ################")
    session = GpuSession(nvidia_config(num_cores=1),
                         shield=ShieldConfig(enabled=True))
    n = 256
    bufs = {name: session.driver.malloc(n * 4, name=name)
            for name in ("idx", "data", "out")}
    launch = session.driver.launch(gather_kernel(), {**bufs, "n": n},
                                   4, 64)
    for name in ("idx", "data", "out"):
        tp = decode(launch.arg_values[name])
        print(f"  {name:5s}: C={tp.ptype.value} payload={tp.payload:#06x} "
              f"va={tp.va:#x}  ({launch.pointer_types[name].name})")
    session.gpu.run(launch)
    session.driver.finish(launch)


def main():
    size = {"src": 1024, "dst": 1024}
    show(affine_kernel(), size)
    show(stencil_kernel(), size)
    show(gather_kernel(), {"idx": 1024, "data": 1024, "out": 1024})
    live_demo()


if __name__ == "__main__":
    main()
