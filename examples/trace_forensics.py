"""Post-incident forensics with the memory tracer.

A tenant notices their dispatch table was corrupted on a GPU without
GPUShield.  Re-running the workload with a :class:`MemoryTracer`
attached answers "who wrote over my buffer?" — and flipping GPUShield on
shows the same query returning only *blocked* attempts.

Run:  python examples/trace_forensics.py
"""

from repro import GpuSession, KernelBuilder, ShieldConfig, nvidia_config
from repro.analysis.trace import MemoryTracer, render_summary


def victim_kernel():
    b = KernelBuilder("victim")
    table = b.arg_ptr("table")
    n = b.arg_scalar("n")
    i = b.gtid()
    p = b.setp("lt", i, n)
    with b.if_(p):
        v = b.ld_idx(table, i, dtype="i32")
        b.st_idx(table, i, b.add(v, 0), dtype="i32")   # benign refresh
    return b.build()


def attacker_kernel():
    b = KernelBuilder("attacker")
    scratch = b.arg_ptr("scratch")
    reach = b.arg_scalar("reach")
    p = b.setp("eq", b.gtid(), 0)
    with b.if_(p):
        j = b.ld_idx(scratch, 0, dtype="i32")
        b.st_idx(scratch, b.add(reach, b.mul(j, 0)), 0x66600000,
                 dtype="i32")
    return b.build()


def run(shield: bool):
    session = GpuSession(
        nvidia_config(num_cores=2),
        shield=ShieldConfig(enabled=True) if shield else None)
    tracer = MemoryTracer()
    session.gpu.observe(tracer)

    table = session.driver.malloc(64 * 4, name="dispatch_table")
    scratch = session.driver.malloc(64, name="scratch")
    reach = (table.va - scratch.va) // 4

    victim_launch = session.driver.launch(victim_kernel(),
                                          {"table": table, "n": 64}, 1, 64)
    attacker_launch = session.driver.launch(attacker_kernel(),
                                            {"scratch": scratch,
                                             "reach": reach}, 1, 32)
    session.gpu.run([victim_launch, attacker_launch], mode="intra_core")
    session.driver.finish(victim_launch)
    session.driver.finish(attacker_launch)

    print(f"\n=== {'GPUShield on' if shield else 'native GPU'} ===")
    print(render_summary(tracer.summarize()))
    print(f"table[0] = {session.driver.read_i32(table, 0):#x}")
    print("stores overlapping the dispatch table:")
    for ev in tracer.stores_to(table.va, table.va + 64 * 4 - 1):
        who = ("victim" if ev.kernel_id == victim_launch.kernel_id
               else "ATTACKER")
        status = "landed" if ev.allowed else "BLOCKED by the BCU"
        print(f"  kernel {ev.kernel_id} ({who}) warp {ev.warp_id} "
              f"wrote [{ev.lo:#x}, {ev.hi:#x}] -> {status}")
    return tracer, victim_launch, attacker_launch


def main():
    tracer, _v, atk = run(shield=False)
    hostile = [ev for ev in tracer.events
               if ev.kernel_id == atk.kernel_id and ev.is_store]
    assert hostile and hostile[0].allowed, "attack should land natively"

    tracer, _v, atk = run(shield=True)
    hostile = [ev for ev in tracer.events
               if ev.kernel_id == atk.kernel_id and ev.is_store]
    assert hostile and not hostile[0].allowed, "BCU must block it"


if __name__ == "__main__":
    main()
