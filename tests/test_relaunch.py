"""Steady-state relaunch fast-forward (``repro.gpu.relaunch``).

A fast-engine ``GPU.run`` that relaunches a verified fixed point
replays the recorded outcome instead of simulating.  Every test here
runs one launch series on a reference (slow) and a fast device in
lockstep and compares, after every launch, the ``LaunchResult``, the
violation report, the full stats snapshot, the memory image, the
memory byte counters and the line order of every cache, TLB set and
RCache bank.  A spy counts fast-forwards: each series must reach at
least one, and each disqualifier must force a real run.
"""

import random
import struct
from types import SimpleNamespace

import pytest

from repro.analysis.trace import MemoryTracer
from repro.baselines.memcheck import MemcheckChecker
from repro.core.bcu import BCUConfig
from repro.core.shield import ShieldConfig
from repro.device import GpuDevice
from repro.engine import engine
from repro.fuzz.generator import ShieldMutator
from repro.gpu.config import intel_config, nvidia_config
from repro.gpu.fastpath import FastCache
from repro.gpu.relaunch import Relaunch, scalar_names
from repro.isa.builder import KernelBuilder
from repro.workloads import templates

N = 256
WG = 64
SHIELD = ShieldConfig(enabled=True)


@pytest.fixture
def spy(monkeypatch):
    """Counts fast-forwards."""
    counts = SimpleNamespace(replays=0)
    apply = Relaunch._apply

    def counted_apply(self, record):
        counts.replays += 1
        return apply(self, record)

    monkeypatch.setattr(Relaunch, "_apply", counted_apply)
    return counts


def _sets(cache):
    """Every set's lines in LRU order, on either engine's cache class."""
    if isinstance(cache, FastCache):
        return [list(s) for s in cache._lines]
    return [list(cache._sets.get(i, ())) for i in range(cache.num_sets)]


def _banks(rcache):
    return [(kernel_id, list(bank.items()))
            for kernel_id, bank in rcache._banks.items()]


def _observe(device, result, violations):
    gpu = device.gpu
    memory = device.driver.memory
    lru = []
    for core in gpu.cores:
        pipeline = core.pipeline
        lru += [_sets(pipeline.l1d), _sets(pipeline.const_cache),
                _sets(pipeline.tex_cache), _sets(pipeline.l1tlb)]
        if core.bcu is not None:
            lru += [_banks(core.bcu.l1), _banks(core.bcu.l2)]
    lru += [_sets(gpu.l2cache), _sets(gpu.l2tlb),
            dict(gpu.dram._open_row), list(gpu.dram._free_at)]
    return {"result": result, "violations": violations,
            "stats": gpu.stats.snapshot().as_dict(),
            "memory": memory.snapshot_chunks(),
            "bytes": (memory.bytes_read, memory.bytes_written),
            "lru": lru}


class Lockstep:
    """One launch series on a slow and a fast device, compared after
    every launch."""

    def __init__(self, spy, config=None, shield=SHIELD, seed=7):
        self.spy = spy
        self.sides = {}
        for eng in ("slow", "fast"):
            with engine(eng):
                self.sides[eng] = GpuDevice(
                    config or nvidia_config(num_cores=2), shield=shield,
                    seed=seed)

    def each(self, action):
        """``action(device)`` on both sides."""
        for device in self.sides.values():
            action(device)

    def launch(self, kernel, args, workgroups=N // WG, wg_size=WG,
               mutate=None):
        """One launch on both sides (``args(device)`` builds the
        arguments, ``mutate(device, launch)`` may edit the prepared
        launch); returns whether the fast side fast-forwarded."""
        observed = {}
        replays = None
        for eng, device in self.sides.items():
            driver = device.driver
            launch = driver.launch(kernel, args(device), workgroups, wg_size)
            if mutate is not None:
                mutate(device, launch)
            before = self.spy.replays
            result = device.gpu.run(launch)
            observed[eng] = _observe(device, result, driver.finish(launch))
            if eng == "slow":
                assert self.spy.replays == before
            else:
                replays = self.spy.replays - before
        slow, fast = observed["slow"], observed["fast"]
        for part in slow:
            assert slow[part] == fast[part], part
        self.last = fast
        return bool(replays)

    def series(self, kernel, args, launches, **kw):
        """``launches`` launches; the list of fast-forward flags."""
        return [self.launch(kernel, args, **kw) for _ in range(launches)]

    def settle(self, kernel, args, **kw):
        """Launch until the fast side fast-forwards (at most 8)."""
        flags = self.series(kernel, args, 8, **kw)
        assert any(flags), "the series never reached a fixed point"
        return flags.index(True)


# -- kernels and buffers ------------------------------------------------------


def _gather():
    """The streamcluster shape: a two-level gather over three extras."""
    workload = templates.gather("sc", n=N, wg_size=WG, data_len=N, levels=2,
                                extra_buffers=3)
    return workload.runs[0].kernel


def _gather_buffers(device, seed=3):
    """``idx``/``data``/``out`` and ``aux0..2``, filled from ``seed``."""
    rng = random.Random(seed)
    driver = device.driver
    bufs = {}
    for name in ("idx", "data", "out", "aux0", "aux1", "aux2"):
        # Page-level read-only would also cover ``out`` (pages are
        # shared); the RBT flags come from the kernel's parameters.
        bufs[name] = driver.malloc(4 * N, name=name)
    driver.write(bufs["idx"],
                 struct.pack(f"<{N}i", *(rng.randrange(N) for _ in range(N))))
    for name in ("data", "aux0", "aux1", "aux2"):
        driver.write(bufs[name],
                     struct.pack(f"<{N}f", *(rng.random() for _ in range(N))))
    return bufs


class Gather:
    """A gather series: buffers allocated once per device."""

    def __init__(self, lock):
        self.kernel = _gather()
        self.bufs = {}
        lock.each(lambda d: self.bufs.setdefault(id(d), _gather_buffers(d)))

    def args(self, device):
        return {**self.bufs[id(device)], "n": N}


@pytest.mark.parametrize("config, shield", [
    (nvidia_config(num_cores=2), None),
    (nvidia_config(num_cores=2), SHIELD),
    (nvidia_config(num_cores=4),
     ShieldConfig(enabled=True, bcu=BCUConfig(partition_rcache=True))),
    (intel_config(num_cores=3), SHIELD),
], ids=["plain", "shield", "partitioned", "intel-type3"])
def test_gather_series_fast_forwards_exactly(spy, config, shield):
    lock = Lockstep(spy, config, shield)
    gather = Gather(lock)
    type3 = []
    flags = lock.series(gather.kernel, gather.args, 8,
                        mutate=lambda _device, launch: type3.append(
                            bool(launch.type3_buffers)))
    # The first three launches simulate (signature, key, probe).
    assert flags[:3] == [False] * 3
    assert any(flags)
    # On Intel addressing the driver rewrites Type-3 canaries every launch.
    assert all(type3) == (config.addressing == "method_c"
                          and shield is not None)


def test_slow_engine_never_fast_forwards():
    with engine("slow"):
        device = GpuDevice(nvidia_config(num_cores=2), shield=SHIELD)
    assert device.gpu.relaunch is None


# -- disqualifiers: each forces a real run ----------------------------------------


@pytest.fixture
def settled(spy):
    """A shielded gather series that has just fast-forwarded."""
    lock = Lockstep(spy)
    gather = Gather(lock)
    lock.settle(gather.kernel, gather.args)
    return lock, gather


def test_host_write_forces_a_real_run(settled):
    lock, gather = settled
    rng = random.Random(99)
    blob = struct.pack(f"<{N}f", *(rng.random() for _ in range(N)))
    lock.each(lambda d: d.driver.write(gather.bufs[id(d)]["data"], blob))
    assert not lock.launch(gather.kernel, gather.args)
    # The series settles again on the new data.
    lock.settle(gather.kernel, gather.args)


def test_checker_swap_forces_a_real_run(spy):
    lock = Lockstep(spy, shield=None)
    gather = Gather(lock)
    lock.settle(gather.kernel, gather.args)
    checkers = {}

    def swap(device):
        checker = checkers[id(device)] = MemcheckChecker({
            name: (buf.va, buf.size)
            for name, buf in gather.bufs[id(device)].items()})
        for core in device.gpu.cores:
            core.pipeline.checker = checker

    lock.each(swap)
    assert not any(lock.series(gather.kernel, gather.args, 4))
    slow, fast = (checkers[id(d)] for d in lock.sides.values())
    assert fast.checked == slow.checked > 0


def test_tracer_forces_a_real_run(settled):
    lock, gather = settled
    tracers = {}

    def attach(device):
        tracer = tracers[id(device)] = MemoryTracer()
        device.gpu.observe(tracer)

    lock.each(attach)
    assert not any(lock.series(gather.kernel, gather.args, 4))
    slow, fast = (tracers[id(d)].events for d in lock.sides.values())
    assert slow and [e.__dict__ for e in slow] == [e.__dict__ for e in fast]


@pytest.mark.parametrize("kind", ["forged_id", "stale_replay"])
def test_stale_or_forged_tag_forces_a_real_run(spy, kind):
    # The fuzz buffer names: b1 is gathered through, so its pointer
    # needs a runtime check (a BASE pointer) and is the victim.
    b = KernelBuilder("gather_b")
    b0 = b.arg_ptr("b0", read_only=True)
    b1 = b.arg_ptr("b1", read_only=True)
    b2 = b.arg_ptr("b2")
    gtid = b.gtid()
    b.st_idx(b2, gtid, b.ld_idx(b1, b.ld_idx(b0, gtid, dtype="i32")))
    kernel = b.build()
    lock = Lockstep(spy)
    bufs = {}

    def setup(device):
        gathered = _gather_buffers(device)
        bufs[id(device)] = {"b0": gathered["idx"], "b1": gathered["data"],
                            "b2": gathered["out"]}

    lock.each(setup)
    args = lambda d: bufs[id(d)]
    lock.settle(kernel, args)
    mutator = ShieldMutator(SimpleNamespace(kind=kind, victim=1))
    index = {}

    def attack(device, launch):
        mutator(SimpleNamespace(session=device), launch,
                index.setdefault(id(device), 0))
        index[id(device)] += 1

    # Stale replay records the pointer on the first mutated launch and
    # replays it on the later ones.
    for attacked in range(3):
        flag = lock.launch(kernel, args, mutate=attack)
        if kind == "forged_id" or attacked:
            assert not flag
            assert lock.last["violations"]


def test_scalar_type_is_part_of_the_key(spy):
    b = KernelBuilder("divide")
    data = b.arg_ptr("data", read_only=True)
    out = b.arg_ptr("out")
    s = b.arg_scalar("s")
    gtid = b.gtid()
    b.st_idx(out, gtid, b.div(b.ld_idx(data, gtid, dtype="i32"), s),
             dtype="f32")
    kernel = b.build()
    lock = Lockstep(spy)
    bufs = {}

    def setup(device):
        driver = device.driver
        bufs[id(device)] = (driver.malloc(4 * N), driver.malloc(4 * N))
        driver.write(bufs[id(device)][0], struct.pack(f"<{N}i", *range(N)))

    lock.each(setup)

    def args(value):
        return lambda d: {"data": bufs[id(d)][0], "out": bufs[id(d)][1],
                          "s": value}

    lock.settle(kernel, args(3))
    # 3 == 3.0 and they hash alike, but 3.0 divides as a float.
    assert not lock.launch(kernel, args(3.0))
    assert not lock.launch(kernel, args(3))


def _alu_pointer_kernel():
    """Compares the raw tagged pointer: its outcome follows the cipher."""
    b = KernelBuilder("alu_pointer")
    out = b.arg_ptr("out")
    threshold = b.arg_scalar("threshold")
    with b.if_(b.setp("lt", out, threshold)):
        b.st_idx(out, b.gtid(), 1, dtype="i32")
    return b.build()


def _stored_pointer_kernel():
    b = KernelBuilder("stored_pointer")
    out = b.arg_ptr("out")
    b.st_idx(out, b.gtid(), out, dtype="u64")
    return b.build()


def _malloc_kernel():
    b = KernelBuilder("malloc")
    out = b.arg_ptr("out")
    p = b.malloc(16)
    b.st(p, 0, 1, dtype="i32")
    b.st_idx(out, b.gtid(), 2, dtype="i32")
    return b.build()


@pytest.mark.parametrize("make", [_alu_pointer_kernel, _stored_pointer_kernel,
                                  _malloc_kernel],
                         ids=["alu", "stored", "malloc"])
def test_ineligible_kernel_never_fast_forwards(spy, make):
    kernel = make()
    assert scalar_names(kernel) is None
    lock = Lockstep(spy)
    outs = {}
    lock.each(lambda d: outs.setdefault(id(d), d.driver.malloc(8 * N)))
    # The alu kernel's branch follows the raw pointer, tag bits included.
    args = lambda d: {"out": outs[id(d)], "threshold": (1 << 62) | (1 << 61)}
    assert not any(lock.series(kernel, args, 8))


def test_violating_launch_is_never_recorded(spy):
    b = KernelBuilder("overflow")
    out = b.arg_ptr("out")
    b.st_idx(out, b.add(b.gtid(), N), 1, dtype="i32")   # past the end
    kernel = b.build()
    lock = Lockstep(spy)
    outs = {}
    lock.each(lambda d: outs.setdefault(id(d), d.driver.malloc(4 * N)))
    args = lambda d: {"out": outs[id(d)]}
    for _ in range(6):
        assert not lock.launch(kernel, args)
        assert lock.last["violations"]


def test_page_unmapped_under_the_kernel_forces_a_real_run(spy):
    """Without the shield, a read past ``data`` lands on the next page,
    mapped only while a neighbour lives; freeing it unmaps the page."""
    page = 4096
    b = KernelBuilder("overread")
    data = b.arg_ptr("data", read_only=True)
    out = b.arg_ptr("out")
    gtid = b.gtid()
    b.st_idx(out, gtid, b.ld_idx(data, b.add(gtid, page // 4), dtype="i32"),
             dtype="i32")
    kernel = b.build()
    lock = Lockstep(spy, nvidia_config(num_cores=2, page_size=page),
                    shield=None)
    bufs = {}

    def setup(device):
        driver = device.driver
        data = driver.malloc(page)
        neighbour = driver.malloc(2 * page)
        out = driver.malloc(4 * N)
        assert driver.space.is_mapped(data.va + page)
        bufs[id(device)] = (data, neighbour, out)

    lock.each(setup)
    args = lambda d: {"data": bufs[id(d)][0], "out": bufs[id(d)][2]}
    lock.settle(kernel, args)
    # A malloc maps a new page: the page table moved.
    lock.each(lambda d: d.driver.malloc(4 * page))
    assert not lock.launch(kernel, args)
    lock.settle(kernel, args)
    # Freeing the neighbour unmaps the page the kernel reads.
    lock.each(lambda d: d.driver.free(bufs[id(d)][1]))
    assert not lock.launch(kernel, args)
    assert lock.last["result"].aborted
    assert lock.sides["fast"].gpu.relaunch.record is None


def test_device_reset_drops_the_record(spy):
    lock = Lockstep(spy)
    gather = Gather(lock)
    first = lock.settle(gather.kernel, gather.args)
    lock.each(lambda d: d.reset())
    assert lock.sides["fast"].gpu.relaunch.record is None
    gather.bufs.clear()
    lock.each(lambda d: gather.bufs.setdefault(id(d), _gather_buffers(d)))
    # After the reset the series starts over exactly as on a new device.
    assert lock.settle(gather.kernel, gather.args) == first


def test_rbt_chunks_do_not_accumulate(spy):
    """Each finished launch drops its RBT's chunks, so a device's
    resident memory does not grow with shielded relaunches."""
    lock = Lockstep(spy)
    gather = Gather(lock)
    memory = lock.sides["fast"].driver.memory
    lock.series(gather.kernel, gather.args, 4)
    resident = memory.resident_bytes()
    lock.series(gather.kernel, gather.args, 4)
    assert memory.resident_bytes() == resident
    assert lock.sides["slow"].driver.memory.resident_bytes() == resident
