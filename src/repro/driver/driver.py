"""Kernel setup by the GPU driver (paper §5.4, Figures 9 & 10).

On every launch the driver:

1. runs (or reuses) the compiler's static bounds analysis to obtain the
   BAT attached to the kernel binary;
2. lays out local-memory variables (interleaved per-thread words) and
   registers each as a protected region;
3. draws a fresh per-kernel secret key and assigns a *random but unique*
   14-bit ID to every region (buffers, local variables, the heap);
4. materialises the RBT image in driver-internal device pages that normal
   kernel accesses cannot touch;
5. tags every pointer argument: Type 1 when the BAT proved it safe,
   Type 3 on base+offset (Intel-style) addressing with power-of-two
   padding, Type 2 (encrypted ID) otherwise;
6. at kernel completion, drains the violation log and — for Type 3
   buffers — verifies the canary bytes written into the padding.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.compiler.bat import BoundsAnalysisTable
from repro.compiler.dataflow import LaunchBounds
from repro.compiler.static_bounds import StaticBoundsChecker
from repro.core.bcu import KernelSecurityContext
from repro.core.bounds import Bounds, RegionBoundsTable, RBT_ENTRIES
from repro.core.crypto import IdCipher
from repro.core.pointer import (
    PointerType,
    make_base_pointer,
    make_offset_pointer,
    make_unprotected_pointer,
)
from repro.core.shield import GPUShield, ShieldConfig
from repro.core.violations import ViolationRecord
from repro.driver.allocator import Buffer, DeviceAllocator, MemoryRegions
from repro.driver.heap import DeviceHeap
from repro.errors import LaunchError
from repro.gpu.config import GPUConfig
from repro.gpu.memory import AddressSpace, PhysicalMemory
from repro.isa.program import Kernel

_CANARY_BYTE = 0xA5

ArgValue = Union[Buffer, int, float]


@dataclass
class LaunchContext:
    """Everything the GPU needs to execute one prepared kernel launch."""

    kernel: Kernel
    workgroups: int
    wg_size: int
    kernel_id: int
    arg_values: Dict[str, int] = field(default_factory=dict)
    security: Optional[KernelSecurityContext] = None
    bat: Optional[BoundsAnalysisTable] = None
    shield_enabled: bool = False
    heap_pointer_tagger: Optional[object] = None   # callable addr -> tagged
    local_buffers: Dict[str, Buffer] = field(default_factory=dict)
    rbt_buffer: Optional[Buffer] = None
    type3_buffers: List[Buffer] = field(default_factory=list)
    pointer_types: Dict[str, PointerType] = field(default_factory=dict)
    finished: bool = False

    @property
    def total_threads(self) -> int:
        return self.workgroups * self.wg_size

    def initial_registers(self) -> Dict[int, int]:
        """reg index -> entry value for every kernel/local argument."""
        return {self.kernel.arg_regs[name]: value
                for name, value in self.arg_values.items()}


class GpuDriver:
    """The trusted driver: owns device memory and performs §5.4's setup."""

    def __init__(self, config: GPUConfig,
                 shield: Optional[GPUShield] = None,
                 seed: int = 0xC0FFEE,
                 regions: Optional[MemoryRegions] = None):
        self.config = config
        self.shield = shield if shield is not None else GPUShield(
            ShieldConfig(enabled=False))
        self.memory = PhysicalMemory()
        self.space = AddressSpace(self.memory, page_size=config.page_size)
        self.regions = regions or MemoryRegions()
        pow2_pad = (self.shield.enabled
                    and config.addressing == "method_c"
                    and self.shield.config.bcu.type3_enabled)
        self.allocator = DeviceAllocator(
            self.memory, self.space, regions=self.regions,
            alignment=config.alignment, pow2_pad=pow2_pad)
        self.heap = DeviceHeap(self.space, self.regions.heap)
        self.checker = StaticBoundsChecker(
            enabled=self.shield.config.static_analysis)
        # SIGNAL_HOST reporting: violations are mirrored into an SVM
        # mailbox the host can poll mid-kernel (§5.5.2).
        self.mailbox = None
        if (self.shield.enabled
                and self.shield.config.policy.name == "SIGNAL_HOST"):
            from repro.driver.svm import SvmMailbox
            self.mailbox = SvmMailbox(self.allocator)
            self.shield.log.mailbox_write = self.mailbox.device_append
        self._seed = seed
        self._rng = random.Random(seed)
        self._kernel_counter = 0
        # Static analysis is per (kernel, launch shape): cache the BAT so
        # many-launch workloads (streamcluster's 1000 invocations) do not
        # re-run the compiler each time — matching the paper, where the
        # BAT is computed once and attached to the binary.
        self._bat_cache: Dict[tuple, BoundsAnalysisTable] = {}

    # -- device lifecycle ---------------------------------------------------------

    @property
    def seed(self) -> int:
        return self._seed

    def reseed(self, seed: int) -> None:
        """Restart the driver's secret-key/ID RNG from ``seed``, exactly
        as a freshly constructed driver would draw it."""
        self._seed = seed
        self._rng.seed(seed)

    def state_snapshot(self) -> dict:
        """Capture the driver-visible architectural state.

        Covers device memory contents (by reference, see
        :meth:`~repro.gpu.memory.PhysicalMemory.capture`), the page
        table, allocator cursors and live buffers, the heap, the RNG
        stream, the kernel counter and any undrained violation records.
        """
        return {
            "chunks": self.memory.capture(range(0)),
            "mem_counters": (self.memory.bytes_read,
                             self.memory.bytes_written),
            "pages": self.space.pages_snapshot(),
            "cursors": self.allocator.cursors_snapshot(),
            "allocations": list(self.allocator.allocations),
            "heap": self.heap.state_snapshot(),
            "rng": self._rng.getstate(),
            "kernel_counter": self._kernel_counter,
            "violations": list(self.shield.log.records),
        }

    def restore_state(self, state: dict) -> None:
        """Re-install a :meth:`state_snapshot` image.

        Every container is mutated in place (the fast engine binds the
        page dict and chunk store at construction).  The BAT cache is
        dropped: it keys on ``id(kernel)``, and a restored driver may
        see recycled ids for different kernel objects.
        """
        self.memory.restore(state["chunks"])
        self.memory.bytes_read, self.memory.bytes_written = \
            state["mem_counters"]
        self.space.restore_pages(state["pages"])
        self.allocator.restore_cursors(state["cursors"])
        self.allocator.restore_allocations(state["allocations"])
        self.heap.restore_state(state["heap"])
        self._rng.setstate(state["rng"])
        self._kernel_counter = state["kernel_counter"]
        self._bat_cache.clear()
        self.shield.log.records.clear()
        self.shield.log.records.extend(state["violations"])

    # -- host memory API ---------------------------------------------------------

    def malloc(self, size: int, *, name: str = "",
               read_only: bool = False) -> Buffer:
        """``cudaMalloc``: a device-only global buffer."""
        return self.allocator.malloc(size, name=name, read_only=read_only)

    def malloc_managed(self, size: int, *, name: str = "") -> Buffer:
        """``cudaMallocManaged``: an SVM buffer visible to the host."""
        return self.allocator.malloc(size, name=name, svm=True)

    def malloc_const(self, size: int, *, name: str = "") -> Buffer:
        """Constant memory: read-only, served by per-core constant
        caches (Table 1: no overflow possible)."""
        return self.allocator.malloc(size, name=name, read_only=True,
                                     region="constant")

    def malloc_texture(self, size: int, *, name: str = "") -> Buffer:
        """Texture/surface memory: read-only, texture-cache path."""
        return self.allocator.malloc(size, name=name, read_only=True,
                                     region="texture")

    def free(self, buffer: Buffer) -> None:
        self.allocator.free(buffer)

    def write(self, buffer: Buffer, data: bytes, offset: int = 0) -> None:
        self.allocator.write_buffer(buffer, offset, data)

    def read(self, buffer: Buffer, size: Optional[int] = None,
             offset: int = 0) -> bytes:
        return self.allocator.read_buffer(buffer, offset,
                                          buffer.size if size is None else size)

    def write_i32(self, buffer: Buffer, index: int, value: int) -> None:
        self.write(buffer, struct.pack("<i", value), index * 4)

    def read_i32(self, buffer: Buffer, index: int) -> int:
        return struct.unpack("<i", self.read(buffer, 4, index * 4))[0]

    def write_f32(self, buffer: Buffer, index: int, value: float) -> None:
        self.write(buffer, struct.pack("<f", value), index * 4)

    def read_f32(self, buffer: Buffer, index: int) -> float:
        return struct.unpack("<f", self.read(buffer, 4, index * 4))[0]

    # -- kernel launch -------------------------------------------------------------

    def launch(self, kernel: Kernel, args: Dict[str, ArgValue],
               workgroups: int, wg_size: int) -> LaunchContext:
        """Prepare a launch: analysis, IDs, RBT, pointer tagging."""
        self._validate(kernel, args, workgroups, wg_size)
        self._kernel_counter += 1
        kernel_id = self._kernel_counter

        local_buffers = self._layout_locals(kernel, workgroups * wg_size)

        buffer_sizes: Dict[str, int] = {}
        scalar_args: Dict[str, int] = {}
        scalar_maxima: Dict[str, int] = {}
        for param in kernel.params:
            if param.kind == "buffer":
                buffer_sizes[param.name] = args[param.name].size  # type: ignore
            else:
                value = args[param.name]
                if isinstance(value, int):
                    scalar_args[param.name] = value
                if param.max_value is not None:
                    scalar_maxima[param.name] = param.max_value
        for name, buf in local_buffers.items():
            buffer_sizes[name] = buf.size

        bat = None
        if self.shield.enabled:
            cache_key = (id(kernel), workgroups, wg_size,
                         tuple(sorted(scalar_args.items())),
                         tuple(sorted(buffer_sizes.items())))
            bat = self._bat_cache.get(cache_key)
            if bat is None:
                bounds = LaunchBounds(workgroups=workgroups,
                                      workgroup_size=wg_size,
                                      scalar_args=scalar_args,
                                      scalar_maxima=scalar_maxima)
                bat = self.checker.analyze(kernel, bounds, buffer_sizes)
                self._bat_cache[cache_key] = bat

        ctx = LaunchContext(kernel=kernel, workgroups=workgroups,
                            wg_size=wg_size, kernel_id=kernel_id, bat=bat,
                            shield_enabled=self.shield.enabled,
                            local_buffers=local_buffers)

        if not self.shield.enabled:
            for param in kernel.params:
                value = args[param.name]
                ctx.arg_values[param.name] = (
                    value.va if isinstance(value, Buffer)
                    else self._scalar_bits(value))
            for name, buf in local_buffers.items():
                ctx.arg_values[name] = buf.va
            ctx.heap_pointer_tagger = lambda addr, size=0: addr
            return ctx

        self._setup_protection(ctx, kernel, args, bat)
        return ctx

    def _validate(self, kernel: Kernel, args: Dict[str, ArgValue],
                  workgroups: int, wg_size: int) -> None:
        if workgroups <= 0 or wg_size <= 0:
            raise LaunchError("launch geometry must be positive")
        if wg_size % self.config.warp_size:
            raise LaunchError(
                f"workgroup size {wg_size} not a multiple of warp size "
                f"{self.config.warp_size}")
        for param in kernel.params:
            if param.name not in args:
                raise LaunchError(f"missing kernel argument {param.name!r}")
            value = args[param.name]
            if param.kind == "buffer":
                if not isinstance(value, Buffer):
                    raise LaunchError(f"{param.name!r} must be a Buffer")
                if value.freed:
                    raise LaunchError(f"{param.name!r} was freed")
            elif isinstance(value, Buffer):
                raise LaunchError(f"{param.name!r} is scalar, got a Buffer")

    @staticmethod
    def _scalar_bits(value: Union[int, float]) -> Union[int, float]:
        return value

    def _layout_locals(self, kernel: Kernel,
                       total_threads: int) -> Dict[str, Buffer]:
        """Interleaved local-memory layout (§3.1): one region per variable."""
        out: Dict[str, Buffer] = {}
        for var in kernel.local_vars:
            size = var.words_per_thread * 4 * total_threads
            out[f"__local_{var.name}"] = self.allocator.malloc(
                size, name=f"local:{kernel.name}:{var.name}", region="local")
        return out

    # -- GPUShield setup (Figure 10's UpdateBnds flow) -------------------------------

    def _setup_protection(self, ctx: LaunchContext, kernel: Kernel,
                          args: Dict[str, ArgValue],
                          bat: Optional[BoundsAnalysisTable]) -> None:
        key = self._rng.getrandbits(64)
        cipher = IdCipher(key)

        regions: List[tuple] = []   # (param_name, Buffer, read_only)
        for param in kernel.params:
            if param.kind == "buffer":
                buf: Buffer = args[param.name]  # type: ignore
                regions.append((param.name, buf,
                                param.read_only or buf.read_only))
        for name, buf in ctx.local_buffers.items():
            regions.append((name, buf, False))

        # §6.3: when the launch would exceed the ID budget, adjacent
        # buffers share one ID with merged bounds metadata.
        groups = self._group_regions(regions)

        heap_pool_size = (self.shield.config.heap_id_pool
                          if self.shield.config.fine_grained_heap else 0)
        ids = self._rng.sample(range(RBT_ENTRIES),
                               len(groups) + 1 + heap_pool_size)
        heap_id = ids[len(groups)]
        heap_pool = ids[len(groups) + 1:]

        rbt = RegionBoundsTable()
        pointer_ids: Dict[str, int] = {}
        for group, buffer_id in zip(groups, ids):
            base = min(buf.va for _n, buf, _ro in group)
            end = max(buf.va + buf.size for _n, buf, _ro in group)
            read_only = all(ro for _n, _b, ro in group)
            rbt.set(buffer_id, Bounds(base_addr=base, size=end - base,
                                      read_only=read_only))
            for name, _buf, _ro in group:
                pointer_ids[name] = buffer_id
        rbt.set(heap_id, Bounds(base_addr=self.heap.base,
                                size=self.heap.limit))

        # Materialise the RBT image in inaccessible driver pages.
        rbt_buffer = self.allocator.malloc_internal(
            rbt.image_size, name=f"rbt:k{ctx.kernel_id}")
        rbt.write_image(self.memory.write, rbt_buffer.va)
        ctx.rbt_buffer = rbt_buffer

        rbt_base = rbt_buffer.va
        memory_read = self.memory.read

        def rbt_read_entry(buffer_id: int) -> Bounds:
            return RegionBoundsTable.read_entry(memory_read, rbt_base,
                                                buffer_id)

        ctx.security = KernelSecurityContext(
            kernel_id=ctx.kernel_id, cipher=cipher,
            rbt_read_entry=rbt_read_entry)

        # Tag pointers (Figure 7 type selection).
        use_type3 = (self.config.addressing == "method_c"
                     and self.shield.config.bcu.type3_enabled)
        for (name, buf, _read_only) in regions:
            buffer_id = pointer_ids[name]
            if bat is not None and not bat.needs_runtime(name):
                ctx.arg_values[name] = make_unprotected_pointer(buf.va)
                ctx.pointer_types[name] = PointerType.UNPROTECTED
            elif use_type3 and buf.padded_size >= buf.size:
                log2_size = (buf.padded_size - 1).bit_length()
                ctx.arg_values[name] = make_offset_pointer(buf.va, log2_size)
                ctx.pointer_types[name] = PointerType.OFFSET_OPT
                self._write_canary(buf)
                ctx.type3_buffers.append(buf)
            else:
                ctx.arg_values[name] = make_base_pointer(
                    buf.va, cipher.encrypt(buffer_id))
                ctx.pointer_types[name] = PointerType.BASE

        for param in kernel.params:
            if param.kind == "scalar":
                ctx.arg_values[param.name] = self._scalar_bits(
                    args[param.name])

        heap_payload = cipher.encrypt(heap_id)
        if heap_pool:
            # Future-work extension (§5.7): individual device-malloc
            # allocations get their own bounds from a reserved ID pool;
            # when the pool runs dry, fall back to the whole-heap region.
            pool = list(heap_pool)
            rbt_entry_writer = self.memory.write
            rbt_base_addr = rbt_buffer.va

            def tag_heap(addr: int, size: int = 0) -> int:
                if pool and size > 0:
                    hid = pool.pop()
                    bounds = Bounds(base_addr=addr, size=size)
                    rbt_entry_writer(
                        rbt_base_addr + rbt.entry_offset(hid),
                        bounds.pack())
                    return make_base_pointer(addr, cipher.encrypt(hid))
                return make_base_pointer(addr, heap_payload)

            ctx.heap_pointer_tagger = tag_heap
        else:
            ctx.heap_pointer_tagger = (
                lambda addr, size=0: make_base_pointer(addr, heap_payload))

    def _group_regions(self, regions: List[tuple]) -> List[List[tuple]]:
        """Group regions onto shared IDs when the budget is tight (§6.3)."""
        budget = max(2, min(self.shield.config.id_budget, RBT_ENTRIES))
        reserve = 1 + (self.shield.config.heap_id_pool
                       if self.shield.config.fine_grained_heap else 0)
        groups: List[List[tuple]] = [[r] for r in regions]
        if not groups:
            return groups
        groups.sort(key=lambda g: g[0][1].va)
        while len(groups) + reserve > budget and len(groups) > 1:
            # Merge the VA-adjacent pair whose combined span is smallest,
            # keeping the metadata as tight as the budget allows.
            def span(i):
                left, right = groups[i], groups[i + 1]
                base = min(b.va for _n, b, _ro in left)
                end = max(b.va + b.size for _n, b, _ro in right)
                return end - base

            best = min(range(len(groups) - 1), key=span)
            groups[best:best + 2] = [groups[best] + groups[best + 1]]
        return groups

    def _write_canary(self, buf: Buffer) -> None:
        """Fill Type-3 padding with canary bytes (§5.3.3)."""
        pad = buf.padded_size - buf.size
        if pad > 0:
            self.memory.write(buf.va + buf.size, bytes([_CANARY_BYTE]) * pad)

    # -- kernel completion ---------------------------------------------------------

    def finish(self, ctx: LaunchContext) -> List[ViolationRecord]:
        """End-of-kernel processing: error report + canary verification."""
        if ctx.finished:
            raise LaunchError("launch already finished")
        ctx.finished = True
        records: List[ViolationRecord] = []
        if ctx.shield_enabled:
            records.extend(self.shield.drain_violations())
            for buf in ctx.type3_buffers:
                records.extend(self._check_canary(ctx, buf))
        for buf in ctx.local_buffers.values():
            self.allocator.free(buf)
        if ctx.rbt_buffer is not None:
            rbt = ctx.rbt_buffer
            self.allocator.free(rbt)
            # The internal cursor never returns to a freed RBT, and no
            # kernel or later launch reads it: its chunks go too.
            self.memory.discard(rbt.va, rbt.padded_size)
        return records

    def _check_canary(self, ctx: LaunchContext,
                      buf: Buffer) -> List[ViolationRecord]:
        pad = buf.padded_size - buf.size
        if pad <= 0:
            return []
        blob = self.memory.read(buf.va + buf.size, pad)
        dirty = [i for i, b in enumerate(blob) if b != _CANARY_BYTE]
        if not dirty:
            return []
        return [ViolationRecord(
            kernel_id=ctx.kernel_id, buffer_id=-1,
            lo=buf.va + buf.size + dirty[0],
            hi=buf.va + buf.size + dirty[-1],
            is_store=True, reason="type3-canary")]
