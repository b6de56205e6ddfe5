"""Fast-forward of steady-state relaunches (fast engine only).

A workload that relaunches one kernel on the same buffers — Rodinia's
streamcluster runs its gather 32 times a cell — often reaches a fixed
point: a launch that ends in exactly the device state it started in.
Simulating the next launch from that state again reproduces the same
outcome warp by warp.  :class:`Relaunch` recognises such a relaunch,
applies the outcome the verified launch recorded and skips the
simulation.  It is exact: every cycle, counter, memory byte and LRU
order equals a real run's.

**Why it is exact.**  A launch's outcome is a function of the device
state it starts from and of its launch key (below).  Between a
verified launch and its relaunch only renamed values differ: the kernel
ID, the cipher, the region IDs and the RBT address.

* A tagged pointer reaches the AGU, whose ``& VA_MASK`` gives the same
  VA under any tag, and the BCU's ``base_pointer``, which decodes to a
  renamed ID with the same :class:`~repro.core.bounds.Bounds`.
* The RCaches are fully associative on ``(kernel_id, buffer_id)``
  tags, so their hit, miss and eviction sequence is invariant under a
  consistent renaming, and the end-of-launch flush empties them the
  same way.
* The RBT and its pages sit in the driver-internal region at a fresh
  address per launch; no kernel access can reach them (they are
  inaccessible, and a fault aborts the launch), so the captured state
  leaves that region out.

**Eligibility.**  The renaming argument needs every tagged value the
AGU and BCU see to be a launch argument.  A kernel qualifies (checked
once per kernel object) when it has no ``malloc`` (heap pointers are
drawn at run time), no buffer-argument register is ever a destination
or read anywhere but as ``srcs[0]``, the base operand, of ``ld``/``st``,
and every non-shared ``ld``/``st`` takes its base from such a register:
a base loaded from memory or passed as a scalar could hold a tag that
decrypts differently under the next launch's cipher.  At run time no
observer may be attached, and each core's checker must be its own
BCU's :class:`~repro.core.bcu.BCUAccessChecker` (``None`` without a
BCU).

**The launch key.**  Per launch: the shield flag and each argument —
a scalar as ``(name, type, value)`` (``1``, ``1.0`` and ``True`` are
equal but compile differently; a float keys on its bits), a BASE
pointer as ``(name, VA, Bounds, first argument with its ID)`` resolved
through this launch's cipher and RBT (so a stale or forged tag never
matches a genuine one), and any other pointer by its value.  Local
buffers are pointer arguments too.

**The protocol.**  A ``GPU.run`` whose ``(mode, [(kernel, workgroups,
wg_size)])`` signature differs from the previous one drops everything
and runs as before; that compare is all a non-repeating launch pays.
The second launch of a series records its key.  Each later launch with
that key either fast-forwards (a record exists and the device state
equals the recorded one) or runs for real, as a *probe* when the
series length is a power of two: the probe captures the state, runs,
and records the launch when it did not abort, added no violation
record and ended in its start state.  The record holds the counter
deltas of every stats-registry source and of the memory byte counters,
the per-core cycles and ``divergent_branches``.  ``GPU.reset`` drops
the record.

**The state.**  Every part's ``state()`` in ``GPU.parts`` order (line
order of each cache and TLB set, RCache banks, the DRAM's open rows
and ``_free_at``), the page table and the memory chunks, both outside
the driver-internal region.  A fixed point ends in its start state, so
a fast-forward leaves every part as it found it: only counters move.
"""

from __future__ import annotations

import struct
import weakref
from typing import (TYPE_CHECKING, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.analysis.stats import counters_of
from repro.core.bcu import BCUAccessChecker
from repro.core.bounds import RegionBoundsTable
from repro.core.pointer import PointerType, decode
from repro.gpu.memory import _CHUNK_BITS
from repro.isa.instructions import Reg

if TYPE_CHECKING:
    from repro.driver.driver import LaunchContext
    from repro.gpu.gpu import GPU, LaunchResult

_DOUBLE = struct.Struct("<d")

#: id(kernel) -> (weakref to the kernel, its scalar parameter names or
#: ``None`` when ineligible); as fastpath's ``_PROGRAMS``, an entry
#: leaves with its kernel.
_ELIGIBLE: Dict[int, Tuple[weakref.ref, Optional[frozenset]]] = {}


def scalar_names(kernel) -> Optional[frozenset]:
    """``kernel``'s scalar parameter names when its tagged values all
    come from its arguments (see the module docstring), else ``None``;
    cached per kernel object."""
    key = id(kernel)
    entry = _ELIGIBLE.get(key)
    if entry is not None and entry[0]() is kernel:
        return entry[1]
    scalars = (frozenset(p.name for p in kernel.params if p.kind == "scalar")
               if _pointer_use_ok(kernel) else None)
    _ELIGIBLE[key] = (
        weakref.ref(kernel, lambda _ref: _ELIGIBLE.pop(key, None)), scalars)
    return scalars


def _pointer_use_ok(kernel) -> bool:
    pointers = {kernel.arg_regs[p.name] for p in kernel.params
                if p.kind == "buffer"}
    pointers.update(kernel.arg_regs[f"__local_{var.name}"]
                    for var in kernel.local_vars)
    for instr in kernel.instructions:
        if instr.op == "malloc":
            return False
        if instr.dst is not None and instr.dst.index in pointers:
            return False
        if instr.pred is not None and instr.pred.index in pointers:
            return False
        memory = instr.op in ("ld", "st")
        for position, src in enumerate(instr.srcs):
            if (type(src) is Reg and src.index in pointers
                    and not (memory and position == 0)):
                return False
        if memory and instr.space != "shared":
            base = instr.srcs[0]
            if type(base) is not Reg or base.index not in pointers:
                return False
    return True


class _Capture(NamedTuple):
    """A probe's start state, to compare its end state with."""

    state: list
    chunks: dict
    counters: dict
    bytes_moved: Tuple[int, int]    # memory (bytes_read, bytes_written)
    violations: int


class _Record(NamedTuple):
    """A verified fixed point: its start state and outcome."""

    start: _Capture
    deltas: list                    # [(stats path, counter, delta)]
    bytes_moved: Tuple[int, int]
    per_core: Tuple[int, ...]
    divergent: int


class Relaunch:
    """Recognises and fast-forwards one GPU's steady-state relaunches."""

    def __init__(self, gpu: GPU):
        self._gpu = gpu
        self._parts = list(gpu.parts.values())
        driver = gpu.driver
        self._memory = driver.memory
        self._space = driver.space
        # The driver-internal region: every address below the constant
        # region's base (``MemoryRegions.region_of``).
        internal_end = driver.regions.constant
        self._skip_chunks = range(-(-internal_end >> _CHUNK_BITS))
        self._skip_pages = range(-(-internal_end // driver.space.page_size))
        self.drop()

    def drop(self) -> None:
        """Forget the series and any record (device reset)."""
        self._signature: Optional[tuple] = None
        self._kernels: List[object] = []   # keeps signature ids live
        self._key: Optional[tuple] = None
        self._streak = 0
        self._probe: Optional[_Capture] = None
        self.record: Optional[_Record] = None

    # -- before a run ----------------------------------------------------------

    def replay(self, launches: Sequence[LaunchContext],
               mode: str) -> Optional[LaunchResult]:
        """The fast-forwarded result of this run, or ``None`` to run it
        (then :meth:`settle` sees its result)."""
        self._probe = None
        signature = (mode, *[(id(launch.kernel), launch.workgroups,
                              launch.wg_size) for launch in launches])
        if signature != self._signature:
            self.drop()
            self._signature = signature
            self._kernels = [launch.kernel for launch in launches]
            return None
        key = self._key_of(launches)
        if key is None or key != self._key:
            self._key = key
            self._streak = 1
            self.record = None
            return None
        record = self.record
        if record is not None:
            if self._state() == record.start.state and self._memory.matches(
                    record.start.chunks, self._skip_chunks):
                return self._apply(record)
            # Something moved the device off the fixed point: start the
            # series over from this launch.
            self.record = None
            self._streak = 1
            return None
        self._streak += 1
        if not self._streak & (self._streak - 1):
            memory = self._memory
            self._probe = _Capture(
                self._state(), memory.capture(self._skip_chunks),
                self._counters(), (memory.bytes_read, memory.bytes_written),
                len(self._gpu.shield.log))
        return None

    def settle(self, result: LaunchResult) -> None:
        """After a probe run: record the launch if it was a fixed point."""
        probe, self._probe = self._probe, None
        if probe is None:
            return
        gpu = self._gpu
        memory = self._memory
        if (result.aborted
                or len(gpu.shield.log) != probe.violations
                or self._state() != probe.state
                or not memory.matches(probe.chunks, self._skip_chunks)):
            return
        before = probe.counters
        deltas = [(path, name, value - before.get((path, name), 0))
                  for (path, name), value in self._counters().items()
                  if value != before.get((path, name), 0)]
        read, written = probe.bytes_moved
        self.record = _Record(
            probe, deltas,
            (memory.bytes_read - read, memory.bytes_written - written),
            tuple(result.per_core_cycles), result.divergent_branches)

    def _key_of(self, launches) -> Optional[tuple]:
        gpu = self._gpu
        if gpu.observers:
            return None
        for core in gpu.cores:
            pipeline, bcu = core.pipeline, core.bcu
            if pipeline.observers:
                return None
            checker = pipeline.checker
            if bcu is None:
                if checker is not None:
                    return None
            elif (type(checker) is not BCUAccessChecker
                  or checker.bcu is not bcu):
                return None
        key = []
        for launch in launches:
            scalars = scalar_names(launch.kernel)
            if scalars is None:
                return None
            key.append(self._launch_key(launch, scalars))
        return tuple(key)

    def _launch_key(self, launch, scalars: frozenset) -> tuple:
        security = launch.security
        ids: Dict[int, int] = {}
        args = [launch.shield_enabled, security is None]
        for name, value in launch.arg_values.items():
            if name in scalars:
                args.append((name, type(value),
                             _DOUBLE.pack(value) if type(value) is float
                             else value))
                continue
            tagged = decode(value) if security is not None else None
            if tagged is None or tagged.ptype is not PointerType.BASE:
                args.append((name, value))
                continue
            buffer_id = security.cipher.decrypt(tagged.payload)
            bounds = RegionBoundsTable.read_entry(
                self._memory.peek, launch.rbt_buffer.va, buffer_id)
            args.append((name, tagged.va, bounds,
                         ids.setdefault(buffer_id, len(ids))))
        return tuple(args)

    # -- state -------------------------------------------------------------------

    def _state(self) -> list:
        """Every part's ``state()`` (``GPU.parts``) and the page table
        outside the internal region (memory goes separately)."""
        state = [part.state() for part in self._parts]
        state.append(self._space.pages_snapshot(self._skip_pages))
        return state

    def _counters(self) -> Dict[Tuple[str, str], object]:
        """(path, counter) -> value over every stats-registry source,
        less each core's ``cycles`` (a maximum, not a sum)."""
        cores = {id(core.stats) for core in self._gpu.cores}
        return {(path, name): value
                for path, source in self._gpu.stats.live().items()
                for name, value in counters_of(source).items()
                if name != "cycles" or id(source) not in cores}

    # -- fast-forward ------------------------------------------------------------

    def _apply(self, record: _Record) -> LaunchResult:
        gpu = self._gpu
        before = gpu.totals()
        live = gpu.stats.live()
        for path, name, delta in record.deltas:
            source = live[path]
            if isinstance(source, dict):
                source[name] += delta
            else:
                setattr(source, name, getattr(source, name) + delta)
        memory = self._memory
        read, written = record.bytes_moved
        memory.bytes_read += read
        memory.bytes_written += written
        for core, cycles in zip(gpu.cores, record.per_core):
            # ShaderCore.run keeps the largest finish cycle.
            if cycles > core.stats.cycles:
                core.stats.cycles = cycles
        result = gpu._collect(list(record.per_core), False, "", before)
        result.divergent_branches = record.divergent
        return result
