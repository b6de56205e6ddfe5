"""Functional SIMT execution of the kernel ISA.

One :class:`Executor` is built per (kernel launch, geometry).  It owns no
timing: the shader core calls :meth:`step` to execute one instruction of
one warp and receives an outcome describing what happened —

* ``("alu", kind)`` — an ALU/SFU/control instruction retired;
* ``("mem", request)`` — a warp memory instruction needs the LSU/BCU
  (addresses already generated, per the AGU stage of Figure 12);
* ``("malloc", lanes)`` — device-side heap allocation happened;
* ``("bar", None)`` — the warp reached a workgroup barrier;
* ``("exit", None)`` — the warp finished.

Divergence uses structured mask stacks: IF/ELSE/ENDIF, counted LOOP and
divergent WHILE, matching how the workload kernels are written.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.core.pointer import VA_MASK, tagged_add
from repro.errors import IsaError
from repro.isa.instructions import Imm, Instr, Reg, Special
from repro.isa.program import Kernel


class MemRequest:
    """One warp-level memory instruction, post address generation.

    An *affine* request (``stride >= 0``) has every lane active and lane
    ``i`` at ``a0 + i*stride``; it may leave ``lane_addrs`` unset, and
    the list is built on its first read and kept, so every reader sees
    the same one.  Any other request has ``stride == -1``.
    """

    __slots__ = ("instr", "space", "dtype", "is_store", "lane_addrs",
                 "base_pointer", "store_values", "dst", "active_lanes",
                 "a0", "stride")

    def __init__(self, instr: Instr, space: str, dtype: str, is_store: bool,
                 lane_addrs: Optional[List[Optional[int]]], base_pointer: int,
                 store_values: Optional[List], dst: Optional[int],
                 active_lanes: List[int], a0: int = 0, stride: int = -1):
        self.instr = instr
        self.space = space
        self.dtype = dtype
        self.is_store = is_store
        if lane_addrs is not None:
            self.lane_addrs = lane_addrs   # VA per lane, None if masked
        self.base_pointer = base_pointer   # tagged pointer (for the BCU)
        self.store_values = store_values
        self.dst = dst
        self.active_lanes = active_lanes
        self.a0 = a0
        self.stride = stride

    def __getattr__(self, name):
        # Reached only for an unset slot: an affine request's lanes.
        if name != "lane_addrs" or self.stride < 0:
            raise AttributeError(name)
        a0, s, n = self.a0, self.stride, len(self.active_lanes)
        addrs = self.lane_addrs = (list(range(a0, a0 + n * s, s)) if s
                                   else [a0] * n)
        return addrs


class WarpState:
    """Architectural state of one warp."""

    __slots__ = ("warp_id", "wg", "warp_in_wg", "pc", "regs", "mask",
                 "stack", "finished", "ready_at", "at_barrier", "launch_key")

    def __init__(self, warp_id: int, wg: int, warp_in_wg: int,
                 num_regs: int, warp_size: int, launch_key: int = 0):
        self.warp_id = warp_id
        self.wg = wg
        self.warp_in_wg = warp_in_wg
        self.pc = 0
        self.regs: List[List] = [[0] * warp_size for _ in range(num_regs)]
        self.mask: List[bool] = [True] * warp_size
        self.stack: List[list] = []
        self.finished = False
        self.ready_at = 0
        self.at_barrier = False
        self.launch_key = launch_key


def _safe_div(a, b):
    return 0 if b == 0 else (a // b if isinstance(a, int) and isinstance(b, int)
                             else a / b)


def _safe_mod(a, b):
    return 0 if b == 0 else a % b


_ALU_FUNCS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "min": min,
    "max": max,
    "and": lambda a, b: int(a) & int(b),
    "or": lambda a, b: int(a) | int(b),
    "xor": lambda a, b: int(a) ^ int(b),
    "shl": lambda a, b: int(a) << int(b),
    "shr": lambda a, b: int(a) >> int(b),
    "div": _safe_div,
    "mod": _safe_mod,
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
    "fmin": min,
    "fmax": max,
    "fdiv": lambda a, b: a / b if b else 0.0,
}

_UNARY_FUNCS = {
    "abs": abs,
    "not": lambda a: 0 if a else 1,
    "fsqrt": lambda a: math.sqrt(a) if a > 0 else 0.0,
    "fexp": lambda a: math.exp(min(a, 80.0)),
    "flog": lambda a: math.log(a) if a > 0 else 0.0,
    "frcp": lambda a: 1.0 / a if a else 0.0,
}

_CMP_FUNCS = {
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


class Executor:
    """Executes one kernel launch functionally, warp by warp."""

    #: Latency-1 instructions the last :meth:`issue` retired ahead of the
    #: one it returned.  Always 0 here: one issue is one step.
    burst = 0

    def __init__(self, kernel: Kernel, workgroups: int, wg_size: int,
                 warp_size: int, initial_regs: Dict[int, int],
                 heap=None, heap_tagger=None, launch_key: int = 0):
        self.kernel = kernel
        self.workgroups = workgroups
        self.wg_size = wg_size
        self.warp_size = warp_size
        self.initial_regs = initial_regs
        self.heap = heap
        self.heap_tagger = heap_tagger or (lambda addr, size=0: addr)
        self.launch_key = launch_key
        self.warps_per_wg = wg_size // warp_size
        self.instructions = kernel.instructions
        self.flow = kernel.flow
        self.else_of = kernel.else_of
        self.instructions_executed = 0
        self.divergent_branches = 0

    # -- warp construction -------------------------------------------------------

    def make_warp(self, wg: int, warp_in_wg: int, warp_id: int) -> WarpState:
        warp = WarpState(warp_id=warp_id, wg=wg, warp_in_wg=warp_in_wg,
                         num_regs=self.kernel.num_regs,
                         warp_size=self.warp_size,
                         launch_key=self.launch_key)
        for reg_index, value in self.initial_regs.items():
            warp.regs[reg_index] = [value] * self.warp_size
        return warp

    def make_workgroup(self, wg: int, base_warp_id: int) -> List[WarpState]:
        return [self.make_warp(wg, i, base_warp_id + i)
                for i in range(self.warps_per_wg)]

    # -- operand evaluation --------------------------------------------------------

    def _special_values(self, warp: WarpState, name: str) -> List[int]:
        ws = self.warp_size
        base_tid = warp.warp_in_wg * ws
        if name == "tid":
            return [base_tid + l for l in range(ws)]
        if name == "lane":
            return list(range(ws))
        if name == "ctaid":
            return [warp.wg] * ws
        if name == "ntid":
            return [self.wg_size] * ws
        if name == "nctaid":
            return [self.workgroups] * ws
        if name == "gtid":
            base = warp.wg * self.wg_size + base_tid
            return [base + l for l in range(ws)]
        raise IsaError(f"unknown special {name!r}")

    def _vals(self, warp: WarpState, operand) -> List:
        if isinstance(operand, Reg):
            return warp.regs[operand.index]
        if isinstance(operand, Imm):
            return [operand.value] * self.warp_size
        if isinstance(operand, Special):
            return self._special_values(warp, operand.name)
        raise IsaError(f"bad operand {operand!r}")

    def _active(self, warp: WarpState, instr: Instr) -> List[int]:
        mask = warp.mask
        if instr.pred is None:
            return [l for l in range(self.warp_size) if mask[l]]
        pred = warp.regs[instr.pred.index]
        if instr.pred_invert:
            return [l for l in range(self.warp_size) if mask[l] and not pred[l]]
        return [l for l in range(self.warp_size) if mask[l] and pred[l]]

    # -- main step ------------------------------------------------------------------

    def issue(self, warp: WarpState):
        """Issue the warp's next instruction: here, exactly one
        :meth:`step`."""
        return self.step(warp)

    def step(self, warp: WarpState):
        """Execute one instruction; returns (kind, payload)."""
        if warp.finished:
            return ("exit", None)
        if warp.pc >= len(self.instructions):
            warp.finished = True
            return ("exit", None)
        instr = self.instructions[warp.pc]
        self.instructions_executed += 1
        op = instr.op

        if op == "ld" or op == "st":
            return self._exec_mem(warp, instr)
        if op in _ALU_FUNCS or op in _UNARY_FUNCS or op in (
                "mov", "mad", "fmad", "setp", "sel"):
            self._exec_alu(warp, instr)
            warp.pc += 1
            return ("alu", instr.category)
        if op == "if":
            self._exec_if(warp, instr)
            return ("alu", "ctrl")
        if op == "else":
            self._exec_else(warp)
            return ("alu", "ctrl")
        if op == "endif":
            entry = warp.stack.pop()
            warp.mask = entry[1]
            warp.pc += 1
            return ("alu", "ctrl")
        if op == "loop":
            self._exec_loop(warp, instr)
            return ("alu", "ctrl")
        if op == "endloop":
            self._exec_endloop(warp, instr)
            return ("alu", "ctrl")
        if op == "while":
            self._exec_while(warp, instr)
            return ("alu", "ctrl")
        if op == "endwhile":
            self._exec_endwhile(warp, instr)
            return ("alu", "ctrl")
        if op == "bar":
            warp.pc += 1
            return ("bar", None)
        if op == "exit":
            warp.finished = True
            return ("exit", None)
        if op == "malloc":
            return self._exec_malloc(warp, instr)
        raise IsaError(f"unhandled opcode {op!r}")

    # -- ALU --------------------------------------------------------------------------

    def _exec_alu(self, warp: WarpState, instr: Instr) -> None:
        op = instr.op
        active = self._active(warp, instr)
        if not active:
            return
        dst = warp.regs[instr.dst.index]
        srcs = instr.srcs
        if op == "mov":
            a = self._vals(warp, srcs[0])
            for l in active:
                dst[l] = a[l]
        elif op in ("mad", "fmad"):
            a = self._vals(warp, srcs[0])
            b = self._vals(warp, srcs[1])
            c = self._vals(warp, srcs[2])
            for l in active:
                dst[l] = a[l] * b[l] + c[l]
        elif op == "setp":
            fn = _CMP_FUNCS[instr.cmp]
            a = self._vals(warp, srcs[0])
            b = self._vals(warp, srcs[1])
            for l in active:
                dst[l] = 1 if fn(a[l], b[l]) else 0
        elif op == "sel":
            p = self._vals(warp, srcs[0])
            a = self._vals(warp, srcs[1])
            b = self._vals(warp, srcs[2])
            for l in active:
                dst[l] = a[l] if p[l] else b[l]
        elif op in _UNARY_FUNCS:
            fn = _UNARY_FUNCS[op]
            a = self._vals(warp, srcs[0])
            for l in active:
                dst[l] = fn(a[l])
        else:
            fn = _ALU_FUNCS[op]
            a = self._vals(warp, srcs[0])
            b = self._vals(warp, srcs[1])
            for l in active:
                dst[l] = fn(a[l], b[l])

    # -- control flow -----------------------------------------------------------------

    def _exec_if(self, warp: WarpState, instr: Instr) -> None:
        pred = self._vals(warp, instr.srcs[0])
        saved = warp.mask
        taken = [bool(saved[l] and pred[l]) for l in range(self.warp_size)]
        endif_pc = self.flow[warp.pc]
        else_pc = self.else_of.get(warp.pc)
        active = sum(saved)
        taken_count = sum(taken)
        if 0 < taken_count < active:
            self.divergent_branches += 1
        warp.stack.append(["if", saved, taken, endif_pc])
        if any(taken):
            warp.mask = taken
            warp.pc += 1
        elif else_pc is not None:
            warp.mask = taken   # empty; 'else' will flip it
            warp.pc = else_pc
        else:
            warp.pc = endif_pc  # executes endif next, which pops

    def _exec_else(self, warp: WarpState) -> None:
        _kind, saved, taken, endif_pc = warp.stack[-1]
        flipped = [bool(saved[l] and not taken[l])
                   for l in range(self.warp_size)]
        if any(flipped):
            warp.mask = flipped
            warp.pc += 1
        else:
            warp.mask = flipped
            warp.pc = endif_pc

    def _exec_loop(self, warp: WarpState, instr: Instr) -> None:
        count_vals = self._vals(warp, instr.srcs[0])
        active = [l for l in range(self.warp_size) if warp.mask[l]]
        count = int(count_vals[active[0]]) if active else 0
        endloop_pc = self.flow[warp.pc]
        induction = warp.regs[instr.dst.index]
        for l in range(self.warp_size):
            induction[l] = 0
        if count <= 0:
            warp.pc = endloop_pc + 1
            return
        warp.stack.append(["loop", warp.pc + 1, count, 1])
        warp.pc += 1

    def _exec_endloop(self, warp: WarpState, instr: Instr) -> None:
        entry = warp.stack[-1]
        _kind, body_pc, count, done = entry
        if done < count:
            entry[3] = done + 1
            induction = warp.regs[instr.dst.index]
            for l in range(self.warp_size):
                induction[l] = done
            warp.pc = body_pc
        else:
            warp.stack.pop()
            warp.pc += 1

    def _exec_while(self, warp: WarpState, instr: Instr) -> None:
        pred = self._vals(warp, instr.srcs[0])
        saved = warp.mask
        new = [bool(saved[l] and pred[l]) for l in range(self.warp_size)]
        if any(new):
            warp.stack.append(["while", warp.pc, saved])
            warp.mask = new
            warp.pc += 1
        else:
            warp.pc = self.flow[warp.pc] + 1

    def _exec_endwhile(self, warp: WarpState, instr: Instr) -> None:
        pred = self._vals(warp, instr.srcs[0])
        mask = warp.mask
        new = [bool(mask[l] and pred[l]) for l in range(self.warp_size)]
        entry = warp.stack[-1]
        if any(new):
            warp.mask = new
            warp.pc = entry[1] + 1
        else:
            warp.stack.pop()
            warp.mask = entry[2]
            warp.pc += 1

    # -- memory --------------------------------------------------------------------------

    def _exec_mem(self, warp: WarpState, instr: Instr):
        active = self._active(warp, instr)
        warp.pc += 1
        if not active:
            return ("alu", "mem-nop")
        is_store = instr.op == "st"
        base = self._vals(warp, instr.srcs[0])
        offset = self._vals(warp, instr.srcs[1])
        ws = self.warp_size
        lane_addrs: List[Optional[int]] = [None] * ws
        if instr.space == "shared":
            for l in active:
                lane_addrs[l] = int(offset[l])
            base_pointer = 0
        else:
            for l in active:
                lane_addrs[l] = tagged_add(int(base[l]),
                                           int(offset[l])) & VA_MASK
            base_pointer = int(base[active[0]])
        store_values = None
        if is_store:
            values = self._vals(warp, instr.srcs[2])
            store_values = list(values)
        return ("mem", MemRequest(
            instr=instr, space=instr.space, dtype=instr.dtype,
            is_store=is_store, lane_addrs=lane_addrs,
            base_pointer=base_pointer, store_values=store_values,
            dst=instr.dst.index if instr.dst is not None else None,
            active_lanes=active))

    def _exec_malloc(self, warp: WarpState, instr: Instr):
        active = self._active(warp, instr)
        warp.pc += 1
        if not active:
            return ("alu", "ctrl")
        sizes = self._vals(warp, instr.srcs[0])
        dst = warp.regs[instr.dst.index]
        for l in active:
            size = int(sizes[l])
            addr = self.heap.device_malloc(size)
            dst[l] = self.heap_tagger(addr, size)
        return ("malloc", len(active))

    # -- load completion (called by the core) ------------------------------------------------

    def deliver_load(self, warp: WarpState, request: MemRequest,
                     values: Dict[int, object]) -> None:
        """Write loaded values (lane -> value) into the destination."""
        dst = warp.regs[request.dst]
        for lane, value in values.items():
            dst[lane] = value
