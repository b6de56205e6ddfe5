"""Instruction set of the simulated GPU.

The ISA is deliberately small but covers what the paper's workloads need:
integer/float ALU ops, predicated loads/stores to four memory spaces
(global, local, shared, heap), structured control flow (IF/ELSE/ENDIF,
counted LOOP, divergent WHILE), workgroup barriers and device-side malloc.

Structured control flow (instead of arbitrary branches) keeps the SIMT
divergence model simple and is faithful to how the benchmark kernels are
actually shaped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

# -- operands -----------------------------------------------------------------


@dataclass(frozen=True)
class Reg:
    """A virtual register, one value per lane."""

    index: int

    def __repr__(self):
        return f"r{self.index}"


@dataclass(frozen=True)
class Imm:
    """An immediate operand (int or float)."""

    value: object

    def __repr__(self):
        return f"#{self.value}"


@dataclass(frozen=True)
class Special:
    """A read-only special value: thread/block identifiers.

    Supported names: ``tid`` (thread index inside the workgroup), ``ctaid``
    (workgroup index), ``ntid`` (workgroup size), ``nctaid`` (grid size in
    workgroups), ``gtid`` (global thread index), ``lane`` (index inside the
    sub-workgroup).
    """

    name: str

    def __repr__(self):
        return f"%{self.name}"


SPECIAL_NAMES = frozenset({"tid", "ctaid", "ntid", "nctaid", "gtid", "lane"})

# -- data types ----------------------------------------------------------------

DTYPE_SIZE = {
    "i32": 4,
    "u32": 4,
    "f32": 4,
    "i64": 8,
    "u64": 8,
}

# -- opcodes --------------------------------------------------------------------

ALU_OPS = frozenset({
    "mov", "add", "sub", "mul", "mad", "min", "max", "abs",
    "and", "or", "xor", "not", "shl", "shr",
    "fadd", "fsub", "fmul", "fmad", "fmin", "fmax",
    "setp", "sel",
})
SFU_OPS = frozenset({"div", "mod", "fdiv", "fsqrt", "fexp", "flog", "frcp"})
MEM_OPS = frozenset({"ld", "st"})
CTRL_OPS = frozenset({
    "if", "else", "endif", "loop", "endloop", "while", "endwhile",
    "bar", "exit", "malloc",
})
ALL_OPS = ALU_OPS | SFU_OPS | MEM_OPS | CTRL_OPS

CMP_OPS = frozenset({"lt", "le", "eq", "ne", "gt", "ge"})

MEMORY_SPACES = frozenset({"global", "local", "shared", "heap",
                           "const", "texture"})


@dataclass(frozen=True)
class Instr:
    """One machine instruction.

    ``srcs`` layout by opcode:

    * ALU/SFU: operand list in natural order (``mad``: a, b, c; ``setp``:
      a, b with ``cmp`` set; ``sel``: pred, a, b).
    * ``ld``: (base, offset) — effective address = base + offset, the tag
      riding in base's upper bits (Method B/C of Figure 2).
    * ``st``: (base, offset, value).
    * ``if``/``while``: (pred,).
    * ``loop``: (count,).
    * ``malloc``: (size,) with ``dst`` receiving the heap pointer.

    ``access_id`` links memory instructions to the builder's recorded
    offset expressions (consumed by the compiler's static analysis);
    ``param`` names the kernel argument the base pointer came from.
    """

    op: str
    dst: Optional[Reg] = None
    srcs: Tuple = ()
    pred: Optional[Reg] = None       # lane predicate (None = all active)
    pred_invert: bool = False
    cmp: Optional[str] = None        # for setp
    space: Optional[str] = None      # for ld/st
    dtype: str = "i32"
    access_id: Optional[int] = None  # for ld/st: BAT row index
    param: Optional[str] = None      # for ld/st: source pointer argument

    def __post_init__(self):
        if self.op not in ALL_OPS:
            raise ValueError(f"unknown opcode {self.op!r}")
        if self.op in MEM_OPS and self.space not in MEMORY_SPACES:
            raise ValueError(f"{self.op} needs a memory space, got {self.space!r}")
        if self.op == "setp" and self.cmp not in CMP_OPS:
            raise ValueError(f"setp needs a comparison, got {self.cmp!r}")

    @property
    def is_memory(self) -> bool:
        return self.op in MEM_OPS

    @property
    def category(self) -> str:
        if self.op in ALU_OPS:
            return "alu"
        if self.op in SFU_OPS:
            return "sfu"
        if self.op in MEM_OPS:
            return "mem"
        return "ctrl"
