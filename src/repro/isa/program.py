"""Kernel programs: parameters, local variables, validation, flow tables.

A :class:`Kernel` is the unit the driver launches.  Besides the
instruction list it carries:

* :class:`KernelParam` — the kernel arguments (buffers and scalars);
  the paper's OpenCL limit of 128 arguments is enforced here;
* :class:`LocalVar` — variables placed in off-chip local memory, each
  protected as its own region (paper §5.2.1);
* :class:`AccessInfo` — one row per static memory instruction, linking it
  to the symbolic offset expression for the compiler's analysis.

``validate()`` checks structural well-formedness and precomputes the
jump tables the executor uses for structured control flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import IsaError
from repro.isa.exprs import Expr
from repro.isa.instructions import Instr

MAX_KERNEL_ARGS = 128   # OpenCL 2.0 limit cited in paper §2.1


@dataclass(frozen=True)
class KernelParam:
    """One kernel argument."""

    name: str
    kind: str                  # 'buffer' | 'scalar'
    read_only: bool = False    # buffers only
    max_value: Optional[int] = None   # scalars: host-analysis bound (§5.3.2)

    def __post_init__(self):
        if self.kind not in ("buffer", "scalar"):
            raise ValueError(f"bad param kind {self.kind!r}")


@dataclass(frozen=True)
class LocalVar:
    """A local-memory variable: ``words_per_thread`` 32-bit words/thread.

    The driver lays these out interleaved — consecutive threads own
    consecutive words (paper §3.1) — and registers each variable as a
    separate protected region.
    """

    name: str
    words_per_thread: int


@dataclass(frozen=True)
class AccessInfo:
    """Static metadata of one memory instruction (a BAT row precursor)."""

    access_id: int
    param: Optional[str]       # pointer argument / local var; None for
    space: str                 # shared & heap-malloc'd pointers
    is_store: bool
    offset_expr: Expr
    dtype: str
    predicated: bool = False
    #: Control-flow guards active at the access, outermost first: each
    #: is ("cmp"/"notcmp", op, lhs expr, rhs expr) for a recovered
    #: predicate, ("loop",) / ("while",) inside loops, or ("opaque",)
    #: when the predicate's provenance is unknown.  Consumed by the
    #: compiler's may-race pass to bound the executing thread set.
    guards: tuple = ()


@dataclass
class Kernel:
    """An executable kernel program."""

    name: str
    instructions: List[Instr]
    num_regs: int
    params: List[KernelParam] = field(default_factory=list)
    local_vars: List[LocalVar] = field(default_factory=list)
    shared_bytes: int = 0
    accesses: List[AccessInfo] = field(default_factory=list)
    # register index holding each param / local base pointer at entry
    arg_regs: Dict[str, int] = field(default_factory=dict)
    # control-flow match tables, filled by validate()
    flow: Dict[int, int] = field(default_factory=dict)        # open -> close
    else_of: Dict[int, int] = field(default_factory=dict)     # if -> else

    def __post_init__(self):
        self.validate()

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        """Check structure and build the control-flow jump tables."""
        if len(self.params) > MAX_KERNEL_ARGS:
            raise IsaError(
                f"{self.name}: {len(self.params)} kernel arguments exceed the "
                f"limit of {MAX_KERNEL_ARGS}")
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise IsaError(f"{self.name}: duplicate parameter names")

        self.flow.clear()
        self.else_of.clear()
        stack: List[tuple] = []
        for pc, instr in enumerate(self.instructions):
            op = instr.op
            if op in ("if", "loop", "while"):
                stack.append((op, pc))
            elif op == "else":
                if not stack or stack[-1][0] != "if":
                    raise IsaError(f"{self.name}: 'else' at pc={pc} without 'if'")
                open_pc = stack[-1][1]
                if open_pc in self.else_of:
                    raise IsaError(f"{self.name}: second 'else' for if@{open_pc}")
                self.else_of[open_pc] = pc
            elif op in ("endif", "endloop", "endwhile"):
                want = {"endif": "if", "endloop": "loop", "endwhile": "while"}[op]
                if not stack or stack[-1][0] != want:
                    raise IsaError(
                        f"{self.name}: '{op}' at pc={pc} without matching "
                        f"'{want}'")
                _, open_pc = stack.pop()
                self.flow[open_pc] = pc
            for operand in instr.srcs:
                self._check_operand(operand, pc)
            if instr.dst is not None:
                self._check_reg(instr.dst.index, pc)
            if instr.pred is not None:
                self._check_reg(instr.pred.index, pc)
        if stack:
            op, pc = stack[-1]
            raise IsaError(f"{self.name}: unterminated '{op}' at pc={pc}")

    def _check_operand(self, operand, pc: int) -> None:
        from repro.isa.instructions import Reg
        if isinstance(operand, Reg):
            self._check_reg(operand.index, pc)

    def _check_reg(self, index: int, pc: int) -> None:
        if not 0 <= index < self.num_regs:
            raise IsaError(
                f"{self.name}: register r{index} out of range at pc={pc}")

    # -- introspection ----------------------------------------------------------

    @property
    def scalar_params(self) -> List[KernelParam]:
        return [p for p in self.params if p.kind == "scalar"]

    def static_mem_instructions(self) -> int:
        return sum(1 for i in self.instructions if i.is_memory)

    def __len__(self) -> int:
        return len(self.instructions)
