"""KernelBuilder: a small DSL that emits ISA instructions.

The builder plays the role of the CUDA/OpenCL compiler front-end: kernels
are described with Python calls, and the builder

* allocates virtual registers,
* tracks which kernel argument each pointer register derives from (the
  analogue of following GEP base operands), and
* records a symbolic :mod:`~repro.isa.exprs` tree for every value, so the
  compiler's static bounds analysis can replay the paper's operand-tree
  reverse traversal (Figure 8).

Soundness rule: a register overwritten at a deeper control-flow nesting
level than where it was created gets an :class:`~repro.isa.exprs.Unknown`
expression — loop-carried or conditionally-defined indices are never
trusted statically, only genuine launch-bounded expressions are.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.errors import IsaError
from repro.isa import exprs
from repro.isa.instructions import (
    CMP_OPS, DTYPE_SIZE, Imm, Instr, Reg, Special,
)
from repro.isa.program import AccessInfo, Kernel, KernelParam, LocalVar

Operand = Union[Reg, int, float, Special]


@dataclass(frozen=True)
class LocalHandle:
    """Handle to a local-memory variable (base pointer + metadata)."""

    name: str
    base: Reg
    words_per_thread: int


class KernelBuilder:
    """Builds one :class:`~repro.isa.program.Kernel`."""

    def __init__(self, name: str):
        self.name = name
        self._instrs: List[Instr] = []
        self._params: List[KernelParam] = []
        self._locals: List[LocalVar] = []
        self._arg_regs: Dict[str, int] = {}
        self._shared_bytes = 0
        self._nreg = 0
        self._exprs: Dict[int, exprs.Expr] = {}
        self._reg_depth: Dict[int, int] = {}
        self._ptr_param: Dict[int, str] = {}
        self._accesses: List[AccessInfo] = []
        self._ctrl_depth = 0
        self._special_cache: Dict[str, Reg] = {}
        self._built = False
        # Predicate provenance: pred-register index -> ("cmp", op, lhs
        # expr, rhs expr), consumed by the may-race pass to recover the
        # thread set an if_/pred guard admits.  An overwritten register
        # loses its entry (see _write_expr).
        self._setp_info: Dict[int, tuple] = {}
        # Active control-flow guards, innermost last; every recorded
        # access snapshots this stack (AccessInfo.guards).
        self._guard_stack: List[tuple] = []

    # -- registers & operands --------------------------------------------------

    def _fresh(self, expr: exprs.Expr) -> Reg:
        reg = Reg(self._nreg)
        self._nreg += 1
        self._exprs[reg.index] = expr
        self._reg_depth[reg.index] = self._ctrl_depth
        return reg

    def _operand(self, value: Operand) -> Union[Reg, Imm, Special]:
        if isinstance(value, (Reg, Special)):
            return value
        if isinstance(value, (int, float)):
            return Imm(value)
        raise IsaError(f"bad operand {value!r}")

    def _expr_of(self, value: Operand) -> exprs.Expr:
        if isinstance(value, Reg):
            return self._exprs.get(value.index, exprs.Unknown("reg"))
        if isinstance(value, Special):
            return exprs.SpecialRef(value.name)
        if isinstance(value, int):
            return exprs.Const(value)
        return exprs.Unknown("float")

    def _param_of(self, value: Operand) -> Optional[str]:
        if isinstance(value, Reg):
            return self._ptr_param.get(value.index)
        return None

    # -- kernel interface --------------------------------------------------------

    def arg_ptr(self, name: str, read_only: bool = False) -> Reg:
        """Declare a buffer argument; returns the register holding its
        (driver-tagged) base pointer."""
        self._params.append(KernelParam(name=name, kind="buffer",
                                        read_only=read_only))
        reg = self._fresh(exprs.ArgRef(name))
        self._arg_regs[name] = reg.index
        self._ptr_param[reg.index] = name
        return reg

    def arg_scalar(self, name: str, max_value: Optional[int] = None) -> Reg:
        """Declare a scalar argument.  ``max_value`` models the host-code
        analysis bound of §5.3.2 (e.g. a size the host never exceeds)."""
        self._params.append(KernelParam(name=name, kind="scalar",
                                        max_value=max_value))
        reg = self._fresh(exprs.ArgRef(name))
        self._arg_regs[name] = reg.index
        return reg

    def local_var(self, name: str, words_per_thread: int) -> LocalHandle:
        """Declare a local-memory variable (its own protected region)."""
        self._locals.append(LocalVar(name=name,
                                     words_per_thread=words_per_thread))
        pname = f"__local_{name}"
        reg = self._fresh(exprs.ArgRef(pname))
        self._arg_regs[pname] = reg.index
        self._ptr_param[reg.index] = pname
        return LocalHandle(name=name, base=reg,
                           words_per_thread=words_per_thread)

    def shared_mem(self, nbytes: int) -> int:
        """Reserve workgroup shared memory; returns its base offset (0)."""
        base = self._shared_bytes
        self._shared_bytes += nbytes
        return base

    # -- specials ------------------------------------------------------------------

    def _special(self, name: str) -> Reg:
        cached = self._special_cache.get(name)
        if cached is not None:
            return cached
        reg = self._fresh(exprs.SpecialRef(name))
        self._emit(Instr("mov", dst=reg, srcs=(Special(name),)))
        self._special_cache[name] = reg
        return reg

    def tid(self) -> Reg:
        return self._special("tid")

    def ctaid(self) -> Reg:
        return self._special("ctaid")

    def ntid(self) -> Reg:
        return self._special("ntid")

    def nctaid(self) -> Reg:
        return self._special("nctaid")

    def gtid(self) -> Reg:
        return self._special("gtid")

    def lane(self) -> Reg:
        return self._special("lane")

    def gsize(self) -> Reg:
        """Total launched threads = ntid * nctaid."""
        cached = self._special_cache.get("gsize")
        if cached is not None:
            return cached
        reg = self.mul(self.ntid(), self.nctaid())
        self._special_cache["gsize"] = reg
        return reg

    # -- ALU helpers ----------------------------------------------------------------

    def _emit(self, instr: Instr) -> None:
        if self._built:
            raise IsaError("builder already finalised")
        self._instrs.append(instr)

    def _write_expr(self, reg: Reg, expr: exprs.Expr) -> None:
        self._setp_info.pop(reg.index, None)
        created_at = self._reg_depth.get(reg.index, 0)
        if self._ctrl_depth > created_at:
            # Conditional / loop-carried definition: statically opaque.
            self._exprs[reg.index] = exprs.Unknown("loop-carried")
        else:
            self._exprs[reg.index] = expr

    def _alu(self, op: str, a: Operand, b: Operand = None, c: Operand = None,
             out: Optional[Reg] = None, expr_op: Optional[str] = None,
             pred: Optional[Reg] = None) -> Reg:
        srcs = tuple(self._operand(x) for x in (a, b, c) if x is not None)
        if expr_op is None:
            expr = exprs.Unknown(op)
        elif expr_op == "copy":
            expr = self._expr_of(a)
        elif expr_op == "mad":
            expr = exprs.Bin("add",
                             exprs.Bin("mul", self._expr_of(a), self._expr_of(b)),
                             self._expr_of(c))
        else:
            expr = exprs.Bin(expr_op, self._expr_of(a), self._expr_of(b))
        if out is None:
            dst = self._fresh(expr)
        else:
            dst = out
            self._write_expr(dst, expr)
        # Pointer-provenance propagation (following GEP base chains).
        if op in ("mov", "add", "sub", "mad"):
            src_param = self._param_of(a)
            if src_param is not None:
                self._ptr_param[dst.index] = src_param
        self._emit(Instr(op, dst=dst, srcs=srcs, pred=pred))
        return dst

    # Integer ops
    def mov(self, a: Operand, out: Optional[Reg] = None,
            pred: Optional[Reg] = None) -> Reg:
        return self._alu("mov", a, out=out, expr_op="copy", pred=pred)

    def add(self, a, b, out=None, pred=None) -> Reg:
        return self._alu("add", a, b, out=out, expr_op="add", pred=pred)

    def sub(self, a, b, out=None, pred=None) -> Reg:
        return self._alu("sub", a, b, out=out, expr_op="sub", pred=pred)

    def mul(self, a, b, out=None, pred=None) -> Reg:
        return self._alu("mul", a, b, out=out, expr_op="mul", pred=pred)

    def mad(self, a, b, c, out=None, pred=None) -> Reg:
        """dst = a * b + c (the IMAD of Figure 3d)."""
        return self._alu("mad", a, b, c, out=out, expr_op="mad", pred=pred)

    def div(self, a, b, out=None, pred=None) -> Reg:
        return self._alu("div", a, b, out=out, expr_op="div", pred=pred)

    def mod(self, a, b, out=None, pred=None) -> Reg:
        return self._alu("mod", a, b, out=out, expr_op="mod", pred=pred)

    def min_(self, a, b, out=None, pred=None) -> Reg:
        return self._alu("min", a, b, out=out, expr_op="min", pred=pred)

    def max_(self, a, b, out=None, pred=None) -> Reg:
        return self._alu("max", a, b, out=out, expr_op="max", pred=pred)

    def and_(self, a, b, out=None, pred=None) -> Reg:
        return self._alu("and", a, b, out=out, expr_op="and", pred=pred)

    def or_(self, a, b, out=None, pred=None) -> Reg:
        return self._alu("or", a, b, out=out, expr_op=None, pred=pred)

    def xor(self, a, b, out=None, pred=None) -> Reg:
        return self._alu("xor", a, b, out=out, expr_op=None, pred=pred)

    def shl(self, a, b, out=None, pred=None) -> Reg:
        return self._alu("shl", a, b, out=out, expr_op="shl", pred=pred)

    def shr(self, a, b, out=None, pred=None) -> Reg:
        return self._alu("shr", a, b, out=out, expr_op="shr", pred=pred)

    # Float ops (statically opaque as indices)
    def fadd(self, a, b, out=None, pred=None) -> Reg:
        return self._alu("fadd", a, b, out=out, pred=pred)

    def fsub(self, a, b, out=None, pred=None) -> Reg:
        return self._alu("fsub", a, b, out=out, pred=pred)

    def fmul(self, a, b, out=None, pred=None) -> Reg:
        return self._alu("fmul", a, b, out=out, pred=pred)

    def fmad(self, a, b, c, out=None, pred=None) -> Reg:
        return self._alu("fmad", a, b, c, out=out, pred=pred)

    def fdiv(self, a, b, out=None, pred=None) -> Reg:
        return self._alu("fdiv", a, b, out=out, pred=pred)

    def fsqrt(self, a, out=None, pred=None) -> Reg:
        return self._alu("fsqrt", a, out=out, pred=pred)

    def fexp(self, a, out=None, pred=None) -> Reg:
        return self._alu("fexp", a, out=out, pred=pred)

    def flog(self, a, out=None, pred=None) -> Reg:
        return self._alu("flog", a, out=out, pred=pred)

    def fmin(self, a, b, out=None, pred=None) -> Reg:
        return self._alu("fmin", a, b, out=out, pred=pred)

    def fmax(self, a, b, out=None, pred=None) -> Reg:
        return self._alu("fmax", a, b, out=out, pred=pred)

    # Predicates
    def setp(self, cmp: str, a: Operand, b: Operand,
             out: Optional[Reg] = None) -> Reg:
        if cmp not in CMP_OPS:
            raise IsaError(f"bad comparison {cmp!r}")
        srcs = (self._operand(a), self._operand(b))
        dst = out if out is not None else self._fresh(exprs.Unknown("pred"))
        if out is not None:
            self._write_expr(dst, exprs.Unknown("pred"))
        self._emit(Instr("setp", dst=dst, srcs=srcs, cmp=cmp))
        self._setp_info[dst.index] = ("cmp", cmp, self._expr_of(a),
                                      self._expr_of(b))
        return dst

    def not_(self, p: Reg, out: Optional[Reg] = None) -> Reg:
        dst = self._alu("not", p, out=out)
        info = self._setp_info.get(p.index) if isinstance(p, Reg) else None
        if info is not None and info[0] in ("cmp", "notcmp"):
            flipped = "notcmp" if info[0] == "cmp" else "cmp"
            self._setp_info[dst.index] = (flipped,) + info[1:]
        return dst

    def sel(self, pred: Reg, a: Operand, b: Operand,
            out: Optional[Reg] = None) -> Reg:
        srcs = (self._operand(pred), self._operand(a), self._operand(b))
        dst = out if out is not None else self._fresh(exprs.Unknown("sel"))
        if out is not None:
            self._write_expr(dst, exprs.Unknown("sel"))
        self._emit(Instr("sel", dst=dst, srcs=srcs))
        return dst

    def assign(self, dst: Reg, src: Operand) -> Reg:
        """Overwrite an existing register (loop counters, accumulators)."""
        return self.mov(src, out=dst)

    # -- memory ------------------------------------------------------------------

    def _record_access(self, param: Optional[str], space: str, is_store: bool,
                       offset: Operand, dtype: str,
                       pred: Optional[Reg]) -> int:
        access_id = len(self._accesses)
        guards = list(self._guard_stack)
        if pred is not None:
            info = self._setp_info.get(pred.index)
            guards.append(info if info is not None else ("opaque",))
        self._accesses.append(AccessInfo(
            access_id=access_id,
            param=param,
            space=space,
            is_store=is_store,
            offset_expr=self._expr_of(offset),
            dtype=dtype,
            predicated=pred is not None,
            guards=tuple(guards),
        ))
        return access_id

    def ld(self, base: Reg, offset: Operand, dtype: str = "f32",
           pred: Optional[Reg] = None, space: str = "global") -> Reg:
        """Load through pointer ``base`` at byte ``offset``."""
        if dtype not in DTYPE_SIZE:
            raise IsaError(f"bad dtype {dtype!r}")
        param = self._param_of(base)
        access_id = self._record_access(param, space, False, offset, dtype, pred)
        dst = self._fresh(exprs.Unknown("load"))
        self._emit(Instr("ld", dst=dst, srcs=(base, self._operand(offset)),
                         pred=pred, space=space, dtype=dtype,
                         access_id=access_id, param=param))
        return dst

    def st(self, base: Reg, offset: Operand, value: Operand,
           dtype: str = "f32", pred: Optional[Reg] = None,
           space: str = "global") -> None:
        """Store ``value`` through pointer ``base`` at byte ``offset``."""
        if dtype not in DTYPE_SIZE:
            raise IsaError(f"bad dtype {dtype!r}")
        param = self._param_of(base)
        access_id = self._record_access(param, space, True, offset, dtype, pred)
        self._emit(Instr("st", srcs=(base, self._operand(offset),
                                     self._operand(value)),
                         pred=pred, space=space, dtype=dtype,
                         access_id=access_id, param=param))

    def ld_idx(self, base: Reg, index: Operand, dtype: str = "f32",
               pred: Optional[Reg] = None, space: str = "global") -> Reg:
        """Load element ``index`` (emits the address-computation multiply)."""
        offset = self.mul(index, DTYPE_SIZE[dtype])
        return self.ld(base, offset, dtype=dtype, pred=pred, space=space)

    def ld_const(self, base: Reg, index: Operand, dtype: str = "f32",
                 pred: Optional[Reg] = None) -> Reg:
        """Load from constant memory (per-core constant cache)."""
        return self.ld_idx(base, index, dtype=dtype, pred=pred,
                           space="const")

    def ld_tex(self, base: Reg, index: Operand, dtype: str = "f32",
               pred: Optional[Reg] = None) -> Reg:
        """Load through the texture path (read-only, texture cache)."""
        return self.ld_idx(base, index, dtype=dtype, pred=pred,
                           space="texture")

    def st_idx(self, base: Reg, index: Operand, value: Operand,
               dtype: str = "f32", pred: Optional[Reg] = None) -> None:
        offset = self.mul(index, DTYPE_SIZE[dtype])
        self.st(base, offset, value, dtype=dtype, pred=pred)

    def _local_offset(self, var: LocalHandle, word: Operand) -> Reg:
        # Interleaved layout (§3.1): word w of thread t lives at
        # base + (w * total_threads + gtid) * 4.
        return self.mul(self.mad(word, self.gsize(), self.gtid()), 4)

    def ld_local(self, var: LocalHandle, word: Operand,
                 dtype: str = "f32", pred: Optional[Reg] = None) -> Reg:
        """Load 32-bit word ``word`` of this thread's local variable."""
        offset = self._local_offset(var, word)
        return self.ld(var.base, offset, dtype=dtype, pred=pred, space="local")

    def st_local(self, var: LocalHandle, word: Operand, value: Operand,
                 dtype: str = "f32", pred: Optional[Reg] = None) -> None:
        offset = self._local_offset(var, word)
        self.st(var.base, offset, value, dtype=dtype, pred=pred, space="local")

    def ld_shared(self, offset: Operand, dtype: str = "f32",
                  pred: Optional[Reg] = None) -> Reg:
        """Load from workgroup shared memory (on-chip, unprotected)."""
        access_id = self._record_access(None, "shared", False, offset,
                                        dtype, pred)
        dst = self._fresh(exprs.Unknown("load"))
        zero = self._operand(0)
        self._emit(Instr("ld", dst=dst, srcs=(zero, self._operand(offset)),
                         pred=pred, space="shared", dtype=dtype,
                         access_id=access_id))
        return dst

    def st_shared(self, offset: Operand, value: Operand, dtype: str = "f32",
                  pred: Optional[Reg] = None) -> None:
        access_id = self._record_access(None, "shared", True, offset,
                                        dtype, pred)
        zero = self._operand(0)
        self._emit(Instr("st", srcs=(zero, self._operand(offset),
                                     self._operand(value)),
                         pred=pred, space="shared", dtype=dtype,
                         access_id=access_id))

    def malloc(self, size: Operand) -> Reg:
        """Device-side heap allocation (per active lane), returns pointers
        tagged with the heap's preassigned buffer ID (§5.2.1)."""
        dst = self._fresh(exprs.Unknown("malloc"))
        self._ptr_param[dst.index] = "__heap"
        self._emit(Instr("malloc", dst=dst, srcs=(self._operand(size),)))
        return dst

    # -- control flow ----------------------------------------------------------------

    @contextmanager
    def if_(self, pred: Reg):
        """Structured divergence: lanes failing ``pred`` are masked off."""
        self._emit(Instr("if", srcs=(pred,)))
        self._ctrl_depth += 1
        info = self._setp_info.get(pred.index)
        self._guard_stack.append(info if info is not None else ("opaque",))
        try:
            yield
        finally:
            self._guard_stack.pop()
            self._ctrl_depth -= 1
            self._emit(Instr("endif"))

    def else_mark(self) -> None:
        """Flip to the complementary mask inside an ``if_`` block."""
        self._emit(Instr("else"))
        if self._guard_stack:
            top = self._guard_stack[-1]
            if top[0] in ("cmp", "notcmp"):
                flipped = "notcmp" if top[0] == "cmp" else "cmp"
                self._guard_stack[-1] = (flipped,) + top[1:]
            else:
                self._guard_stack[-1] = ("opaque",)

    @contextmanager
    def loop(self, count: Operand):
        """Uniform counted loop; yields the induction-variable register
        whose static range is ``[0, count)``."""
        induction = self._fresh(exprs.RangeVal(self._expr_of(count)))
        self._emit(Instr("loop", dst=induction,
                         srcs=(self._operand(count),)))
        self._ctrl_depth += 1
        self._guard_stack.append(("loop",))
        try:
            yield induction
        finally:
            self._guard_stack.pop()
            self._ctrl_depth -= 1
            self._emit(Instr("endloop", dst=induction))

    @contextmanager
    def while_(self, pred: Reg):
        """Divergent loop: lanes stay active while ``pred`` holds; the body
        must refresh ``pred``."""
        self._emit(Instr("while", srcs=(pred,)))
        self._ctrl_depth += 1
        self._guard_stack.append(("while",))
        try:
            yield
        finally:
            self._guard_stack.pop()
            self._ctrl_depth -= 1
            self._emit(Instr("endwhile", srcs=(pred,)))

    def bar(self) -> None:
        """Workgroup barrier."""
        self._emit(Instr("bar"))

    # -- finalisation -------------------------------------------------------------------

    def build(self) -> Kernel:
        """Finalise into a validated :class:`Kernel`."""
        if not self._instrs or self._instrs[-1].op != "exit":
            self._emit(Instr("exit"))
        self._built = True
        return Kernel(
            name=self.name,
            instructions=list(self._instrs),
            num_regs=self._nreg,
            params=list(self._params),
            local_vars=list(self._locals),
            shared_bytes=self._shared_bytes,
            accesses=list(self._accesses),
            arg_regs=dict(self._arg_regs),
        )
