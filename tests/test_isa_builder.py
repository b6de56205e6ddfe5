"""Tests for the ISA and the KernelBuilder DSL."""

import pytest

from repro.errors import IsaError
from repro.isa import exprs
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import Imm, Instr, Reg
from repro.isa.program import Kernel, KernelParam, MAX_KERNEL_ARGS


class TestInstr:
    def test_unknown_opcode(self):
        with pytest.raises(ValueError):
            Instr("frobnicate")

    def test_cvt_is_not_an_opcode(self):
        """Neither engine executes ``cvt``, so it must not validate."""
        with pytest.raises(ValueError, match="unknown opcode 'cvt'"):
            Instr("cvt", dst=Reg(0), srcs=(Reg(1),))

    def test_mem_needs_space(self):
        with pytest.raises(ValueError):
            Instr("ld", dst=Reg(0), srcs=(Reg(1), Imm(0)))

    def test_setp_needs_cmp(self):
        with pytest.raises(ValueError):
            Instr("setp", dst=Reg(0), srcs=(Reg(1), Reg(2)))

    def test_categories(self):
        assert Instr("add", dst=Reg(0), srcs=(Reg(0), Imm(1))).category == "alu"
        assert Instr("fsqrt", dst=Reg(0), srcs=(Reg(0),)).category == "sfu"
        assert Instr("bar").category == "ctrl"


class TestBuilderStructure:
    def test_simple_kernel_builds(self):
        b = KernelBuilder("k")
        a = b.arg_ptr("a")
        v = b.ld_idx(a, b.gtid(), dtype="f32")
        b.st_idx(a, b.gtid(), v, dtype="f32")
        kernel = b.build()
        assert kernel.instructions[-1].op == "exit"
        assert kernel.static_mem_instructions() == 2
        assert len(kernel.accesses) == 2

    def test_if_blocks_matched(self):
        b = KernelBuilder("k")
        p = b.setp("lt", b.gtid(), 10)
        with b.if_(p):
            b.mov(1)
        kernel = b.build()
        if_pc = next(i for i, ins in enumerate(kernel.instructions)
                     if ins.op == "if")
        assert kernel.instructions[kernel.flow[if_pc]].op == "endif"

    def test_loop_yields_induction_register(self):
        b = KernelBuilder("k")
        with b.loop(5) as i:
            b.add(i, 1)
        kernel = b.build()
        loop = next(ins for ins in kernel.instructions if ins.op == "loop")
        assert loop.dst is not None

    def test_nested_structures(self):
        b = KernelBuilder("k")
        p = b.setp("lt", b.tid(), 8)
        with b.if_(p):
            with b.loop(3):
                with b.if_(p):
                    b.mov(0)
        kernel = b.build()   # validates nesting
        assert sum(1 for i in kernel.instructions if i.op == "endif") == 2

    def test_else_mark(self):
        b = KernelBuilder("k")
        p = b.setp("lt", b.tid(), 8)
        with b.if_(p):
            b.mov(1)
            b.else_mark()
            b.mov(2)
        kernel = b.build()
        if_pc = next(i for i, ins in enumerate(kernel.instructions)
                     if ins.op == "if")
        assert if_pc in kernel.else_of

    def test_build_finalises(self):
        b = KernelBuilder("k")
        b.mov(1)
        b.build()
        with pytest.raises(IsaError):
            b.mov(2)

    def test_special_caching(self):
        b = KernelBuilder("k")
        assert b.gtid() == b.gtid()   # single materialisation


class TestValidation:
    def test_unterminated_if_rejected(self):
        instrs = [Instr("if", srcs=(Reg(0),))]
        with pytest.raises(IsaError):
            Kernel(name="bad", instructions=instrs, num_regs=1)

    def test_mismatched_close_rejected(self):
        instrs = [Instr("loop", dst=Reg(0), srcs=(Imm(2),)),
                  Instr("endif")]
        with pytest.raises(IsaError):
            Kernel(name="bad", instructions=instrs, num_regs=1)

    def test_register_out_of_range(self):
        instrs = [Instr("mov", dst=Reg(5), srcs=(Imm(1),))]
        with pytest.raises(IsaError):
            Kernel(name="bad", instructions=instrs, num_regs=1)

    def test_too_many_args(self):
        params = [KernelParam(name=f"p{i}", kind="scalar")
                  for i in range(MAX_KERNEL_ARGS + 1)]
        with pytest.raises(IsaError):
            Kernel(name="bad", instructions=[Instr("exit")],
                   num_regs=0, params=params)

    def test_duplicate_params(self):
        params = [KernelParam(name="x", kind="scalar"),
                  KernelParam(name="x", kind="buffer")]
        with pytest.raises(IsaError):
            Kernel(name="bad", instructions=[Instr("exit")],
                   num_regs=0, params=params)

    def test_double_else_rejected(self):
        instrs = [Instr("if", srcs=(Reg(0),)), Instr("else"),
                  Instr("else"), Instr("endif")]
        with pytest.raises(IsaError):
            Kernel(name="bad", instructions=instrs, num_regs=1)


class TestExprTracking:
    def test_affine_expression_recorded(self):
        b = KernelBuilder("k")
        a = b.arg_ptr("a")
        n = b.arg_scalar("n")
        idx = b.mad(b.gtid(), n, 3)
        b.st(a, b.mul(idx, 4), 1.0, dtype="f32")
        kernel = b.build()
        expr = kernel.accesses[0].offset_expr
        assert isinstance(expr, exprs.Bin)
        assert "gtid" in repr(expr)

    def test_load_result_is_unknown(self):
        b = KernelBuilder("k")
        a = b.arg_ptr("a")
        j = b.ld_idx(a, b.gtid(), dtype="i32")
        b.st_idx(a, j, 0, dtype="i32")
        kernel = b.build()
        store = kernel.accesses[-1]
        assert "load" in repr(store.offset_expr) or "?" in repr(store.offset_expr)

    def test_loop_carried_mutation_is_unknown(self):
        """Soundness: registers mutated inside loops are opaque."""
        b = KernelBuilder("k")
        a = b.arg_ptr("a")
        i = b.mov(0)
        with b.loop(10):
            b.add(i, 7, out=i)    # loop-carried
        b.st(a, i, 0, dtype="f32")
        kernel = b.build()
        assert isinstance(kernel.accesses[0].offset_expr, exprs.Unknown)

    def test_induction_variable_has_range(self):
        b = KernelBuilder("k")
        a = b.arg_ptr("a")
        with b.loop(10) as i:
            b.st(a, b.mul(i, 4), 0, dtype="f32")
        kernel = b.build()
        assert isinstance(kernel.accesses[0].offset_expr, exprs.Bin)
        assert "iota" in repr(kernel.accesses[0].offset_expr)

    def test_pointer_param_tracked(self):
        b = KernelBuilder("k")
        a = b.arg_ptr("mybuf")
        b.ld(a, 0, dtype="f32")
        kernel = b.build()
        assert kernel.accesses[0].param == "mybuf"

    def test_pointer_provenance_through_mov(self):
        b = KernelBuilder("k")
        a = b.arg_ptr("src")
        alias = b.mov(a)
        b.ld(alias, 0, dtype="f32")
        kernel = b.build()
        assert kernel.accesses[0].param == "src"


class TestLocalAndShared:
    def test_local_var_declares_pseudo_param(self):
        b = KernelBuilder("k")
        var = b.local_var("tmp", words_per_thread=4)
        b.st_local(var, 0, 1.0)
        kernel = b.build()
        assert kernel.local_vars[0].name == "tmp"
        assert "__local_tmp" in kernel.arg_regs
        assert kernel.accesses[0].param == "__local_tmp"
        assert kernel.accesses[0].space == "local"

    def test_shared_mem_reservation(self):
        b = KernelBuilder("k")
        base0 = b.shared_mem(256)
        base1 = b.shared_mem(128)
        assert (base0, base1) == (0, 256)
        b.st_shared(0, 1.0)
        kernel = b.build()
        assert kernel.shared_bytes == 384
        assert kernel.accesses[0].space == "shared"

    def test_dtype_validation(self):
        b = KernelBuilder("k")
        a = b.arg_ptr("a")
        with pytest.raises(IsaError):
            b.ld(a, 0, dtype="f64")
