"""Tests for the side-effect DSL, generator, and query layer."""

import pytest

from repro.x86 import sideeffects
from repro.x86.parser import parse_instruction
from repro.x86.sideeffects_dsl import SpecError, parse_builtin_spec, parse_spec
from repro.x86.sideeffects_gen import render_tables


def insn(text):
    return parse_instruction(text).insn


class TestDsl:
    def test_builtin_spec_parses(self):
        specs = parse_builtin_spec()
        assert len(specs) > 60
        bases = {s.base for s in specs}
        assert {"add", "mov", "test", "cmp", "imul", "call"} <= bases

    def test_arity_variants(self):
        specs = {(s.base, s.arity) for s in parse_builtin_spec()}
        assert ("imul", 1) in specs
        assert ("imul", 2) in specs
        assert ("imul", 3) in specs

    def test_bad_flag_name_rejected(self):
        with pytest.raises(SpecError):
            parse_spec("insn foo flags(w=QF)")

    def test_bad_item_rejected(self):
        with pytest.raises(SpecError):
            parse_spec("insn foo use(bogus!)")

    def test_generated_tables_are_stable(self):
        """The checked-in tables must match regeneration from the DSL."""
        import os
        import repro.x86._sideeffects_tables as tables_mod

        expected = render_tables(parse_builtin_spec())
        with open(tables_mod.__file__.rstrip("c")) as handle:
            assert handle.read() == expected


class TestRegUses:
    def test_alu_uses_both(self):
        assert sideeffects.reg_uses(insn("addl %eax, %ebx")) \
            == {"rax", "rbx"}

    def test_mov_uses_source_only(self):
        assert sideeffects.reg_uses(insn("movl %eax, %ebx")) == {"rax"}

    def test_memory_address_registers_are_uses(self):
        uses = sideeffects.reg_uses(insn("movl %ecx, 8(%rax,%rbx,2)"))
        assert {"rcx", "rax", "rbx"} <= uses

    def test_shift_by_cl(self):
        assert "rcx" in sideeffects.reg_uses(insn("shll %cl, %edx"))

    def test_implicit_uses_of_division(self):
        uses = sideeffects.reg_uses(insn("idivl %esi"))
        assert {"rax", "rdx", "rsi"} <= uses

    def test_push_uses_rsp(self):
        assert {"rax", "rsp"} <= sideeffects.reg_uses(insn("push %rax"))


class TestRegDefs:
    def test_alu_defines_dest(self):
        assert sideeffects.reg_defs(insn("addl %eax, %ebx")) == {"rbx"}

    def test_cmp_defines_nothing(self):
        assert sideeffects.reg_defs(insn("cmpl %eax, %ebx")) == set()

    def test_store_defines_no_register(self):
        assert sideeffects.reg_defs(insn("movl %eax, (%rbx)")) == set()

    def test_one_operand_imul_defines_rax_rdx(self):
        assert sideeffects.reg_defs(insn("imull %ecx")) == {"rax", "rdx"}

    def test_call_clobbers_caller_saved(self):
        defs = sideeffects.reg_defs(insn("call f"))
        assert {"rax", "rcx", "rdx", "r11"} <= defs
        assert "rbx" not in defs

    def test_pop_defines_dest_and_rsp(self):
        assert sideeffects.reg_defs(insn("pop %rbx")) == {"rbx", "rsp"}


class TestFlags:
    def test_add_writes_all(self):
        assert sideeffects.flags_written(insn("addl $1, %eax")) \
            == {"CF", "PF", "AF", "ZF", "SF", "OF"}

    def test_mov_writes_none(self):
        assert sideeffects.flags_written(insn("movl $1, %eax")) == frozenset()

    def test_inc_preserves_cf(self):
        assert "CF" not in sideeffects.flags_written(insn("incl %eax"))

    def test_logic_clears_cf_of(self):
        assert sideeffects.flags_cleared(insn("andl $1, %eax")) \
            == {"CF", "OF"}

    def test_result_flags(self):
        assert sideeffects.flags_result(insn("subl $1, %eax")) \
            == {"ZF", "SF", "PF"}
        assert sideeffects.flags_result(insn("movl $1, %eax")) == frozenset()

    def test_jcc_reads_resolved_cc(self):
        assert sideeffects.flags_read(insn("jg .L")) == {"ZF", "SF", "OF"}
        assert sideeffects.flags_read(insn("je .L")) == {"ZF"}

    def test_cmov_reads_cc(self):
        assert sideeffects.flags_read(insn("cmovel %eax, %ebx")) == {"ZF"}

    def test_adc_reads_cf(self):
        assert sideeffects.flags_read(insn("adcl $0, %eax")) == {"CF"}

    def test_imul_leaves_zf_undefined(self):
        assert "ZF" in sideeffects.flags_undefined(insn("imull %ecx, %eax"))


class TestBarriers:
    @pytest.mark.parametrize("text", ["call f", "ret", "syscall", "ud2"])
    def test_barriers(self, text):
        assert sideeffects.is_barrier(insn(text))

    @pytest.mark.parametrize("text", ["addl $1, %eax", "jmp .L", "nop"])
    def test_non_barriers(self, text):
        assert not sideeffects.is_barrier(insn(text))

    def test_unknown_instruction_raises(self):
        from repro.x86.instruction import Instruction
        bogus = Instruction("rep")      # parseable but has no table entry
        with pytest.raises(sideeffects.UnknownSideEffects):
            sideeffects.reg_uses(bogus)
        assert not sideeffects.has_side_effect_entry(bogus)
        # Unknown side effects are conservatively treated as barriers.
        assert sideeffects.is_barrier(bogus)


class TestSharedFacts:
    """Answers are derived once per (mnemonic, operand values) shape and
    shared: they must be immutable, and equal answers one object."""

    def test_results_are_immutable(self):
        i = insn("addl %eax, %ebx")
        for query in (sideeffects.reg_uses, sideeffects.reg_defs,
                      sideeffects.flags_read, sideeffects.flags_written,
                      sideeffects.flags_cleared, sideeffects.flags_result,
                      sideeffects.flags_undefined):
            result = query(i)
            assert isinstance(result, frozenset)
            with pytest.raises(AttributeError):
                result.add("rcx")

    def test_equal_answers_are_one_object(self):
        assert sideeffects.facts(insn("addl %eax, %ebx")) \
            is sideeffects.facts(insn("addl %eax, %ebx"))
        assert sideeffects.reg_uses(insn("movl %eax, %ebx")) \
            is sideeffects.reg_uses(insn("movq %rax, %rcx"))
        assert sideeffects.flags_written(insn("addl %eax, %ebx")) \
            is sideeffects.flags_written(insn("subq $1, %rcx"))

    def test_answers_follow_in_place_operand_rewrite(self):
        i = insn("movq 24(%rsp), %r11")
        assert sideeffects.reg_uses(i) == {"rsp"}
        i.operands = [insn("movq %r10, %rax").operands[0], i.operands[1]]
        assert sideeffects.reg_uses(i) == {"r10"}
        i.operands[1] = insn("movq %r10, %rax").operands[1]
        assert sideeffects.reg_defs(i) == {"rax"}

    def test_unknown_shape_is_remembered_as_unknown(self):
        from repro.x86.instruction import Instruction
        for _ in range(2):
            with pytest.raises(sideeffects.UnknownSideEffects):
                sideeffects.facts(Instruction("rep"))
            assert sideeffects.is_barrier(Instruction("rep"))
