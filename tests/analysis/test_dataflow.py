"""Tests for reaching definitions and liveness."""

import pytest

from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import (
    FLAG_PREFIX,
    Liveness,
    ReachingDefinitions,
    flag_loc,
    location_defs,
    location_uses,
)
from repro.ir import parse_unit
from repro.x86.parser import parse_instruction


def analysis_of(source):
    unit = parse_unit(source)
    cfg = build_cfg(unit.functions[0], unit)
    return unit, cfg


class TestLocations:
    def test_uses_include_flags(self):
        insn = parse_instruction("je .L").insn
        assert flag_loc("ZF") in location_uses(insn)

    def test_defs_include_undefined_flags(self):
        insn = parse_instruction("imull %ecx, %eax").insn
        assert flag_loc("ZF") in location_defs(insn)

    def test_register_aliasing(self):
        insn = parse_instruction("movl $1, %eax").insn
        assert "rax" in location_defs(insn)

    def test_answers_follow_redmov_operand_rewrite(self):
        # REDMOV rewrites the second load's operand list in place; the
        # same Instruction must then answer for its new operands.
        from repro.passes import run_passes
        from repro.x86 import sideeffects
        unit = parse_unit("""
.text
.type f, @function
f:
    movq 24(%rsp), %r10
    movq 24(%rsp), %r11
    ret
""")
        second = list(unit.functions[0].instructions())[1].insn
        assert sideeffects.reg_uses(second) == {"rsp"}
        assert location_defs(second) == {"r11"}
        result = run_passes(unit, "REDMOV")
        assert result.total("REDMOV", "rewritten") == 1
        assert str(second) == "movq %r10, %r11"
        assert sideeffects.reg_uses(second) == {"r10"}
        assert location_uses(second) == {"r10"}
        assert location_defs(second) == {"r11"}


class TestReachingDefinitions:
    def test_straight_line_unique_def(self):
        unit, cfg = analysis_of("""
.text
f:
    movl $1, %eax
    movl %eax, %ebx
    ret
""")
        entries = cfg.entry.entries
        rd = ReachingDefinitions(cfg)
        defs = rd.reaching_defs(entries[1], "rax")
        assert defs == [entries[0]]
        assert rd.unique_reaching_def(entries[1], "rax") is entries[0]

    def test_local_def_shadows(self):
        unit, cfg = analysis_of("""
.text
f:
    movl $1, %eax
    movl $2, %eax
    movl %eax, %ebx
    ret
""")
        entries = cfg.entry.entries
        rd = ReachingDefinitions(cfg)
        assert rd.reaching_defs(entries[2], "rax") == [entries[1]]

    def test_merge_yields_two_defs(self):
        unit, cfg = analysis_of("""
.text
f:
    je .Lalt
    movl $1, %eax
    jmp .Ljoin
.Lalt:
    movl $2, %eax
.Ljoin:
    movl %eax, %ebx
    ret
""")
        rd = ReachingDefinitions(cfg)
        join = cfg.label_to_block[".Ljoin"]
        use = join.entries[0]
        assert len(rd.reaching_defs(use, "rax")) == 2
        assert rd.unique_reaching_def(use, "rax") is None

    def test_call_kills_caller_saved(self):
        unit, cfg = analysis_of("""
.text
f:
    movl $1, %eax
    call g
    movl %eax, %ebx
    ret
""")
        rd = ReachingDefinitions(cfg)
        entries = cfg.entry.entries
        defs = rd.reaching_defs(entries[2], "rax")
        assert defs == [entries[1]]     # the call, not the mov


class TestLiveness:
    def test_use_makes_live(self):
        unit, cfg = analysis_of("""
.text
f:
    movl $1, %ecx
    movl %ecx, %eax
    ret
""")
        live = Liveness(cfg)
        block = cfg.entry
        assert "rcx" in live.live_after(block, block.entries[0])

    def test_dead_after_last_use(self):
        unit, cfg = analysis_of("""
.text
f:
    movl $1, %ecx
    movl %ecx, %eax
    movl $0, %ecx
    movl %ecx, %edx
    movl $0, %ecx
    ret
""")
        live = Liveness(cfg)
        block = cfg.entry
        # rcx is redefined at entries[2] before its next use, so it is
        # dead right after the first use.
        assert live.is_dead_after(block, block.entries[1], "rcx")
        # But live again between the redefinition and the second use.
        assert "rcx" in live.live_after(block, block.entries[2])

    def test_flags_live_between_cmp_and_jcc(self):
        unit, cfg = analysis_of("""
.text
f:
    cmpl $1, %eax
    nop
    je .L
.L:
    ret
""")
        live = Liveness(cfg)
        block = cfg.entry
        assert flag_loc("ZF") in live.live_after(block, block.entries[0])
        assert flag_loc("ZF") in live.live_after(block, block.entries[1])

    def test_flags_dead_after_consumer(self):
        unit, cfg = analysis_of("""
.text
f:
    cmpl $1, %eax
    je .L
    addl $1, %ebx
.L:
    ret
""")
        live = Liveness(cfg)
        # After the add (which rewrites flags) nothing reads flags.
        add_block = cfg.blocks[1]
        assert flag_loc("ZF") not in live.live_after(
            add_block, add_block.entries[0])

    def test_cross_block_liveness(self):
        unit, cfg = analysis_of("""
.text
f:
    movl $7, %esi
    je .Luse
    ret
.Luse:
    movl %esi, %eax
    ret
""")
        live = Liveness(cfg)
        assert "rsi" in live.live_out(cfg.entry)

    def test_exit_live_defaults(self):
        unit, cfg = analysis_of(".text\nf:\n    ret\n")
        live = Liveness(cfg)
        assert "rax" in live.exit_live        # return value register
