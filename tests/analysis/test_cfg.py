"""Tests for CFG construction and indirect-branch resolution."""

import pytest

from repro.analysis.cfg import build_cfg
from repro.ir import parse_unit


def cfg_of(source, name=None):
    unit = parse_unit(source)
    function = unit.functions[0] if name is None \
        else unit.function_named(name)
    return build_cfg(function, unit)


class TestBlockStructure:
    def test_straight_line_single_block(self):
        cfg = cfg_of(".text\nf:\n    nop\n    nop\n    ret\n")
        assert len(cfg.blocks) == 1
        assert cfg.blocks[0].successors == [cfg.exit]

    def test_labels_start_blocks(self):
        cfg = cfg_of(".text\nf:\n    nop\n.L1:\n    nop\n    ret\n")
        assert len(cfg.blocks) == 2

    def test_diamond(self):
        cfg = cfg_of("""
.text
f:
    testl %eax, %eax
    je .Lelse
    movl $1, %ebx
    jmp .Ldone
.Lelse:
    movl $2, %ebx
.Ldone:
    ret
""")
        assert len(cfg.blocks) == 4
        entry = cfg.entry
        assert len(entry.successors) == 2
        done = cfg.label_to_block[".Ldone"]
        assert len(done.predecessors) == 2

    def test_fallthrough_edges(self):
        cfg = cfg_of("""
.text
f:
    je .L1
    nop
.L1:
    ret
""")
        entry = cfg.entry
        targets = {id(s) for s in entry.successors}
        assert id(cfg.label_to_block[".L1"]) in targets
        assert len(entry.successors) == 2

    def test_call_does_not_end_block(self):
        cfg = cfg_of(".text\nf:\n    call g\n    nop\n    ret\n")
        assert len(cfg.blocks) == 1

    def test_loop_back_edge(self):
        cfg = cfg_of("""
.text
f:
.Ltop:
    subl $1, %eax
    jne .Ltop
    ret
""")
        top = cfg.label_to_block[".Ltop"]
        assert top in top.successors

    def test_reverse_postorder_starts_at_entry(self):
        cfg = cfg_of("""
.text
f:
    je .La
.Lb:
    ret
.La:
    jmp .Lb
""")
        order = cfg.reverse_postorder()
        assert order[0] is cfg.entry
        assert len(order) == len(cfg.blocks)


class TestBlockOf:
    SOURCE = """
.text
f:
    movl $1, %eax
    je .Lb
    movl %eax, %eax
.Lb:
    ret
"""

    def test_finds_each_entry_block(self):
        cfg = cfg_of(self.SOURCE)
        for block in cfg.blocks:
            for entry in block.entries:
                assert cfg.block_of(entry) is block

    def test_entry_deleted_from_its_block_has_none(self):
        # Passes delete from block.entries while they keep using the CFG.
        cfg = cfg_of(self.SOURCE)
        block = cfg.blocks[1]
        doomed = block.entries[0]
        block.entries.remove(doomed)
        assert cfg.block_of(doomed) is None
        assert cfg.block_of(cfg.blocks[2].entries[0]) is cfg.blocks[2]

    def test_foreign_entry_has_none(self):
        cfg = cfg_of(self.SOURCE)
        other = cfg_of(self.SOURCE)
        assert cfg.block_of(other.entry.entries[0]) is None


class TestIndirectResolution:
    OPERAND_PATTERN = """
.text
.type f, @function
f:
    andl $3, %eax
    jmp *.Ltab(,%rax,8)
.Lc0:
    ret
.Lc1:
    ret
.Lc2:
    ret
.Lc3:
    ret
.section .rodata
.Ltab:
    .quad .Lc0
    .quad .Lc1
    .quad .Lc2
    .quad .Lc3
"""

    REACHING_DEFS_PATTERN = """
.text
.type f, @function
f:
    andl $1, %eax
    leaq .Ltab(%rip), %rdx
    movq (%rdx,%rax,8), %rcx
    jmp *%rcx
.Lc0:
    ret
.Lc1:
    ret
.section .rodata
.Ltab:
    .quad .Lc0
    .quad .Lc1
"""

    HARD_PATTERN = """
.text
.type f, @function
f:
    testq %rbx, %rbx
    je .Lalt
    leaq .Ltab(%rip), %rdx
    jmp .Ljoin
.Lalt:
    leaq 8+.Ltab(%rip), %rdx
.Ljoin:
    movq (%rdx,%rax,8), %rcx
    jmp *%rcx
.Lc0:
    ret
.Lc1:
    ret
.section .rodata
.Ltab:
    .quad .Lc0
    .quad .Lc1
"""

    def test_operand_pattern_resolved(self):
        cfg = cfg_of(self.OPERAND_PATTERN)
        assert cfg.is_well_formed
        assert [tier for _, tier in cfg.resolved_branches] == ["operand"]
        branch_block = cfg.entry
        names = {s.labels[0] for s in branch_block.successors
                 if s is not cfg.exit}
        assert names == {".Lc0", ".Lc1", ".Lc2", ".Lc3"}

    def test_reaching_defs_pattern_resolved(self):
        cfg = cfg_of(self.REACHING_DEFS_PATTERN)
        assert cfg.is_well_formed
        assert [tier for _, tier in cfg.resolved_branches] \
            == ["reaching-defs"]

    def test_reaching_defs_tier_can_be_disabled(self):
        unit = parse_unit(self.REACHING_DEFS_PATTERN)
        cfg = build_cfg(unit.functions[0], unit, resolve_indirect=False)
        assert not cfg.is_well_formed

    def test_hard_pattern_flags_function(self):
        cfg = cfg_of(self.HARD_PATTERN)
        assert not cfg.is_well_formed
        assert cfg.function.flagged_unresolved_branch
        assert len(cfg.unresolved_branches) == 1

    def test_register_jump_without_table_unresolved(self):
        cfg = cfg_of(".text\nf:\n    jmp *%rax\n")
        assert not cfg.is_well_formed
