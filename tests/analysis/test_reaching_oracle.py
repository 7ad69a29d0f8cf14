"""Demand-driven reaching definitions against a whole-function solve.

``ReachingDefinitions`` answers each query with a backward walk.  The
oracle below is the classic forward may-analysis: a round-robin fixed
point over (entry, location) definition sites for the whole function.
The two must agree on every (instruction, used location) pair.
"""

from typing import Dict, List, Set, Tuple

import pytest

from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.dataflow import (ReachingDefinitions, location_defs,
                                     location_uses)
from repro.ir import parse_unit
from repro.ir.entries import InstructionEntry
from repro.workloads.corpus import CorpusConfig, generate_corpus_text


class FixedPointReachingDefs:
    """Reference: forward may-analysis solved for every location at once."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        self.sites: List[Tuple[InstructionEntry, str]] = []
        site_ids: Dict[Tuple[int, str], int] = {}
        defs_by_loc: Dict[str, Set[int]] = {}
        gen: Dict[int, Set[int]] = {}
        kill: Dict[int, Set[str]] = {}
        for block in cfg.blocks:
            last: Dict[str, int] = {}
            for entry in block.entries:
                for loc in location_defs(entry.insn):
                    key = (id(entry), loc)
                    if key not in site_ids:
                        site_ids[key] = len(self.sites)
                        self.sites.append((entry, loc))
                        defs_by_loc.setdefault(loc, set()).add(site_ids[key])
                    last[loc] = site_ids[key]
            gen[block.index] = set(last.values())
            kill[block.index] = set(last)
        self.in_sets = {b.index: set() for b in cfg.blocks}
        out_sets = {b.index: set() for b in cfg.blocks}
        changed = True
        while changed:
            changed = False
            for block in cfg.blocks:
                new_in: Set[int] = set()
                for pred in block.predecessors:
                    new_in |= out_sets[pred.index]
                killed: Set[int] = set()
                for loc in kill[block.index]:
                    killed |= defs_by_loc[loc]
                new_out = gen[block.index] | (new_in - killed)
                if new_in != self.in_sets[block.index] \
                        or new_out != out_sets[block.index]:
                    self.in_sets[block.index] = new_in
                    out_sets[block.index] = new_out
                    changed = True

    def reaching_defs(self, block, at, loc) -> Set[int]:
        live = {id(self.sites[s][0]) for s in self.in_sets[block.index]
                if self.sites[s][1] == loc}
        for entry in block.entries:
            if entry is at:
                break
            if loc in location_defs(entry.insn):
                live = {id(entry)}
        return live


def assert_agrees(cfg: CFG) -> int:
    """Compare every (instruction, used location); returns the count."""
    oracle = FixedPointReachingDefs(cfg)
    demand = ReachingDefinitions(cfg)
    checked = 0
    for block in cfg.blocks:
        for entry in block.entries:
            for loc in sorted(location_uses(entry.insn)):
                got = demand.reaching_defs(entry, loc)
                assert len(got) == len({id(e) for e in got})
                assert {id(e) for e in got} \
                    == oracle.reaching_defs(block, entry, loc), \
                    "%s at %s" % (loc, entry.to_asm())
                checked += 1
    return checked


@pytest.mark.parametrize("config", [
    CorpusConfig(seed=11, scale=0.0005, functions=2),
    CorpusConfig(seed=12, scale=0.0008, functions=3),
    CorpusConfig(seed=13, scale=0.0005, functions=1),
    CorpusConfig(seed=3, scale=0.01, indirect_only=True),
], ids=["corpus11", "corpus12", "corpus13", "indirect3"])
def test_agrees_on_corpus_units(config):
    unit = parse_unit(generate_corpus_text(config))
    checked = sum(assert_agrees(build_cfg(function, unit))
                  for function in unit.functions)
    assert checked > 100


def cfg_of(source: str) -> CFG:
    unit = parse_unit(source)
    return build_cfg(unit.functions[0], unit)


LOOP = """
.text
f:
    movl $0, %ecx
    movl $1, %eax
.Lloop:
    addl %eax, %ecx
    cmpl $10, %ecx
    jge .Lout
    movl $2, %eax
    jmp .Lloop
.Lout:
    movl %ecx, %edx
    ret
"""

DIAMOND = """
.text
f:
    testl %edi, %edi
    je .Lelse
    movl $1, %eax
    jmp .Ljoin
.Lelse:
    movl $2, %ebx
.Ljoin:
    addl %eax, %ebx
    ret
"""

SELF_LOOP = """
.text
f:
    movl $5, %ecx
.Lspin:
    decl %ecx
    jne .Lspin
    movl %ecx, %eax
    ret
"""


@pytest.mark.parametrize("source", [LOOP, DIAMOND, SELF_LOOP],
                         ids=["loop", "diamond", "self_loop"])
def test_agrees_on_hand_built_cfgs(source):
    assert assert_agrees(cfg_of(source)) > 0


def test_loop_header_sees_entry_and_back_edge_defs():
    cfg = cfg_of(LOOP)
    header = cfg.label_to_block[".Lloop"]
    defs = ReachingDefinitions(cfg).reaching_defs(header.entries[0], "rax")
    assert sorted(e.to_asm().strip() for e in defs) \
        == ["movl $1, %eax", "movl $2, %eax"]


def test_diamond_merges_a_def_with_none():
    cfg = cfg_of(DIAMOND)
    join = cfg.label_to_block[".Ljoin"]
    rd = ReachingDefinitions(cfg)
    # %eax is set on one arm only; %ebx on the other.
    assert [e.to_asm().strip()
            for e in rd.reaching_defs(join.entries[0], "rax")] \
        == ["movl $1, %eax"]
    assert rd.unique_reaching_def(join.entries[0], "rbx") is not None


def test_self_loop_reaches_itself():
    cfg = cfg_of(SELF_LOOP)
    spin = cfg.label_to_block[".Lspin"]
    dec = spin.entries[0]
    defs = ReachingDefinitions(cfg).reaching_defs(dec, "rcx")
    assert sorted(e.to_asm().strip() for e in defs) \
        == ["decl %ecx", "movl $5, %ecx"]
