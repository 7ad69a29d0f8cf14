"""REDZEE — redundant zero-extension removal (paper §III.B.a).

GCC 4.3/4.4 "does not model sign- or zero-extension well", producing::

    andl $255, %eax
    mov  %eax, %eax      # meant to zero-extend; redundant

In x86-64, *every* write to a 32-bit register already zero-extends into the
full 64-bit register, so a ``mov %eXX, %eXX`` is redundant whenever the
most recent definition of the register was a 32-bit write.  If the last
definition was 64-bit (or unknown — e.g. an incoming argument), the move
truncates the upper half and must be kept.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.passes.base import MaoFunctionPass
from repro.passes.manager import register_func_pass
from repro.x86 import sideeffects
from repro.x86.instruction import Instruction
from repro.x86.operands import RegisterOperand


def _is_self_mov32(insn: Instruction) -> bool:
    if insn.base != "mov" or len(insn.operands) != 2:
        return False
    src, dst = insn.operands
    return (isinstance(src, RegisterOperand)
            and isinstance(dst, RegisterOperand)
            and src.reg.width == 32 and dst.reg.width == 32
            and src.reg.group == dst.reg.group)


def _def_width(insn: Instruction, group: str) -> Optional[int]:
    """Width of insn's write to *group* via a register destination."""
    dst = insn.dest
    if isinstance(dst, RegisterOperand) and dst.reg.group == group:
        if insn.base in ("movsx", "movzx"):
            return insn.info.extend[1]
        return dst.reg.width
    return None


@register_func_pass("REDZEE")
class RedundantZeroExtensionPass(MaoFunctionPass):
    """Delete ``mov %eXX, %eXX`` whose zero-extension already happened."""

    OPTIONS = {"count_only": False}

    def Go(self) -> bool:
        cfg = self.analyses.cfg()
        for block in cfg.blocks:
            last_def_width: Dict[str, int] = {}
            for entry in list(block.entries):
                insn = entry.insn
                if _is_self_mov32(insn):
                    group = insn.operands[0].reg.group
                    self.bump("candidates")
                    if last_def_width.get(group) == 32:
                        self.bump("removed")
                        self.Trace(2, "removing %s", insn)
                        if not self.option("count_only"):
                            block.entries.remove(entry)
                            self.unit.remove(entry)
                        continue
                try:
                    defs = sideeffects.reg_defs(insn)
                except sideeffects.UnknownSideEffects:
                    last_def_width.clear()
                    continue
                for group in defs:
                    width = _def_width(insn, group)
                    if width is not None:
                        last_def_width[group] = width
                    else:
                        # Implicit or unknown-width write: be conservative.
                        last_def_width[group] = 64
        return True
