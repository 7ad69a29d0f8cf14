"""Scalar optimizations (paper §III.D): unreachable-code elimination and
constant folding.

"There is typically not much opportunity left in compiler generated output
files.  However, as we seek to make MAO useful in simple code generators,
offering a standard set of scalar optimizations appears valuable."
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.analysis.dataflow import FLAG_PREFIX, Liveness
from repro.ir.entries import InstructionEntry
from repro.passes.base import MaoFunctionPass
from repro.passes.manager import register_func_pass
from repro.x86 import sideeffects
from repro.x86.instruction import Instruction
from repro.x86.operands import Immediate, LabelRef, Memory, RegisterOperand
from repro.x86.registers import suffix_for_width


def _referenced_labels(unit) -> Set[str]:
    """Every label name referenced by any operand or data directive."""
    names: Set[str] = set()
    for entry in unit.entries():
        if isinstance(entry, InstructionEntry):
            for op in entry.insn.operands:
                if isinstance(op, LabelRef):
                    names.add(op.name)
                elif isinstance(op, Memory) and op.symbol:
                    names.add(op.symbol)
                elif isinstance(op, Immediate) and op.symbol:
                    names.add(op.symbol)
        elif entry.is_directive:
            for arg in getattr(entry, "str_args", lambda: [])():
                names.add(arg.split("+")[0].split("-")[0].strip())
    return names


@register_func_pass("UNREACH")
class UnreachableCodeEliminationPass(MaoFunctionPass):
    """Remove blocks not reachable from the function entry."""

    OPTIONS = {"count_only": False}

    def Go(self) -> bool:
        cfg = self.analyses.cfg()
        if cfg.entry is None:
            return True
        if not cfg.is_well_formed:
            # Unresolved indirect branches: every label is a potential
            # target, so nothing is provably unreachable.
            self.Trace(1, "function flagged; skipping")
            return True
        reachable: Set[int] = set()
        stack = [cfg.entry]
        while stack:
            block = stack.pop()
            if id(block) in reachable:
                continue
            reachable.add(id(block))
            stack.extend(s for s in block.successors if s is not cfg.exit)

        referenced = _referenced_labels(self.unit)
        for block in cfg.blocks:
            if id(block) in reachable:
                continue
            if any(name in referenced for name in block.labels):
                # Address-taken label (jump table etc.) — keep.
                continue
            for entry in block.entries:
                self.bump("instructions_removed")
                if not self.option("count_only"):
                    self.unit.remove(entry)
            if not self.option("count_only"):
                for name in block.labels:
                    label_entry = self.unit.find_label(name)
                    if label_entry is not None:
                        self.unit.remove(label_entry)
            self.bump("blocks_removed")
        return True


@register_func_pass("CONSTFOLD")
class ConstantFoldPass(MaoFunctionPass):
    """Fold immediate arithmetic over registers with known constants.

    ``movl $5, %eax; addl $3, %eax`` becomes ``movl $8, %eax`` when the
    add's flags are dead.
    """

    OPTIONS = {"count_only": False}

    _FOLDABLE = {"add", "sub", "and", "or", "xor", "shl", "shr", "sar"}

    def Go(self) -> bool:
        cfg = self.analyses.cfg()
        liveness = self.analyses.liveness()
        for block in cfg.blocks:
            known: Dict[str, int] = {}
            for entry in block.entries:
                insn = entry.insn
                folded = self._try_fold(block, entry, known, liveness)
                if folded is not None:
                    insn = folded
                self._update(known, insn)
        return True

    def _try_fold(self, block, entry, known: Dict[str, int],
                  liveness: Liveness) -> Optional[Instruction]:
        insn = entry.insn
        if insn.base not in self._FOLDABLE or len(insn.operands) != 2:
            return None
        src, dst = insn.operands
        if not (isinstance(src, Immediate) and src.symbol is None
                and isinstance(dst, RegisterOperand)):
            return None
        group = dst.reg.group
        if group not in known:
            return None
        width = insn.effective_width()
        if width is None or dst.reg.high8:
            return None
        live_flags = {loc[len(FLAG_PREFIX):]
                      for loc in liveness.live_after(block, entry)
                      if loc.startswith(FLAG_PREFIX)}
        if live_flags:
            return None
        mask = (1 << width) - 1
        count_mask = 63 if width == 64 else 31
        a = known[group] & mask
        b = src.value & mask
        ops = {
            "add": lambda: a + b,
            "sub": lambda: a - b,
            "and": lambda: a & b,
            "or": lambda: a | b,
            "xor": lambda: a ^ b,
            "shl": lambda: a << (src.value & count_mask),
            "shr": lambda: a >> (src.value & count_mask),
            "sar": lambda: self._sar(a, src.value & count_mask, width),
        }
        result = ops[insn.base]() & mask
        # Express as a signed value when the top bit is set.
        value = result - (1 << width) if result >> (width - 1) else result
        if width == 64 and not (-(1 << 31) <= value < (1 << 31)):
            return None   # can't express as mov imm32 sign-extended
        self.bump("folded")
        self.Trace(2, "folding %s -> mov $%d", insn, value)
        new = Instruction("mov" + suffix_for_width(width),
                          [Immediate(value), dst])
        new.address = insn.address
        if not self.option("count_only"):
            entry.insn = new
            self.analyses.invalidate()
            return new
        return None

    @staticmethod
    def _sar(a: int, count: int, width: int) -> int:
        sign = a & (1 << (width - 1))
        value = a - 2 * sign
        return value >> (count & (63 if width == 64 else 31))

    @staticmethod
    def _update(known: Dict[str, int], insn: Instruction) -> None:
        try:
            defs = sideeffects.reg_defs(insn)
        except sideeffects.UnknownSideEffects:
            known.clear()
            return
        src = insn.operands[0] if insn.operands else None
        dst = insn.dest
        if (insn.base in ("mov", "movabs")
                and isinstance(src, Immediate) and src.symbol is None
                and isinstance(dst, RegisterOperand)
                and dst.reg.width in (32, 64)):
            for group in defs:
                known.pop(group, None)
            width = insn.effective_width() or 64
            known[dst.reg.group] = src.value & ((1 << width) - 1) \
                if width == 32 else src.value
        else:
            for group in defs:
                known.pop(group, None)
