"""ADDADD — fold add/add immediate sequences (paper §III.B.d).

GCC 4.3 generates "multiple add instructions in a row"::

    add/sub rX, IMM1
    ... no re-definition/use of rX, no use of condition codes
    add/sub rX, IMM2

which folds into a single add/sub of the combined constant.  The first
instruction is deleted and the second rewritten; the fold requires that the
first instruction's flags are dead at the second (no condition-code reads
between or after the first before the next flags write).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.dataflow import FLAG_PREFIX
from repro.ir.entries import InstructionEntry
from repro.passes.base import MaoFunctionPass
from repro.passes.manager import register_func_pass
from repro.x86 import sideeffects
from repro.x86.instruction import Instruction
from repro.x86.operands import Immediate, RegisterOperand
from repro.x86.registers import suffix_for_width


def _imm_addsub(insn: Instruction) -> Optional[Tuple[str, int, str, int]]:
    """(base, signed delta, dest group, width) for `add/sub $imm, %reg`."""
    if insn.base not in ("add", "sub") or len(insn.operands) != 2:
        return None
    src, dst = insn.operands
    if not (isinstance(src, Immediate) and src.symbol is None
            and isinstance(dst, RegisterOperand)):
        return None
    width = insn.effective_width()
    if width is None:
        return None
    delta = src.value if insn.base == "add" else -src.value
    return insn.base, delta, dst.reg.group, width


@register_func_pass("ADDADD")
class AddAddFoldPass(MaoFunctionPass):
    """Fold consecutive immediate add/sub to the same register."""

    OPTIONS = {"count_only": False, "window": 6}

    def Go(self) -> bool:
        window = int(self.option("window"))
        cfg = self.analyses.cfg()
        liveness = self.analyses.liveness()
        for block in cfg.blocks:
            # pending: (entry, delta, group, width, reg_operand)
            pending: List[Tuple[InstructionEntry, int, str, int,
                                RegisterOperand]] = []
            for entry in list(block.entries):
                insn = entry.insn
                info = _imm_addsub(insn)
                if info is not None:
                    base, delta, group, width = info
                    effective_delta = delta
                    match = None
                    for item in pending:
                        if item[2] == group and item[3] == width:
                            match = item
                            break
                    if match is not None:
                        first_entry, first_delta = match[0], match[1]
                        combined = first_delta + delta
                        # The folded add computes the same final value, so
                        # ZF/SF/PF agree; CF/OF/AF may differ and must be
                        # dead after the second instruction.
                        live_flags = {
                            loc[len(FLAG_PREFIX):]
                            for loc in liveness.live_after(block, entry)
                            if loc.startswith(FLAG_PREFIX)}
                        if self._fits(combined, width) \
                                and live_flags <= {"ZF", "SF", "PF"}:
                            self.bump("folded")
                            self.Trace(2, "folding %s + %s",
                                       first_entry.insn, insn)
                            if not self.option("count_only"):
                                self._rewrite(block, first_entry, entry,
                                              combined, width)
                                # The rewritten entry now carries the
                                # combined constant; a later fold against
                                # it must use that value, not the
                                # original second-add delta.
                                effective_delta = combined
                            pending = [p for p in pending
                                       if p[0] is not first_entry]
                    # This add/sub becomes the new pending op for its reg;
                    # it also kills pending entries for the same group.
                    pending = [p for p in pending if p[2] != group]
                    pending.append((entry, effective_delta, group, width,
                                    insn.operands[1]))
                    if len(pending) > window:
                        pending.pop(0)
                    continue
                pending = self._filter(pending, insn)
        return True

    @staticmethod
    def _fits(value: int, width: int) -> bool:
        bits = min(width, 32)
        return -(1 << (bits - 1)) <= value <= (1 << (bits - 1)) - 1

    def _rewrite(self, block, first_entry: InstructionEntry,
                 second_entry: InstructionEntry, combined: int,
                 width: int) -> None:
        insn = second_entry.insn
        suffix = suffix_for_width(width)
        reg_op = insn.operands[1]
        if combined >= 0:
            new = Instruction("add" + suffix,
                              [Immediate(combined), reg_op])
        else:
            new = Instruction("sub" + suffix,
                              [Immediate(-combined), reg_op])
        new.address = insn.address
        second_entry.insn = new
        self.analyses.invalidate()
        block.entries.remove(first_entry)
        self.unit.remove(first_entry)

    def _filter(self, pending, insn: Instruction):
        """Drop pending adds invalidated by *insn*."""
        if not pending:
            return pending
        try:
            facts = sideeffects.facts(insn)
        except sideeffects.UnknownSideEffects:
            return []
        if facts.barrier or facts.flags_read:
            # A condition-code read kills every pending fold (the first
            # add's flags would be observed).
            return []
        return [p for p in pending
                if p[2] not in facts.uses and p[2] not in facts.defs]
    # Note: the *final* add rewrites flags anyway, so flag reads after the
    # second add observe the same values post-fold.
