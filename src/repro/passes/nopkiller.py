"""NOPKILL — the Nop Killer (paper §III.E.j).

The compiler sprinkles alignment directives "based on some rough ideas
about an underlying micro-architecture".  This pass removes all alignment
directives and standalone NOP filler instructions, answering "how effective
these alignment directives actually are" — the paper found effects in the
noise for most benchmarks, plus ~1% code-size savings.
"""

from __future__ import annotations

from repro.analysis.relax import _alignment_request, relax_section
from repro.ir.entries import DirectiveEntry, InstructionEntry
from repro.passes.base import MaoFunctionPass
from repro.passes.manager import register_func_pass


@register_func_pass("NOPKILL")
class NopKillerPass(MaoFunctionPass):
    """Strip alignment directives and NOP instructions."""

    OPTIONS = {"count_only": False, "kill_nops": True,
               "kill_directives": True}
    #: Only its trace output reads the layout, but that must not depend
    #: on ``jobs`` either.
    READS_LAYOUT = True

    def Go(self) -> bool:
        size_before = None
        if self.trace_level >= 1:
            size_before = relax_section(self.unit,
                                        self.function.section).size
        for entry in list(self.function.entries()):
            if isinstance(entry, DirectiveEntry) \
                    and self.option("kill_directives") \
                    and _alignment_request(entry) is not None:
                self.bump("directives_removed")
                if not self.option("count_only"):
                    self.unit.remove(entry)
            elif isinstance(entry, InstructionEntry) \
                    and self.option("kill_nops") and entry.insn.is_nop:
                self.bump("nops_removed")
                if not self.option("count_only"):
                    self.unit.remove(entry)
        if size_before is not None:
            size_after = relax_section(self.unit,
                                       self.function.section).size
            self.Trace(1, "code size %d -> %d bytes", size_before,
                       size_after)
        return True
