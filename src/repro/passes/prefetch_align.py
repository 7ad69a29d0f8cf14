"""PREFALIGN — keep prefetchable loads off prefetch-table alias slots.

Paper §III.C.h: "There are other alignment specific alias issues, as many
hardware features, e.g., the prefetchers, use tables indexed by address
bits at certain granularities, leading to alias effects.  For example, on
a specific Intel platform prefetchable loads should not be located at
multiples of 256 bytes.  We have not yet implemented a pass to address
this issue."

This pass implements it: after relaxation, any load instruction whose
*own address* is a multiple of the alias stride is nudged forward by a
single NOP, de-aliasing its prefetch-table entry.  Like BRALIGN, fixing
one site can move later ones, so the pass iterates to a fixpoint.
"""

from __future__ import annotations

from repro.analysis.relax import relax_section
from repro.ir.entries import InstructionEntry
from repro.passes.base import MaoFunctionPass
from repro.passes.manager import register_func_pass
from repro.passes.util import make_nop


@register_func_pass("PREFALIGN")
class PrefetchAliasAlignPass(MaoFunctionPass):
    """Move loads off ``PC % stride == 0`` prefetch-alias addresses."""

    OPTIONS = {
        "stride": 256,       # the alias granularity
        "count_only": False,
    }

    def Go(self) -> bool:
        stride = int(self.option("stride"))
        if stride <= 0:
            return True
        for _ in range(64):
            layout = relax_section(self.unit, self.function.section)
            victim = None
            for entry in self.function.entries():
                if not isinstance(entry, InstructionEntry):
                    continue
                if not entry.insn.reads_memory:
                    continue
                place = layout.placement.get(entry)
                if place is not None and place.address % stride == 0:
                    victim = entry
                    break
            if victim is None:
                return True
            self.bump("loads_moved")
            self.Trace(1, "load at alias slot %#x: %s",
                       layout.placement[victim].address, victim.insn)
            if self.option("count_only"):
                return True
            self.unit.insert_before(victim,
                                    InstructionEntry(make_nop()))
        self.Trace(0, "warning: alias fixups did not converge")
        return True
