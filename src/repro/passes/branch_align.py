"""BRALIGN — de-alias branches sharing a predictor bucket (§III.C.g).

"In many Intel platforms, branch predictor structures are indexed by
PC >> 5.  As a result, the backward branches of both the loops above use
the same branch prediction information ... Moving the second branch
instruction down via NOP insertion so that the two branch instructions
... have two different PC >> 5 values speeds up a full image manipulation
benchmark by 3%."

The pass finds pairs of conditional branches within one function whose
addresses fall into the same ``PC >> shift`` bucket and separates them by
inserting NOPs before the later branch until its bucket differs.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from repro.analysis.relax import relax_section
from repro.ir.entries import InstructionEntry
from repro.passes.base import MaoFunctionPass
from repro.passes.manager import register_func_pass
from repro.passes.util import make_nop


@register_func_pass("BRALIGN")
class BranchAlignPass(MaoFunctionPass):
    """Separate conditional branches that alias in the predictor tables."""

    OPTIONS = {
        "shift": 5,           # predictor index = PC >> shift
        "max_nops": 16,       # give up beyond this many fill bytes
        "count_only": False,
    }
    READS_LAYOUT = True

    def Go(self) -> bool:
        shift = int(self.option("shift"))
        max_nops = int(self.option("max_nops"))

        # Iterate: fixing one pair moves later branches, so re-relax after
        # every insertion (bounded by the number of branches).
        for _ in range(64):
            layout = relax_section(self.unit, self.function.section)
            buckets: Dict[int, List[InstructionEntry]] = defaultdict(list)
            for entry in self.function.entries():
                if isinstance(entry, InstructionEntry) \
                        and entry.insn.is_cond_jump:
                    place = layout.placement.get(entry)
                    if place is not None:
                        buckets[place.address >> shift].append(entry)
            conflict = None
            for bucket, entries in sorted(buckets.items()):
                if len(entries) > 1:
                    conflict = (bucket, entries)
                    break
            if conflict is None:
                return True
            bucket, entries = conflict
            second = entries[1]
            place = layout.placement[second]
            needed = ((bucket + 1) << shift) - place.address
            if needed <= 0 or needed > max_nops:
                self.bump("unfixable")
                return True
            self.bump("pairs_separated")
            self.bump("nops_inserted", needed)
            self.Trace(1, "separating aliased branch at %#x (+%d nops)",
                       place.address, needed)
            if self.option("count_only"):
                return True
            for _ in range(needed):
                self.unit.insert_before(second,
                                        InstructionEntry(make_nop()))
        return True
