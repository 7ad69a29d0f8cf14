"""INSTRUMENT — dynamic-instrumentation support (paper §III.E.l).

Binary instrumenters want to overwrite an instruction with a 5-byte branch
to trampoline code *atomically*.  "A simpler approach is to guarantee that
single 5-byte (nop) instructions reside at the desired instrumentation
points, and that those instructions do not cross cache lines.  MAO offers
an experimental pass that performs this transformation at all function
entry and exit points."

The pass inserts a 5-byte NOP (``0f 1f 44 00 00``) after each function
entry label and before every ``ret``, then verifies against the relaxed
layout that no inserted NOP crosses a cache-line boundary — padding with
single-byte NOPs when one does.
"""

from __future__ import annotations

from typing import List

from repro.analysis.relax import relax_section
from repro.ir.entries import InstructionEntry
from repro.passes.base import MaoFunctionPass
from repro.passes.manager import register_func_pass
from repro.passes.util import make_nop, make_nop5


@register_func_pass("INSTRUMENT")
class InstrumentationPointsPass(MaoFunctionPass):
    """Place non-line-crossing 5-byte NOPs at function entry/exit."""

    OPTIONS = {"cache_line": 64, "count_only": False}
    READS_LAYOUT = True

    def Go(self) -> bool:
        if self.option("count_only"):
            self.bump("entry_points")
            for entry in self.function.entries():
                if isinstance(entry, InstructionEntry) \
                        and entry.insn.is_ret:
                    self.bump("exit_points")
            return True

        inserted: List[InstructionEntry] = []
        # Entry point: right after the function label.
        node = self.function.start
        entry_nop = InstructionEntry(make_nop5())
        self.unit.insert_after(node, entry_nop)
        inserted.append(entry_nop)
        self.bump("entry_points")

        for entry in list(self.function.entries()):
            if isinstance(entry, InstructionEntry) and entry.insn.is_ret \
                    and entry is not entry_nop:
                exit_nop = InstructionEntry(make_nop5())
                self.unit.insert_before(entry, exit_nop)
                inserted.append(exit_nop)
                self.bump("exit_points")

        self._fix_line_crossings(inserted)
        return True

    def _fix_line_crossings(self, inserted: List[InstructionEntry]) -> None:
        """Pad until no instrumentation NOP crosses a cache line."""
        line = int(self.option("cache_line"))
        for _ in range(16):
            layout = relax_section(self.unit, self.function.section)
            crossing = None
            for nop_entry in inserted:
                place = layout.placement.get(nop_entry)
                if place is None:
                    continue
                if place.address // line \
                        != (place.address + place.size - 1) // line:
                    crossing = (nop_entry, place)
                    break
            if crossing is None:
                return
            nop_entry, place = crossing
            pad = line - (place.address % line)
            self.bump("padding_nops", pad)
            self.Trace(1, "5-byte nop at %#x crosses a cache line; "
                       "padding %d bytes", place.address, pad)
            for _ in range(pad):
                self.unit.insert_before(nop_entry,
                                        InstructionEntry(make_nop()))
        self.Trace(0, "warning: line-crossing fixups did not converge")
