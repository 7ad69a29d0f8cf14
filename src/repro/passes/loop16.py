"""LOOP16 — short-loop 16-byte alignment (paper §III.C.e).

The 252.eon regression: a four-instruction loop that fits in one 16-byte
decode line ran 7% slower when it happened to straddle a line boundary,
because "the x86/64 Core-2 decodes instructions in 16-byte chunks.
Aligning the loop at 16 byte boundary resulted in decoding of only one
line instead of two."

The pass relaxes the function to get true addresses, then for every
innermost loop that is *short* (at most ``max_size`` bytes) and currently
spans more decode lines than its size requires, inserts a ``.p2align``
directive before the loop header so it starts on a 16-byte boundary.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.analysis.loops import build_lsg
from repro.analysis.relax import relax_section
from repro.ir.entries import DirectiveEntry, LabelEntry
from repro.passes.base import MaoFunctionPass
from repro.passes.manager import register_func_pass


def loop_extent(loop, layout) -> Optional[Tuple[int, int]]:
    """(start_address, end_address) byte extent of a loop's blocks."""
    start = None
    end = None
    for block in loop.all_blocks():
        for entry in block.entries:
            place = layout.placement.get(entry)
            if place is None:
                return None
            if start is None or place.address < start:
                start = place.address
            if end is None or place.address + place.size > end:
                end = place.address + place.size
    if start is None:
        return None
    return start, end


def lines_spanned(start: int, end: int, line_bytes: int) -> int:
    if end <= start:
        return 0
    return (end - 1) // line_bytes - start // line_bytes + 1


def minimal_lines(size: int, line_bytes: int) -> int:
    return (size + line_bytes - 1) // line_bytes


@register_func_pass("LOOP16")
class ShortLoopAlignPass(MaoFunctionPass):
    """Align short innermost loops to 16-byte decode-line boundaries."""

    OPTIONS = {
        "line": 16,          # decode-line size in bytes
        "max_size": 64,      # only consider loops up to this many bytes
        "max_skip": 15,      # .p2align max-skip budget
        "count_only": False,
    }
    READS_LAYOUT = True

    def Go(self) -> bool:
        line_bytes = int(self.option("line"))
        max_size = int(self.option("max_size"))
        cfg = self.analyses.cfg()
        lsg = build_lsg(cfg)
        if not lsg.non_root_loops():
            return True
        layout = relax_section(self.unit, self.function.section)

        for loop in lsg.inner_loops():
            if not loop.is_reducible:
                self.bump("skipped_irreducible")
                continue
            extent = loop_extent(loop, layout)
            if extent is None:
                continue
            start, end = extent
            size = end - start
            if size == 0 or size > max_size:
                continue
            spanned = lines_spanned(start, end, line_bytes)
            minimal = minimal_lines(size, line_bytes)
            self.bump("short_loops")
            if spanned <= minimal:
                continue
            header_entry = self._header_anchor(loop)
            if header_entry is None:
                continue
            self.bump("aligned")
            self.Trace(1, "aligning loop at %#x (%d bytes, %d->%d lines)",
                       start, size, spanned, minimal)
            if not self.option("count_only"):
                power = line_bytes.bit_length() - 1
                directive = DirectiveEntry(
                    "p2align", "%d,,%d" % (power, self.option("max_skip")))
                self.unit.insert_before(header_entry, directive)
        return True

    def _header_anchor(self, loop):
        """The entry before which to insert alignment: the header's label
        if it has one, else its first instruction."""
        header = loop.header
        first = header.first
        if first is None:
            return None
        # Walk back over the labels immediately preceding the first insn.
        anchor = first
        node = first.prev
        while node is not None and isinstance(node, LabelEntry):
            anchor = node
            node = node.prev
        return anchor
