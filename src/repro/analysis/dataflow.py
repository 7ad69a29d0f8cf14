"""Simple data-flow apparatus: reaching definitions and liveness.

The paper: "MAO offers a simple data flow apparatus, but no alias or
points-to analysis.  Since many assembly instructions work on registers,
this data flow mechanism is powerful and solves many otherwise difficult to
reason about problems."

Locations are register *alias groups* (``eax`` and ``rax`` are one location)
plus individual RFLAGS bits written ``F:ZF`` etc., so the same machinery
serves register analyses and the precise condition-code reasoning behind
redundant-test removal.
"""

from __future__ import annotations

import sys
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.cfg import CFG, BasicBlock
from repro.ir.entries import InstructionEntry
from repro.x86 import sideeffects
from repro.x86.instruction import Instruction

FLAG_PREFIX = "F:"


def flag_loc(flag: str) -> str:
    return sys.intern(FLAG_PREFIX + flag)


#: Shared side-effect record -> its (uses, defs) locations.  Records are
#: shared per distinct answer, so this holds far fewer entries than
#: there are instruction shapes.
_LOCATIONS: Dict[sideeffects.Facts,
                 Tuple[FrozenSet[str], FrozenSet[str]]] = {}


def _locations(insn: Instruction) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    try:
        facts = sideeffects.facts(insn)
    except sideeffects.UnknownSideEffects:
        # Conservative: reads and writes everything it mentions.
        locs = frozenset(r.group for r in insn.register_operands())
        return locs, locs
    locs = _LOCATIONS.get(facts)
    if locs is None:
        reads = {flag_loc(f) for f in facts.flags_read}
        # Undefined flags count as writes.
        writes = {flag_loc(f)
                  for f in facts.flags_written | facts.flags_undefined}
        locs = (sideeffects.shared(facts.uses | reads),
                sideeffects.shared(facts.defs | writes))
        if len(_LOCATIONS) < sideeffects.FACTS_MEMO_MAX:
            _LOCATIONS[facts] = locs
    return locs


def location_uses(insn: Instruction) -> FrozenSet[str]:
    """Locations (register groups + flag bits) the instruction reads."""
    return _locations(insn)[0]


def location_defs(insn: Instruction) -> FrozenSet[str]:
    """Locations the instruction writes (undefined flags count as writes)."""
    return _locations(insn)[1]


class ReachingDefinitions:
    """Reaching definitions, answered on demand.

    A query walks backward from the program point: first within its
    block, then over predecessor blocks, stopping in each at its last
    definition of the location.  That yields the same set as the classic
    forward may-analysis over (location, defining entry) pairs, without
    solving it for every location of the function; the only client is
    tier-2 indirect-branch resolution, which asks a handful of queries.
    """

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        #: Block index -> {location: the block's last entry defining it}.
        self._last_defs: Dict[int, Dict[str, InstructionEntry]] = {}

    def _last_def(self, block: BasicBlock,
                  loc: str) -> Optional[InstructionEntry]:
        last = self._last_defs.get(block.index)
        if last is None:
            last = {}
            for entry in block.entries:
                for defined in location_defs(entry.insn):
                    last[defined] = entry
            self._last_defs[block.index] = last
        return last.get(loc)

    def reaching_defs(self, at: InstructionEntry,
                      loc: str) -> List[InstructionEntry]:
        """Definitions of *loc* that reach the program point just before
        *at* (block-local definitions shadow incoming ones)."""
        block = self.cfg.block_of(at)
        if block is None:
            return []
        entries = block.entries
        for entry in reversed(entries[:entries.index(at)]):
            if loc in location_defs(entry.insn):
                return [entry]
        found: List[InstructionEntry] = []
        seen: Set[int] = set()
        work = list(block.predecessors)
        while work:
            pred = work.pop()
            if pred.index in seen:
                continue
            seen.add(pred.index)
            entry = self._last_def(pred, loc)
            if entry is not None:
                found.append(entry)
            else:
                work.extend(pred.predecessors)
        return found

    def unique_reaching_def(self, at: InstructionEntry,
                            loc: str) -> Optional[InstructionEntry]:
        defs = self.reaching_defs(at, loc)
        if len(defs) == 1:
            return defs[0]
        return None


class Liveness:
    """Backward liveness over register groups and flag bits.

    Sets of locations are int bitmasks internally, one bit per location
    in the order first seen: the pass manager keeps a function's
    liveness alive across passes, and masks are small and cheap to
    combine.
    """

    def __init__(self, cfg: CFG,
                 exit_live: Optional[Set[str]] = None) -> None:
        self.cfg = cfg
        #: Locations assumed live at function exit (ABI: return registers
        #: and callee-saved state).  Flags are dead at exit.
        if exit_live is None:
            exit_live = {"rax", "rdx", "rsp", "rbp", "rbx",
                         "r12", "r13", "r14", "r15",
                         "xmm0", "xmm1"}
        self.exit_live = set(exit_live)
        self._bits: Dict[str, int] = {}
        #: insn -> (use mask, def mask), computed once per instruction.
        #: Keyed by the Instruction, not the entry, so an entry whose
        #: ``insn`` a pass replaced is looked up afresh.
        self._effects: Dict[Instruction, Tuple[int, int]] = {}
        #: (uses, defs) locations -> their masks: one shared pair per
        #: distinct answer, and no re-masking of a repeated shape.
        self._pairs: Dict[Tuple[FrozenSet[str], FrozenSet[str]],
                          Tuple[int, int]] = {}
        self._live_in: Dict[int, int] = {}
        self._live_out: Dict[int, int] = {}
        self._compute()

    def _mask(self, locs: Iterable[str]) -> int:
        mask = 0
        for loc in locs:
            bit = self._bits.get(loc)
            if bit is None:
                bit = self._bits[loc] = 1 << len(self._bits)
            mask |= bit
        return mask

    def _locs(self, mask: int) -> Set[str]:
        return {loc for loc, bit in self._bits.items() if mask & bit}

    def _effects_of(self, insn: Instruction) -> Tuple[int, int]:
        effects = self._effects.get(insn)
        if effects is None:
            locs = _locations(insn)
            effects = self._pairs.get(locs)
            if effects is None:
                effects = self._pairs[locs] = (self._mask(locs[0]),
                                               self._mask(locs[1]))
            self._effects[insn] = effects
        return effects

    def _compute(self) -> None:
        cfg = self.cfg
        exit_mask = self._mask(self.exit_live)
        use: Dict[int, int] = {}
        defs: Dict[int, int] = {}
        for block in cfg.blocks:
            block_use = block_def = 0
            for entry in block.entries:
                entry_uses, entry_defs = self._effects_of(entry.insn)
                block_use |= entry_uses & ~block_def
                block_def |= entry_defs
            use[block.index] = block_use
            defs[block.index] = block_def

        live_in: Dict[int, int] = {b.index: 0 for b in cfg.blocks}
        live_out: Dict[int, int] = {b.index: 0 for b in cfg.blocks}

        changed = True
        while changed:
            changed = False
            for block in reversed(cfg.blocks):
                new_out = 0
                for succ in block.successors:
                    if succ is cfg.exit:
                        new_out |= exit_mask
                    else:
                        new_out |= live_in.get(succ.index, 0)
                if block.has_unresolved_exit:
                    # Unknown targets: everything may be live.
                    new_out |= exit_mask
                new_in = use[block.index] | (new_out & ~defs[block.index])
                if new_out != live_out[block.index] \
                        or new_in != live_in[block.index]:
                    live_out[block.index] = new_out
                    live_in[block.index] = new_in
                    changed = True
        self._live_in = live_in
        self._live_out = live_out

    def live_in(self, block: BasicBlock) -> Set[str]:
        return self._locs(self._live_in.get(block.index, 0))

    def live_out(self, block: BasicBlock) -> Set[str]:
        return self._locs(self._live_out.get(block.index, 0))

    def live_after(self, block: BasicBlock,
                   entry: InstructionEntry) -> Set[str]:
        """Locations live immediately after *entry* inside *block*."""
        live = self._live_out.get(block.index, 0)
        for node in reversed(block.entries):
            if node is entry:
                return self._locs(live)
            uses, defined = self._effects_of(node.insn)
            live = (live & ~defined) | uses
        raise ValueError("entry not in block")

    def is_dead_after(self, block: BasicBlock, entry: InstructionEntry,
                      loc: str) -> bool:
        return loc not in self.live_after(block, entry)
