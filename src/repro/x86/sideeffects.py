"""Query layer over the generated side-effect tables.

This is the interface data-flow analysis and the optimization passes use:
given an :class:`~repro.x86.instruction.Instruction`, report which register
alias groups it reads and writes, and which RFLAGS bits it reads, writes,
clears, or leaves undefined.  Registers are reported as *alias groups*
(``eax`` -> ``rax``) so partial-register writes conservatively kill the
whole register.

Every answer for one instruction shape — its mnemonic and operand
*values* — is derived once into a shared :class:`Facts` record, so the
queries below are dictionary lookups.  The key is the operand values, not
the :class:`Instruction`: an instruction whose operand list a pass
rewrites in place is simply looked up under its new key.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, NamedTuple, Optional, Set, Tuple

from repro.x86._sideeffects_tables import TABLES
from repro.x86.flags import cc_flags_read
from repro.x86.instruction import Instruction
from repro.x86.operands import Memory, Operand, RegisterOperand

#: Caller-saved groups clobbered by a call under the SysV ABI.
CALL_CLOBBERED = frozenset(
    ["rax", "rcx", "rdx", "rsi", "rdi", "r8", "r9", "r10", "r11"]
    + ["xmm%d" % i for i in range(16)])

#: Argument/return registers conservatively read by calls/returns.
CALL_USED = frozenset(
    ["rax", "rcx", "rdx", "rsi", "rdi", "r8", "r9", "rsp"]
    + ["xmm%d" % i for i in range(8)])


class UnknownSideEffects(KeyError):
    """No side-effect table entry exists for the instruction."""


class Facts(NamedTuple):
    """Every side-effect answer for one instruction shape."""

    uses: FrozenSet[str]
    defs: FrozenSet[str]
    flags_read: FrozenSet[str]
    flags_written: FrozenSet[str]
    flags_cleared: FrozenSet[str]
    flags_result: FrozenSet[str]
    flags_undefined: FrozenSet[str]
    barrier: bool


#: (mnemonic, *operands) -> Facts, or None for a shape with no table
#: entry.  Process-wide like the parser's operand table, and bounded the
#: same way: once full, new shapes are derived afresh on every query.
FACTS_MEMO_MAX = 65536
_FACTS: Dict[tuple, Optional[Facts]] = {}
#: One shared object per distinct answer set and per distinct record:
#: many shapes (``movl %eax, 8(%rsp)``, ``movl %eax, 16(%rsp)``) share one.
_SHARED: dict = {}
_MISSING = object()


def shared(value):
    """The one stored object equal to the immutable *value*."""
    if len(_SHARED) < FACTS_MEMO_MAX:
        return _SHARED.setdefault(value, value)
    return _SHARED.get(value, value)


def _resolve_items(insn: Instruction, items: Tuple[str, ...]) -> Set[str]:
    """Operand designators -> register alias groups (registers only)."""
    groups: Set[str] = set()
    ops = insn.operands
    for item in items:
        if item.startswith("%"):
            groups.add(item[1:])
            continue
        if item == "src":
            selected: Optional[Operand] = ops[0] if len(ops) >= 2 else None
        elif item == "dst":
            selected = ops[-1] if ops else None
        else:  # opN
            idx = int(item[2:])
            selected = ops[idx] if idx < len(ops) else None
        if isinstance(selected, RegisterOperand):
            groups.add(selected.reg.group)
    return groups


def _address_uses(insn: Instruction) -> Set[str]:
    groups: Set[str] = set()
    for op in insn.operands:
        if isinstance(op, Memory):
            if op.base is not None and op.base.group != "rip":
                groups.add(op.base.group)
            if op.index is not None:
                groups.add(op.index.group)
    return groups


def _derive(insn: Instruction) -> Optional[Facts]:
    base = insn.base
    entry = TABLES.get((base, len(insn.operands)))
    if entry is None:
        entry = TABLES.get((base, None))
    if entry is None:
        return None
    uses, defs, written, read, cleared, result, undefined, barrier = entry
    # Address registers of memory operands are always uses.  Calls and
    # other barriers use the ABI argument registers and clobber the
    # caller-saved ones; a designated "def" operand that is memory
    # defines no register.
    reg_uses = _resolve_items(insn, uses) | _address_uses(insn)
    reg_defs = _resolve_items(insn, defs)
    if barrier:
        reg_uses |= CALL_USED
        reg_defs |= CALL_CLOBBERED | {"rsp"}
    # The ``cc`` marker reads the flags of the condition suffix.
    flags_read = set(read)
    if "cc" in flags_read:
        flags_read.discard("cc")
        if insn.cond is not None:
            flags_read |= cc_flags_read(insn.cond)
    sets = [shared(frozenset(items)) for items in (
        reg_uses, reg_defs, flags_read, written, cleared, result, undefined)]
    return shared(Facts(*sets, bool(barrier)))


def _record(insn: Instruction) -> Optional[Facts]:
    # The answers depend on the mnemonic and the operand values only.
    key = (insn.mnemonic, *insn.operands)
    record = _FACTS.get(key, _MISSING)
    if record is _MISSING:
        record = _derive(insn)
        if len(_FACTS) < FACTS_MEMO_MAX:
            _FACTS[key] = record
    return record


def facts(insn: Instruction) -> Facts:
    """All side-effect answers for *insn*; raises
    :class:`UnknownSideEffects` when it has no table entry."""
    record = _record(insn)
    if record is None:
        raise UnknownSideEffects(insn.base)
    return record


def reg_uses(insn: Instruction) -> FrozenSet[str]:
    """Alias groups of registers the instruction reads."""
    return facts(insn).uses


def reg_defs(insn: Instruction) -> FrozenSet[str]:
    """Alias groups of registers the instruction writes."""
    return facts(insn).defs


def flags_written(insn: Instruction) -> FrozenSet[str]:
    return facts(insn).flags_written


def flags_read(insn: Instruction) -> FrozenSet[str]:
    """Flags read, with a condition suffix resolved to its flags."""
    return facts(insn).flags_read


def flags_cleared(insn: Instruction) -> FrozenSet[str]:
    """Flags written with a known-zero value (e.g. CF/OF after logic ops)."""
    return facts(insn).flags_cleared


def flags_result(insn: Instruction) -> FrozenSet[str]:
    """Flags whose post-state reflects the destination value."""
    return facts(insn).flags_result


def flags_undefined(insn: Instruction) -> FrozenSet[str]:
    return facts(insn).flags_undefined


def is_barrier(insn: Instruction) -> bool:
    """True for call/ret/syscall-like instructions that end analysis scope
    (and for instructions with no table entry)."""
    record = _record(insn)
    return record is None or record.barrier


def has_side_effect_entry(insn: Instruction) -> bool:
    return _record(insn) is not None
