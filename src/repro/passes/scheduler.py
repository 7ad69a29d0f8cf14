"""SCHED — basic-block list scheduling (paper §III.F).

A hashing microbenchmark gained 21% "simply from scheduling instructions
differently"; PMU analysis correlated the losses with
``RESOURCE_STALLS:RS_FULL`` — a forwarding-bandwidth limitation.  "The pass
provides a framework for list-scheduling at the assembly instruction level.
By changing the cost functions associated with the instructions, different
scheduling heuristics can be implemented.  The current cost function
ensures that, when scheduling successors of an instruction with multiple
fan-outs, the instructions on the critical path are given a higher
priority."

The dependence DAG covers registers, flags, and (conservatively) memory;
the default :class:`CriticalPathCost` prioritizes by longest latency path
to a DAG leaf.  Only single-basic-block scheduling is performed, matching
the paper ("this pass does single basic block scheduling only").
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.analysis.dataflow import location_defs, location_uses
from repro.ir.entries import InstructionEntry
from repro.passes.base import MaoFunctionPass
from repro.passes.manager import register_func_pass
from repro.uarch.classify import compute_class
from repro.uarch.model import ProcessorModel
from repro.uarch.profiles import core2
from repro.x86 import sideeffects
from repro.x86.instruction import Instruction


class DependenceDAG:
    """Dependence graph over one basic block's instructions."""

    def __init__(self, entries: List[InstructionEntry],
                 model: ProcessorModel) -> None:
        self.entries = entries
        self.model = model
        size = len(entries)
        self.succs: List[Set[int]] = [set() for _ in range(size)]
        self.preds: List[Set[int]] = [set() for _ in range(size)]
        self._build()

    def _locs(self, insn: Instruction):
        try:
            barrier = sideeffects.facts(insn).barrier
        except sideeffects.UnknownSideEffects:
            return None
        return location_uses(insn), location_defs(insn), barrier

    def _add_edge(self, earlier: int, later: int) -> None:
        if earlier != later:
            self.succs[earlier].add(later)
            self.preds[later].add(earlier)

    def _build(self) -> None:
        last_def: Dict[str, int] = {}
        last_uses: Dict[str, List[int]] = {}
        last_mem_write: Optional[int] = None
        last_mem_reads: List[int] = []
        last_barrier: Optional[int] = None

        for i, entry in enumerate(self.entries):
            insn = entry.insn
            info = self._locs(insn)
            if info is None:
                # Unknown side effects: order against everything.
                for j in range(i):
                    self._add_edge(j, i)
                last_barrier = i
                continue
            uses, defs, barrier = info

            if last_barrier is not None:
                self._add_edge(last_barrier, i)
            for loc in uses:
                if loc in last_def:
                    self._add_edge(last_def[loc], i)      # RAW
            for loc in defs:
                if loc in last_def:
                    self._add_edge(last_def[loc], i)      # WAW
                for user in last_uses.get(loc, ()):
                    self._add_edge(user, i)               # WAR
            if insn.reads_memory:
                if last_mem_write is not None:
                    self._add_edge(last_mem_write, i)
                last_mem_reads.append(i)
            if insn.writes_memory:
                if last_mem_write is not None:
                    self._add_edge(last_mem_write, i)
                for reader in last_mem_reads:
                    self._add_edge(reader, i)
                last_mem_write = i
                last_mem_reads = []
            if barrier:
                for j in range(i):
                    self._add_edge(j, i)
                last_barrier = i

            for loc in uses:
                last_uses.setdefault(loc, []).append(i)
            for loc in defs:
                last_def[loc] = i
                last_uses[loc] = []

    def latency(self, index: int) -> int:
        cls = compute_class(self.entries[index].insn)
        return max(1, self.model.latency.get(cls, 1))


CostFunction = Callable[[DependenceDAG], List[float]]


def critical_path_cost(dag: DependenceDAG) -> List[float]:
    """Priority = longest latency path from the node to any DAG leaf."""
    size = len(dag.entries)
    cost = [0.0] * size
    for i in range(size - 1, -1, -1):
        best = 0.0
        for succ in dag.succs[i]:
            best = max(best, cost[succ])
        cost[i] = best + dag.latency(i)
    return cost


def list_schedule(dag: DependenceDAG,
                  cost_fn: CostFunction = critical_path_cost) -> List[int]:
    """Return the new instruction order (indices into dag.entries)."""
    size = len(dag.entries)
    cost = cost_fn(dag)
    remaining_preds = [len(p) for p in dag.preds]
    ready = [i for i in range(size) if remaining_preds[i] == 0]
    order: List[int] = []
    while ready:
        # Highest priority first; stable on original position.
        ready.sort(key=lambda i: (-cost[i], i))
        node = ready.pop(0)
        order.append(node)
        for succ in sorted(dag.succs[node]):
            remaining_preds[succ] -= 1
            if remaining_preds[succ] == 0:
                ready.append(succ)
    if len(order) != size:
        raise RuntimeError("dependence cycle in basic block DAG")
    return order


@register_func_pass("SCHED")
class ListSchedulingPass(MaoFunctionPass):
    """Reorder instructions within basic blocks by critical-path priority.

    With ``ebb[1]`` the pass first merges trivially-sequential blocks —
    a fall-through edge whose target label is referenced by nothing —
    into extended regions before scheduling, realizing the paper's
    "schedule across basic blocks" extension ("We expect the impact to
    become much higher once we extend the pass to schedule across basic
    blocks").
    """

    OPTIONS = {"count_only": False, "ebb": False}

    #: Override to plug in a different heuristic (the paper's "cost
    #: functions" extension point).
    cost_function: CostFunction = staticmethod(critical_path_cost)

    def Go(self) -> bool:
        model = core2()
        if self.option("ebb") and not self.option("count_only"):
            merged = self._merge_sequential_blocks()
            if merged:
                self.bump("labels_merged", merged)
                self.analyses.invalidate()
        cfg = self.analyses.cfg()
        for block in cfg.blocks:
            entries = block.entries
            if len(entries) < 3:
                continue
            # Keep the terminator (and a trailing compare feeding it)
            # pinned; schedule the body.
            body = entries[:]
            tail: List[InstructionEntry] = []
            if body and body[-1].insn.is_control_transfer:
                tail.insert(0, body.pop())
            if len(body) < 2:
                continue
            if not self._contiguous(body + tail):
                self.bump("skipped_noncontiguous")
                continue
            dag = DependenceDAG(body, model)
            order = list_schedule(dag, self.cost_function)
            moved = sum(1 for pos, idx in enumerate(order) if idx != pos)
            if moved == 0:
                continue
            self.bump("instructions_moved", moved)
            self.Trace(1, "block %s: moved %d of %d instructions",
                       block, moved, len(body))
            if self.option("count_only"):
                continue
            self._apply(block, body, tail, order)
        return True

    def _merge_sequential_blocks(self) -> int:
        """Delete unreferenced fall-through labels so block-local
        scheduling sees extended regions.  Safe when the label's block
        has exactly one predecessor, reached by fall-through, and no
        operand or data directive names the label."""
        from repro.passes.scalar import _referenced_labels

        cfg = self.analyses.cfg()
        referenced = _referenced_labels(self.unit)
        removed = 0
        for block in cfg.blocks:
            if block is cfg.entry or not block.labels:
                continue
            if any(name in referenced for name in block.labels):
                continue
            if block.labels[0] == self.function.name:
                continue
            if len(block.predecessors) != 1:
                continue
            pred = block.predecessors[0]
            last = pred.last
            if last is not None and last.insn.is_control_transfer:
                continue          # reached by branch, not fall-through
            for name in list(block.labels):
                label_entry = self.unit.find_label(name)
                if label_entry is not None:
                    self.unit.remove(label_entry)
                    removed += 1
        return removed

    @staticmethod
    def _contiguous(entries: List[InstructionEntry]) -> bool:
        """True if the block's instructions are adjacent in the IR list."""
        for a, b in zip(entries, entries[1:]):
            if a.next is not b:
                return False
        return True

    def _apply(self, block, body: List[InstructionEntry],
               tail: List[InstructionEntry],
               order: List[int]) -> None:
        anchor = body[0].prev
        for entry in body:
            self.unit.remove(entry)
        previous = anchor
        new_body = [body[i] for i in order]
        for entry in new_body:
            if previous is None:
                first_tail = tail[0] if tail else None
                if first_tail is not None:
                    self.unit.insert_before(first_tail, entry)
                else:
                    self.unit.append(entry)
            else:
                self.unit.insert_after(previous, entry)
            previous = entry
        block.entries[:] = new_body + tail
