"""The trace-driven pipeline timing model.

One pass over the dynamic trace assigns each uop an issue and completion
cycle under these constraints:

* **Front end** — instructions arrive from 16-byte decode lines (one new
  line per cycle, ``decode_width`` instructions per cycle), unless the Loop
  Stream Detector has engaged, in which case uops stream without the line
  constraint.  Taken branches redirect fetch to a fresh line.
* **Branch prediction** — 2-bit counters indexed by ``PC >> shift``;
  mispredictions stall fetch for the penalty after the branch resolves.
* **Back end** — each uop issues on the earliest-free port its class allows,
  after its register/flag/memory inputs are ready; loads hit the data cache
  or pay the memory latency; at most ``forwarding_bw`` results complete per
  cycle — excess completions slip a cycle and are counted as
  ``RESOURCE_STALLS_RS_FULL`` (the §III.F effect).

The absolute cycle counts are not meant to match real silicon; the *causal
structure* matches the performance cliffs the paper documents, which is what
the reproduction benches rely on.

Two engine layers sit on top of the per-record walk:

* **Streaming** — ``simulate_unit``/``simulate_program`` couple the
  interpreter's ``trace_callback`` straight into the pipeline so timing
  overlaps execution and no trace list is ever materialized.
* **Steady-state fast-forward** — :class:`FastForwardEngine` watches for a
  loop (taken backward branch) whose iterations repeat the exact same
  record signature (address, outcome, effective address).  After K
  identical iterations it snapshots the pipeline, replays one period, and
  checks the *soundness condition*: every piece of clock-typed state
  advanced by exactly the same constant ``c`` (or is dead — at or below the
  fetch horizon, where it can never again win a ``max`` against a ready
  time), and every piece of pattern-typed state (predictor counters, cache
  tags/LRU, LSD tracking) is a fixed point of the iteration.  Because the
  pipeline transition combines clocks only through ``+const``/``max``
  against values at or above the horizon, a validated iteration implies N
  iterations advance every live clock by ``N*c`` and every counter by N
  times its measured delta — so skipped iterations are *bit-identical* to
  walking them, which differential tests against ``simulate_reference``
  assert.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, \
    Set, Tuple

from repro import obs
from repro.ir.unit import MaoUnit
from repro.sim.interp import ExecRecord, Interpreter, RunResult
from repro.sim.loader import LoadedProgram, load_unit
from repro.uarch import counters as C
from repro.uarch import model as M
from repro.uarch.branch_predictor import BranchPredictor
from repro.uarch.cache import DataCache
from repro.uarch.classify import uops_of
from repro.uarch.model import ProcessorModel
from repro.x86 import sideeffects
from repro.x86.instruction import Instruction


@dataclass
class SimStats:
    model_name: str
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return self.counters.get(C.CPU_CYCLES, 0)

    def __getitem__(self, name: str) -> int:
        return self.counters.get(name, 0)

    def ipc(self) -> float:
        cycles = self.cycles or 1
        return self.counters.get(C.INSTRUCTIONS, 0) / cycles


class _LsdTracker:
    """Detects streamable loops from the dynamic branch behaviour."""

    def __init__(self, model: ProcessorModel) -> None:
        self.model = model
        self.branch_addr: Optional[int] = None
        self.target: Optional[int] = None
        self.iterations = 0
        self.lines: Set[int] = set()
        self.branches = 0
        self.poisoned = False       # body contained a disallowed insn
        self.active = False
        self.activations = 0

    def reset(self) -> None:
        self.branch_addr = None
        self.target = None
        self.iterations = 0
        self.lines = set()
        self.branches = 0
        self.poisoned = False
        self.active = False

    def observe(self, record: ExecRecord, is_branch: bool,
                taken: Optional[bool]) -> None:
        model = self.model
        insn = record.insn
        if not model.lsd_enabled:
            return
        if insn.is_call or insn.is_ret or insn.is_indirect_branch:
            self.reset()
            return

        self.lines.add(model.line_of(record.address))
        end_line = model.line_of(record.address + record.size - 1)
        self.lines.add(end_line)
        if is_branch:
            self.branches += 1

        if is_branch and taken:
            target = _taken_target(record)
            backward = target is not None and target <= record.address
            if backward and record.address == self.branch_addr \
                    and target == self.target:
                # Completed another iteration of the tracked loop.
                fits = (len(self.lines) <= model.lsd_max_lines
                        and self.branches <= model.lsd_max_branches
                        and not self.poisoned)
                if fits:
                    self.iterations += 1
                    if self.iterations >= model.lsd_min_iterations \
                            and not self.active:
                        self.active = True
                        self.activations += 1
                else:
                    self.iterations = 0
                    self.active = False
                self.lines = set()
                self.branches = 0
                self.poisoned = False
            elif backward:
                # New loop candidate.
                self.branch_addr = record.address
                self.target = target
                self.iterations = 0
                self.lines = set()
                self.branches = 0
                self.poisoned = False
                self.active = False
            else:
                # Forward taken branch inside the body is allowed; a taken
                # branch leaving the region kills streaming.
                if self.target is not None and target is not None \
                        and not (self.target <= target
                                 <= (self.branch_addr or 0)):
                    self.reset()
        elif is_branch and taken is False \
                and record.address == self.branch_addr:
            # Loop exit.
            self.reset()


def _taken_target(record: ExecRecord) -> Optional[int]:
    """Resolved target of a direct branch (from its final encoding)."""
    if record.insn.branch_target_label() is None:
        return None
    return _decode_target(record)


def _decode_target(record: ExecRecord) -> Optional[int]:
    insn = record.insn
    encoding = insn.encoding or b""
    address = record.address
    if not encoding:
        return None
    if insn.base == "jmp":
        if encoding[0] == 0xEB:
            rel = int.from_bytes(encoding[1:2], "little", signed=True)
            return address + 2 + rel
        if encoding[0] == 0xE9:
            rel = int.from_bytes(encoding[1:5], "little", signed=True)
            return address + 5 + rel
    if insn.base == "j":
        if 0x70 <= encoding[0] <= 0x7F:
            rel = int.from_bytes(encoding[1:2], "little", signed=True)
            return address + 2 + rel
        if encoding[0] == 0x0F and 0x80 <= encoding[1] <= 0x8F:
            rel = int.from_bytes(encoding[2:6], "little", signed=True)
            return address + 6 + rel
    return None


class PipelineSimulator:
    """Streaming consumer of ExecRecords; call feed() then finish()."""

    def __init__(self, model: ProcessorModel) -> None:
        self.model = model
        self.predictor = BranchPredictor(model)
        self.cache = DataCache(model) if model.cache_enabled else None
        self.lsd = _LsdTracker(model)

        self.frontend_cycle = 0
        self._decoded_this_cycle = 0
        self._current_line: Optional[int] = None

        self.reg_ready: Dict[str, int] = {}
        self.flags_ready = 0
        self.port_free: List[int] = [0] * model.num_ports
        self.mem_ready: Dict[int, int] = {}
        self._forwards: Dict[int, int] = {}
        self._fw_watermark = 0
        self._fw_gc_limit = 65536
        self.last_completion = 0

        self.counts: Dict[str, int] = {name: 0 for name in C.ALL}

        # Static per-instruction facts (uops, side effects, branch-ness)
        # memoized by identity; each value keeps a reference to its
        # instruction so an id can never be recycled while cached.
        self._facts: Dict[int, tuple] = {}

    # ---- helpers ---------------------------------------------------------

    def _frontend_advance(self, record: ExecRecord,
                          streaming: bool) -> int:
        """Account decode of one instruction; returns its fetch-ready cycle."""
        model = self.model
        if streaming:
            width = model.lsd_stream_width
            if self._decoded_this_cycle >= width:
                self.frontend_cycle += 1
                self._decoded_this_cycle = 0
            self._decoded_this_cycle += 1
            self.counts[C.LSD_UOPS] += 1
            return self.frontend_cycle

        line = model.line_of(record.address)
        end_line = model.line_of(record.address + max(record.size, 1) - 1)
        if self._current_line is None or line != self._current_line:
            # Every fetched decode line costs one fetch slot (16 bytes per
            # cycle on Core-2) — including the line a taken branch lands
            # on.  This is the §III.C.e mechanism: a one-line loop fetches
            # one line per iteration, a boundary-straddling one fetches
            # two.
            self.frontend_cycle += 1
            self._decoded_this_cycle = 0
            self.counts[C.DECODE_LINES] += 1
            self._current_line = line
        # An instruction spilling into the next line consumes it too.
        while end_line > self._current_line:
            self.frontend_cycle += 1
            self._current_line += 1
            self.counts[C.DECODE_LINES] += 1
            self._decoded_this_cycle = 0
        if self._decoded_this_cycle >= model.decode_width:
            self.frontend_cycle += 1
            self._decoded_this_cycle = 0
        self._decoded_this_cycle += 1
        return self.frontend_cycle

    def _issue_port(self, uop_class: str, ready: int) -> int:
        ports = self.model.port_map.get(uop_class, ())
        if not ports:
            return ready                      # NOPs use no port
        best_port = min(ports, key=lambda p: max(self.port_free[p], ready))
        issue = max(self.port_free[best_port], ready)
        self.port_free[best_port] = issue + 1
        return issue

    def _complete(self, issue: int, latency: int,
                  produces_result: bool = True) -> int:
        """Completion cycle honouring the forwarding-bandwidth limit.

        Only register results occupy forwarding slots (branches and
        flag-only compares don't).  When sustained demand exceeds the
        bandwidth, results back up; the watermark keeps the search for a
        free slot O(1).
        """
        cycle = issue + latency
        if not produces_result:
            if cycle > self.last_completion:
                self.last_completion = cycle
            return cycle
        if self._fw_watermark > cycle \
                and self._forwards.get(cycle, 0) >= self.model.forwarding_bw:
            cycle = self._fw_watermark
        while self._forwards.get(cycle, 0) >= self.model.forwarding_bw:
            cycle += 1
            self.counts[C.RESOURCE_STALLS_RS_FULL] += 1
        self._forwards[cycle] = self._forwards.get(cycle, 0) + 1
        if cycle > self._fw_watermark:
            self._fw_watermark = cycle
        if cycle > self.last_completion:
            self.last_completion = cycle
        return cycle

    def _operand_ready(self, insn: Instruction) -> int:
        ready = 0
        try:
            uses = sideeffects.reg_uses(insn)
            reads_flags = bool(sideeffects.flags_read(insn))
        except sideeffects.UnknownSideEffects:
            uses = {r.group for r in insn.register_operands()}
            reads_flags = True
        for group in uses:
            t = self.reg_ready.get(group, 0)
            if t > ready:
                ready = t
        if reads_flags and self.flags_ready > ready:
            ready = self.flags_ready
        return ready

    def _insn_facts(self, insn: Instruction) -> tuple:
        """Resolve per-instruction static facts once, not once per record."""
        facts = self._facts.get(id(insn))
        if facts is not None:
            return facts
        uop_list = uops_of(insn)
        try:
            facts = sideeffects.facts(insn)
            uses, defs = facts.uses, facts.defs
            reads_flags = bool(facts.flags_read)
            wflags = bool(facts.flags_written or facts.flags_undefined)
        except sideeffects.UnknownSideEffects:
            uses = defs = frozenset(r.group for r in insn.register_operands())
            reads_flags = wflags = True
        base = insn.base
        if base.startswith("prefetch"):
            prefetch = 1 if base == "prefetchnta" else 2
        else:
            prefetch = 0
        facts = (insn, uop_list, uses, reads_flags, defs, wflags,
                 base in ("j", "jmp", "call", "ret"), base == "j", prefetch)
        self._facts[id(insn)] = facts
        return facts

    # ---- main ------------------------------------------------------------

    def feed(self, record: ExecRecord) -> None:
        model = self.model
        insn = record.insn
        self.counts[C.INSTRUCTIONS] += 1

        streaming = self.lsd.active
        fetch_cycle = self._frontend_advance(record, streaming)

        (_, uop_list, uses, reads_flags, defs, wflags, is_branch, is_cond,
         prefetch) = self._insn_facts(insn)

        operand_ready = fetch_cycle
        for group in uses:
            t = self.reg_ready.get(group, 0)
            if t > operand_ready:
                operand_ready = t
        if reads_flags and self.flags_ready > operand_ready:
            operand_ready = self.flags_ready
        self.counts[C.UOPS] += len(uop_list)

        has_reg_result = bool(defs)

        # Prefetch hints touch the cache without port pressure.
        if prefetch and self.cache is not None and record.ea is not None:
            if prefetch == 1:
                self.cache.hint_nta(record.ea)
            else:
                self.cache.access(record.ea)

        load_done = None
        completion = operand_ready
        for uop_class, is_load, is_store in uop_list:
            ready = operand_ready
            if is_load:
                self.counts[C.MEM_LOADS] += 1
                latency = model.latency[M.LOAD]
                if record.ea is not None:
                    ready = max(ready,
                                self.mem_ready.get(record.ea >> 3, 0))
                    if self.cache is not None:
                        if not self.cache.access(record.ea):
                            latency += model.memory_latency
                            self.counts[C.L1D_MISSES] += 1
                        # Next-line prefetcher, indexed by load PC: a load
                        # sitting at a stride multiple aliases a dead
                        # table slot and gets no prefetch (§III.C.h);
                        # non-temporal accesses suppress it too.
                        if model.prefetcher_enabled \
                                and not self.cache.last_access_nta \
                                and not (
                                model.prefetch_pc_alias_stride
                                and record.address
                                % model.prefetch_pc_alias_stride == 0):
                            self.cache.access(
                                record.ea + model.cache_line_bytes)
                issue = self._issue_port(M.LOAD, ready)
                load_done = self._complete(issue, latency)
                completion = max(completion, load_done)
                continue
            if is_store:
                self.counts[C.MEM_STORES] += 1
                ready = max(ready, completion)
                issue = self._issue_port(M.STORE, ready)
                done = issue + model.latency[M.STORE]
                if record.ea is not None:
                    self.mem_ready[record.ea >> 3] = done
                    if self.cache is not None:
                        if not self.cache.access(record.ea, is_write=True):
                            self.counts[C.L1D_MISSES] += 1
                completion = max(completion, done)
                continue
            # compute uop
            ready = max(ready, load_done or 0)
            if uop_class == M.NOP:
                continue
            issue = self._issue_port(uop_class, ready)
            done = self._complete(
                issue, model.latency.get(uop_class, 1),
                produces_result=(has_reg_result
                                 and uop_class != M.BRANCH))
            completion = max(completion, done)

        # Write-backs.
        for group in defs:
            self.reg_ready[group] = completion
        if wflags:
            self.flags_ready = completion

        # Branch handling.
        taken = record.taken
        if is_cond:
            self.counts[C.BR_EXEC] += 1
            mispredicted = self.predictor.update(record.address,
                                                 bool(taken))
            if mispredicted:
                self.counts[C.BR_MISP] += 1
                resume = completion + model.bp_mispredict_penalty
                if resume > self.frontend_cycle:
                    self.frontend_cycle = resume
                self._current_line = None
                self._decoded_this_cycle = 0
        if is_branch and taken and not streaming:
            # Redirect: next fetch starts a new line.  While the LSD
            # streams, the loop-back branch costs nothing — replay
            # continues seamlessly.
            self._current_line = None
            self._decoded_this_cycle = 0

        self.lsd.observe(record, is_branch, taken)
        was_active = self.lsd.active
        if streaming and not was_active:
            # Fell out of the LSD: fetch restarts.
            self._current_line = None

        # Garbage-collect the forwarding histogram occasionally.  On
        # backend-bound traces every entry can sit above the horizon; the
        # adaptive limit keeps a fruitless sweep from re-running per
        # record (which made the walk quadratic in trace length).
        if len(self._forwards) > self._fw_gc_limit:
            horizon = self.frontend_cycle
            self._forwards = {c: n for c, n in self._forwards.items()
                              if c >= horizon}
            self._fw_gc_limit = max(65536, 2 * len(self._forwards))

    def finish(self) -> SimStats:
        total = max(self.frontend_cycle, self.last_completion) + 1
        self.counts[C.CPU_CYCLES] = total
        self.counts[C.LSD_ACTIVE_LOOPS] = self.lsd.activations
        if self.cache is not None:
            self.counts[C.L1D_EVICTIONS] = self.cache.evictions
        stats = SimStats(self.model.name, dict(self.counts))
        return stats

    # ---- steady-state fast-forward support --------------------------------

    def _ff_snapshot(self) -> dict:
        """Copy every piece of state the loop validator must certify."""
        lsd = self.lsd
        return {
            "frontend": self.frontend_cycle,
            "decoded": self._decoded_this_cycle,
            "line": self._current_line,
            "reg_ready": dict(self.reg_ready),
            "flags_ready": self.flags_ready,
            "port_free": list(self.port_free),
            "mem_ready": dict(self.mem_ready),
            "forwards": dict(self._forwards),
            "fw_watermark": self._fw_watermark,
            "last_completion": self.last_completion,
            "counts": dict(self.counts),
            "pred": self.predictor.ff_snapshot(),
            "cache": self.cache.ff_snapshot() if self.cache is not None
            else None,
            "lsd": (lsd.branch_addr, lsd.target, lsd.iterations,
                    frozenset(lsd.lines), lsd.branches, lsd.poisoned,
                    lsd.active, lsd.activations),
        }


# ---------------------------------------------------------------------------
# Steady-state loop fast-forward.
# ---------------------------------------------------------------------------

_FF_ENABLED = True
_FF_STATS = {
    "loops_entered": 0,
    "iterations_fast_forwarded": 0,
    "records_fast_forwarded": 0,
    "validation_failures": 0,
}


def fast_forward_stats() -> Dict[str, object]:
    stats: Dict[str, object] = dict(_FF_STATS)
    stats["enabled"] = _FF_ENABLED
    return stats


def reset_fast_forward_stats() -> None:
    for key in _FF_STATS:
        _FF_STATS[key] = 0


def set_fast_forward_enabled(enabled: bool) -> bool:
    global _FF_ENABLED
    previous = _FF_ENABLED
    _FF_ENABLED = bool(enabled)
    return previous


@contextmanager
def fast_forward_disabled() -> Iterator[None]:
    previous = set_fast_forward_enabled(False)
    try:
        yield
    finally:
        set_fast_forward_enabled(previous)


def _clock_ok(v0: int, v1: int, c: int, h0: int, h1: int) -> bool:
    """One clock value advanced by exactly *c*, or is dead in both snapshots.

    A clock value is *dead* once it is at or below the fetch horizon: every
    future use is ``max(value, ready)`` with ``ready >= frontend_cycle``, so
    it can never influence an issue time, a completion, or a counter again.
    Dead values are allowed to drift between the fast-forwarded run and the
    full replay — that drift is counter-invisible by construction.
    """
    return v1 == v0 + c or (v0 <= h0 and v1 <= h1)


def _ff_delta(s0: dict, s1: dict, expected_records: int) -> Optional[dict]:
    """Validate one measured period; return its delta or None if unsound."""
    c = s1["frontend"] - s0["frontend"]
    if c < 1:
        return None
    h0, h1 = s0["frontend"], s1["frontend"]
    if s1["decoded"] != s0["decoded"] or s1["line"] != s0["line"]:
        return None
    if not _clock_ok(s0["flags_ready"], s1["flags_ready"], c, h0, h1):
        return None
    if not _clock_ok(s0["fw_watermark"], s1["fw_watermark"], c, h0, h1):
        return None
    if not _clock_ok(s0["last_completion"], s1["last_completion"], c, h0,
                     h1):
        return None
    for v0, v1 in zip(s0["port_free"], s1["port_free"]):
        if not _clock_ok(v0, v1, c, h0, h1):
            return None
    for table in ("reg_ready", "mem_ready"):
        t0, t1 = s0[table], s1[table]
        for key in t0.keys() | t1.keys():
            if not _clock_ok(t0.get(key, 0), t1.get(key, 0), c, h0, h1):
                return None
    # The forwarding histogram must match exactly on its live window
    # (entries below the horizon can never be indexed again).
    live0 = {k: v for k, v in s0["forwards"].items() if k >= h0}
    live1 = {k - c: v for k, v in s1["forwards"].items() if k >= h1}
    if live0 != live1:
        return None
    table0, npred0, nmisp0 = s0["pred"]
    table1, npred1, nmisp1 = s1["pred"]
    if table0 != table1:
        return None
    if s0["cache"] is not None:
        c0, c1 = s0["cache"], s1["cache"]
        if c0[:3] != c1[:3]:
            return None
        cache_delta = (c1[3] - c0[3], c1[4] - c0[4], c1[5] - c0[5])
    else:
        cache_delta = (0, 0, 0)
    l0, l1 = s0["lsd"], s1["lsd"]
    if (l0[0], l0[1], l0[3], l0[4], l0[5], l0[6], l0[7]) \
            != (l1[0], l1[1], l1[3], l1[4], l1[5], l1[6], l1[7]):
        return None
    lsd_iters = l1[2] - l0[2]
    # An LSD candidate still below its activation threshold would flip the
    # front end into streaming mode partway through the skipped region;
    # only fast-forward once it has activated (or will never track).
    if lsd_iters != 0 and not l1[6]:
        return None
    counts_delta: Dict[str, int] = {}
    for name, after in s1["counts"].items():
        diff = after - s0["counts"][name]
        if diff < 0:
            return None
        counts_delta[name] = diff
    if counts_delta.get(C.INSTRUCTIONS, 0) != expected_records:
        return None
    return {"c": c, "counts": counts_delta,
            "pred": (npred1 - npred0, nmisp1 - nmisp0),
            "cache": cache_delta, "lsd_iters": lsd_iters}


def _ff_apply(pl: PipelineSimulator, delta: dict, repeats: int) -> None:
    """Advance the pipeline by *repeats* validated iterations at once."""
    shift = delta["c"] * repeats
    pl.frontend_cycle += shift
    pl.flags_ready += shift
    pl._fw_watermark += shift
    pl.last_completion += shift
    pl.port_free = [v + shift for v in pl.port_free]
    pl.reg_ready = {k: v + shift for k, v in pl.reg_ready.items()}
    pl.mem_ready = {k: v + shift for k, v in pl.mem_ready.items()}
    pl._forwards = {k + shift: v for k, v in pl._forwards.items()}
    counts = pl.counts
    for name, diff in delta["counts"].items():
        if diff:
            counts[name] += diff * repeats
    d_pred, d_misp = delta["pred"]
    pl.predictor.ff_apply(d_pred, d_misp, repeats)
    if pl.cache is not None:
        pl.cache.ff_apply(*delta["cache"], repeats)
    pl.lsd.iterations += delta["lsd_iters"] * repeats


class FastForwardEngine:
    """Streaming wrapper around a PipelineSimulator that skips steady loops.

    Feed it ExecRecords like a pipeline.  It keys loops by their taken
    backward branch, fingerprints each iteration as the tuple of
    ``(address, taken, ea)`` records in its body, and once
    ``min_repeats`` consecutive iterations fingerprint identically it
    measures one period and validates the soundness condition (see
    ``_ff_delta``).  While a validated loop keeps matching, whole
    iterations are replaced by one ``_ff_apply`` per drained batch; the
    first diverging record replays any buffered partial iteration through
    the normal walk, so exits are exact.
    """

    def __init__(self, pipeline: PipelineSimulator, min_repeats: int = 8,
                 max_body: int = 2048) -> None:
        self.pl = pipeline
        self.min_repeats = min_repeats
        self.max_body = max_body
        self._targets: Dict[int, tuple] = {}

        self.cur: List[tuple] = []          # records since last boundary
        self.key: Optional[tuple] = None    # (branch addr, target)
        self.prev_sig: Optional[tuple] = None
        self.repeats = 0
        self._retry_at: Dict[tuple, int] = {}

        self.measuring = False
        self.measure_left = 0
        self.s0: Optional[dict] = None
        self.period = 1
        self.fails = 0

        self.skipping = False
        self.unit_sig: Tuple[tuple, ...] = ()
        self.pos = 0
        self.buf: List[ExecRecord] = []
        self.pending = 0
        self.delta: Optional[dict] = None
        self._draining = False

    # -- skip state ---------------------------------------------------------

    def feed(self, record: ExecRecord) -> None:
        if self.skipping:
            if (record.address, record.taken, record.ea) \
                    == self.unit_sig[self.pos]:
                self.buf.append(record)
                self.pos += 1
                if self.pos == len(self.unit_sig):
                    self.pending += 1
                    self.pos = 0
                    self.buf.clear()
                return
            self._drain()
        self._scan_feed(record)

    def _drain(self) -> None:
        """Apply accumulated skips, then replay the buffered partial tail."""
        pending, buffered = self.pending, self.buf
        self.skipping = False
        self.pending = 0
        self.buf = []
        self.pos = 0
        if pending:
            _ff_apply(self.pl, self.delta, pending)
            _FF_STATS["iterations_fast_forwarded"] += pending * self.period
            _FF_STATS["records_fast_forwarded"] += \
                pending * len(self.unit_sig)
        self._draining = True
        try:
            for buffered_record in buffered:
                self._scan_feed(buffered_record)
        finally:
            self._draining = False

    # -- scan/measure state --------------------------------------------------

    def _scan_feed(self, record: ExecRecord) -> None:
        self.pl.feed(record)
        self.cur.append((record.address, record.taken, record.ea))
        if record.taken:
            key = self._backward_key(record)
            if key is not None:
                self._boundary(key)
                return
        if len(self.cur) > self.max_body:
            self.cur = []
            self.prev_sig = None
            self.repeats = 0
            self.measuring = False

    def _backward_key(self, record: ExecRecord) -> Optional[tuple]:
        cached = self._targets.get(id(record.insn))
        if cached is None:
            # Pin the instruction in the cache value so its id stays unique
            # for this engine's lifetime.
            cached = (record.insn, _taken_target(record))
            self._targets[id(record.insn)] = cached
        target = cached[1]
        if target is not None and target <= record.address:
            return (record.address, target)
        return None

    def _boundary(self, key: tuple) -> None:
        sig = tuple(self.cur)
        self.cur = []
        if self.measuring:
            if key == self.key and sig == self.prev_sig:
                self.measure_left -= 1
                if self.measure_left > 0:
                    return
                s1 = self.pl._ff_snapshot()
                delta = _ff_delta(self.s0, s1, len(sig) * self.period)
                if delta is not None:
                    self.measuring = False
                    self.delta = delta
                    self.unit_sig = sig * self.period
                    self.skipping = True
                    self.pos = 0
                    self.pending = 0
                    self.buf = []
                    _FF_STATS["loops_entered"] += 1
                    return
                _FF_STATS["validation_failures"] += 1
                self.fails += 1
                if self.fails >= 6:
                    # Not steady yet (warm-up, drifting clocks): back off
                    # exponentially before re-arming this loop.
                    self._retry_at[key] = self.repeats * 2 + 16
                    self.measuring = False
                    return
                if self.fails in (2, 4):
                    # A period-p pattern (e.g. decode slots realigning
                    # every other iteration) validates at a multiple.
                    self.period *= 2
                self.s0 = s1
                self.measure_left = self.period
                return
            self.measuring = False   # pattern broke mid-measurement
        if key == self.key and sig == self.prev_sig:
            self.repeats += 1
            if not self._draining and not self.skipping \
                    and self.repeats >= self._retry_at.get(
                        key, self.min_repeats):
                self.s0 = self.pl._ff_snapshot()
                self.measure_left = self.period
                self.measuring = True
        else:
            self.key = key
            self.prev_sig = sig
            self.repeats = 0
            self.period = 1
            self.fails = 0

    def finish(self) -> SimStats:
        if self.skipping:
            self._drain()
        return self.pl.finish()


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------

def simulate_trace(trace: Iterable[ExecRecord], model: ProcessorModel,
                   fast_forward: bool = True) -> SimStats:
    """Run the timing model over a complete trace."""
    with obs.span("simulate", model=model.name, streaming=False,
                  fast_forward=bool(fast_forward and _FF_ENABLED)) as span:
        pipeline = PipelineSimulator(model)
        if fast_forward and _FF_ENABLED:
            engine = FastForwardEngine(pipeline)
            for record in trace:
                engine.feed(record)
            stats = engine.finish()
        else:
            for record in trace:
                pipeline.feed(record)
            stats = pipeline.finish()
        if span:
            span.attach(cycles=stats.cycles,
                        instructions=stats[C.INSTRUCTIONS])
    return stats


def simulate_reference(trace: Iterable[ExecRecord],
                       model: ProcessorModel) -> SimStats:
    """The retained full walk: every record through the pipeline, no skips."""
    return simulate_trace(trace, model, fast_forward=False)


def simulate_program(program: LoadedProgram, model: ProcessorModel,
                     entry: Optional[int] = None,
                     max_steps: int = 5_000_000,
                     args: Optional[List[int]] = None,
                     fast_forward: bool = True,
                     private_memory: bool = False
                     ) -> Tuple[RunResult, SimStats]:
    """Execute a loaded program and time it in one streaming pass.

    Records flow from the interpreter's ``trace_callback`` straight into
    the pipeline (optionally through the fast-forward engine) — no trace
    list is materialized.  ``private_memory`` runs against a clone of the
    program's memory image so the same LoadedProgram can be reused across
    sweeps.
    """
    with obs.span("simulate", model=model.name,
                  fast_forward=bool(fast_forward and _FF_ENABLED)) as span:
        if span:
            from repro.sim.interp import block_cache_stats
            ff_before = dict(_FF_STATS)
            blk_before = block_cache_stats()
        pipeline = PipelineSimulator(model)
        consumer: Callable[[ExecRecord], None]
        if fast_forward and _FF_ENABLED:
            engine = FastForwardEngine(pipeline)
            finisher = engine
        else:
            finisher = pipeline
        interp = Interpreter(program, max_steps=max_steps,
                             private_memory=private_memory)
        result = interp.run(entry=entry, trace_callback=finisher.feed,
                            args=args)
        stats = finisher.finish()
        if span:
            blk_after = block_cache_stats()
            span.attach(
                cycles=stats.cycles,
                instructions=result.steps,
                reason=result.reason,
                ff_loops=_FF_STATS["loops_entered"]
                - ff_before["loops_entered"],
                ff_iterations=_FF_STATS["iterations_fast_forwarded"]
                - ff_before["iterations_fast_forwarded"],
                ff_records=_FF_STATS["records_fast_forwarded"]
                - ff_before["records_fast_forwarded"],
                block_hits=int(blk_after["block_hits"])
                - int(blk_before["block_hits"]),
                blocks_compiled=int(blk_after["blocks_compiled"])
                - int(blk_before["blocks_compiled"]))
    return result, stats


def simulate_unit(unit: MaoUnit, model: ProcessorModel,
                  entry_symbol: str = "main",
                  max_steps: int = 5_000_000,
                  args: Optional[List[int]] = None,
                  fast_forward: bool = True) -> Tuple[RunResult, SimStats]:
    """Load a unit and stream-simulate it (see ``simulate_program``)."""
    with obs.span("load", entry=entry_symbol):
        program = load_unit(unit, entry_symbol)
    return simulate_program(program, model, max_steps=max_steps, args=args,
                            fast_forward=fast_forward)
