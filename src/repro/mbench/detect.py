"""Parameter-detection experiments (paper §IV and §IV.A).

:func:`InstructionLatency` is a line-for-line port of the paper's Fig. 6.
The other detectors realize the section's goal — "to discover
micro-architectural features ... semi-automatically" — against a possibly
*blinded* processor model: they only look at PMU counters, never at the
model's fields.
"""

from __future__ import annotations

from typing import List, Optional

from repro.mbench import loop, sequence as insseq
from repro.mbench.benchmark import Benchmark
from repro.mbench.loop import LoopList, StraightLineLoop
from repro.mbench.processor import Processor
from repro.mbench.sequence import DagType, InstructionSequence


def InstructionLatency(proc: Processor, template: str,
                       length: int = 8, trip_count: int = 2000) -> int:
    """Determine an instruction's latency (paper Fig. 6, verbatim shape).

    Form a loop with a cycle of instructions, one dependent on the other.
    Execute the chain, collect CPU cycles and obtain the latency.
    """
    seq = insseq.InstructionSequence(proc, length=length)
    seq.SetInstructionTemplate(template)
    seq.SetDagType(insseq.DagType.CYCLE)
    seq.Generate()
    loop_list = loop.LoopList(
        [loop.StraightLineLoop([seq], proc, trip_count=trip_count)])
    bench = Benchmark(loop_list)
    results = bench.Execute(proc, [proc.CPU_CYCLES])
    insns_in_loop = loop_list.NumDynamicInstructions()
    latency = round(float(results[proc.CPU_CYCLES]) / insns_in_loop)
    return latency


def InstructionThroughput(proc: Processor, template: str,
                          length: int = 12,
                          trip_count: int = 2000) -> float:
    """Reciprocal throughput: independent copies of one instruction."""
    seq = InstructionSequence(proc, length=length)
    seq.SetInstructionTemplate(template)
    seq.SetDagType(DagType.DISJOINT)
    seq.Generate()
    loop_list = LoopList([StraightLineLoop([seq], proc,
                                           trip_count=trip_count)])
    bench = Benchmark(loop_list)
    results = bench.Execute(proc, [proc.CPU_CYCLES])
    return results[proc.CPU_CYCLES] / loop_list.NumDynamicInstructions()


def _alignment_cycle_profile(proc: Processor, offsets: range,
                             trip_count: int = 24) -> List[float]:
    """Per-iteration cycles of a decode-bound loop at varying alignments.

    The body is made of wide multi-byte NOPs: they occupy decode slots but
    no execution ports and forward no results, so the loop's speed is set
    purely by how many fetch lines the body spans.  The trip count stays
    below any plausible LSD engagement threshold, and running each layout
    at two trip counts and differencing removes the prologue's cost.
    """
    def run(offset: int, trips: int) -> int:
        seq = InstructionSequence(proc, length=6)
        seq.SetInstructionTemplate("nopl 128(%rax,%rax,1)")  # 8 bytes
        seq.SetDagType(DagType.DISJOINT)
        seq.Generate()
        inner = StraightLineLoop([seq], proc, trip_count=trips)
        inner.pre_alignment_nops = offset
        bench = Benchmark(LoopList([inner]))
        return bench.Execute(proc, [proc.CPU_CYCLES])[proc.CPU_CYCLES]

    cycles: List[float] = []
    for offset in offsets:
        low = run(offset, trip_count)
        high = run(offset, trip_count * 2)
        cycles.append((high - low) / trip_count)
    return cycles


def DetectDecodeLineSize(proc: Processor,
                         max_line: int = 64) -> int:
    """Infer the decode-line size from the period of alignment effects.

    A short decode-bound loop is slid byte-by-byte through memory; its
    cycle count varies cyclically with the starting offset, and the period
    of that variation is the fetch-line size.
    """
    profile = _alignment_cycle_profile(proc, range(0, max_line))
    best_period = max_line
    for period in (8, 16, 32, 64):
        if period > len(profile):
            break
        ok = all(profile[i] == profile[i - period]
                 for i in range(period, len(profile)))
        varies = len(set(profile[:period])) > 1
        if ok and varies:
            best_period = period
            break
    return best_period


def DetectBranchPredictorShift(proc: Processor,
                               max_shift: int = 7,
                               iterations: int = 400) -> int:
    """Infer the predictor index shift from branch-aliasing interference.

    Two highly-biased branches (one always taken, one never taken) are
    placed a controlled distance D apart; the pair is slid through memory
    and the *worst-case* misprediction count over all placements is taken.
    While D < 2^shift some placement puts both branches in one bucket and
    they thrash each other's 2-bit counter; once D >= 2^shift no placement
    aliases and mispredictions collapse.  Returns the inferred shift.
    """
    from repro.mbench.benchmark import load_program_cached
    from repro.uarch.pipeline import simulate_program

    def worst_case(distance: int) -> int:
        pad = max(0, distance - 6)   # js(2) + pad + subq(4) -> jne
        worst = 0
        for slide in range(0, 2 * distance, max(1, distance // 8)):
            pre = "\n".join("    nop" for _ in range(slide))
            nops = "\n".join("    nop" for _ in range(pad))
            source = f"""
.text
.globl main
main:
    movq ${iterations}, %rbp
{pre}
.Lloop:
    testq %rbp, %rbp
    js .Lnever
{nops}
.Lnever:
    subq $1, %rbp
    jne .Lloop
    ret
"""
            program = load_program_cached(source)
            _, stats = simulate_program(program, proc.model,
                                        private_memory=True)
            worst = max(worst, stats["BR_MISP"])
        return worst

    threshold = iterations // 4
    for shift in range(2, max_shift + 1):
        if worst_case(1 << shift) < threshold:
            return shift
    return max_shift


# ---------------------------------------------------------------------------
# Discovery ladders (repro.discover).  Everything below measures through PMU
# counters only, or — nanoBench-style — compares the oracle's counters with
# a *candidate* model's counters on the same generated source.  None of it
# reads the oracle model's fields.
# ---------------------------------------------------------------------------

def _run_source(model, source: str, max_steps: int = 20_000_000):
    """Assemble+simulate ``source`` against ``model``; return PMU stats."""
    from repro.mbench.benchmark import load_program_cached
    from repro.uarch.pipeline import simulate_program

    program = load_program_cached(source)
    result, stats = simulate_program(program, model, max_steps=max_steps,
                                     private_memory=True)
    if result.reason != "ret":
        raise RuntimeError("discovery benchmark did not retire cleanly: %r"
                           % (result.reason,))
    return stats


def _nop_loop_source(trip_count: int, nops: int, align: int) -> str:
    """A loop of single-byte NOPs: decode bandwidth, no port pressure."""
    body = "\n".join(["    nop"] * nops)
    return """.text
.globl main
main:
    movq $%d, %%rbp
    .p2align %d
.Lloop:
%s
    subq $1, %%rbp
    jne .Lloop
    ret
""" % (trip_count, align, body)


#: Per-class serial-dependency idioms for chain-latency ladders.  Each is a
#: self-read-modify-write on one register, so K copies form a chain of
#: length K per iteration.  ``%r`` is substituted with the chain register.
_CHAIN_IDIOMS = {
    "alu": "addq $1, %r",
    "lea": "leaq 1(%r), %r",
    "shift": "sarq $1, %r",
    "mul": "imulq $3, %r, %r",
    "load": "movq (%r), %r",
    "fp_add": "addsd %x, %x",
    "fp_mul": "mulsd %x, %x",
}


def _chain_source(klass: str, trip_count: int, copies: int) -> str:
    if klass == "div":
        # idiv's quotient chains through rax; rdx is re-zeroed from an
        # immediate each step so the chain never flows through the
        # remainder (and never overflows).
        step = "    idivq %rbx\n    movq $0, %rdx"
        body = "\n".join([step] * copies)
        prologue = ("    movq $999999999, %rax\n"
                    "    movq $0, %rdx\n"
                    "    movq $3, %rbx")
    else:
        idiom = _CHAIN_IDIOMS[klass]
        line = "    " + idiom.replace("%r", "%rbx").replace("%x", "%xmm1")
        body = "\n".join([line] * copies)
        prologue = "    movq $0, %rbx"
    return """.text
.globl main
main:
%s
    movq $%d, %%rbp
.Lloop:
%s
    subq $1, %%rbp
    jne .Lloop
    ret
""" % (prologue, trip_count, body)


def DetectChainLatency(proc: Processor, klass: str) -> int:
    """Latency of ``klass`` from a serial chain, prologue-free by differencing.

    Two trip counts are run and differenced, so the steady-state slope —
    ``copies * latency`` cycles per iteration — is measured exactly even
    when the loop's first iterations pay decode or misprediction costs.
    """
    copies = 6 if klass == "div" else 8
    low_trips, high_trips = 150, 300
    low = _run_source(proc.model, _chain_source(klass, low_trips, copies))
    high = _run_source(proc.model, _chain_source(klass, high_trips, copies))
    per_iter = (high["CPU_CYCLES"] - low["CPU_CYCLES"]) / (high_trips -
                                                           low_trips)
    return round(per_iter / copies)


def DetectDecodeWidth(proc: Processor, line_bytes: int,
                      trip_count: int = 24) -> int:
    """Infer decode width from the per-line cost of dense decode lines.

    Two bodies of single-byte NOPs spanning ``10*L`` and ``18*L`` bytes
    (both far past any LSD budget, so the loop never streams) are timed
    and differenced: the extra 8 lines cost ``8 * (1 + (L-1)//width)``
    cycles per iteration.  The smallest width consistent with that cost is
    returned — widths in the same ceiling class (e.g. 4 and 5 at L=16)
    are indistinguishable by construction, a documented limit.
    """
    align = line_bytes.bit_length() - 1

    def cpi(nops: int) -> float:
        low = _run_source(proc.model,
                          _nop_loop_source(trip_count, nops, align))
        high = _run_source(proc.model,
                           _nop_loop_source(trip_count * 2, nops, align))
        return (high["CPU_CYCLES"] - low["CPU_CYCLES"]) / trip_count

    lines_small, lines_large = 10, 18
    delta = cpi(lines_large * line_bytes) - cpi(lines_small * line_bytes)
    per_line = round(delta / (lines_large - lines_small))
    for width in range(1, line_bytes + 1):
        if 1 + (line_bytes - 1) // width == per_line:
            return width
    return line_bytes


def DetectLsdIterationThreshold(proc: Processor, line_bytes: int,
                                max_threshold: int = 512) -> Optional[int]:
    """Infer the LSD engagement threshold, or None if the LSD never engages.

    Bisects on the smallest trip count at which ``LSD_UOPS`` fires for a
    minimal one-line loop.  The streaming onset trips at
    ``min_iterations + 2`` (the tracker needs the iteration count to reach
    the threshold before the *next* fetch can stream), so two is
    subtracted back out.
    """
    align = line_bytes.bit_length() - 1

    def streams(trips: int) -> bool:
        source = """.text
.globl main
main:
    movq $%d, %%rbp
    .p2align %d
.Lloop:
    nopl 128(%%rax,%%rax,1)
    subq $1, %%rbp
    jne .Lloop
    ret
""" % (trips, align)
        return _run_source(proc.model, source)["LSD_UOPS"] > 0

    if not streams(max_threshold):
        return None
    lo, hi = 2, max_threshold          # invariant: streams(hi), not lo-1
    while lo < hi:
        mid = (lo + hi) // 2
        if streams(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo - 2


def DetectLsdStreamWidth(proc: Processor, line_bytes: int,
                         line_budget: int, min_iterations: int) -> int:
    """Infer how many streamed uops issue per cycle once the LSD is live.

    The body is packed with single-byte NOPs right up to the line budget,
    so uops-per-iteration exceeds any plausible stream width and the
    streaming front end — not the loop counter's 1-cycle dependency
    chain — is the binding resource.  Differencing two trip counts above
    the threshold isolates the streaming steady state.
    """
    align = line_bytes.bit_length() - 1
    # Worst-case tail is subq (4) + near-form jne (6) = 10 bytes.
    nops = line_budget * line_bytes - 10
    uops = nops + 2
    low_trips = min_iterations + 64
    high_trips = min_iterations + 192
    low = _run_source(proc.model,
                      _nop_loop_source(low_trips, nops, align))
    high = _run_source(proc.model,
                       _nop_loop_source(high_trips, nops, align))
    cpi = (high["CPU_CYCLES"] - low["CPU_CYCLES"]) / (high_trips - low_trips)
    return round(uops / cpi)


def DetectLsdLineBudgetByCounter(proc: Processor, line_bytes: int,
                                 min_iterations: int,
                                 max_lines: int = 8) -> int:
    """Infer the LSD line budget from the ``LSD_UOPS`` counter directly.

    A cycles-per-line discontinuity washes out when streamed
    uops-per-line happens to equal the fetch bound (e.g. 8-byte NOPs on a
    32-byte line at stream width 4).  Real PMUs expose the streamed-uop
    count itself, so this ladder asks the counter: grow the aligned body
    one line at a time and return the largest span that still streams.
    """
    align = line_bytes.bit_length() - 1
    trips = min_iterations + 64
    budget = 0
    for lines_spanned in range(1, max_lines + 1):
        # Leave room for the worst-case tail: subq (4) + near-form jne (6).
        nops = lines_spanned * line_bytes - 10
        stats = _run_source(proc.model,
                            _nop_loop_source(trips, nops, align))
        if stats["LSD_UOPS"] == 0:
            break
        budget = lines_spanned
    return budget


def _forwarding_probe_source(trip_count: int = 200) -> str:
    """Many independent result streams: retire pressure scales with them."""
    body = []
    for _ in range(4):
        body.append("    addq $1, %rbx")
        body.append("    addq $1, %rcx")
        body.append("    addq $1, %rdx")
        body.append("    movq 0(%r15), %rsi")
    return """.text
.globl main
main:
    push %%r15
    leaq buf(%%rip), %%r15
    movq $%d, %%rbp
.Lloop:
%s
    subq $1, %%rbp
    jne .Lloop
    pop %%r15
    ret
.section .bss
buf:
    .zero 64
""" % (trip_count, "\n".join(body))


def DetectForwardingBandwidthMatch(proc: Processor, base_model,
                                   candidates=range(1, 9)) -> Optional[int]:
    """Grid-match the forwarding bandwidth against candidate models.

    A stall counter's threshold crossing is only exact when retire
    pressure steps in units of one (it reads 4 on opteron, whose truth
    is 3); this fits the whole cycle count of a high-pressure body
    (12 ALU streams + 4 loads per iteration) the way
    :func:`DetectMispredictPenalty` does.  Returns None when no candidate
    reproduces the oracle — some other base parameter is off.
    """
    import dataclasses

    source = _forwarding_probe_source()
    target = _run_source(proc.model, source)["CPU_CYCLES"]
    for bandwidth in candidates:
        candidate = dataclasses.replace(base_model,
                                        forwarding_bw=bandwidth)
        if _run_source(candidate, source)["CPU_CYCLES"] == target:
            return bandwidth
    return None


def _penalty_source(trip_count: int, pad_nops: int = 320) -> str:
    """A loop with one data-dependent (alternating) forward branch.

    The branch is taken every other iteration, so a 2-bit counter
    mispredicts ~every iteration; ``pad_nops`` single-byte NOPs push the
    body far past any LSD budget and separate the two branches beyond any
    plausible predictor-aliasing distance.
    """
    pad = "\n".join(["    nop"] * pad_nops)
    return """.text
.globl main
main:
    movq $%d, %%rbp
    movq $0, %%rbx
.Lloop:
    addq $1, %%rbx
    movq %%rbx, %%rcx
    andq $1, %%rcx
    jne .Lskip
%s
.Lskip:
    subq $1, %%rbp
    jne .Lloop
    ret
""" % (trip_count, pad)


def DetectMispredictPenalty(proc: Processor, base_model,
                            candidates=range(2, 33),
                            trip_count: int = 96) -> Optional[int]:
    """Grid-match the mispredict penalty against candidate models.

    nanoBench-style model fitting: the alternating-branch source is run on
    the oracle, then on copies of ``base_model`` (the parameters inferred
    so far) with each candidate penalty substituted; cycles scale
    monotonically in the penalty so the exact match is unique.  Returns
    None when no candidate reproduces the oracle's count (i.e. some
    *other* base parameter is off).
    """
    import dataclasses

    source = _penalty_source(trip_count)
    target = _run_source(proc.model, source)["CPU_CYCLES"]
    for penalty in candidates:
        candidate = dataclasses.replace(base_model,
                                        bp_mispredict_penalty=penalty)
        if _run_source(candidate, source)["CPU_CYCLES"] == target:
            return penalty
    return None


_PORT_PROBE_REGS = ["r8", "r9", "r10", "r11", "r12", "r13", "rsi", "rdi"]


def _port_probe_sources(klass: str, trip_count: int = 200):
    """(solo, antagonist-pair) sources for port-set probing of ``klass``.

    The solo body is 12 independent copies of the class idiom rotated over
    scratch registers (pure throughput).  The pair body interleaves the
    idiom with ``mulsd`` — an FP-multiply antagonist whose port binding is
    inferred independently — so candidates that share a port with it
    separate from candidates that do not.
    """
    idiom = _CHAIN_IDIOMS[klass]

    def fmt(reg: str) -> str:
        return "    " + idiom.replace("%r", "%" + reg)

    solo = "\n".join(fmt(_PORT_PROBE_REGS[i % 8]) for i in range(12))
    pair_lines = []
    for i in range(8):
        pair_lines.append(fmt(_PORT_PROBE_REGS[i]))
        pair_lines.append("    mulsd %%xmm%d, %%xmm%d" % (i + 1, i + 1))
    pair = "\n".join(pair_lines)
    template = """.text
.globl main
main:
    movq $%d, %%rbp
.Lloop:
%s
    subq $1, %%rbp
    jne .Lloop
    ret
"""
    return template % (trip_count, solo), template % (trip_count, pair)


def DetectPortSet(proc: Processor, base_model, klass: str,
                  candidates) -> Optional[tuple]:
    """Infer which ports execute ``klass`` by candidate-model matching.

    Both probe sources are run on the oracle; a candidate port set matches
    only if it reproduces *both* cycle counts (solo throughput pins the
    set's size, the antagonist pair pins its overlap with the FP-multiply
    ports).  Returns the matching tuple, or None when the true set lies
    outside the candidate space — discovery identifies port bindings only
    up to the hypothesis space it searches.
    """
    import dataclasses

    sources = _port_probe_sources(klass)
    targets = [_run_source(proc.model, s)["CPU_CYCLES"] for s in sources]
    for cand in candidates:
        ports = tuple(cand)
        port_map = dict(base_model.port_map)
        port_map[klass] = ports
        candidate = dataclasses.replace(base_model, port_map=port_map)
        measured = [_run_source(candidate, s)["CPU_CYCLES"] for s in sources]
        if measured == targets:
            return ports
    return None
