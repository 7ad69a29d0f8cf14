"""Shared plumbing of the benchmark: paths, inputs, timing and statistics.

Everything the benchmark reads or writes lives inside the checkout it runs
from: the program under ``src/`` and scratch state under ``.bench_work/``.

Times are reported at a reference machine speed.  The hosts this runs on
change speed by up to 2x between minutes (measured: a fixed Python loop
took 1.24-2.31 ms across five 30-second runs on a 2-CPU KVM guest), which
no run length averages out.  So every timed operation is bracketed by a
short calibration loop, and its time is scaled by ``CAL_REF_S`` over the
calibration time around it (:func:`timed`, :func:`to_ref`).  Units ``ref_ms`` /
``ref_s`` mark such times; the raw wall-clock value is printed beside
each one.
"""

from __future__ import annotations

import os
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

#: The pass spec of ``optimize_cold`` and of the server probe.
CORPUS_SPEC = "REDZEE:REDTEST:REDMOV:ADDADD:LOOP16"
#: The spec applied to the paper kernels before simulating them.
KERNEL_SPEC = "REDTEST:LOOP16"
CORES = ("core2", "opteron")

#: The paper kernels at benchmark size: each simulates in 20-50 ms on a
#: 2-CPU host.  ``fig4_loop`` is the only one that engages fast-forward
#: (the steady class; not after REDTEST:LOOP16 on core2, where its
#: validations fail); ``hash_bench`` keeps its validation failures.
#: ``fig4_loop`` is kept short so that its failing-validation variant is
#: not a cluster of its own at the latency tail.
KERNEL_ARGS: Dict[str, Dict[str, int]] = {
    "mcf_fig1": {"outer": 6},
    "eon_loop": {"outer": 80},
    "hash_bench": {"trip": 300},
    "nested_short_loops": {"outer": 150},
    "fig4_loop": {"iterations": 300},
}
STEADY_KERNELS = frozenset({"fig4_loop"})


def kernel_class(name: str) -> str:
    return "steady" if name in STEADY_KERNELS else "irregular"


def prepare_environment() -> None:
    """Point imports at ``src/`` and temporary files at ``.bench_work/``.

    Exits with code 2, printing no result, when the program is absent.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program under %s; run from the root of a "
              "PyMAO checkout" % SRC, file=sys.stderr)
        raise SystemExit(2)
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["PYTHONPATH"] = SRC + (
        os.pathsep + os.environ["PYTHONPATH"]
        if os.environ.get("PYTHONPATH") else "")
    import tempfile

    tempfile.tempdir = tmp
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def sub_seed(seed: int, *parts: Any) -> int:
    """A stable derived seed (``hash()`` of str is salted per process)."""
    rng = random.Random("%d|%s" % (seed, "|".join(map(str, parts))))
    return rng.randrange(1 << 31)


def kernel_sources() -> Dict[str, str]:
    from repro.workloads import kernels

    return {name: getattr(kernels, name)(**args)
            for name, args in KERNEL_ARGS.items()}


def code_bytes(asm: str) -> int:
    """Encoded size of the code sections of *asm*, as relaxed."""
    from repro.analysis.relax import relax_unit
    from repro.ir import parse_unit

    layouts = relax_unit(parse_unit(asm))
    return sum(layout.size for layout in layouts.values()
               if layout.section.is_code)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Reference-speed timing.
# ---------------------------------------------------------------------------

#: Time of one calibration loop on the host the benchmark was tuned on,
#: in its fast state: a reference second is the time that host needs.
CAL_REF_S = 0.002


class _Node:
    __slots__ = ("key", "next")

    def __init__(self, key: int, next_node: Optional["_Node"]) -> None:
        self.key = key
        self.next = next_node


def calibrate() -> float:
    """Seconds one pass of a fixed interpreter-bound loop takes now.

    Hashing into a table of a few thousand keys, allocating and chasing
    small objects, and string formatting: the program's own mix of
    container and object work, with a working set larger than the
    innermost caches so that it slows when the host's caches are shared.
    """
    start = time.perf_counter()
    table: Dict[int, int] = {}
    head: Optional[_Node] = None
    size = 0
    for i in range(3000):
        key = (i * 2654435761) & 8191
        table[key] = table.get(key, 0) + i
        head = _Node(key, head)
        size += len("%d:%d" % (key, i))
    while head is not None:
        size += table[head.key] & 1
        head = head.next
    return time.perf_counter() - start


def timed(fn: Callable, *args: Any, **kwargs: Any) -> Tuple[Any, float, float]:
    """Call *fn*; return its value, its reference-speed time and its raw
    wall-clock time (seconds)."""
    before = calibrate()
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    raw = time.perf_counter() - start
    return value, to_ref(raw, before, calibrate()), raw


def to_ref(raw_s: float, before_s: float, after_s: float) -> float:
    """Scale *raw_s* by the mean of the calibrations just before and
    after it (steadier across runs than the faster or a wider window of
    calibrations, on the host described above)."""
    return raw_s * CAL_REF_S * 2 / (before_s + after_s)


# ---------------------------------------------------------------------------
# Closed-loop measurement.
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    latency_s: float          # at reference speed
    raw_s: float              # wall clock
    op: Any
    warm: bool
    ok: bool
    value: Any = None


@dataclass
class LoopResult:
    samples: List[Sample]
    elapsed_s: float

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)


def _after_first_cycle(_op: Any, cycle: int) -> bool:
    return cycle > 0


def closed_loop(ops: Sequence[Any], seconds: float,
                run_op: Callable[[Any], Any],
                is_warm: Callable[[Any, int], bool] = _after_first_cycle
                ) -> LoopResult:
    """Run *ops* in order, cycling, one at a time, until *seconds* pass.

    An op that raises is recorded as failed (with its traceback on
    stderr) and the loop goes on; ``is_warm(op, cycle)`` marks samples
    whose input the run has already processed.  Calibration loops
    separate the ops; each op is scaled by the two around it.
    """
    samples: List[Sample] = []
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    before = calibrate()
    while not samples or time.perf_counter() < deadline:
        op = ops[index % len(ops)]
        cycle = index // len(ops)
        t0 = time.perf_counter()
        ok = True
        value = None
        try:
            value = run_op(op)
        except Exception:  # an op failure is a measured outcome
            traceback.print_exc()
            ok = False
        raw = time.perf_counter() - t0
        after = calibrate()
        samples.append(Sample(to_ref(raw, before, after), raw, op,
                              is_warm(op, cycle), ok, value))
        before = after
        index += 1
    return LoopResult(samples, time.perf_counter() - start)


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The highest percentile with at least 10 samples beyond it.

    That is the 11th-largest sample; with 10 samples or fewer, the
    largest.  Returns the value and its percentile rank.
    """
    ordered = sorted(values)
    rank = max(0, len(ordered) - 11)
    return {"value": ordered[rank], "pct": 100.0 * (rank + 1) / len(ordered)}


@dataclass
class Report:
    """What one run measured and checked."""

    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    notes: Dict[str, str] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def put(self, name: str, value: float, unit: str,
            n: Optional[int] = None, note: str = "") -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}
        detail = "n=%d" % n if n is not None else ""
        if note:
            detail = (detail + " " + note).strip()
        self.notes[name] = detail

    def check(self, ok: bool, what: str) -> None:
        """Record one correctness check; a failure counts as failed work."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print("perfbench: CHECK FAILED: %s" % what, file=sys.stderr)

    def add_loop(self, loop: LoopResult) -> None:
        self.attempted += loop.attempted
        self.failed += loop.failed
        for sample in loop.samples:
            if not sample.ok:
                self.failures.append("op failed: %r" % (sample.op,))

    def put_latency(self, loop: LoopResult) -> None:
        """The loop metrics every workload reports.

        Failed ops count as infinitely slow in the percentiles.
        """
        def latencies(samples, attr):
            return [getattr(s, attr) if s.ok else float("inf")
                    for s in samples]

        lat = latencies(loop.samples, "latency_s")
        raw = latencies(loop.samples, "raw_s")
        warm = [s for s in loop.samples if s.warm]
        n = len(lat)
        self.put("ops_per_s", n / sum(s.latency_s for s in loop.samples),
                 "1/ref_s", n,
                 "raw %.4g/s over %.1f s" % (n / loop.elapsed_s,
                                              loop.elapsed_s))
        self.put("latency_p50_ms", 1000 * statistics.median(lat), "ref_ms",
                 n, "raw %.4g ms" % (1000 * statistics.median(raw)))
        t = tail(lat)
        self.put("latency_tail_ms", 1000 * t["value"], "ref_ms", n,
                 "p%.1f, raw %.4g ms" % (t["pct"],
                                         1000 * tail(raw)["value"]))
        if warm:
            self.put("warm_latency_p50_ms", 1000 * statistics.median(
                latencies(warm, "latency_s")), "ref_ms", len(warm),
                "raw %.4g ms" % (1000 * statistics.median(
                    latencies(warm, "raw_s"))))
