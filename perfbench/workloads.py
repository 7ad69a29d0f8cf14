"""The workloads: inputs from a seed, the measured loop, the checks.

Every workload follows one life cycle, driven by ``run.py``:

* ``setup()`` builds the inputs from the seed and warms the process (one
  discarded operation), so timing starts with lazy set-up done;
* ``measure(seconds, report)`` runs the closed loop untraced and records
  the end-to-end metrics;
* ``check(report)`` checks the outputs and records the deterministic
  output-quality metrics;
* ``trace(report)`` is the traced run: one fixed cycle of the same
  operations as a warm-up, untraced, then under :class:`layers.Tracer`,
  and returns the per-layer metrics;
* ``close()`` removes whatever ``setup()`` created.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

import layers
from common import (CORES, CORPUS_SPEC, KERNEL_SPEC, ROOT, WORK, LoopResult,
                    Report, closed_loop, code_bytes, kernel_class,
                    kernel_sources, peak_rss_mb, sub_seed, timed)


def _scratch(kind: str) -> str:
    """A fresh directory under ``.bench_work`` for this process."""
    path = os.path.join(WORK, "%s-%d-%d" % (kind, os.getpid(),
                                            time.monotonic_ns()))
    os.makedirs(path)
    return path


def _reset_encoder() -> None:
    from repro.x86.encoder import reset_encoding_cache

    reset_encoding_cache()


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(sub_seed(seed, self.name))

    # ---- overridable ------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def ops(self) -> List[Any]:
        raise NotImplementedError

    def run_op(self, op: Any) -> Any:
        raise NotImplementedError

    def is_warm(self, op: Any, cycle: int) -> bool:
        return cycle > 0

    def check(self, report: Report) -> None:
        raise NotImplementedError

    def interp_only_s(self) -> float:
        """Interpreter-only time of the traced cycle's simulations."""
        return 0.0

    def trace_extra(self, metrics: Dict[str, float]) -> None:
        """Probes beside the traced cycle (fast-path ratios and so on);
        their checks go to ``self.report``."""

    # ---- shared -----------------------------------------------------------

    def measure(self, seconds: float, report: Report) -> None:
        loop = closed_loop(self.ops(), seconds, self.run_op, self.is_warm)
        report.add_loop(loop)
        report.put_latency(loop)
        report.put("peak_rss_mb", peak_rss_mb(), "MB")
        self.loop = loop

    def run_cycle(self, tracer: Optional[layers.Tracer] = None
                  ) -> List[float]:
        """One pass over ``ops()``; returns each op's reference time."""
        times = []
        for op in self.ops():
            if tracer is None:
                times.append(timed(self.run_op, op)[1])
            else:
                with tracer.region("op"):
                    times.append(timed(self.run_op, op)[1])
        return times

    def trace(self, report: Report) -> Dict[str, float]:
        """Each timed cycle starts from an empty encoder cache, so its
        work counters do not depend on what ran before."""
        self.report = report
        self.run_cycle()                        # warm-up, discarded
        _reset_encoder()
        self.plain_times = self.run_cycle()
        _reset_encoder()
        tracer = layers.Tracer().install()
        try:
            traced_times = self.run_cycle(tracer)
        finally:
            tracer.uninstall()
        os.makedirs(os.path.join(WORK, "trace"), exist_ok=True)
        tracer.write(os.path.join(WORK, "trace", "%s-seed%d.jsonl"
                                  % (self.name, self.seed)))
        metrics = tracer.layer_metrics(self.interp_only_s())
        # Median over ops of traced / untraced time of the same op.
        metrics["trace.overhead_pct"] = 100.0 * (statistics.median(
            t / p for t, p in zip(traced_times, self.plain_times)) - 1.0)
        self.trace_extra(metrics)
        return metrics


# ---------------------------------------------------------------------------
# The paper kernels, and the quality suite every workload ends with.
# ---------------------------------------------------------------------------

class Kernels:
    """The benchmark-sized paper kernels, as given and after KERNEL_SPEC."""

    def __init__(self) -> None:
        from repro import api

        self.given = kernel_sources()
        self.optimized = {name: api.optimize(src, KERNEL_SPEC,
                                             cache=False).to_asm()
                          for name, src in self.given.items()}

    def source(self, name: str, variant: str) -> str:
        return (self.given if variant == "given" else self.optimized)[name]

    def ops(self) -> List[Tuple[str, str, str]]:
        """Every (kernel, core, variant) simulation."""
        return [(name, core, variant) for name in self.given
                for core in CORES for variant in ("given", "optimized")]

    def simulate(self, op: Tuple[str, str, str]) -> int:
        from repro import api

        name, core, variant = op
        return api.simulate(self.source(name, variant), core).steps


def put_sim_rates(report: Report, loop: LoopResult) -> None:
    """Simulated kilo-instructions per reference second, per kernel class,
    over a loop of ``Kernels.simulate`` ops."""
    steps = {"steady": 0, "irregular": 0}
    seconds = {"steady": 0.0, "irregular": 0.0}
    for sample in loop.samples:
        if sample.ok:
            steps[kernel_class(sample.op[0])] += sample.value
            seconds[kernel_class(sample.op[0])] += sample.latency_s
    for cls in steps:
        report.put("sim_%s_kinsn_per_s" % cls,
                   steps[cls] / seconds[cls] / 1000.0, "kinsn/ref_s",
                   note="%d insns" % steps[cls])


def check_kernel_states(report: Report, kernels: Kernels) -> None:
    """Simulate every kernel as given and optimized on both cores.

    The optimized kernel must end in the same architectural register
    state as the original.  Records ``kernel_cycles``: simulated
    CPU_CYCLES of the optimized kernels.
    """
    from repro import api

    cycles = 0
    for name in kernels.given:
        for core in CORES:
            runs = {variant: api.simulate(kernels.source(name, variant), core)
                    for variant in ("given", "optimized")}
            a, b = runs["given"], runs["optimized"]
            diff = a.result.state.diff(b.result.state)
            report.check(a.reason == b.reason == "ret" and not diff,
                         "%s on %s: optimized final state differs: %s"
                         % (name, core, sorted(diff)))
            cycles += b.cycles
    report.put("kernel_cycles", cycles, "cycles", 2 * len(kernels.given))


def check_tuned(report: Report, kernels: Kernels) -> None:
    """Tune every kernel x core cold into a fresh cache, then warm.

    The warm re-tune must run 0 passes and pick the same winner.  Records
    ``tuned_cycles``: the winners' summed predicted cycles.
    """
    from repro import api
    from repro.batch.cache import ArtifactCache

    root = _scratch("quality-tune")
    try:
        cache = ArtifactCache(root)
        total = 0.0
        for name, src in kernels.given.items():
            for core in CORES:
                cold = api.tune(src, core, cache=cache)
                warm = api.tune(src, core, cache=cache)
                report.check(warm.pass_runs["executed"] == 0
                             and warm.winner_spec == cold.winner_spec,
                             "warm re-tune of %s on %s: %s, winner %r vs %r"
                             % (name, core, warm.pass_runs,
                                warm.winner_spec, cold.winner_spec))
                total += cold.winner_cycles
        report.put("tuned_cycles", total, "cycles", 2 * len(kernels.given))
    finally:
        shutil.rmtree(root, ignore_errors=True)


def put_size_ratio(report: Report, outputs, inputs) -> None:
    """``code_size_ratio``: encoded bytes of the outputs over the inputs'."""
    out_bytes = sum(map(code_bytes, outputs))
    in_bytes = sum(map(code_bytes, inputs))
    report.put("code_size_ratio", out_bytes / in_bytes, "ratio",
               note="%d of %d bytes" % (out_bytes, in_bytes))


#: How long workloads that do not simulate in their loop simulate each
#: kernel class for the ``sim_*_kinsn_per_s`` metrics.
SIM_PROBE_SECONDS = 3.0


def quality_suite(report: Report, kernels: Kernels,
                  sim_probe: bool = True) -> None:
    check_kernel_states(report, kernels)
    check_tuned(report, kernels)
    if sim_probe:
        samples = []
        for cls in ("steady", "irregular"):
            ops = [op for op in kernels.ops() if kernel_class(op[0]) == cls]
            loop = closed_loop(ops, SIM_PROBE_SECONDS, kernels.simulate)
            report.add_loop(loop)
            samples += loop.samples
        put_sim_rates(report, LoopResult(samples, 2 * SIM_PROBE_SECONDS))


# ---------------------------------------------------------------------------
# optimize_cold
# ---------------------------------------------------------------------------

class OptimizeCold(Workload):
    """Cold ``api.optimize`` + ``to_asm`` over seeded corpus units."""

    name = "optimize_cold"
    #: Odd, so that the median latency falls inside the middle unit's
    #: samples rather than between two sizes 13% apart.
    UNITS = 13

    def setup(self) -> None:
        from repro import api
        from repro.workloads.corpus import CorpusConfig, generate_corpus_text

        self.configs = []
        for i in range(self.UNITS):
            frac = i / (self.UNITS - 1)
            self.configs.append(CorpusConfig(
                seed=sub_seed(self.seed, "unit", i),
                scale=0.0005 * 4 ** frac,            # ~430-1650 lines
                functions=1 + round(7 * frac)))
        self.rng.shuffle(self.configs)
        self.texts = [generate_corpus_text(c) for c in self.configs]
        self.first: Dict[int, Tuple[str, Dict[str, Dict[str, int]]]] = {}
        self.repeat_mismatch: List[int] = []
        # The same warm-up unit for every seed: optimizing ~900-line
        # units of two functions takes 0.08-0.23 s by their shape, which
        # would make setup_s depend on the seed.
        warm_up = generate_corpus_text(CorpusConfig(
            seed=0, scale=0.001, functions=2))
        api.optimize(warm_up, CORPUS_SPEC, jobs=1, cache=False).to_asm()
        self.kernels = Kernels()

    def ops(self) -> List[int]:
        return list(range(self.UNITS))

    def run_op(self, index: int) -> None:
        from repro import api

        result = api.optimize(self.texts[index], CORPUS_SPEC, jobs=1,
                              cache=False)
        asm = result.to_asm()
        if index not in self.first:
            stats = {name: result.stats_for(name)
                     for name in ("REDZEE", "REDTEST", "REDMOV", "ADDADD")}
            self.first[index] = (asm, stats)
        elif asm != self.first[index][0]:
            self.repeat_mismatch.append(index)

    def check(self, report: Report) -> None:
        from repro import api
        from repro.workloads.corpus import (PAPER_REDMOV,
                                            PAPER_TESTS_REDUNDANT,
                                            PAPER_ZEXT)

        for index in self.ops():
            if index not in self.first:
                self.run_op(index)
        for index, config in enumerate(self.configs):
            stats = self.first[index][1]
            zext = config.count(PAPER_ZEXT)
            want = {"REDZEE.removed": zext - max(1, round(zext * 0.07)),
                    "REDTEST.removed": config.count(PAPER_TESTS_REDUNDANT)}
            at_least = {"REDMOV.rewritten": config.count(PAPER_REDMOV),
                        "ADDADD.folded": config.count(2000)}
            got = {key: stats[key.split(".")[0]].get(key.split(".")[1], 0)
                   for key in list(want) + list(at_least)}
            ok = all(got[k] == v for k, v in want.items()) and \
                all(got[k] >= v for k, v in at_least.items())
            report.check(ok, "unit %d pass counts %s, injected %s / >= %s"
                         % (index, got, want, at_least))
        report.check(not self.repeat_mismatch,
                     "units %s optimized differently on a repeat"
                     % sorted(set(self.repeat_mismatch)))
        for index in random.Random(self.seed).sample(self.ops(), 2):
            verdict = api.verify(self.first[index][0])
            report.check(verdict.identical,
                         "unit %d output fails disassemble-compare: %s"
                         % (index, verdict.first_diff))
        put_size_ratio(report, [self.first[i][0] for i in self.ops()],
                       self.texts)
        quality_suite(report, self.kernels)

    def trace_extra(self, metrics) -> None:
        """Serial vs ``jobs=2`` process backend on the two largest units,
        then the server probe.

        Also counts the units whose ``jobs=2`` output differs from the
        serial one (the process backend runs LOOP16 on each function in
        isolation, which can change its alignment decisions).
        """
        from repro import api

        largest = sorted(self.ops(), key=lambda i: -len(self.texts[i]))[:2]
        serial = parallel = 0.0
        mismatches = 0
        for index in largest:
            times: Dict[int, List[float]] = {1: [], 2: []}
            outputs = {}
            for _rep in range(2):
                for jobs in (1, 2):
                    result, ref_s, _raw = timed(
                        api.optimize, self.texts[index], CORPUS_SPEC,
                        jobs=jobs, parallel_backend="process", cache=False)
                    times[jobs].append(ref_s)
                    outputs[jobs] = result.to_asm()
            mismatches += outputs[1] != outputs[2]
            serial += statistics.median(times[1])
            parallel += statistics.median(times[2])
        metrics["passes.parallel_vs_serial_ratio"] = serial / parallel
        metrics["passes.parallel_output_mismatches"] = mismatches
        metrics.update(server_probe(self.report, self.texts))


# ---------------------------------------------------------------------------
# simulate_kernels
# ---------------------------------------------------------------------------

class SimulateKernels(Workload):
    """``api.simulate`` of every kernel x core x {given, optimized}."""

    name = "simulate_kernels"

    def setup(self) -> None:
        from repro import api

        self.kernels = Kernels()
        self._ops = self.kernels.ops()
        self.rng.shuffle(self._ops)
        api.simulate(self.kernels.source("eon_loop", "given"), "core2")

    def ops(self) -> List[Tuple[str, str, str]]:
        return self._ops

    def run_op(self, op) -> int:
        return self.kernels.simulate(op)

    def measure(self, seconds: float, report: Report) -> None:
        super().measure(seconds, report)
        put_sim_rates(report, self.loop)

    def check(self, report: Report) -> None:
        """Fast-path counters equal the reference walk's, everywhere."""
        from repro import api
        from repro.ir import parse_unit
        from repro.sim.interp import Interpreter
        from repro.sim.loader import load_unit
        from repro.uarch.pipeline import simulate_reference
        from repro.uarch.tables import resolve_core

        for name, core, variant in sorted(self._ops):
            src = self.kernels.source(name, variant)
            fast = api.simulate(src, core)
            run = Interpreter(load_unit(parse_unit(src))).run(
                collect_trace=True)
            ref = simulate_reference(run.trace, resolve_core(core))
            report.check(fast.counters == ref.counters
                         and fast.steps == run.steps,
                         "%s/%s on %s: fast-path counters differ from "
                         "simulate_reference" % (name, variant, core))
        put_size_ratio(report, self.kernels.optimized.values(),
                       self.kernels.given.values())
        quality_suite(report, self.kernels, sim_probe=False)

    def interp_only_s(self) -> float:
        from repro.ir import parse_unit
        from repro.sim.interp import Interpreter
        from repro.sim.loader import load_unit

        total = 0.0
        for name, _core, variant in self._ops:
            program = load_unit(parse_unit(self.kernels.source(name,
                                                               variant)))
            total += timed(Interpreter(program).run)[1]
        return total

    def trace_extra(self, metrics) -> None:
        """Fast path (block cache + fast-forward) vs both switched off,
        per kernel class and per kernel (both cores)."""
        from repro import api
        from repro.sim.interp import block_cache_disabled
        from repro.uarch.pipeline import fast_forward_disabled

        plain: Dict[str, float] = defaultdict(float)
        fast: Dict[str, float] = defaultdict(float)
        for name, src in self.kernels.given.items():
            for core in CORES:
                times: Dict[str, List[float]] = {"fast": [], "plain": []}
                for _rep in range(2):
                    times["fast"].append(timed(api.simulate, src, core)[1])
                    with block_cache_disabled(), fast_forward_disabled():
                        times["plain"].append(
                            timed(api.simulate, src, core)[1])
                for key in (kernel_class(name), name):
                    fast[key] += statistics.median(times["fast"])
                    plain[key] += statistics.median(times["plain"])
        for key in fast:
            metrics["uarch.fast_vs_plain_ratio.%s" % key] = \
                plain[key] / fast[key]


# ---------------------------------------------------------------------------
# tune_cache
# ---------------------------------------------------------------------------

class TuneCache(Workload):
    """``api.tune`` per kernel x core: cold into a fresh cache, then warm.

    A round tunes the 10 pairs cold, then re-tunes them warm twice, so
    that the median latency falls inside one kernel's cluster rather
    than between two.
    """

    name = "tune_cache"

    def setup(self) -> None:
        from repro import api
        from repro.batch.cache import ArtifactCache

        self.kernels = Kernels()
        pairs = [(name, core) for name in self.kernels.given
                 for core in CORES]
        self._ops = []
        for kind in ("cold", "warm", "warm"):
            self.rng.shuffle(pairs)
            self._ops += [(kind,) + pair for pair in pairs]
        self.root = _scratch("tune")
        self.winners: Dict[Tuple[str, str], str] = {}
        self.winner_asm: Dict[Tuple[str, str], str] = {}
        self.mismatches: List[str] = []
        api.tune(self.kernels.given["eon_loop"], "core2",
                 cache=ArtifactCache(os.path.join(self.root, "warm-up")))

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def ops(self):
        return self._ops

    def is_warm(self, op, cycle) -> bool:
        return op[0] == "warm"

    def run_op(self, op) -> None:
        from repro import api
        from repro.batch.cache import ArtifactCache

        kind, name, core = op
        if op is self._ops[0]:
            self.cache = ArtifactCache(os.path.join(
                self.root, "r%d" % time.monotonic_ns()))
        result = api.tune(self.kernels.given[name], core, cache=self.cache)
        if kind == "cold":
            self.winners[(name, core)] = result.winner_spec
            self.winner_asm[(name, core)] = result.asm
        elif (result.pass_runs["executed"] != 0
              or result.winner_spec != self.winners[(name, core)]):
            self.mismatches.append("%s on %s" % (name, core))

    def check(self, report: Report) -> None:
        report.check(not self.mismatches,
                     "warm re-tunes that ran passes or changed winner: %s"
                     % sorted(set(self.mismatches)))
        pairs = sorted(self.winner_asm)
        put_size_ratio(report, [self.winner_asm[p] for p in pairs],
                       [self.kernels.given[name] for name, _core in pairs])
        quality_suite(report, self.kernels)


# ---------------------------------------------------------------------------
# The server probe (traced run of optimize_cold)
# ---------------------------------------------------------------------------

class ServerProcess:
    """``mao serve`` on an ephemeral port, its state under .bench_work."""

    def __init__(self, root: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--cache-dir", os.path.join(root, "cache"),
             "--profile-dir", os.path.join(root, "profiles")],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = self.proc.stdout.readline().strip()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError("mao serve failed to start: %r" % line)
        self.port = int(line.rsplit(":", 1)[1])

    def stop(self) -> None:
        """SIGTERM (graceful drain) and wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def server_probe(report: Report, texts: List[str]) -> Dict[str, float]:
    """Optimize every text in-process and through ``mao serve``.

    Each text goes to the server once (a cache miss) right after the
    same optimize in-process, and the first 4 go again (cache hits).
    Every reply must be byte-identical to the in-process output.
    Returns ``server.overhead_ms`` (median over first-time requests of
    request latency minus in-process time) and ``server.refused`` (the
    server's 503 count).
    """
    from repro import api
    from repro.server.client import Client

    def local(text: str) -> str:
        return api.optimize(text, CORPUS_SPEC, cache=False).to_asm()

    root = _scratch("serve")
    server = ServerProcess(root)
    try:
        overhead = []
        with Client(port=server.port) as client:
            client.healthz()
            for index, text in enumerate(texts + texts[:4]):
                want, local_s, _raw = timed(local, text)
                reply, served_s, _raw = timed(client.optimize, text,
                                              CORPUS_SPEC)
                report.check(reply["asm"] == want,
                             "server reply for unit %d differs from "
                             "in-process api.optimize" % index)
                if index < len(texts):
                    overhead.append(served_s - local_s)
            values = client.metrics().get("values", {})
    finally:
        server.stop()
        shutil.rmtree(root, ignore_errors=True)
    return {"server.overhead_ms": 1000.0 * statistics.median(overhead),
            "server.refused": values.get("server.rejected", 0)}


WORKLOADS = {cls.name: cls for cls in (OptimizeCold, SimulateKernels,
                                       TuneCache)}


def code_digest() -> str:
    """Digest of the program and the benchmark, keying the work-counter
    record so only runs of identical code are compared."""
    digest = hashlib.sha256()
    for base in (os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for filename in sorted(filenames):
                if filename.endswith((".py", ".json")):
                    path = os.path.join(dirpath, filename)
                    digest.update(path[len(ROOT):].encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]
