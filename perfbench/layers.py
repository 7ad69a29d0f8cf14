"""The traced run: spans around calls into each layer's public functions.

:class:`Tracer` wraps the functions below from outside the program.  A
module-level function is replaced in every loaded ``repro`` module that
binds it, so a call counts however the caller imported it (modules that
import it later, or look it up at call time, get the wrapper too).  A
method is replaced on its class.  Spans stay in memory, one list per
tracer, with a per-thread parent stack, and are written out by
:meth:`Tracer.write`.

A layer's self time is its span time minus the time its direct child
spans cover; ``calls`` counts the outermost span of a name only, so a
public function that calls its sibling (``predict`` -> ``predict_unit``,
``relax_unit`` -> ``relax_section``) is one call.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

#: The passes the workloads run: the optimize spec plus the tuner's steps.
PASSES = ("REDZEE", "REDTEST", "REDMOV", "ADDADD", "LOOP16",
          "NOPKILL", "LSDFIT", "SCHED", "BRALIGN")

#: Which stat of a pass counts its applied transformations.
APPLIED_STAT = {"REDZEE": "removed", "REDTEST": "removed",
                "REDMOV": "rewritten", "ADDADD": "folded",
                "LOOP16": "aligned", "NOPKILL": ("nops_removed",
                                                 "directives_removed"),
                "LSDFIT": "loops_shifted", "SCHED": "instructions_moved",
                "BRALIGN": "pairs_separated"}


#: Every per-layer metric and its unit, in report order.
PER_LAYER = [
    ("ir.parse_unit.self_ms", "ms"), ("ir.parse_unit.calls", "count"),
    ("ir.parse_unit.klines_per_s", "klines/s"),
    ("ir.parse_unit.self_share_pct", "%"),
    ("analysis.cfg.builds", "count"), ("analysis.cfg.self_ms", "ms"),
    ("analysis.reaching.solves", "count"),
    ("analysis.reaching.self_ms", "ms"),
    ("analysis.liveness.solves", "count"),
    ("analysis.liveness.self_ms", "ms"),
    ("analysis.self_share_pct", "%"),
] + [(f"passes.{p}.{m}", u) for p in PASSES
     for m, u in (("self_ms", "ms"), ("runs", "count"),
                  ("applied", "count"))] + [
    ("passes.runs", "count"),
    ("passes.parallel_vs_serial_ratio", "x"),
    ("passes.parallel_output_mismatches", "count"),
    ("analysis.relax.self_ms", "ms"), ("analysis.relax.calls", "count"),
    ("x86.encoder.cache_hit_ratio", "ratio"),
    ("x86.encoder.misses", "count"),
    ("ir.to_asm.self_ms", "ms"),
    ("sim.load_unit.self_ms", "ms"), ("sim.interp.self_ms", "ms"),
    ("sim.block_cache.hit_ratio", "ratio"),
    ("sim.block_cache.compiled", "count"),
    ("uarch.timing.self_ms", "ms"),
    ("uarch.ff.iterations", "count"),
    ("uarch.ff.validation_failures", "count"),
    ("uarch.fast_vs_plain_ratio.steady", "x"),
    ("uarch.fast_vs_plain_ratio.irregular", "x"),
] + [("uarch.fast_vs_plain_ratio.%s" % kernel, "x") for kernel in (
    "mcf_fig1", "eon_loop", "hash_bench", "nested_short_loops", "fig4_loop")
] + [
    ("uarch.predict.calls", "count"), ("uarch.predict.self_ms", "ms"),
    ("tune.pass_runs.executed", "count"),
    ("tune.pass_runs.cache_hits", "count"),
    ("tune.candidates", "count"), ("tune.self_ms", "ms"),
    ("batch.cache.get.self_ms", "ms"), ("batch.cache.put.self_ms", "ms"),
    ("batch.cache.hit_ratio", "ratio"),
    ("server.overhead_ms", "ms"), ("server.refused", "count"),
    ("trace.overhead_pct", "%"),
]

#: Counters a traced run on one seed must repeat exactly.
WORK_COUNTERS = ("analysis.cfg.builds", "analysis.reaching.solves",
                 "analysis.liveness.solves", "passes.runs",
                 "tune.pass_runs.executed", "sim.block_cache.compiled",
                 "x86.encoder.misses")


class Tracer:
    """In-memory span recorder installed around the layer entry points."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, thread id]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []
        self._before: Dict[str, int] = {}
        self._counter_delta: Dict[str, int] = {}

    # ---- recording --------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent,
                               threading.get_ident()])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def region(self, name: str) -> Iterator[None]:
        """A span the benchmark itself opens."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable,
             hook: Optional[Callable[[tuple, dict, Any], None]] = None
             ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if hook is not None:
                with tracer._lock:
                    hook(args, kwargs, result)
            return result

        return traced

    # ---- installation -----------------------------------------------------

    def patch_function(self, name: str, fn: Callable,
                       hook: Optional[Callable] = None) -> None:
        wrapper = self.wrap(name, fn, hook)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn, True))
                    setattr(module, attr, wrapper)

    def patch_method(self, cls: type, attr: str, name: str,
                     hook: Optional[Callable] = None) -> None:
        own = attr in cls.__dict__
        original = getattr(cls, attr)
        self._patches.append((cls, attr, original, own))
        setattr(cls, attr, self.wrap(name, original, hook))

    def install(self) -> "Tracer":
        import repro.api  # noqa: F401  (loads every layer below)
        import repro.tune
        from repro.analysis import cfg, dataflow, relax
        from repro.batch.cache import ArtifactCache
        from repro.ir import builder
        from repro.ir.unit import MaoUnit
        from repro.passes.manager import get_pass
        from repro.sim import interp, loader
        from repro.uarch import pipeline, static_model

        count = self.counts

        def on_parse(args, kwargs, _result):
            source = args[0] if args else kwargs["source"]
            count["parse.lines"] += source.count("\n") + 1

        def on_pass(name):
            stats = APPLIED_STAT[name]
            stats = (stats,) if isinstance(stats, str) else stats

            def hook(args, _kwargs, _result):
                count["applied.%s" % name] += sum(
                    args[0].stats.get(stat, 0) for stat in stats)
            return hook

        def on_tune(_args, _kwargs, result):
            count["tune.executed"] += result.pass_runs.get("executed", 0)
            count["tune.cache_hits"] += result.pass_runs.get("cache_hits", 0)
            count["tune.candidates"] += result.candidates.get("scored", 0)

        def on_get(_args, _kwargs, result):
            count["cache.gets"] += 1
            count["cache.hits"] += result is not None

        self.patch_function("ir.parse_unit", builder.parse_unit, on_parse)
        self.patch_function("analysis.cfg", cfg.build_cfg)
        self.patch_method(dataflow.ReachingDefinitions, "__init__",
                          "analysis.reaching")
        self.patch_method(dataflow.Liveness, "__init__", "analysis.liveness")
        for name in PASSES:
            self.patch_method(get_pass(name), "Go", "passes.%s" % name,
                              on_pass(name))
        self.patch_function("analysis.relax", relax.relax_unit)
        self.patch_function("analysis.relax", relax.relax_section)
        self.patch_method(MaoUnit, "to_asm", "ir.to_asm")
        self.patch_function("sim.load_unit", loader.load_unit)
        self.patch_method(interp.Interpreter, "run", "sim.interp.run")
        self.patch_function("uarch.simulate_program",
                            pipeline.simulate_program)
        self.patch_function("uarch.predict", static_model.predict)
        self.patch_function("uarch.predict", static_model.predict_unit)
        self.patch_function("tune", repro.tune.tune, on_tune)
        self.patch_method(ArtifactCache, "get", "batch.cache.get", on_get)
        self.patch_method(ArtifactCache, "put", "batch.cache.put")
        self._before = global_counters()
        return self

    def uninstall(self) -> None:
        after = global_counters()
        self._counter_delta = {key: after[key] - self._before[key]
                               for key in after}
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # ---- derived numbers --------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        covered: Dict[int, float] = defaultdict(float)
        for name, start, end, parent, _tid in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, _tid) in enumerate(self.spans):
            out[name] += end - start - covered[index]
        return out

    def calls(self) -> Counter:
        """Outermost spans per name."""
        out: Counter = Counter()
        for name, _s, _e, parent, _tid in self.spans:
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                out[name] += 1
        return out

    def write(self, path: str) -> None:
        """One JSON line per span: name, start/end (s), parent, thread."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w") as handle:
            for index, (name, start, end, parent, tid) in \
                    enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": index, "name": name, "start_s": start - t0,
                     "end_s": end - t0, "parent": parent,
                     "thread": tid}) + "\n")

    def totals(self) -> Dict[str, float]:
        """Span time per name, outermost spans only."""
        out: Dict[str, float] = defaultdict(float)
        for name, start, end, parent, _tid in self.spans:
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                out[name] += end - start
        return out

    def layer_metrics(self, interp_only_s: float = 0.0) -> Dict[str, float]:
        """Per-layer numbers of this trace.

        The interpreter and the timing model run interleaved inside
        ``simulate_program``; *interp_only_s* is the time interpreter-only
        re-runs of the same programs took, and the timing model is
        charged with the rest of ``simulate_program``.
        """
        st = self.self_times()
        calls = self.calls()
        ms = {name: 1000.0 * value for name, value in st.items()}
        total_ms = sum(ms.values())
        parse_s = st.get("ir.parse_unit", 0.0)
        analysis_ms = sum(ms.get(n, 0.0) for n in (
            "analysis.cfg", "analysis.reaching", "analysis.liveness",
            "analysis.relax"))
        delta = self._counter_delta
        enc_lookups = delta.get("enc.hits", 0) + delta.get("enc.misses", 0)
        blk_lookups = delta.get("blk.hits", 0) + delta.get("blk.compiled", 0)
        c = self.counts
        out = {
            "ir.parse_unit.self_ms": ms.get("ir.parse_unit", 0.0),
            "ir.parse_unit.calls": calls["ir.parse_unit"],
            "ir.parse_unit.klines_per_s":
                c["parse.lines"] / 1000.0 / parse_s if parse_s else 0.0,
            "ir.parse_unit.self_share_pct":
                100.0 * ms.get("ir.parse_unit", 0.0) / total_ms
                if total_ms else 0.0,
            "analysis.cfg.builds": calls["analysis.cfg"],
            "analysis.cfg.self_ms": ms.get("analysis.cfg", 0.0),
            "analysis.reaching.solves": calls["analysis.reaching"],
            "analysis.reaching.self_ms": ms.get("analysis.reaching", 0.0),
            "analysis.liveness.solves": calls["analysis.liveness"],
            "analysis.liveness.self_ms": ms.get("analysis.liveness", 0.0),
            "analysis.self_share_pct":
                100.0 * analysis_ms / total_ms if total_ms else 0.0,
            "analysis.relax.self_ms": ms.get("analysis.relax", 0.0),
            "analysis.relax.calls": calls["analysis.relax"],
            "x86.encoder.cache_hit_ratio":
                delta.get("enc.hits", 0) / enc_lookups if enc_lookups
                else 0.0,
            "x86.encoder.misses": delta.get("enc.misses", 0),
            "ir.to_asm.self_ms": ms.get("ir.to_asm", 0.0),
            "sim.load_unit.self_ms": ms.get("sim.load_unit", 0.0),
            "sim.block_cache.hit_ratio":
                delta.get("blk.hits", 0) / blk_lookups if blk_lookups
                else 0.0,
            "sim.block_cache.compiled": delta.get("blk.compiled", 0),
            "uarch.ff.iterations": delta.get("ff.iterations", 0),
            "uarch.ff.validation_failures":
                delta.get("ff.validation_failures", 0),
            "uarch.predict.calls": calls["uarch.predict"],
            "uarch.predict.self_ms": ms.get("uarch.predict", 0.0),
            "tune.pass_runs.executed": c["tune.executed"],
            "tune.pass_runs.cache_hits": c["tune.cache_hits"],
            "tune.candidates": c["tune.candidates"],
            "tune.self_ms": ms.get("tune", 0.0),
            "batch.cache.get.self_ms": ms.get("batch.cache.get", 0.0),
            "batch.cache.put.self_ms": ms.get("batch.cache.put", 0.0),
            "batch.cache.hit_ratio":
                c["cache.hits"] / c["cache.gets"] if c["cache.gets"]
                else 0.0,
        }
        for name in PASSES:
            out["passes.%s.self_ms" % name] = ms.get("passes.%s" % name, 0.0)
            out["passes.%s.runs" % name] = calls["passes.%s" % name]
            out["passes.%s.applied" % name] = c["applied.%s" % name]
        out["passes.runs"] = sum(calls["passes.%s" % p] for p in PASSES)
        out["sim.interp.self_ms"] = 1000.0 * interp_only_s
        out["uarch.timing.self_ms"] = 1000.0 * (
            self.totals().get("uarch.simulate_program", 0.0) - interp_only_s)
        return out


def global_counters() -> Dict[str, int]:
    """The program's process-wide work counters, as one flat snapshot."""
    from repro.sim.interp import block_cache_stats
    from repro.uarch.pipeline import fast_forward_stats
    from repro.x86.encoder import encoding_cache_stats

    enc = encoding_cache_stats()
    blk = block_cache_stats()
    ff = fast_forward_stats()
    return {"enc.hits": int(enc["hits"]), "enc.misses": int(enc["misses"]),
            "blk.hits": int(blk["block_hits"]),
            "blk.compiled": int(blk["blocks_compiled"]),
            "ff.iterations": int(ff["iterations_fast_forwarded"]),
            "ff.validation_failures": int(ff["validation_failures"])}
