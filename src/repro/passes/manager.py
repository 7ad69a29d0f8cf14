"""Pass registry, option parsing, and pipeline driving.

Pass invocation is controlled the way the paper describes (§III.A): passes
are named, and a ``--mao=`` option string both selects passes and sets
their options; the order of passes on the command line is the invocation
order::

    --mao=LFIND=trace[3]:ASM=o[/dev/null]

selects pass ``LFIND`` with option ``trace`` set to ``3``, then pass ``ASM``
with option ``o`` (output) set to ``/dev/null``.

Parallel pipeline
-----------------

``PassPipeline.run(unit, jobs=N)`` fans independent function-scoped passes
across a ``concurrent.futures`` pool.  Function bodies are disjoint, so a
function pass can run on every function concurrently; unit-scoped passes
(reading, emission) always fall back to serial.  ``PassReport`` merging is
deterministic: reports are appended in function order regardless of worker
completion order, so serial and parallel runs produce identical results.

Two backends exist.  ``thread`` (default) runs passes directly on the
shared IR — structural mutations are made atomic by the unit's mutation
lock.  ``process`` round-trips each eligible function through textual
assembly to a worker process (parse → pass → emit) and splices the result
back; functions whose span crosses sections, or that contain opaque
entries, transparently run in-process instead.  Passes that declare
``READS_LAYOUT`` run serially at any ``jobs``: their decisions depend on
the addresses of the whole section as laid out in function order.

Analyses
--------

A run keeps one :class:`~repro.passes.base.FunctionAnalyses` handle per
function, handed to every function pass as ``self.analyses``, so a pass
reuses the CFG and liveness of the passes before it.  A handle is
invalidated when a pass changes its function: by the pass itself for
an in-place edit, by the manager when the pass inserted or removed
entries.  The process backend's splice and every unit pass invalidate
too, and all handles are dropped when the run ends.
"""

from __future__ import annotations

import json
import re
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Type

from repro import obs
from repro.ir.entries import MaoEntry, OpaqueEntry
from repro.ir.unit import Function, MaoUnit
from repro.passes.base import (FunctionAnalyses, MaoFunctionPass, MaoPass,
                               MaoUnitPass)
from repro.result import register_schema

#: Version tag of the serialized PipelineResult/PassReport format.
PIPELINE_SCHEMA = register_schema("pipeline", "pymao.pipeline/1")

_FUNC_PASSES: Dict[str, Type[MaoFunctionPass]] = {}
_UNIT_PASSES: Dict[str, Type[MaoUnitPass]] = {}


def register_func_pass(name: str):
    """Class decorator: the REGISTER_FUNC_PASS macro equivalent."""
    def decorator(cls: Type[MaoFunctionPass]) -> Type[MaoFunctionPass]:
        cls.NAME = name
        _FUNC_PASSES[name] = cls
        return cls
    return decorator


def register_unit_pass(name: str):
    def decorator(cls: Type[MaoUnitPass]) -> Type[MaoUnitPass]:
        cls.NAME = name
        _UNIT_PASSES[name] = cls
        return cls
    return decorator


def registered_passes() -> List[str]:
    return sorted(set(_FUNC_PASSES) | set(_UNIT_PASSES))


def get_pass(name: str) -> Type[MaoPass]:
    if name in _FUNC_PASSES:
        return _FUNC_PASSES[name]
    if name in _UNIT_PASSES:
        return _UNIT_PASSES[name]
    raise KeyError("unknown pass %r (known: %s)"
                   % (name, ", ".join(registered_passes())))


_OPT_RE = re.compile(r"([a-zA-Z_][a-zA-Z_0-9]*)\[([^\]]*)\]")


def parse_pass_spec(spec: str) -> List[Tuple[str, Dict[str, Any]]]:
    """Parse ``PASS=opt[val]+opt2[val2]:PASS2`` into (name, options) pairs.

    The option grammar is strict: after ``=``, the text must be a
    ``+``-joined sequence of ``name[value]`` items covering the whole
    string — ``LFIND=trace[3]garbage`` is rejected rather than silently
    parsed as ``trace=3``.
    """
    result: List[Tuple[str, Dict[str, Any]]] = []
    for item in spec.split(":"):
        item = item.strip()
        if not item:
            continue
        if "=" in item:
            name, opt_text = item.split("=", 1)
            name = name.strip()
            if not name:
                raise ValueError("missing pass name in spec item %r" % item)
            options: Dict[str, Any] = {}
            pos = 0
            while pos < len(opt_text):
                match = _OPT_RE.match(opt_text, pos)
                if match is None:
                    raise ValueError(
                        "cannot parse options %r for pass %s "
                        "(junk at %r)" % (opt_text, name, opt_text[pos:]))
                options[match.group(1)] = match.group(2)
                pos = match.end()
                if pos < len(opt_text):
                    if opt_text[pos] != "+":
                        raise ValueError(
                            "cannot parse options %r for pass %s "
                            "(junk at %r)" % (opt_text, name, opt_text[pos:]))
                    pos += 1
                    if pos == len(opt_text):
                        raise ValueError(
                            "cannot parse options %r for pass %s "
                            "(trailing '+')" % (opt_text, name))
        else:
            name, options = item, {}
        result.append((name, options))
    return result


def canonical_pass_spec(items: List[Tuple[str, Dict[str, Any]]]) -> str:
    """Render ``(name, options)`` items as one canonical ``--mao=`` string.

    Pass order is semantic and preserved; option order within one pass is
    not, so options are emitted sorted by name.  The result round-trips
    through :func:`parse_pass_spec` (with option values stringified),
    which makes it a stable cache-key component: two spellings of the
    same pipeline produce the same canonical string.
    """
    parts: List[str] = []
    for name, options in items:
        if options:
            rendered = "+".join("%s[%s]" % (key, options[key])
                                for key in sorted(options))
            parts.append("%s=%s" % (name, rendered))
        else:
            parts.append(name)
    return ":".join(parts)


def encode_pass_spec(items: List[Tuple[str, Dict[str, Any]]]) -> str:
    """Injective encoding of a pass spec, for cache keying.

    :func:`canonical_pass_spec` is the human-readable ``--mao=`` form and
    is *not* injective for arbitrary option values: a value containing
    ``]`` or ``+`` can render identically to a different spec (e.g.
    ``x=1]+y[2`` vs ``x=1, y=2``, both ``P=x[1]+y[2]``).  The CLI never
    produces such values (:func:`parse_pass_spec` rejects them) but API
    callers passing ``(name, options)`` items can, so anything used as a
    cache-key component goes through this JSON rendering instead: option
    order is normalized by sorting, values are stringified the same way
    pass construction stringifies them, and JSON escaping makes distinct
    specs distinct strings.
    """
    return json.dumps([[name, {key: str(value)
                               for key, value in options.items()}]
                       for name, options in items],
                      sort_keys=True, separators=(",", ":"))


def spec_has_side_effects(items: List[Tuple[str, Dict[str, Any]]]) -> bool:
    """True when any pass in *items* declares ``SIDE_EFFECTS``.

    Replaying a cached artifact restores the emitted assembly and the
    report but runs no pass, so a pass whose value is an effect outside
    the IR (``ASM`` writing its ``o`` target) would silently do nothing
    on a warm run.  Callers that replay results use this to bypass the
    cache for such specs.  Unregistered names conservatively count as
    effect-free: they fail pipeline construction anyway.
    """
    for name, _options in items:
        cls: Optional[Type[MaoPass]] = (_UNIT_PASSES.get(name)
                                        or _FUNC_PASSES.get(name))
        if cls is not None and getattr(cls, "SIDE_EFFECTS", False):
            return True
    return False


@dataclass
class PassReport:
    """Outcome of one pass over one function (or the unit)."""

    pass_name: str
    scope: str                     # function name or "<unit>"
    stats: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Frozen wire format (one row of ``pymao.pipeline/1``)."""
        return {"pass": self.pass_name, "scope": self.scope,
                "stats": dict(self.stats)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PassReport":
        return cls(pass_name=data["pass"], scope=data["scope"],
                   stats=dict(data.get("stats") or {}))


@dataclass
class PipelineResult:
    reports: List[PassReport] = field(default_factory=list)

    def total(self, pass_name: str, stat: str) -> int:
        return sum(r.stats.get(stat, 0) for r in self.reports
                   if r.pass_name == pass_name)

    def stats_for(self, pass_name: str) -> Dict[str, int]:
        combined: Dict[str, int] = {}
        for report in self.reports:
            if report.pass_name != pass_name:
                continue
            for key, value in report.stats.items():
                combined[key] = combined.get(key, 0) + value
        return combined

    def pass_names(self) -> List[str]:
        """Distinct pass names in first-report order."""
        seen: List[str] = []
        for report in self.reports:
            if report.pass_name not in seen:
                seen.append(report.pass_name)
        return seen

    def to_dict(self) -> Dict[str, Any]:
        """Stable, versioned wire format — consumed by
        ``scripts/perf_report.py`` and the bench JSON files."""
        return {"schema": PIPELINE_SCHEMA,
                "reports": [r.to_dict() for r in self.reports]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PipelineResult":
        schema = data.get("schema")
        if schema != PIPELINE_SCHEMA:
            raise ValueError("unsupported pipeline schema %r (expected %r)"
                             % (schema, PIPELINE_SCHEMA))
        return cls(reports=[PassReport.from_dict(r)
                            for r in data.get("reports", ())])


class PassPipeline:
    """An ordered list of named passes applied to a MaoUnit."""

    def __init__(self,
                 passes: Optional[List[Tuple[str, Dict[str, Any]]]] = None
                 ) -> None:
        self.passes: List[Tuple[str, Dict[str, Any]]] = list(passes or [])

    @classmethod
    def from_spec(cls, spec: str) -> "PassPipeline":
        return cls(parse_pass_spec(spec))

    def add(self, name: str, **options: Any) -> "PassPipeline":
        self.passes.append((name, options))
        return self

    def run(self, unit: MaoUnit, jobs: int = 1,
            parallel_backend: Optional[str] = None, *,
            backend: Optional[str] = None) -> PipelineResult:
        """Run the pipeline.

        ``jobs`` > 1 fans each function-scoped pass over the unit's
        functions using a ``concurrent.futures`` pool
        (``parallel_backend``: ``"thread"`` or ``"process"``); unit
        passes always run serially.  Reports — and trace spans, when
        tracing is on — are merged in function order, so the result is
        deterministic and identical to a serial run.

        ``backend=`` is the deprecated spelling of ``parallel_backend=``
        (the CLI flag has always been ``--parallel-backend``); it still
        works but warns.
        """
        parallel_backend = _resolve_backend(parallel_backend, backend)
        if jobs < 1:
            raise ValueError("jobs must be >= 1, got %d" % jobs)
        if parallel_backend not in ("thread", "process"):
            raise ValueError("unknown pipeline backend %r"
                             % parallel_backend)
        result = PipelineResult()
        analyses: Dict[Function, FunctionAnalyses] = {}
        for name, options in self.passes:
            cls = get_pass(name)
            if issubclass(cls, MaoFunctionPass):
                for fn in unit.functions:
                    if fn not in analyses:
                        analyses[fn] = FunctionAnalyses(unit, fn)
                handles = [analyses[fn] for fn in unit.functions]
                parallel = (jobs > 1 and len(unit.functions) > 1
                            and not cls.READS_LAYOUT)
                with obs.span("pass:%s" % name, kind="function",
                              parallel=parallel) as pass_span:
                    if parallel:
                        keep_going = self._run_function_pass_parallel(
                            cls, name, options, unit, handles, result, jobs,
                            parallel_backend, pass_span)
                    else:
                        keep_going = self._run_function_pass_serial(
                            cls, name, options, unit, handles, result,
                            pass_span)
                if not keep_going:
                    return result
            else:
                analyses.clear()
                with obs.span("pass:%s" % name, kind="unit") as pass_span:
                    pass_obj = cls(options, unit)
                    keep_going = pass_obj.Go()
                    if pass_span:
                        pass_span.attach(stats=dict(pass_obj.stats))
                _record(result, PassReport(name, "<unit>", pass_obj.stats))
                if not keep_going:
                    return result
        return result

    @staticmethod
    def _run_function_pass_serial(cls: Type[MaoFunctionPass], name: str,
                                  options: Dict[str, Any], unit: MaoUnit,
                                  handles: List[FunctionAnalyses],
                                  result: PipelineResult,
                                  pass_span: Any) -> bool:
        for function, handle in zip(unit.functions, handles):
            stats, keep_going, span = _apply_function_pass(
                cls, options, unit, function, handle)
            obs.adopt_span(pass_span, span)
            _record(result, PassReport(name, function.name, stats))
            if not keep_going:
                return False
        return True

    @staticmethod
    def _run_function_pass_parallel(cls: Type[MaoFunctionPass], name: str,
                                    options: Dict[str, Any], unit: MaoUnit,
                                    handles: List[FunctionAnalyses],
                                    result: PipelineResult, jobs: int,
                                    parallel_backend: str,
                                    pass_span: Any) -> bool:
        functions = list(unit.functions)
        if parallel_backend == "thread":
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                outcomes = list(pool.map(
                    lambda fn, handle: _apply_function_pass(
                        cls, options, unit, fn, handle),
                    functions, handles))
        else:
            outcomes = _run_process_backend(
                cls, name, options, unit, functions, handles, jobs)
        # Deterministic merge: function order, not completion order —
        # reports and worker span subtrees alike.
        for function, (stats, keep_going, span) in zip(functions, outcomes):
            obs.adopt_span(pass_span, span)
            _record(result, PassReport(name, function.name, stats))
            if not keep_going:
                return False
        return True


def _resolve_backend(parallel_backend: Optional[str],
                     backend: Optional[str]) -> str:
    """Canonicalize the pool-kind kwarg; ``backend=`` is a deprecated
    alias kept as a shim for pre-``pymao.pipeline/1`` callers."""
    if backend is not None:
        warnings.warn(
            "the backend= keyword is deprecated; use parallel_backend= "
            "(matching the CLI's --parallel-backend)",
            DeprecationWarning, stacklevel=3)
        if parallel_backend is not None and parallel_backend != backend:
            raise ValueError(
                "conflicting parallel_backend=%r and backend=%r"
                % (parallel_backend, backend))
        return backend
    return parallel_backend if parallel_backend is not None else "thread"


def _record(result: PipelineResult, report: PassReport) -> None:
    """Append one report and mirror its stats into the metrics registry
    (``pass.<NAME>.<stat>`` counters absorb the old ``--stats`` data)."""
    result.reports.append(report)
    registry = obs.REGISTRY
    registry.inc("pass.%s.runs" % report.pass_name)
    for stat, value in report.stats.items():
        registry.inc("pass.%s.%s" % (report.pass_name, stat), value)


def _apply_function_pass(cls: Type[MaoFunctionPass],
                         options: Dict[str, Any], unit: MaoUnit,
                         function: Function,
                         handle: Optional[FunctionAnalyses] = None
                         ) -> Tuple[Dict[str, int], bool, Any]:
    """Instantiate and run one function pass in-process.

    *handle* is the run's shared analyses of *function*; it is
    invalidated when the pass changes the function.  The span is
    *detached* — workers cannot reach the coordinator's span stack — and
    handed back for an in-order adopt; ``None`` when tracing is off.
    """
    with obs.detached_span("fn:%s" % function.name) as span:
        pass_obj = cls(options, unit, function)
        if handle is not None:
            pass_obj.analyses = handle
        edits = unit.edit_count
        pass_obj.dump_ir("before")
        keep_going = pass_obj.Go()
        pass_obj.dump_ir("after")
        # Under the thread backend, other functions' edits move the count
        # too; that only costs a rebuild.
        if unit.edit_count != edits:
            pass_obj.analyses.invalidate()
        if span:
            span.attach(stats=dict(pass_obj.stats))
    return pass_obj.stats, keep_going, (span if span else None)


# ---------------------------------------------------------------------------
# Process backend: round-trip a function through textual assembly.
# ---------------------------------------------------------------------------

def _function_span(function: Function) -> Optional[List[MaoEntry]]:
    """The function's entries, or None if it is ineligible for the
    process backend (span crosses sections, or contains opaque entries)."""
    span: List[MaoEntry] = []
    entry = function.start
    while entry is not None and entry is not function.end:
        if entry.section is not function.section:
            return None
        if isinstance(entry, OpaqueEntry):
            return None
        span.append(entry)
        entry = entry.next
    return span


def _render_function(function: Function, span: List[MaoEntry]) -> str:
    section = function.section
    if section.name == ".text":
        header = [".text"]
    elif section.flags:
        header = ['.section %s, "%s"' % (section.name, section.flags)]
    else:
        header = [".section %s" % section.name]
    header.append(".type %s, @function" % function.name)
    return "\n".join(header + [e.to_asm() for e in span]) + "\n"


def _pass_process_worker(payload: Tuple[str, Dict[str, Any], str, str, bool]
                         ) -> Tuple[str, Dict[str, int], bool,
                                    Optional[Dict[str, Any]]]:
    pass_name, options, function_name, asm_text, want_spans = payload
    import repro.passes  # noqa: F401 — register built-ins in spawned children
    from repro.ir.builder import parse_unit

    # The parent's tracing flag does not survive into a spawned child (and
    # must not leak out of a forked one), so it rides in the payload and
    # spans come back serialized for the deterministic merge.
    obs.set_enabled(want_spans)
    unit = parse_unit(asm_text)
    cls = get_pass(pass_name)
    function = unit.function_named(function_name)
    stats, keep_going, span = _apply_function_pass(
        cls, options, unit, function)
    span_data = span.to_dict() if span is not None else None
    return unit.to_asm(), stats, keep_going, span_data


def _splice_function(unit: MaoUnit, function: Function,
                     new_text: str) -> None:
    """Replace the function's body with the worker's optimized text.

    The original LabelEntry node is kept in place — neighbouring
    ``Function`` views use it as their ``end`` anchor — and only the
    entries after it are swapped out.
    """
    from repro.ir.builder import parse_unit

    new_unit = parse_unit(new_text)
    new_fn = new_unit.function_named(function.name)

    body: List[MaoEntry] = []
    node = new_fn.start.next
    while node is not None:
        nxt = node.next
        body.append(node)
        node = nxt

    node = function.start.next
    while node is not None and node is not function.end:
        nxt = node.next
        unit.remove(node)
        node = nxt

    anchor: MaoEntry = function.start
    for entry in body:
        entry.prev = entry.next = None
        entry.section = function.section
        unit.insert_after(anchor, entry)
        anchor = entry


def _run_process_backend(cls: Type[MaoFunctionPass], name: str,
                         options: Dict[str, Any], unit: MaoUnit,
                         functions: List[Function],
                         handles: List[FunctionAnalyses], jobs: int
                         ) -> List[Tuple[Dict[str, int], bool, Any]]:
    want_spans = obs.enabled()
    payload_indices: List[int] = []
    payloads: List[Tuple[str, Dict[str, Any], str, str, bool]] = []
    for index, function in enumerate(functions):
        span = _function_span(function)
        if span is not None:
            payload_indices.append(index)
            payloads.append(
                (name, options, function.name,
                 _render_function(function, span), want_spans))

    worker_results: Dict[int, tuple] = {}
    if payloads:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for index, outcome in zip(payload_indices,
                                      pool.map(_pass_process_worker,
                                               payloads)):
                worker_results[index] = outcome

    outcomes: List[Tuple[Dict[str, int], bool, Any]] = []
    for index, function in enumerate(functions):
        if index in worker_results:
            new_text, stats, keep_going, span_data = worker_results[index]
            _splice_function(unit, function, new_text)
            handles[index].invalidate()
            span = obs.Span.from_dict(span_data) if span_data else None
            outcomes.append((stats, keep_going, span))
        else:
            # Ineligible for text round-trip: run in-process instead.
            outcomes.append(_apply_function_pass(
                cls, options, unit, function, handles[index]))
    return outcomes


def run_passes(unit: MaoUnit, spec: str, jobs: int = 1,
               parallel_backend: Optional[str] = None, *,
               backend: Optional[str] = None) -> PipelineResult:
    """Convenience: run a ``--mao=`` style spec string over a unit.

    ``backend=`` is the deprecated alias of ``parallel_backend=``.
    """
    return PassPipeline.from_spec(spec).run(
        unit, jobs=jobs,
        parallel_backend=_resolve_backend(parallel_backend, backend))
