"""Pass base classes.

Mirrors the paper's pass template (Fig. 3): an optimization pass derives
from ``MaoFunctionPass``, implements ``Go()``, and is registered under a
name.  All passes share common functionality from the base class: the
tracing facility, IR dumping before/after, per-pass options with defaults,
and a ``stats`` counter map that the benches read (Fig. 7 reports these
transformation counts).
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Optional

from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.dataflow import Liveness
from repro.ir.unit import Function, MaoUnit


class MaoPass:
    """Common base for all passes."""

    #: Registry name (set by subclasses).
    NAME: str = "?"
    #: Option name -> default value.  ``trace`` and ``dump`` are universal.
    OPTIONS: Dict[str, Any] = {}
    #: True for passes whose value is an effect outside the IR (e.g. ASM
    #: writing a file).  Result caches must not replay around such passes.
    SIDE_EFFECTS: bool = False
    #: True for passes that read the section layout (addresses from
    #: relaxation).  The manager runs them serially in-process at any
    #: ``jobs``: a function laid out alone, or beside neighbours that
    #: another worker is changing, has different addresses.
    READS_LAYOUT: bool = False

    def __init__(self, options: Optional[Dict[str, Any]] = None) -> None:
        merged: Dict[str, Any] = {"trace": 0, "dump": False}
        merged.update(self.OPTIONS)
        if options:
            for key, value in options.items():
                if key not in merged:
                    raise KeyError("unknown option %r for pass %s"
                                   % (key, self.NAME))
                default = merged[key]
                if isinstance(default, bool):
                    value = value in (True, "1", "true", "yes", "on")
                elif isinstance(default, int):
                    value = int(value)
                elif isinstance(default, float):
                    value = float(value)
                merged[key] = value
        self.options = merged
        self.trace_level = int(merged["trace"])
        self.stats: Dict[str, int] = {}

    # ---- common facilities ---------------------------------------------------

    def Trace(self, level: int, fmt: str, *args: Any) -> None:
        """The standard tracing facility available to every pass."""
        if self.trace_level >= level:
            sys.stderr.write("[%s] %s\n" % (self.NAME,
                                            fmt % args if args else fmt))

    def bump(self, stat: str, amount: int = 1) -> None:
        self.stats[stat] = self.stats.get(stat, 0) + amount

    def option(self, name: str) -> Any:
        return self.options[name]

    def Go(self) -> bool:
        """Pass entry point; returns False to abort the pipeline."""
        raise NotImplementedError


class FunctionAnalyses:
    """One function's analyses, computed on first use and shared.

    The pass manager keeps one handle per function for a pipeline run, so
    a pass reuses the CFG and liveness of the passes before it until one
    of them changes the function.  Any change invalidates, not only a
    CFG edit: deleting an instruction can change which jump table a
    tier-2 indirect branch resolves to.
    """

    def __init__(self, unit: MaoUnit, function: Function) -> None:
        self.unit = unit
        self.function = function
        self._cfg: Optional[CFG] = None
        self._liveness: Optional[Liveness] = None

    def cfg(self) -> CFG:
        if self._cfg is None:
            self._cfg = build_cfg(self.function, self.unit)
        return self._cfg

    def liveness(self) -> Liveness:
        if self._liveness is None:
            self._liveness = Liveness(self.cfg())
        return self._liveness

    def invalidate(self) -> None:
        self._cfg = self._liveness = None


class MaoFunctionPass(MaoPass):
    """A pass invoked once per identified function.

    A pass that edits code in place (rewrites operands, swaps
    ``entry.insn``) calls ``self.analyses.invalidate()``; inserting or
    removing entries through the unit invalidates by itself.
    """

    def __init__(self, options: Optional[Dict[str, Any]],
                 unit: MaoUnit, function: Function) -> None:
        super().__init__(options)
        self.unit = unit
        self.function = function
        #: Lazily built CFG and liveness; the manager swaps in the handle
        #: it shares across the passes of a pipeline run.
        self.analyses = FunctionAnalyses(unit, function)

    def dump_ir(self, when: str) -> None:
        if self.options.get("dump"):
            sys.stderr.write("--- %s %s %s ---\n"
                             % (self.NAME, self.function.name, when))
            for entry in self.function.entries():
                sys.stderr.write(entry.to_asm() + "\n")


class MaoUnitPass(MaoPass):
    """A pass invoked once for the whole IR (e.g., reading, emission)."""

    def __init__(self, options: Optional[Dict[str, Any]],
                 unit: MaoUnit) -> None:
        super().__init__(options)
        self.unit = unit
