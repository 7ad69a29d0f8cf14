"""The shared per-function analysis handle (``MaoFunctionPass.analyses``).

A pipeline run hands every function pass the same handle per function,
so the CFG and liveness one pass computed are reused by the next until a
pass changes the function.  ``PROBE`` below, placed between the passes
of a spec, checks that whatever the handle serves then matches a
from-scratch ``build_cfg`` / ``Liveness``: a pass that changed code
without the handle being invalidated makes it fail.
"""

import pytest

import repro.passes.base as base
from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.dataflow import Liveness, location_uses
from repro.ir import parse_unit
from repro.passes import run_passes
from repro.passes.base import MaoFunctionPass
from repro.passes.manager import register_func_pass
from repro.workloads import kernels
from repro.workloads.corpus import CorpusConfig, generate_corpus_text
from repro.x86.parser import parse_instruction

#: The optimize spec of the benchmark's ``optimize_cold`` workload.
CORPUS_SPEC = "REDZEE:REDTEST:REDMOV:ADDADD:LOOP16"


def cfg_shape(cfg: CFG):
    index = {id(block): i for i, block in enumerate(cfg.blocks)}
    index[id(cfg.exit)] = -1
    blocks = [(tuple(block.labels), tuple(id(e) for e in block.entries),
               tuple(index[id(s)] for s in block.successors),
               block.has_unresolved_exit) for block in cfg.blocks]
    return (blocks, [(id(e), tier) for e, tier in cfg.resolved_branches],
            [id(e) for e in cfg.unresolved_branches])


def liveness_shape(cfg: CFG, liveness: Liveness):
    return [(sorted(liveness.live_in(block)), sorted(liveness.live_out(block)),
             [sorted(liveness.live_after(block, entry))
              for entry in block.entries])
            for block in cfg.blocks]


@register_func_pass("PROBE")
class AnalysisProbePass(MaoFunctionPass):
    """Test-only: record whether the handle's analyses are current."""

    #: (function name, cached == fresh) per probe run.
    results = []

    def Go(self) -> bool:
        cached = self.analyses.cfg()
        live = self.analyses.liveness()
        fresh = build_cfg(self.function, self.unit)
        same = (cfg_shape(cached) == cfg_shape(fresh)
                and liveness_shape(cached, live)
                == liveness_shape(fresh, Liveness(fresh)))
        AnalysisProbePass.results.append((self.function.name, same))
        return True


@pytest.fixture
def probe():
    AnalysisProbePass.results = []
    yield AnalysisProbePass.results


def probed(spec: str) -> str:
    return ":".join(["PROBE"] + [name + ":PROBE"
                                 for name in spec.split(":")])


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_handle_matches_fresh_build_after_each_corpus_pass(probe, seed):
    unit = parse_unit(generate_corpus_text(
        CorpusConfig(seed=seed, scale=0.0005, functions=3)))
    result = run_passes(unit, probed(CORPUS_SPEC))
    assert result.total("REDTEST", "removed") > 0
    assert len(probe) == 6 * len(unit.functions)
    assert all(same for _, same in probe), probe


FULL_SPEC = ("REDZEE:REDTEST:REDMOV:ADDADD:CONSTFOLD:UNREACH:LOOP16:"
             "NOPKILL:LSDFIT:SCHED=ebb[1]:BRALIGN:PREFALIGN:INSTRUMENT:"
             "NOPIN:LFIND")


@pytest.mark.parametrize("name", ["mcf_fig1", "hash_bench", "fig4_loop",
                                  "eon_loop", "nested_short_loops"])
def test_every_pass_invalidates_what_it_changes(probe, name):
    unit = parse_unit(getattr(kernels, name)())
    run_passes(unit, probed(FULL_SPEC))
    assert probe and all(same for _, same in probe), probe


def test_redmov_operand_rewrite_invalidates_liveness(probe):
    # REDMOV edits the second load's operands in place: no entry is
    # inserted or removed, so only the pass's own report invalidates.
    unit = parse_unit("""
.text
.type f, @function
f:
    movq 24(%rsp), %r10
    movq 24(%rsp), %r11
    ret
""")
    result = run_passes(unit, "PROBE:REDMOV:PROBE")
    assert result.total("REDMOV", "rewritten") == 1
    assert probe == [("f", True), ("f", True)]


def test_addadd_insn_swap_invalidates_liveness(probe):
    unit = parse_unit("""
.text
.type f, @function
f:
    addq $8, %r10
    addq $16, %r10
    movq %r10, %rax
    ret
""")
    result = run_passes(unit, "PROBE:ADDADD:PROBE")
    assert result.total("ADDADD", "folded") == 1
    assert probe == [("f", True), ("f", True)]


def test_liveness_memo_follows_a_replaced_insn():
    # A pass that swaps entry.insn mid-pass (ADDADD, CONSTFOLD) keeps
    # querying its own Liveness: walks over the entry must see the new
    # instruction's side effects, not the memoized old ones.
    unit = parse_unit("""
.text
.type f, @function
f:
    movq %rdi, %r10
    movq %r10, %r11
    movq %r11, %rax
    ret
""")
    cfg = build_cfg(unit.functions[0], unit)
    live = Liveness(cfg)
    block = cfg.entry
    first, middle = block.entries[0], block.entries[1]
    assert "r10" in live.live_after(block, first)
    middle.insn = parse_instruction("movq %rdi, %r11").insn
    assert "r10" not in live.live_after(block, first)
    assert "rdi" in live.live_after(block, first)
    assert location_uses(middle.insn) == {"rdi"}


class TestReuseCounts:
    """CFG builds and liveness solves per run: one per function, plus
    one per pass run that changed the function."""

    MULTI = ".text\n" + "\n".join("""
.type f{i}, @function
f{i}:
    {body}
    subl $16, %r15d
    ret
""".format(i=i, body="andl $255, %eax\n    mov %eax, %eax" if i == 0
           else "nop") for i in range(3))

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"cfg": 0, "liveness": 0}

        def counting_build_cfg(*args, **kwargs):
            counts["cfg"] += 1
            return build_cfg(*args, **kwargs)

        class CountingLiveness(Liveness):
            def __init__(self, *args, **kwargs):
                counts["liveness"] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(base, "build_cfg", counting_build_cfg)
        monkeypatch.setattr(base, "Liveness", CountingLiveness)
        return counts

    def test_unchanged_functions_build_once(self, counts):
        unit = parse_unit(self.MULTI)
        run_passes(unit, "REDZEE=count_only[1]:REDTEST:REDMOV:ADDADD:LOOP16")
        assert counts == {"cfg": 3, "liveness": 3}

    def test_a_change_rebuilds_that_function_only(self, counts):
        unit = parse_unit(self.MULTI)
        result = run_passes(unit, "REDZEE:REDTEST:REDMOV:ADDADD:LOOP16")
        assert result.total("REDZEE", "removed") == 1
        assert counts == {"cfg": 4, "liveness": 3}

    def test_unit_pass_drops_every_handle(self, counts, tmp_path):
        unit = parse_unit(self.MULTI)
        run_passes(unit, "REDTEST:ASM=o[%s]:REDTEST" % (tmp_path / "o.s"))
        assert counts == {"cfg": 6, "liveness": 6}

    def test_handle_dropped_after_the_run(self, counts):
        unit = parse_unit(self.MULTI)
        run_passes(unit, "REDTEST")
        run_passes(unit, "REDTEST")
        assert counts == {"cfg": 6, "liveness": 6}
