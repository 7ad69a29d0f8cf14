"""Extended detection tests: broader templates, Intel/AMD structure."""

import pytest

from repro.mbench import Processor, detect
from repro.mbench.sequence import DagType, InstructionSequence
from repro.uarch.profiles import blinded_profile, core2, opteron


class TestLatencyTable:
    """Fig. 6's method across the latency table."""

    @pytest.mark.parametrize("template,key", [
        ("addq %r, %r", "alu"),
        ("subq %r, %r", "alu"),
        ("xorq %r, %r", "alu"),
        ("imulq %r, %r", "mul"),
        ("movq (%r), %r", "load"),
    ])
    def test_core2_latencies(self, template, key):
        proc = Processor(core2())
        assert detect.InstructionLatency(proc, template,
                                         trip_count=400) \
            == core2().latency[key]

    def test_opteron_lea_latency_differs(self):
        """Opteron's 2-cycle lea vs Core-2's 1-cycle is detectable."""
        c2 = detect.InstructionLatency(Processor(core2()),
                                       "leaq (%r), %r", trip_count=400)
        amd = detect.InstructionLatency(Processor(opteron()),
                                        "leaq (%r), %r", trip_count=400)
        assert c2 == core2().latency["lea"]
        assert amd == opteron().latency["lea"]
        assert amd > c2

    def test_sse_latency(self):
        proc = Processor(core2())
        measured = detect.InstructionLatency(proc, "addsd %x, %x",
                                             trip_count=400)
        assert measured == core2().latency["fp_add"]


class TestThroughputVsLatency:
    def test_parallel_alu_beats_chain(self):
        proc = Processor(core2())
        latency = detect.InstructionLatency(proc, "addq %r, %r",
                                            trip_count=400)
        throughput = detect.InstructionThroughput(proc, "addq %r, %r",
                                                  trip_count=400)
        assert throughput < latency

    def test_single_port_unit_throughput(self):
        """imul has one port: throughput ~1/cycle even though independent."""
        proc = Processor(core2())
        throughput = detect.InstructionThroughput(
            proc, "imulq $3, %r, %r", trip_count=400)
        assert throughput >= 0.9


class TestStructuralDetection:
    def test_line_size_detection_robust_across_seeds(self):
        for seed in (2, 9):
            model = blinded_profile(seed)
            detected = detect.DetectDecodeLineSize(Processor(model))
            assert detected == model.decode_line_bytes, seed

    def test_lsd_budget_core2(self):
        proc = Processor(core2())
        line = detect.DetectDecodeLineSize(proc)
        threshold = detect.DetectLsdIterationThreshold(proc, line)
        assert detect.DetectLsdLineBudgetByCounter(proc, line,
                                                   threshold) == 4

    def test_forwarding_bandwidth_core2(self):
        proc = Processor(core2())
        assert detect.DetectForwardingBandwidthMatch(proc, proc.model) == 3


class TestSequencesWithCandidateSets:
    def test_mixed_candidate_templates(self):
        """The paper: sequences draw from a *set* of candidates."""
        proc = Processor(core2(), seed=3)
        seq = InstructionSequence(proc, length=12)
        seq.SetCandidateTemplates(["add %r, %r", "xor %r, %r",
                                   "sub %r, %r"])
        seq.SetDagType(DagType.CHAIN)
        texts = seq.Generate()
        bases = {t.split()[0] for t in texts}
        assert len(bases) > 1, "must mix candidates"

    def test_set_length(self):
        proc = Processor(core2())
        seq = InstructionSequence(proc)
        seq.SetInstructionTemplate("add %r, %r")
        seq.SetLength(5)
        seq.SetDagType(DagType.DISJOINT)
        assert len(seq.Generate()) == 5

    def test_generate_without_template_rejected(self):
        seq = InstructionSequence(Processor(core2()))
        with pytest.raises(ValueError):
            seq.Generate()
