"""Tests for the naive (value-blind) taint ablation baseline."""

import pytest

from repro.baselines.naive import naive_compiled_cpu, naive_taint_analysis
from repro.core import TaintTracker
from repro.isa.assembler import assemble
from repro.logic.words import TWord
from repro.netlist.builder import CircuitBuilder
from repro.sim.compiled import CompiledCircuit
from repro.workloads.registry import benchmark


class TestNaiveLuts:
    def test_and_mask_does_not_strip_taint(self):
        builder = CircuitBuilder("m")
        a = builder.input("a", 4)
        builder.output("out", builder.and_(a, builder.const(0b0011, 4)))
        netlist = builder.build()

        glift = CompiledCircuit(netlist)
        naive = CompiledCircuit(netlist, taint_mode="naive")
        word = TWord.unknown(4, tmask=0xF)

        state = glift.new_state()
        glift.set_input(state, "a", word)
        glift.eval_combinational(state)
        assert glift.read_output(state, "out").tmask == 0b0011

        state = naive.new_state()
        naive.set_input(state, "a", word)
        naive.eval_combinational(state)
        # naive propagation: the untainted mask cannot strip anything
        assert naive.read_output(state, "out").tmask == 0b1111

    def test_values_identical_across_modes(self):
        builder = CircuitBuilder("m")
        a = builder.input("a", 4)
        b = builder.input("b", 4)
        total, _ = builder.add(a, b)
        builder.output("sum", total)
        netlist = builder.build()
        glift = CompiledCircuit(netlist)
        naive = CompiledCircuit(netlist, taint_mode="naive")
        for left, right in ((3, 9), (15, 1), (0, 0)):
            for circuit in (glift, naive):
                state = circuit.new_state()
                circuit.set_input(state, "a", TWord.const(left, 4))
                circuit.set_input(state, "b", TWord.const(right, 4))
                circuit.eval_combinational(state)
                assert (
                    circuit.read_output(state, "sum").value
                    == (left + right) & 0xF
                )

    def test_unknown_mode_rejected(self):
        builder = CircuitBuilder("m")
        a = builder.input("a", 1)
        builder.output("out", builder.not_(a))
        with pytest.raises(ValueError, match="taint mode"):
            CompiledCircuit(builder.build(), taint_mode="bogus")


class TestNaiveAnalysis:
    def test_clean_benchmark_is_false_positive(self):
        program = benchmark("mult").service_program()
        glift = TaintTracker(program).run()
        naive = naive_taint_analysis(program)
        assert glift.secure
        assert not naive.secure

    def test_naive_cpu_cached(self):
        assert naive_compiled_cpu() is naive_compiled_cpu()
