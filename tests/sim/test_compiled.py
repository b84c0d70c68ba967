"""Tests for the compiled gate-level GLIFT simulator."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import compiled_cpu
from repro.isa.assembler import assemble
from repro.logic.glift import GATE_FUNCTIONS
from repro.logic.ternary import ONE, UNKNOWN, ZERO
from repro.logic.words import TWord
from repro.netlist.builder import CircuitBuilder, Sig
from repro.netlist.cells import CELL_LIBRARY
from repro.obs.timeline import TimelineRecorder, record_timeline
from repro.sim.compiled import (
    _CODE_KEYS,
    _SUFFIX,
    CELL_TYPES,
    CODE_0,
    CODE_1,
    CODE_X,
    HASH_MODULUS,
    LUT_ENTRIES,
    CompiledCircuit,
    _lut_for,
    _padded_lut,
    code_of,
    decode_code,
)
from repro.sim.runner import GateRunner
from repro.workloads.registry import BENCHMARKS


def adder_circuit(width=4):
    builder = CircuitBuilder("adder")
    a = builder.input("a", width)
    b = builder.input("b", width)
    total, cout = builder.add(a, b)
    builder.output("sum", total)
    builder.output("cout", Sig([cout]))
    return CompiledCircuit(builder.build())


def figure7_circuit():
    """The paper's Figure 7 FSM: S' = S xor In, DFF with reset."""
    builder = CircuitBuilder("fig7")
    in_sig = builder.input("in", 1)
    rst = builder.input("rst", 1)
    state = builder.reg("S", 1)
    next_state = builder.xor_(state.q, in_sig)
    builder.drive(state, next_state, rst=rst[0])
    builder.output("S", state.q)
    builder.output("S_next", Sig([builder.netlist.dffs[0].d]))
    return CompiledCircuit(builder.build())


class TestCodes:
    def test_roundtrip(self):
        for value in (ZERO, ONE, UNKNOWN):
            for taint in (0, 1):
                assert decode_code(code_of(value, taint)) == (value, taint)

    def test_constants(self):
        assert CODE_0 == code_of(ZERO, 0)
        assert CODE_1 == code_of(ONE, 0)
        assert CODE_X == code_of(UNKNOWN, 0)


class TestCombinational:
    @given(st.integers(0, 15), st.integers(0, 15))
    @settings(max_examples=50, deadline=None)
    def test_adder_concrete(self, a, b):
        circuit = adder_circuit()
        state = circuit.new_state()
        circuit.set_input(state, "a", TWord.const(a, 4))
        circuit.set_input(state, "b", TWord.const(b, 4))
        circuit.eval_combinational(state)
        assert circuit.read_output(state, "sum").value == (a + b) & 0xF
        assert circuit.read_output(state, "cout").value == (a + b) >> 4

    @given(
        st.integers(0, 15),
        st.integers(0, 15),
        st.integers(0, 15),
        st.integers(0, 15),
        st.integers(0, 15),
        st.integers(0, 15),
    )
    @settings(max_examples=60, deadline=None)
    def test_adder_covers_tword(self, abits, ax, at, bbits, bx, bt):
        """Gate-level GLIFT must *cover* TWord's word-level GLIFT.

        The ripple adder built from discrete gates loses some reconvergent
        precision that the word-level monolithic full-adder tables keep
        (e.g. ``maj(X, 1, 1)`` is 1 monolithically but X when composed from
        AND/OR of correlated X terms), so gate-level results are allowed to
        be strictly more conservative -- never less.
        """
        circuit = adder_circuit()
        word_a = TWord(abits, ax, at, 4)
        word_b = TWord(bbits, bx, bt, 4)
        state = circuit.new_state()
        circuit.set_input(state, "a", word_a)
        circuit.set_input(state, "b", word_b)
        circuit.eval_combinational(state)
        gate_sum = circuit.read_output(state, "sum")
        ref_sum, ref_cout, _ = word_a.add(word_b)
        assert gate_sum.covers(ref_sum)
        gate_cout = circuit.read_output(state, "cout")
        assert gate_cout.covers(TWord(ref_cout[0] & 1,
                                      1 if ref_cout[0] == 2 else 0,
                                      ref_cout[1], 1))
        # On fully concrete inputs the two agree exactly.
        if word_a.is_concrete and word_b.is_concrete:
            assert gate_sum == ref_sum

    def test_taint_masking_through_gates(self):
        """An untainted AND-mask strips taint at gate level (Figure 9 core)."""
        builder = CircuitBuilder("m")
        a = builder.input("a", 4)
        masked = builder.and_(a, builder.const(0b0011, 4))
        builder.output("out", masked)
        circuit = CompiledCircuit(builder.build())
        state = circuit.new_state()
        circuit.set_input(state, "a", TWord.unknown(4, tmask=0xF))
        circuit.eval_combinational(state)
        out = circuit.read_output(state, "out")
        assert out.tmask == 0b0011
        assert out.xmask == 0b0011
        assert out.bits == 0

    def test_taint_fractions(self):
        circuit = adder_circuit()
        state = circuit.new_state()
        circuit.set_input(state, "a", TWord.const(0, 4, tmask=0xF))
        circuit.set_input(state, "b", TWord.const(0, 4))
        circuit.eval_combinational(state)
        assert 0.0 < circuit.taint_fraction(state) < 1.0
        assert circuit.unknown_fraction(state) == 0.0


class TestSequential:
    def test_counter_counts(self):
        builder = CircuitBuilder("counter")
        rst = builder.input("rst", 1)
        count = builder.reg("count", 4)
        builder.drive(count, builder.inc(count.q), rst=rst[0])
        builder.output("count", count.q)
        circuit = CompiledCircuit(builder.build())
        state = circuit.new_state()

        def cycle(reset):
            circuit.set_input(state, "rst", TWord.const(reset, 1))
            circuit.eval_combinational(state)
            circuit.clock_edge(state)

        cycle(1)
        for expected in (0, 1, 2, 3, 4):
            assert circuit.read_output(state, "count").value == expected
            cycle(0)

    def test_initial_state_is_untainted_x(self):
        circuit = figure7_circuit()
        state = circuit.new_state()
        assert circuit.read_output(state, "S").bit(0) == (UNKNOWN, 0)

    def test_dff_state_roundtrip(self):
        circuit = figure7_circuit()
        state = circuit.new_state()
        snapshot = circuit.dff_state(state)
        circuit.set_input(state, "in", TWord.const(1, 1))
        circuit.set_input(state, "rst", TWord.const(1, 1))
        circuit.eval_combinational(state)
        circuit.clock_edge(state)
        assert circuit.read_output(state, "S").bit(0) == (ZERO, 0)
        circuit.set_dff_state(state, snapshot)
        assert circuit.read_output(state, "S").bit(0) == (UNKNOWN, 0)


class TestFigure7:
    """Replays the paper's Figure 7 execution tree on real gates."""

    def run_cycle(self, circuit, state, in_word, rst_word):
        circuit.set_input(state, "in", in_word)
        circuit.set_input(state, "rst", rst_word)
        circuit.eval_combinational(state)
        next_s = circuit.read_output(state, "S_next").bit(0)
        circuit.clock_edge(state)
        return next_s

    def common_prefix(self):
        circuit = figure7_circuit()
        state = circuit.new_state()
        # Cycle 0: unknown untainted state, untainted reset.
        assert circuit.read_output(state, "S").bit(0) == (UNKNOWN, 0)
        self.run_cycle(state=state, circuit=circuit,
                       in_word=TWord.unknown(1), rst_word=TWord.const(1, 1))
        # Cycle 1: S = 0 untainted; In = untainted 1.
        assert circuit.read_output(state, "S").bit(0) == (ZERO, 0)
        self.run_cycle(state=state, circuit=circuit,
                       in_word=TWord.const(1, 1), rst_word=TWord.const(0, 1))
        # Cycle 2: S = 1 untainted; In = tainted 0.
        assert circuit.read_output(state, "S").bit(0) == (ONE, 0)
        self.run_cycle(state=state, circuit=circuit,
                       in_word=TWord.const(0, 1, tmask=1),
                       rst_word=TWord.const(0, 1))
        # Cycle 3 starts with S = 1 *tainted* on both branches.
        assert circuit.read_output(state, "S").bit(0) == (ONE, 1)
        return circuit, state

    def test_left_path_tainted_reset_keeps_taint(self):
        circuit, state = self.common_prefix()
        # Cycle 3: In unknown untainted -> S becomes X tainted.
        self.run_cycle(circuit, state, TWord.unknown(1), TWord.const(0, 1))
        assert circuit.read_output(state, "S").bit(0) == (UNKNOWN, 1)
        # Cycle 4: *tainted* reset: value clears, taint stays.
        self.run_cycle(
            circuit, state, TWord.unknown(1), TWord.const(1, 1, tmask=1)
        )
        assert circuit.read_output(state, "S").bit(0) == (ZERO, 1)

    def test_right_path_untainted_reset_clears_taint(self):
        circuit, state = self.common_prefix()
        # Cycle 3: In tainted 1 -> S = 0 tainted.
        self.run_cycle(
            circuit, state, TWord.const(1, 1, tmask=1), TWord.const(0, 1)
        )
        assert circuit.read_output(state, "S").bit(0) == (ZERO, 1)
        # Cycle 4: untainted reset fully de-taints.
        self.run_cycle(circuit, state, TWord.unknown(1), TWord.const(1, 1))
        assert circuit.read_output(state, "S").bit(0) == (ZERO, 0)


# ---------------------------------------------------------------------------
# The hashed gate table
# ---------------------------------------------------------------------------
def _type_keys(num_types):
    """Every gate key of the first *num_types* type codes, type-major."""
    type_codes = np.arange(6, 6 + num_types, dtype=np.int64)
    return (_CODE_KEYS[None, :] | type_codes[:, None] << 32).ravel()


def _injective(keys, modulus):
    return np.bincount(keys % modulus, minlength=modulus).max() < 2


def every_cell_circuit(taint_mode):
    """One rank holding every input combination of every cell type.

    Six input nets carry the six net codes; each gate of an arity-k
    type reads one of the ``6**k`` code combinations from them.
    Returns the circuit, the code-carrying input word and, per cell
    type, its gates' output nets in base-6 combination order.
    """
    builder = CircuitBuilder("every_cell")
    sources = builder.input("codes", 6)
    outputs = {}
    for cell_type in sorted(GATE_FUNCTIONS):
        arity = CELL_LIBRARY[cell_type].arity
        nets = []
        for combo in itertools.product(range(6), repeat=arity):
            out = builder.netlist.add_net()
            builder.netlist.add_gate(
                cell_type, [sources[code] for code in combo], out
            )
            nets.append(out)
        outputs[cell_type] = nets
        builder.output(cell_type, Sig(nets))
    # bit i carries code i: value i >> 1 (X for 2), taint i & 1
    word = TWord(0b001100, 0b110000, 0b101010, 6)
    return CompiledCircuit(builder.build(), taint_mode), word, outputs


class TestHashedTable:
    def test_modulus_is_injective_over_every_cell_type(self):
        """Every key of every library cell type lands in its own table
        entry -- and not of one type more, so a 17th type needs a new
        modulus."""
        assert len(CELL_TYPES) == len(GATE_FUNCTIONS)
        assert _injective(_type_keys(len(CELL_TYPES)), HASH_MODULUS)
        assert not _injective(_type_keys(len(CELL_TYPES) + 1), HASH_MODULUS)

    def test_modulus_is_the_smallest_injective_one(self):
        keys = _type_keys(len(CELL_TYPES))
        assert all(
            not _injective(keys, modulus)
            for modulus in range(len(keys), HASH_MODULUS)
        )

    @pytest.mark.parametrize("taint_mode", ["glift", "naive"])
    def test_table_holds_every_padded_lut(self, taint_mode):
        circuit, _word, _outputs = every_cell_circuit(taint_mode)
        for index, cell_type in enumerate(CELL_TYPES):
            keys = _CODE_KEYS | (6 + index) << 32
            entries = circuit._table[keys % HASH_MODULUS]
            assert len(entries) == LUT_ENTRIES
            assert np.array_equal(
                entries, _padded_lut(cell_type, taint_mode)
            ), cell_type

    @pytest.mark.parametrize("taint_mode", ["glift", "naive"])
    def test_kernel_evaluates_every_input_combination(self, taint_mode):
        circuit, word, outputs = every_cell_circuit(taint_mode)
        assert len(circuit._full_plan.ranks) == 1
        state = circuit.new_state()
        circuit.set_input(state, "codes", word)
        circuit.eval_combinational(state)
        for cell_type, nets in outputs.items():
            assert np.array_equal(
                state.codes[nets], _lut_for(cell_type, taint_mode)
            ), cell_type


# ---------------------------------------------------------------------------
# The key suffix past the nets
# ---------------------------------------------------------------------------
def _mult_runner():
    program = assemble(BENCHMARKS["mult"].service_source, name="mult")
    return GateRunner(compiled_cpu(), program)


def _assert_suffix_intact(circuit, state):
    assert len(state.codes) == circuit.num_nets
    assert np.shares_memory(state.codes, state.buffer)
    assert np.array_equal(state.buffer[circuit.num_nets:], _SUFFIX)


class TestKeySuffix:
    def test_codes_cover_exactly_the_nets(self):
        circuit = adder_circuit()
        state = circuit.new_state()
        _assert_suffix_intact(circuit, state)
        assert (state.codes == CODE_X).all()

    def test_fractions_ignore_the_suffix(self):
        circuit = adder_circuit()
        state = circuit.new_state()
        state.codes[:] = code_of(UNKNOWN, 1)
        assert circuit.taint_fraction(state) == 1.0
        assert circuit.unknown_fraction(state) == 1.0
        state.codes[:] = CODE_0
        assert circuit.taint_fraction(state) == 0.0
        assert circuit.unknown_fraction(state) == 0.0

    def test_dff_state_reads_only_flip_flops(self):
        circuit = figure7_circuit()
        state = circuit.new_state()
        assert np.array_equal(
            circuit.dff_state(state), state.codes[circuit.dff_nets()]
        )
        assert len(circuit.dff_state(state)) == circuit.num_dffs

    def test_copy_keeps_suffix_and_evaluates_identically(self):
        circuit = adder_circuit()
        state = circuit.new_state()
        circuit.set_input(state, "a", TWord.unknown(4, tmask=0b0101))
        circuit.set_input(state, "b", TWord.const(9, 4))
        twin = state.copy()
        _assert_suffix_intact(circuit, twin)
        assert not np.shares_memory(twin.buffer, state.buffer)
        circuit.eval_combinational(state)
        circuit.eval_combinational(twin)
        assert np.array_equal(twin.buffer, state.buffer)

    def test_soc_snapshot_restore_keeps_suffix(self):
        runner = _mult_runner()
        soc, circuit = runner.soc, runner.soc.circuit
        for _ in range(20):
            runner.step()
        snapshot = soc.snapshot()
        first = [runner.step() for _ in range(10)]
        after = soc.state.codes.copy()
        soc.restore(snapshot)
        _assert_suffix_intact(circuit, soc.state)
        again = [runner.step() for _ in range(10)]
        assert again == first
        assert np.array_equal(soc.state.codes, after)

    def test_timeline_frames_hold_only_nets(self):
        runner = _mult_runner()
        recorder = TimelineRecorder(keyframe_interval=4)
        with record_timeline(recorder):
            for _ in range(10):
                runner.step()
        timeline = recorder.to_timeline()
        assert timeline.num_frames == 10
        for frame in range(timeline.num_frames):
            assert len(timeline.seek(frame)) == runner.soc.circuit.num_nets
