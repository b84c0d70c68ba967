"""Tests for the compiled gate-level GLIFT simulator."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.starlogic import star_logic_analysis
from repro.cpu import compiled_cpu
from repro.cpu.build import build_cpu
from repro.isa.assembler import assemble
from repro.logic.glift import GATE_FUNCTIONS, glift_eval
from repro.logic.ternary import ONE, UNKNOWN, ZERO
from repro.logic.words import TWord
from repro.netlist.builder import CircuitBuilder, Sig
from repro.netlist.cells import CELL_LIBRARY
from repro.netlist.levelize import levelize
from repro.obs import Instruments
from repro.obs.provenance import ProvenanceRecorder
from repro.obs.timeline import BLOCK, TimelineRecorder
from repro.sim.compiled import (
    CELL_TYPES,
    CODE_0,
    CODE_1,
    CODE_MODULUS,
    CODE_X,
    KEY_BYTES,
    MAX_ARITY,
    SUFFIX_BYTES,
    CircuitState,
    CompiledCircuit,
    _digits,
    _leaf_axes,
    _lut_for,
    _reach_keys,
    _table_modulus,
    _tabulate,
    code_of,
    decode_code,
)
from repro.sim.runner import GateRunner
from repro.sim.soc import INTERFACE_PORTS
from repro.workloads.registry import BENCHMARKS
from tests.sim.test_engine_equivalence import Reference, random_netlist


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
#: The input-code half of every key: five codes, code *i* in byte *i*.
CODE_KEYS = sum(
    _digits(MAX_ARITY)[position].astype(np.int64) << (8 * position)
    for position in range(MAX_ARITY)
)
#: The power of two that scales a key's suffix word.
SUFFIX_SCALE = 1 << (8 * MAX_ARITY)


def _words(circuit):
    """Each function's suffix word, read off the circuit's suffix."""
    suffix = circuit._suffix.reshape(-1, SUFFIX_BYTES).astype(np.int64)
    return suffix @ (1 << (8 * np.arange(SUFFIX_BYTES)))


def _reachable_keys(circuit):
    """Per function, the keys its rows can form: its arity's codes with
    the padded bytes repeating input 0, under its suffix word."""
    return [
        _reach_keys(arity) + word * SUFFIX_SCALE
        for arity, word in zip(circuit._arities.tolist(), _words(circuit))
    ]


def _injective(keys, modulus):
    return np.bincount(keys % modulus, minlength=modulus).max() < 2


def _keys_built_on(code_modulus, num_functions):
    """Every key of every function under the construction with
    *code_modulus* in place of ``CODE_MODULUS`` -- all ``6**5`` code
    combinations, function-major -- their table size, and the words.

    Solves ``word * 2**40 == f * code_modulus`` modulo the table size
    for each function *f*, dividing out the common power of two, so it
    also builds an even *code_modulus*.
    """
    modulus = code_modulus * (num_functions | 1)
    common = math.gcd(SUFFIX_SCALE, modulus)
    inverse = pow(SUFFIX_SCALE // common, -1, modulus // common)
    words = np.array(
        [
            f * code_modulus // common * inverse % (modulus // common)
            for f in range(num_functions)
        ],
        dtype=np.int64,
    )
    keys = (CODE_KEYS[None, :] + words[:, None] * SUFFIX_SCALE).ravel()
    return keys, modulus, words


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


@pytest.fixture(scope="module")
def lp430():
    return compiled_cpu()


@pytest.fixture(scope="module")
def lp430_naive():
    return CompiledCircuit(build_cpu(), "naive")


class TestHashedTable:
    @pytest.mark.parametrize("netlist", ["lp430", "every_cell"])
    def test_constructive_modulus_is_injective(self, netlist, lp430):
        """No two keys of any two functions of the circuit -- library
        cell types and cut functions, every five-code combination, not
        only the ones its rows reach -- share a table entry."""
        if netlist == "lp430":
            circuit = lp430
        else:
            circuit = every_cell_circuit("glift")[0]
        num_functions = len(circuit._arities)
        assert num_functions >= len(CELL_TYPES)
        assert len(circuit._suffix) == SUFFIX_BYTES * num_functions
        modulus = int(circuit._modulus)
        assert modulus == _table_modulus(num_functions)
        assert modulus % 2 == 1
        assert modulus == len(circuit._table)
        keys, built, words = _keys_built_on(CODE_MODULUS, num_functions)
        assert built == modulus
        assert np.array_equal(words, _words(circuit))
        assert _injective(keys, modulus)
        # The identity the construction rests on.
        functions = np.repeat(np.arange(num_functions), len(CODE_KEYS))
        codes = np.tile(CODE_KEYS, num_functions)
        assert np.array_equal(
            keys % modulus, (codes + functions * CODE_MODULUS) % modulus
        )
        assert (keys < 1 << 63).all()

    def test_code_modulus_is_the_smallest_injective_one(self):
        """13081 is the smallest odd modulus injective over the five-byte
        code keys (the table size must be odd, so that the suffix
        word's power of two is invertible)."""
        assert CODE_MODULUS == 13081
        assert _injective(CODE_KEYS, CODE_MODULUS)
        assert not any(
            _injective(CODE_KEYS, modulus)
            for modulus in range(len(CODE_KEYS) | 1, CODE_MODULUS, 2)
        )

    def test_construction_built_on_a_smaller_modulus_collides(self, lp430):
        num_functions = len(lp430._arities)
        for code_modulus in (CODE_MODULUS - 2, CODE_MODULUS - 1):
            keys, modulus, _words = _keys_built_on(code_modulus, num_functions)
            assert not _injective(keys, modulus), code_modulus
        keys, modulus, _words = _keys_built_on(CODE_MODULUS, num_functions)
        assert _injective(keys, modulus)

    @pytest.mark.parametrize("taint_mode", ["glift", "naive"])
    def test_table_holds_every_padded_lut(self, taint_mode):
        """Every key a cell type's rows can form -- its inputs, then the
        padded bytes repeating input 0 -- reads that type's own table,
        and no two functions' reachable keys share an entry."""
        circuit, _word, _outputs = every_cell_circuit(taint_mode)
        modulus = int(circuit._modulus)
        reachable = _reachable_keys(circuit)
        assert _injective(np.concatenate(reachable), modulus)
        for index, cell_type in enumerate(CELL_TYPES):
            assert circuit._arities[index] == CELL_LIBRARY[cell_type].arity
            assert np.array_equal(
                circuit._table[reachable[index] % modulus],
                _lut_for(cell_type, taint_mode),
            ), cell_type

    @pytest.mark.parametrize("taint_mode", ["glift", "naive"])
    def test_table_holds_every_cut_table(
        self, taint_mode, lp430, lp430_naive
    ):
        """Every reachable entry of every LP430 function holds its table:
        the cell types' tables, then each cut function's, tabulated at
        its own arity."""
        circuit = lp430 if taint_mode == "glift" else lp430_naive
        modulus = int(circuit._modulus)
        reachable = _reachable_keys(circuit)
        assert _injective(np.concatenate(reachable), modulus)
        written = np.zeros(modulus, dtype=bool)
        written[np.concatenate(reachable) % modulus] = True
        assert not circuit._table[~written].any()
        for index, cell_type in enumerate(CELL_TYPES):
            assert np.array_equal(
                circuit._table[reachable[index] % modulus],
                _lut_for(cell_type, taint_mode),
            ), cell_type
        structures = circuit._cut_structures
        assert len(structures) == len(reachable) - len(CELL_TYPES) > 100
        assert max(circuit._arities) == MAX_ARITY
        for index, structure in enumerate(structures, len(CELL_TYPES)):
            arity = int(circuit._arities[index])
            assert np.array_equal(
                circuit._table[reachable[index] % modulus],
                _tabulate(
                    structure, _leaf_axes(arity), taint_mode, {}
                ).ravel(),
            ), structure

    @pytest.mark.parametrize("taint_mode", ["glift", "naive"])
    def test_kernel_evaluates_every_input_combination(self, taint_mode):
        circuit, word, outputs = every_cell_circuit(taint_mode)
        assert len(circuit._full_plan.every) == 1
        state = circuit.new_state()
        circuit.set_input(state, "codes", word)
        circuit.eval_combinational(state)
        for cell_type, nets in outputs.items():
            assert np.array_equal(
                state.codes[nets], _lut_for(cell_type, taint_mode)
            ), cell_type

    def test_kernel_rejects_a_row_reading_an_unwritten_entry(self):
        """Only the entries a row's padded key reaches are written, so a
        kernel whose row pads with anything but its input 0, or names no
        function's suffix word, is refused before it runs."""
        circuit = adder_circuit()
        ranks = circuit._full_plan.every
        circuit._kernel(ranks, circuit.stride)
        rank = ranks[-1]
        keys = rank.columns.reshape(-1, KEY_BYTES)
        functions = (keys[:, MAX_ARITY] - circuit.num_nets) // SUFFIX_BYTES
        row = np.flatnonzero(circuit._arities[functions] < MAX_ARITY)[0]
        other = (keys[row, 0] + 1) % circuit.num_nets
        for column, value in (
            (MAX_ARITY - 1, other),  # a padded byte reads another net
            (MAX_ARITY, circuit.num_nets + 1),  # a word's second byte
        ):
            columns = keys.copy()
            columns[row, column] = value
            bad = rank._replace(columns=columns.ravel())
            with pytest.raises(ValueError):
                circuit._kernel(ranks[:-1] + [bad], circuit.stride)


class TestCutMapping:
    def test_reconvergent_chain_bounds_cut_size(self):
        """``x = AND(x, x)`` doubles a cut's gate tree at every level;
        the mapper caps it (four levels per cut here) instead of
        tabulating exponentially large trees."""
        builder = CircuitBuilder("doubling")
        net = builder.input("a", 1)[0]
        for _ in range(3000):
            out = builder.netlist.add_net()
            builder.netlist.add_gate("AND2", [net, net], out)
            net = out
        builder.output("out", Sig([net]))
        circuit = CompiledCircuit(builder.build())
        assert len(circuit._full_plan.mapped) == 750
        state = circuit.new_state()
        state.every_net = False
        for word in (TWord.const(1, 1, tmask=1), TWord.unknown(1)):
            circuit.set_input(state, "a", word)
            circuit.eval_combinational(state)
            assert circuit.read_output(state, "out") == word


class TestLutFor:
    @pytest.mark.parametrize("taint_mode", ["glift", "naive"])
    @pytest.mark.parametrize("cell_type", CELL_TYPES)
    def test_matches_glift_eval_enumeration(self, cell_type, taint_mode):
        """The bitmask construction equals a glift_eval call per input
        code combination, indexed base-6 with input 0 most significant."""
        func = GATE_FUNCTIONS[cell_type]
        arity = CELL_LIBRARY[cell_type].arity
        expected = []
        for codes in itertools.product(range(6), repeat=arity):
            values = [code >> 1 for code in codes]
            taints = [code & 1 for code in codes]
            value, taint = glift_eval(func, values, taints)
            if taint_mode == "naive":
                taint = 1 if any(taints) else 0
            expected.append(code_of(value, taint))
        assert _lut_for(cell_type, taint_mode).tolist() == expected


class TestPlanChoice:
    """One method picks the plan a pass runs: the cut-mapped one unless
    the state's owner reads nets inside the cuts, the every-net one
    otherwise."""

    @staticmethod
    def _soc_plans():
        runner = _mult_runner()
        soc = runner.soc
        return soc, soc.circuit._full_plan, soc._read_plan

    def test_plain_soc_runs_the_mapped_plans(self):
        soc, full, cone = self._soc_plans()
        assert soc.circuit.pass_plan(soc.state, full) is full.mapped
        assert soc.circuit.pass_plan(soc.state, cone) is cone.mapped
        levels = len(levelize(soc.circuit.netlist)) - 1
        assert len(full.mapped) < levels
        assert len(full.every) < levels

    @pytest.mark.parametrize("armed", ["provenance", "timeline"])
    def test_whole_net_readers_run_the_every_net_plans(self, armed):
        """Two SoCs share the one cached circuit; arming a whole-net
        recorder (provenance) on one gives that SoC the every-net plans
        while the other keeps the mapped ones.  A timeline records only
        flip-flops and input ports, so its SoC keeps the mapped plans."""
        soc, full, cone = self._soc_plans()
        other = _mult_runner().soc
        circuit = soc.circuit
        assert other.circuit is circuit
        recorders = {
            "provenance": ProvenanceRecorder,
            "timeline": TimelineRecorder,
        }
        soc.arm(Instruments(**{armed: recorders[armed]()}))
        form = "every" if armed == "provenance" else "mapped"
        assert circuit.pass_plan(soc.state, full) is getattr(full, form)
        assert circuit.pass_plan(soc.state, cone) is getattr(cone, form)
        assert circuit.pass_plan(other.state, full) is full.mapped
        assert circuit.pass_plan(other.state, cone) is cone.mapped
        soc.arm()
        assert circuit.pass_plan(soc.state, full) is full.mapped

    @pytest.mark.parametrize("armed", [None, "timeline", "provenance"])
    def test_step_order(self, armed, monkeypatch):
        """A plain or timeline SoC settles each cycle with one full pass;
        a provenance SoC with one pair pass, its full and cone passes
        as the two rows of one sweep.  Each re-runs the load data's
        fanout on load cycles only."""
        program = assemble(
            "mov #0x200, r4\nmov 0(r4), r5\nmov &0x202, r6\nhalt"
        )
        circuit = compiled_cpu()
        runner = GateRunner(circuit, program)
        soc = runner.soc
        if armed == "provenance":
            soc.arm(Instruments(provenance=ProvenanceRecorder()))
        elif armed == "timeline":
            soc.arm(Instruments(timeline=TimelineRecorder()))
        names = {
            id(circuit.pair_plan(INTERFACE_PORTS)): "pair",
            id(soc._read_plan): "read",
        }
        sweep = "pair" if armed == "provenance" else "full"
        passes = []
        full = CompiledCircuit.eval_combinational
        subset = CompiledCircuit.eval_plan

        def eval_combinational(self, state):
            passes.append("full")
            full(self, state)

        def eval_plan(self, state, plan):
            passes.append(names[id(plan)])
            subset(self, state, plan)

        monkeypatch.setattr(
            CompiledCircuit, "eval_combinational", eval_combinational
        )
        monkeypatch.setattr(CompiledCircuit, "eval_plan", eval_plan)
        loads = 0
        for _ in range(30):
            passes.clear()
            events = runner.step()
            loads += events.read is not None
            if events.read is not None:
                assert passes == [sweep, "read"]
            else:
                assert passes == [sweep]
        assert loads >= 2

    def test_only_a_provenance_step_builds_the_interface_cone(self):
        """A plain SoC never runs the memory-interface cone, so it
        builds neither it nor the pair plan whose row 1 it is, nor a
        second row; the first provenance step builds the pair plan and
        the SoC's recording rows, whose two-row pair state's row 0 is
        the SoC's state, and a third row for the pre-pass codes.  The
        full plan's ranks then are views of the pair ranks' row-0
        prefixes, and its mapped ranks still prefixes of those."""
        circuit = CompiledCircuit(build_cpu())
        program = assemble(BENCHMARKS["mult"].service_source, name="mult")
        runner = GateRunner(circuit, program)
        runner.run(max_cycles=20)
        soc = runner.soc
        full = circuit._full_plan
        every = [rank.columns.copy() for rank in full.every]
        mapped = [rank.columns.copy() for rank in full.mapped]
        assert [kind for kind, _ in circuit._subplans] == ["fanout"]
        assert soc._recording is None
        assert len(soc.state.buffer) == circuit.stride
        soc.arm(Instruments(provenance=ProvenanceRecorder()))
        runner.step()
        assert [kind for kind, _ in circuit._subplans] == ["fanout", "pair"]
        recording = soc._recording
        assert recording.plan is circuit.pair_plan(INTERFACE_PORTS)
        rows = recording.pair.buffer
        assert len(rows) == 2 * circuit.stride
        assert np.shares_memory(soc.state.buffer, rows[:circuit.stride])
        assert np.shares_memory(recording.cone, rows[circuit.stride:])
        assert len(soc.state.buffer) == circuit.stride
        pairs = recording.plan.every
        assert len(full.every) == len(pairs) == len(every)
        for rank, pair, columns in zip(full.every, pairs, every):
            assert np.shares_memory(rank.columns, pair.columns)
            assert np.array_equal(rank.columns, columns)
            assert np.array_equal(pair.columns[:len(columns)], columns)
        assert len(full.mapped) == len(mapped)
        for rank, columns in zip(full.mapped, mapped):
            assert np.array_equal(rank.columns, columns)
            assert any(
                np.shares_memory(rank.columns, pair.columns)
                for pair in pairs
            )

    def test_direct_circuit_states_read_every_net(self):
        circuit = adder_circuit()
        state = circuit.new_state()
        assert state.every_net and state.copy().every_net
        plan = circuit._full_plan
        assert circuit.pass_plan(state, plan) is plan.every

    def test_star_logic_reads_every_net(self, monkeypatch):
        seen = []
        original = CompiledCircuit.pass_plan

        def spy(self, state, plan):
            chosen = original(self, state, plan)
            seen.append(chosen is plan.every)
            return chosen

        monkeypatch.setattr(CompiledCircuit, "pass_plan", spy)
        program = assemble(BENCHMARKS["mult"].service_source, name="mult")
        star_logic_analysis(program, cycles=3)
        # Two reset cycles run before the baseline arms every_net.
        assert seen[4:] and all(seen[4:])


# ---------------------------------------------------------------------------
# The key suffix past the nets
# ---------------------------------------------------------------------------
def _mult_runner():
    program = assemble(BENCHMARKS["mult"].service_source, name="mult")
    return GateRunner(compiled_cpu(), program)


def _assert_suffix_intact(circuit, state):
    assert len(state.codes) == circuit.num_nets
    assert np.shares_memory(state.codes, state.buffer)
    assert np.array_equal(state.buffer[circuit.num_nets:], circuit._suffix)


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
        recorder = TimelineRecorder()
        runner.soc.arm(Instruments(timeline=recorder))
        for _ in range(10):
            runner.step()
        timeline = recorder.to_timeline()
        assert timeline.num_frames == 10
        for frame in range(timeline.num_frames):
            assert len(timeline.seek(frame)) == runner.soc.circuit.num_nets


# ---------------------------------------------------------------------------
# The kernel's work row
# ---------------------------------------------------------------------------
def _kernel_forms(circuit, cone_ports, fanout_ports):
    """``(ranks, buffer length)`` of every form of *circuit*'s full,
    cone, fanout, pair and block plans, at each length a pass runs it
    on: the fanout plan also runs on a provenance step's two-row
    buffer."""
    stride = circuit.stride
    plans = [
        (circuit._full_plan, [stride]),
        (circuit.cone_plan(cone_ports), [stride]),
        (circuit.fanout_plan(fanout_ports), [stride, 2 * stride]),
        (circuit.pair_plan(cone_ports), [2 * stride]),
        (circuit.block_plan(BLOCK), [BLOCK * stride]),
    ]
    return [
        (ranks, length)
        for plan, lengths in plans
        for ranks in (plan.mapped, plan.every)
        for length in lengths
    ]


def _assert_kernel_layout(circuit, ranks, length):
    """Every column of the kernel of *ranks* reads the byte the rank's
    own column names: the buffer's, unless an earlier rank of the form
    wrote it (then that rank's slot) or it is a constant net (then its
    row's constant slot); the write-back covers every row's constant
    nets and each output exactly once."""
    kernel = circuit._kernel(ranks, length)
    state_rows = length // circuit.stride
    consts = np.concatenate([
        circuit._const_nets_arr + row * circuit.stride
        for row in range(state_rows)
    ])
    base = length + len(consts)
    rows = sum(len(outputs) for outputs, _ in ranks)
    assert len(kernel.work) == base + rows
    #: the buffer byte each work index holds a code for
    origin = np.concatenate(
        [np.arange(length), consts] + [outputs for outputs, _ in ranks]
    )
    constant = np.zeros(length, dtype=bool)
    constant[consts] = True
    written = np.zeros(length, dtype=bool)
    start = base
    for (outputs, columns), step in zip(ranks, kernel.steps, strict=True):
        work_columns, keys, keys64, slots = step
        assert 0 <= work_columns.min() and work_columns.max() < len(
            kernel.work
        )
        assert len(keys) == len(work_columns) == 8 * len(slots)
        assert np.shares_memory(keys64, keys) and keys64.dtype == "<i8"
        assert slots.__array_interface__["data"][0] == (
            kernel.work.__array_interface__["data"][0] + start
        )
        # A slot a rank reads is written by an earlier rank.
        assert (work_columns[work_columns >= base] < start).all()
        read = origin[work_columns]
        from_buffer = work_columns < length
        from_constant = (work_columns >= length) & (work_columns < base)
        assert np.array_equal(read[from_buffer], columns[from_buffer])
        assert not (written | constant)[columns[from_buffer]].any()
        assert constant[columns[from_constant]].all()
        assert np.array_equal(read[from_constant], columns[from_constant])
        from_slot = work_columns >= base
        assert np.array_equal(read[from_slot], columns[from_slot])
        written[outputs] = True
        start += len(outputs)
    assert np.array_equal(kernel.outputs, origin[length:])
    assert len(np.unique(kernel.outputs)) == len(kernel.outputs)
    assert np.array_equal(
        kernel.work[length:base],
        np.tile(circuit._const_codes_arr, state_rows),
    )


class TestKernel:
    """A pass copies the buffer into its form's work row, runs three
    calls per rank into the row's slots and writes every slot back."""

    def test_lp430_forms_read_what_their_columns_name(self, lp430):
        forms = _kernel_forms(lp430, INTERFACE_PORTS, ["dmem_rdata"])
        assert len(forms) == 12
        for ranks, length in forms:
            _assert_kernel_layout(lp430, ranks, length)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_random_dag_forms_read_what_their_columns_name(self, seed):
        circuit = CompiledCircuit(random_netlist(seed, recent=6))
        assert len(circuit._const_nets_arr) == 2
        for ranks, length in _kernel_forms(circuit, ["out"], ["in0"]):
            _assert_kernel_layout(circuit, ranks, length)

    def test_remainder_modulus_is_a_0d_int64_array(self, lp430):
        # np.remainder converts a numpy scalar operand on each of a
        # pass's 30 calls (about 700 ns a call on a 65-row rank) and
        # takes a 0-d array as it is (about 500 ns).
        modulus = lp430._modulus
        assert type(modulus) is np.ndarray
        assert modulus.shape == () and modulus.dtype == np.int64
        assert modulus == len(lp430._table)

    def test_kernel_validates_its_layout(self, lp430):
        rank = lp430._full_plan.every[0]
        with pytest.raises(ValueError, match="written twice"):
            lp430._kernel([rank, rank], lp430.stride)
        with pytest.raises(ValueError, match="outside the buffer"):
            lp430._kernel([rank], lp430.num_nets)

    @pytest.mark.parametrize("every_net", [False, True])
    def test_a_pass_reties_overwritten_constants(self, every_net):
        circuit = CompiledCircuit(random_netlist(3))
        consts = circuit._const_nets_arr
        state = circuit.new_state()
        state.every_net = every_net
        circuit.set_input(state, "rst", TWord.const(1, 1))
        circuit.eval_combinational(state)
        expected = state.copy()
        circuit.eval_combinational(expected)
        state.codes[consts] = CODE_X
        circuit.eval_combinational(state)
        assert np.array_equal(state.codes[consts], circuit._const_codes_arr)
        assert np.array_equal(state.codes, expected.codes)

    def test_a_block_pass_settles_each_row_as_a_full_pass(self):
        """Each row of a block pass ends as an every-net full pass on
        that row alone leaves it, its constants tied."""
        circuit = CompiledCircuit(random_netlist(5))
        rng = np.random.RandomState(5)
        singles = []
        for _ in range(3):
            state = circuit.new_state()
            state.codes[circuit.row_nets] = rng.randint(
                0, 6, len(circuit.row_nets)
            )
            singles.append(state)
        block = CircuitState(
            np.concatenate([state.buffer for state in singles]),
            circuit.num_nets,
        )
        circuit.eval_plan(block, circuit.block_plan(3))
        for state in singles:
            circuit.eval_combinational(state)
        assert np.array_equal(
            block.buffer, np.concatenate([state.buffer for state in singles])
        )
        assert circuit.block_plan(1) is circuit._full_plan
        assert circuit.block_plan(3) is circuit.block_plan(3)

    def test_a_wide_kernel_reduces_its_keys_by_floor_division(self):
        """The LP430's timeline block kernel is wide (floor-division
        key reduction) and its one-row full kernel is not (remainder);
        each row of a block pass still equals a one-row full pass."""
        circuit = compiled_cpu()
        rng = np.random.RandomState(7)
        singles = []
        for _ in range(BLOCK):
            state = circuit.new_state()
            state.codes[circuit.row_nets] = rng.randint(
                0, 6, len(circuit.row_nets)
            )
            singles.append(state)
        block = CircuitState(
            np.concatenate([state.buffer for state in singles]),
            circuit.num_nets,
        )
        plan = circuit.block_plan(BLOCK)
        circuit.eval_plan(block, plan)
        for state in singles:
            circuit.eval_combinational(state)
        assert np.array_equal(
            block.buffer, np.concatenate([state.buffer for state in singles])
        )
        kernel = plan.kernels[(id(plan.every), len(block.buffer))]
        assert kernel.quotients is not None
        full = circuit._full_plan.kernels[
            (id(circuit._full_plan.every), circuit.stride)
        ]
        assert full.quotients is None

    def test_kernels_survive_the_pair_plan_repointing_the_full_plan(self):
        """A mapped pass builds the full plan's kernel; arming a
        provenance recorder then builds the pair plan, which re-points
        the full plan's ranks at its own arrays.  Later passes in both
        forms still match the reference walk."""
        circuit = CompiledCircuit(build_cpu())
        reference = Reference(circuit.netlist)
        program = assemble(BENCHMARKS["mult"].service_source, name="mult")
        runner = GateRunner(circuit, program)
        runner.run(max_cycles=20)
        full = circuit._full_plan
        mapped, every = full.mapped, full.every
        kernels = dict(full.kernels)
        assert len(kernels) == 1
        runner.soc.arm(Instruments(provenance=ProvenanceRecorder()))
        runner.step()
        assert full.mapped is mapped and full.every is every
        assert all(full.kernels[key] is kernel
                   for key, kernel in kernels.items())
        for every_net in (False, True):
            state = runner.soc.state.copy()
            state.every_net = every_net
            codes = state.codes.copy()
            reference.evaluate(codes)
            circuit.eval_combinational(state)
            nets = slice(None) if every_net else np.unique(np.concatenate(
                [rank.outputs for rank in full.mapped]
                + [circuit.dff_nets()]
            ))
            assert np.array_equal(state.codes[nets], codes[nets])
