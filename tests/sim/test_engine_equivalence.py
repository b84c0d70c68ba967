"""The compiled evaluator against the reference GLIFT semantics.

:class:`CompiledCircuit` evaluates each rank with one hashed table
lookup, over a per-gate plan or a plan of 4-input cuts.  These tests
hold both, bit for bit, to an independent reference: a per-gate walk
over ``levelize(netlist)`` that calls
:func:`repro.logic.glift.glift_eval` for every gate.  The reference
shares nothing with the kernel -- no tables, no cuts, no gate keys or
suffix words, no modulus, no padded inputs -- so a wrong suffix word, a
colliding modulus, a bad broadcast, a misordered rank or a mis-tabulated
cut shows up as a code mismatch.  A per-gate pass is compared on every
net; a cut-mapped pass on every net it keeps fresh (:func:`root_nets`).

* Random netlists: seeded random DAGs over all 16 combinational cell
  types (arity 1-4), shallow and deep, in both taint modes and both
  plans, compared after every cone-plan pass, full pass and clock edge.
* SoC lockstep: the compiled LP430 (cut-mapped, as analyses run it)
  against a reference-evaluated copy, cycle by cycle, on every forking
  Table 1 workload and one clean one.
* LP430 mapping: rank counts, and every net read by name is a root.
* Analysis equivalence: an analysis forced onto the per-gate plan
  equals a plain one (cut-mapped plan) on every Table 2 violator.
"""

import random
import re

import numpy as np
import pytest

from repro.core import TaintTracker
from repro.cpu import compiled_cpu
from repro.cpu.build import build_cpu
from repro.isa.assembler import assemble
from repro.logic.glift import GATE_FUNCTIONS, glift_eval
from repro.logic.words import TWord
from repro.netlist.builder import CircuitBuilder, Sig
from repro.netlist.cells import CELL_LIBRARY
from repro.netlist.levelize import levelize
from repro.sim.compiled import CODE_0, CODE_1, CompiledCircuit, code_of
from repro.sim.runner import GateRunner
from repro.workloads.registry import BENCHMARKS, TABLE2_VIOLATORS

TAINT_MODES = ("glift", "naive")
NUM_INPUTS = 5


class Reference:
    """Per-gate ``glift_eval`` evaluation in ``levelize`` order.

    Gate results are memoised on ``(cell type, input codes)``;
    ``glift_eval`` is a pure function, so this only saves time.
    """

    def __init__(self, netlist, taint_mode="glift"):
        levels = levelize(netlist)
        self.constants = [
            (gate.output, CODE_1 if gate.cell_type == "TIE1" else CODE_0)
            for gate in levels[0]
        ]
        self.gates = [gate for level in levels[1:] for gate in level]
        self.inputs = {port.name: port.nets for port in netlist.inputs}
        self.outputs = {port.name: port.nets for port in netlist.outputs}
        self.naive = taint_mode == "naive"
        self._memo = {}

    def gate(self, cell_type, codes):
        key = (cell_type, codes)
        code = self._memo.get(key)
        if code is None:
            values = [c >> 1 for c in codes]
            taints = [c & 1 for c in codes]
            value, taint = glift_eval(
                GATE_FUNCTIONS[cell_type], values, taints
            )
            if self.naive:
                taint = 1 if any(taints) else 0
            code = self._memo[key] = code_of(value, taint)
        return code

    def cone(self, port_names):
        """Every net feeding the named output ports."""
        drivers = {gate.output: gate.inputs for gate in self.gates}
        return _reach(
            [net for name in port_names for net in self.outputs[name]],
            drivers,
        )

    def fanout(self, port_names):
        """Every net the named input ports reach through gates."""
        readers = {}
        for gate in self.gates:
            for net in gate.inputs:
                readers.setdefault(net, []).append(gate.output)
        return _reach(
            [net for name in port_names for net in self.inputs[name]],
            readers,
        )

    def evaluate(self, codes, nets=None):
        """One pass over *codes* in place; with *nets*, only the gates
        driving them (a cone- or fanout-plan pass)."""
        work = codes.tolist()
        for net, code in self.constants:
            work[net] = code
        for gate in self.gates:
            if nets is None or gate.output in nets:
                work[gate.output] = self.gate(
                    gate.cell_type, tuple(work[net] for net in gate.inputs)
                )
        codes[:] = work


def _reach(start, edges):
    """*start* and every net reached from it along *edges*."""
    nets = set()
    stack = list(start)
    while stack:
        net = stack.pop()
        if net not in nets:
            nets.add(net)
            stack.extend(edges.get(net, ()))
    return frozenset(nets)


class ReferenceCircuit(CompiledCircuit):
    """A compiled circuit whose every pass runs the reference walk."""

    def __init__(self, netlist):
        super().__init__(netlist)
        self.reference = Reference(netlist)

    def cone_plan(self, port_names):
        return self.reference.cone(port_names)

    def fanout_plan(self, port_names):
        return self.reference.fanout(port_names)

    def eval_plan(self, state, plan):
        self.reference.evaluate(state.codes, nets=plan)

    def eval_combinational(self, state):
        self.reference.evaluate(state.codes)


def _program(name):
    info = BENCHMARKS[name]
    return assemble(info.service_source, name=name)


def _normalize(report):
    """Report text minus the one legitimately nondeterministic field."""
    return re.sub(r"wall=\S+", "wall=<t>", report)


def root_nets(circuit):
    """Every net a cut-mapped pass keeps fresh: the cut roots, the
    flip-flop Qs and the port nets."""
    netlist = circuit.netlist
    nets = [rank.outputs for rank in circuit._full_plan.mapped.ranks]
    nets.append(circuit.dff_nets())
    nets.extend(
        np.array(port.nets) for port in netlist.inputs + netlist.outputs
    )
    return np.unique(np.concatenate(nets))


def _depth(structure):
    """Gate levels of a cut structure (a leaf position is 0)."""
    if isinstance(structure, int):
        return 0
    return 1 + max(_depth(child) for child in structure[1:])


# ---------------------------------------------------------------------------
# Random netlists
# ---------------------------------------------------------------------------
def random_netlist(seed, num_regs=4, num_gates=80, recent=None):
    """A seeded random layered DAG with registers and a reset, using
    every combinational cell type at least once.  With *recent*, each
    gate input comes from the last *recent* nets created with
    probability 0.8, which builds long chains: deep logic whose
    multi-level cones the cut mapper folds into single cuts."""
    rng = random.Random(seed)
    b = CircuitBuilder(f"rand{seed}")
    rst = b.input("rst", 1)[0]
    pool = [b.input(f"in{i}", 1)[0] for i in range(NUM_INPUTS)]
    regs = [b.reg(f"r{i}", 1) for i in range(num_regs)]
    pool += [r.q[0] for r in regs]
    pool += [b.bit0(), b.bit1()]
    cell_types = sorted(GATE_FUNCTIONS)
    kinds = cell_types + [
        rng.choice(cell_types) for _ in range(num_gates - len(cell_types))
    ]
    rng.shuffle(kinds)
    for cell_type in kinds:
        inputs = [
            rng.choice(
                pool[-recent:] if recent and rng.random() < 0.8 else pool
            )
            for _ in range(CELL_LIBRARY[cell_type].arity)
        ]
        out = b.netlist.add_net()
        b.netlist.add_gate(cell_type, inputs, out)
        pool.append(out)
    for reg in regs:
        b.drive(reg, Sig([rng.choice(pool)]), rst=rst)
    b.output("out", Sig([rng.choice(pool) for _ in range(4)]))
    return b.build()


def _random_word(rng):
    """A random 1-bit ternary word, sometimes tainted, sometimes X."""
    roll = rng.random()
    if roll < 0.2:
        return TWord(0, 1, rng.randrange(2), 1)  # unknown
    return TWord(rng.randrange(2), 0, rng.randrange(2), 1)


def _lockstep(netlist, circuit, seed, every_net, cycles=40):
    """Drive *circuit* and the reference with the same random inputs,
    comparing after every pass and clock edge: the whole code array for
    the per-gate plan (*every_net*), every root net for the cut-mapped
    plan."""
    reference = Reference(netlist, circuit.taint_mode)
    cone, reference_cone = circuit.cone_plan(["out"]), reference.cone(["out"])
    state, expected = circuit.new_state(), circuit.new_state()
    state.every_net = every_net
    full = circuit._full_plan
    assert circuit.pass_plan(state, full) is (
        full if every_net else full.mapped
    )
    nets = slice(None) if every_net else root_nets(circuit)
    rng = random.Random(1000 + seed)
    for cycle in range(cycles):
        words = {"rst": TWord.const(1 if cycle == 0 else 0, 1)}
        # Change a random subset of inputs (sometimes none).
        for index in range(NUM_INPUTS):
            if rng.random() < 0.6:
                words[f"in{index}"] = _random_word(rng)
        for name, word in words.items():
            circuit.set_input(state, name, word)
            circuit.set_input(expected, name, word)
        circuit.eval_plan(state, cone)
        reference.evaluate(expected.codes, nets=reference_cone)
        assert np.array_equal(state.codes[nets], expected.codes[nets]), (
            f"seed {seed} ({circuit.taint_mode}): cone pass diverged, "
            f"cycle {cycle}"
        )
        circuit.eval_combinational(state)
        reference.evaluate(expected.codes)
        assert np.array_equal(state.codes[nets], expected.codes[nets]), (
            f"seed {seed} ({circuit.taint_mode}): full pass diverged, "
            f"cycle {cycle}"
        )
        circuit.clock_edge(state)
        circuit.clock_edge(expected)
        circuit.eval_combinational(state)
        reference.evaluate(expected.codes)
        assert np.array_equal(state.codes[nets], expected.codes[nets]), (
            f"seed {seed} ({circuit.taint_mode}): diverged after clock "
            f"edge, cycle {cycle}"
        )


def _both_plans(netlist, seed):
    for taint_mode in TAINT_MODES:
        circuit = CompiledCircuit(netlist, taint_mode)
        for every_net in (True, False):
            _lockstep(netlist, circuit, seed, every_net)


class TestRandomNetlists:
    def test_every_cell_type_is_exercised(self):
        used = {gate.cell_type for gate in random_netlist(0).gates}
        assert set(GATE_FUNCTIONS) <= used

    @pytest.mark.parametrize("seed", range(8))
    def test_lockstep_on_random_dag(self, seed):
        _both_plans(random_netlist(seed), seed)

    @pytest.mark.parametrize("seed", range(8))
    def test_lockstep_on_deep_random_dag(self, seed):
        netlist = random_netlist(seed, num_gates=160, recent=6)
        circuit = CompiledCircuit(netlist)
        mapped = circuit._full_plan.mapped
        assert len(mapped.ranks) < len(circuit._full_plan.ranks) / 1.5
        assert max(map(_depth, circuit._cut_structures)) >= 3
        _both_plans(netlist, seed)


# ---------------------------------------------------------------------------
# SoC lockstep on the LP430
# ---------------------------------------------------------------------------
LOCKSTEP_CYCLES = 400


@pytest.fixture(scope="module")
def reference_cpu():
    return ReferenceCircuit(build_cpu())


def _soc_lockstep(name, reference_cpu):
    program = _program(name)
    fused = GateRunner(compiled_cpu(), program)
    reference = GateRunner(reference_cpu, program)
    circuit, full = fused.soc.circuit, fused.soc.circuit._full_plan
    assert circuit.pass_plan(fused.soc.state, full) is full.mapped
    nets = root_nets(circuit)
    for cycle in range(LOCKSTEP_CYCLES):
        fused.step()
        reference.step()
        assert np.array_equal(
            fused.soc.state.codes[nets], reference.soc.state.codes[nets]
        ), f"{name}: root codes diverged at cycle {cycle}"


class TestSoCLockstep:
    """Cycle-by-cycle codes equality on the Table 1 workloads."""

    @pytest.mark.parametrize("name", TABLE2_VIOLATORS)
    def test_codes_bit_identical(self, name, reference_cpu):
        _soc_lockstep(name, reference_cpu)

    def test_codes_bit_identical_nonforking(self, reference_cpu):
        _soc_lockstep("mult", reference_cpu)


class TestLP430Mapping:
    def test_rank_counts(self):
        circuit = compiled_cpu()
        cone = circuit.cone_plan(["pmem_addr", "dmem_addr", "dmem_ren"])
        read = circuit.fanout_plan(["dmem_rdata"])
        assert len(circuit._full_plan.ranks) == 65
        assert len(circuit._full_plan.mapped.ranks) <= 32
        assert len(cone.mapped.ranks) <= 22
        assert len(read.mapped.ranks) <= 3
        assert len(circuit._cut_structures) > 0

    def test_named_reads_are_roots(self):
        """``GateRunner.read_named`` reads register nets and the SoC
        reads output ports; a cut-mapped pass keeps all of them fresh."""
        circuit = compiled_cpu()
        roots = set(root_nets(circuit).tolist())
        registers = [
            net
            for net, name in enumerate(circuit.netlist.net_names)
            if name.startswith("rf/")
        ]
        assert len(registers) == 208
        assert set(registers) <= set(circuit.dff_nets().tolist())
        for port in circuit.netlist.outputs:
            assert set(port.nets) <= roots, port.name


class TestAnalysisEquivalence:
    """A plain analysis runs the cut-mapped plan; one whose passes all
    run the per-gate plan must agree with it in every part of a full
    analysis."""

    @pytest.mark.parametrize("name", TABLE2_VIOLATORS)
    def test_verdict_violations_report(self, name, monkeypatch):
        plain = TaintTracker(_program(name), circuit=compiled_cpu()).run()
        monkeypatch.setattr(
            CompiledCircuit, "pass_plan", lambda self, state, plan: plan
        )
        per_gate = TaintTracker(_program(name), circuit=compiled_cpu()).run()
        assert per_gate.verdict == plain.verdict
        assert list(per_gate.violations) == list(plain.violations)
        assert per_gate.stats.paths == plain.stats.paths
        assert per_gate.stats.forks == plain.stats.forks
        assert per_gate.stats.merges == plain.stats.merges
        assert per_gate.stats.cycles_simulated == plain.stats.cycles_simulated
        assert _normalize(per_gate.report()) == _normalize(plain.report())
