"""The compiled evaluator against the reference GLIFT semantics.

:class:`CompiledCircuit` evaluates each rank with one hashed table
lookup, over one of two plans of cuts of up to five inputs: the
cut-mapped plan, which writes only cut roots, and the every-net plan,
which gives each gate-driven net its own cut.  These tests hold both, bit for bit, to an
independent reference: a per-gate walk
over ``levelize(netlist)`` that calls
:func:`repro.logic.glift.glift_eval` for every gate.  The reference
shares nothing with the kernel -- no tables, no cuts, no gate keys or
suffix words, no modulus, no padded inputs -- so a wrong suffix word, a
colliding modulus, a bad broadcast, a misordered rank or a mis-tabulated
cut shows up as a code mismatch.  An every-net pass is compared on
every net; a cut-mapped pass on every net it keeps fresh
(:func:`root_nets`).

* Random netlists: seeded random DAGs over all 16 combinational cell
  types (arity 1-4), shallow and deep, each mapped with 5-leaf cuts, in
  both taint modes and both plans, compared after every cone-plan pass,
  full pass and clock edge;
  a pair pass from the same codes must leave its row 0 as the full pass
  and its row 1 as the cone pass left every net.
* SoC lockstep: the compiled LP430 (cut-mapped, as analyses run it)
  against a reference-evaluated copy, cycle by cycle, on every forking
  Table 1 workload and one clean one.
* LP430 mapping: rank counts (24 mapped, 24 every-net), 5-leaf cuts
  among the mapped rows, every net read by name is a root, and
  each plan's per-type gate-eval counts equal the gates ``levelize``
  and the reference's cone and fanout closures give it.
* Analysis equivalence: an analysis forced onto per-gate ranks
  (:func:`per_gate_ranks`) equals a plain one (cut-mapped plan) on every
  Table 2 violator.
* Recording equivalence: provenance edges, flow slices and timeline
  frames recorded on the every-net plan equal those recorded with every
  pass -- a recording step's two-row pair pass included
  (:func:`per_gate_pair_ranks`) -- forced onto per-gate ranks, on every
  Table 2 violator.
"""

import hashlib
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
from repro.obs import Instruments, Observer
from repro.obs.provenance import ProvenanceRecorder, explain_violation
from repro.sim.compiled import (
    CELL_TYPES,
    CODE_0,
    CODE_1,
    KEY_BYTES,
    MAX_ARITY,
    SUFFIX_BYTES,
    CompiledCircuit,
    code_of,
)
from repro.sim.soc import INTERFACE_PORTS
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


def _level_rank(circuit, level, nets=None, shift=0):
    """One per-gate rank keyed on *circuit*'s own table: the gates of a
    ``levelize`` *level* (those driving *nets*, if given) sorted by cell
    type, one row per gate, every index *shift* bytes on; ``None`` when
    no gate is left.  Cell type *i* of ``CELL_TYPES`` is function *i*
    of the table, so a row's key is its inputs padded with input 0,
    then that function's suffix bytes past the nets.  A rank is
    ``(outputs, columns)``, as the kernel reads it."""
    gates = sorted(
        (gate for gate in level if nets is None or gate.output in nets),
        key=lambda gate: gate.cell_type,
    )
    if not gates:
        return None
    columns = [
        gate.inputs
        + gate.inputs[:1] * (MAX_ARITY - len(gate.inputs))
        + tuple(
            circuit.num_nets
            + SUFFIX_BYTES * CELL_TYPES.index(gate.cell_type)
            + byte
            for byte in range(SUFFIX_BYTES)
        )
        for gate in gates
    ]
    return (
        np.array([gate.output for gate in gates], dtype=np.int64) + shift,
        np.array(columns, dtype=np.int64).ravel() + shift,
    )


def per_gate_ranks(circuit, nets=None):
    """Per-gate ranks: each level of ``levelize`` one rank
    (:func:`_level_rank`), levels without a gate in *nets* left out."""
    ranks = [
        _level_rank(circuit, level, nets)
        for level in levelize(circuit.netlist)[1:]
    ]
    return [rank for rank in ranks if rank is not None]


def per_gate_pair_ranks(circuit, cone):
    """Per-gate ranks of a pair pass: each level's gates on row 0, then
    its gates in *cone* on row 1, one ``circuit.stride`` on."""
    ranks = []
    for level in levelize(circuit.netlist)[1:]:
        rank = _level_rank(circuit, level)
        shifted = _level_rank(circuit, level, cone, circuit.stride)
        if shifted is not None:
            rank = tuple(np.concatenate(part) for part in zip(rank, shifted))
        ranks.append(rank)
    return ranks


def plan_ranks(circuit, plan):
    """Per-gate ranks of *plan*, from the reference alone: over every
    gate for the full plan, over the gates of the reference's cone or
    fanout closure for a cone or fanout plan, and both rows of a pair
    plan."""
    if plan is circuit._full_plan:
        return per_gate_ranks(circuit)
    (kind, ports), = [
        key for key, subplan in circuit._subplans.items() if subplan is plan
    ]
    reference = Reference(circuit.netlist)
    if kind == "pair":
        return per_gate_pair_ranks(circuit, reference.cone(ports))
    return per_gate_ranks(circuit, (
        reference.cone(ports) if kind == "cone" else reference.fanout(ports)
    ))


def root_nets(circuit):
    """Every net a cut-mapped pass keeps fresh: the cut roots, the
    flip-flop Qs and the port nets."""
    netlist = circuit.netlist
    nets = [rank.outputs for rank in circuit._full_plan.mapped]
    nets.append(circuit.dff_nets())
    nets.extend(
        np.array(port.nets) for port in netlist.inputs + netlist.outputs
    )
    return np.unique(np.concatenate(nets))


def five_leaf_rows(circuit, ranks):
    """Rows of *ranks* whose function reads all :data:`MAX_ARITY` key
    bytes: 5-leaf cuts, which no library cell type is."""
    functions = np.concatenate([
        rank.columns.reshape(-1, KEY_BYTES)[:, MAX_ARITY] for rank in ranks
    ]) % circuit.stride - circuit.num_nets
    return int(
        (circuit._arities[functions // SUFFIX_BYTES] == MAX_ARITY).sum()
    )


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
    the every-net plan (*every_net*), every root net for the cut-mapped
    plan."""
    reference = Reference(netlist, circuit.taint_mode)
    cone, reference_cone = circuit.cone_plan(["out"]), reference.cone(["out"])
    state, expected = circuit.new_state(), circuit.new_state()
    state.every_net = every_net
    full = circuit._full_plan
    assert circuit.pass_plan(state, full) is (
        full.every if every_net else full.mapped
    )
    assert circuit.pass_plan(state, cone) is (
        cone.every if every_net else cone.mapped
    )
    nets = slice(None) if every_net else root_nets(circuit)
    pair_plan = circuit.pair_plan(["out"])
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
        # One pair pass from the same codes: a full pass on row 0, the
        # cone pass on row 1.
        pair = circuit.recording_rows(state.copy(), ["out"]).pair
        circuit.eval_plan(pair, pair_plan)
        rows = pair.buffer.reshape(2, circuit.stride)[:, :circuit.num_nets]
        circuit.eval_plan(state, cone)
        reference.evaluate(expected.codes, nets=reference_cone)
        assert np.array_equal(state.codes[nets], expected.codes[nets]), (
            f"seed {seed} ({circuit.taint_mode}): cone pass diverged, "
            f"cycle {cycle}"
        )
        assert np.array_equal(rows[1][nets], expected.codes[nets]), (
            f"seed {seed} ({circuit.taint_mode}): pair pass row 1 "
            f"diverged, cycle {cycle}"
        )
        circuit.eval_combinational(state)
        reference.evaluate(expected.codes)
        assert np.array_equal(state.codes[nets], expected.codes[nets]), (
            f"seed {seed} ({circuit.taint_mode}): full pass diverged, "
            f"cycle {cycle}"
        )
        assert np.array_equal(rows[0][nets], expected.codes[nets]), (
            f"seed {seed} ({circuit.taint_mode}): pair pass row 0 "
            f"diverged, cycle {cycle}"
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
        assert five_leaf_rows(circuit, circuit._full_plan.every) > 0
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
        full = circuit._full_plan
        levels = len(per_gate_ranks(circuit))
        assert len(full.mapped) < levels / 1.5
        assert len(full.every) < levels / 1.5
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
        full = circuit._full_plan
        assert len(per_gate_ranks(circuit)) == 65
        assert len(full.mapped) == 24
        assert len(full.every) == 24
        assert len(cone.mapped) <= 16
        assert len(cone.every) <= 16
        assert len(read.mapped) <= 2
        assert len(circuit._cut_structures) > 0
        assert sum(len(rank.outputs) for rank in full.mapped) == 1887
        assert len(circuit._arities) == 138
        assert five_leaf_rows(circuit, full.mapped) > 0

    def test_mapped_ranks_are_every_net_prefixes(self):
        """Each mapped rank is the cover prefix of the every-net rank of
        its depth, as views: the mapped plan holds no arrays of its
        own."""
        full = compiled_cpu()._full_plan
        prefixes = []
        for every in full.every:
            for rank in full.mapped:
                if np.shares_memory(rank.columns, every.columns):
                    count = len(rank.outputs)
                    assert np.array_equal(rank.outputs, every.outputs[:count])
                    assert np.array_equal(
                        rank.columns, every.columns[:len(rank.columns)]
                    )
                    prefixes.append(id(rank))
        assert prefixes == [id(rank) for rank in full.mapped]

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

    @pytest.mark.parametrize("kind", ["full", "cone", "fanout", "pair"])
    def test_gate_eval_counts(self, kind):
        """One pass over each plan adds, per cell type, the gates the
        reference gives it: every gate ``levelize`` ranks, the gates of
        the memory interface's cone, those of ``dmem_rdata``'s fanout,
        or, for the pair plan, every gate and then the cone's."""
        circuit = compiled_cpu()
        reference = Reference(circuit.netlist)
        cone = reference.cone(INTERFACE_PORTS)
        plan, row_nets, total = {
            "full": (circuit._full_plan, [None], 2650),
            "cone": (circuit.cone_plan(INTERFACE_PORTS), [cone], 858),
            "fanout": (
                circuit.fanout_plan(["dmem_rdata"]),
                [reference.fanout(["dmem_rdata"])],
                80,
            ),
            "pair": (circuit.pair_plan(INTERFACE_PORTS), [None, cone], 3508),
        }[kind]
        expected = {"sim.gate_evals": 0}
        for nets in row_nets:
            for gate in reference.gates:
                if nets is None or gate.output in nets:
                    key = f"sim.gate_evals.{gate.cell_type}"
                    expected[key] = expected.get(key, 0) + 1
                    expected["sim.gate_evals"] += 1
        observer = Observer()
        state = circuit.new_state()
        if kind == "pair":
            state = circuit.recording_rows(state, INTERFACE_PORTS).pair
        state.instruments = Instruments(observer)
        circuit.eval_plan(state, plan)
        counters = observer.snapshot()["metrics"]["counters"]
        assert {
            name: value
            for name, value in counters.items()
            if name.startswith("sim.gate_evals")
        } == expected
        assert expected["sim.gate_evals"] == total


class TestAnalysisEquivalence:
    """A plain analysis runs the cut-mapped plan; one whose passes all
    run the per-gate plan must agree with it in every part of a full
    analysis."""

    @pytest.mark.parametrize("name", TABLE2_VIOLATORS)
    def test_verdict_violations_report(self, name, monkeypatch):
        plain = TaintTracker(_program(name), circuit=compiled_cpu()).run()
        _per_gate_passes(monkeypatch)
        per_gate = TaintTracker(_program(name), circuit=compiled_cpu()).run()
        assert per_gate.verdict == plain.verdict
        assert list(per_gate.violations) == list(plain.violations)
        assert per_gate.stats.paths == plain.stats.paths
        assert per_gate.stats.forks == plain.stats.forks
        assert per_gate.stats.merges == plain.stats.merges
        assert per_gate.stats.cycles_simulated == plain.stats.cycles_simulated
        assert _normalize(per_gate.report()) == _normalize(plain.report())


# ---------------------------------------------------------------------------
# Recording on the every-net plan
# ---------------------------------------------------------------------------
def _per_gate_passes(monkeypatch):
    """Force every pass onto the per-gate ranks of :func:`plan_ranks`;
    returns them by plan, as passes ask for them."""
    ranks = {}

    def pass_plan(self, state, plan):
        if plan not in ranks:
            ranks[plan] = plan_ranks(self, plan)
        return ranks[plan]

    monkeypatch.setattr(CompiledCircuit, "pass_plan", pass_plan)
    return ranks


def _slice_rows(flow):
    return (
        [(e.src, e.dst, e.cycle, e.kind) for e in flow.edges],
        [(leaf.node, leaf.name, leaf.cycle, leaf.labelled)
         for leaf in flow.leaves],
        flow.truncated,
    )


def _provenance(name):
    """``(recorded rows, flow slices)`` of a provenance-recording
    analysis of *name*."""
    recorder = ProvenanceRecorder()
    result = TaintTracker(
        _program(name), circuit=compiled_cpu(), provenance=recorder
    ).run()
    state = recorder.export_state()
    rows = {field: state[field] for field in ("src", "dst", "at", "kind")}
    slices = [
        _slice_rows(explain_violation(result, index))
        for index in range(len(result.violations))
    ]
    return rows, slices


class FrameDigests:
    """A timeline hook keeping each frame's cycle and code digest."""

    def __init__(self):
        self.frames = []

    def ensure_bound(self, circuit):
        pass

    def on_step(self, cycle, codes):
        self.frames.append((cycle, hashlib.sha256(codes.tobytes()).digest()))


def _timeline(name):
    frames = FrameDigests()
    TaintTracker(
        _program(name), circuit=compiled_cpu(), timeline=frames
    ).run()
    return frames.frames


class TestRecordingEquivalence:
    """A recording pass runs the every-net plan, which must write every
    net with the code the per-gate ranks give it: the recorded edge
    stream, every violation's flow slice and every timeline frame equal
    those of a run whose passes sweep the per-gate ranks."""

    @pytest.mark.parametrize("name", TABLE2_VIOLATORS)
    def test_provenance_edges_and_slices(self, name, monkeypatch):
        rows, slices = _provenance(name)
        forced = _per_gate_passes(monkeypatch)
        per_gate_rows, per_gate_slices = _provenance(name)
        assert compiled_cpu().pair_plan(INTERFACE_PORTS) in forced
        assert len(rows["src"]) > 0 and slices
        for field, column in rows.items():
            assert np.array_equal(column, per_gate_rows[field]), field
        assert slices == per_gate_slices

    @pytest.mark.parametrize("name", TABLE2_VIOLATORS)
    def test_timeline_frames(self, name, monkeypatch):
        frames = _timeline(name)
        _per_gate_passes(monkeypatch)
        assert frames and frames == _timeline(name)
