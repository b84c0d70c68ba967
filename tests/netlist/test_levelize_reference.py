"""The index-based levelizer against the frozen ``id()``-keyed one.

Levels must hold the same gate objects in the same order (the compiled
simulator numbers gates, and so provenance edges, in that order), and a
netlist with a combinational cycle must report the same stuck gates.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import compiled_cpu
from repro.netlist.cells import CELL_LIBRARY
from repro.netlist.levelize import CombinationalCycleError, levelize
from repro.netlist.netlist import Gate, Netlist

from tests.netlist.levelize_reference import reference_levelize

COMBINATIONAL = sorted(
    name for name, spec in CELL_LIBRARY.items() if not spec.sequential
)


def _outcome(function, netlist):
    """Levels as gate identities, or the stuck gates' identities."""
    try:
        levels = function(netlist)
    except CombinationalCycleError as error:
        return "cycle", [id(gate) for gate in error.gates]
    return "levels", [[id(gate) for gate in level] for level in levels]


@st.composite
def netlists(draw):
    """Random netlists: input ports and flip-flops as sources, tie
    cells, gates reading any net (so undriven inputs, feedback loops and
    nets two gates write all occur), in a shuffled gate order."""
    num_nets = draw(st.integers(1, 24))
    netlist = Netlist()
    nets = netlist.add_nets(num_nets)
    net = st.sampled_from(nets)
    inputs = draw(st.lists(net, max_size=4, unique=True))
    if inputs:
        netlist.add_input("in", inputs)
    for q in draw(st.lists(net, max_size=3, unique=True)):
        netlist.add_dff(q, draw(net))
    gates = []
    for index in range(draw(st.integers(0, 30))):
        cell_type = draw(st.sampled_from(COMBINATIONAL))
        arity = CELL_LIBRARY[cell_type].arity
        gates.append(
            Gate(
                cell_type,
                tuple(draw(net) for _ in range(arity)),
                draw(net),
                f"g{index}",
            )
        )
    netlist.gates = draw(st.permutations(gates))
    return netlist


@settings(max_examples=300, deadline=None)
@given(netlists())
def test_matches_the_reference(netlist):
    assert _outcome(levelize, netlist) == _outcome(
        reference_levelize, netlist
    )


def test_cycles_occur_in_the_property():
    """The strategy reaches both outcomes, so the property covers the
    stuck-gate report as well as the levels."""
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(netlists())
    def record(netlist):
        seen.add(_outcome(levelize, netlist)[0])

    record()
    assert seen == {"levels", "cycle"}


def test_lp430_levels_and_gate_order_are_unchanged():
    circuit = compiled_cpu()
    netlist = circuit.netlist
    reference = reference_levelize(netlist)
    assert _outcome(levelize, netlist) == _outcome(
        reference_levelize, netlist
    )
    expected = [
        gate
        for level in reference[1:]
        for gate in sorted(level, key=lambda gate: gate.cell_type)
    ]
    assert len(circuit._gates) == len(expected)
    assert all(a is b for a, b in zip(circuit._gates, expected))
