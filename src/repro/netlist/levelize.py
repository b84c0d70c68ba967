"""Topological levelisation of a netlist's combinational core.

The compiled simulator evaluates gates level by level: a gate's level is one
more than the maximum level of its input drivers, with input ports, DFF
outputs and tie cells at level 0.  A gate that cannot be levelised sits on a
combinational cycle, which is a design error this module diagnoses.
"""

from __future__ import annotations

from typing import Dict, List

from repro.netlist.cells import CONSTANT_CELLS
from repro.netlist.netlist import Gate, Netlist


class CombinationalCycleError(Exception):
    """Raised when the netlist contains a combinational feedback loop."""

    def __init__(self, gates: List[Gate]):
        self.gates = gates
        names = ", ".join(g.name or g.cell_type for g in gates[:8])
        more = "..." if len(gates) > 8 else ""
        super().__init__(
            f"combinational cycle through {len(gates)} gates: {names}{more}"
        )


def levelize(netlist: Netlist) -> List[List[Gate]]:
    """Return gates grouped into evaluation levels (level 1 first).

    Tie cells are placed in level 0's group (index 0) so the simulator can
    initialise constants before anything else.  Within a level, gates
    keep the order Kahn's algorithm places them in: first-in first-out,
    starting from the netlist order of the gates whose inputs are all
    sources.  Net ids index ``netlist.net_names``.
    """
    gates = netlist.gates
    #: each net's level, -1 until the gate that sets it is placed
    level_of = [-1] * len(netlist.net_names)
    for port in netlist.inputs:
        for net in port.nets:
            level_of[net] = 0
    for dff in netlist.dffs:
        level_of[dff.q] = 0
    constants: List[Gate] = []
    for gate in gates:
        if gate.cell_type in CONSTANT_CELLS:
            constants.append(gate)
            level_of[gate.output] = 0

    # Count each gate's unresolved inputs, then Kahn's algorithm over
    # gate indices; ``ready`` is the queue, read as it grows.
    missing = [0] * len(gates)
    consumers: Dict[int, List[int]] = {}
    ready: List[int] = []
    pending = 0
    for index, gate in enumerate(gates):
        if gate.cell_type in CONSTANT_CELLS:
            continue
        pending += 1
        unresolved = 0
        for net in gate.inputs:
            if level_of[net] < 0:
                unresolved += 1
                if net in consumers:
                    consumers[net].append(index)
                else:
                    consumers[net] = [index]
        if unresolved:
            missing[index] = unresolved
        else:
            ready.append(index)

    # A gate's level is at most one past the deepest level placed so
    # far, so the levels fill in order and none is left empty.
    ordered: List[List[Gate]] = [constants]
    for index in ready:
        gate = gates[index]
        level = 0
        for net in gate.inputs:
            if level_of[net] > level:
                level = level_of[net]
        level += 1
        if level == len(ordered):
            ordered.append([gate])
        else:
            ordered[level].append(gate)
        output = gate.output
        if level_of[output] < 0:
            level_of[output] = level
            for consumer in consumers.get(output, ()):
                missing[consumer] -= 1
                if not missing[consumer]:
                    ready.append(consumer)

    if len(ready) != pending:
        raise CombinationalCycleError(
            [gate for gate, count in zip(gates, missing) if count]
        )
    return ordered
