"""Topological levelisation of a netlist's combinational core.

The compiled simulator evaluates gates level by level: a gate's level is one
more than the maximum level of its input drivers, with input ports, DFF
outputs and tie cells at level 0.  A gate that cannot be levelised sits on a
combinational cycle, which is a design error this module diagnoses.
"""

from __future__ import annotations

from collections import defaultdict, deque
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
    initialise constants before anything else.
    """
    level_of_net: Dict[int, int] = {}
    for port in netlist.inputs:
        for net in port.nets:
            level_of_net[net] = 0
    for dff in netlist.dffs:
        level_of_net[dff.q] = 0

    constants: List[Gate] = []
    pending: List[Gate] = []
    consumers: Dict[int, List[Gate]] = defaultdict(list)
    missing_inputs: Dict[int, int] = {}

    for index, gate in enumerate(netlist.gates):
        if gate.cell_type in CONSTANT_CELLS:
            constants.append(gate)
            level_of_net[gate.output] = 0
            continue
        pending.append(gate)
        missing_inputs[id(gate)] = 0

    # Count unresolved inputs, then Kahn's algorithm.
    ready: deque = deque()
    for gate in pending:
        unresolved = sum(1 for net in gate.inputs if net not in level_of_net)
        missing_inputs[id(gate)] = unresolved
        for net in gate.inputs:
            if net not in level_of_net:
                consumers[net].append(gate)
        if unresolved == 0:
            ready.append(gate)

    levels: Dict[int, List[Gate]] = defaultdict(list)
    placed = 0
    while ready:
        gate = ready.popleft()
        level = 1 + max(
            (level_of_net[net] for net in gate.inputs), default=0
        )
        levels[level].append(gate)
        placed += 1
        if gate.output not in level_of_net:
            level_of_net[gate.output] = level
            for consumer in consumers[gate.output]:
                missing_inputs[id(consumer)] -= 1
                if missing_inputs[id(consumer)] == 0:
                    ready.append(consumer)

    if placed != len(pending):
        stuck = [g for g in pending if missing_inputs[id(g)] > 0]
        raise CombinationalCycleError(stuck)

    ordered = [constants]
    for level in sorted(levels):
        ordered.append(levels[level])
    return ordered
