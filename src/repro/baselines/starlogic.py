"""The *-logic style baseline (footnote 8).

*-logic [19] statically tracks taints but was built for applications with
no control dependence on unknown, tainted inputs.  "Directly applying a
*-logic analysis on commodity hardware to an application where the PC
becomes unknown and tainted results in most of the gates in the hardware
also becoming unknown and tainted, since most gates are impacted by the
PC ... 70% of the gates in MSP430 becoming unknown and tainted, even those
required by the software techniques to remain untainted (e.g., the
watchdog timer)."

This module reproduces that behaviour by running the same gate-level
simulation **without** Algorithm 1's PC concretisation: when an X reaches
the PC, simulation simply continues -- the unknown program counter merges
the entire program memory into the fetch stream, decode collapses, and the
taint fraction across the netlist is measured every cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.labels import SecurityPolicy, default_policy
from repro.cpu import compiled_cpu
from repro.isa.program import Program
from repro.sim.compiled import CompiledCircuit
from repro.sim.runner import GateRunner
from repro.sim.soc import AddressSpace


@dataclass
class StarLogicResult:
    """Outcome of a *-logic style run."""

    cycles: int
    #: peak fraction of netlist bits that are simultaneously unknown AND
    #: tainted (the footnote-8 "70% of gates" number)
    peak_unknown_tainted_fraction: float
    peak_tainted_fraction: float
    #: cycle at which the PC first became unknown (None: never)
    pc_lost_at: Optional[int]
    #: whether the watchdog's state was still verifiably untainted at the
    #: end -- the property the paper's software techniques need
    watchdog_verifiable: bool

    def report(self) -> str:
        lines = [
            f"*-logic style analysis over {self.cycles} cycles:",
            f"  peak unknown+tainted net fraction: "
            f"{self.peak_unknown_tainted_fraction:.0%}",
            f"  peak tainted net fraction:         "
            f"{self.peak_tainted_fraction:.0%}",
        ]
        if self.pc_lost_at is not None:
            lines.append(
                f"  PC became unknown+tainted at cycle {self.pc_lost_at}"
            )
        lines.append(
            "  watchdog verifiably untainted: "
            + ("yes" if self.watchdog_verifiable else "NO")
        )
        return "\n".join(lines)


def star_logic_analysis(
    program: Program,
    policy: Optional[SecurityPolicy] = None,
    cycles: int = 600,
    circuit: Optional[CompiledCircuit] = None,
) -> StarLogicResult:
    """Run the no-concretisation analysis for *cycles* cycles."""
    if policy is None:
        policy = default_policy()
    if circuit is None:
        circuit = compiled_cpu()
    space = AddressSpace(
        tainted_input_ports=tuple(policy.tainted_input_ports),
        tainted_output_ports=tuple(policy.tainted_output_ports),
    )
    runner = GateRunner(circuit, program, space=space)
    # The fractions below read every net, not just the cut roots.
    runner.soc.state.every_net = True
    for region in policy.tainted_memory:
        space.ram.taint_region(region.low, region.high)

    import numpy as np

    peak_ut = 0.0
    peak_t = 0.0
    pc_lost_at: Optional[int] = None
    soc = runner.soc
    for _ in range(cycles):
        soc.step()
        # Measure over the evaluated codes (values+taints of every net).
        codes = soc.state.codes
        tainted = (codes & 1) == 1
        unknown = codes >= 4
        fraction_ut = float(np.mean(tainted & unknown))
        fraction_t = float(np.mean(tainted))
        peak_ut = max(peak_ut, fraction_ut)
        peak_t = max(peak_t, fraction_t)
        if pc_lost_at is None:
            pc_word = soc.pc()
            if pc_word.xmask and pc_word.tmask:
                pc_lost_at = soc.cycle
    watchdog = soc.space.watchdog
    watchdog_verifiable = (
        not watchdog.corrupted and watchdog.control.tmask == 0
    )
    return StarLogicResult(
        cycles=cycles,
        peak_unknown_tainted_fraction=peak_ut,
        peak_tainted_fraction=peak_t,
        pc_lost_at=pc_lost_at,
        watchdog_verifiable=watchdog_verifiable,
    )
