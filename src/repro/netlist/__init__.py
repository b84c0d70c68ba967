"""Gate-level netlist intermediate representation.

The paper's toolflow consumes "the processor's gate-level netlist".  This
package provides that substrate:

* :mod:`repro.netlist.cells`    -- the standard-cell library (combinational
  gates from :mod:`repro.logic.glift` plus ``DFF`` and tie cells).
* :mod:`repro.netlist.netlist`  -- the flat netlist graph (nets, gates,
  flip-flops, ports) with structural validation.
* :mod:`repro.netlist.levelize` -- topological levelisation used by the
  compiled simulator; detects combinational cycles.
* :mod:`repro.netlist.builder`  -- a small word-level construction DSL (a
  "mini-HDL") used to build the LP430 processor out of library gates.
* :mod:`repro.netlist.verilog`  -- structural-Verilog writer and parser for
  the same subset, so netlists can round-trip through text like a synthesis
  flow's output would.
* :mod:`repro.netlist.stats`    -- cell counts, unit-area and depth reports.
"""

from repro import lazy_exports
from repro.netlist.levelize import CombinationalCycleError, levelize

#: Each re-exported name and the submodule it is imported from on first
#: use (see :func:`repro.lazy_exports`): compiling the LP430 loads
#: neither the Verilog reader/writer nor the statistics report.
#: ``levelize`` is imported eagerly because it is also a submodule's
#: name, which importing that submodule would bind here instead.
__getattr__, __dir__ = lazy_exports(__name__, {
    "CELL_LIBRARY": "cells",
    "CellSpec": "cells",
    "DFF": "netlist",
    "Gate": "netlist",
    "Netlist": "netlist",
    "NetlistError": "netlist",
    "CircuitBuilder": "builder",
    "Sig": "builder",
    "parse_verilog": "verilog",
    "write_verilog": "verilog",
    "netlist_stats": "stats",
})

__all__ = [
    "CELL_LIBRARY",
    "CellSpec",
    "Netlist",
    "NetlistError",
    "Gate",
    "DFF",
    "CircuitBuilder",
    "Sig",
    "levelize",
    "CombinationalCycleError",
    "parse_verilog",
    "write_verilog",
    "netlist_stats",
]
