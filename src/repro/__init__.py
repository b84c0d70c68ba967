"""repro -- Software-based gate-level information flow security for IoT.

A from-scratch reproduction of Cherupalli et al., "Software-based Gate-level
Information Flow Security for IoT Systems" (MICRO 2017).

The package is organised bottom-up (see ``DESIGN.md``):

* :mod:`repro.logic`    -- ternary logic + GLIFT taint algebra.
* :mod:`repro.netlist`  -- gate-level netlist IR, circuit builder, Verilog IO.
* :mod:`repro.sim`      -- vectorised gate-level GLIFT simulator + SoC models.
* :mod:`repro.isa`      -- the LP430 ISA, assembler, disassembler.
* :mod:`repro.cpu`      -- the gate-level LP430 microcontroller.
* :mod:`repro.isasim`   -- architectural ternary+taint golden simulator.
* :mod:`repro.core`     -- the paper's contribution: input-independent
  gate-level taint tracking, policy checking, sufficient conditions.
* :mod:`repro.transform`-- root-cause identification + software repairs.
* :mod:`repro.baselines`-- *-logic and always-on comparison points.
* :mod:`repro.rtos`     -- MiniRTOS scheduler (Section 7.3 use case).
* :mod:`repro.workloads`-- Table 1 benchmarks in LP430 assembly.
* :mod:`repro.eval`     -- regeneration of every table and figure.
"""

from importlib import import_module

__version__ = "1.0.0"


def lazy_exports(package: str, exports: dict):
    """A package's PEP 562 ``__getattr__`` and ``__dir__`` re-exporting
    *exports*, each public name mapped to the submodule it comes from
    (or to ``(submodule, attribute)`` for a renamed one).

    A name's submodule is imported on its first lookup, so importing
    the package imports none of them.  The value is read from the
    submodule on every lookup and never cached in the package, so a
    binding patched on the submodule is what the package hands out.
    """

    def __getattr__(name: str):
        try:
            where = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module, attribute = (
            where if isinstance(where, tuple) else (where, name)
        )
        return getattr(import_module(f"{package}.{module}"), attribute)

    def __dir__():
        return sorted(set(vars(import_module(package))) | set(exports))

    return __getattr__, __dir__
