#!/usr/bin/env python3
"""The full toolflow on a real benchmark: binSearch from Table 1.

Shows every Figure 10/11 stage: analysis of the unmodified benchmark,
root-cause identification, the automatic rewrites, re-analysis, and the
final verified binary's disassembly.

Run:  python examples/secure_compile_demo.py
"""

from repro.core import TaintTracker
from repro.isa.disasm import disassemble_program
from repro.isasim.executor import run_concrete
from repro.transform import identify_root_causes, secure_compile
from repro.workloads.registry import benchmark


def main() -> None:
    info = benchmark("binSearch")

    print("=" * 72)
    print("analysis of the unmodified benchmark")
    print("=" * 72)
    result = TaintTracker(info.service_program()).run()
    print(result.report())

    print()
    print("=" * 72)
    print("root causes")
    print("=" * 72)
    causes = identify_root_causes(result)
    print(f"stores to mask:    {[hex(a) for a in causes.stores_to_mask]}")
    print(f"tasks to bound:    {causes.tasks_to_bound}")
    print(f"repairable:        {causes.automatic_repair_possible}")

    print()
    print("=" * 72)
    print("secure compile")
    print("=" * 72)
    baseline = run_concrete(
        info.measurement_program(), max_cycles=200_000,
        follow_watchdog=False,
    )
    repaired = secure_compile(
        info.service_source,
        name="binSearch",
        task_cycles={"bench": baseline.cycles},
    )
    print(repaired.diagnostics())
    print()
    print(repaired.analysis.report())

    print()
    print("=" * 72)
    print("verified binary (first 40 lines of the disassembly)")
    print("=" * 72)
    listing = disassemble_program(repaired.program)
    print("\n".join(listing.splitlines()[:40]))


if __name__ == "__main__":
    main()
