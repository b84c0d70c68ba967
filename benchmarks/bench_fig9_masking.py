"""Figure 9 / Section 5.3: the software masked-addressing micro-benchmark.

"We observe during information flow tracking that the entire memory space
becomes tainted ... When instructions are inserted that guarantee that
the unknown address is bounded to the tainted task's region in data
memory, then the result of information flow tracking indicates that no
untainted memory locations can be tainted."
"""

from repro import memmap
from repro.core import TaintTracker
from repro.core.labels import SecurityPolicy
from repro.isa.assembler import assemble
from repro.sim.runner import GateRunner
from repro.cpu import compiled_cpu
from repro.workloads import micro


def analyse_both():
    unmasked = TaintTracker(assemble(micro.FIG9_UNMASKED, name="fig9")).run()
    masked = TaintTracker(assemble(micro.FIG9_MASKED, name="fig9m")).run()
    return unmasked, masked


def taint_footprints():
    """Raw gate-level runs measuring which RAM words get tainted."""
    footprints = {}
    for label, source in (
        ("unmasked", micro.FIG9_UNMASKED),
        ("masked", micro.FIG9_MASKED),
    ):
        runner = GateRunner(compiled_cpu(), assemble(source, name=label))
        runner.run(max_cycles=400)
        ram = runner.soc.space.ram
        footprints[label] = (
            ram.region_taint_count(memmap.RAM_BASE, memmap.TAINTED_RAM_BASE),
            ram.region_taint_count(
                memmap.TAINTED_RAM_BASE, memmap.TAINTED_RAM_END
            ),
            ram.region_taint_count(memmap.TAINTED_RAM_END, memmap.RAM_END),
        )
    return footprints


def test_fig9_memory_masking(timed, bench_json):
    unmasked, masked = timed(analyse_both)

    assert 2 in unmasked.violated_conditions()
    assert 2 not in masked.violated_conditions()

    footprints = taint_footprints()
    below, inside, above = footprints["unmasked"]
    assert below > 0 and above > 0  # the whole data memory gets tainted
    below, inside, above = footprints["masked"]
    assert below == 0 and above == 0  # confined to 0x0400..0x07FF
    assert inside > 0

    cycles = (
        unmasked.stats.cycles_simulated + masked.stats.cycles_simulated
    )
    bench_json(
        "fig9_masking",
        {"footprints": footprints, "cycles": cycles},
        wall_seconds=timed.seconds,
        cycles_per_second=cycles / timed.seconds if timed.seconds else None,
    )
    print()
    print("Figure 9 tainted-word footprint (below / inside / above the "
          "tainted partition):")
    for label, counts in footprints.items():
        print(f"  {label:9s} {counts}")
