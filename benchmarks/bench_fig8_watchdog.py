"""Figure 8 / Section 5.3: the untainted-timer-reset micro-benchmark.

"Consider the left-hand code listing in Figure 8 ... once the PC becomes
tainted, it never becomes untainted again.  However, if the watchdog timer
is set using untainted code, each execution of the untainted code section
has a trusted PC."
"""

from repro.core import TaintTracker
from repro.isa.assembler import assemble
from repro.workloads import micro


def analyse_both():
    unprotected = TaintTracker(
        assemble(micro.FIG8_UNPROTECTED, name="fig8")
    ).run()
    protected = TaintTracker(
        assemble(micro.FIG8_PROTECTED, name="fig8p")
    ).run()
    return unprotected, protected


def test_fig8_watchdog_reset(timed, bench_json):
    unprotected, protected = timed(analyse_both)

    assert not unprotected.secure
    assert 1 in unprotected.violated_conditions()

    assert protected.secure
    # the tainted control flow is still *present* (advisory), but the
    # watchdog's untainted reset makes it harmless
    assert protected.tasks_needing_watchdog() == ["tainted_code"]
    assert protected.stats.fast_forwarded_cycles > 0

    cycles = (
        unprotected.stats.cycles_simulated
        + protected.stats.cycles_simulated
    )
    bench_json(
        "fig8_watchdog",
        {
            "unprotected_secure": unprotected.secure,
            "protected_secure": protected.secure,
            "cycles": cycles,
        },
        wall_seconds=timed.seconds,
        cycles_per_second=cycles / timed.seconds if timed.seconds else None,
    )
    print()
    print("Figure 8 unprotected:", unprotected.report().splitlines()[2])
    print("Figure 8 protected:  ", protected.report().splitlines()[2])
