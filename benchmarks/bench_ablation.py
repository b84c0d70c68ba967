"""Ablation studies for the design choices DESIGN.md calls out.

Not paper tables -- these quantify *why* the reproduction (and the paper)
is built the way it is:

1. **Value-aware GLIFT vs naive DIFT.**  With value-blind taint
   propagation, a tainted value poisons every mux leg it reaches, so all
   clean benchmarks become false positives -- no application could ever
   be verified on commodity hardware, which is exactly the paper's
   argument for gate-level value-aware tracking.
2. **Exact-visit budget vs pure widening.**  With no exact-exploration
   budget, conservative merging widens bounded untainted loop pointers
   bit by bit until their stores appear to escape the partition -- clean
   kernels turn into false condition-2 violations.
3. **Slice-plan optimisation (Section 7.2).**  The overhead-minimising
   interval/slice choice vs naively bounding every task with one fixed
   interval.
4. **Scratch-register masking preserves functionality.**  The repair must
   not change what the program computes on benign inputs.
"""

from itertools import cycle

from repro.baselines.naive import naive_taint_analysis
from repro.core import TaintTracker
from repro.isasim.executor import run_concrete
from repro.transform import choose_slicing, secure_compile
from repro.transform.slicing import PER_SLICE_OVERHEAD, SlicePlan
from repro.workloads.registry import benchmark


def test_ablation_value_aware_taint(timed, bench_json):
    """Naive DIFT cannot verify any clean application."""
    names = ["mult", "rle", "tea8"]

    def run():
        outcomes = {}
        for name in names:
            program = benchmark(name).service_program()
            glift = TaintTracker(program).run()
            naive = naive_taint_analysis(program)
            outcomes[name] = (glift.secure, naive.secure)
        return outcomes

    outcomes = timed(run)
    bench_json(
        "ablation",
        {
            "study": "value_aware_taint",
            "outcomes": {
                name: {"glift_secure": g, "naive_secure": n}
                for name, (g, n) in outcomes.items()
            },
        },
        wall_seconds=timed.seconds,
    )
    for name, (glift_secure, naive_secure) in outcomes.items():
        assert glift_secure, f"{name} must verify under GLIFT"
        assert not naive_secure, (
            f"{name} should be a false positive under naive taint"
        )
    print()
    print("taint-semantics ablation (secure?):")
    for name, (glift_secure, naive_secure) in outcomes.items():
        print(
            f"  {name:6s}  value-aware GLIFT: {glift_secure}   "
            f"naive DIFT: {naive_secure}"
        )


def test_ablation_exact_visit_budget(once):
    """Pure widening (budget 0) falsely flags bounded untainted loops."""

    def run():
        program = benchmark("mult").service_program()
        exact = TaintTracker(program).run()
        widened = TaintTracker(program, exact_branch_visits=0).run()
        return exact, widened

    exact, widened = once(run)
    assert exact.secure
    assert not widened.secure
    assert 2 in widened.violated_conditions()
    print()
    print(
        "exploration ablation on mult: "
        f"default budget -> secure={exact.secure} "
        f"({exact.stats.cycles_simulated} cycles); "
        f"widening-only -> secure={widened.secure} "
        f"conditions={sorted(widened.violated_conditions())}"
    )


def test_ablation_slice_optimizer(once):
    """The Section 7.2 optimiser vs a fixed one-size interval."""

    def run():
        comparisons = []
        for task_cycles in (100, 700, 3_000, 9_000, 30_000, 120_000):
            optimal = choose_slicing(task_cycles)
            import math

            slices = max(
                1, math.ceil(task_cycles / (8192 - PER_SLICE_OVERHEAD))
            )
            fixed = SlicePlan(8192, 1, slices, task_cycles)
            comparisons.append((task_cycles, optimal, fixed))
        return comparisons

    comparisons = once(run)
    print()
    print("slice-plan ablation (overhead %):")
    for task_cycles, optimal, fixed in comparisons:
        assert optimal.total_cycles <= fixed.total_cycles
        print(
            f"  task {task_cycles:>7d} cyc: optimised "
            f"{100 * optimal.overhead_fraction:6.1f}%  "
            f"(interval {optimal.interval} x {optimal.slices})   "
            f"fixed-8192 {100 * fixed.overhead_fraction:6.1f}%"
        )


def test_ablation_masking_preserves_function(once):
    """The repaired binSearch still finds the key."""

    def run():
        info = benchmark("binSearch")
        inputs = cycle([23])  # table[5]
        baseline = run_concrete(
            info.measurement_program(),
            inputs=lambda port: next(inputs),
            follow_watchdog=False,
        )
        repaired = secure_compile(
            info.service_source,
            name="binSearch",
            task_cycles={"bench": baseline.cycles},
        )
        inputs2 = cycle([23])
        protected = run_concrete(
            repaired.program,
            inputs=lambda port: next(inputs2),
            max_cycles=200_000,
            stop=lambda r: r.writes_to("P2OUT") >= 1,
        )
        return baseline, protected

    baseline, protected = once(run)
    base_out = baseline.port_writes[-1][1].value
    prot_out = next(
        w.value for p, w in protected.port_writes if p == "P2OUT"
    )
    assert base_out == prot_out == 5
    print()
    print(
        f"masking-functionality ablation: baseline finds index "
        f"{base_out}, repaired binary finds {prot_out}"
    )
