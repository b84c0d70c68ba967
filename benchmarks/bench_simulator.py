"""Infrastructure micro-benchmarks: simulator and analysis throughput.

Not a paper table -- these quantify the reproduction's own substrate so
performance regressions in the gate-level simulator or tracker show up.
Each test also emits a ``BENCH_*.json`` document (see conftest) so the
perf trajectory is tracked commit over commit.
"""

import itertools
import time

import pytest
from _pairs import pinned_pairs

from repro.core import TaintTracker
from repro.cpu import compiled_cpu
from repro.isa.assembler import assemble
from repro.isasim.executor import run_concrete
from repro.obs import Instruments, Observer, TraceRecorder
from repro.sim.runner import GateRunner

LOOP = """
    mov #400, r10
loop:
    dec r10
    jnz loop
    halt
"""


@pytest.fixture(scope="module")
def circuit():
    return compiled_cpu()


def _timed(func, *args):
    start = time.perf_counter()
    result = func(*args)
    return result, time.perf_counter() - start


def test_gate_level_cycles_per_second(benchmark, circuit, bench_json):
    program = assemble(LOOP, name="loop")
    times = []

    def run():
        result, seconds = _timed(
            lambda: GateRunner(circuit, program).run(max_cycles=2_000)
        )
        times.append(seconds)
        return result

    cycles = benchmark.pedantic(run, rounds=3, iterations=1)
    assert cycles > 1_000

    bench_json(
        "simulator_gate_level",
        {"cycles": cycles},
        wall_seconds=min(times),
        cycles_per_second=cycles / min(times),
    )


def test_tracing_overhead(circuit, tmp_path, bench_json):
    """Full observability (JSONL trace + metrics + spans) on the
    gate-level runner must cost < 10% over the untraced run.

    The overhead is the median traced/plain ratio of the CPU times of
    alternating pairs on one pinned CPU (``benchmarks/_pairs.py``).  A
    run lasts about 30 ms, so many short pairs steady the median more
    than fewer pairs of back-to-back runs do."""
    program = assemble(LOOP, name="loop")
    cycles = 400
    pairs = 81
    paths = (tmp_path / f"trace{index}.jsonl" for index in itertools.count())

    def run_plain():
        return GateRunner(circuit, program).run(max_cycles=cycles)

    def run_traced():
        observer = Observer(trace=TraceRecorder(next(paths)))
        runner = GateRunner(circuit, program)
        runner.soc.arm(Instruments(observer))
        runner.run(max_cycles=cycles)
        observer.close()
        return observer

    # Warm every lazy cache before timing.
    run_plain()
    run_traced()
    timed = pinned_pairs(run_plain, run_traced, pairs)
    observer, ratios, overhead = timed.result, timed.ratios, timed.overhead
    plain, traced = timed.plain, timed.measured

    snapshot = observer.snapshot()
    bench_json(
        "simulator_tracing_overhead",
        {
            "cycles": cycles,
            "pairs": pairs,
            "plain_seconds": plain,
            "traced_seconds": traced,
            "overhead_ratio": overhead,
            "pair_ratios": ratios,
            "events_per_run": observer.trace.events_written,
            "counters": snapshot["metrics"]["counters"],
        },
        wall_seconds=traced,
        cycles_per_second=cycles / traced,
    )
    assert snapshot["metrics"]["counters"]["sim.gate_evals"] > 0
    assert overhead < 1.10, (
        f"tracing overhead {overhead:.3f}x exceeds the 10% budget "
        f"(median of {pairs} pinned pairs: "
        + ", ".join(f"{ratio:.3f}" for ratio in sorted(ratios)) + ")"
    )


def test_architectural_simulator_speed(benchmark, bench_json):
    program = assemble(LOOP, name="loop")
    times = []

    def run():
        result, seconds = _timed(
            lambda: run_concrete(
                program, max_cycles=100_000, follow_watchdog=False
            ).cycles
        )
        times.append(seconds)
        return result

    cycles = benchmark.pedantic(run, rounds=3, iterations=1)
    assert cycles > 1_000
    bench_json(
        "simulator_architectural",
        {"cycles": cycles},
        wall_seconds=min(times),
        cycles_per_second=cycles / min(times),
    )


def test_tracker_throughput(benchmark, circuit, bench_json):
    source = """
.task sys trusted
start:
    mov #0x0FFE, sp
    call #app
    jmp start
.task app untrusted
app:
    mov &P1IN, r4
    and #0x03FF, r4
    bis #0x0400, r4
    mov &P1IN, r5
    mov r5, 0(r4)
    ret
"""
    program = assemble(source, name="clean")
    times = []

    def analyse():
        result, seconds = _timed(
            lambda: TaintTracker(program, circuit=circuit).run()
        )
        times.append(seconds)
        return result

    result = benchmark.pedantic(analyse, rounds=3, iterations=1)
    assert result.secure
    bench_json(
        "tracker_throughput",
        {"stats": result.stats},
        wall_seconds=min(times),
    )


def test_cpu_compile_time(benchmark, bench_json):
    """Compiling the LP430: levelisation, the cut mapping, the cut
    tables and the mapped and every-net plans.  Mapping and tabulation
    are also timed on their own, from the compiler's profiling spans.
    ``full_ranks`` counts the levels of gates ``levelize`` gives, the
    ranks a per-gate evaluation would sweep."""
    from repro.cpu.build import build_cpu
    from repro.netlist.levelize import levelize
    from repro.sim.compiled import CompiledCircuit

    times = []
    spans = {"map_cuts": [], "tabulate_cuts": []}

    def compile_cpu():
        observer = Observer()
        result, seconds = _timed(
            lambda: CompiledCircuit(build_cpu(), obs=observer)
        )
        times.append(seconds)
        profile = observer.snapshot()["profile"]
        for name, samples in spans.items():
            samples.append(profile[name]["wall_seconds"])
        return result

    compiled = benchmark.pedantic(compile_cpu, rounds=3, iterations=1)
    assert compiled.num_dffs > 300
    bench_json(
        "cpu_compile_time",
        {
            "mapping_seconds": min(spans["map_cuts"]),
            "tabulation_seconds": min(spans["tabulate_cuts"]),
            "full_ranks": len(levelize(compiled.netlist)) - 1,
            "mapped_ranks": len(compiled._full_plan.mapped),
            "every_ranks": len(compiled._full_plan.every),
        },
        wall_seconds=min(times),
    )
