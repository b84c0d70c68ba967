"""Benchmark-suite tests: assembly, concrete execution, flow profiles."""

import json
import subprocess
import sys

import pytest

from repro.core import TaintTracker
from repro.isa.assembler import assemble
from repro.isasim.executor import run_concrete
from repro.workloads import micro, motivating
from repro.workloads.registry import (
    BENCHMARKS,
    TABLE2_VIOLATORS,
    benchmark,
    benchmark_names,
)


class TestRegistry:
    def test_thirteen_benchmarks(self):
        assert len(BENCHMARKS) == 13

    def test_table1_names(self):
        expected = {
            "mult",
            "binSearch",
            "tea8",
            "intFilt",
            "tHold",
            "div",
            "inSort",
            "rle",
            "intAVG",
            "autocorr",
            "FFT",
            "ConvEn",
            "Viterbi",
        }
        assert set(benchmark_names()) == expected

    def test_each_module_names_its_key(self):
        """The registry maps each name to its module without importing
        it; the module's own ``NAME`` must agree."""
        for name, info in BENCHMARKS.items():
            assert info.name == name

    def test_lookup_imports_only_its_kernel(self):
        script = (
            "import json, sys\n"
            "from repro.workloads.registry import BENCHMARKS, benchmark\n"
            "assert 'Viterbi' in BENCHMARKS and 'nope' not in BENCHMARKS\n"
            "benchmark('intAVG')\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.startswith('repro.workloads.'))))"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], check=True,
            capture_output=True, text=True,
        )
        assert json.loads(done.stdout) == [
            "repro.workloads.harness",
            "repro.workloads.intavg",
            "repro.workloads.micro",
            "repro.workloads.motivating",
            "repro.workloads.registry",
        ]

    def test_suites(self):
        eembc = {n for n, b in BENCHMARKS.items() if b.suite == "eembc"}
        assert eembc == {"autocorr", "FFT", "ConvEn", "Viterbi"}

    def test_violator_set_matches_table2(self):
        violators = {
            n for n, b in BENCHMARKS.items() if b.expected_violator
        }
        assert violators == set(TABLE2_VIOLATORS)


class TestAssemblyAndExecution:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_assembles(self, name):
        info = benchmark(name)
        program = info.service_program()
        assert program.task_named("bench") is not None
        assert not program.task_named("bench").trusted
        assert program.task_named("sys").trusted

    @pytest.mark.parametrize("name", benchmark_names())
    def test_runs_to_completion(self, name):
        info = benchmark(name)
        run = run_concrete(
            info.measurement_program(),
            max_cycles=100_000,
            follow_watchdog=False,
        )
        assert run.halted, f"{name} never reached halt"
        assert run.writes_to("P2OUT") >= 1, f"{name} produced no output"

    def test_mult_is_correct(self):
        from itertools import cycle

        inputs = cycle([7, 6])  # kernels run in activation batches
        run = run_concrete(
            benchmark("mult").measurement_program(),
            inputs=lambda port: next(inputs),
            follow_watchdog=False,
        )
        assert run.port_writes[-1][1].value == 42

    def test_div_is_correct(self):
        from itertools import cycle

        inputs = cycle([100, 7])
        run = run_concrete(
            benchmark("div").measurement_program(),
            inputs=lambda port: next(inputs),
            follow_watchdog=False,
        )
        assert run.port_writes[-1][1].value == 100 // 7

    def test_binsearch_finds_key(self):
        from itertools import cycle

        inputs = cycle([23])  # present in the table at index 5
        run = run_concrete(
            benchmark("binSearch").measurement_program(),
            inputs=lambda port: next(inputs),
            follow_watchdog=False,
        )
        assert run.port_writes[-1][1].value == 5

    def test_insort_sorts(self):
        from itertools import cycle

        samples = [9, 3, 7, 1, 8, 2, 6, 4]
        inputs = cycle(samples)
        run = run_concrete(
            benchmark("inSort").measurement_program(),
            inputs=lambda port: next(inputs),
            follow_watchdog=False,
        )
        ram = run.executor.space.ram
        values = [ram.get(0x400 + i).value for i in range(8)]
        assert values == sorted(samples)
        assert run.port_writes[-1][1].value == 1

    def test_rle_counts_runs(self):
        from itertools import cycle

        samples = [5, 5, 5, 2, 2, 9, 9, 9]
        inputs = cycle(samples)
        run = run_concrete(
            benchmark("rle").measurement_program(),
            inputs=lambda port: next(inputs),
            follow_watchdog=False,
        )
        # boundaries: 0->5, 5->2, 2->9 (first sample counts as boundary)
        assert run.port_writes[-1][1].value == 3

    def test_thold_counts_events(self):
        from itertools import cycle

        samples = [0x3000, 0x100, 0x2FFF, 0x100, 0x100, 0x100, 0x100, 0x100]
        inputs = cycle(samples)
        run = run_concrete(
            benchmark("tHold").measurement_program(),
            inputs=lambda port: next(inputs),
            follow_watchdog=False,
        )
        assert run.port_writes[-1][1].value == 2


class TestFlowProfiles:
    """Spot-check the Table 2 information-flow shapes (full sweep in
    benchmarks/bench_table2_conditions.py)."""

    @pytest.mark.parametrize("name", ["mult", "rle"])
    def test_clean_kernels_verify(self, name):
        result = TaintTracker(benchmark(name).service_program()).run()
        assert result.secure
        assert result.violated_conditions() == set()

    @pytest.mark.parametrize("name", ["div", "tHold"])
    def test_violators_break_conditions_1_and_2(self, name):
        result = TaintTracker(benchmark(name).service_program()).run()
        assert not result.secure
        assert result.violated_conditions() == {1, 2}
        assert result.violating_stores()
        assert result.tasks_needing_watchdog() == ["bench"]


class TestMicroBenchmarks:
    def test_fig8_unprotected_pc_stays_tainted(self):
        program = assemble(micro.FIG8_UNPROTECTED, name="fig8")
        result = TaintTracker(program).run()
        assert not result.secure
        assert 1 in result.violated_conditions()

    def test_fig8_protected_verifies(self):
        program = assemble(micro.FIG8_PROTECTED, name="fig8p")
        result = TaintTracker(program).run()
        assert result.secure
        assert result.tasks_needing_watchdog() == ["tainted_code"]

    def test_fig9_unmasked_taints_memory(self):
        program = assemble(micro.FIG9_UNMASKED, name="fig9")
        result = TaintTracker(program).run()
        assert 2 in result.violated_conditions()

    def test_fig9_masked_confines(self):
        program = assemble(micro.FIG9_MASKED, name="fig9m")
        result = TaintTracker(program).run()
        assert 2 not in result.violated_conditions()


class TestMotivatingExamples:
    def test_figure3_secure(self):
        program = assemble(motivating.figure3_source(), name="fig3")
        result = TaintTracker(program).run()
        assert result.secure

    def test_figure4_violates(self):
        program = assemble(motivating.figure4_source(), name="fig4")
        result = TaintTracker(program).run()
        assert not result.secure
        assert 2 in result.violated_conditions()

    def test_figure5_masked_secure(self):
        program = assemble(motivating.figure5_source(), name="fig5")
        result = TaintTracker(program).run()
        assert result.secure
