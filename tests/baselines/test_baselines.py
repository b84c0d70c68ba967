"""Tests for the *-logic and always-on baselines, and MiniRTOS."""

import pytest

from repro.baselines import (
    always_on_cost,
    always_on_transform,
    star_logic_analysis,
)
from repro.baselines.alwayson import untrusted_store_addresses
from repro.core import TaintTracker
from repro.isa.assembler import assemble
from repro.isasim.executor import run_concrete
from repro.rtos import rtos_completion_stop, rtos_source
from repro.workloads.registry import benchmark


class TestStarLogic:
    def test_violator_collapses_most_of_the_netlist(self):
        """Footnote 8: the unknown+tainted PC drags most gates with it."""
        result = star_logic_analysis(
            benchmark("binSearch").service_program(), cycles=400
        )
        assert result.pc_lost_at is not None
        assert result.peak_unknown_tainted_fraction > 0.5
        assert not result.watchdog_verifiable
        assert "70%" in result.report() or "%" in result.report()

    def test_clean_kernel_keeps_control_and_watchdog(self):
        """Heavily tainted *dataflow* is fine under *-logic -- what
        matters is that the PC survives and the watchdog stays verifiable
        (it does not on the violators)."""
        result = star_logic_analysis(
            benchmark("mult").service_program(), cycles=400
        )
        assert result.pc_lost_at is None
        assert result.peak_unknown_tainted_fraction < 0.5
        assert result.watchdog_verifiable
        violator = star_logic_analysis(
            benchmark("binSearch").service_program(), cycles=400
        )
        assert (
            violator.peak_unknown_tainted_fraction
            > result.peak_unknown_tainted_fraction
        )

    def test_report_renders(self):
        result = star_logic_analysis(
            benchmark("tHold").service_program(), cycles=200
        )
        assert "*-logic" in result.report()


class TestAlwaysOn:
    def test_cost_model(self):
        cost = always_on_cost(task_cycles=500, dynamic_stores=20)
        assert cost.masked_cycles == 500 + 120
        assert cost.protected_cycles >= cost.masked_cycles
        assert cost.overhead_cycles == cost.protected_cycles - 500
        assert cost.overhead_fraction > 0

    def test_zero_work(self):
        cost = always_on_cost(0, 0)
        assert cost.overhead_fraction == 0.0

    def test_store_enumeration(self):
        program = benchmark("inSort").service_program()
        stores = untrusted_store_addresses(program)
        assert len(stores) >= 3  # gather store + shift store + place store
        task = program.task_named("bench")
        assert all(task.contains(address) for address in stores)

    def test_transform_masks_every_store(self):
        info = benchmark("mult")
        program = info.service_program()
        stores = untrusted_store_addresses(program, include_pushes=True)
        new_source = always_on_transform(info.service_source, program)
        assert new_source.count("memory-bounds mask") == len(stores)
        # the rewritten program still assembles
        assemble(new_source, name="mult_alwayson")

    def test_push_enumeration_flag(self):
        program = benchmark("mult").service_program()
        without = untrusted_store_addresses(program)
        with_pushes = untrusted_store_addresses(
            program, include_pushes=True
        )
        assert len(with_pushes) == len(without) + 2  # push r10 / push r11


class TestMiniRTOS:
    def test_assembles_with_scheduler_at_reset_vector(self):
        program = assemble(rtos_source(), name="minirtos")
        rtos = program.task_named("rtos")
        assert rtos.trusted
        assert rtos.start == 0  # scheduler doubles as the reset vector
        assert not program.task_named("bs_task").trusted
        assert program.task_named("div_task").trusted

    def test_round_robin_runs_both_tasks(self):
        program = assemble(rtos_source(), name="minirtos")
        run = run_concrete(
            program, stop=rtos_completion_stop, max_cycles=100_000
        )
        assert run.writes_to("P4OUT") >= 1  # trusted div output
        assert run.writes_to("P2OUT") >= 1  # untrusted binSearch output

    def test_unprotected_rtos_violates(self):
        program = assemble(rtos_source(), name="minirtos")
        result = TaintTracker(program).run()
        assert not result.secure
        assert result.violated_conditions() == {1, 2}
        assert result.tasks_needing_watchdog() == ["bs_task"]
        assert result.violating_stores()
