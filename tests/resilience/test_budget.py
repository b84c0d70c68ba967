"""Budgets and sound degradation.

The acceptance property: exhausting a budget never raises and never
flips the verdict to ``secure`` -- unexplored work is widened to the
fully-tainted top state, so the result honestly says ``inconclusive``.
"""

import pytest

from repro.core import TaintTracker, default_policy
from repro.core.tracker import AnalysisStats
from repro.isa.assembler import assemble
from repro.obs.clock import ManualClock
from repro.resilience import AnalysisBudget, current_rss_mb
from repro.workloads.registry import BENCHMARKS

# Trusted code branching on an *untainted* unknown input: three paths,
# no violations -- the minimal workload where truncation matters.
FORKY = """
.task sys trusted
start:
    mov &P3IN, r4
    bit #1, r4
    jz even
    mov #1, &P2OUT
    halt
even:
    mov #2, &P2OUT
    halt
"""


def _analyze(source, name="t", **kwargs):
    program = assemble(source, name=name)
    return TaintTracker(program, default_policy(), **kwargs).run()


class TestSoundDegradation:
    def test_table1_workload_max_paths_one_is_inconclusive(self):
        # The issue's acceptance criterion: a Table 1 workload under
        # max_paths=1 completes without raising, names the exhausted
        # budget, and the verdict is inconclusive.
        info = BENCHMARKS["intAVG"]
        result = _analyze(
            info.service_source,
            name="intavg",
            budget=AnalysisBudget(max_paths=1),
        )
        assert result.verdict == "inconclusive"
        assert "max_paths" in result.exhausted
        assert result.degraded
        assert result.stats.drained_paths > 0

    def test_forky_truncation_is_inconclusive_not_secure(self):
        full = _analyze(FORKY)
        assert full.verdict == "secure"
        assert full.stats.paths == 3

        cut = _analyze(FORKY, budget=AnalysisBudget(max_paths=1))
        assert cut.verdict == "inconclusive"
        assert cut.exhausted == ["max_paths"]
        assert cut.stats.drained_paths == 2
        report = cut.report()
        assert "INCONCLUSIVE" in report
        assert "max_paths" in report
        assert "widened" in report

    def test_default_budget_does_not_change_the_verdict(self):
        result = _analyze(FORKY, budget=AnalysisBudget())
        assert result.verdict == "secure"
        assert not result.exhausted

    def test_zero_deadline_drains_immediately(self):
        clock = ManualClock()
        budget = AnalysisBudget(deadline_seconds=0.0, clock=clock)
        budget.start()
        clock.advance(0.001)
        result = _analyze(FORKY, budget=budget)
        assert result.verdict == "inconclusive"
        assert "deadline" in result.exhausted

    def test_insecure_verdict_survives_truncation(self):
        # Violations found before exhaustion are definite: the verdict
        # stays insecure (monotone under truncation), with the exhaustion
        # recorded alongside.
        vulnerable = """
.task sys trusted
start:
    mov #0x07FE, sp
    call #app
    jmp start
.task app untrusted
app:
    mov &P1IN, r4
    mov &P1IN, r5
    mov r5, 0(r4)
    ret
"""
        result = _analyze(
            vulnerable, budget=AnalysisBudget(max_paths=1)
        )
        assert result.verdict == "insecure"
        assert "INSECURE" in result.report()


class TestBudgetMechanics:
    def test_start_latches_the_deadline_once(self):
        clock = ManualClock()
        budget = AnalysisBudget(deadline_seconds=10.0, clock=clock)
        budget.start()
        clock.advance(6.0)
        budget.start()  # idempotent: must NOT re-anchor
        clock.advance(5.0)
        stats = AnalysisStats()
        assert "deadline" in budget.exhausted_reasons(stats, 0)

    def test_reset_re_arms_the_deadline(self):
        clock = ManualClock()
        budget = AnalysisBudget(deadline_seconds=10.0, clock=clock)
        budget.start()
        clock.advance(11.0)
        budget.reset()
        budget.start()
        stats = AnalysisStats()
        assert budget.exhausted_reasons(stats, 0) == []

    def test_exhausted_reasons_reports_every_blown_budget(self):
        budget = AnalysisBudget(max_paths=2, max_merged_states=5)
        budget.start()
        stats = AnalysisStats()
        stats.paths = 2
        reasons = budget.exhausted_reasons(stats, merged_states=9)
        assert reasons == ["max_paths", "max_merged_states"]

    def test_unbounded_budget_reports_nothing(self):
        budget = AnalysisBudget(max_paths=None, max_cycles=None)
        budget.start()
        stats = AnalysisStats()
        stats.paths = 10**9
        stats.cycles_simulated = 10**9
        assert budget.exhausted_reasons(stats, 10**9) == []
        assert not budget.mid_path_exhausted(stats)

    def test_cycle_axis_drains_instead_of_truncating_a_path(self):
        # The budget is the only cycle bound: a cap below a path's
        # length drains the path (verdict inconclusive), it never ends
        # it quietly with the verdict left at secure.
        result = _analyze(FORKY, budget=AnalysisBudget(max_cycles=10))
        assert result.verdict == "inconclusive"
        assert result.exhausted == ["max_cycles"]
        end_reasons = result.tree.summary()["end_reasons"]
        assert "drained" in end_reasons
        assert "limit" not in end_reasons

    def test_mid_path_exhaustion_sees_the_deadline(self):
        clock = ManualClock()
        budget = AnalysisBudget(deadline_seconds=1.0, clock=clock)
        budget.start()
        stats = AnalysisStats()
        assert not budget.mid_path_exhausted(stats)
        clock.advance(2.0)
        assert budget.mid_path_exhausted(stats)

    def test_current_rss_is_plausible(self):
        rss = current_rss_mb()
        assert 1.0 < rss < 1024 * 64


class TestPartialRepair:
    def test_secure_compile_returns_partial_not_fundamental(self):
        from repro.transform import secure_compile

        info = BENCHMARKS["intAVG"]
        repaired = secure_compile(
            info.service_source,
            name="intavg",
            budget=AnalysisBudget(max_paths=1),
        )
        assert repaired.partial
        assert repaired.verdict == "inconclusive"

    def test_secure_compile_unbudgeted_still_converges(self):
        from repro.transform import secure_compile

        info = BENCHMARKS["intAVG"]
        repaired = secure_compile(info.service_source, name="intavg")
        assert repaired.secure
        assert not repaired.partial
