"""The end-to-end secure-compile loop (Figures 10 and 11).

``secure_compile`` drives the full cycle the paper describes: assemble,
run application-specific gate-level information flow tracking, identify
root causes, apply the watchdog transformation (then *re-analyse before
mask insertion*, as the Figure 11 caption requires, because the rewrite
moves instruction addresses), apply memory-bounds masks, and re-verify
until the binary is provably secure or a fundamental violation demands
programmer attention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.labels import SecurityPolicy, default_policy
from repro.core.tracker import AnalysisResult, TaintTracker
from repro.isa.assembler import assemble
from repro.obs import NULL_OBSERVER
from repro.isa.program import Program
from repro.resilience.errors import EXIT_FUNDAMENTAL, ReproError
from repro.transform.masking import insert_masks
from repro.transform.report import render_diagnostics
from repro.transform.rootcause import RootCauses, identify_root_causes
from repro.transform.slicing import SlicePlan, choose_slicing
from repro.transform.watchdog_reset import (
    estimate_task_cycles,
    insert_watchdog_protection,
)


class FundamentalViolation(ReproError):
    """The application (or its labels) cannot be repaired automatically."""

    code = "FUNDAMENTAL_VIOLATION"
    phase = "repair"
    exit_code = EXIT_FUNDAMENTAL

    def __init__(self, diagnostics: str):
        super().__init__(diagnostics)
        self.diagnostics = diagnostics


@dataclass
class SecureCompileResult:
    """Outcome of the secure-compile flow."""

    program: Program
    source: str
    analysis: AnalysisResult
    fixes: List[str] = field(default_factory=list)
    iterations: int = 0
    masked_stores: int = 0
    bounded_tasks: List[str] = field(default_factory=list)
    slice_plans: Dict[str, SlicePlan] = field(default_factory=dict)
    #: True when an analysis budget cut a (re-)verification short: the
    #: repairs applied so far are kept, but the verdict is inconclusive
    partial: bool = False

    @property
    def secure(self) -> bool:
        return self.analysis.secure

    @property
    def verdict(self) -> str:
        return self.analysis.verdict

    @property
    def modified(self) -> bool:
        return bool(self.fixes)

    def diagnostics(self) -> str:
        causes = identify_root_causes(self.analysis)
        return render_diagnostics(
            self.program.name, causes, self.fixes, verified=not self.partial
        )


def secure_compile(
    source: str,
    name: str = "program",
    policy: Optional[SecurityPolicy] = None,
    task_cycles: Optional[Dict[str, int]] = None,
    max_iterations: int = 5,
    max_slices: int = 1,
    obs=None,
    **tracker_kwargs,
) -> SecureCompileResult:
    """Repair *source* until the analysis proves it secure.

    *task_cycles* optionally supplies measured maximum durations per task
    (used for slice selection); otherwise a static estimate is used.
    *max_slices* defaults to 1 -- a bare task restarted by the watchdog
    must finish within one slice; pass higher values only for tasks whose
    scheduler checkpoints context across slices (Section 7.3).
    *obs* is an :class:`repro.obs.Observer`; repairs emit
    ``transform_applied`` events and each re-analysis round a
    ``reverify`` event, with the rewrite time under the ``repair`` span.
    """
    if policy is None:
        policy = default_policy()
    obs = obs if obs is not None else NULL_OBSERVER
    fixes: List[str] = []
    bounded: List[str] = []
    plans: Dict[str, SlicePlan] = {}
    masked = 0

    current_source = source
    program = assemble(current_source, name=name)
    result = TaintTracker(program, policy, obs=obs, **tracker_kwargs).run()

    for iteration in range(1, max_iterations + 1):
        if result.secure:
            return SecureCompileResult(
                program=program,
                source=current_source,
                analysis=result,
                fixes=fixes,
                iterations=iteration,
                masked_stores=masked,
                bounded_tasks=bounded,
                slice_plans=plans,
            )
        if result.degraded:
            # A budget cut this (re-)verification short.  The repairs
            # already applied stand; instead of discarding them behind a
            # FundamentalViolation, hand back a partial result whose
            # verdict is honestly inconclusive.
            return SecureCompileResult(
                program=program,
                source=current_source,
                analysis=result,
                fixes=fixes,
                iterations=iteration,
                masked_stores=masked,
                bounded_tasks=bounded,
                slice_plans=plans,
                partial=True,
            )
        causes = identify_root_causes(result)
        if not causes.automatic_repair_possible:
            raise FundamentalViolation(
                render_diagnostics(name, causes, fixes)
            )
        if not causes.needs_watchdog and not causes.needs_masking:
            # Insecure, yet nothing actionable: the repairs cannot help.
            raise FundamentalViolation(
                render_diagnostics(name, causes, fixes)
                + "\nno automatic repair applies to the remaining "
                "violations"
            )

        if causes.needs_watchdog:
            new_tasks = [
                t for t in causes.tasks_to_bound if t not in plans
            ]
            with obs.span("repair"):
                for task in new_tasks:
                    cycles = (
                        task_cycles.get(task)
                        if task_cycles and task in task_cycles
                        else estimate_task_cycles(program, task)
                    )
                    # Headroom for the masking instructions a later repair
                    # round may add (the slice must still fit the whole
                    # task).
                    cycles = int(cycles * 1.25) + 32
                    plans[task] = choose_slicing(
                        cycles, max_slices=max_slices
                    )
                    bounded.append(task)
                    fixes.append(
                        f"task {task!r}: control flow depends on tainted "
                        "input; bounded with the watchdog timer "
                        f"({plans[task].slices} x {plans[task].interval} "
                        "cycles)"
                    )
                    obs.emit(
                        "transform_applied",
                        kind="watchdog",
                        task=task,
                        slices=plans[task].slices,
                        interval=plans[task].interval,
                        iteration=iteration,
                    )
                if new_tasks:
                    current_source = insert_watchdog_protection(
                        current_source,
                        program,
                        {t: plans[t] for t in new_tasks},
                    )
                    # Figure 11: re-analyse before mask insertion -- the
                    # rewrite moved instruction addresses.
                    program = assemble(current_source, name=name)
            if new_tasks:
                obs.emit("reverify", iteration=iteration, after="watchdog")
                result = TaintTracker(
                    program, policy, obs=obs, **tracker_kwargs
                ).run()
                continue

        if causes.needs_masking:
            with obs.span("repair"):
                for address in causes.stores_to_mask:
                    line = program.line_at(address)
                    where = (
                        f"line {line.line_no}"
                        if line
                        else f"0x{address:04x}"
                    )
                    fixes.append(
                        f"{where}: store may escape the tainted "
                        "partition; memory-bounds mask inserted"
                    )
                    obs.emit(
                        "transform_applied",
                        kind="mask",
                        address=f"0x{address:04x}",
                        iteration=iteration,
                    )
                current_source = insert_masks(
                    current_source, program, causes.stores_to_mask, policy
                )
                masked += len(causes.stores_to_mask)
                program = assemble(current_source, name=name)
            obs.emit("reverify", iteration=iteration, after="mask")
            result = TaintTracker(
                program, policy, obs=obs, **tracker_kwargs
            ).run()
            continue

    raise FundamentalViolation(
        f"{name}: still insecure after {max_iterations} repair "
        f"iterations:\n{result.report()}"
    )
