"""Section 7.3: information-flow-secure scheduling on MiniRTOS.

Demonstrates the two system-level guarantees: (1) no insecure flows
across scheduled tasks, and (2) no task can affect the scheduling itself.
The flow matches the paper: analyse the unprotected system (binSearch
taints the PC and its probe counters may escape), let the toolflow bound
the untrusted task with the watchdog (the reset vector doubles as the
scheduler entry) and mask its flagged stores, verify the repaired system,
and measure the end-to-end runtime overhead with input-based simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from repro.core import TaintTracker
from repro.isa.assembler import assemble
from repro.isasim.executor import run_concrete
from repro.rtos import rtos_completion_stop, rtos_source
from repro.transform import secure_compile


@dataclass
class RtosCaseResult:
    unprotected_conditions: Set[int]
    flagged_stores: int
    masked_stores: int
    bounded_tasks: List[str]
    repaired_secure: bool
    baseline_cycles: int
    protected_cycles: int

    @property
    def overhead_percent(self) -> float:
        return (
            100.0
            * (self.protected_cycles - self.baseline_cycles)
            / self.baseline_cycles
        )

    def report(self) -> str:
        lines = [
            "Section 7.3: information-flow secure scheduling (MiniRTOS + "
            "trusted div + untrusted binSearch)",
            f"  unprotected system violates conditions: "
            f"{sorted(self.unprotected_conditions)}",
            f"  store instructions flagged for masking: "
            f"{self.flagged_stores} (paper: 330 in their compiled "
            "binSearch)",
            f"  tasks bounded with the watchdog: {self.bounded_tasks}",
            f"  repaired system verifies: "
            + ("SECURE" if self.repaired_secure else "INSECURE"),
            f"  runtime to both-tasks-complete: {self.baseline_cycles} -> "
            f"{self.protected_cycles} cycles",
            f"  overhead: {self.overhead_percent:.2f}%   (paper: 0.83%)",
        ]
        return "\n".join(lines)


def build_rtos_case() -> RtosCaseResult:
    source = rtos_source()
    program = assemble(source, name="minirtos")

    unprotected = TaintTracker(program).run()
    baseline = run_concrete(
        program, stop=rtos_completion_stop, max_cycles=200_000
    )

    repaired = secure_compile(
        source,
        name="minirtos",
        task_cycles={"bs_task": 300},
    )
    protected = run_concrete(
        repaired.program, stop=rtos_completion_stop, max_cycles=200_000
    )

    return RtosCaseResult(
        unprotected_conditions=unprotected.violated_conditions(),
        flagged_stores=len(unprotected.violating_stores()),
        masked_stores=repaired.masked_stores,
        bounded_tasks=repaired.bounded_tasks,
        repaired_secure=repaired.secure,
        baseline_cycles=baseline.cycles,
        protected_cycles=protected.cycles,
    )
