"""Information-flow policy checking (Figure 6's second stage).

The :class:`PolicyChecker` consumes the tracker's per-cycle events and
state probes *streamingly* and materialises :class:`Violation` records.
Checks map one-to-one onto the sufficient conditions of Section 5.1:

1. processor state elements must be untainted when trusted code runs
   (probed at every trusted-task instruction fetch, plus the PC-taint and
   watchdog-integrity checks that protect that invariant);
2. stores must not spread taint into untainted memory partitions;
3. trusted code must not load from tainted partitions (or load tainted
   data);
4. trusted code must not read tainted input ports;
5. untainted output ports must never see tainted data, a tainted task, or
   an attacker-steerable (smeared) store.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.labels import SecurityPolicy
from repro.core.violations import Violation, ViolationKind
from repro.isa.encode import DecodedInstruction
from repro.isa.program import Program
from repro.logic.ternary import ONE, ZERO
from repro.logic.words import TWord
from repro.memmap import MemoryRegion


def _address_may_touch(address: TWord, region: MemoryRegion) -> bool:
    """Can a load/store through *address* reach any word of *region*?

    Only *unknown* address bits widen the footprint.  Tainted-but-known
    bits are pinned on this path -- the tracker explores the attacker's
    other choices as separate paths -- which is exactly how the paper can
    "verify that no possible execution of the tainted code can generate an
    address outside of the regions of data memory that are allowed to be
    tainted" even when the masking instructions themselves run under
    tainted control flow (Section 5.2).
    """
    wildcard = address.xmask
    known = 0xFFFF & ~wildcard
    want = address.bits & known
    if wildcard == 0:
        return region.contains(address.bits)
    for candidate in range(region.low, region.high):
        if (candidate & known) == want:
            return True
    return False


class PolicyChecker:
    """Streaming condition checks with per-root-cause deduplication."""

    def __init__(self, program: Program, policy: SecurityPolicy):
        self.program = program
        self.policy = policy
        self._violations: Dict[Tuple, Violation] = {}
        self._untainted_regions = policy.untainted_ram_regions()
        self._watchdog_flagged = False

    # ------------------------------------------------------------------
    def _record(
        self,
        kind: str,
        cycle: int,
        address: int,
        task: str,
        detail: str = "",
        port: Optional[str] = None,
        dedupe: Optional[Tuple] = None,
        advisory: bool = False,
    ) -> None:
        key = dedupe if dedupe is not None else (kind, address, port)
        if key in self._violations:
            return
        line = self.program.line_at(address)
        self._violations[key] = Violation(
            kind=kind,
            cycle=cycle,
            address=address,
            task=task,
            detail=detail,
            port=port,
            source_line=line.line_no if line else None,
            source_text=line.text.strip() if line else None,
            advisory=advisory,
        )

    # ------------------------------------------------------------------
    # Probes called by the tracker
    # ------------------------------------------------------------------
    def note_instruction_start(
        self,
        instruction: DecodedInstruction,
        task_name: str,
        task_trusted: bool,
        cycle: int,
        any_state_taint: bool,
        pc_taint: int,
    ) -> None:
        """Condition 1 probes at each instruction fetch.

        In the default (refined) mode, residual taint in state elements is
        tolerated -- Section 5.1: "it is acceptable for state elements to
        be tainted when an untainted task executes, as long as the
        computations performed by the task do not depend on any tainted
        state elements."  Dependence is detected by the PC-taint check
        here and the taint-growth check in :meth:`note_instruction_end`.
        In strict mode the letter of condition 1 is enforced instead
        (useful for reasoning about unknown applications).
        """
        if (
            self.policy.strict_conditions
            and task_trusted
            and any_state_taint
        ):
            self._record(
                ViolationKind.TAINTED_STATE_IN_TRUSTED_CODE,
                cycle,
                instruction.address,
                task_name,
                detail="processor state elements tainted while trusted "
                "code executes (strict condition 1)",
                dedupe=(ViolationKind.TAINTED_STATE_IN_TRUSTED_CODE, task_name),
            )
        if pc_taint and task_trusted:
            self._record(
                ViolationKind.TAINTED_STATE_IN_TRUSTED_CODE,
                cycle,
                instruction.address,
                task_name,
                detail="control reaches trusted code with a tainted PC",
                dedupe=(
                    ViolationKind.TAINTED_STATE_IN_TRUSTED_CODE,
                    task_name,
                    "pc",
                ),
            )
        if pc_taint and not task_trusted:
            self._record(
                ViolationKind.TAINTED_CONTROL_FLOW,
                cycle,
                instruction.address,
                task_name,
                detail="program counter tainted inside untrusted task; "
                "bound the task with the watchdog mechanism",
                dedupe=(ViolationKind.TAINTED_CONTROL_FLOW, task_name),
                advisory=True,
            )

    def note_instruction_end(
        self,
        instruction: DecodedInstruction,
        task_name: str,
        task_trusted: bool,
        cycle: int,
        taint_grew: bool,
    ) -> None:
        """Refined condition-1 probe: trusted computation produced taint.

        New taint appearing in state elements during a trusted-task
        instruction means the computation *depended* on tainted state.
        """
        if task_trusted and taint_grew:
            self._record(
                ViolationKind.TAINTED_STATE_IN_TRUSTED_CODE,
                cycle,
                instruction.address,
                task_name,
                detail="trusted computation depends on tainted state "
                "(new taint produced)",
                dedupe=(
                    ViolationKind.TAINTED_STATE_IN_TRUSTED_CODE,
                    task_name,
                    instruction.address,
                ),
            )

    def note_unbounded_control(
        self,
        instruction: DecodedInstruction,
        task_name: str,
        task_trusted: bool,
        cycle: int,
        tainted: bool,
    ) -> None:
        """A computed control transfer whose target set is unbounded."""
        if tainted:
            kind = (
                ViolationKind.TAINTED_STATE_IN_TRUSTED_CODE
                if task_trusted
                else ViolationKind.TAINTED_CONTROL_FLOW
            )
            self._record(
                kind,
                cycle,
                instruction.address,
                task_name,
                detail="computed control transfer through tainted, "
                "unbounded target (e.g. a smeared return address)",
                dedupe=(kind, task_name, "unbounded"),
            )

    def note_events(
        self,
        instruction: Optional[DecodedInstruction],
        task_name: str,
        task_trusted: bool,
        events,
        watchdog_corrupted: bool,
        control_tainted: bool = False,
    ) -> None:
        """Conditions 2-5 over one cycle's events.

        *control_tainted* marks cycles executed under a tainted PC.  Such
        cycles are wholly attacker-influenced; the control-flow violation
        already covers them, so conditions 3-5 are not re-attributed to
        the phantom "maybe" events they generate.  Condition 2 is still
        attributed -- but only to *actual store instructions*, which is
        exactly the set the masking repair must protect (the root causes
        Figure 10's identification stage reports).
        """
        cycle = events.cycle
        address = instruction.address if instruction else 0

        is_store = instruction is not None and instruction.is_store
        if (
            events.write is not None
            and is_store
            and (not control_tainted or not task_trusted)
        ):
            write = events.write
            tainting = bool(
                write.data.tmask or write.wen[1] or write.address.tmask
            )
            if tainting:
                for region in self._untainted_regions:
                    if _address_may_touch(write.address, region):
                        self._record(
                            ViolationKind.TAINTED_WRITE_UNTAINTED_MEMORY,
                            cycle,
                            address,
                            task_name,
                            detail=(
                                "store may taint untainted partition "
                                f"0x{region.low:04x}..0x{region.high:04x}"
                            ),
                        )
                        break

        if watchdog_corrupted and not self._watchdog_flagged:
            self._watchdog_flagged = True
            self._record(
                ViolationKind.WATCHDOG_TAINTED,
                cycle,
                address,
                task_name,
                detail="the watchdog timer's control state became "
                "tainted/unknown; its reset can no longer de-taint "
                "the processor",
                dedupe=(ViolationKind.WATCHDOG_TAINTED,),
            )
        if watchdog_corrupted or (control_tainted and task_trusted):
            # Fallout context: a corrupted watchdog (everything downstream
            # is attacker-timed) or trusted code running under a tainted PC
            # (condition 1 is the root cause).  Do not re-attribute the
            # fallout to conditions 3-5.  Untrusted code under tainted
            # control still gets its *real* port accesses checked -- path
            # enumeration makes those events definite.
            return

        if events.read is not None and task_trusted:
            read = events.read
            touched_tainted = any(
                _address_may_touch(read.address, region)
                for region in self.policy.tainted_memory
            )
            if touched_tainted:
                self._record(
                    ViolationKind.TRUSTED_READ_TAINTED_MEMORY,
                    cycle,
                    address,
                    task_name,
                    detail="trusted code loads from a tainted partition",
                )
            elif read.data.tmask:
                self._record(
                    ViolationKind.TRUSTED_READ_TAINTED_MEMORY,
                    cycle,
                    address,
                    task_name,
                    detail="trusted code loaded tainted data",
                )

        for event in events.port_events:
            if event.kind == "read":
                if self.policy.is_tainted_input(event.port) and task_trusted:
                    self._record(
                        ViolationKind.TRUSTED_READ_TAINTED_PORT,
                        cycle,
                        address,
                        task_name,
                        port=event.port,
                        detail="trusted code reads a tainted input port"
                        + ("" if event.definite else " (via unknown address)"),
                    )
            else:  # write
                if not self.policy.is_untainted_output(event.port):
                    continue
                if not event.definite and is_store:
                    # An attacker-steerable store that merely *might* land
                    # on the port: root cause is the unmasked store, which
                    # condition 2 already attributes (and masking repairs).
                    continue
                offending = bool(
                    event.data.tmask
                    or event.address_taint
                    or not task_trusted
                    or not event.definite
                )
                if offending:
                    self._record(
                        ViolationKind.TAINTED_WRITE_UNTAINTED_PORT,
                        cycle,
                        address,
                        task_name,
                        port=event.port,
                        detail="tainted data may reach an untainted "
                        "output port",
                    )

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Serializable streaming state (for analysis checkpoints)."""
        return {
            "violations": dict(self._violations),
            "watchdog_flagged": self._watchdog_flagged,
        }

    def restore_state(self, state: dict) -> None:
        self._violations = dict(state["violations"])
        self._watchdog_flagged = state["watchdog_flagged"]

    # ------------------------------------------------------------------
    def violations(self) -> List[Violation]:
        return sorted(
            self._violations.values(), key=lambda v: (v.condition, v.address)
        )


def check_conditions(violations: List[Violation]) -> Set[int]:
    """The set of Section 5.1 conditions the violations break (Table 2)."""
    return {violation.condition for violation in violations}


def analyze_program(
    program: Program,
    policy: Optional[SecurityPolicy] = None,
    **tracker_kwargs,
):
    """One-call analysis: build the tracker, run it, return the result."""
    from repro.core.labels import default_policy
    from repro.core.tracker import TaintTracker

    if policy is None:
        policy = default_policy()
    tracker = TaintTracker(program, policy, **tracker_kwargs)
    return tracker.run()
