"""Algorithm 1: input-independent gate-level taint tracking.

The tracker symbolically executes the *entire system binary* on the
gate-level LP430 SoC with every input port driven to tainted/untainted
``X`` per the policy.  Control flow is concrete until an ``X`` (or taint)
reaches the PC; at that point the shadow-decoded instruction yields the
candidate successor PCs, the PC is made concrete in each child while
*retaining its taint*, and exploration continues depth-first.

Termination comes from the paper's conservative approximation: per
PC-changing instruction (and per watchdog power-on reset) the most
conservative state observed so far is kept; a path whose state is a
sub-state of the stored one stops ("the state, or a more conservative
version, has already been explored"); otherwise the stored state is
widened by merging (differing bits become X, taints OR).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.checker import PolicyChecker, check_conditions
from repro.core.labels import SecurityPolicy
from repro.core.tree import ExecutionTree, TreeNode
from repro.core.violations import Violation, ViolationKind
from repro.obs import CLOCK, NULL_OBSERVER, Instruments
from repro.obs.provenance import ProvenanceRecorder
from repro.obs.timeline import TimelineRecorder
from repro.cpu import compiled_cpu
from repro.isa.encode import DecodedInstruction, EncodeError, decode
from repro.isa.program import Program
from repro.logic.ternary import ONE, UNKNOWN, ZERO
from repro.logic.words import EnumerationLimitError, TWord
from repro.resilience.budget import AnalysisBudget
from repro.resilience.errors import (
    AnalysisError,
    AnalysisInterrupted,
    ForkError,
    ReproError,
    SimulationError,
)
from repro.resilience.faults import FaultInjector
from repro.resilience.progress import ProgressEstimator
from repro.sim.compiled import CompiledCircuit
from repro.sim.runner import PHASE_E, PHASE_F, PHASE_J, GateRunner
from repro.sim.soc import AddressSpace, SoCState


class TrackerError(AnalysisError):
    """Raised when exploration cannot proceed soundly."""

    code = "TRACKER"


#: Most successors a computed control transfer may fork into; a target
#: word with more possible values closes the path as ``unbounded``.
FORK_LIMIT = 64


# ---------------------------------------------------------------------------
# Code lattice helpers (vectorised over DFF snapshots)
# ---------------------------------------------------------------------------
def codes_cover(general: np.ndarray, specific: np.ndarray) -> bool:
    general_value = general >> 1
    specific_value = specific >> 1
    value_ok = (general_value == 2) | (general_value == specific_value)
    taint_ok = (general & 1) >= (specific & 1)
    return bool((value_ok & taint_ok).all())


def codes_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    value = np.where((a >> 1) == (b >> 1), a >> 1, 2)
    return (value * 2 + ((a | b) & 1)).astype(np.uint8)


def _por_covers(general: Tuple[int, int], specific: Tuple[int, int]) -> bool:
    value_ok = general[0] == UNKNOWN or general[0] == specific[0]
    return value_ok and general[1] >= specific[1]


def _por_merge(a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int]:
    value = a[0] if a[0] == b[0] else UNKNOWN
    return value, a[1] | b[1]


@dataclass
class AnalysisStats:
    """Exploration effort counters (footnote 4's tractability evidence)."""

    paths: int = 0
    forks: int = 0
    merges: int = 0
    terminations_by_merge: int = 0
    cycles_simulated: int = 0
    fast_forwarded_cycles: int = 0
    instructions: int = 0
    wall_seconds: float = 0.0
    max_taint_fraction: float = 0.0
    #: high-water mark of stored conservative (merged) states
    peak_merged_states: int = 0
    #: paths closed at an untainted-but-unbounded computed jump; non-zero
    #: means the exploration under-approximates and needs heuristics
    incomplete_paths: int = 0
    #: worklist entries never explored because a budget was exhausted;
    #: each was widened to the fully-tainted top state (sound degradation)
    drained_paths: int = 0


@dataclass
class AnalysisResult:
    """Everything Figure 6 promises: per-cycle taints distilled into
    violations, plus the exploration tree and effort statistics."""

    program: Program
    policy: SecurityPolicy
    violations: List[Violation]
    tree: ExecutionTree
    stats: AnalysisStats
    #: budget axes whose exhaustion cut the exploration short (empty for
    #: a complete run); see :class:`repro.resilience.AnalysisBudget`
    exhausted: List[str] = field(default_factory=list)
    #: the :class:`repro.obs.provenance.ProvenanceRecorder` that rode
    #: along with the exploration, or None (recording is opt-in)
    provenance: Optional[ProvenanceRecorder] = None
    #: the :class:`repro.obs.timeline.TimelineRecorder` that captured
    #: per-cycle state frames, or None (recording is opt-in)
    timeline: Optional[TimelineRecorder] = None
    #: the compiled circuit the analysis ran on (net-id space for
    #: provenance slicing)
    circuit: Optional[CompiledCircuit] = None

    def explain(self, violation, max_nodes: int = 4096):
        """Backward-slice *violation* (index or object) to its labelled
        taint origins; see :func:`repro.obs.provenance.explain_violation`."""
        from repro.obs.provenance import explain_violation

        return explain_violation(self, violation, max_nodes=max_nodes)

    @property
    def verdict(self) -> str:
        """``secure`` | ``insecure`` | ``inconclusive``.

        *insecure* -- definite (non-advisory) violations exist; cutting
        exploration short only ever *adds* violations, so these stand.
        *secure* -- exploration completed with no definite violation.
        *inconclusive* -- no violation found, but unexplored work was
        widened away (budget exhaustion) or the exploration was
        incomplete, so security was not proven.
        """
        if [v for v in self.violations if not v.advisory]:
            return "insecure"
        if (
            self.exhausted
            or self.stats.drained_paths
            or self.stats.incomplete_paths
        ):
            return "inconclusive"
        return "secure"

    @property
    def degraded(self) -> bool:
        """True when a budget cut the exploration short (worklist items
        were widened to the fully-tainted top state)."""
        return bool(self.exhausted or self.stats.drained_paths)

    @property
    def secure(self) -> bool:
        """True when no *non-advisory* violation exists (and exploration
        was complete): the non-interference property holds."""
        return self.verdict == "secure"

    def violated_conditions(self, include_advisory: bool = False) -> Set[int]:
        relevant = [
            v
            for v in self.violations
            if include_advisory or not v.advisory
        ]
        return check_conditions(relevant)

    def violating_stores(self) -> List[int]:
        """Program addresses of stores needing masks (root causes, C2)."""
        return sorted(
            {
                violation.address
                for violation in self.violations
                if violation.kind
                == ViolationKind.TAINTED_WRITE_UNTAINTED_MEMORY
            }
        )

    def tasks_needing_watchdog(self) -> List[str]:
        """Tasks whose control flow can become tainted (watchdog repair)."""
        return sorted(
            {
                violation.task
                for violation in self.violations
                if violation.kind == ViolationKind.TAINTED_CONTROL_FLOW
            }
        )

    def report(self) -> str:
        lines = [
            f"analysis of {self.program.name!r} "
            f"under policy {self.policy.name!r} ({self.policy.kind}):",
            f"  paths={self.stats.paths} forks={self.stats.forks} "
            f"merges={self.stats.merges} "
            f"cycles={self.stats.cycles_simulated} "
            f"wall={self.stats.wall_seconds:.2f}s",
        ]
        verdict = self.verdict
        if verdict == "secure":
            lines.append(
                "  SECURE: no possible information-flow violations"
            )
        elif verdict == "inconclusive":
            lines.append(
                "  INCONCLUSIVE: security not proven"
            )
            if self.exhausted:
                lines.append(
                    "  budget(s) exhausted: "
                    + ", ".join(sorted(self.exhausted))
                )
            if self.stats.drained_paths:
                lines.append(
                    f"  {self.stats.drained_paths} unexplored path(s) "
                    "widened to the fully-tainted X state"
                )
            if self.stats.incomplete_paths:
                lines.append(
                    f"  exploration incomplete: "
                    f"{self.stats.incomplete_paths} path(s) ended at an "
                    "unbounded computed control transfer"
                )
            for violation in self.violations:
                lines.append("  " + violation.render())
        else:
            lines.append(
                f"  INSECURE: conditions violated: "
                f"{sorted(self.violated_conditions())}"
            )
            if self.exhausted:
                lines.append(
                    "  budget(s) exhausted: "
                    + ", ".join(sorted(self.exhausted))
                    + " (violations above are definite; more may exist)"
                )
            if self.stats.incomplete_paths:
                lines.append(
                    f"  exploration incomplete: "
                    f"{self.stats.incomplete_paths} path(s) ended at an "
                    "unbounded computed control transfer"
                )
            for violation in self.violations:
                lines.append("  " + violation.render())
        return "\n".join(lines)


@dataclass
class _WorkItem:
    snapshot: SoCState
    node_id: int
    #: False for an item requeued mid-path (interrupt/budget pause), so
    #: the resumed continuation does not double-count as a new path
    counted: bool = True


@dataclass
class _BranchEntry:
    """Per-PC-changing-instruction exploration bookkeeping."""

    #: digests of exactly-explored states (their continuations ran)
    seen: set = field(default_factory=set)
    merged: Optional[SoCState] = None
    #: True once exploration has continued from (a superset of) `merged`,
    #: making merged-coverage a sound termination criterion.
    widened: bool = False


def _site(key) -> str:
    """Human-readable trace label for a merge-table key."""
    return key if isinstance(key, str) else f"0x{key:04x}"


def _state_digest(state: SoCState) -> bytes:
    """A canonical fingerprint of a snapshot (cycle count excluded)."""
    import hashlib

    bits, xmask, tmask, wdt, timer, outputs = state.space_state
    digest = hashlib.sha1()
    digest.update(state.dff_codes.tobytes())
    digest.update(bits.tobytes())
    digest.update(xmask.tobytes())
    digest.update(tmask.tobytes())
    digest.update(
        repr(
            (
                wdt.control,
                wdt.counter,
                wdt.corrupted,
                wdt.pending_reset,
                wdt.pending_reset_taint,
                timer,
                outputs,
                state.pending_por,
            )
        ).encode()
    )
    return digest.digest()


def build_runner(
    program: Program, policy: SecurityPolicy, circuit: CompiledCircuit
) -> GateRunner:
    """The analysis substrate: a gate-level SoC with the policy's taints
    applied (input/output port labels, tainted code words, tainted RAM
    regions)."""
    space = AddressSpace(
        tainted_input_ports=tuple(policy.tainted_input_ports),
        tainted_output_ports=tuple(policy.tainted_output_ports),
    )
    try:
        runner = GateRunner(circuit, program, space=space)
    except ReproError:
        raise
    except Exception as error:
        # The substrate can fail during the power-on reset too; keep
        # the typed-error contract.
        raise SimulationError(
            f"gate-level substrate failed during reset: {error}"
        ) from error
    if policy.taint_code_words:
        untrusted = {t.name for t in program.untrusted_tasks()}
        program.load_rom_tainted(runner.soc.rom, untrusted)
    for region in policy.tainted_memory:
        space.ram.taint_region(region.low, region.high)
    return runner


class TaintTracker:
    """Runs Algorithm 1 for one program under one policy."""

    def __init__(
        self,
        program: Program,
        policy: Optional[SecurityPolicy] = None,
        circuit: Optional[CompiledCircuit] = None,
        exact_branch_visits: int = 512,
        obs=None,
        budget: Optional[AnalysisBudget] = None,
        checkpointer=None,
        provenance: Optional[ProvenanceRecorder] = None,
        timeline: Optional[TimelineRecorder] = None,
        progress: Optional[ProgressEstimator] = None,
        faults: Optional[FaultInjector] = None,
    ):
        self.program = program
        #: observability sink (the no-op NULL_OBSERVER by default)
        self.obs = obs if obs is not None else NULL_OBSERVER
        self.policy = policy if policy is not None else SecurityPolicy()
        self.circuit = circuit if circuit is not None else compiled_cpu()
        #: resource ceilings with sound degradation, and the only bound
        #: on the exploration (``AnalysisBudget()``'s axes when None)
        self.budget = budget if budget is not None else AnalysisBudget()
        #: optional :class:`repro.resilience.Checkpointer` for periodic
        #: and on-interrupt state saves
        self.checkpointer = checkpointer
        #: optional per-bit taint provenance recorder
        self.provenance = provenance
        #: optional per-cycle timeline flight recorder
        self.timeline = timeline
        #: what the SoC carries during :meth:`run` (and only then, so
        #: the power-on reset below stays unrecorded): the observer, the
        #: recorders and an optional seeded fault injector
        self.instruments = Instruments(self.obs, provenance, timeline, faults)
        #: optional :class:`repro.resilience.ProgressEstimator` taking
        #: periodic exploration snapshots
        self.progress = progress
        if progress is not None:
            progress.attach(self)
        #: how many times a concrete PC-changing instruction is revisited
        #: *exactly* before switching to Algorithm 1's continue-from-the-
        #: conservative-state widening.  Bounded constant-trip loops below
        #: this budget simulate precisely (so clean kernels verify clean);
        #: anything longer converges through the conservative merge.
        self.exact_branch_visits = exact_branch_visits
        self._visit_counts: Dict[object, int] = {}
        #: each fetched address's decode (None: not an instruction); the
        #: program is fixed, so one decode per address serves the run
        self._decoded: Dict[int, Optional[DecodedInstruction]] = {}

        self.runner = build_runner(program, self.policy, self.circuit)

        self.checker = PolicyChecker(program, self.policy)
        self.tree = ExecutionTree()
        self.stats = AnalysisStats()
        self._table: Dict[object, SoCState] = {}
        self._merged_states = 0
        self._scratch_space = AddressSpace()
        #: unexplored work; None until run() (or a resume) seeds it, so
        #: a resumed tracker does not re-create the root node
        self._worklist: Optional[List[_WorkItem]] = None
        self._interrupt_reason: Optional[str] = None
        self._exhausted: List[str] = []

    # ------------------------------------------------------------------
    # Snapshot lattice (via a scratch AddressSpace for peripheral state)
    # ------------------------------------------------------------------
    def _covers(self, general: SoCState, specific: SoCState) -> bool:
        if not codes_cover(general.dff_codes, specific.dff_codes):
            return False
        if not _por_covers(general.pending_por, specific.pending_por):
            return False
        self._scratch_space.restore(general.space_state)
        return self._scratch_space.covers(specific.space_state)

    def _merge(self, a: SoCState, b: SoCState) -> SoCState:
        self._scratch_space.restore(a.space_state)
        self._scratch_space.merge(b.space_state)
        return SoCState(
            dff_codes=codes_merge(a.dff_codes, b.dff_codes),
            space_state=self._scratch_space.snapshot(),
            pending_por=_por_merge(a.pending_por, b.pending_por),
            cycle=max(a.cycle, b.cycle),
        )

    def _entry(self, key) -> "_BranchEntry":
        entry = self._table.get(key)
        if entry is None:
            entry = _BranchEntry()
            self._table[key] = entry
        return entry

    def _note_merged_state(self) -> None:
        self._merged_states += 1
        if self._merged_states > self.stats.peak_merged_states:
            self.stats.peak_merged_states = self._merged_states

    def _absorb(self, entry: "_BranchEntry", key, state: SoCState) -> None:
        """Fold *state* into *entry*'s merged state: the first state at a
        site becomes it, a later one is merged in, counted and traced."""
        if entry.merged is None:
            entry.merged = state
            self._note_merged_state()
        else:
            entry.merged = self._merge(entry.merged, state)
            self.stats.merges += 1
            if self.obs.enabled:
                self.obs.emit("merge", site=_site(key), cycle=state.cycle)

    def _visit_widening(self, key, state: SoCState) -> Tuple[bool, SoCState]:
        """Conservative-state bookkeeping for widening points (X-PC forks
        and power-on resets), where exploration continues from the merged
        state -- so a later state covered by the merge is soundly done.

        Returns ``(already_covered, merged_state)``.
        """
        entry = self._entry(key)
        if (
            entry.widened
            and entry.merged is not None
            and self._covers(entry.merged, state)
        ):
            self.stats.terminations_by_merge += 1
            return True, entry.merged
        self._absorb(entry, key, state)
        entry.widened = True
        return False, entry.merged

    def _visit_concrete(
        self, key, state: SoCState, digest: Optional[bytes] = None
    ) -> Tuple[str, SoCState]:
        """Bookkeeping for concrete PC-changing instructions.

        Within the exact-visit budget each visited state is fingerprinted;
        revisiting an *identical* state is a true "already explored" (its
        continuation ran -- or is this very loop, which then repeats
        forever).  The accumulated merge only becomes a termination
        criterion after the budget forces a switch to the conservative
        continuation, which is when the merged state's behaviour actually
        gets explored (Section 4.1's "simulation continues from the
        conservative state").

        Returns ``(verdict, state_to_continue_from)`` with verdict one of
        ``"stop"``, ``"exact"``, ``"widened"``.
        """
        entry = self._entry(key)
        if digest is None:
            digest = _state_digest(state)
        if digest in entry.seen:
            self.stats.terminations_by_merge += 1
            return "stop", state
        if (
            entry.widened
            and entry.merged is not None
            and self._covers(entry.merged, state)
        ):
            self.stats.terminations_by_merge += 1
            return "stop", entry.merged
        self._absorb(entry, key, state)
        if len(entry.seen) < self.exact_branch_visits:
            entry.seen.add(digest)
            return "exact", state
        entry.widened = True
        return "widened", entry.merged

    # ------------------------------------------------------------------
    # Shadow decode
    # ------------------------------------------------------------------
    def _decode_at(self, address: int) -> Optional[DecodedInstruction]:
        soc = self.runner.soc
        faults = soc.instruments.faults
        if faults is not None and faults.on_decode(
            address, soc.cycle, soc.instruments.obs
        ):
            return None  # injected decode failure: path ends "illegal"
        if address not in self._decoded:
            try:
                decoded = decode(self.program.slice_from(address), address)
            except EncodeError:
                decoded = None
            self._decoded[address] = decoded
        return self._decoded[address]

    def _task_info(self, address: int) -> Tuple[str, bool]:
        task = self.program.task_of(address)
        if task is None:
            return "", True
        return task.name, task.trusted

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> AnalysisResult:
        """Explore to completion, budget exhaustion, or interrupt.

        On budget exhaustion the remaining worklist is *drained*: every
        unexplored snapshot is widened to the fully-tainted top state and
        the result's verdict degrades to ``inconclusive`` (or stays
        ``insecure`` when definite violations were already found) -- the
        run never discards its work by raising.  On a cooperative
        interrupt (:meth:`request_interrupt`) the state is checkpointed
        (when a checkpointer is attached) and a typed
        :class:`AnalysisInterrupted` is raised; the tracker itself stays
        resumable, in-process via a second :meth:`run` call or across
        processes via :meth:`restore_checkpoint`.
        """
        obs = self.obs
        start_time = CLOCK.wall()
        soc = self.runner.soc
        soc.arm(self.instruments)
        try:
            if self._worklist is None:
                root = self.tree.new_node(None, 0, soc.cycle)
                self._worklist = [_WorkItem(soc.snapshot(), root.node_id)]
            worklist = self._worklist
            budget = self.budget
            budget.start()
            self._exhausted = []
            with obs.span("explore"):
                self._run_worklist(worklist, budget)
        finally:
            soc.arm()
            self.stats.wall_seconds += CLOCK.wall() - start_time

        if self.progress is not None:
            # One last authoritative snapshot (drained worklists leave
            # pending at 0; budget exhaustion leaves its fractions at 1).
            self.progress.update(len(worklist), force=True, done=True)
        with obs.span("check"):
            violations = self.checker.violations()
        self._publish(obs, violations)
        return AnalysisResult(
            program=self.program,
            policy=self.policy,
            violations=violations,
            tree=self.tree,
            stats=self.stats,
            exhausted=list(self._exhausted),
            provenance=self.provenance,
            timeline=self.timeline,
            circuit=self.circuit,
        )

    def _run_worklist(
        self, worklist: List[_WorkItem], budget: AnalysisBudget
    ) -> None:
        """Drain the fork tree depth-first.

        The order is part of the result: the worklist is a LIFO stack
        (fork children are pushed in successor order, so the last one
        runs first), and merge-table visits, forks and checker records
        happen in the order this loop reaches them.  Merges widen the
        stored state in visit order and the checker keeps the first
        record per dedup key, so any explorer that evaluates several
        items at once must apply their effects in this same order to
        reproduce the verdict, statistics and tree bit-for-bit."""
        soc = self.runner.soc
        while worklist:
            if self._interrupt_reason is not None:
                self._handle_interrupt()
            reasons = budget.exhausted_reasons(
                self.stats, self._merged_states
            )
            if reasons:
                self._drain(worklist, reasons)
                break
            if (
                self.checkpointer is not None
                and self.checkpointer.due(self.stats.paths)
            ):
                self.checkpointer.save(self)
            item = worklist.pop()
            soc.restore(item.snapshot)
            if item.counted:
                self.stats.paths += 1
            if self.progress is not None:
                self.progress.update(len(worklist))
            try:
                self._explore_path(item.node_id, worklist)
            except ReproError:
                raise
            except Exception as error:
                raise SimulationError(
                    "gate-level exploration failed at cycle "
                    f"{soc.cycle} (path {self.stats.paths}): "
                    f"{error}",
                    cycle=soc.cycle,
                    paths=self.stats.paths,
                    node=item.node_id,
                ) from error

    # ------------------------------------------------------------------
    # Resilience: interrupts, degradation, checkpoint/resume
    # ------------------------------------------------------------------
    def request_interrupt(self, reason: str = "interrupt") -> None:
        """Ask the exploration to stop at the next safe boundary (a
        worklist pop or an instruction fetch).  Signal-handler safe: it
        only sets a flag."""
        self._interrupt_reason = reason

    def _handle_interrupt(self) -> None:
        reason = self._interrupt_reason or "interrupt"
        self._interrupt_reason = None
        path = None
        if self.checkpointer is not None:
            path = str(self.checkpointer.save(self, reason=reason))
        if self.obs.enabled:
            self.obs.emit(
                "interrupted",
                reason=reason,
                checkpoint=path,
                paths=self.stats.paths,
                cycles=self.stats.cycles_simulated,
            )
        message = (
            f"analysis interrupted ({reason}) after "
            f"{self.stats.paths} path(s) / "
            f"{self.stats.cycles_simulated} cycles"
        )
        if path is not None:
            message += f"; checkpoint saved to {path}"
        raise AnalysisInterrupted(
            message,
            reason=reason,
            checkpoint=path,
            paths=self.stats.paths,
            cycles=self.stats.cycles_simulated,
        )

    def _widen_to_top(self, snapshot: SoCState) -> SoCState:
        """The fully-tainted top state at *snapshot*'s position: every
        DFF and RAM word becomes tainted-``X``.  Any continuation of the
        real state is covered by this, which is what makes draining
        unexplored work sound (over-taint only adds violations)."""
        bits, xmask, tmask, wdt, timer, outputs = snapshot.space_state
        return SoCState(
            dff_codes=np.full_like(snapshot.dff_codes, 5),
            space_state=(
                np.zeros_like(bits),
                np.full_like(xmask, 0xFFFF),
                np.full_like(tmask, 0xFFFF),
                wdt,
                timer,
                outputs,
            ),
            pending_por=(UNKNOWN, 1),
            cycle=snapshot.cycle,
        )

    def _drain(self, worklist: List[_WorkItem], reasons: List[str]) -> None:
        """Sound degradation: widen every unexplored worklist entry to
        the top state, record it in the merge table, and mark the
        analysis as budget-exhausted (verdict becomes inconclusive)."""
        obs = self.obs
        entry = self._entry("DRAINED")
        for item in worklist:
            widened = self._widen_to_top(item.snapshot)
            if entry.merged is None:
                entry.merged = widened
                self._note_merged_state()
            else:
                entry.merged = self._merge(entry.merged, widened)
            entry.widened = True
            node = self.tree.nodes[item.node_id]
            node.end_reason = "drained"
            node.end_cycle = item.snapshot.cycle
            self.stats.drained_paths += 1
            if obs.enabled:
                obs.emit(
                    "degraded",
                    node=item.node_id,
                    cycle=item.snapshot.cycle,
                    reasons=list(reasons),
                )
        worklist.clear()
        self._exhausted = list(reasons)
        if obs.enabled:
            obs.emit(
                "budget_exhausted",
                reasons=list(reasons),
                paths=self.stats.paths,
                cycles=self.stats.cycles_simulated,
                drained=self.stats.drained_paths,
            )

    def config_digest(self) -> str:
        """Fingerprint of everything a checkpoint's validity depends on:
        the program image (code + initial data + taints), the policy, and
        the netlist shape."""
        import hashlib

        digest = hashlib.sha256()
        rom = self.runner.soc.rom
        digest.update(rom.words.tobytes())
        digest.update(rom.tmask.tobytes())
        digest.update(repr(sorted(self.program.data.items())).encode())
        policy = self.policy
        digest.update(
            repr(
                (
                    policy.name,
                    policy.kind,
                    sorted(policy.tainted_input_ports),
                    sorted(policy.tainted_output_ports),
                    tuple(
                        (r.low, r.high) for r in policy.tainted_memory
                    ),
                    policy.taint_code_words,
                    policy.strict_conditions,
                )
            ).encode()
        )
        digest.update(str(len(self.circuit.netlist.net_names)).encode())
        return digest.hexdigest()

    def export_checkpoint(self) -> dict:
        """Everything needed to continue this exploration elsewhere."""
        worklist = self._worklist if self._worklist is not None else []
        return {
            "worklist": [
                (item.snapshot, item.node_id, item.counted)
                for item in worklist
            ],
            "table": self._table,
            "stats": self.stats,
            "tree_nodes": self.tree.nodes,
            "tree_next_id": self.tree._next_id,
            "checker": self.checker.export_state(),
            "merged_states": self._merged_states,
            "provenance": (
                self.provenance.export_state()
                if self.provenance is not None
                else None
            ),
            "timeline": (
                self.timeline.export_state()
                if self.timeline is not None
                else None
            ),
            "obs": self.obs.export_state(),
        }

    def restore_checkpoint(self, payload: dict) -> None:
        """Adopt a checkpoint payload (see :mod:`repro.resilience`'s
        ``read_checkpoint`` for validation) and become resumable."""
        self._worklist = [
            _WorkItem(snapshot, node_id, counted)
            for snapshot, node_id, counted in payload["worklist"]
        ]
        self._table = payload["table"]
        self.stats = payload["stats"]
        self.tree.nodes = payload["tree_nodes"]
        self.tree._next_id = payload["tree_next_id"]
        self.checker.restore_state(payload["checker"])
        self._merged_states = payload["merged_states"]
        # Keys added after checkpoint-format introduction: absent in old
        # checkpoints, so .get() keeps them restorable.
        provenance_state = payload.get("provenance")
        if provenance_state is not None and self.provenance is not None:
            self.provenance.restore_state(provenance_state)
        timeline_state = payload.get("timeline")
        if timeline_state is not None and self.timeline is not None:
            self.timeline.restore_state(timeline_state)
        obs_state = payload.get("obs")
        if obs_state is not None:
            self.obs.restore_state(obs_state)

    def _publish(self, obs, violations: List[Violation]) -> None:
        """Roll the completed run into metrics and trace events."""
        if not obs.enabled:
            return
        stats = self.stats
        metrics = obs.metrics
        metrics.counter("tracker.cycles").inc(stats.cycles_simulated)
        metrics.counter("tracker.fast_forwarded_cycles").inc(
            stats.fast_forwarded_cycles
        )
        metrics.counter("tracker.instructions").inc(stats.instructions)
        metrics.counter("tracker.paths").inc(stats.paths)
        metrics.counter("tracker.forks").inc(stats.forks)
        metrics.counter("tracker.merges").inc(stats.merges)
        metrics.counter("tree.nodes").inc(len(self.tree))
        metrics.counter("tree.pruned").inc(stats.terminations_by_merge)
        metrics.counter("tracker.incomplete_paths").inc(
            stats.incomplete_paths
        )
        metrics.counter("tracker.drained_paths").inc(stats.drained_paths)
        metrics.counter("tracker.violations").inc(len(violations))
        metrics.gauge("tracker.peak_merged_states").update_max(
            stats.peak_merged_states
        )
        if self.provenance is not None:
            summary = self.provenance.snapshot()
            metrics.counter("provenance.edges").inc(
                summary["edges_recorded"]
            )
            metrics.gauge("provenance.retained").set(
                summary["edges_retained"]
            )
            obs.emit(
                "provenance",
                edges=summary["edges_recorded"],
                retained=summary["edges_retained"],
                capacity=summary["capacity"],
                truncated=summary["truncated"],
                labels=summary["labels"],
            )
            if summary["truncated"]:
                fields = {
                    "edges": summary["edges_recorded"],
                    "capacity": summary["capacity"],
                }
                if summary["truncated_by"]:
                    fields["reason"] = ",".join(summary["truncated_by"])
                obs.emit("provenance_truncated", **fields)
        if self.timeline is not None:
            summary = self.timeline.snapshot()
            metrics.counter("timeline.frames").inc(summary["frames"])
            metrics.gauge("timeline.keyframes").set(summary["keyframes"])
            obs.emit(
                "timeline",
                frames=summary["frames"],
                keyframes=summary["keyframes"],
                truncated=summary["truncated"],
                max_frames=summary["max_frames"],
            )
        for violation in violations:
            obs.emit(
                "violation",
                kind=violation.kind,
                condition=violation.condition,
                address=violation.address,
                task=violation.task,
                advisory=violation.advisory,
            )

    # ------------------------------------------------------------------
    def _explore_path(
        self, node_id: int, worklist: List[_WorkItem]
    ) -> None:
        soc = self.runner.soc
        node = self.tree.nodes[node_id]
        progress = self.progress
        current: Optional[DecodedInstruction] = None
        task_name, task_trusted = "", True
        baseline_taint: Optional[np.ndarray] = None
        control_tainted = False

        while True:
            phase = self.runner.phase()
            if phase == PHASE_F and (
                self._interrupt_reason is not None
                or self.budget.mid_path_exhausted(self.stats)
            ):
                # Pause at the fetch boundary: requeue this exact state
                # (resuming from it re-derives every per-instruction
                # local, so the continuation is bit-identical) and let
                # run() decide -- checkpoint+raise on interrupt, drain
                # on budget exhaustion.
                worklist.append(
                    _WorkItem(soc.snapshot(), node.node_id, counted=False)
                )
                return
            if phase < 0:
                # The FSM's own state bits are unknown: the machine has
                # diverged beyond cycle-accurate tracking (e.g. a corrupted
                # watchdog's tainted reset rail).  The root-cause violation
                # is already on record; close the path.
                node.end_reason = "state_lost"
                node.end_cycle = soc.cycle
                if current is not None:
                    self.checker.note_unbounded_control(
                        current, task_name, task_trusted, soc.cycle,
                        tainted=True,
                    )
                return
            if phase == 0:  # F: an instruction fetch is about to happen
                if progress is not None:
                    progress.tick(len(worklist))
                pc_word = soc.pc()
                if pc_word.xmask:
                    raise TrackerError(
                        "PC unknown at a fetch boundary; fork handling "
                        "should have concretised it"
                    )
                address = pc_word.bits
                current = self._decode_at(address)
                if current is None:
                    node.end_reason = "illegal"
                    node.end_cycle = soc.cycle
                    return
                task_name, task_trusted = self._task_info(address)
                control_tainted = bool(pc_word.tmask)
                dff_codes = self.circuit.dff_state(soc.state)
                baseline_taint = dff_codes & 1
                if self.obs.enabled:
                    self.obs.histogram("tracker.taint_density").observe(
                        float(baseline_taint.mean())
                    )
                self.checker.note_instruction_start(
                    current,
                    task_name,
                    task_trusted,
                    soc.cycle,
                    any_state_taint=bool(baseline_taint.any()),
                    pc_taint=pc_word.tmask,
                )
                self.stats.instructions += 1

            events = soc.step()
            self.stats.cycles_simulated += 1
            if events.reset[0] != ONE:
                self.checker.note_events(
                    current,
                    task_name,
                    task_trusted,
                    events,
                    soc.space.watchdog.corrupted,
                    control_tainted=control_tainted,
                )

            if events.reset[0] == ONE:
                # A power-on reset boundary (watchdog expiry); converge on
                # the conservative post-reset state.
                current = None
                covered, merged = self._visit_widening(
                    "POR", soc.snapshot()
                )
                if covered:
                    node.end_reason = "merged"
                    node.end_cycle = soc.cycle
                    if self.obs.enabled:
                        self.obs.emit(
                            "prune",
                            site="POR",
                            node=node.node_id,
                            cycle=soc.cycle,
                        )
                    return
                soc.restore(merged)
                continue

            if phase in (PHASE_E, PHASE_J) and current is not None:
                if task_trusted and baseline_taint is not None:
                    taint_now = self.circuit.dff_state(soc.state) & 1
                    self.checker.note_instruction_end(
                        current,
                        task_name,
                        task_trusted,
                        soc.cycle,
                        taint_grew=bool(
                            (taint_now & ~baseline_taint).any()
                        ),
                    )
                done = self._instruction_completed(
                    current, node, worklist
                )
                if done:
                    return
                current = None

    # ------------------------------------------------------------------
    def _instruction_completed(
        self,
        instruction: DecodedInstruction,
        node: TreeNode,
        worklist: List[_WorkItem],
    ) -> bool:
        """Handle PC-changing instructions; True ends the current path."""
        soc = self.runner.soc
        pc_word = soc.pc()

        if pc_word.xmask:
            return self._fork(instruction, pc_word, node, worklist)

        # Idle self-loop: fast-forward to watchdog expiry or end the path.
        if instruction.is_self_loop:
            watchdog = soc.space.watchdog
            remaining = watchdog.cycles_until_expiry()
            if remaining is None:
                node.end_reason = "halt"
                node.end_cycle = soc.cycle
                return True
            por = watchdog.fast_forward(remaining)
            soc.space.timer.fast_forward(remaining)
            soc.pending_por = por
            soc.cycle += remaining
            self.stats.fast_forwarded_cycles += remaining
            return False

        changes_pc = (
            instruction.is_jump
            or instruction.writes_pc
            or instruction.mnemonic == "call"
        )
        if not changes_pc:
            return False

        key = instruction.address
        verdict, continuation = self._visit_concrete(key, soc.snapshot())
        if verdict == "stop":
            node.end_reason = "merged"
            node.end_cycle = soc.cycle
            if self.obs.enabled:
                self.obs.emit(
                    "prune",
                    site=_site(key),
                    node=node.node_id,
                    cycle=soc.cycle,
                )
            return True
        if verdict == "widened":
            # Continue from the conservative state (Section 4.1), keeping
            # the PC on this path's concrete successor.
            soc.restore(continuation)
            merged_pc_taint = soc.pc().tmask
            soc.force_pc(pc_word.bits, pc_word.tmask | merged_pc_taint)
            if self.obs.enabled:
                self.obs.emit(
                    "widen",
                    site=_site(key),
                    node=node.node_id,
                    cycle=soc.cycle,
                )
        return False

    # ------------------------------------------------------------------
    def _fork(
        self,
        instruction: DecodedInstruction,
        pc_word: TWord,
        node: TreeNode,
        worklist: List[_WorkItem],
    ) -> bool:
        soc = self.runner.soc
        if instruction.is_conditional_jump:
            candidates = [instruction.jump_target, instruction.fallthrough]
        else:
            try:
                candidates = sorted(
                    pc_word.possible_values(limit=FORK_LIMIT)
                )
            except EnumerationLimitError:
                # A computed control transfer through a widely unknown
                # target (e.g. a return address clobbered by the Figure 4
                # smear).  Exploring 64K successors is pointless; report
                # the control-flow loss and close the path.  When the
                # target is untainted the analysis is marked incomplete
                # instead of silently under-approximating.
                task_name, task_trusted = self._task_info(
                    instruction.address
                )
                self.checker.note_unbounded_control(
                    instruction,
                    task_name,
                    task_trusted,
                    soc.cycle,
                    tainted=bool(pc_word.tmask),
                )
                if not pc_word.tmask:
                    self.stats.incomplete_paths += 1
                node.end_reason = "unbounded"
                node.end_cycle = soc.cycle
                node.fork_address = instruction.address
                return True
            except ValueError as error:
                # Any *other* ValueError is a genuine bug, not the
                # enumeration tripwire: surface it typed, with the fork
                # site fully identified, instead of silently closing the
                # path as "unbounded control".
                raise ForkError(
                    "PC concretisation failed at fork site "
                    f"pc=0x{instruction.address:04x} "
                    f"cycle={soc.cycle} "
                    f"(fork #{self.stats.forks + 1}): {error}",
                    pc=instruction.address,
                    cycle=soc.cycle,
                    forks=self.stats.forks,
                ) from error

        covered, merged = self._visit_widening(
            instruction.address, soc.snapshot()
        )
        node.end_reason = "merged" if covered else "fork"
        node.end_cycle = soc.cycle
        node.fork_address = instruction.address
        if covered:
            if self.obs.enabled:
                self.obs.emit(
                    "prune",
                    site=_site(instruction.address),
                    node=node.node_id,
                    cycle=soc.cycle,
                )
            return True

        self.stats.forks += 1
        children = []
        for candidate in candidates:
            soc.restore(merged)
            soc.force_pc(candidate, pc_word.tmask)
            child = self.tree.new_node(
                node.node_id, candidate, soc.cycle, pc_taint=pc_word.tmask
            )
            worklist.append(_WorkItem(soc.snapshot(), child.node_id))
            children.append(child.node_id)
        if self.obs.enabled:
            self.obs.emit(
                "fork",
                site=_site(instruction.address),
                node=node.node_id,
                children=children,
                targets=[f"0x{c:04x}" for c in candidates],
                pc_tainted=bool(pc_word.tmask),
                cycle=soc.cycle,
            )
        return True
