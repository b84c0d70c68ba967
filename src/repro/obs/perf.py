"""Hot-path attribution for the compiled gate-level simulator.

The aggregate ``cycles_per_second`` in ``BENCH_simulator_gate_level.json``
says nothing about *which* ranks burn the time, nor how much of the
circuit is quiescent.  :class:`PerfAttribution` is the evidence layer.
Armed via :func:`install_perf` (or the :func:`record_perf` context
manager), the gate kernel in :mod:`repro.sim.compiled` times every rank
and the recorder accumulates

* **per-rank evaluation time** -- every rank of every evaluation plan
  is timed on every pass, so the report can say "rank 7 is 14% of eval
  time".  A rank evaluates all its cell types in one
  kernel call, so time is not split by cell type; per-cell-type
  *evaluation counts* (gates x passes) come from the plan's shape;
* **pass and clock-edge totals** -- the difference between a pass's
  wall time and the sum of its rank times is the interpreter's own
  dispatch overhead, reported separately instead of vanishing;
* **cone activity** -- on sampled full passes (every
  ``sample_every``-th), the recorder diffs the whole code array against
  the previous sample and folds the change mask into per-output-port
  fan-in cones: how often each cone's *boundary inputs* (flip-flop Qs,
  ports, constants) changed at all (activity), how often they did not
  (the quiescence map), and what fraction of the cone's internal nets
  toggled (toggle rate).

Everything is exported as one typed JSON document
(:meth:`PerfAttribution.to_document`, ``schema`` 3) which
``repro perf`` renders as a self-contained HTML treemap
(:mod:`repro.obs.perfview`).  The instrumentation is opt-in and benched:
``benchmarks/bench_perf_attribution.py`` holds the overhead under 15%.

When a taint-provenance recorder is armed at the same time, provenance
wins (its recording evaluation path is the one running) and the
attribution recorder sees nothing; arm one at a time.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

#: Document schema version for :meth:`PerfAttribution.to_document`.
#: Schema 3 times ranks only: per-cell-type entries carry evaluation
#: counts, not seconds.
PERF_SCHEMA = 3


class _ConeStats:
    """Sampled activity statistics for one output-port fan-in cone."""

    __slots__ = (
        "port", "members", "inputs", "samples", "active",
        "toggle_sum", "depth",
    )

    def __init__(self, port: str, members: np.ndarray, inputs: np.ndarray,
                 depth: int):
        self.port = port
        self.members = members    # nets produced inside the cone
        self.inputs = inputs      # boundary nets: DFF Qs, ports, consts
        self.depth = depth        # deepest rank the cone reaches
        self.samples = 0
        self.active = 0           # samples where any boundary input changed
        self.toggle_sum = 0.0     # sum of per-sample member-change fractions


class PerfAttribution:
    """Accumulating/sampling attribution recorder for the simulator.

    One instance per measured run.  The compiled circuit calls
    :meth:`ensure_bound` once and :meth:`group_slots` per timed pass,
    and adds rank times straight into the slot list; the cone sampling
    happens in :meth:`sample` after full passes.
    """

    def __init__(self, sample_every: int = 16):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        #: evaluation plan -> (per-rank seconds, pass kind, [passes])
        self._plans: Dict[object, tuple] = {}
        self._bound = None
        self._cones: List[_ConeStats] = []
        self._prev_codes: Optional[np.ndarray] = None
        self._full_passes = 0
        self._interface_passes = 0
        self._samples = 0
        self._changed_sum = 0.0
        self.clock_seconds = 0.0
        self.clock_edges = 0
        #: wall seconds per pass kind, including dispatch overhead
        self.pass_seconds: Dict[str, float] = {"full": 0.0, "interface": 0.0}

    # ------------------------------------------------------------------
    # Binding (cone discovery)
    # ------------------------------------------------------------------
    def ensure_bound(self, circuit) -> None:
        """Build the per-output-port fan-in cones once per circuit."""
        if self._bound is circuit:
            return
        self._bound = circuit
        self._cones = []
        self._prev_codes = None
        netlist = circuit.netlist
        producers: Dict[int, object] = {}
        for gate in netlist.gates:
            producers[gate.output] = gate
        rank_of: Dict[int, int] = {}
        from repro.netlist.levelize import levelize

        for depth, level in enumerate(levelize(netlist)[1:]):
            for gate in level:
                rank_of[gate.output] = depth
        for port in netlist.outputs:
            members: List[int] = []
            boundary: List[int] = []
            seen = set()
            stack = list(port.nets)
            depth = 0
            while stack:
                net = stack.pop()
                if net in seen:
                    continue
                seen.add(net)
                gate = producers.get(net)
                if gate is None:
                    boundary.append(net)
                    continue
                members.append(net)
                depth = max(depth, rank_of.get(net, 0))
                stack.extend(gate.inputs)
            self._cones.append(
                _ConeStats(
                    port.name,
                    np.array(sorted(members), dtype=np.int64),
                    np.array(sorted(boundary), dtype=np.int64),
                    depth,
                )
            )

    # ------------------------------------------------------------------
    # Accumulation API (called from repro.sim.compiled)
    # ------------------------------------------------------------------
    def group_slots(self, plan, kind: str) -> List[float]:
        """The per-rank seconds accumulators of *plan*, created on first
        sight.

        The kernel adds each rank's wall time straight into
        ``slots[rank_index]``, so the per-rank cost is one
        ``perf_counter`` call and one float add.
        """
        entry = self._plans.get(plan)
        if entry is None:
            entry = self._plans[plan] = ([0.0] * len(plan.ranks), kind, [0])
        # Called exactly once per timed pass: the pass count times each
        # rank's gate counts gives the eval counts at report time, so
        # the kernel does not pay a per-rank counter add.
        entry[2][0] += 1
        return entry[0]

    def note_pass(self, kind: str, seconds: float) -> None:
        self.pass_seconds[kind] = (
            self.pass_seconds.get(kind, 0.0) + seconds
        )
        if kind == "full":
            self._full_passes += 1
        else:
            self._interface_passes += 1

    def note_clock_edge(self, seconds: float) -> None:
        self.clock_seconds += seconds
        self.clock_edges += 1

    def sample(self, codes: np.ndarray) -> None:
        """Fold one full pass's post-eval codes into the cone stats.

        Called after every full pass; only every ``sample_every``-th
        call pays for the diff.  The first sampled pass seeds the
        reference snapshot and is not counted.
        """
        if self._full_passes % self.sample_every:
            return
        previous = self._prev_codes
        self._prev_codes = codes.copy()
        if previous is None or len(previous) != len(codes):
            return
        changed = codes != previous
        self._samples += 1
        self._changed_sum += float(changed.mean())
        for cone in self._cones:
            cone.samples += 1
            if len(cone.inputs) and bool(changed[cone.inputs].any()):
                cone.active += 1
            # Pass-through cones (a port wired straight to flip-flop
            # Qs) have no internal nets; their toggle basis is the
            # boundary itself.
            basis = cone.members if len(cone.members) else cone.inputs
            if len(basis):
                cone.toggle_sum += float(changed[basis].mean())

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def eval_seconds(self) -> float:
        """Total wall seconds in evaluation passes (incl. dispatch)."""
        return sum(self.pass_seconds.values())

    @property
    def attributed_eval_seconds(self) -> float:
        """Seconds attributed to specific ranks."""
        return sum(sum(entry[0]) for entry in self._plans.values())

    def to_document(self) -> dict:
        """The typed attribution document (``schema`` 3)."""
        ranks: List[dict] = []
        cell_types: Dict[str, Dict[str, int]] = {}
        # Full-pass plans first; plans of one kind in first-seen order.
        for plan, (slots, kind, passes) in sorted(
            self._plans.items(), key=lambda item: item[1][1]
        ):
            for index, (rank, seconds) in enumerate(zip(plan.ranks, slots)):
                cells = {}
                for cell_type, gates in rank.cells:
                    evals = gates * passes[0]
                    cells[cell_type] = {"evals": evals, "gates": gates}
                    aggregate = cell_types.setdefault(cell_type, {"evals": 0})
                    aggregate["evals"] += evals
                gates_per_pass = sum(gates for _type, gates in rank.cells)
                ranks.append(
                    {
                        "kind": kind,
                        "rank": index,
                        "seconds": seconds,
                        "evals": gates_per_pass * passes[0],
                        "gates_per_pass": gates_per_pass,
                        "cells": cells,
                    }
                )
        cones = [
            {
                "port": cone.port,
                "member_nets": int(len(cone.members)),
                "input_nets": int(len(cone.inputs)),
                "depth": cone.depth,
                "samples": cone.samples,
                "active_fraction": (
                    cone.active / cone.samples if cone.samples else None
                ),
                "quiescent_fraction": (
                    1.0 - cone.active / cone.samples
                    if cone.samples
                    else None
                ),
                "toggle_rate": (
                    cone.toggle_sum / cone.samples if cone.samples else None
                ),
            }
            for cone in self._cones
        ]
        attributed = self.attributed_eval_seconds
        return {
            "schema": PERF_SCHEMA,
            "sample_every": self.sample_every,
            "passes": {
                "full": self._full_passes,
                "interface": self._interface_passes,
            },
            "eval_seconds": self.eval_seconds,
            "attributed_group_seconds": attributed,
            "dispatch_seconds": max(0.0, self.eval_seconds - attributed),
            "clock_seconds": self.clock_seconds,
            "clock_edges": self.clock_edges,
            "ranks": ranks,
            "cell_types": {
                name: stats for name, stats in sorted(cell_types.items())
            },
            "activity": {
                "samples": self._samples,
                "mean_changed_fraction": (
                    self._changed_sum / self._samples
                    if self._samples
                    else None
                ),
            },
            "cones": sorted(
                cones, key=lambda cone: cone["port"]
            ),
        }


# ---------------------------------------------------------------------------
# Process-wide installation (mirrors the provenance-recorder idiom)
# ---------------------------------------------------------------------------
_current_perf: Optional[PerfAttribution] = None


def get_perf() -> Optional[PerfAttribution]:
    """The armed attribution recorder, or None (the common fast path)."""
    return _current_perf


def install_perf(
    recorder: Optional[PerfAttribution],
) -> Optional[PerfAttribution]:
    """Install *recorder* process-wide; returns the previous one."""
    global _current_perf
    previous = _current_perf
    _current_perf = recorder
    return previous


@contextmanager
def record_perf(recorder: PerfAttribution):
    """Arm *recorder* for the duration of a ``with`` block."""
    previous = install_perf(recorder)
    try:
        yield recorder
    finally:
        install_perf(previous)


class PerfHarness:
    """Wall-clock decomposition of a gate-level run for ``repro perf``.

    The attribution recorder accounts for time *inside* the compiled
    circuit (rank evals, dispatch, clock edges).  The harness measures
    the rest from outside -- per-step totals and the halt-probe -- so
    the final document can show that the sum of its measured components
    covers the run's wall time (the acceptance bar is within 10%).
    """

    def __init__(self, runner, recorder: PerfAttribution):
        self.runner = runner
        self.recorder = recorder
        self.step_seconds = 0.0
        self.halt_seconds = 0.0
        self.wall_seconds = 0.0
        self.cycles = 0

    def run(self, max_cycles: int, stop_at_halt: bool = True) -> int:
        runner = self.runner
        start_cycle = runner.soc.cycle
        with record_perf(self.recorder):
            wall_start = perf_counter()
            while runner.soc.cycle - start_cycle < max_cycles:
                if stop_at_halt:
                    probe_start = perf_counter()
                    halted = runner.at_halt()
                    self.halt_seconds += perf_counter() - probe_start
                    if halted:
                        break
                step_start = perf_counter()
                runner.step()
                self.step_seconds += perf_counter() - step_start
            self.wall_seconds = perf_counter() - wall_start
        self.cycles = runner.soc.cycle - start_cycle
        return self.cycles

    def to_document(self, workload: str) -> dict:
        """The full ``repro perf`` document: attribution + harness."""
        document = self.recorder.to_document()
        sim_seconds = (
            self.recorder.eval_seconds + self.recorder.clock_seconds
        )
        # Python-side SoC work (port decode, memory model, ROM fetch)
        # is the measured step total minus the circuit-internal time.
        soc_seconds = max(0.0, self.step_seconds - sim_seconds)
        attributed = sim_seconds + soc_seconds + self.halt_seconds
        document.update(
            {
                "workload": workload,
                "cycles": self.cycles,
                "wall_seconds": self.wall_seconds,
                "step_seconds": self.step_seconds,
                "halt_probe_seconds": self.halt_seconds,
                "soc_python_seconds": soc_seconds,
                "attributed_seconds": attributed,
                "attributed_fraction": (
                    attributed / self.wall_seconds
                    if self.wall_seconds
                    else None
                ),
                "cycles_per_second": (
                    self.cycles / self.wall_seconds
                    if self.wall_seconds
                    else None
                ),
            }
        )
        return document
