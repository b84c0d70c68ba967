"""Cycle-level flight recorder and time-travel query API.

The paper's core argument is that gate-level taint tracking makes
security *auditable* -- yet a verdict plus a backward slice only shows
the end of the story.  The timeline layer records the story itself: one
frame per simulated cycle, from which every net's ternary value and
taint bit at that cycle can be reconstructed after the fact, so taint
can be watched spreading forward in time.

A frame is one **step-log row**: the codes of the circuit's
:attr:`~repro.sim.compiled.CompiledCircuit.row_nets` -- every flip-flop
Q, then every input port's nets (375 bytes on the LP430).  ``SoC.step``
hands the row over just before the clock edge, when the Qs are the ones
the step's passes read and the input ports hold their final codes.  No
gate drives those nets, and every other net is a function of them: a
fresh state holding the row, settled by one every-net full pass and
latched by one clock edge, holds every net's code as the step left it.
So the recorder reads no net inside the mapped cuts, and a timeline
SoC runs the same cut-mapped passes as a plain one.

Three pieces:

* :class:`TimelineRecorder` -- the flight recorder.  Passed as
  ``TaintTracker(timeline=...)``, it rides on the SoC's
  :class:`~repro.obs.Instruments` for the duration of ``run()`` (a
  single ``None`` check per step when absent) and appends each step's
  row and cycle.  ``max_frames`` bounds the store (overflow sets
  ``truncated``, never an error).  The recorder checkpoints and resumes
  (``export_state`` / ``restore_state``), so a timeline recorded across
  a checkpoint/resume boundary is bit-identical to an uninterrupted one.

* :class:`Timeline` -- the scrub/query API over a finished recording:
  ``seek(frame)`` derives the full code array with one full pass;
  ``net_history`` walks one net through a frame window, ``first_tainted``
  finds the frame where a net first picked up taint, and ``scan`` gives
  the viewer every frame's port words and tainted-net count.  Those
  three derive :data:`BLOCK` frames per pass
  (:meth:`CompiledCircuit.block_plan
  <repro.sim.compiled.CompiledCircuit.block_plan>`).  It composes with
  ``repro.obs.provenance``: a violation's FlowSlice names nets whose
  per-cycle state the timeline can replay.

* ``.timeline`` files -- :func:`save_timeline` / :func:`load_timeline`
  persist a recording through the same versioned magic+header+payload
  container codec as ``repro.resilience.checkpoint``
  (``REPRO-TLIN\\n``), with violation markers resolved against the
  recorded frames.  A file is derived on the compiled LP430
  (:func:`repro.cpu.compiled_cpu`) and must name its nets.

A frame shows the state at the *end* of ``SoC.step``, after the clock
edge: the flip-flops hold the next cycle's state while the combinational
nets hold this cycle's settled values -- exactly what the policy checker
saw, so a violation cycle's frame shows the tainted sink ports.  The
tracker explores by restoring snapshots, so frame *cycles* are not
globally monotonic (same caveat as provenance); frame *indices* are the
true timeline of the simulation, and lockstep tests assert every frame
equals the state of a run whose passes write every net.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

TIMELINE_MAGIC = b"REPRO-TLIN\n"
TIMELINE_VERSION = 2

#: Frames a bulk query derives per pass: a pass over 16 stacked states
#: costs about half as much per state as a pass over one.
BLOCK = 16


@dataclass
class TimelineMarker:
    """One violation resolved to a recorded frame."""

    frame: int
    cycle: int
    kind: str
    condition: int
    address: int
    task: str
    index: int  # position in the analysis' violation list


class TimelineRecorder:
    """Bounded per-cycle step-log recorder for one analysis.

    *max_frames* bounds the store -- recording stops there and
    :attr:`truncated` is set, the analysis itself is never perturbed.
    """

    def __init__(self, max_frames: int = 1 << 20):
        if max_frames <= 0:
            raise ValueError(
                f"max_frames must be positive, got {max_frames}"
            )
        self.max_frames = max_frames
        #: the recorded rows, back to back, and each frame's cycle
        self._rows = bytearray()
        self._cycles: List[int] = []
        self.truncated = False
        #: frames dropped after the bound was hit
        self.dropped = 0
        self._circuit = None

    def ensure_bound(self, circuit) -> None:
        """Adopt *circuit*, whose row nets the rows hold (idempotent)."""
        if self._circuit is None:
            self._circuit = circuit

    @property
    def num_frames(self) -> int:
        return len(self._cycles)

    def on_step(self, cycle: int, row: np.ndarray) -> None:
        """Record one step's row (its ``row_nets`` codes) as one frame."""
        if len(self._cycles) >= self.max_frames:
            self.truncated = True
            self.dropped += 1
            return
        self._cycles.append(cycle)
        self._rows += row.tobytes()

    # ------------------------------------------------------------------
    # Telemetry / checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready summary (no frame dump)."""
        return {
            "frames": len(self._cycles),
            "max_frames": self.max_frames,
            "truncated": self.truncated,
        }

    def export_state(self) -> dict:
        """Everything a checkpoint needs to continue this recording."""
        return {
            "max_frames": self.max_frames,
            "rows": bytes(self._rows),
            "cycles": list(self._cycles),
            "truncated": self.truncated,
            "dropped": self.dropped,
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a checkpointed recording and continue appending."""
        if "rows" not in state:
            from repro.resilience.errors import CheckpointError

            raise CheckpointError(
                "the checkpoint holds a keyframe/delta timeline recording; "
                "this build records step-log rows and cannot continue it",
                code="TIMELINE_VERSION",
            )
        self.max_frames = int(state["max_frames"])
        self._rows = bytearray(state["rows"])
        self._cycles = list(state["cycles"])
        self.truncated = bool(state["truncated"])
        self.dropped = int(state["dropped"])

    def to_timeline(self, violations: Sequence = ()) -> "Timeline":
        """Freeze the recording into a queryable :class:`Timeline`.

        A recorder that has not stepped yet (fresh, or restored from a
        checkpoint) derives on the compiled LP430, as a loaded file does.
        """
        circuit = self._circuit
        if circuit is None:
            from repro.cpu import compiled_cpu

            circuit = compiled_cpu()
        rows = np.frombuffer(bytes(self._rows), dtype=np.uint8)
        return Timeline(
            circuit,
            rows.reshape(len(self._cycles), len(circuit.row_nets)),
            self._cycles,
            markers=resolve_markers(self._cycles, violations),
            truncated=self.truncated,
        )


def resolve_markers(
    cycles: Sequence[int], violations: Sequence
) -> List[TimelineMarker]:
    """Map each violation to the *latest* frame recorded at its cycle
    (*cycles* holds each frame's cycle).

    The tracker re-simulates cycle numbers across restored paths; the
    latest frame is the most conservative (most merged) visit -- the
    same conflation direction as the provenance backward slice.
    """
    markers: List[TimelineMarker] = []
    by_cycle: Dict[int, int] = {}
    for index, cycle in enumerate(cycles):
        by_cycle[int(cycle)] = index
    for index, violation in enumerate(violations):
        frame = by_cycle.get(int(violation.cycle))
        if frame is None:
            continue
        markers.append(
            TimelineMarker(
                frame=frame,
                cycle=int(violation.cycle),
                kind=str(violation.kind),
                condition=int(violation.condition),
                address=int(violation.address),
                task=str(violation.task or ""),
                index=index,
            )
        )
    return markers


class Timeline:
    """Scrub/query API over one recorded timeline.

    *rows* holds each frame's step-log row (``(frames, len(row_nets))``
    codes of *circuit*'s ``row_nets``), *cycles* its SoC cycle.  ``seek``
    and friends take a *frame index* (the step sequence of the
    simulation -- the only globally monotonic clock the tracker has);
    ``cycle_of``/``frames_at_cycle``/``seek_cycle`` translate to and
    from SoC cycle numbers.
    """

    def __init__(
        self,
        circuit,
        rows: np.ndarray,
        cycles: Sequence[int],
        markers: Optional[List[TimelineMarker]] = None,
        truncated: bool = False,
        meta: Optional[dict] = None,
    ):
        self._circuit = circuit
        self._rows = rows
        self._cycles = np.array(cycles, dtype=np.int64)
        self.row_nets = circuit.row_nets
        self.num_nets = circuit.num_nets
        #: BLOCK fresh state buffers, the rows a derivation starts from
        self._blank = np.tile(circuit.new_state().buffer, (BLOCK, 1))
        netlist = circuit.netlist
        self.net_names = tuple(netlist.net_names)
        self.port_nets: Dict[str, Tuple[int, ...]] = {}
        for port in list(netlist.outputs) + list(netlist.inputs):
            self.port_nets.setdefault(
                port.name, tuple(int(net) for net in port.nets)
            )
        self.markers = list(markers or [])
        self.truncated = truncated
        self.meta = dict(meta or {})

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------
    @property
    def num_frames(self) -> int:
        return len(self._cycles)

    def cycle_of(self, frame: int) -> int:
        return int(self._cycles[self._check(frame)])

    @property
    def cycles(self) -> np.ndarray:
        """Per-frame SoC cycle numbers (read-only view)."""
        return self._cycles

    @property
    def rows(self) -> np.ndarray:
        """Per-frame step-log rows."""
        return self._rows

    def _check(self, frame: int) -> int:
        frame = int(frame)
        if frame < 0:
            frame += self.num_frames
        if not 0 <= frame < self.num_frames:
            raise IndexError(
                f"frame {frame} out of range; the timeline has "
                f"{self.num_frames} frame(s)"
            )
        return frame

    def _check_net(self, net: int) -> int:
        if not 0 <= int(net) < self.num_nets:
            raise IndexError(
                f"net {net} out of range (num_nets={self.num_nets})"
            )
        return int(net)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def _derive(self, rows: np.ndarray) -> np.ndarray:
        """The ``(len(rows), num_nets)`` frame codes of *rows* (one row,
        or up to :data:`BLOCK`).

        Each row is written into a fresh state, the states are settled
        by one every-net pass (the full plan for one row, the circuit's
        :data:`BLOCK`-row block plan otherwise), and each is latched as
        a clock edge latches it.
        """
        from repro.sim.compiled import CircuitState

        circuit = self._circuit
        count = len(rows)
        height = 1 if count == 1 else BLOCK
        grid = self._blank[:height].copy()
        grid[:count, self.row_nets] = rows
        circuit.eval_plan(
            CircuitState(grid.reshape(-1), circuit.num_nets),
            circuit.block_plan(height),
        )
        codes = grid[:count, :circuit.num_nets]
        circuit.latch_rows(codes)
        return codes

    def _blocks(self, rows: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
        """``(offset, codes)`` for each :data:`BLOCK` of *rows*: the
        frames derived from ``rows[offset:offset + len(codes)]``."""
        for start in range(0, len(rows), BLOCK):
            yield start, self._derive(rows[start:start + BLOCK])

    def seek(self, frame: int) -> np.ndarray:
        """The full per-net code array at *frame* (a fresh array),
        derived from its row with one full pass."""
        frame = self._check(frame)
        return self._derive(self._rows[frame:frame + 1])[0]

    def seek_cycle(self, cycle: int) -> np.ndarray:
        """The code array at the *latest* frame recorded for *cycle*."""
        return self.seek(self.latest_frame_at_cycle(cycle))

    def frames_at_cycle(self, cycle: int) -> List[int]:
        """Every frame index recorded with SoC cycle *cycle* (the
        tracker revisits cycle numbers across restored paths)."""
        return [int(i) for i in np.nonzero(self._cycles == cycle)[0]]

    def latest_frame_at_cycle(self, cycle: int) -> int:
        frames = self.frames_at_cycle(cycle)
        if not frames:
            raise IndexError(
                f"no frame recorded at cycle {cycle} "
                f"(timeline covers {self.num_frames} frame(s))"
            )
        return frames[-1]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def net_history(
        self, net: int, lo: int = 0, hi: Optional[int] = None
    ) -> List[Tuple[int, int, int, int]]:
        """``(frame, cycle, value, taint)`` for one net over a window.

        *lo*/*hi* are an inclusive frame range (*hi* defaults to the
        last frame).
        """
        net = self._check_net(net)
        lo = self._check(lo)
        hi = self._check(hi if hi is not None else self.num_frames - 1)
        history = []
        for start, codes in self._blocks(self._rows[lo:hi + 1]):
            for frame, code in enumerate(codes[:, net].tolist(), lo + start):
                history.append(
                    (frame, int(self._cycles[frame]), code >> 1, code & 1)
                )
        return history

    def first_tainted(self, net: int) -> Optional[Tuple[int, int]]:
        """``(frame, cycle)`` where *net* first became tainted, or None."""
        net = self._check_net(net)
        for start, codes in self._blocks(self._rows):
            tainted = np.nonzero(codes[:, net] & 1)[0]
            if len(tainted):
                frame = start + int(tainted[0])
                return frame, int(self._cycles[frame])
        return None

    def tainted_nets(self, frame: int) -> np.ndarray:
        """Net ids tainted at *frame*."""
        return np.nonzero(self.seek(frame) & 1)[0]

    def taint_frontier(self, frame: int) -> np.ndarray:
        """Net ids that *became* tainted at *frame* (vs the previous
        frame; at frame 0, every initially-tainted net)."""
        frame = self._check(frame)
        now = self.seek(frame) & 1
        if frame == 0:
            return np.nonzero(now)[0]
        before = self.seek(frame - 1) & 1
        return np.nonzero(now & ~before)[0]

    def scan(
        self, ports: Sequence[str] = ()
    ) -> Tuple[Dict[str, Tuple[List[int], List[int], List[int]]],
               np.ndarray]:
        """One pass over every frame (the viewer's bulk export): each
        of *ports*' words as three per-frame lists, ``(bits, xmask,
        tmask)`` (ports the timeline lacks are skipped), and each
        frame's count of tainted nets.

        A frame is a function of its row alone, so each distinct row is
        derived once (the tracker revisits states: 6% of mult's rows
        repeat).  The ports' codes are gathered per block; their words
        are packed once at the end, one matrix product per mask (each
        net's 0/1 mask bit times ``2**bit``, exact in float64).
        """
        wanted = [port for port in ports if port in self.port_nets]
        nets = [net for port in wanted for net in self.port_nets[port]]
        weights = np.zeros((len(nets), len(wanted)))
        row = 0
        for column, port in enumerate(wanted):
            width = len(self.port_nets[port])
            weights[row:row + width, column] = 2.0 ** np.arange(width)
            row += width
        width = len(self.row_nets)
        data = self._rows.tobytes()
        distinct: Dict[bytes, int] = {}
        which = [
            distinct.setdefault(data[at:at + width], len(distinct))
            for at in range(0, len(data), width)
        ]
        rows = np.frombuffer(b"".join(distinct), dtype=np.uint8)
        port_codes = np.empty((len(distinct), len(nets)), dtype=np.uint8)
        tainted = np.empty(len(distinct), dtype=np.int64)
        for start, codes in self._blocks(rows.reshape(-1, width)):
            stop = start + len(codes)
            tainted[start:stop] = (codes & 1).sum(axis=1, dtype=np.int32)
            port_codes[start:stop] = codes[:, nets]
        port_codes, tainted = port_codes[which], tainted[which]
        masks = [  # known 1s, Xs and taint, as in decode_word
            (mask @ weights).astype(np.int64).T.tolist()
            for mask in (
                port_codes >> 1 == 1, port_codes >> 2, port_codes & 1
            )
        ]
        lanes = {
            port: tuple(mask[column] for mask in masks)
            for column, port in enumerate(wanted)
        }
        return lanes, tainted

    # ------------------------------------------------------------------
    # Naming / composition with provenance
    # ------------------------------------------------------------------
    def net_name(self, net: int) -> str:
        if 0 <= net < len(self.net_names) and self.net_names[net]:
            return self.net_names[net]
        return f"net{net}"

    def port_word(self, frame: int, port: str) -> Tuple[int, int, int]:
        """``(bits, xmask, tmask)`` of a named port at *frame*."""
        from repro.sim.compiled import decode_word

        nets = self.port_nets.get(port)
        if nets is None:
            known = ", ".join(sorted(self.port_nets))
            raise KeyError(
                f"unknown port {port!r} (timeline has ports: {known})"
            )
        word = decode_word(self.seek(frame)[list(nets)].tobytes())
        return word.bits, word.xmask, word.tmask

    def slice_nets_tainted_at(
        self, flow, frame: Optional[int] = None
    ) -> List[int]:
        """Which of a provenance FlowSlice's sink nets are tainted at
        *frame* (default: the slice's violation cycle) -- walking an
        explanation against true per-cycle state."""
        if frame is None:
            frame = self.latest_frame_at_cycle(flow.cycle)
        codes = self.seek(frame)
        return [
            int(net)
            for net in flow.sink_nets
            if 0 <= int(net) < self.num_nets and codes[int(net)] & 1
        ]


# ---------------------------------------------------------------------------
# File I/O (shared container codec with repro.resilience.checkpoint)
# ---------------------------------------------------------------------------
def save_timeline(
    path,
    recorder: TimelineRecorder,
    violations: Sequence = (),
    meta: Optional[dict] = None,
):
    """Write one ``.timeline`` file; returns the path."""
    # Imported here, not at module top: repro.resilience itself imports
    # repro.obs (for the observer), so the shared codec must load lazily.
    from repro.resilience.checkpoint import write_container

    timeline = recorder.to_timeline(violations)
    payload = {
        "rows": timeline.rows,
        "cycles": timeline.cycles,
        "row_nets": timeline.row_nets,
        "net_names": timeline.net_names,
        "markers": [vars(marker) for marker in timeline.markers],
        "truncated": timeline.truncated,
    }
    header_meta = {
        "frames": timeline.num_frames,
        "nets": timeline.num_nets,
        "markers": len(timeline.markers),
        "truncated": timeline.truncated,
    }
    if meta:
        header_meta.update(meta)
    return write_container(
        path,
        TIMELINE_MAGIC,
        TIMELINE_VERSION,
        payload,
        meta=header_meta,
        kind="timeline",
        code_prefix="TIMELINE",
    )


def read_timeline_header(path) -> dict:
    """Validate magic/version and return a ``.timeline`` JSON header."""
    from repro.resilience.checkpoint import read_container_header

    return read_container_header(
        path,
        TIMELINE_MAGIC,
        TIMELINE_VERSION,
        kind="timeline",
        code_prefix="TIMELINE",
    )


def load_timeline(path) -> Timeline:
    """Load a ``.timeline`` file into a :class:`Timeline` that derives
    its frames on the compiled LP430.

    A file whose net names or row nets differ from that netlist's was
    recorded on another netlist, whose rows this one cannot settle: it
    is rejected with a ``TIMELINE_NETLIST`` :class:`CheckpointError
    <repro.resilience.errors.CheckpointError>`.
    """
    from repro.cpu import compiled_cpu
    from repro.resilience.checkpoint import read_container
    from repro.resilience.errors import CheckpointError

    header, payload = read_container(
        path,
        TIMELINE_MAGIC,
        TIMELINE_VERSION,
        kind="timeline",
        code_prefix="TIMELINE",
    )
    circuit = compiled_cpu()
    if tuple(payload["net_names"]) != tuple(
        circuit.netlist.net_names
    ) or not np.array_equal(payload["row_nets"], circuit.row_nets):
        raise CheckpointError(
            f"timeline {str(path)!r} was recorded on a netlist whose nets "
            "differ from this build's LP430, so its frames cannot be "
            "derived here",
            code="TIMELINE_NETLIST",
            path=str(path),
        )
    return Timeline(
        circuit,
        payload["rows"],
        payload["cycles"],
        markers=[TimelineMarker(**marker) for marker in payload["markers"]],
        truncated=payload["truncated"],
        meta=header,
    )
