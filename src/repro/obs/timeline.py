"""Cycle-level flight recorder and time-travel query API.

The paper's core argument is that gate-level taint tracking makes
security *auditable* -- yet a verdict plus a backward slice only shows
the end of the story.  The timeline layer records the story itself: one
frame per simulated cycle capturing every net's ternary value and taint
bit, so any cycle can be reconstructed after the fact and taint can be
watched spreading forward in time.

Three pieces:

* :class:`TimelineRecorder` -- the flight recorder.  Passed as
  ``TaintTracker(timeline=...)``, it rides on the SoC's
  :class:`~repro.obs.Instruments` for the duration of ``run()`` (a
  single ``None`` check per step when absent).  It diffs the
  post-step net codes against the previous frame and stores only the
  changed net indices (interned -- the CPU touches the same nets cycle
  after cycle) plus their new codes.  Every ``keyframe_interval`` frames
  a full keyframe is stored so reconstruction is O(delta-window), and
  ``max_frames`` bounds the store (overflow sets ``truncated``, never an
  error).  The recorder checkpoints and resumes (``export_state`` /
  ``restore_state``) including the last-seen codes, so a timeline
  recorded across a checkpoint/resume boundary is bit-identical to an
  uninterrupted one.

* :class:`Timeline` -- the scrub/query API over a finished recording:
  ``seek(frame)`` reconstructs the full code array, ``net_history``
  walks one net through a frame window, ``first_tainted`` finds the
  frame where a net first picked up taint, ``taint_frontier`` lists the
  nets that became tainted at a frame.  It composes with
  ``repro.obs.provenance``: a violation's FlowSlice names nets whose
  per-cycle state the timeline can replay.

* ``.timeline`` files -- :func:`save_timeline` / :func:`load_timeline`
  persist a recording through the same versioned magic+header+payload
  container codec as ``repro.resilience.checkpoint``
  (``REPRO-TLIN\\n``), with violation markers resolved against the
  recorded frames.

Frames are captured at the *end* of ``SoC.step``, after the clock edge:
the flip-flops hold the next cycle's state while the combinational nets
still hold this cycle's settled values -- exactly what the policy
checker saw, so a violation cycle's frame shows the tainted sink ports.
The tracker explores by restoring snapshots, so frame *cycles* are not
globally monotonic (same caveat as provenance); frame *indices* are the
true timeline of the simulation, and lockstep tests assert a re-run
reproduces every frame bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

TIMELINE_MAGIC = b"REPRO-TLIN\n"
TIMELINE_VERSION = 1

#: Frame kinds in the on-disk payload.
FRAME_KEY = 0
FRAME_DELTA = 1


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
    """Bounded per-cycle state-delta recorder for one analysis.

    *keyframe_interval* spaces full-state keyframes (reconstruction cost
    is at most that many delta applications); *max_frames* bounds the
    store -- recording stops there and :attr:`truncated` is set, the
    analysis itself is never perturbed.
    """

    def __init__(
        self, keyframe_interval: int = 64, max_frames: int = 1 << 20
    ):
        if keyframe_interval <= 0:
            raise ValueError(
                f"keyframe_interval must be positive, got {keyframe_interval}"
            )
        if max_frames <= 0:
            raise ValueError(
                f"max_frames must be positive, got {max_frames}"
            )
        self.keyframe_interval = keyframe_interval
        self.max_frames = max_frames
        #: (kind, cycle, data) per frame; keyframe data is the full code
        #: array, delta data is ``(changed_indices, new_codes)``
        self._frames: List[tuple] = []
        self._last_codes: Optional[np.ndarray] = None
        self.truncated = False
        self.keyframes = 0
        #: frames dropped after the bound was hit
        self.dropped = 0
        #: interned changed-index arrays (the CPU touches the same net
        #: sets cycle after cycle, so deltas share index vectors)
        self._interned: Dict[bytes, np.ndarray] = {}
        self._num_nets = 0
        self._net_names: Tuple[str, ...] = ()
        self._port_nets: Dict[str, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # Binding (mirrors ProvenanceRecorder.ensure_bound)
    # ------------------------------------------------------------------
    def ensure_bound(self, circuit) -> None:
        """Adopt *circuit*'s net-id space (idempotent, first step only)."""
        if self._num_nets:
            return
        netlist = circuit.netlist
        port_nets: Dict[str, Tuple[int, ...]] = {}
        for port in list(netlist.outputs) + list(netlist.inputs):
            port_nets.setdefault(
                port.name, tuple(int(n) for n in port.nets)
            )
        self.bind_raw(
            circuit.num_nets, tuple(netlist.net_names), port_nets
        )

    def bind_raw(
        self,
        num_nets: int,
        net_names: Sequence[str] = (),
        port_nets: Optional[Dict[str, Tuple[int, ...]]] = None,
    ) -> None:
        """Testing/back-door bind without a compiled circuit."""
        self._num_nets = num_nets
        self._net_names = tuple(net_names)
        self._port_nets = dict(port_nets or {})

    @property
    def num_frames(self) -> int:
        return len(self._frames)

    # ------------------------------------------------------------------
    # Recording (hot path: called once per SoC.step)
    # ------------------------------------------------------------------
    def _intern(self, indices: np.ndarray) -> np.ndarray:
        key = indices.tobytes()
        kept = self._interned.get(key)
        if kept is None:
            kept = indices
            self._interned[key] = kept
        return kept

    def on_step(self, cycle: int, codes: np.ndarray) -> None:
        """Record the post-step code array as one frame."""
        if len(self._frames) >= self.max_frames:
            self.truncated = True
            self.dropped += 1
            self._last_codes = None  # force a keyframe if the bound grows
            return
        last = self._last_codes
        if last is None or len(self._frames) % self.keyframe_interval == 0:
            self._frames.append((FRAME_KEY, cycle, codes.copy()))
            self.keyframes += 1
        else:
            changed = np.nonzero(codes != last)[0].astype(np.int32)
            self._frames.append(
                (FRAME_DELTA, cycle, (self._intern(changed), codes[changed]))
            )
        self._last_codes = codes.copy()

    # ------------------------------------------------------------------
    # Telemetry / checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready summary (no frame dump)."""
        return {
            "frames": len(self._frames),
            "keyframes": self.keyframes,
            "max_frames": self.max_frames,
            "keyframe_interval": self.keyframe_interval,
            "truncated": self.truncated,
            "nets": self._num_nets,
        }

    def export_state(self) -> dict:
        """Everything a checkpoint needs to continue this recording."""
        return {
            "keyframe_interval": self.keyframe_interval,
            "max_frames": self.max_frames,
            "frames": list(self._frames),
            "last_codes": (
                self._last_codes.copy()
                if self._last_codes is not None
                else None
            ),
            "truncated": self.truncated,
            "keyframes": self.keyframes,
            "dropped": self.dropped,
            "num_nets": self._num_nets,
            "net_names": self._net_names,
            "port_nets": self._port_nets,
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a checkpointed recording and continue appending."""
        self.keyframe_interval = int(state["keyframe_interval"])
        self.max_frames = int(state["max_frames"])
        self._frames = list(state["frames"])
        last = state.get("last_codes")
        self._last_codes = last.copy() if last is not None else None
        self.truncated = bool(state["truncated"])
        self.keyframes = int(state["keyframes"])
        self.dropped = int(state.get("dropped", 0))
        if not self._num_nets:
            self._num_nets = int(state["num_nets"])
            self._net_names = tuple(state.get("net_names", ()))
            self._port_nets = dict(state.get("port_nets", {}))
        # Re-intern the restored delta index arrays.
        self._interned = {}
        for kind, _, data in self._frames:
            if kind == FRAME_DELTA:
                self._interned.setdefault(data[0].tobytes(), data[0])

    def to_timeline(self, violations: Sequence = ()) -> "Timeline":
        """Freeze the recording into a queryable :class:`Timeline`."""
        return Timeline(
            frames=list(self._frames),
            num_nets=self._num_nets,
            net_names=self._net_names,
            port_nets=dict(self._port_nets),
            markers=resolve_markers(self._frames, violations),
            truncated=self.truncated,
            keyframe_interval=self.keyframe_interval,
        )


def resolve_markers(
    frames: Sequence[tuple], violations: Sequence
) -> List[TimelineMarker]:
    """Map each violation to the *latest* frame recorded at its cycle.

    The tracker re-simulates cycle numbers across restored paths; the
    latest frame is the most conservative (most merged) visit -- the
    same conflation direction as the provenance backward slice.
    """
    markers: List[TimelineMarker] = []
    by_cycle: Dict[int, int] = {}
    for index, (_, cycle, _) in enumerate(frames):
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

    ``seek`` and friends take a *frame index* (the step sequence of the
    simulation -- the only globally monotonic clock the tracker has);
    ``cycle_of``/``frames_at_cycle``/``seek_cycle`` translate to and
    from SoC cycle numbers.
    """

    def __init__(
        self,
        frames: List[tuple],
        num_nets: int,
        net_names: Tuple[str, ...] = (),
        port_nets: Optional[Dict[str, Tuple[int, ...]]] = None,
        markers: Optional[List[TimelineMarker]] = None,
        truncated: bool = False,
        keyframe_interval: int = 64,
        meta: Optional[dict] = None,
    ):
        self._frames = frames
        self.num_nets = num_nets
        self.net_names = tuple(net_names)
        self.port_nets = dict(port_nets or {})
        self.markers = list(markers or [])
        self.truncated = truncated
        self.keyframe_interval = keyframe_interval
        self.meta = dict(meta or {})
        self._cycles = np.array(
            [cycle for _, cycle, _ in frames], dtype=np.int64
        )
        self._keyframe_indices = [
            index
            for index, (kind, _, _) in enumerate(frames)
            if kind == FRAME_KEY
        ]
        #: one-frame seek cache: scrubbing is usually sequential
        self._cache_frame = -1
        self._cache_codes: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------
    @property
    def num_frames(self) -> int:
        return len(self._frames)

    def cycle_of(self, frame: int) -> int:
        return int(self._cycles[self._check(frame)])

    @property
    def cycles(self) -> np.ndarray:
        """Per-frame SoC cycle numbers (read-only view)."""
        return self._cycles

    def _check(self, frame: int) -> int:
        frame = int(frame)
        if frame < 0:
            frame += len(self._frames)
        if not 0 <= frame < len(self._frames):
            raise IndexError(
                f"frame {frame} out of range; the timeline has "
                f"{len(self._frames)} frame(s)"
            )
        return frame

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------
    def seek(self, frame: int) -> np.ndarray:
        """The full per-net code array at *frame* (a fresh copy).

        Cost is O(delta-window): the nearest keyframe at or before
        *frame* plus at most ``keyframe_interval - 1`` delta
        applications (one fewer when scrubbing forward frame by frame,
        served from the one-frame cache).
        """
        frame = self._check(frame)
        if frame == self._cache_frame and self._cache_codes is not None:
            return self._cache_codes.copy()
        start = frame
        codes: Optional[np.ndarray] = None
        if (
            self._cache_codes is not None
            and self._cache_frame < frame
            and self._frames[frame][0] != FRAME_KEY
        ):
            # Roll forward from the cached frame when that is nearer
            # than the previous keyframe.
            nearest_key = frame
            while self._frames[nearest_key][0] != FRAME_KEY:
                nearest_key -= 1
            if self._cache_frame >= nearest_key:
                codes = self._cache_codes.copy()
                start = self._cache_frame + 1
        if codes is None:
            while self._frames[start][0] != FRAME_KEY:
                start -= 1
            codes = self._frames[start][2].copy()
            start += 1
        for index in range(start, frame + 1):
            _, _, (changed, values) = self._frames[index]
            codes[changed] = values
        self._cache_frame = frame
        self._cache_codes = codes.copy()
        return codes

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
        last frame).  Cost is one seek plus the window's deltas.
        """
        if not 0 <= int(net) < self.num_nets:
            raise IndexError(
                f"net {net} out of range (num_nets={self.num_nets})"
            )
        net = int(net)
        lo = self._check(lo)
        hi = self._check(hi if hi is not None else self.num_frames - 1)
        if hi < lo:
            return []
        codes = self.seek(lo)
        code = int(codes[net])
        history = [(lo, self.cycle_of(lo), code >> 1, code & 1)]
        for frame in range(lo + 1, hi + 1):
            kind, cycle, data = self._frames[frame]
            if kind == FRAME_KEY:
                code = int(data[net])
            else:
                changed, values = data
                hit = np.nonzero(changed == net)[0]
                if len(hit):
                    code = int(values[hit[0]])
            history.append((frame, int(cycle), code >> 1, code & 1))
        return history

    def first_tainted(self, net: int) -> Optional[Tuple[int, int]]:
        """``(frame, cycle)`` where *net* first became tainted, or None."""
        if not 0 <= int(net) < self.num_nets:
            raise IndexError(
                f"net {net} out of range (num_nets={self.num_nets})"
            )
        net = int(net)
        code = None
        for frame, (kind, cycle, data) in enumerate(self._frames):
            if kind == FRAME_KEY:
                code = int(data[net])
            else:
                changed, values = data
                hit = np.nonzero(changed == net)[0]
                if len(hit):
                    code = int(values[hit[0]])
            if code is not None and code & 1:
                return frame, int(cycle)
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

    def taint_density(self) -> np.ndarray:
        """Per-frame fraction of tainted nets (feeds the sparkline)."""
        density = np.zeros(len(self._frames), dtype=np.float64)
        codes: Optional[np.ndarray] = None
        tainted = 0
        for frame, (kind, _, data) in enumerate(self._frames):
            if kind == FRAME_KEY:
                codes = data.copy()
                tainted = int(np.count_nonzero(codes & 1))
            else:
                changed, values = data
                assert codes is not None
                tainted += int(
                    np.count_nonzero(values & 1)
                    - np.count_nonzero(codes[changed] & 1)
                )
                codes[changed] = values
            density[frame] = tainted / max(1, self.num_nets)
        return density

    # ------------------------------------------------------------------
    # Naming / composition with provenance
    # ------------------------------------------------------------------
    def port_lanes(
        self, ports: Sequence[str]
    ) -> Dict[str, List[Tuple[int, int, int]]]:
        """Per-frame ``(bits, xmask, tmask)`` words for several ports.

        One forward pass over every frame (the viewer's bulk export
        path) instead of a :meth:`seek` per frame per port.
        """
        wanted = [
            (port, self.port_nets[port])
            for port in ports
            if port in self.port_nets
        ]
        lanes: Dict[str, List[Tuple[int, int, int]]] = {
            port: [] for port, _ in wanted
        }
        codes: Optional[np.ndarray] = None
        for kind, _, data in self._frames:
            if kind == FRAME_KEY:
                codes = data.copy()
            else:
                changed, values = data
                assert codes is not None
                codes[changed] = values
            for port, nets in wanted:
                bits = xmask = tmask = 0
                for bit, net in enumerate(nets):
                    code = int(codes[net])
                    probe = 1 << bit
                    value = code >> 1
                    if value == 2:
                        xmask |= probe
                    elif value:
                        bits |= probe
                    if code & 1:
                        tmask |= probe
                lanes[port].append((bits, xmask, tmask))
        return lanes

    def net_name(self, net: int) -> str:
        if 0 <= net < len(self.net_names) and self.net_names[net]:
            return self.net_names[net]
        return f"net{net}"

    def port_word(self, frame: int, port: str) -> Tuple[int, int, int]:
        """``(bits, xmask, tmask)`` of a named port at *frame*."""
        nets = self.port_nets.get(port)
        if nets is None:
            known = ", ".join(sorted(self.port_nets))
            raise KeyError(
                f"unknown port {port!r} (timeline has ports: {known})"
            )
        codes = self.seek(frame)
        bits = xmask = tmask = 0
        for bit, net in enumerate(nets):
            code = int(codes[net])
            probe = 1 << bit
            value = code >> 1
            if value == 2:
                xmask |= probe
            elif value:
                bits |= probe
            if code & 1:
                tmask |= probe
        return bits, xmask, tmask

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

    markers = resolve_markers(recorder._frames, violations)
    payload = {
        "frames": list(recorder._frames),
        "num_nets": recorder._num_nets,
        "net_names": recorder._net_names,
        "port_nets": recorder._port_nets,
        "markers": [vars(marker) for marker in markers],
        "truncated": recorder.truncated,
        "keyframe_interval": recorder.keyframe_interval,
    }
    header_meta = {
        "frames": len(recorder._frames),
        "keyframes": recorder.keyframes,
        "nets": recorder._num_nets,
        "markers": len(markers),
        "truncated": recorder.truncated,
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
    """Load a ``.timeline`` file into a :class:`Timeline`."""
    from repro.resilience.checkpoint import read_container

    header, payload = read_container(
        path,
        TIMELINE_MAGIC,
        TIMELINE_VERSION,
        kind="timeline",
        code_prefix="TIMELINE",
    )
    return Timeline(
        frames=payload["frames"],
        num_nets=payload["num_nets"],
        net_names=tuple(payload.get("net_names", ())),
        port_nets=payload.get("port_nets", {}),
        markers=[
            TimelineMarker(**marker) for marker in payload.get("markers", ())
        ],
        truncated=payload.get("truncated", False),
        keyframe_interval=payload.get("keyframe_interval", 64),
        meta=header,
    )
