"""Unit coverage for the timeline flight recorder and scrub API.

The queries run on a short real recording: an untrusted task branches
on a tainted input, so the analysis forks, revisits cycles and taints
nets.  The reference is the same analysis with every pass forced onto
the every-net form, which leaves each net's code after every step.
"""

import numpy as np
import pytest

from repro.core import TaintTracker, default_policy
from repro.cpu import compiled_cpu
from repro.isa.assembler import assemble
from repro.obs import Instruments
from repro.obs.timeline import (
    BLOCK,
    TIMELINE_MAGIC,
    TimelineRecorder,
    load_timeline,
    read_timeline_header,
    resolve_markers,
    save_timeline,
)
from repro.resilience.checkpoint import read_container, write_container
from repro.resilience.errors import CheckpointError
from repro.sim.compiled import CompiledCircuit, decode_word
from repro.sim.runner import GateRunner
from repro.sim.soc import SoC

SOURCE = """
.task sys trusted
start:
    mov #0x0FFE, sp
    call #app
    jmp start
.task app untrusted
app:
    mov &P1IN, r4
    and #0x0001, r4
    jnz app_done
    mov #1, r5
app_done:
    ret
"""


def _program():
    return assemble(SOURCE, name="app")


def _record(**recorder_kwargs):
    """``(recorder, result)`` of one timeline-recorded analysis."""
    recorder = TimelineRecorder(**recorder_kwargs)
    result = TaintTracker(
        _program(), default_policy(), timeline=recorder
    ).run()
    return recorder, result


def _reference():
    """Each step's post-edge codes in a run whose passes write every
    net (the state a frame must reproduce)."""
    frames = []
    step = SoC.step

    def capture(soc, *args, **kwargs):
        events = step(soc, *args, **kwargs)
        if soc.instruments.timeline is not None:
            frames.append(soc.state.codes.copy())
        return events

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            CompiledCircuit, "pass_plan", lambda self, state, plan: plan.every
        )
        patch.setattr(SoC, "step", capture)
        _record()
    return frames


@pytest.fixture(scope="module")
def recorded():
    """``(timeline, reference frames)`` of the short analysis."""
    recorder, result = _record()
    return recorder.to_timeline(result.violations), _reference()


class TestRecorder:
    def test_a_frame_is_one_step_log_row(self, recorded):
        timeline, reference = recorded
        circuit = timeline._circuit
        assert timeline.num_frames == len(reference)
        assert timeline.rows.shape == (
            timeline.num_frames, len(circuit.row_nets)
        )
        assert len(circuit.row_nets) == circuit.num_dffs + 33
        # The input ports keep their codes across the clock edge.
        ports = len(circuit.row_nets) - circuit.num_dffs
        for row, codes in zip(timeline.rows, reference):
            assert np.array_equal(
                row[-ports:], codes[circuit.row_nets[-ports:]]
            )

    def test_max_frames_truncates_without_error(self, recorded):
        timeline, _ = recorded
        recorder, _ = _record(max_frames=5)
        assert recorder.num_frames == 5
        assert recorder.truncated
        assert recorder.dropped == timeline.num_frames - 5
        assert recorder.snapshot()["truncated"] is True

    def test_bad_construction_rejected(self):
        with pytest.raises(ValueError):
            TimelineRecorder(max_frames=0)

    def test_export_restore_continues_bit_identically(self):
        """A recording split by export/restore equals one taken in one
        go, row for row and frame for frame."""
        original = TimelineRecorder()
        whole = GateRunner(compiled_cpu(), _program())
        whole.soc.arm(Instruments(timeline=original))
        for _ in range(25):
            whole.step()
        first = TimelineRecorder()
        split = GateRunner(compiled_cpu(), _program())
        split.soc.arm(Instruments(timeline=first))
        for _ in range(12):
            split.step()
        resumed = TimelineRecorder()
        resumed.restore_state(first.export_state())
        split.soc.arm(Instruments(timeline=resumed))
        for _ in range(13):
            split.step()
        a, b = original.to_timeline(), resumed.to_timeline()
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.cycles, b.cycles)
        for frame in range(a.num_frames):
            assert np.array_equal(a.seek(frame), b.seek(frame)), frame

    def test_restored_recorder_freezes_without_a_step(self, recorded):
        """A recorder restored from a checkpoint derives its frames on
        the compiled LP430 before it records a step of its own."""
        timeline, _ = recorded
        recorder, _ = _record()
        restored = TimelineRecorder()
        restored.restore_state(recorder.export_state())
        frozen = restored.to_timeline()
        assert np.array_equal(frozen.rows, timeline.rows)
        for frame in (0, timeline.num_frames - 1):
            assert np.array_equal(frozen.seek(frame), timeline.seek(frame))

    def test_empty_recorder_freezes_to_an_empty_timeline(self):
        timeline = TimelineRecorder().to_timeline()
        assert timeline.num_frames == 0
        lanes, tainted = timeline.scan(["dmem_addr"])
        assert lanes == {"dmem_addr": ([], [], [])}
        assert len(tainted) == 0

    def test_old_checkpoint_layout_is_a_typed_error(self):
        """A checkpoint holding a keyframe/delta recording cannot be
        continued, and says so."""
        old = {
            "keyframe_interval": 64,
            "max_frames": 1 << 20,
            "frames": [],
            "last_codes": None,
            "truncated": False,
            "keyframes": 0,
        }
        with pytest.raises(CheckpointError) as excinfo:
            TimelineRecorder().restore_state(old)
        assert excinfo.value.code == "TIMELINE_VERSION"


class TestTimelineQueries:
    def test_seek_matches_reference_every_frame(self, recorded):
        timeline, reference = recorded
        for frame, codes in enumerate(reference):
            assert np.array_equal(timeline.seek(frame), codes), frame

    def test_seek_random_order_and_backwards(self, recorded):
        timeline, reference = recorded
        for frame in (80, 2, 41, 41, 0, 79, 5):
            assert np.array_equal(
                timeline.seek(frame), reference[frame]
            ), frame

    def test_seek_returns_a_copy(self, recorded):
        timeline, reference = recorded
        codes = timeline.seek(3)
        codes[:] = 99
        assert np.array_equal(timeline.seek(3), reference[3])

    def test_seek_out_of_range(self, recorded):
        timeline, _ = recorded
        with pytest.raises(IndexError, match="out of range"):
            timeline.seek(timeline.num_frames)
        assert np.array_equal(
            timeline.seek(-1), timeline.seek(timeline.num_frames - 1)
        )

    def test_block_queries_equal_per_frame_seek(self, recorded):
        """The bulk queries derive BLOCK frames per pass; on a frame
        count that leaves a short last block they equal a seek per
        frame."""
        timeline, _ = recorded
        assert timeline.num_frames % BLOCK
        seeks = [timeline.seek(frame) for frame in range(timeline.num_frames)]
        blocks = np.concatenate(
            [codes for _, codes in timeline._blocks(timeline.rows)]
        )
        assert np.array_equal(blocks, np.array(seeks))
        _, tainted = timeline.scan()
        assert tainted.tolist() == [
            np.count_nonzero(codes & 1) for codes in seeks
        ]

    def test_net_history_tracks_one_net(self, recorded):
        timeline, reference = recorded
        net = int(timeline.port_nets["dmem_addr"][1])
        history = timeline.net_history(net, 2, 40)
        assert [entry[0] for entry in history] == list(range(2, 41))
        assert len({entry[2] for entry in history}) > 1
        for frame, cycle, value, taint in history:
            code = int(reference[frame][net])
            assert (value, taint) == (code >> 1, code & 1)
            assert cycle == timeline.cycle_of(frame)

    def test_net_history_bad_net(self, recorded):
        timeline, _ = recorded
        with pytest.raises(IndexError, match="net"):
            timeline.net_history(timeline.num_nets + 1)

    def test_first_tainted(self, recorded):
        timeline, reference = recorded
        tainted = np.array([codes & 1 for codes in reference])
        net = int(np.nonzero(tainted.any(axis=0))[0][0])
        frame = int(np.nonzero(tainted[:, net])[0][0])
        assert timeline.first_tainted(net) == (
            frame, timeline.cycle_of(frame)
        )
        clean = int(np.nonzero(~tainted.any(axis=0))[0][0])
        assert timeline.first_tainted(clean) is None

    def test_taint_frontier_names_newly_tainted(self, recorded):
        timeline, reference = recorded
        assert np.array_equal(
            timeline.taint_frontier(0), np.nonzero(reference[0] & 1)[0]
        )
        for frame in range(1, timeline.num_frames, 7):
            fresh = reference[frame] & ~reference[frame - 1] & 1
            assert np.array_equal(
                timeline.taint_frontier(frame), np.nonzero(fresh)[0]
            ), frame

    def test_tainted_nets_and_density_agree_with_seek(self, recorded):
        timeline, reference = recorded
        _, counts = timeline.scan()
        density = counts / timeline.num_nets
        assert density.any()
        for frame, codes in enumerate(reference):
            tainted = np.nonzero(codes & 1)[0]
            assert np.array_equal(timeline.tainted_nets(frame), tainted)
            assert counts[frame] == len(tainted)
            assert density[frame] == pytest.approx(
                len(tainted) / timeline.num_nets
            )

    def test_port_word_and_lanes(self, recorded):
        """``scan`` and ``port_word`` agree with ``decode_word`` on the
        reference codes of an input port (``dmem_rdata``: X on cycles
        without a load, tainted by the P1IN load) and an output port."""
        timeline, reference = recorded
        ports = ["dmem_rdata", "dmem_addr"]
        expected = {}
        for port in ports:
            nets = list(timeline.port_nets[port])
            expected[port] = []
            for codes in reference:
                word = decode_word(codes[nets].tobytes())
                expected[port].append((word.bits, word.xmask, word.tmask))
        for mask in range(3):  # known 1s, Xs and taint all occur
            assert any(word[mask] for word in expected["dmem_rdata"]), mask
        lanes, _ = timeline.scan(ports + ["missing"])
        assert lanes == {
            port: tuple(map(list, zip(*words)))
            for port, words in expected.items()
        }
        for frame in (5, timeline.num_frames - 1):
            for port in ports:
                assert timeline.port_word(frame, port) == (
                    expected[port][frame]
                )
        with pytest.raises(KeyError, match="unknown port"):
            timeline.port_word(0, "nope")

    def test_cycle_translation(self, recorded):
        timeline, _ = recorded
        cycle = timeline.cycle_of(10)
        frames = timeline.frames_at_cycle(cycle)
        assert 10 in frames
        assert timeline.latest_frame_at_cycle(cycle) == frames[-1]
        with pytest.raises(IndexError, match="no frame"):
            timeline.latest_frame_at_cycle(10 ** 6)


class TestMarkers:
    class _FakeViolation:
        def __init__(self, cycle):
            self.cycle = cycle
            self.kind = "tainted_write_untainted_memory"
            self.condition = 2
            self.address = 0x200
            self.task = "app"

    def test_marker_resolves_to_latest_frame_for_cycle(self):
        # The tracker revisits cycle 1 on a restored path.
        markers = resolve_markers([0, 1, 1], [self._FakeViolation(1)])
        assert len(markers) == 1
        assert markers[0].frame == 2
        assert markers[0].kind == "tainted_write_untainted_memory"

    def test_unrecorded_cycle_is_skipped(self):
        assert resolve_markers([0], [self._FakeViolation(7)]) == []


class TestFileRoundTrip:
    def test_save_load_bit_identical(self, tmp_path):
        recorder, result = _record()
        timeline = recorder.to_timeline(result.violations)
        path = tmp_path / "run.timeline"
        save_timeline(
            path, recorder, result.violations, meta={"workload": "unit"}
        )
        header = read_timeline_header(path)
        assert header["frames"] == timeline.num_frames
        assert header["workload"] == "unit"
        loaded = load_timeline(path)
        assert loaded.num_nets == timeline.num_nets
        assert loaded.net_names == timeline.net_names
        assert loaded.port_nets == timeline.port_nets
        assert loaded.markers == timeline.markers
        assert np.array_equal(loaded.cycles, timeline.cycles)
        for frame in range(timeline.num_frames):
            assert np.array_equal(loaded.seek(frame), timeline.seek(frame))

    def test_version_1_file_rejected(self, tmp_path):
        path = tmp_path / "old.timeline"
        write_container(
            path, TIMELINE_MAGIC, 1, {"frames": []},
            kind="timeline", code_prefix="TIMELINE",
        )
        with pytest.raises(CheckpointError) as excinfo:
            load_timeline(path)
        assert excinfo.value.code == "TIMELINE_VERSION"

    def test_other_netlist_rejected(self, tmp_path):
        recorder, _ = _record(max_frames=4)
        path = tmp_path / "run.timeline"
        save_timeline(path, recorder)
        header, payload = read_container(
            path, TIMELINE_MAGIC, 2, kind="timeline", code_prefix="TIMELINE"
        )
        payload["net_names"] = ("renamed",) + tuple(payload["net_names"][1:])
        write_container(
            path, TIMELINE_MAGIC, 2, payload, meta=header,
            kind="timeline", code_prefix="TIMELINE",
        )
        with pytest.raises(CheckpointError) as excinfo:
            load_timeline(path)
        assert excinfo.value.code == "TIMELINE_NETLIST"

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.timeline"
        path.write_bytes(b"not a timeline at all")
        with pytest.raises(CheckpointError) as excinfo:
            load_timeline(path)
        assert excinfo.value.code == "TIMELINE_CORRUPT"

    def test_checkpoint_file_rejected_as_timeline(self, tmp_path):
        """The shared codec still tells the two formats apart."""
        from repro.resilience.checkpoint import write_checkpoint

        path = tmp_path / "run.ckpt"
        write_checkpoint(path, "digest", {"anything": 1})
        with pytest.raises(CheckpointError) as excinfo:
            read_timeline_header(path)
        assert excinfo.value.code == "TIMELINE_CORRUPT"

    def test_truncated_payload_rejected(self, tmp_path):
        recorder, _ = _record(max_frames=8)
        path = tmp_path / "run.timeline"
        save_timeline(path, recorder)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError) as excinfo:
            load_timeline(path)
        assert excinfo.value.code == "TIMELINE_CORRUPT"


class TestRunScope:
    def test_armed_only_during_run(self, armed_run):
        """The tracker arms its timeline on its own SoC for ``run()``
        only: one frame per step, and the SoC is disarmed after."""
        recorder = TimelineRecorder()
        tracker, seen = armed_run(timeline=recorder)
        assert seen and all(armed.timeline is recorder for armed in seen)
        assert recorder.num_frames == len(seen)
        soc = tracker.runner.soc
        assert soc.instruments.timeline is None
        assert not soc.state.every_net
