"""Unit coverage for the timeline flight recorder and scrub API."""

import numpy as np
import pytest

from repro.obs.timeline import (
    FRAME_DELTA,
    FRAME_KEY,
    Timeline,
    TimelineRecorder,
    load_timeline,
    read_timeline_header,
    resolve_markers,
    save_timeline,
)
from repro.resilience.errors import CheckpointError

NETS = 16


def _recorder(keyframe_interval=4, max_frames=1 << 20):
    recorder = TimelineRecorder(
        keyframe_interval=keyframe_interval, max_frames=max_frames
    )
    recorder.bind_raw(
        NETS,
        tuple(f"n{i}" for i in range(NETS)),
        {"word": (0, 1, 2, 3)},
    )
    return recorder


def _record_random(recorder, frames, seed=0):
    """Feed pseudo-random code churn; returns the reference arrays."""
    rng = np.random.RandomState(seed)
    codes = np.zeros(NETS, dtype=np.uint8)
    reference = []
    for cycle in range(frames):
        codes = codes.copy()
        for _ in range(rng.randint(0, 4)):
            codes[rng.randint(0, NETS)] = rng.choice([0, 1, 2, 3, 4, 5])
        recorder.on_step(cycle, codes)
        reference.append(codes.copy())
    return reference


class TestRecorder:
    def test_keyframe_cadence(self):
        recorder = _recorder(keyframe_interval=4)
        _record_random(recorder, 10)
        kinds = [kind for kind, _, _ in recorder._frames]
        assert kinds[0] == FRAME_KEY
        assert kinds[4] == FRAME_KEY
        assert kinds[8] == FRAME_KEY
        assert all(kind == FRAME_DELTA for kind in kinds[1:4])
        assert recorder.keyframes == 3

    def test_deltas_only_store_changes(self):
        recorder = _recorder(keyframe_interval=100)
        codes = np.zeros(NETS, dtype=np.uint8)
        recorder.on_step(0, codes)
        codes = codes.copy()
        codes[3] = 5
        recorder.on_step(1, codes)
        kind, _, (changed, values) = recorder._frames[1]
        assert kind == FRAME_DELTA
        assert list(changed) == [3]
        assert list(values) == [5]

    def test_identical_index_sets_are_interned(self):
        recorder = _recorder(keyframe_interval=1000)
        codes = np.zeros(NETS, dtype=np.uint8)
        recorder.on_step(0, codes)
        for cycle in range(1, 6):
            codes = codes.copy()
            codes[7] = cycle % 6
            recorder.on_step(cycle, codes)
        arrays = {
            id(data[0])
            for kind, _, data in recorder._frames
            if kind == FRAME_DELTA
        }
        assert len(arrays) == 1  # one shared index vector

    def test_max_frames_truncates_without_error(self):
        recorder = _recorder(max_frames=5)
        _record_random(recorder, 9)
        assert recorder.num_frames == 5
        assert recorder.truncated
        assert recorder.dropped == 4
        assert recorder.snapshot()["truncated"] is True

    def test_bad_construction_rejected(self):
        with pytest.raises(ValueError):
            TimelineRecorder(keyframe_interval=0)
        with pytest.raises(ValueError):
            TimelineRecorder(max_frames=0)

    def test_export_restore_continues_bit_identically(self):
        original = _recorder()
        reference = _record_random(original, 7)
        resumed = TimelineRecorder()
        resumed.restore_state(original.export_state())
        tail = np.array(reference[-1], dtype=np.uint8)
        for cycle in range(7, 12):
            tail = tail.copy()
            tail[cycle % NETS] ^= 1
            original.on_step(cycle, tail)
            resumed.on_step(cycle, tail)
        a, b = original.to_timeline(), resumed.to_timeline()
        assert a.num_frames == b.num_frames
        for frame in range(a.num_frames):
            assert np.array_equal(a.seek(frame), b.seek(frame)), frame


class TestTimelineQueries:
    def _timeline(self, frames=20, keyframe_interval=4):
        recorder = _recorder(keyframe_interval=keyframe_interval)
        reference = _record_random(recorder, frames)
        return recorder.to_timeline(), reference

    def test_seek_matches_reference_every_frame(self):
        timeline, reference = self._timeline()
        for frame in range(len(reference)):
            assert np.array_equal(timeline.seek(frame), reference[frame])

    def test_seek_random_order_and_backwards(self):
        timeline, reference = self._timeline()
        for frame in (19, 2, 11, 11, 0, 18, 5):
            assert np.array_equal(
                timeline.seek(frame), reference[frame]
            ), frame

    def test_seek_returns_a_copy(self):
        timeline, reference = self._timeline()
        codes = timeline.seek(3)
        codes[:] = 99
        assert np.array_equal(timeline.seek(3), reference[3])

    def test_seek_out_of_range(self):
        timeline, _ = self._timeline()
        with pytest.raises(IndexError, match="out of range"):
            timeline.seek(timeline.num_frames)
        assert np.array_equal(
            timeline.seek(-1), timeline.seek(timeline.num_frames - 1)
        )

    def test_net_history_tracks_one_net(self):
        timeline, reference = self._timeline()
        history = timeline.net_history(5, 2, 9)
        assert [entry[0] for entry in history] == list(range(2, 10))
        for frame, cycle, value, taint in history:
            code = int(reference[frame][5])
            assert (value, taint) == (code >> 1, code & 1)
            assert cycle == frame  # test feed uses cycle == frame

    def test_net_history_bad_net(self):
        timeline, _ = self._timeline()
        with pytest.raises(IndexError, match="net"):
            timeline.net_history(NETS + 1)

    def test_first_tainted(self):
        recorder = _recorder()
        codes = np.zeros(NETS, dtype=np.uint8)
        recorder.on_step(0, codes)
        codes = codes.copy()
        codes[2] = 2  # value 1, untainted
        recorder.on_step(1, codes)
        codes = codes.copy()
        codes[2] = 3  # tainted
        recorder.on_step(2, codes)
        timeline = recorder.to_timeline()
        assert timeline.first_tainted(2) == (2, 2)
        assert timeline.first_tainted(9) is None

    def test_taint_frontier_names_newly_tainted(self):
        recorder = _recorder()
        codes = np.zeros(NETS, dtype=np.uint8)
        codes[0] = 1
        recorder.on_step(0, codes)
        codes = codes.copy()
        codes[4] = 1
        recorder.on_step(1, codes)
        recorder.on_step(2, codes)
        timeline = recorder.to_timeline()
        assert list(timeline.taint_frontier(0)) == [0]
        assert list(timeline.taint_frontier(1)) == [4]
        assert list(timeline.taint_frontier(2)) == []

    def test_tainted_nets_and_density_agree_with_seek(self):
        timeline, reference = self._timeline()
        density = timeline.taint_density()
        for frame in range(timeline.num_frames):
            tainted = np.nonzero(reference[frame] & 1)[0]
            assert np.array_equal(timeline.tainted_nets(frame), tainted)
            assert density[frame] == pytest.approx(len(tainted) / NETS)

    def test_port_word_and_lanes(self):
        recorder = _recorder()
        codes = np.zeros(NETS, dtype=np.uint8)
        codes[0] = 2  # bit0 = 1
        codes[1] = 3  # bit1 = 1, tainted
        codes[2] = 4  # bit2 = X
        recorder.on_step(0, codes)
        timeline = recorder.to_timeline()
        assert timeline.port_word(0, "word") == (0b0011, 0b0100, 0b0010)
        assert timeline.port_lanes(["word", "missing"]) == {
            "word": [(0b0011, 0b0100, 0b0010)]
        }
        with pytest.raises(KeyError, match="unknown port"):
            timeline.port_word(0, "nope")

    def test_cycle_translation(self):
        timeline, _ = self._timeline(frames=6)
        assert timeline.cycle_of(3) == 3
        assert timeline.frames_at_cycle(3) == [3]
        with pytest.raises(IndexError, match="no frame"):
            timeline.latest_frame_at_cycle(99)


class TestMarkers:
    class _FakeViolation:
        def __init__(self, cycle):
            self.cycle = cycle
            self.kind = "tainted_write_untainted_memory"
            self.condition = 2
            self.address = 0x200
            self.task = "app"

    def test_marker_resolves_to_latest_frame_for_cycle(self):
        frames = [
            (FRAME_KEY, 0, np.zeros(4, dtype=np.uint8)),
            (FRAME_DELTA, 1, (np.array([0]), np.array([1], dtype=np.uint8))),
            # the tracker revisits cycle 1 on a restored path:
            (FRAME_DELTA, 1, (np.array([0]), np.array([3], dtype=np.uint8))),
        ]
        markers = resolve_markers(frames, [self._FakeViolation(1)])
        assert len(markers) == 1
        assert markers[0].frame == 2
        assert markers[0].kind == "tainted_write_untainted_memory"

    def test_unrecorded_cycle_is_skipped(self):
        frames = [(FRAME_KEY, 0, np.zeros(4, dtype=np.uint8))]
        assert resolve_markers(frames, [self._FakeViolation(7)]) == []


class TestFileRoundTrip:
    def test_save_load_bit_identical(self, tmp_path):
        recorder = _recorder()
        reference = _record_random(recorder, 15)
        path = tmp_path / "run.timeline"
        save_timeline(path, recorder, meta={"workload": "unit"})
        header = read_timeline_header(path)
        assert header["frames"] == 15
        assert header["workload"] == "unit"
        loaded = load_timeline(path)
        assert loaded.num_nets == NETS
        assert loaded.net_names[3] == "n3"
        assert loaded.port_nets["word"] == (0, 1, 2, 3)
        for frame in range(15):
            assert np.array_equal(loaded.seek(frame), reference[frame])

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
        recorder = _recorder()
        _record_random(recorder, 8)
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
        recorder = _recorder()
        tracker, seen = armed_run(timeline=recorder)
        assert seen and all(armed.timeline is recorder for armed in seen)
        assert recorder.num_frames == len(seen)
        soc = tracker.runner.soc
        assert soc.instruments.timeline is None
        assert not soc.state.every_net
