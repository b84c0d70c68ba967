"""Checkpoint/resume: determinism, validation, cadence."""

import pickle

import pytest

from repro.core import TaintTracker, default_policy
from repro.core.tracker import _state_digest
from repro.isa.assembler import assemble
from repro.resilience import (
    CHECKPOINT_VERSION,
    AnalysisInterrupted,
    CheckpointError,
    Checkpointer,
    read_checkpoint,
    read_checkpoint_header,
    write_checkpoint,
)

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

OTHER = """
.task sys trusted
    mov #21, r4
    add r4, r4
    mov r4, &P2OUT
    halt
"""


def _tracker(source=FORKY, name="forky", **kwargs):
    program = assemble(source, name=name)
    return TaintTracker(program, default_policy(), **kwargs)


def _interrupt_after(tracker, paths):
    """Arrange a one-shot cooperative interrupt after *paths* paths."""
    original = tracker._explore_path
    fired = []

    def wrapper(*args, **kwargs):
        original(*args, **kwargs)
        if not fired and tracker.stats.paths >= paths:
            fired.append(True)
            tracker.request_interrupt("test")

    tracker._explore_path = wrapper
    return tracker


class TestFileFormat:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_checkpoint(
            path, "digest123", {"x": 1}, meta={"paths": 7}
        )
        header = read_checkpoint_header(path)
        assert header["version"] == CHECKPOINT_VERSION
        assert header["digest"] == "digest123"
        assert header["paths"] == 7
        assert read_checkpoint(path, "digest123") == {"x": 1}

    def test_stale_digest_rejected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_checkpoint(path, "digest123", {"x": 1})
        with pytest.raises(CheckpointError) as info:
            read_checkpoint(path, "otherdigest")
        assert info.value.code == "CHECKPOINT_STALE"
        assert "scratch" in str(info.value)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError) as info:
            read_checkpoint_header(path)
        assert info.value.code == "CHECKPOINT_CORRUPT"

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        path.write_bytes(
            b"REPRO-CKPT\n" + b'{"version": 999, "digest": "d"}\n'
        )
        with pytest.raises(CheckpointError) as info:
            read_checkpoint_header(path)
        assert info.value.code == "CHECKPOINT_VERSION"

    def test_corrupt_payload_rejected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_checkpoint(path, "d", {"x": 1})
        data = path.read_bytes()
        path.write_bytes(data[:-4])  # truncate the pickle
        with pytest.raises(CheckpointError) as info:
            read_checkpoint(path, "d")
        assert info.value.code == "CHECKPOINT_CORRUPT"

    def test_missing_file_is_typed(self, tmp_path):
        with pytest.raises(CheckpointError) as info:
            read_checkpoint_header(tmp_path / "nope.ckpt")
        assert info.value.code == "CHECKPOINT_READ"


class TestDigest:
    def test_digest_is_stable_across_trackers(self):
        assert _tracker().config_digest() == _tracker().config_digest()

    def test_digest_distinguishes_programs(self):
        a = _tracker(FORKY, "a").config_digest()
        b = _tracker(OTHER, "b").config_digest()
        assert a != b


class TestInterruptResume:
    def test_interrupt_saves_and_resume_matches(self, tmp_path):
        baseline = _tracker().run()
        assert baseline.verdict == "secure"

        ckpt = tmp_path / "run.ckpt"
        tracker = _interrupt_after(
            _tracker(checkpointer=Checkpointer(ckpt)), paths=1
        )
        with pytest.raises(AnalysisInterrupted) as info:
            tracker.run()
        assert info.value.checkpoint_path == str(ckpt)
        assert ckpt.exists()

        fresh = _tracker()
        payload = read_checkpoint(ckpt, fresh.config_digest())
        fresh.restore_checkpoint(payload)
        resumed = fresh.run()
        assert resumed.verdict == baseline.verdict
        assert resumed.stats.paths == baseline.stats.paths
        assert [v.kind for v in resumed.violations] == [
            v.kind for v in baseline.violations
        ]

    def test_in_process_rerun_after_interrupt(self):
        baseline = _tracker().run()
        tracker = _interrupt_after(_tracker(), paths=1)
        with pytest.raises(AnalysisInterrupted):
            tracker.run()
        # The worklist survives in the tracker: calling run() again
        # continues in-process and reaches the uninterrupted verdict.
        resumed = tracker.run()
        assert resumed.verdict == baseline.verdict
        assert resumed.stats.paths == baseline.stats.paths

    def test_resumed_violations_match_on_insecure_program(self, tmp_path):
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
        baseline = _tracker(vulnerable, "vuln").run()
        assert baseline.verdict == "insecure"

        ckpt = tmp_path / "vuln.ckpt"
        tracker = _interrupt_after(
            _tracker(vulnerable, "vuln", checkpointer=Checkpointer(ckpt)),
            paths=1,
        )
        try:
            tracker.run()
        except AnalysisInterrupted:
            fresh = _tracker(vulnerable, "vuln")
            fresh.restore_checkpoint(
                read_checkpoint(ckpt, fresh.config_digest())
            )
            resumed = fresh.run()
        else:  # finished before the interrupt could fire
            resumed = baseline
        assert resumed.verdict == baseline.verdict
        assert sorted(v.kind for v in resumed.violations) == sorted(
            v.kind for v in baseline.violations
        )

    def test_stale_checkpoint_cannot_cross_programs(self, tmp_path):
        ckpt = tmp_path / "a.ckpt"
        tracker = _tracker()
        Checkpointer(ckpt).save(tracker, reason="test")
        other = _tracker(OTHER, "other")
        with pytest.raises(CheckpointError) as info:
            read_checkpoint(ckpt, other.config_digest())
        assert info.value.code == "CHECKPOINT_STALE"


class TestCadence:
    def test_due_every_n_paths(self):
        checkpointer = Checkpointer("/tmp/unused.ckpt", every_paths=2)
        assert not checkpointer.due(1)
        assert checkpointer.due(2)
        checkpointer._last_saved_paths = 2
        assert not checkpointer.due(3)
        assert checkpointer.due(4)

    def test_zero_cadence_never_due(self):
        checkpointer = Checkpointer("/tmp/unused.ckpt", every_paths=0)
        assert not checkpointer.due(10**6)

    def test_periodic_saves_during_run(self, tmp_path):
        ckpt = tmp_path / "cad.ckpt"
        checkpointer = Checkpointer(ckpt, every_paths=1)
        result = _tracker(checkpointer=checkpointer).run()
        assert result.verdict == "secure"
        assert checkpointer.saves >= 1
        assert ckpt.exists()


PORT_COPY = """
.task sys trusted
start:
    mov #0x0FFE, sp
    call #app
    jmp start
.task app untrusted
app:
    mov &P1IN, r4
    and #0x0003, r4
    mov r4, &P2OUT
    ret
"""


def _pickle_roundtrip(value):
    return pickle.loads(pickle.dumps(value))


class TestSnapshotPickle:
    """A checkpoint file pickles the worklist and merge-table
    ``SoCState``s.  Resume re-keys the concrete-visit dedup table by
    ``_state_digest``, so a snapshot must keep its digest across the
    round trip and continue exactly like the original; otherwise a
    resumed run would silently diverge from an uninterrupted one."""

    def test_soc_state_roundtrip_preserves_digest(self):
        soc = _tracker(PORT_COPY, "pickle_probe").runner.soc
        for _ in range(25):
            soc.step()
            state = soc.snapshot()
            clone = _pickle_roundtrip(state)
            assert _state_digest(clone) == _state_digest(state)
            assert clone.cycle == state.cycle
            assert clone.pending_por == state.pending_por

    def test_soc_state_roundtrip_resumes_identically(self):
        soc = _tracker(PORT_COPY, "pickle_probe").runner.soc
        for _ in range(10):
            soc.step()
        state = soc.snapshot()
        for _ in range(10):
            soc.step()
        after_original = _state_digest(soc.snapshot())

        soc.restore(_pickle_roundtrip(state))
        for _ in range(10):
            soc.step()
        assert _state_digest(soc.snapshot()) == after_original
