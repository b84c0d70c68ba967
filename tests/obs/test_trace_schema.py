"""Trace schema v4: versioned events, sequence numbers, correlation
context, progress monotonicity, and the linter."""

import io
import json

from repro.obs import (
    EVENT_SCHEMAS,
    Observer,
    TRACE_SCHEMA_VERSION,
    TraceRecorder,
    lint_trace,
)


def _events(sink: io.StringIO):
    return [
        json.loads(line) for line in sink.getvalue().splitlines() if line
    ]


class TestVersionAndSequence:
    def test_every_event_carries_version_and_seq(self):
        sink = io.StringIO()
        trace = TraceRecorder(sink)
        trace.emit("merge", site="0x10", cycle=1)
        trace.emit("prune", site="0x10", node=2, cycle=1)
        events = _events(sink)
        assert [event["v"] for event in events] == [TRACE_SCHEMA_VERSION] * 2
        assert [event["seq"] for event in events] == [0, 1]

    def test_set_sequence_continues_numbering(self):
        sink = io.StringIO()
        trace = TraceRecorder(sink)
        trace.set_sequence(41)
        trace.emit("merge", site="0x10", cycle=1)
        assert _events(sink)[0]["seq"] == 41
        assert trace.sequence == 42

    def test_observer_state_roundtrips_trace_seq(self):
        sink = io.StringIO()
        observer = Observer(trace=TraceRecorder(sink))
        observer.emit("merge", site="0x10", cycle=1)
        observer.counter("tracker.paths").inc(3)
        state = observer.export_state()
        assert state["trace_seq"] == 1

        resumed = Observer(trace=TraceRecorder(io.StringIO()))
        resumed.restore_state(state)
        assert resumed.trace.sequence == 1
        assert resumed.metrics.counter("tracker.paths").value == 3

    def test_restore_never_rewinds_sequence(self):
        observer = Observer(trace=TraceRecorder(io.StringIO()))
        observer.trace.set_sequence(10)
        observer.restore_state({"trace_seq": 4})
        assert observer.trace.sequence == 10


class TestLinter:
    def _write(self, tmp_path, lines):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_recorder_output_lints_clean(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path) as trace:
            trace.emit("merge", site="0x10", cycle=1)
            trace.emit(
                "step",
                cycle=1,
                phase="F",
                pc=0x10,
                reset=False,
                read=False,
                write=False,
                port_events=0,
                provenance_edges=12,
            )
            trace.emit(
                "provenance",
                edges=100,
                retained=100,
                capacity=1024,
                truncated=False,
                labels=["P1IN"],
            )
        assert lint_trace(path) == []

    def test_unparseable_line(self, tmp_path):
        path = self._write(tmp_path, ["{not json"])
        problems = lint_trace(path)
        assert len(problems) == 1
        assert "unparseable" in problems[0]

    def test_missing_reserved_fields(self, tmp_path):
        path = self._write(tmp_path, [json.dumps({"event": "merge"})])
        problems = lint_trace(path)
        assert any("'wall'" in problem for problem in problems)
        assert any("'v'" in problem for problem in problems)
        assert any("'seq'" in problem for problem in problems)

    def test_wrong_version(self, tmp_path):
        record = {
            "event": "merge", "wall": 0.0, "v": 1, "seq": 0,
            "site": "0x10", "cycle": 1,
        }
        path = self._write(tmp_path, [json.dumps(record)])
        assert any("version" in problem for problem in lint_trace(path))

    def test_non_monotonic_sequence(self, tmp_path):
        def record(seq):
            return json.dumps(
                {
                    "event": "merge", "wall": 0.0,
                    "v": TRACE_SCHEMA_VERSION, "seq": seq,
                    "site": "0x10", "cycle": 1,
                }
            )

        path = self._write(tmp_path, [record(5), record(5), record(4)])
        problems = lint_trace(path)
        assert len([p for p in problems if "seq" in p]) == 2

    def test_duplicated_seq_gets_its_own_message(self, tmp_path):
        def record(seq):
            return json.dumps(
                {
                    "event": "merge", "wall": 0.0,
                    "v": TRACE_SCHEMA_VERSION, "seq": seq,
                    "site": "0x10", "cycle": 1,
                }
            )

        path = self._write(tmp_path, [record(3), record(3)])
        problems = lint_trace(path)
        assert len(problems) == 1
        assert "duplicated seq 3" in problems[0]
        # No checkpoint boundary passed: the splice hint must not fire.
        assert "splice" not in problems[0]

    def test_seq_violation_after_checkpoint_names_the_splice(
        self, tmp_path
    ):
        """The classic resume bug: a checkpoint is saved at seq N, the
        resumed recorder restarts numbering, and the spliced trace
        repeats or rewinds seq.  The linter must say *why*, not just
        that the numbers went backwards."""
        def merge(seq):
            return json.dumps(
                {
                    "event": "merge", "wall": 0.0,
                    "v": TRACE_SCHEMA_VERSION, "seq": seq,
                    "site": "0x10", "cycle": 1,
                }
            )

        checkpoint = json.dumps(
            {
                "event": "checkpoint_saved", "wall": 0.1,
                "v": TRACE_SCHEMA_VERSION, "seq": 7,
                "path": "run.ckpt", "paths": 3, "cycles": 40,
                "reason": "interval",
            }
        )
        # Resume splice restarted at 0: rewound AND then duplicated.
        path = self._write(
            tmp_path, [merge(6), checkpoint, merge(0), merge(0)]
        )
        problems = [p for p in lint_trace(path) if "seq" in p]
        assert len(problems) == 2
        assert "not greater than previous 7" in problems[0]
        assert "checkpoint/resume splice" in problems[0]
        assert "duplicated seq 0" in problems[1]
        assert "checkpoint/resume splice" in problems[1]

    def test_interrupted_event_also_arms_the_splice_hint(self, tmp_path):
        interrupted = json.dumps(
            {
                "event": "interrupted", "wall": 0.1,
                "v": TRACE_SCHEMA_VERSION, "seq": 4,
                "reason": "SIGINT", "checkpoint": "run.ckpt",
                "paths": 2, "cycles": 10,
            }
        )
        merge = json.dumps(
            {
                "event": "merge", "wall": 0.2,
                "v": TRACE_SCHEMA_VERSION, "seq": 1,
                "site": "0x10", "cycle": 1,
            }
        )
        path = self._write(tmp_path, [interrupted, merge])
        problems = [p for p in lint_trace(path) if "seq" in p]
        assert len(problems) == 1
        assert "checkpoint/resume splice" in problems[0]

    def test_unknown_event_type(self, tmp_path):
        record = {
            "event": "nonsense", "wall": 0.0,
            "v": TRACE_SCHEMA_VERSION, "seq": 0,
        }
        path = self._write(tmp_path, [json.dumps(record)])
        assert any("unknown event" in problem for problem in lint_trace(path))

    def test_missing_and_undeclared_fields(self, tmp_path):
        record = {
            "event": "merge", "wall": 0.0,
            "v": TRACE_SCHEMA_VERSION, "seq": 0,
            "site": "0x10",  # missing: cycle
            "surprise": True,  # undeclared
        }
        path = self._write(tmp_path, [json.dumps(record)])
        problems = lint_trace(path)
        assert any("missing field 'cycle'" in problem for problem in problems)
        assert any(
            "undeclared field 'surprise'" in problem for problem in problems
        )

    def test_keyframe_era_timeline_events_lint_clean(self, tmp_path):
        """``timeline``/``record`` events no longer write ``keyframes``,
        but v4 traces that carry it still lint clean."""
        base = {"wall": 0.0, "v": TRACE_SCHEMA_VERSION}
        lines = [
            json.dumps(dict(
                base, event="timeline", seq=0,
                frames=9, keyframes=1, truncated=False,
            )),
            json.dumps(dict(
                base, event="record", seq=1, out="run.timeline",
                frames=9, keyframes=1, cycles=9, truncated=False,
            )),
        ]
        assert lint_trace(self._write(tmp_path, lines)) == []

    def test_blank_lines_are_ignored(self, tmp_path):
        record = {
            "event": "merge", "wall": 0.0,
            "v": TRACE_SCHEMA_VERSION, "seq": 0,
            "site": "0x10", "cycle": 1,
        }
        path = self._write(tmp_path, ["", json.dumps(record), "  ", ""])
        assert lint_trace(path) == []

    def test_empty_trace_is_a_problem(self, tmp_path):
        """v3: zero events means a truncated or failed run."""
        path = self._write(tmp_path, [""])
        assert any("no events" in problem for problem in lint_trace(path))
        blank = self._write(tmp_path, ["", "  ", ""])
        assert any("no events" in problem for problem in lint_trace(blank))

    def test_schemas_cover_the_documented_events(self):
        # The v2 contract: provenance events exist, step declares the
        # optional provenance_edges field.
        assert "provenance" in EVENT_SCHEMAS
        assert "provenance_truncated" in EVENT_SCHEMAS
        assert "provenance_edges" in EVENT_SCHEMAS["step"]["optional"]
        # The v3 contract: timeline events exist, step declares the
        # optional timeline_frames field.
        assert "timeline" in EVENT_SCHEMAS
        assert "record" in EVENT_SCHEMAS
        assert "timeline_frames" in EVENT_SCHEMAS["step"]["optional"]
        assert "out" in EVENT_SCHEMAS["record"]["required"]
        # The v4 contract: progress events exist and carry the estimator
        # snapshot fields.
        assert TRACE_SCHEMA_VERSION == 4
        assert "progress" in EVENT_SCHEMAS
        assert "fraction" in EVENT_SCHEMAS["progress"]["required"]
        assert "eta_seconds" in EVENT_SCHEMAS["progress"]["optional"]


class TestCorrelationContext:
    def _record(self, seq, **extra):
        return {
            "event": "merge", "wall": 0.0,
            "v": TRACE_SCHEMA_VERSION, "seq": seq,
            "site": "0x10", "cycle": 1,
            **extra,
        }

    def test_recorder_stamps_context_on_every_event(self):
        sink = io.StringIO()
        trace = TraceRecorder(
            sink, context={"job_id": "j1", "attempt": 2, "run_id": "r9"}
        )
        trace.emit("merge", site="0x10", cycle=1)
        trace.emit("prune", site="0x10", node=2, cycle=1)
        for event in _events(sink):
            assert event["job_id"] == "j1"
            assert event["attempt"] == 2
            assert event["run_id"] == "r9"

    def test_set_context_rejects_unknown_fields(self):
        trace = TraceRecorder(io.StringIO())
        try:
            trace.set_context(pid=42)
        except ValueError as error:
            assert "pid" in str(error)
        else:
            raise AssertionError("unknown context field accepted")

    def test_none_drops_a_context_key(self):
        sink = io.StringIO()
        trace = TraceRecorder(sink, context={"job_id": "j1"})
        trace.set_context(job_id=None)
        trace.emit("merge", site="0x10", cycle=1)
        assert "job_id" not in _events(sink)[0]

    def test_correlated_trace_lints_clean(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(
            path, context={"job_id": "j1", "attempt": 1, "run_id": "r1"}
        ) as trace:
            trace.emit("merge", site="0x10", cycle=1)
            trace.emit("widen", site="0x10", node=3, cycle=2)
        assert lint_trace(path) == []

    def test_context_change_mid_trace_is_flagged(self, tmp_path):
        lines = [
            json.dumps(self._record(0, job_id="j1", attempt=1)),
            json.dumps(self._record(1, job_id="j2", attempt=1)),
        ]
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        problems = lint_trace(path)
        assert len(problems) == 1
        assert "correlation context changed mid-trace" in problems[0]
        assert "job_id" in problems[0]

    def test_context_appearing_late_is_flagged(self, tmp_path):
        lines = [
            json.dumps(self._record(0)),
            json.dumps(self._record(1, job_id="j1")),
        ]
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        problems = lint_trace(path)
        assert any("correlation context" in p for p in problems)

    def test_context_fields_are_not_undeclared(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(self._record(0, job_id="j1")) + "\n")
        assert not any("undeclared" in p for p in lint_trace(path))


class TestProgressLint:
    def _progress(self, seq, **overrides):
        record = {
            "event": "progress", "wall": float(seq),
            "v": TRACE_SCHEMA_VERSION, "seq": seq,
            "paths": 1, "pending": 0, "cycles": 10,
            "merged_states": 0, "violations": 0, "fraction": 0.1,
        }
        record.update(overrides)
        return json.dumps(record)

    def _write(self, tmp_path, lines):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_monotone_progress_lints_clean(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                self._progress(0, paths=1, cycles=10, fraction=0.1),
                self._progress(1, paths=3, cycles=50, fraction=0.4),
                self._progress(2, paths=3, cycles=50, fraction=0.4),
            ],
        )
        assert lint_trace(path) == []

    def test_regressing_counters_are_flagged(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                self._progress(0, paths=5, cycles=100, fraction=0.5),
                self._progress(1, paths=4, cycles=90, fraction=0.3),
            ],
        )
        problems = lint_trace(path)
        assert any("paths regressed" in p for p in problems)
        assert any("cycles regressed" in p for p in problems)
        assert any("fraction regressed" in p for p in problems)

    def test_pending_may_shrink(self, tmp_path):
        # pending is a frontier size, not a monotone counter.
        path = self._write(
            tmp_path,
            [
                self._progress(0, pending=9),
                self._progress(1, pending=2),
            ],
        )
        assert lint_trace(path) == []

    def test_optional_fields_are_declared(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                self._progress(
                    0,
                    eta_seconds=12.5,
                    rate_paths_per_s=4.0,
                    budget={"paths": 0.25},
                )
            ],
        )
        assert lint_trace(path) == []

    def test_missing_fraction_is_flagged(self, tmp_path):
        record = json.loads(self._progress(0))
        del record["fraction"]
        path = self._write(tmp_path, [json.dumps(record)])
        assert any(
            "missing field 'fraction'" in p for p in lint_trace(path)
        )


class TestTraceLintCli:
    def test_clean_trace_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path) as trace:
            trace.emit("merge", site="0x10", cycle=1)
        assert main(["trace-lint", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_dirty_trace_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trace.jsonl"
        path.write_text('{"event": "nonsense"}\n')
        assert main(["trace-lint", str(path)]) == 1
        output = capsys.readouterr().out
        assert "unknown event" in output
        assert "problem(s)" in output

    def test_missing_file_is_an_input_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["trace-lint", str(tmp_path / "nope.jsonl")]) == 4

    def test_empty_file_exits_one_not_traceback(self, tmp_path, capsys):
        """Regression: an empty trace used to lint clean; it is the
        signature of a truncated or failed run and must exit 1."""
        from repro.cli import main

        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["trace-lint", str(path)]) == 1
        output = capsys.readouterr().out
        assert "no events" in output
        assert "problem(s)" in output

    def test_truncated_trace_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path) as trace:
            trace.emit("merge", site="0x10", cycle=1)
            trace.emit("merge", site="0x20", cycle=2)
        text = path.read_text()
        path.write_text(text[: len(text) - 10])  # cut mid-record
        assert main(["trace-lint", str(path)]) == 1
        assert "unparseable" in capsys.readouterr().out

    def test_binary_file_exits_nonzero_not_traceback(self, tmp_path, capsys):
        """Regression: undecodable bytes raised UnicodeDecodeError
        straight through main() instead of the documented exit code."""
        from repro.cli import main

        path = tmp_path / "binary.jsonl"
        path.write_bytes(b"\xff\xfe\x00\x01 not json \x80\n")
        code = main(["trace-lint", str(path)])
        assert code == 1
        assert "problem(s)" in capsys.readouterr().out
