"""`repro record` / `repro view` end-to-end, and viewer self-containment.

The acceptance loop from the issue: record a workload, render the
viewer, and prove that scrubbing to the violation cycle shows the same
tainted nets ``repro explain`` names -- the timeline read forward must
agree with the provenance slice read backward.
"""

import json

import pytest

from repro.cli import main
from repro.core import TaintTracker, default_policy
from repro.obs import ProvenanceRecorder, TimelineRecorder, read_events
from repro.obs.provenance import explain_violation, sink_nets_for
from repro.obs.timeline import load_timeline
from repro.obs.viewer import build_viewer
from repro.isa.assembler import assemble
from repro.workloads.motivating import figure4_source


def _figure4_program():
    return assemble(figure4_source(), name="figure4")


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One `repro record figure4` run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("record")
    timeline_path = root / "t.timeline"
    trace_path = root / "t.jsonl"
    code = main(
        [
            "record",
            "figure4",
            "--out",
            str(timeline_path),
            "--trace",
            str(trace_path),
        ]
    )
    assert code == 0
    return timeline_path, trace_path


class TestRecordCli:
    def test_writes_a_loadable_timeline(self, recorded, capsys):
        timeline_path, _ = recorded
        timeline = load_timeline(timeline_path)
        assert timeline.num_frames > 0
        assert timeline.num_nets > 0
        assert timeline.markers, "figure4 violates; markers expected"
        assert timeline.meta["workload"] == "figure4"
        assert timeline.meta["verdict"] == "insecure"

    def test_trace_carries_timeline_and_record_events(self, recorded):
        _, trace_path = recorded
        events = read_events(trace_path)
        by_type = {event["event"] for event in events}
        assert "timeline" in by_type
        assert "record" in by_type
        record = next(e for e in events if e["event"] == "record")
        assert record["frames"] > 0
        assert record["truncated"] is False
        assert record["workload"] == "figure4"

    def test_trace_lints_clean_under_v3(self, recorded, capsys):
        _, trace_path = recorded
        assert main(["trace-lint", str(trace_path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_record_exit_zero_even_when_insecure(self, recorded, capsys):
        # `repro record x && repro view x` must chain: recording is an
        # artifact-producing command, the verdict is in the output text.
        timeline_path, _ = recorded
        assert timeline_path.exists()

    def test_max_frames_truncates(self, tmp_path, capsys):
        out = tmp_path / "small.timeline"
        assert (
            main(
                ["record", "figure4", "--out", str(out), "--max-frames", "10"]
            )
            == 0
        )
        assert "[truncated]" in capsys.readouterr().out
        assert load_timeline(out).num_frames == 10


class TestViewCli:
    def test_view_writes_self_contained_html(self, recorded, tmp_path, capsys):
        timeline_path, _ = recorded
        html_path = tmp_path / "t.html"
        assert main(["view", str(timeline_path), "--out", str(html_path)]) == 0
        html = html_path.read_text()
        assert "http://" not in html and "https://" not in html
        assert "<style>" in html and "<script" in html
        assert "tl-data" in html
        assert "figure4" in html  # title from the timeline metadata
        assert "marker" in html

    def test_missing_timeline_is_a_checkpoint_error(self, tmp_path):
        assert main(["view", str(tmp_path / "nope.timeline")]) == 5


class TestViewerAgreesWithExplain:
    def test_violation_frame_shows_explains_tainted_nets(self):
        """Acceptance: scrub to the violation cycle -> the nets `repro
        explain` names as tainted sinks are tainted in the timeline."""
        program = _figure4_program()
        timeline_recorder = TimelineRecorder()
        provenance = ProvenanceRecorder(capacity=1 << 20)
        result = TaintTracker(
            program,
            policy=default_policy(),
            provenance=provenance,
            timeline=timeline_recorder,
        ).run()
        assert result.violations
        timeline = timeline_recorder.to_timeline(result.violations)
        checked = 0
        for violation in result.violations:
            flow = explain_violation(result, violation, recorder=provenance)
            if not flow.sink_nets:
                continue
            frames = timeline.frames_at_cycle(violation.cycle)
            if not frames:
                continue
            tainted_here = timeline.slice_nets_tainted_at(flow)
            assert set(tainted_here) == set(flow.sink_nets), (
                f"{violation.kind}@{violation.cycle}: timeline and "
                "explain disagree on tainted sink nets"
            )
            # and the policy's sink ports for this kind agree too
            codes = timeline.seek(timeline.latest_frame_at_cycle(violation.cycle))
            sink_nets = sink_nets_for(result.circuit, violation.kind)
            sink_tainted = [n for n in sink_nets if codes[n] & 1]
            assert set(flow.sink_nets) <= set(sink_tainted)
            checked += 1
        assert checked > 0, "no violation was checkable"

    def test_viewer_marker_lists_tainted_port_bits(self):
        program = _figure4_program()
        recorder = TimelineRecorder()
        result = TaintTracker(
            program, policy=default_policy(), timeline=recorder
        ).run()
        timeline = recorder.to_timeline(result.violations)
        html = build_viewer(timeline)
        payload = html.split("id='tl-data'>")[1].split("</script>")[0]
        data = json.loads(payload)
        assert data["markers"], "figure4 markers must land in the viewer"
        write_markers = [
            marker
            for marker in data["markers"]
            if marker["kind"] == "tainted_write_untainted_memory"
        ]
        for marker in write_markers:
            assert any(
                name.startswith("dmem_") for name in marker["tainted_ports"]
            ), marker
        # every lane series covers every frame
        for port in data["lane_order"]:
            for series in data["lanes"][port].values():
                assert len(series) == len(data["cycles"])

    def test_viewer_data_island_decodes_to_the_scan(self):
        """The page's lanes are three flat per-frame arrays per port:
        decoded, they are ``Timeline.scan``'s words, frame for frame."""
        program = _figure4_program()
        recorder = TimelineRecorder()
        result = TaintTracker(
            program, policy=default_policy(), timeline=recorder
        ).run()
        timeline = recorder.to_timeline(result.violations)
        html = build_viewer(timeline)
        payload = html.split("id='tl-data'>")[1].split("</script>")[0]
        data = json.loads(payload)
        lanes, counts = timeline.scan(data["lane_order"])
        assert data["lane_order"] and set(lanes) == set(data["lane_order"])
        for port in data["lane_order"]:
            lane = data["lanes"][port]
            assert sorted(lane) == ["bits", "tmask", "xmask"]
            assert (lane["bits"], lane["xmask"], lane["tmask"]) == (
                lanes[port]
            ), port
            for frame in (0, timeline.num_frames - 1):
                assert timeline.port_word(frame, port) == (
                    lane["bits"][frame],
                    lane["xmask"][frame],
                    lane["tmask"][frame],
                )
        assert data["tainted"] == counts.tolist()


class TestReportLink:
    def test_report_embeds_timeline_link(self, tmp_path, capsys):
        out = tmp_path / "report.html"
        code = main(
            [
                "report",
                "figure4",
                "-o",
                str(out),
                "--timeline",
                "t.html",
            ]
        )
        assert code == 0
        html = out.read_text()
        assert "href='t.html'" in html
        # the report itself must stay script-free and self-contained
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html
