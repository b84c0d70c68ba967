"""Tests for the taint-provenance recorder, slicer and report."""

import numpy as np
import pytest

from repro.cli import main
from repro.core import TaintTracker, default_policy
from repro.isa.assembler import assemble
from repro.obs import NO_INSTRUMENTS, lint_trace, read_events
from repro.obs.provenance import (
    KIND_GATE,
    RAM_WRITE_CAP,
    ProvenanceRecorder,
    explain_violation,
)
from repro.obs.report import build_report
from repro.resilience import FaultInjector, SimulationError
from repro.workloads.motivating import figure4_source
from tests.conftest import STRAIGHT_LINE


def _ids(values):
    return np.asarray(values, dtype=np.int64)


class TestRecorder:
    def test_off_by_default(self, armed_run):
        assert NO_INSTRUMENTS.provenance is None
        _, seen = armed_run()
        assert seen and all(armed.provenance is None for armed in seen)

    def test_hook_installs_and_restores(self, armed_run):
        """The tracker arms its recorder on its own SoC for ``run()``
        only: every step records, and the SoC is disarmed after."""
        recorder = ProvenanceRecorder(capacity=16)
        tracker, seen = armed_run(provenance=recorder)
        assert seen and all(armed.provenance is recorder for armed in seen)
        soc = tracker.runner.soc
        assert soc.instruments is NO_INSTRUMENTS
        assert not soc.state.every_net

    def test_hook_restores_on_exception(self):
        tracker = TaintTracker(
            assemble(STRAIGHT_LINE),
            provenance=ProvenanceRecorder(capacity=16),
            faults=FaultInjector(seed=1, rate=1.0, kinds=("gate_eval",)),
        )
        with pytest.raises(SimulationError):
            tracker.run()
        assert tracker.runner.soc.instruments is NO_INSTRUMENTS
        assert not tracker.runner.soc.state.every_net

    def test_label_interning_is_stable(self):
        recorder = ProvenanceRecorder(capacity=16)
        first = recorder.label_id("P1IN")
        second = recorder.label_id("rom")
        assert first == recorder.label_id("P1IN")
        assert first != second
        assert first < 0 and second < 0
        assert recorder.node_name(first) == "P1IN"
        assert recorder.node_name(second) == "rom"

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ProvenanceRecorder(capacity=0)

    def test_ring_wrap_sets_truncated_and_keeps_newest(self):
        recorder = ProvenanceRecorder(capacity=4)
        recorder.bind_raw(100)
        for cycle in range(6):
            recorder.begin_cycle(cycle)
            recorder.record_gate(_ids([cycle]), _ids([cycle + 50]))
        assert recorder.recorded == 6
        assert recorder.truncated
        # Only the newest 4 edges survive; dst 0 and 1 were evicted.
        survivors = [net for net in range(100) if recorder.causes_of(net, 5)]
        assert survivors == [2, 3, 4, 5]
        # The sixth edge is stream position 3, in ring row 5 % 4.
        assert recorder.causes_of(5, 5) == [(3, 1)]

    def test_truncation_names_its_cause(self):
        recorder = ProvenanceRecorder(capacity=64)
        recorder.bind_raw(100)
        assert recorder.truncated_by == [] and not recorder.truncated
        recorder.record_ram_write(list(range(RAM_WRITE_CAP + 1)), _ids([1]))
        assert recorder.recorded == RAM_WRITE_CAP  # below capacity
        assert recorder.truncated_by == ["ram_write_cap"]
        recorder.record_gate(_ids(range(64)), _ids(range(64)))
        assert recorder.truncated_by == ["ram_write_cap", "ring_wrapped"]
        assert recorder.truncated is True
        assert recorder.snapshot()["truncated_by"] == recorder.truncated_by
        clone = ProvenanceRecorder(capacity=64)
        clone.restore_state(recorder.export_state())
        assert clone.truncated_by == ["ram_write_cap", "ring_wrapped"]

    def test_restore_into_smaller_ring_is_a_wrap(self):
        recorder = ProvenanceRecorder(capacity=32)
        recorder.bind_raw(100)
        recorder.record_gate(_ids(range(8)), _ids(range(8)))
        assert not recorder.truncated
        clone = ProvenanceRecorder(capacity=4)
        clone.restore_state(recorder.export_state())
        assert clone.truncated_by == ["ring_wrapped"]

    def test_causes_of_picks_latest_event_at_or_before_cycle(self):
        recorder = ProvenanceRecorder(capacity=16)
        recorder.bind_raw(100)
        for cycle, src in ((2, 1), (2, 2), (4, 3), (1, 4)):
            recorder.begin_cycle(cycle)
            recorder.record_gate(_ids([5]), _ids([src]))
        # Stream order decides "latest": a restored path re-simulated
        # cycle 1 after cycle 4.
        assert recorder.causes_of(5, 3) == [(3, 3)]
        assert recorder.causes_of(5, 0) == []
        assert recorder.causes_of(5, 9, before_position=3) == [(2, 2)]
        # Every fan-in edge of the one event, newest first.
        assert recorder.causes_of(5, 9, before_position=2) == [
            (1, 1), (0, 0),
        ]
        assert recorder.causes_of(6, 9) == []

    def test_ram_pseudo_net_naming(self):
        recorder = ProvenanceRecorder(capacity=16)
        recorder.bind_raw(10)
        node = recorder.ram_node(0x42)
        assert recorder.node_name(node) == "ram[0x0042]"
        assert recorder.is_source_node(node)
        assert not recorder.is_source_node(3)

    def test_slice_chases_through_gate_dff_and_ram(self):
        """input -> gate -> dff -> ram store -> ram load -> sink."""
        recorder = ProvenanceRecorder(capacity=64)
        recorder.bind_raw(100)
        recorder.begin_cycle(1)
        recorder.record_input([10], tmask=1, label="P1IN")
        recorder.record_gate(_ids([11]), _ids([10]))
        recorder.record_latch(_ids([12]), _ids([11]))
        recorder.begin_cycle(2)
        recorder.record_ram_write([7], _ids([12]))
        recorder.begin_cycle(3)
        recorder.record_ram_read([13], tmask=1, word=7)
        flow = recorder.slice_to([13], cycle=3)
        assert "P1IN" in flow.origins
        assert "ram[0x0007]" in flow.origins
        assert flow.chain, "expected a linear origin->sink chain"
        assert flow.chain[0].src_name == "P1IN"
        assert flow.chain[-1].dst == 13
        kinds = {edge.kind for edge in flow.edges}
        assert kinds == {"input", "gate", "dff", "ram"}

    def test_slice_unrecorded_taint_is_honest_dead_end(self):
        recorder = ProvenanceRecorder(capacity=16)
        recorder.bind_raw(100)
        recorder.begin_cycle(1)
        # net 20's own cause was never recorded
        recorder.record_gate(_ids([21]), _ids([20]))
        flow = recorder.slice_to([21], cycle=1)
        assert flow.origins == []
        assert any("(unrecorded)" in leaf.name for leaf in flow.leaves)
        assert "unrecorded" in flow.summary() or flow.origins == []

    def test_reexpansion_under_a_higher_bound_repeats_edges(self):
        """A node reached again through a later stream position is
        expanded again and re-emits its earlier edges; slices keep the
        repeats."""
        recorder = ProvenanceRecorder(capacity=16)
        recorder.bind_raw(100)
        recorder.begin_cycle(1)
        recorder.record_input([1], tmask=1, label="P1IN")  # 1 <- P1IN
        recorder.record_gate(_ids([9]), _ids([1]))
        recorder.record_gate(_ids([2]), _ids([1]))
        recorder.record_gate(_ids([9]), _ids([2]))
        flow = recorder.slice_to([9], cycle=1)
        label = recorder.label_id("P1IN")
        # 1 is expanded below position 1, then again below position 2.
        assert [(edge.src, edge.dst) for edge in flow.edges] == [
            (1, 9), (2, 9), (label, 1), (1, 2), (label, 1),
        ]
        assert [leaf.name for leaf in flow.leaves] == ["P1IN"]

    def test_edge_names_resolve_through_the_recorder(self):
        recorder = ProvenanceRecorder(capacity=16)
        recorder.bind_raw(100, port_names={7: "dmem_wdata[0]"})
        recorder.record_ram_read([7], tmask=1, word=3)
        (edge,) = recorder.slice_to([7], cycle=0).edges
        assert edge.src_name == "ram[0x0003]"
        assert edge.dst_name == "dmem_wdata[0]"
        assert edge.render() == "ram[0x0003] --ram@0--> dmem_wdata[0]"
        assert not hasattr(edge, "__dict__")

    def test_slice_ignores_later_reconvergence(self):
        """Events recorded *after* the sink's cause must not alias the
        backward walk into a cycle (tracker re-simulates cycle numbers)."""
        recorder = ProvenanceRecorder(capacity=64)
        recorder.bind_raw(100)
        recorder.begin_cycle(1)
        recorder.record_input([10], tmask=1, label="P1IN")
        recorder.record_gate(_ids([11]), _ids([10]))
        # a restored sibling path re-taints 10 *from* 11 at the same cycle
        recorder.begin_cycle(1)
        recorder.record_gate(_ids([10]), _ids([11]))
        flow = recorder.slice_to([11], cycle=1)
        assert flow.origins == ["P1IN"]

    def test_cross_product_edges_are_capped(self):
        recorder = ProvenanceRecorder(capacity=4096)
        recorder.bind_raw(1000)
        recorder.begin_cycle(0)
        recorder.record_cross(_ids(range(32)), _ids(range(100, 164)))
        from repro.obs.provenance import CROSS_EDGE_CAP

        assert recorder.recorded <= CROSS_EDGE_CAP

    def test_smeared_ram_write_cap_sets_truncated(self):
        from repro.obs.provenance import RAM_WRITE_CAP

        recorder = ProvenanceRecorder(capacity=4096)
        recorder.bind_raw(100)
        recorder.begin_cycle(0)
        recorder.record_ram_write(list(range(RAM_WRITE_CAP + 8)), _ids([1]))
        assert recorder.truncated

    def test_cycle_activity_buckets(self):
        recorder = ProvenanceRecorder(capacity=256)
        recorder.bind_raw(100)
        for cycle in range(20):
            recorder.begin_cycle(cycle)
            recorder.record_gate(_ids([1, 2]), _ids([3, 4]))
        activity = recorder.cycle_activity(buckets=5)
        assert len(activity) == 5
        assert sum(entry["edges"] for entry in activity) == 40
        assert activity[0]["from_cycle"] == 0

    def test_export_restore_roundtrip(self):
        recorder = ProvenanceRecorder(capacity=32)
        recorder.bind_raw(100)
        recorder.begin_cycle(1)
        recorder.record_input([10], tmask=1, label="P1IN")
        recorder.record_gate(_ids([11]), _ids([10]))
        state = recorder.export_state()
        clone = ProvenanceRecorder(capacity=32)
        clone.restore_state(state)
        flow = clone.slice_to([11], cycle=1)
        assert flow.origins == ["P1IN"]
        assert clone.recorded == recorder.recorded

    def test_restore_into_smaller_ring_keeps_newest(self):
        recorder = ProvenanceRecorder(capacity=32)
        recorder.bind_raw(100)
        for cycle in range(8):
            recorder.begin_cycle(cycle)
            recorder.record_gate(_ids([cycle]), _ids([cycle + 50]))
        clone = ProvenanceRecorder(capacity=4)
        clone.restore_state(recorder.export_state())
        assert clone.truncated
        survivors = [net for net in range(100) if clone.causes_of(net, 7)]
        assert survivors == [4, 5, 6, 7]


@pytest.fixture(scope="module")
def figure4_result():
    program = assemble(figure4_source(), name="figure4")
    recorder = ProvenanceRecorder()
    result = TaintTracker(
        program, default_policy(), provenance=recorder
    ).run()
    return result


class TestExplainEndToEnd:
    def test_analysis_is_insecure(self, figure4_result):
        assert figure4_result.verdict == "insecure"
        assert figure4_result.violations
        assert figure4_result.provenance is not None

    def test_every_violation_reaches_a_labelled_origin(self, figure4_result):
        for index in range(len(figure4_result.violations)):
            flow = explain_violation(figure4_result, index)
            assert flow.origins, f"violation {index} found no origin"
            assert flow.chain, f"violation {index} has no linear chain"
            # leaf = a labelled tainted input (P1IN or tainted rom/ram)
            assert flow.chain[0].src < 0 or flow.chain[0].src_name.startswith(
                "ram["
            )

    def test_store_violation_chain_ends_at_write_port(self, figure4_result):
        store = next(
            index
            for index, violation in enumerate(figure4_result.violations)
            if violation.kind == "tainted_write_untainted_memory"
        )
        flow = figure4_result.explain(store)
        assert "P1IN" in flow.origins
        assert flow.chain[-1].dst_name.startswith(
            ("dmem_wdata", "dmem_addr")
        )

    def test_explain_index_out_of_range(self, figure4_result):
        with pytest.raises(IndexError):
            explain_violation(figure4_result, 99)

    def test_explain_requires_a_recorder(self):
        program = assemble(figure4_source(), name="figure4")
        result = TaintTracker(program, default_policy()).run()
        with pytest.raises(ValueError):
            explain_violation(result, 0)

    def test_dot_export_is_wellformed(self, figure4_result):
        flow = figure4_result.explain(0)
        dot = flow.to_dot(title="test")
        assert dot.startswith("digraph taint_flow {")
        assert dot.rstrip().endswith("}")
        assert '"P1IN"' in dot
        assert "->" in dot

    def test_to_document_is_json_ready(self, figure4_result):
        import json

        document = figure4_result.explain(0).to_document()
        json.dumps(document)
        assert document["origins"]
        assert document["chain"]

    def test_checkpoint_roundtrip_preserves_provenance(self, figure4_result):
        payload = {
            "provenance": figure4_result.provenance.export_state(),
        }
        program = assemble(figure4_source(), name="figure4")
        recorder = ProvenanceRecorder()
        recorder.restore_state(payload["provenance"])
        assert recorder.recorded == figure4_result.provenance.recorded
        assert recorder.truncated == figure4_result.provenance.truncated

    def test_html_report_is_self_contained(self, figure4_result):
        html = build_report(figure4_result)
        assert html.startswith("<!DOCTYPE html>")
        assert "http://" not in html and "https://" not in html
        assert "INSECURE" in html
        assert "P1IN" in html
        assert "heatmap" in html
        assert "digraph taint_flow" in html

    def test_html_report_names_truncation_cause(self, figure4_result):
        # figure4's smeared store hits RAM_WRITE_CAP; the ring never wraps
        assert figure4_result.provenance.truncated_by == ["ram_write_cap"]
        html = build_report(figure4_result)
        assert "provenance_truncated (ram_write_cap: " in html
        assert "ring_wrapped" not in html

    def test_truncation_cause_reaches_cli_and_trace(self, tmp_path, capsys):
        source = tmp_path / "figure4.s43"
        source.write_text(figure4_source())
        trace = tmp_path / "trace.jsonl"
        main([
            "analyze", str(source), "--provenance",
            "--provenance-capacity", "64", "--trace", str(trace),
        ])
        assert "[truncated: ring_wrapped, ram_write_cap]" in (
            capsys.readouterr().out
        )
        (event,) = [
            event for event in read_events(trace)
            if event["event"] == "provenance_truncated"
        ]
        assert event["reason"] == "ring_wrapped,ram_write_cap"
        assert lint_trace(trace) == []

    def test_report_without_recorder_still_renders(self, figure4_result):
        program = assemble(figure4_source(), name="figure4")
        result = TaintTracker(program, default_policy()).run()
        html = build_report(result)
        assert "INSECURE" in html
        assert "digraph" not in html

    def test_root_causes_carry_explanations(self, figure4_result):
        from repro.transform.rootcause import identify_root_causes

        causes = identify_root_causes(figure4_result)
        assert causes.explanations
        assert all(flow.violation is not None for flow in causes.explanations)
        assert any(flow.origins for flow in causes.explanations)
