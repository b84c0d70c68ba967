"""End-to-end observability: trace + metrics from a real analysis.

Uses a small two-task workload whose untrusted service branches on a
tainted flag, so the exploration must fork on the concretised PC and
later terminate paths by merging -- exactly the Figure 7 shape the
trace is meant to make visible.
"""

import pytest

from repro.core import TaintTracker
from repro.isa.assembler import assemble
from repro.obs import Instruments, Observer, TraceRecorder, read_events

FORKY = """
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


def _traced_run(path):
    program = assemble(FORKY, name="forky")
    observer = Observer(trace=TraceRecorder(path))
    result = TaintTracker(program, obs=observer).run()
    observer.close()
    return result, observer, read_events(path)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    path = tmp_path_factory.mktemp("obs") / "trace.jsonl"
    return _traced_run(path)


class TestTraceEvents:
    def test_forks_and_prunes_are_traced(self, traced):
        result, _, events = traced
        kinds = [event["event"] for event in events]
        assert kinds.count("fork") >= 1
        assert kinds.count("prune") >= 1
        assert kinds.count("fork") == result.stats.forks

    def test_fork_event_shape(self, traced):
        _, _, events = traced
        fork = next(e for e in events if e["event"] == "fork")
        assert fork["pc_tainted"] is True
        assert len(fork["children"]) == len(fork["targets"]) >= 2
        assert all(t.startswith("0x") for t in fork["targets"])
        assert fork["site"].startswith("0x")

    def test_prune_names_a_tree_node(self, traced):
        result, _, events = traced
        for prune in (e for e in events if e["event"] == "prune"):
            if prune["site"] == "POR":
                continue
            assert 0 <= prune["node"] < len(result.tree)

    def test_violations_match_analysis(self, traced):
        result, _, events = traced
        traced_violations = [
            e for e in events if e["event"] == "violation"
        ]
        assert len(traced_violations) == len(result.violations)
        for event, violation in zip(traced_violations, result.violations):
            assert event["kind"] == violation.kind
            assert event["condition"] == violation.condition

    def test_event_sequence_is_deterministic(self, tmp_path):
        def shape(events):
            return [
                {k: v for k, v in event.items() if k != "wall"}
                for event in events
            ]

        _, _, first = _traced_run(tmp_path / "a.jsonl")
        _, _, second = _traced_run(tmp_path / "b.jsonl")
        assert shape(first) == shape(second)


class TestMetrics:
    def test_counters_match_stats(self, traced):
        result, observer, _ = traced
        counters = observer.snapshot()["metrics"]["counters"]
        assert counters["tracker.forks"] == result.stats.forks
        assert counters["tracker.merges"] == result.stats.merges
        assert counters["tracker.paths"] == result.stats.paths
        assert counters["tree.nodes"] == len(result.tree)
        assert counters["tree.pruned"] == (
            result.stats.terminations_by_merge
        )
        assert counters["tracker.violations"] == len(result.violations)
        assert counters["sim.gate_evals"] > 0

    def test_peak_merged_states_gauge(self, traced):
        result, observer, _ = traced
        gauges = observer.snapshot()["metrics"]["gauges"]
        assert gauges["tracker.peak_merged_states"] >= 1
        assert (
            gauges["tracker.peak_merged_states"]
            == result.stats.peak_merged_states
        )

    def test_taint_density_histogram(self, traced):
        _, observer, _ = traced
        density = observer.snapshot()["metrics"]["histograms"][
            "tracker.taint_density"
        ]
        assert density["count"] > 0
        assert 0.0 <= density["mean"] <= 1.0

    def test_explore_and_check_spans(self, traced):
        _, observer, _ = traced
        profile = observer.snapshot()["profile"]
        assert profile["explore"]["calls"] == 1
        assert profile["explore"]["wall_seconds"] > 0
        assert "check" in profile


class TestDisabledPath:
    def test_analysis_unchanged_without_observer(self, traced):
        result, _, _ = traced
        bare = TaintTracker(assemble(FORKY, name="forky")).run()
        assert bare.secure == result.secure
        assert bare.stats.forks == result.stats.forks
        assert bare.stats.cycles_simulated == result.stats.cycles_simulated
        assert len(bare.tree) == len(result.tree)


class TestGateEvalCounters:
    def test_every_fresh_observer_sees_a_full_pass(self):
        """A finished observer's registry is freed and the next one
        often reuses its address; the circuit's cached counters must
        still land in the live registry, run after run."""
        from repro.cpu import compiled_cpu
        from repro.netlist.cells import CONSTANT_CELLS

        circuit = compiled_cpu()
        gates = sum(
            1
            for gate in circuit.netlist.gates
            if gate.cell_type not in CONSTANT_CELLS
        )
        state = circuit.new_state()
        for run in range(20):
            observer = Observer()
            state.instruments = Instruments(observer)
            circuit.eval_combinational(state)
            counters = observer.snapshot()["metrics"]["counters"]
            assert counters.get("sim.gate_evals") == gates, f"run {run}"
            assert counters.get("sim.eval_passes") == 1, f"run {run}"
            del observer, counters
