"""The attribution profiler: document shape, accounting, CLI artifacts."""

import json

import pytest

from repro.cpu import compiled_cpu
from repro.isa.assembler import assemble
from repro.obs.perf import (
    PERF_SCHEMA,
    PerfAttribution,
    PerfHarness,
    get_perf,
    install_perf,
    record_perf,
)
from repro.obs.perfview import build_perf_report
from repro.sim.runner import GateRunner

LOOP = """
    mov #6, r10
loop:
    dec r10
    jnz loop
    halt
"""


@pytest.fixture(scope="module")
def circuit():
    return compiled_cpu()


@pytest.fixture(scope="module")
def harness(circuit):
    recorder = PerfAttribution(sample_every=2)
    run = PerfHarness(
        GateRunner(circuit, assemble(LOOP, name="loop")), recorder
    )
    run.run(max_cycles=200)
    return run


@pytest.fixture(scope="module")
def document(harness):
    return harness.to_document("loop")


class TestInstallation:
    def test_nothing_armed_by_default(self):
        assert get_perf() is None

    def test_record_perf_scopes_the_recorder(self):
        recorder = PerfAttribution()
        with record_perf(recorder) as armed:
            assert armed is recorder
            assert get_perf() is recorder
        assert get_perf() is None

    def test_install_returns_previous(self):
        first, second = PerfAttribution(), PerfAttribution()
        assert install_perf(first) is None
        assert install_perf(second) is first
        assert install_perf(None) is second

    def test_sample_every_must_be_positive(self):
        with pytest.raises(ValueError):
            PerfAttribution(sample_every=0)


class TestAttributionDocument:
    def test_schema_and_workload(self, document):
        assert document["schema"] == PERF_SCHEMA
        assert document["workload"] == "loop"
        assert document["cycles"] > 0

    def test_every_rank_is_attributed(self, document, circuit):
        full_ranks = [
            rank for rank in document["ranks"] if rank["kind"] == "full"
        ]
        assert len(full_ranks) == len(circuit._full_plan.ranks)
        assert all(rank["evals"] > 0 for rank in full_ranks)
        assert all(rank["seconds"] >= 0.0 for rank in full_ranks)

    def test_cell_type_totals_match_rank_totals(self, document):
        by_rank = sum(rank["evals"] for rank in document["ranks"])
        by_type = sum(
            stats["evals"]
            for stats in document["cell_types"].values()
        )
        assert by_rank == by_type
        seconds = sum(rank["seconds"] for rank in document["ranks"])
        assert seconds == pytest.approx(
            document["attributed_group_seconds"]
        )

    def test_cell_types_carry_counts_not_seconds(self, document):
        """Schema 3: a rank runs every cell type in one kernel call, so
        only ranks are timed."""
        for stats in document["cell_types"].values():
            assert set(stats) == {"evals"}
        for rank in document["ranks"]:
            for cell in rank["cells"].values():
                assert set(cell) == {"evals", "gates"}

    def test_wall_decomposition_covers_the_run(self, document):
        # The acceptance bar: components sum to within 10% of wall.
        assert document["attributed_fraction"] == pytest.approx(
            1.0, abs=0.10
        )
        parts = (
            document["eval_seconds"]
            + document["clock_seconds"]
            + document["soc_python_seconds"]
            + document["halt_probe_seconds"]
        )
        assert parts == pytest.approx(
            document["attributed_seconds"], rel=1e-6
        )

    def test_cones_cover_every_output_port(self, document, circuit):
        ports = {cone["port"] for cone in document["cones"]}
        assert ports == {
            port.name for port in circuit.netlist.outputs
        }

    def test_quiescence_fractions_are_complementary(self, document):
        for cone in document["cones"]:
            assert cone["samples"] > 0
            assert cone["active_fraction"] + cone[
                "quiescent_fraction"
            ] == pytest.approx(1.0)
            assert 0.0 <= cone["toggle_rate"] <= 1.0

    def test_activity_sampling_happened(self, document):
        assert document["activity"]["samples"] > 1
        assert 0.0 < document["activity"]["mean_changed_fraction"] <= 1.0

    def test_document_round_trips_through_json(self, document):
        assert json.loads(json.dumps(document)) == document


class TestDenseEvalReconstruction:
    def test_dense_counts_are_gates_times_passes(self, document):
        """Every pass evaluates every gate of its plan: the document
        reconstructs evals as gates x passes."""
        passes = document["passes"]
        for rank in document["ranks"]:
            plan_passes = passes[rank["kind"]]
            assert rank["evals"] == rank["gates_per_pass"] * plan_passes
            for cell in rank["cells"].values():
                assert cell["evals"] == cell["gates"] * plan_passes


class TestUninstrumentedEquivalence:
    def test_armed_run_computes_identical_architectural_state(
        self, circuit
    ):
        program = assemble(LOOP, name="loop")
        plain = GateRunner(circuit, program)
        plain.run(max_cycles=200)
        armed = GateRunner(circuit, program)
        PerfHarness(armed, PerfAttribution(sample_every=2)).run(
            max_cycles=200
        )
        assert armed.soc.cycle == plain.soc.cycle
        for index in range(16):
            assert armed.register(index) == plain.register(index)


class TestHtmlReport:
    def test_report_is_self_contained(self, document):
        html = build_perf_report(document)
        assert html.startswith("<!DOCTYPE html>")
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html

    def test_report_names_the_hot_ranks_and_cones(self, document):
        html = build_perf_report(document)
        hottest = max(document["ranks"], key=lambda rank: rank["seconds"])
        assert f"rank {hottest['rank']}" in html
        for cone in document["cones"][:3]:
            assert cone["port"] in html


class TestPerfCli:
    def test_cmd_perf_writes_json_and_html(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "perf",
                "intavg",
                "--max-cycles",
                "150",
                "--sample-every",
                "4",
            ]
        )
        assert code == 0
        document = json.loads((tmp_path / "PERF_intAVG.json").read_text())
        assert document["schema"] == PERF_SCHEMA
        assert document["attributed_fraction"] == pytest.approx(
            1.0, abs=0.10
        )
        html = (tmp_path / "perf_intAVG.html").read_text()
        assert "<script" not in html
        out = capsys.readouterr().out
        assert "hottest ranks" in out
        assert "cone quiescence" in out
