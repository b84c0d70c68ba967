"""The bench ledger and the noise-aware regression detector."""

import json

import pytest

from repro.obs.benchtrack import (
    append_history,
    detect_regressions,
    load_history,
    render_dashboard,
    select_benches,
)


def entries(name, values, metric="wall_seconds", **extra):
    return [
        {"bench": name, metric: value, "git_rev": f"rev{index}", **extra}
        for index, value in enumerate(values)
    ]


class TestLedger:
    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        docs = entries("alpha", [1.0, 1.1])
        assert append_history(path, docs) == 2
        assert append_history(path, entries("alpha", [1.2])) == 1
        history = load_history(path)
        assert [e["wall_seconds"] for e in history] == [1.0, 1.1, 1.2]

    def test_load_missing_ledger_is_empty(self, tmp_path):
        assert load_history(tmp_path / "absent.jsonl") == []

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        append_history(path, entries("alpha", [1.0]))
        with path.open("a") as handle:
            handle.write('{"bench": "alpha", "wall_se')  # kill -9 mid-write
        assert len(load_history(path)) == 1


class TestDetector:
    def test_clean_flat_trend_is_quiet(self):
        history = entries("alpha", [1.00, 1.01, 0.99, 1.00, 1.01])
        assert detect_regressions(history) == []

    def test_step_regression_is_confirmed(self):
        # A stable series then an injected 2x slowdown: the acceptance
        # scenario for the perf-smoke gate.
        history = entries("alpha", [1.00, 1.02, 0.98, 1.01, 2.0])
        findings = detect_regressions(history)
        assert len(findings) == 1
        finding = findings[0]
        assert finding["bench"] == "alpha"
        assert finding["metric"] == "wall_seconds"
        assert finding["confirmed"] is True
        assert finding["ratio"] == pytest.approx(2.0, rel=0.05)
        assert finding["git_rev"] == "rev4"

    def test_noisy_but_flat_series_is_quiet(self):
        # +/-40% swings throughout: the last point is within the series'
        # own noise envelope even though it exceeds the 30% threshold.
        values = [1.0, 1.6, 0.7, 1.5, 0.8, 1.6, 0.9, 1.5]
        assert detect_regressions(entries("noisy", values)) == []

    def test_throughput_drop_is_a_regression(self):
        history = entries(
            "sim", [500.0, 505.0, 498.0, 501.0, 240.0],
            metric="cycles_per_second",
        )
        findings = detect_regressions(history)
        assert [f["metric"] for f in findings] == ["cycles_per_second"]
        assert findings[0]["ratio"] > 2.0

    def test_short_history_is_never_flagged(self):
        assert detect_regressions(entries("young", [1.0, 9.0])) == []

    def test_series_are_independent(self):
        history = entries("alpha", [1.0, 1.0, 1.0, 1.0, 2.2]) + entries(
            "beta", [3.0, 3.0, 3.0, 3.0, 3.0]
        )
        findings = detect_regressions(history)
        assert [f["bench"] for f in findings] == ["alpha"]

    def test_threshold_is_respected(self):
        history = entries("alpha", [1.0, 1.0, 1.0, 1.0, 1.2])
        assert detect_regressions(history, threshold=0.30) == []
        assert len(detect_regressions(history, threshold=0.10)) == 1


class TestDashboard:
    def test_dashboard_is_self_contained_html(self):
        history = entries("alpha", [1.0, 1.1, 2.4, 1.0])
        html = render_dashboard(history, detect_regressions(history))
        assert html.startswith("<!DOCTYPE html>")
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html
        assert "<svg" in html  # the sparklines
        assert "alpha" in html

    def test_regressed_series_is_highlighted(self):
        history = entries("alpha", [1.0, 1.0, 1.0, 1.0, 5.0])
        findings = detect_regressions(history)
        assert findings
        html = render_dashboard(history, findings)
        assert "regressed" in html
        assert "Confirmed regressions" in html


class TestSelection:
    def test_quick_set_exists_on_disk(self, tmp_path):
        from pathlib import Path

        repo_root = Path(__file__).parent.parent.parent
        quick = select_benches(repo_root, quick=True)
        assert len(quick) == 2
        assert all(module.exists() for module in quick)

    def test_only_filters_by_fragment(self):
        from pathlib import Path

        repo_root = Path(__file__).parent.parent.parent
        picked = select_benches(repo_root, only=["provenance"])
        assert [m.name for m in picked] == ["bench_provenance.py"]


class TestBenchCliCheck:
    def test_check_flag_fails_on_injected_slowdown(self, tmp_path, capsys):
        """End-to-end acceptance: the detector flags a 2x slowdown and
        ``repro bench --check`` exits 1 without re-running benches."""
        from repro.cli import main

        ledger = tmp_path / "BENCH_history.jsonl"
        append_history(
            ledger, entries("alpha", [1.00, 1.01, 0.99, 1.00, 2.0])
        )
        dashboard = tmp_path / "trends.html"
        code = main(
            [
                "bench",
                "--no-run",
                "--check",
                "--history",
                str(ledger),
                "--dashboard",
                str(dashboard),
                "--repo-root",
                str(tmp_path),
                "--json",
            ]
        )
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["regressions"][0]["bench"] == "alpha"
        assert dashboard.exists()

    def test_check_flag_passes_on_clean_ledger(self, tmp_path, capsys):
        from repro.cli import main

        ledger = tmp_path / "BENCH_history.jsonl"
        append_history(
            ledger, entries("alpha", [1.00, 1.01, 0.99, 1.00, 1.01])
        )
        code = main(
            [
                "bench",
                "--no-run",
                "--check",
                "--history",
                str(ledger),
                "--dashboard",
                str(tmp_path / "trends.html"),
                "--repo-root",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert "no confirmed regressions" in capsys.readouterr().out
