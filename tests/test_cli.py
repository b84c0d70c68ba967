"""CLI front-end tests."""

import json

import pytest

from repro.cli import main
from repro.obs import read_events

CLEAN = """
.task sys trusted
start:
    mov #0x0FFE, sp        ; stack outside the maskable window: a masked
    call #app              ; store can reach anywhere in the partition,
    jmp start              ; including an in-partition stack
.task app untrusted
app:
    mov &P1IN, r4
    and #0x03FF, r4
    bis #0x0400, r4
    mov &P1IN, r5
    mov r5, 0(r4)
    ret
"""

VULNERABLE = """
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

RUNNABLE = """
.task sys trusted
    mov #21, r4
    add r4, r4
    mov r4, &P2OUT
    halt
"""


@pytest.fixture
def source_file(tmp_path):
    def write(text, name="app.s43"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestAnalyze:
    def test_secure_exit_zero(self, source_file, capsys):
        code = main(["analyze", source_file(CLEAN)])
        assert code == 0
        assert "SECURE" in capsys.readouterr().out

    def test_insecure_exit_one(self, source_file, capsys):
        code = main(["analyze", source_file(VULNERABLE)])
        assert code == 1
        assert "INSECURE" in capsys.readouterr().out

    def test_tree_flag(self, source_file, capsys):
        main(["analyze", source_file(CLEAN), "--tree"])
        assert "node 0" in capsys.readouterr().out

    def test_secret_policy(self, source_file, capsys):
        code = main(
            ["analyze", source_file(CLEAN), "--policy", "secret"]
        )
        assert code == 0

    def test_unknown_policy(self, source_file):
        with pytest.raises(SystemExit):
            main(["analyze", source_file(CLEAN), "--policy", "bogus"])

    def test_json_output(self, source_file, capsys):
        code = main(["analyze", source_file(VULNERABLE), "--json"])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["secure"] is False
        assert document["violations"]
        assert document["violations"][0]["address"].startswith("0x")
        assert document["tree"]["nodes"] >= 1
        assert "stats" in document

    def test_trace_and_metrics_files(self, source_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "analyze",
                source_file(VULNERABLE),
                "--trace", str(trace),
                "--metrics", str(metrics),
            ]
        )
        assert code == 1
        events = read_events(trace)
        assert any(e["event"] == "violation" for e in events)
        snapshot = json.loads(metrics.read_text())
        assert snapshot["metrics"]["counters"]["tracker.instructions"] > 0
        assert snapshot["profile"]["explore"]["calls"] == 1


class TestRepair:
    def test_repairs_and_writes_output(self, source_file, tmp_path, capsys):
        out = tmp_path / "fixed.s43"
        code = main(
            ["repair", source_file(VULNERABLE), "-o", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "SECURE" in text
        assert "&WDTCTL" in out.read_text()

    def test_fundamental_violation_exit_two(self, source_file, capsys):
        bad = ".task sys trusted\n    mov &P1IN, r4\n    halt\n"
        code = main(["repair", source_file(bad)])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestRunDisasmStats:
    def test_run(self, source_file, capsys):
        code = main(["run", source_file(RUNNABLE)])
        assert code == 0
        out = capsys.readouterr().out
        assert "halted=True" in out
        assert "P2OUT <- 0x002a" in out

    def test_disasm(self, source_file, capsys):
        code = main(["disasm", source_file(RUNNABLE)])
        assert code == 0
        assert "mov" in capsys.readouterr().out

    def test_stats(self, capsys):
        code = main(["stats"])
        assert code == 0
        assert "flip-flops" in capsys.readouterr().out

    def test_stats_json(self, capsys):
        code = main(["stats", "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["num_dffs"] > 0
        assert document["cells"]


class TestProfile:
    def test_profile_source_file(self, source_file, capsys):
        code = main(
            ["profile", source_file(VULNERABLE), "--no-repair"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for phase in ("levelize", "explore", "check", "repair"):
            assert phase in out
        assert "sim.gate_evals" in out
        assert "tree.nodes" in out
        assert "INSECURE" in out

    def test_profile_json(self, source_file, capsys):
        code = main(
            ["profile", source_file(CLEAN), "--json"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["secure"] is True
        assert document["metrics"]["counters"]["sim.gate_evals"] > 0
        assert "levelize" in document["profile"]
        assert "explore" in document["profile"]

    def test_profile_unknown_workload(self):
        with pytest.raises(SystemExit, match="not a file"):
            main(["profile", "no_such_benchmark"])

    def test_profile_registry_name_case_insensitive(self):
        from repro.cli import _resolve_workload

        source, name = _resolve_workload("intavg")
        assert name == "intAVG"

    def test_profile_accepts_budget_flags(self):
        # Satellite requirement: --deadline and --max-paths exist on
        # `repro profile` too (parsing only; a full profile run with a
        # budget is covered by the analyze-path tests).
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["profile", "intavg", "--deadline", "30", "--max-paths", "2"]
        )
        assert args.deadline == 30.0
        assert args.max_paths == 2


# Trusted code branching on an untainted-unknown input port: secure in a
# full exploration (3 paths), honestly inconclusive when truncated.
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


@pytest.fixture
def binsearch_file(source_file):
    from repro.workloads.registry import benchmark

    return source_file(benchmark("binSearch").service_source, "bs.s43")


class TestResilience:
    def test_inconclusive_exit_three(self, source_file, capsys):
        code = main(
            ["analyze", source_file(FORKY), "--max-paths", "1"]
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "INCONCLUSIVE" in out
        assert "max_paths" in out

    def test_full_exploration_still_exit_zero(self, source_file, capsys):
        code = main(["analyze", source_file(FORKY)])
        assert code == 0
        assert "SECURE" in capsys.readouterr().out

    def test_deadline_flag_zero_is_inconclusive(self, source_file):
        code = main(
            ["analyze", source_file(FORKY), "--deadline", "0"]
        )
        assert code == 3

    def test_cycle_cap_is_inconclusive_not_secure(
        self, binsearch_file, capsys
    ):
        code = main(
            ["analyze", binsearch_file, "--max-cycles", "150", "--json"]
        )
        assert code == 3
        document = json.loads(capsys.readouterr().out)
        assert document["verdict"] == "inconclusive"
        assert document["exhausted_budgets"] == ["max_cycles"]
        end_reasons = document["tree"]["end_reasons"]
        assert "drained" in end_reasons
        assert "limit" not in end_reasons

    def test_repair_under_cycle_cap_is_not_verified(
        self, binsearch_file, capsys
    ):
        code = main(["repair", binsearch_file, "--max-cycles", "150"])
        assert code == 3
        assert "no modifications required" not in capsys.readouterr().out

    def test_max_paths_zero_is_not_the_default(self, source_file, capsys):
        code = main(
            ["analyze", source_file(FORKY), "--max-paths", "0", "--json"]
        )
        assert code == 3
        document = json.loads(capsys.readouterr().out)
        assert document["exhausted_budgets"] == ["max_paths"]

    def test_budget_without_flags_is_the_default_budget(self):
        from repro.cli import _budget_from, build_parser
        from repro.resilience import AnalysisBudget

        for argv in (["analyze", "app.s43"], ["analyze-all"]):
            args = build_parser().parse_args(argv)
            assert _budget_from(args).describe() == (
                AnalysisBudget().describe()
            )

    def test_missing_source_exit_four(self, capsys):
        code = main(["analyze", "/no/such/file.s43"])
        assert code == 4
        assert "error[INPUT]" in capsys.readouterr().err

    def test_bad_assembly_exit_four(self, source_file, capsys):
        code = main(["analyze", source_file(".bogus directive\n")])
        assert code == 4
        assert "error[INPUT]" in capsys.readouterr().err

    def test_json_error_document(self, source_file, capsys):
        code = main(["analyze", "/no/such/file.s43", "--json"])
        assert code == 4
        document = json.loads(capsys.readouterr().out)
        assert document["error"]["code"] == "INPUT"
        assert document["error"]["exit_code"] == 4
        assert document["error"]["message"]

    def test_corrupt_checkpoint_exit_five(
        self, source_file, tmp_path, capsys
    ):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        code = main(
            ["analyze", source_file(FORKY), "--resume", str(bad)]
        )
        assert code == 5
        assert "error[CHECKPOINT" in capsys.readouterr().err

    def test_json_verdict_fields(self, source_file, capsys):
        code = main(
            [
                "analyze",
                source_file(FORKY),
                "--max-paths", "1",
                "--json",
            ]
        )
        assert code == 3
        document = json.loads(capsys.readouterr().out)
        assert document["verdict"] == "inconclusive"
        assert document["degraded"] is True
        assert document["exhausted_budgets"] == ["max_paths"]

    def test_checkpoint_then_resume_matches(
        self, source_file, tmp_path, capsys
    ):
        path = source_file(FORKY)
        ckpt = tmp_path / "run.ckpt"
        code = main(
            [
                "analyze", path,
                "--checkpoint", str(ckpt),
                "--checkpoint-every", "1",
            ]
        )
        assert code == 0
        assert ckpt.exists()
        capsys.readouterr()

        code = main(["analyze", path, "--resume", str(ckpt)])
        assert code == 0
        assert "SECURE" in capsys.readouterr().out

    def test_resume_against_other_program_is_stale(
        self, source_file, tmp_path, capsys
    ):
        ckpt = tmp_path / "run.ckpt"
        main(
            [
                "analyze", source_file(FORKY),
                "--checkpoint", str(ckpt),
                "--checkpoint-every", "1",
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "analyze", source_file(CLEAN, "other.s43"),
                "--resume", str(ckpt),
            ]
        )
        assert code == 5
        assert "stale" in capsys.readouterr().err

    def test_repair_partial_exit_three(self, source_file, monkeypatch):
        # Exhaust the budget inside the repair loop: the partial result
        # maps to the inconclusive exit code.
        import repro.cli as cli_module

        real = cli_module.secure_compile

        def budgeted(source, **kwargs):
            from repro.resilience import AnalysisBudget

            kwargs["budget"] = AnalysisBudget(max_paths=0)
            return real(source, **kwargs)

        monkeypatch.setattr(cli_module, "secure_compile", budgeted)
        code = main(["repair", source_file(VULNERABLE)])
        assert code == 3
