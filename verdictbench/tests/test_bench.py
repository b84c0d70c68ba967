"""Tests of the benchmark itself (not of the analysis).

    PYTHONPATH=src python3 -m pytest verdictbench/tests -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Tracer, aggregate  # noqa: E402

GOLDEN = json.loads((BENCH / "golden.json").read_text())


# ---------------------------------------------------------------------------
# Golden fingerprints
# ---------------------------------------------------------------------------
#: A reference kernel that ran 2000 passes per CPU-second for 100 s.
SAMPLES = [[0.0, 0.0, 0], [100.0, 100.0, 200_000]]


def _measured(cpu_s, start=10.0):
    return {"cpu_s": cpu_s, "window": [start, start + 2 * cpu_s]}


def _report(fingerprint, cpu_s):
    return {
        "setup_s": 0.6,
        "setup": _measured(0.3, start=1.0),
        "verdict_s": 2 * cpu_s,
        "verdict": _measured(cpu_s),
        "peak_rss_mb": 40.0,
        "fingerprint": copy.deepcopy(fingerprint),
    }


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_corrupted_golden_counts_as_mismatch(workload, capsys):
    produced = GOLDEN[workload]
    corrupted = copy.deepcopy(produced)
    corrupted["stats"]["paths"] += 1
    analyses = [(_report(produced, 1.0), "")] * 3
    outcome = run.summarise(analyses, [], produced, SAMPLES)
    assert (outcome["attempted"], outcome["failed"]) == (3, 0)
    with pytest.raises(SystemExit):
        run.summarise(analyses, [], corrupted, SAMPLES)
    assert "fingerprint differs" in capsys.readouterr().err


def test_mismatch_and_crash_are_counted_and_left_out_of_timing():
    golden = GOLDEN["binsearch-fork"]
    wrong = copy.deepcopy(golden)
    wrong["violations"] = wrong["violations"][1:]
    analyses = [
        (_report(golden, 2.0), ""),
        (_report(wrong, 50.0), ""),
        (None, "analysis child exited 1: boom"),
        (_report(golden, 4.0), ""),
    ]
    probes = [{"setup_s": 0.5, "setup": _measured(0.4, start=1.0)}]
    outcome = run.summarise(analyses, probes, golden, SAMPLES)
    assert outcome["attempted"] == 4
    assert outcome["failed"] == 2
    # 2000 passes per CPU-second is twice the reference speed.
    assert outcome["metrics"]["verdict_s"] == pytest.approx(6.0)
    assert outcome["metrics"]["setup_s"] == pytest.approx(0.6)
    assert outcome["samples"]["analyses"] == 2
    assert outcome["samples"]["setups"] == 3


def test_reference_seconds_follow_the_kernel_speed_in_the_window():
    # The kernel ran at 1000 passes per CPU-second, then at half speed.
    samples = [[0.0, 0.0, 0], [10.0, 10.0, 10_000], [20.0, 20.0, 15_000]]
    fast = {"cpu_s": 2.0, "window": [2.0, 6.0]}
    slow = {"cpu_s": 4.0, "window": [12.0, 20.0]}
    # The same work takes twice the CPU time at half the speed.
    assert run.reference_seconds(samples, fast) == pytest.approx(2.0)
    assert run.reference_seconds(samples, slow) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        run.reference_seconds(samples, {"cpu_s": 1.0, "window": [19, 21]})


def test_golden_covers_every_workload():
    assert set(GOLDEN) == set(run.WORKLOADS)
    for name, document in GOLDEN.items():
        assert "wall_seconds" not in document["stats"]
        assert document["verdict"] in ("secure", "insecure")
    assert {"fixes", "masked_stores", "iterations", "source_sha256"} <= set(
        GOLDEN["intavg-repair"]
    )
    assert len(GOLDEN["viterbi-explain"]["slices"]) == len(
        GOLDEN["viterbi-explain"]["violations"]
    )


# ---------------------------------------------------------------------------
# Self-time subtraction
# ---------------------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    spans = [
        ("run", 0.0, 10.0),
        ("step", 1.0, 4.0),
        ("eval", 2.0, 3.0),
        ("step", 4.0, 9.0),  # starts exactly where the first one ends
        ("eval", 5.0, 8.0),
        ("explain", 11.0, 12.0),
    ]
    totals = aggregate(reversed(spans))  # input order does not matter
    assert totals["run"].self_time == pytest.approx(10 - 3 - 5)
    assert totals["step"].count == 2
    assert totals["step"].total == pytest.approx(8.0)
    assert totals["step"].self_time == pytest.approx((3 - 1) + (5 - 3))
    assert totals["eval"].self_time == pytest.approx(4.0)
    assert totals["explain"].self_time == pytest.approx(1.0)
    overall = sum(entry.self_time for entry in totals.values())
    assert overall == pytest.approx(10.0 + 1.0)


def test_window_keeps_nesting_but_counts_only_spans_inside():
    spans = [
        ("setup", 0.0, 1.0),
        ("run", 2.0, 6.0),
        ("step", 3.0, 4.0),
    ]
    totals = aggregate(spans, window=(2.0, 6.0))
    assert set(totals) == {"run", "step"}
    assert totals["run"].self_time == pytest.approx(3.0)


def test_wrapped_nest_records_consistent_spans():
    tracer = Tracer()

    def leaf():
        return sum(range(1000))

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle():
        return traced_leaf() + traced_leaf()

    traced_middle = tracer.wrap("middle", middle)
    outer = tracer.wrap("outer", lambda: traced_middle())
    outer()
    spans = tracer.spans()
    assert [name for name, _, _ in spans] == [
        "outer", "middle", "leaf", "leaf",
    ]
    totals = aggregate(spans)
    assert totals["leaf"].count == 2
    for entry in totals.values():
        assert entry.self_time >= 0.0
    overall = sum(entry.self_time for entry in totals.values())
    assert overall == pytest.approx(totals["outer"].total)


def test_span_ends_even_when_the_call_raises():
    tracer = Tracer()

    def fails():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("fails", fails)()
    (name, start, end), = tracer.spans()
    assert end >= start > 0.0


# ---------------------------------------------------------------------------
# Installing and removing the wrappers
# ---------------------------------------------------------------------------
APP = """\
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


def _repro_bindings():
    """Every attribute of every loaded ``repro`` module and wrapped class."""
    bindings = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("repro"):
            for key, value in vars(module).items():
                bindings[(name, key)] = value
    for _, module_name, path in tracing.TARGETS:
        owner, attribute = tracing._resolve(module_name, path)
        bindings[(repr(owner), attribute)] = vars(owner)[attribute]
    return bindings


def test_uninstall_restores_every_wrapped_attribute():
    import workloads

    workloads.load()
    assert "repro.eval.table3" not in sys.modules
    from repro.isa.assembler import assemble
    from repro.transform.masking import insert_masks

    before = _repro_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        from repro.core.tracker import TaintTracker

        # A module first imported while tracing binds the wrappers.
        import repro.eval.table3 as late

        assert late.assemble is not assemble
        result = TaintTracker(late.assemble(APP, name="app")).run()
    finally:
        tracer.uninstall()
    assert result.verdict in ("secure", "insecure")
    names = {name for name, _, _ in tracer.spans()}
    assert {"sim.soc.step", "core.tracker.run", "isa.assemble"} <= names
    assert len(tracer.results) == 1

    after = _repro_bindings()
    changed = [
        key for key, value in before.items() if after[key] is not value
    ]
    assert changed == []
    assert late.assemble is assemble
    assert late.insert_masks is insert_masks
