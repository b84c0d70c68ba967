"""``repro analyze-all --jobs N``: workload fan-out over a process pool.

Each pool worker runs one workload's whole serial analysis, so every
per-workload document must equal the ``analyze --json`` document of the
same analysis run directly in this process, and the sweep's exit code
must be the worst of the per-workload exit codes.
"""

from repro.cli import _analysis_document, _policy, _resolve_workload
from repro.core import TaintTracker
from repro.cpu import compiled_cpu
from repro.isa.assembler import assemble
from repro.parallel.analyze_all import run_analyze_all
from repro.resilience import VERDICT_EXIT_CODES
from repro.resilience.budget import AnalysisBudget

#: One single-path secure workload and one forking insecure one, so the
#: two exit codes differ and the summary has a maximum to pick.
WORKLOADS = ["mult", "binSearch"]


def _without_wall(document: dict) -> dict:
    stripped = {
        key: value
        for key, value in document.items()
        if key != "wall_seconds"
    }
    stripped["stats"] = {
        key: value
        for key, value in document["stats"].items()
        if key != "wall_seconds"
    }
    return stripped


def _direct_document(name: str) -> dict:
    source, resolved = _resolve_workload(name)
    result = TaintTracker(
        assemble(source, name=resolved),
        circuit=compiled_cpu(),
        policy=_policy("untrusted"),
        budget=AnalysisBudget(),
    ).run()
    document = _analysis_document(result)
    document["workload"] = resolved
    document["exit_code"] = VERDICT_EXIT_CODES[result.verdict]
    return document


def test_fan_out_matches_direct_serial_analyses():
    aggregate = run_analyze_all(WORKLOADS, jobs=2)

    assert aggregate["jobs"] == 2
    documents = aggregate["workloads"]
    assert [document["workload"] for document in documents] == WORKLOADS
    for name, document in zip(WORKLOADS, documents):
        assert _without_wall(document) == _without_wall(
            _direct_document(name)
        ), name

    exit_codes = [document["exit_code"] for document in documents]
    assert len(set(exit_codes)) == 2
    assert aggregate["summary"]["exit_code"] == max(exit_codes)
