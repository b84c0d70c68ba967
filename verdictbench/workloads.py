"""The four time-to-verdict workloads and their golden fingerprints.

Every workload is a Table 1 binary (its ``service_program()``) under the
default policy.  Tainted inputs are ``X`` to the analysis, so its work
does not depend on input values: a workload is a fixed binary plus a
mode, and its product is fingerprinted so that a faster run which
changed the answer counts as a mismatch instead of a speed-up.

This module imports nothing from ``repro`` at import time: ``run.py``
uses the workload table without paying the analysis set-up, and the
child times ``import repro`` itself (see :func:`load`).
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from time import perf_counter
from typing import Dict


@dataclass(frozen=True)
class Workload:
    name: str
    #: the Table 1 benchmark (``repro.workloads.registry`` name)
    benchmark: str
    #: ``analyse`` (verdict), ``repair`` (secure binary) or ``explain``
    #: (every violation's flow slice)
    mode: str
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "mult-secure", "mult", "analyse",
            "one path, secure: gate evaluation and per-cycle SoC glue, "
            "no fork bookkeeping",
        ),
        Workload(
            "binsearch-fork", "binSearch", "analyse",
            "widest fork frontier: snapshot, restore, cover, merge and "
            "the checker's violation path",
        ),
        Workload(
            "intavg-repair", "intAVG", "repair",
            "secure_compile: three analyses, watchdog and mask rewrites, "
            "reassembly and reset widening",
        ),
        Workload(
            "viterbi-explain", "Viterbi", "explain",
            "provenance-recording analysis plus a backward flow slice "
            "for every violation",
        ),
    )
}

#: The edge-ring capacity the CLI's ``--provenance`` uses by default.
PROVENANCE_CAPACITY = 1 << 20


def load() -> float:
    """Import the analysis stack; returns the seconds it took."""
    start = perf_counter()
    import repro.core.tracker  # noqa: F401
    import repro.obs.provenance  # noqa: F401
    import repro.transform.pipeline  # noqa: F401
    import repro.workloads.registry  # noqa: F401

    return perf_counter() - start


def prepare(workload: Workload) -> dict:
    """The cold set-up a CLI user pays: compile the CPU, assemble the
    program and construct the tracker (which runs the power-on reset).

    Functions are looked up through their modules at call time, so the
    traced run's wrappers see these calls.
    """
    from repro import cpu
    from repro.isa import assembler
    from repro.core import labels, tracker
    from repro.obs import provenance
    from repro.workloads import registry

    info = registry.benchmark(workload.benchmark)
    circuit = cpu.compiled_cpu()
    program = assembler.assemble(info.service_source, name=info.name)
    recorder = (
        provenance.ProvenanceRecorder(capacity=PROVENANCE_CAPACITY)
        if workload.mode == "explain"
        else None
    )
    analysis = tracker.TaintTracker(
        program, labels.default_policy(), circuit=circuit,
        provenance=recorder,
    )
    return {"info": info, "tracker": analysis}


def produce(workload: Workload, state: dict):
    """The timed part: from the assembled program to the product."""
    from repro.obs import provenance
    from repro.transform import pipeline

    if workload.mode == "repair":
        info = state["info"]
        return pipeline.secure_compile(info.service_source, name=info.name)
    result = state["tracker"].run()
    if workload.mode == "explain":
        slices = [
            provenance.explain_violation(result, index)
            for index in range(len(result.violations))
        ]
        return result, slices
    return result


def _analysis_fingerprint(result) -> dict:
    stats = dataclasses.asdict(result.stats)
    stats.pop("wall_seconds")
    return {
        "verdict": result.verdict,
        "violations": sorted(
            [v.kind, v.address, v.cycle, v.task, v.port or ""]
            for v in result.violations
        ),
        "stats": stats,
    }


def fingerprint(workload: Workload, product) -> dict:
    """The JSON-ready fingerprint of a workload's product."""
    if workload.mode == "repair":
        document = _analysis_fingerprint(product.analysis)
        document.update(
            fixes=len(product.fixes),
            masked_stores=product.masked_stores,
            iterations=product.iterations,
            source_sha256=hashlib.sha256(
                product.source.encode()
            ).hexdigest(),
        )
        return document
    if workload.mode == "explain":
        result, slices = product
        document = _analysis_fingerprint(result)
        document["slices"] = [
            {
                "edges": len(flow.edges),
                "nodes": len(
                    {e.src for e in flow.edges} | {e.dst for e in flow.edges}
                ),
            }
            for flow in slices
        ]
        return document
    return _analysis_fingerprint(product)
