"""Footnote 4: analysis tractability across the suite.

Each Table 1 analysis runs ``RUNS`` times on one pinned CPU
(``_pairs.one_cpu``); its row keeps the median process CPU seconds
beside the median wall seconds.  CPU time leaves out the time other
processes hold the core, so the ``analysis_runtime`` series follows the
code rather than the host's load.

One more run of every analysis, under verdictbench's outside-in tracer
(``verdictbench/tracing.py``), splits its wall time into four layers by
the self time of the calls the tracer wraps (:data:`LAYERS`); what no
wrapped call covers is ``other_seconds``.
"""

import sys
import time
from pathlib import Path

from _pairs import one_cpu

from repro.core import TaintTracker
from repro.eval.runtime import RUNS, build_runtime, render_runtime
from repro.workloads.registry import BENCHMARKS

VERDICTBENCH = Path(__file__).resolve().parent.parent / "verdictbench"
#: The four layers, by the span-name prefix the tracer gives each call.
LAYERS = (
    ("gate_eval_seconds", "sim.compiled."),
    ("soc_seconds", "sim.soc."),
    ("tracker_seconds", "core."),
    ("obs_seconds", "obs."),
)


def layer_split() -> dict:
    """Each layer's self seconds over one traced run of every Table 1
    analysis, and the run's wall seconds."""
    sys.path.insert(0, str(VERDICTBENCH))
    import workloads
    from tracing import Tracer, aggregate

    workloads.load()  # imports every module whose calls the tracer wraps
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        for info in BENCHMARKS.values():
            TaintTracker(info.service_program()).run()
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    totals = aggregate(tracer.spans())
    split = {
        key: sum(
            (entry.self_time for name, entry in totals.items()
             if name.startswith(prefix)),
            0.0,
        )
        for key, prefix in LAYERS
    }
    split["other_seconds"] = wall - sum(split.values())
    split["traced_wall_seconds"] = wall
    return split


def test_analysis_runtime(timed, bench_json):
    with one_cpu():
        rows = timed(build_runtime)
        layers = layer_split()
    assert len(rows) == 13

    for row in rows:
        # the conservative approximation must terminate every benchmark
        assert row.wall_seconds < 300, f"{row.name} took too long"
        # and it terminates *because* of merging, not luck: every
        # benchmark's exploration ends in merge-stops
        assert row.merge_terminations >= 1, row.name

    bench_json(
        "analysis_runtime",
        {
            "runs": RUNS,
            "total_wall_seconds": sum(r.wall_seconds for r in rows),
            "total_cpu_seconds": sum(r.cpu_seconds for r in rows),
            "layers": layers,
            "benchmarks": {row.name: row for row in rows},
        },
        wall_seconds=timed.seconds,
    )

    print()
    print(render_runtime(rows))
