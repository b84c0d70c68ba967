"""The indexed backward slicer's time against the frozen walk it replaced.

    PYTHONPATH=src:. python benchmarks/slice_speed.py [--max-ratio R]

Run from the repository root.  One provenance-recording analysis of
Viterbi gives seven violations.  Their flow slices are then timed, in
this one process and on the one recorder, with
:meth:`repro.obs.provenance.ProvenanceRecorder.slice_to` (the indexed
slicer) and with :func:`tests.obs.slice_reference.reference_slice` (the
frozen list-scanning walk), in alternating rounds by process CPU time.
The reported ratio is the median indexed round over the median frozen
round.  Both sides read the same edges, so the ratio moves with the
slicer, not with the host, the analysis or the gate kernel.  It is
about 0.13 with the span-run slicer (about 0.28 when every expansion
built its edges one by one) and 1.0 with the frozen walk on both
sides.  The last line of standard output is a JSON document; the exit
status is 1 when the ratio is not below ``--max-ratio``.
"""

import argparse
import gc
import json
import statistics
import sys
import time

from repro.core import TaintTracker
from repro.obs.provenance import ProvenanceRecorder, explain_violation
from repro.workloads.registry import benchmark
from tests.obs.slice_reference import reference_slice

#: Timed rounds of each slicer, alternating which goes first.
ROUNDS = 5


def _round(slicer, recorder, queries) -> float:
    start = time.process_time()
    for sinks, cycle in queries:
        slicer(recorder, sinks, cycle)
    return time.process_time() - start


def indexed(recorder, sinks, cycle):
    return recorder.slice_to(sinks, cycle)


def _fresh_round(slicer, recorder, queries) -> float:
    """A round of *slicer*; an indexed round first drops the recorder's
    destination index, so each round builds it once, as explaining a
    fresh analysis does.  A full collection runs before the timer
    starts, so one seldom lands inside a round."""
    if slicer is indexed:
        recorder._index = None
    gc.collect()
    return _round(slicer, recorder, queries)


def frozen(recorder, sinks, cycle):
    return reference_slice(recorder, sinks, cycle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--max-ratio", type=float, default=0.3)
    args = parser.parse_args(argv)

    recorder = ProvenanceRecorder()
    result = TaintTracker(
        benchmark("Viterbi").service_program(), provenance=recorder
    ).run()
    # The sinks explain_violation settles on (its state fallback too).
    queries = []
    for index, violation in enumerate(result.violations):
        flow = explain_violation(result, index)
        queries.append((list(flow.sink_nets), violation.cycle))
        edges, _, _, _ = frozen(recorder, flow.sink_nets, violation.cycle)
        if len(edges) != len(flow.edges):
            raise SystemExit(f"violation {index}: the slicers disagree")
    # Nothing timed reads them, and a collection in a round would walk
    # their edges.
    del result, flow, edges
    times = {"indexed": [], "frozen": []}
    sides = (("indexed", indexed), ("frozen", frozen))
    for number in range(ROUNDS):
        for name, slicer in sides[::-1] if number % 2 else sides:
            times[name].append(_fresh_round(slicer, recorder, queries))
    ratio = statistics.median(times["indexed"]) / statistics.median(
        times["frozen"]
    )
    print(f"{len(queries)} slices: indexed/frozen CPU time {ratio:.3f} "
          f"(budget < {args.max_ratio})")
    print(json.dumps({
        "violations": len(queries),
        "indexed_s": times["indexed"],
        "frozen_s": times["frozen"],
        "ratio": ratio,
        "max_ratio": args.max_ratio,
    }))
    return 0 if ratio < args.max_ratio else 1


if __name__ == "__main__":
    sys.exit(main())
