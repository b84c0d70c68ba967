"""A provenance-recording full pass against a plain one, in one process.

    PYTHONPATH=src python benchmarks/recording_pass_speed.py [--max-ratio R]

Run from the repository root.  A timeline-recorded analysis of Viterbi
gives the codes of every net at the end of each step; the state of its
middle step is the one both sides start from, restored before every
pass.  By then nearly every net is tainted, so a pass there records no
edges, as on nearly every step of the run: one recording pass from each
step's state records none on 2416 of Viterbi's 2434 steps, and in a
provenance-recording analysis 2417 of the 2436 full passes record none
(the other 19 record 6,023 of its 102,812 edges).  The script reports
that share over the run's steps as ``zero_edge_share``.

* the recording side is the pass a provenance-recording SoC runs: the
  every-net plan, with the snapshot before it and the fresh-taint diff
  and edge records after it;
* the plain side is the pass a plain SoC runs: the cut-mapped plan.

Both go through :meth:`CompiledCircuit.eval_combinational`, in blocks of
``PASSES`` passes, as alternating pairs on one pinned CPU
(``_pairs.py``); the ratio is the median per-pair ratio of CPU times.
Both sides read the one state on the one circuit, so the ratio moves
with the recording pass, not with the host or the analysis around it.
The last line of standard output is a JSON document; the exit status is
1 when the ratio is not below ``--max-ratio``.
"""

import argparse
import json
import sys

from _pairs import pinned_pairs

from repro.core import TaintTracker
from repro.cpu import compiled_cpu
from repro.obs import Instruments
from repro.obs.provenance import ProvenanceRecorder
from repro.obs.timeline import TimelineRecorder
from repro.workloads.registry import benchmark

#: Alternating plain/recording pairs.
PAIRS = 11
#: Passes in one timed run of a side.
PASSES = 1000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--max-ratio", type=float, default=1.6)
    args = parser.parse_args(argv)

    circuit = compiled_cpu()
    recorder = TimelineRecorder()
    TaintTracker(
        benchmark("Viterbi").service_program(), circuit=circuit,
        timeline=recorder,
    ).run()
    timeline = recorder.to_timeline()
    plain, recording = circuit.new_state(), circuit.new_state()
    plain.every_net = False
    provenance = ProvenanceRecorder()
    recording.instruments = Instruments(provenance=provenance)

    silent = 0
    for frame in range(timeline.num_frames):
        recording.codes[:] = timeline.seek(frame)
        before = provenance.recorded
        circuit.eval_combinational(recording)
        silent += provenance.recorded == before
    middle = timeline.num_frames // 2
    cycle, codes = timeline.cycle_of(middle), timeline.seek(middle)

    def passes(state):
        def run():
            for _ in range(PASSES):
                state.codes[:] = codes
                circuit.eval_combinational(state)
        return run

    run_plain, run_recording = passes(plain), passes(recording)
    run_plain()  # warm both sides
    before = provenance.recorded
    run_recording()
    edges = (provenance.recorded - before) // PASSES
    timed = pinned_pairs(run_plain, run_recording, PAIRS)
    ratio = timed.overhead
    share = silent / timeline.num_frames
    print(f"Viterbi cycle {cycle}, {edges} edges a pass "
          f"({share:.1%} of the run's steps record none): recording "
          f"every-net / plain mapped pass CPU time {ratio:.3f} "
          f"(budget < {args.max_ratio})")
    print(json.dumps({
        "cycle": cycle,
        "edges_per_pass": edges,
        "zero_edge_share": share,
        "passes": PASSES,
        "plain_us": timed.plain / PASSES * 1e6,
        "recording_us": timed.measured / PASSES * 1e6,
        "pair_ratios": timed.ratios,
        "ratio": ratio,
        "max_ratio": args.max_ratio,
    }))
    return 0 if ratio < args.max_ratio else 1


if __name__ == "__main__":
    sys.exit(main())
