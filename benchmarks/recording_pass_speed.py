"""A provenance-recording step's sweep against a plain pass, in one
process.

    PYTHONPATH=src python benchmarks/recording_pass_speed.py [--max-ratio R]

Run from the repository root.  A timeline-recorded analysis of Viterbi
gives the codes of every net at the end of each step; the state of its
middle step is the one both sides start from, restored before every
pass.  By then nearly every net is tainted, so a sweep there records no
edges, as on nearly every step of the run: one recording sweep from
each step's state records none on 2416 of Viterbi's 2434 steps.  The
script reports that share over the run's steps as ``zero_edge_share``.

* the recording side is what a provenance-recording SoC step runs
  around its ports, through the step's own
  :class:`~repro.sim.compiled.RecordingRows`: the pre-pass codes copied
  into rows 1 and 2 in one write, one two-row sweep (the every-net full
  plan on row 0, the memory interface's cone on row 1,
  :meth:`CompiledCircuit.pair_plan`), and one taint diff of both rows
  with its edge records (row 1 against the pre-pass codes, row 0
  against row 1);
* the plain side is the pass a plain SoC runs: the cut-mapped plan,
  through :meth:`CompiledCircuit.eval_combinational`.

Both run in blocks of ``PASSES`` passes, as alternating pairs on one
pinned CPU (``_pairs.py``); the ratio is the median per-pair ratio of
CPU times.  Both sides read the one state on the one circuit, so the
ratio moves with the recording step's gate work, not with the host or
the analysis around it.  The last line of standard output is a JSON
document; the exit status is 1 when the ratio is not below
``--max-ratio``.
"""

import argparse
import json
import sys

from _pairs import pinned_pairs

from repro.core import TaintTracker
from repro.cpu import compiled_cpu
from repro.obs.provenance import ProvenanceRecorder
from repro.obs.timeline import TimelineRecorder
from repro.sim.soc import INTERFACE_PORTS
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
    rows = circuit.recording_rows(recording, INTERFACE_PORTS)
    provenance = ProvenanceRecorder()

    def plain_pass():
        circuit.eval_combinational(plain)

    def recording_sweep():
        rows.begin()
        rows.sweep()
        rows.record(provenance)

    silent = 0
    for frame in range(timeline.num_frames):
        recording.codes[:] = timeline.seek(frame)
        before = provenance.recorded
        recording_sweep()
        silent += provenance.recorded == before
    middle = timeline.num_frames // 2
    cycle, codes = timeline.cycle_of(middle), timeline.seek(middle)

    def passes(state, sweep):
        def run():
            for _ in range(PASSES):
                state.codes[:] = codes
                sweep()
        return run

    run_plain = passes(plain, plain_pass)
    run_recording = passes(recording, recording_sweep)
    run_plain()  # warm both sides
    before = provenance.recorded
    run_recording()
    edges = (provenance.recorded - before) // PASSES
    timed = pinned_pairs(run_plain, run_recording, PAIRS)
    ratio = timed.overhead
    share = silent / timeline.num_frames
    print(f"Viterbi cycle {cycle}, {edges} edges a sweep "
          f"({share:.1%} of the run's steps record none): recording "
          f"two-row sweep / plain mapped pass CPU time {ratio:.3f} "
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
