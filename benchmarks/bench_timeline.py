"""Timeline flight-recorder overhead on the gate-level hot path.

Two contracts from the timeline design (DESIGN.md section 9):

* recording every cycle's step-log row (flip-flop and input-port codes)
  into a ``TimelineRecorder`` must cost < 15% over the unrecorded
  gate-level run: the median CPU-time ratio of alternating pairs on one
  pinned CPU (``_pairs.py``);
* the on-disk ``.timeline`` format must stay compact -- the document
  reports bytes per 1k recorded cycles so format regressions show up in
  the BENCH trajectory.

Emits ``BENCH_timeline.json``.
"""

import pytest
from _pairs import pinned_pairs

from repro.cpu import compiled_cpu
from repro.isa.assembler import assemble
from repro.obs import Instruments
from repro.obs.timeline import TimelineRecorder, save_timeline
from repro.sim.runner import GateRunner

LOOP = """
    mov #400, r10
loop:
    dec r10
    jnz loop
    halt
"""


@pytest.fixture(scope="module")
def circuit():
    return compiled_cpu()


def test_timeline_recording_overhead(circuit, tmp_path, bench_json):
    """Per-cycle row capture must cost < 15% over the plain run."""
    program = assemble(LOOP, name="loop")
    cycles = 2_000
    pairs = 11

    def run_plain():
        return GateRunner(circuit, program).run(max_cycles=cycles)

    def run_recording():
        recorder = TimelineRecorder()
        runner = GateRunner(circuit, program)
        runner.soc.arm(Instruments(timeline=recorder))
        runner.run(max_cycles=cycles)
        return recorder

    # Warm every lazy cache before timing.
    run_plain()
    run_recording()
    timed = pinned_pairs(run_plain, run_recording, pairs)
    recorder, overhead = timed.result, timed.overhead
    plain, recording = timed.plain, timed.measured

    assert recorder.num_frames > 1_000

    out = tmp_path / "loop.timeline"
    save_timeline(out, recorder)
    size = out.stat().st_size
    bytes_per_1k_cycles = 1_000 * size / recorder.num_frames

    bench_json(
        "timeline",
        {
            "cycles": recorder.num_frames,
            "plain_seconds": plain,
            "recording_seconds": recording,
            "overhead_ratio": overhead,
            "file_bytes": size,
            "bytes_per_1k_cycles": bytes_per_1k_cycles,
            "pairs": pairs,
            "pair_ratios": timed.ratios,
        },
        wall_seconds=recording,
        cycles_per_second=recorder.num_frames / recording,
    )
    print(
        f"\ntimeline: {recorder.num_frames} frames, "
        f"{overhead:.3f}x overhead, "
        f"{bytes_per_1k_cycles / 1024:.1f} KiB per 1k cycles"
    )
    assert overhead < 1.15, (
        f"timeline recording overhead {overhead:.3f}x exceeds the 15% "
        f"target (plain {plain:.3f}s, recording {recording:.3f}s CPU, "
        f"median of {pairs} pinned pairs: "
        + ", ".join(f"{ratio:.3f}" for ratio in sorted(timed.ratios)) + ")"
    )
