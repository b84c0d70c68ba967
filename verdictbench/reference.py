"""The reference kernel that measures the host's speed during a run.

    python3 verdictbench/reference.py CPU

Pins itself to ``CPU`` and evaluates a fixed, seeded table-lookup network
shaped like a dense gate-evaluation pass (numpy gathers, base-6 index
arithmetic and scatters, driven from a Python loop) until its standard
input closes.  It then prints one JSON list of ``[monotonic seconds,
process CPU seconds, passes]`` samples, one per :data:`SAMPLE_EVERY`
passes.

An analysis child pinned to the same CPU shares it with this kernel in
scheduler time slices of a few milliseconds, so both see the same
hardware speed.  The kernel's passes per CPU-second during an analysis
convert the analysis's CPU seconds into reference passes, a cost that
no longer moves with the host's speed.  The kernel uses nothing from
``src/``, so no change to the program can change it.
"""

from __future__ import annotations

import json
import os
import select
import sys
import time

import numpy as np

NETS = 3000
GROUPS = 250
SAMPLE_EVERY = 16


def network(seed: int = 0):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 6, NETS).astype(np.uint8)
    groups = []
    for _ in range(GROUPS):
        size = int(rng.integers(2, 30))
        arity = int(rng.integers(1, 4))
        inputs = [rng.integers(0, NETS, size) for _ in range(arity)]
        outputs = rng.integers(0, NETS, size)
        lut = rng.integers(0, 6, 6 ** arity).astype(np.uint8)
        groups.append((inputs, outputs, lut))
    return codes, groups


def one_pass(codes, groups) -> None:
    for inputs, outputs, lut in groups:
        index = codes[inputs[0]].astype(np.int32)
        for column in inputs[1:]:
            index *= 6
            index += codes[column]
        codes[outputs] = lut[index]


def main(argv) -> int:
    os.sched_setaffinity(0, {int(argv[1])})
    codes, groups = network()
    samples = [[time.monotonic(), time.process_time(), 0]]
    print("ready", flush=True)
    passes = 0
    while True:
        for _ in range(SAMPLE_EVERY):
            one_pass(codes, groups)
        passes += SAMPLE_EVERY
        samples.append([time.monotonic(), time.process_time(), passes])
        if select.select([sys.stdin], [], [], 0)[0]:
            break  # stdin closed: the run is over
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
