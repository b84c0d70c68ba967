"""Overhead ratios from alternating pairs of CPU-timed runs on one CPU.

An overhead budget compares an instrumented run with a plain one.  On a
shared host, best-of-N wall times of the two sides follow whatever else
runs there.  :func:`pinned_pairs` runs the sides as alternating pairs:

* the process is pinned to one CPU for the whole loop (as verdictbench's
  reference kernel pins itself), so both runs of a pair see the same
  core and clock;
* each run is timed by process CPU time, which leaves out the time
  other processes hold the core;
* the side that goes first alternates, so a drift in clock speed over
  the loop biases neither;
* the reported overhead is the median of the per-pair ratios, which
  drops the pairs a burst of host load slowed anyway.

Callers warm every lazy cache (one run of each side) before calling.
"""

import contextlib
import os
import statistics
import time
from typing import Callable, List, NamedTuple


def cpu_timed(func, *args):
    """``(result, process CPU seconds)`` of ``func(*args)``."""
    start = time.process_time()
    result = func(*args)
    return result, time.process_time() - start


@contextlib.contextmanager
def one_cpu():
    """Pin this process to one CPU for the block, as verdictbench's
    reference kernel pins itself, so that both sides of a timed pair run
    on the same core."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class Pairs(NamedTuple):
    """The CPU times of each side, pair by pair, and the last result of
    the measured side."""

    plain_times: List[float]
    measured_times: List[float]
    result: object

    @property
    def ratios(self) -> List[float]:
        """Measured over plain time, per pair."""
        return [m / p for p, m in zip(self.plain_times, self.measured_times)]

    @property
    def overhead(self) -> float:
        """The median per-pair ratio."""
        return statistics.median(self.ratios)

    @property
    def plain(self) -> float:
        return statistics.median(self.plain_times)

    @property
    def measured(self) -> float:
        return statistics.median(self.measured_times)


def repeated(func: Callable[[], object], times: int) -> Callable[[], object]:
    """A callable that runs *func* *times* times and returns its last
    result: one timed run long enough that a short analysis (intAVG's
    is under 0.1 s of CPU) is not lost in the host's scheduling
    jitter."""

    def run():
        for _ in range(times - 1):
            func()
        return func()

    return run


def pinned_pairs(
    plain: Callable[[], object], measured: Callable[[], object], pairs: int
) -> Pairs:
    """Time *pairs* alternating pairs of ``plain()`` and ``measured()``
    on one pinned CPU (see the module doc)."""
    plain_times: List[float] = []
    measured_times: List[float] = []
    result = None
    with one_cpu():
        for index in range(pairs):
            if index % 2:
                result, spent = cpu_timed(measured)
                base = cpu_timed(plain)[1]
            else:
                base = cpu_timed(plain)[1]
                result, spent = cpu_timed(measured)
            plain_times.append(base)
            measured_times.append(spent)
    return Pairs(plain_times, measured_times, result)
