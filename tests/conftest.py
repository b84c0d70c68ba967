"""Fixtures shared across the test packages."""

import pytest

from repro.core import TaintTracker, default_policy
from repro.isa.assembler import assemble
from repro.sim.soc import SoC

#: A short straight-line program: a few dozen cycles on one path.
STRAIGHT_LINE = """
.task sys trusted
    mov #21, r4
    add r4, r4
    mov r4, &P2OUT
    halt
"""


@pytest.fixture
def armed_run(monkeypatch):
    """``armed_run(**tracker_kwargs)`` analyses :data:`STRAIGHT_LINE` and
    returns ``(tracker, seen)``: *seen* is the instruments the tracker's
    SoC carried at each step of ``run()``."""

    def run(**tracker_kwargs):
        tracker = TaintTracker(
            assemble(STRAIGHT_LINE, name="straight"),
            default_policy(),
            **tracker_kwargs,
        )
        seen = []
        step = SoC.step

        def spy(soc, *args, **kwargs):
            seen.append(soc.instruments)
            return step(soc, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(SoC, "step", spy)
            tracker.run()
        return tracker, seen

    return run
