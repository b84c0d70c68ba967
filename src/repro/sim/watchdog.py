"""The watchdog timer -- the paper's untainted control-flow recovery anchor.

Section 5.2: "we propose using the watchdog timer that is common to many
microcontrollers to reset the entire processor after a deterministic-length
period of tainted execution.  We use our symbolic simulation-based analysis
to guarantee that the watchdog remains untainted."

Model (MSP430-flavoured):

* ``WDTCTL`` is written with a password in the high byte (``0x5A``); a
  write with a wrong concrete password triggers an immediate power-on
  reset, as on real hardware.
* Low byte: bits ``1:0`` select the interval (``00``: 32768, ``01``: 8192,
  ``10``: 512, ``11``: 64 cycles -- the four intervals the paper's slicing
  optimisation chooses from), bit 7 is ``WDTHOLD`` (1 stops the timer).
* Any valid write reloads the down-counter with the selected interval.
* When the counter reaches zero the watchdog drives a one-cycle power-on
  reset (POR) and reloads.  The POR's *taint* is the taint of ``WDTCTL``:
  per Figure 7's flip-flop rule, a tainted reset clears values but cannot
  clear taints, so only an untainted watchdog de-taints the pipeline.

If ``WDTCTL`` is ever written with unknown or tainted contents (including
via a smeared store address), the watchdog is marked *corrupted*: its POR
is tainted from then on and the policy checker reports the paper's
"watchdog tainted" violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.logic.ternary import ONE, ZERO
from repro.logic.words import TWord
from repro.memmap import WDT_PASSWORD

#: Interval select encodings, cycles.  Index = WDTCTL[1:0].
WDT_INTERVALS = (32768, 8192, 512, 64)

HOLD_BIT = 7


@dataclass
class WatchdogState:
    control: TWord
    counter: int
    corrupted: bool
    pending_reset: bool
    pending_reset_taint: int


class Watchdog:
    """Down-counting watchdog with taint-aware reset generation."""

    def __init__(self, address: int):
        self.address = address
        # Out of power-on reset the watchdog is held (unlike the MSP430's
        # default-active watchdog) so unprotected programs run untouched;
        # system code arms it explicitly, as in the paper's Figure 8.
        self.control = TWord.const(1 << HOLD_BIT)
        self.counter = WDT_INTERVALS[0]
        self.corrupted = False
        self.pending_reset = False
        self.pending_reset_taint = 0

    # ------------------------------------------------------------------
    # Register interface
    # ------------------------------------------------------------------
    def read_reg(self, address: int, address_taint: int = 0, definite: bool = True) -> TWord:
        return self.control.or_taint(0xFFFF if address_taint else 0)

    def write_reg(
        self,
        address: int,
        data: TWord,
        wen: Tuple[int, int],
        address_taint: int = 0,
    ) -> None:
        wen_value, wen_taint = wen
        if wen_value == ZERO and not wen_taint:
            return
        definite = wen == (ONE, 0) and address_taint == 0
        if not definite or not data.is_concrete or data.tmask:
            # An adversary-influenced or unknown write: the watchdog can no
            # longer be trusted to generate an untainted reset.
            self.corrupted = True
            self.control = self.control.merge(data).or_taint(0xFFFF)
            return
        if (data.value >> 8) != WDT_PASSWORD:
            # Wrong password: immediate reset (untainted -- it is a known,
            # deterministic consequence of this instruction).
            self.pending_reset = True
            return
        self.control = TWord.const(data.value & 0x00FF)
        self.counter = WDT_INTERVALS[data.value & 0x3]

    def power_on_reset(self, taint: int = 0) -> None:
        """Apply a POR to the watchdog itself: back to held.

        An *untainted* reset restores trust (clears ``corrupted``); a
        tainted one cannot -- Figure 7's rule applied to the watchdog's own
        state.
        """
        self.counter = WDT_INTERVALS[0]
        self.pending_reset = False
        self.pending_reset_taint = 0
        if taint == 0:
            self.control = TWord.const(1 << HOLD_BIT)
            self.corrupted = False
        else:
            self.control = TWord.const(1 << HOLD_BIT, tmask=0xFFFF)

    # ------------------------------------------------------------------
    # Cycle behaviour
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        hold, _ = self.control.bit(HOLD_BIT)
        return hold == ZERO and not self.corrupted

    def tick(self) -> Tuple[int, int]:
        """Advance one cycle; returns the POR value/taint for *next* cycle."""
        if self.pending_reset:
            self.pending_reset = False
            taint = self.pending_reset_taint
            self.pending_reset_taint = 0
            return ONE, taint
        if self.corrupted:
            # Expiry time is adversary-influenced; any reset it produces is
            # tainted, and so (conservatively) is the absence of one.
            return ZERO, 1
        if not self.running:
            return ZERO, 0
        self.counter -= 1
        if self.counter <= 0:
            self.counter = WDT_INTERVALS[self.control.bits & 0x3]
            return ONE, 1 if self.control.tmask else 0
        return ZERO, 0

    def cycles_until_expiry(self) -> Optional[int]:
        """Deterministic cycles left before the next POR (None if idle).

        Used by the tracker to fast-forward padding idle loops.
        """
        if self.pending_reset:
            return 0
        if not self.running:
            return None
        return self.counter

    def fast_forward(self, cycles: int) -> Tuple[int, int]:
        """Advance *cycles* ticks at once; returns the final tick's POR.

        The same as *cycles* calls of :meth:`tick`, in constant time: a
        running watchdog counts down, reloads on each expiry and fires on
        the last tick only if that tick expires.
        """
        if cycles <= 0:
            return ZERO, 0
        if self.pending_reset:
            por = self.tick()
            cycles -= 1
            if not cycles:
                return por
        if self.corrupted:
            return ZERO, 1
        if not self.running:
            return ZERO, 0
        interval = WDT_INTERVALS[self.control.bits & 0x3]
        first = max(self.counter, 1)  # the tick of the first expiry
        if cycles < first:
            self.counter -= cycles
            return ZERO, 0
        since = (cycles - first) % interval  # ticks after the last expiry
        self.counter = interval - since
        if since:
            return ZERO, 0
        return ONE, 1 if self.control.tmask else 0

    # ------------------------------------------------------------------
    # Tracker state management
    # ------------------------------------------------------------------
    def snapshot(self) -> WatchdogState:
        return WatchdogState(
            self.control,
            self.counter,
            self.corrupted,
            self.pending_reset,
            self.pending_reset_taint,
        )

    def restore(self, state: WatchdogState) -> None:
        self.control = state.control
        self.counter = state.counter
        self.corrupted = state.corrupted
        self.pending_reset = state.pending_reset
        self.pending_reset_taint = state.pending_reset_taint

    def merge(self, state: WatchdogState) -> None:
        """Most-conservative merge (the deterministic-timer abstraction).

        Execution paths forked at a branch take different numbers of
        cycles, so their *remaining* counters differ at the merge point
        even though the expiry is deterministic in absolute time (armed at
        T0, fires at T0+I on every path).  Merging keeps the **latest**
        remaining time: the merged exploration runs at least as long as
        any merged-in path before the POR, and the post-reset states all
        converge at the tracker's POR merge key.  The counter stays
        untainted -- which is precisely the property the paper's
        "deterministic-length period of tainted execution" provides.
        """
        self.control = self.control.merge(state.control)
        self.corrupted = self.corrupted or state.corrupted
        self.pending_reset = self.pending_reset or state.pending_reset
        self.pending_reset_taint |= state.pending_reset_taint
        self.counter = max(self.counter, state.counter)

    def covers(self, state: WatchdogState) -> bool:
        if not self.control.covers(state.control):
            return False
        if state.corrupted and not self.corrupted:
            return False
        if self.corrupted:
            return True
        if state.pending_reset and not self.pending_reset:
            return False
        return self.counter >= state.counter
