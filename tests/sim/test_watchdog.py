"""Tests for the watchdog timer model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.ternary import ONE, UNKNOWN, ZERO
from repro.logic.words import TWord
from repro.memmap import WDTCTL
from repro.sim.watchdog import HOLD_BIT, WDT_INTERVALS, Watchdog


def armed_watchdog(interval_select=3):
    wdt = Watchdog(WDTCTL)
    wdt.write_reg(WDTCTL, TWord.const(0x5A00 | interval_select), (ONE, 0))
    return wdt


class TestArming:
    def test_starts_held(self):
        wdt = Watchdog(WDTCTL)
        assert not wdt.running
        for _ in range(100):
            assert wdt.tick() == (ZERO, 0)

    def test_valid_write_arms(self):
        wdt = armed_watchdog(interval_select=3)
        assert wdt.running
        assert wdt.cycles_until_expiry() == WDT_INTERVALS[3] == 64

    def test_interval_selects(self):
        for select, cycles in enumerate(WDT_INTERVALS):
            wdt = armed_watchdog(interval_select=select)
            assert wdt.cycles_until_expiry() == cycles

    def test_hold_bit_stops(self):
        wdt = armed_watchdog()
        wdt.write_reg(WDTCTL, TWord.const(0x5A80), (ONE, 0))
        assert not wdt.running
        assert wdt.cycles_until_expiry() is None

    def test_wrong_password_fires_reset(self):
        wdt = Watchdog(WDTCTL)
        wdt.write_reg(WDTCTL, TWord.const(0x1234), (ONE, 0))
        assert wdt.tick() == (ONE, 0)
        assert wdt.tick() == (ZERO, 0)


class TestExpiry:
    def test_expires_after_interval(self):
        wdt = armed_watchdog(interval_select=3)
        for _ in range(63):
            assert wdt.tick() == (ZERO, 0)
        assert wdt.tick() == (ONE, 0)  # untainted POR
        # reloads and keeps going
        assert wdt.cycles_until_expiry() == 64

    def test_rewrite_reloads_counter(self):
        wdt = armed_watchdog(interval_select=3)
        for _ in range(60):
            wdt.tick()
        wdt.write_reg(WDTCTL, TWord.const(0x5A03), (ONE, 0))
        for _ in range(63):
            assert wdt.tick() == (ZERO, 0)
        assert wdt.tick() == (ONE, 0)

    def test_fast_forward_matches_ticks(self):
        slow = armed_watchdog(interval_select=3)
        fast = armed_watchdog(interval_select=3)
        outputs = [slow.tick() for _ in range(64)]
        assert fast.fast_forward(64) == outputs[-1] == (ONE, 0)
        assert slow.counter == fast.counter


class TestTaintedWatchdog:
    """The paper: only an *untainted* watchdog can de-taint the pipeline."""

    def test_tainted_write_corrupts(self):
        wdt = armed_watchdog()
        wdt.write_reg(WDTCTL, TWord.const(0x5A03, tmask=0x1), (ONE, 0))
        assert wdt.corrupted
        assert wdt.tick() == (ZERO, 1)  # even "no reset" is tainted now

    def test_unknown_write_corrupts(self):
        wdt = armed_watchdog()
        wdt.write_reg(WDTCTL, TWord.unknown(16), (ONE, 0))
        assert wdt.corrupted

    def test_maybe_write_via_smeared_address_corrupts(self):
        """A store with unknown address that *could* hit WDTCTL."""
        wdt = armed_watchdog()
        wdt.write_reg(
            WDTCTL, TWord.const(0), (UNKNOWN, 1), address_taint=0xFFFF
        )
        assert wdt.corrupted

    def test_strobe_zero_untainted_harmless(self):
        wdt = armed_watchdog()
        wdt.write_reg(WDTCTL, TWord.unknown(16), (ZERO, 0))
        assert not wdt.corrupted

    def test_read_through_tainted_address(self):
        wdt = armed_watchdog()
        word = wdt.read_reg(WDTCTL, address_taint=0xFFFF)
        assert word.tmask == 0xFFFF


class TestStateManagement:
    def test_snapshot_restore(self):
        wdt = armed_watchdog()
        snap = wdt.snapshot()
        for _ in range(10):
            wdt.tick()
        wdt.restore(snap)
        assert wdt.cycles_until_expiry() == 64

    def test_covers_same_state(self):
        wdt = armed_watchdog()
        assert wdt.covers(wdt.snapshot())

    def test_covers_rejects_counter_mismatch(self):
        wdt = armed_watchdog()
        snap = wdt.snapshot()
        wdt.tick()
        assert not wdt.covers(snap)

    def test_merge_diverging_counters_keeps_latest(self):
        """The deterministic-timer abstraction: merged paths forked at a
        branch share an absolute expiry, so the merge keeps the latest
        remaining time instead of losing determinism."""
        wdt = armed_watchdog()
        wdt.tick()
        wdt.tick()
        other = armed_watchdog()
        other.tick()
        longest = other.cycles_until_expiry()
        wdt.merge(other.snapshot())
        assert not wdt.corrupted
        assert wdt.cycles_until_expiry() == longest

    def test_covers_with_counter_ordering(self):
        wdt = armed_watchdog()
        snap_full = wdt.snapshot()
        wdt.tick()
        assert not wdt.covers(snap_full)  # less time left than stored
        later = armed_watchdog()
        later.tick()
        assert armed_watchdog().covers(later.snapshot())

    def test_merge_identical_is_clean(self):
        wdt = armed_watchdog()
        wdt.merge(armed_watchdog().snapshot())
        assert not wdt.corrupted
        assert wdt.running


def _ticked(wdt, cycles):
    """*cycles* single ticks: what ``fast_forward`` must equal."""
    por = (ZERO, 0)
    for _ in range(cycles):
        por = wdt.tick()
    return por


@st.composite
def watchdog_states(draw):
    """A watchdog in any state a tracker can hand to ``fast_forward``,
    with a cycle count up to a few of its intervals."""
    select = draw(st.integers(0, 3))
    interval = WDT_INTERVALS[select]
    hold = draw(st.sampled_from([0, 1, None]))  # None: an unknown bit
    wdt = Watchdog(WDTCTL)
    wdt.control = TWord(
        select | (1 << HOLD_BIT if hold else 0),
        xmask=1 << HOLD_BIT if hold is None else 0,
        tmask=draw(st.sampled_from([0, 0x0003, 0xFFFF])),
    )
    wdt.counter = draw(st.integers(-2, 3 * interval))
    wdt.corrupted = draw(st.booleans())
    wdt.pending_reset = draw(st.booleans())
    wdt.pending_reset_taint = draw(st.integers(0, 1))
    cycles = draw(st.integers(0, 3 * interval + 2))
    return wdt, cycles


@settings(max_examples=150, deadline=None)
@given(watchdog_states())
def test_fast_forward_equals_single_ticks(case):
    wdt, cycles = case
    ticked = Watchdog(WDTCTL)
    ticked.restore(wdt.snapshot())
    assert wdt.fast_forward(cycles) == _ticked(ticked, cycles)
    assert wdt.snapshot() == ticked.snapshot()
