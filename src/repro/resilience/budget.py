"""Analysis budgets with sound degradation.

An :class:`AnalysisBudget` bounds an exploration along five axes: paths,
simulated cycles, stored conservative (merged) states, wall-clock
deadline and process RSS.  The tracker checks it *cooperatively* -- at
worklist pops and at instruction-fetch boundaries -- and on exhaustion it
does not raise: the remaining worklist is widened to the fully-tainted
``X`` top state and the analysis returns with verdict ``inconclusive``
(or ``insecure`` when definite violations were already found).  Per the
paper's Section 4 conservatism, over-tainting unexplored futures can only
*add* violations, so the degraded verdict never claims security it did
not prove.

The budget is deliberately stateless across runs except for the deadline
anchor: ``start()`` latches the wall-clock start once, so one budget
threaded through a repair loop's repeated re-verifications bounds the
*whole* ``secure_compile`` call, not each round separately.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import List, Optional

from repro.obs.clock import CLOCK, Clock

#: How many instruction-fetch boundaries pass between RSS probes (the
#: getrusage syscall is the only non-trivial check on the hot path).
RSS_CHECK_INTERVAL = 64


def current_rss_mb() -> Optional[float]:
    """The process's peak resident set size in MiB (None if unknown)."""
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


@dataclass
class AnalysisBudget:
    """Resource ceilings for one analysis (None disables an axis).

    The budget is the only bound on an exploration, and these field
    defaults are the analysis's one default bound: every surface that
    takes a path or cycle cap (the CLI, ``analyze-all``, the service)
    feeds an axis here rather than a limit of its own.
    """

    max_paths: Optional[int] = 4096
    max_cycles: Optional[int] = 1_000_000
    max_merged_states: Optional[int] = None
    deadline_seconds: Optional[float] = None
    max_rss_mb: Optional[float] = None
    clock: Clock = field(default=CLOCK, repr=False)

    _started_at: Optional[float] = field(default=None, repr=False)
    _fetch_checks: int = field(default=0, repr=False)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Anchor the deadline (idempotent: the first call wins, so one
        budget spans every re-verification of a repair loop)."""
        if self._started_at is None:
            self._started_at = self.clock.wall()

    def reset(self) -> None:
        """Forget the deadline anchor (a genuinely new job)."""
        self._started_at = None
        self._fetch_checks = 0

    def elapsed_seconds(self) -> float:
        if self._started_at is None:
            return 0.0
        return self.clock.wall() - self._started_at

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def exhausted_reasons(self, stats, merged_states: int) -> List[str]:
        """Every budget axis currently exhausted (full check; called at
        worklist pops, i.e. once per explored path)."""
        reasons: List[str] = []
        if self.max_paths is not None and stats.paths >= self.max_paths:
            reasons.append("max_paths")
        if (
            self.max_cycles is not None
            and stats.cycles_simulated >= self.max_cycles
        ):
            reasons.append("max_cycles")
        if (
            self.max_merged_states is not None
            and merged_states >= self.max_merged_states
        ):
            reasons.append("max_merged_states")
        if (
            self.deadline_seconds is not None
            and self._started_at is not None
            and self.clock.wall() - self._started_at
            >= self.deadline_seconds
        ):
            reasons.append("deadline")
        if self.max_rss_mb is not None:
            rss = current_rss_mb()
            if rss is not None and rss >= self.max_rss_mb:
                reasons.append("max_rss")
        return reasons

    def mid_path_exhausted(self, stats) -> bool:
        """Cheap check at instruction-fetch boundaries: only the axes a
        single long path can blow through (time, cycles, memory)."""
        if (
            self.max_cycles is not None
            and stats.cycles_simulated >= self.max_cycles
        ):
            return True
        if (
            self.deadline_seconds is not None
            and self._started_at is not None
            and self.clock.wall() - self._started_at
            >= self.deadline_seconds
        ):
            return True
        if self.max_rss_mb is not None:
            self._fetch_checks += 1
            if self._fetch_checks % RSS_CHECK_INTERVAL == 0:
                rss = current_rss_mb()
                if rss is not None and rss >= self.max_rss_mb:
                    return True
        return False

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """JSON-ready description of the configured ceilings."""
        return {
            "max_paths": self.max_paths,
            "max_cycles": self.max_cycles,
            "max_merged_states": self.max_merged_states,
            "deadline_seconds": self.deadline_seconds,
            "max_rss_mb": self.max_rss_mb,
        }
