"""Deterministic fault injection for resilience testing.

A :class:`FaultInjector` perturbs the gate-level substrate at four sites:

* ``decode``     -- shadow decode returns "undecodable" for a fetch;
* ``gate_eval``  -- the per-cycle gate evaluation raises (an *untyped*
  ``RuntimeError``, modelling a bug or transient in the evaluator --
  the tracker must convert it to a typed
  :class:`~repro.resilience.errors.SimulationError`);
* ``snapshot``   -- a forked :class:`~repro.sim.soc.SoCState` snapshot is
  corrupted.  Corruption is modelled as *loss of knowledge*: the chosen
  DFF codes become tainted-``X``, which is conservative (over-taint is
  sound) so the analyzer survives with a possibly degraded verdict;
* ``clock_skew`` -- the SoC's cycle counter jumps forward, stressing
  every consumer of cycle arithmetic (budgets, fast-forward, stats).

Injection is seeded and therefore reproducible: two runs with the same
seed inject the identical fault sequence.  An injector is passed as
``TaintTracker(faults=...)`` and rides on the run's
:class:`~repro.obs.Instruments`, which the tracker arms on its own SoC
for the duration of ``run()``; each injection is counted on that run's
observer.  Without an injector the hook sites cost a single ``None``
check.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

FAULT_KINDS = ("decode", "gate_eval", "snapshot", "clock_skew")


class FaultInjector:
    """Seeded, rate-based fault source.

    *rate* is the per-opportunity injection probability; *kinds* selects
    which sites fire; *max_faults* caps the total injections (None for
    unlimited); *skew_cycles* is the jump applied by ``clock_skew``.
    """

    def __init__(
        self,
        seed: int = 0,
        rate: float = 0.01,
        kinds: Sequence[str] = FAULT_KINDS,
        max_faults: Optional[int] = None,
        skew_cycles: int = 7,
    ):
        unknown = set(kinds) - set(FAULT_KINDS)
        if unknown:
            raise ValueError(
                f"unknown fault kind(s) {sorted(unknown)}; "
                f"known kinds: {FAULT_KINDS}"
            )
        self.seed = seed
        self.rate = rate
        self.kinds = frozenset(kinds)
        self.max_faults = max_faults
        self.skew_cycles = skew_cycles
        self._rng = random.Random(seed)
        #: every injected fault, as ``(kind, cycle)`` in injection order
        self.injected: List[Tuple[str, int]] = []

    # ------------------------------------------------------------------
    def _fire(self, kind: str, cycle: int, obs) -> bool:
        if kind not in self.kinds:
            return False
        if (
            self.max_faults is not None
            and len(self.injected) >= self.max_faults
        ):
            return False
        if self._rng.random() >= self.rate:
            return False
        self.injected.append((kind, cycle))
        if obs.enabled:
            obs.emit("fault_injected", kind=kind, cycle=cycle)
            obs.metrics.counter("resilience.faults_injected").inc()
        return True

    # ------------------------------------------------------------------
    # Site hooks (*obs* is the run's observer, which counts injections)
    # ------------------------------------------------------------------
    def on_decode(self, address: int, cycle: int, obs) -> bool:
        """True when this shadow decode should fail."""
        return self._fire("decode", cycle, obs)

    def on_step(self, soc, obs) -> None:
        """Called at the top of every :meth:`SoC.step`."""
        if self._fire("gate_eval", soc.cycle, obs):
            raise RuntimeError(
                f"injected fault: gate evaluation failed at cycle "
                f"{soc.cycle}"
            )
        if self._fire("clock_skew", soc.cycle, obs):
            soc.cycle += self.skew_cycles

    def on_snapshot(self, snapshot, obs):
        """Possibly corrupt a freshly taken snapshot (in place)."""
        if not self._fire("snapshot", snapshot.cycle, obs):
            return snapshot
        codes = snapshot.dff_codes
        if len(codes):
            index = self._rng.randrange(len(codes))
            # Bit-rot as loss of knowledge: value -> X, taint -> 1
            # (code 2*2+1 = 5 on the value/taint lattice).
            codes[index] = 5
        return snapshot
