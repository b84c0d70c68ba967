"""Layer spans recorded from outside the program.

The traced run wraps the public functions of each ``repro`` layer (see
:data:`TARGETS`), records one span per call in compact in-memory arrays,
and only after the run derives per-layer totals and self times.  Nothing
in ``src/`` knows it is being traced; :meth:`Tracer.uninstall` puts every
original attribute back.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: ``(span name, module, attribute path)`` for every wrapped function.
#: Several targets may share a span name; the name's prefix is the layer.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.compiled.full_pass", "repro.sim.compiled",
     "CompiledCircuit.eval_combinational"),
    ("sim.compiled.cone_pass", "repro.sim.compiled",
     "CompiledCircuit.eval_plan"),
    ("sim.compiled.clock_edge", "repro.sim.compiled",
     "CompiledCircuit.clock_edge"),
    ("sim.soc.step", "repro.sim.soc", "SoC.step"),
    ("sim.soc.space_read", "repro.sim.soc", "AddressSpace.read"),
    ("sim.soc.space_write", "repro.sim.soc", "AddressSpace.write"),
    ("sim.soc.rom_read", "repro.sim.soc", "Rom.read"),
    ("core.tracker.snapshot", "repro.sim.soc", "SoC.snapshot"),
    ("core.tracker.restore", "repro.sim.soc", "SoC.restore"),
    ("core.tracker.covers", "repro.sim.soc", "AddressSpace.covers"),
    ("core.tracker.merge", "repro.sim.soc", "AddressSpace.merge"),
    ("core.tracker.init", "repro.core.tracker", "TaintTracker.__init__"),
    ("core.tracker.run", "repro.core.tracker", "TaintTracker.run"),
    ("core.checker", "repro.core.checker",
     "PolicyChecker.note_instruction_start"),
    ("core.checker", "repro.core.checker",
     "PolicyChecker.note_instruction_end"),
    ("core.checker", "repro.core.checker",
     "PolicyChecker.note_unbounded_control"),
    ("core.checker", "repro.core.checker", "PolicyChecker.note_events"),
    ("core.checker", "repro.core.checker", "PolicyChecker.violations"),
    ("cpu.compiled_cpu", "repro.cpu.build", "compiled_cpu"),
    ("isa.assemble", "repro.isa.assembler", "assemble"),
    ("transform.rootcause", "repro.transform.rootcause",
     "identify_root_causes"),
    ("transform.rewrite", "repro.transform.watchdog_reset",
     "insert_watchdog_protection"),
    ("transform.rewrite", "repro.transform.masking", "insert_masks"),
    ("obs.provenance.explain", "repro.obs.provenance", "explain_violation"),
)


class SpanTotals:
    """Per-name aggregate of a span list."""

    __slots__ = ("count", "total", "self_time")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0


def aggregate(
    spans: Iterable[Tuple[str, float, float]],
    window: Optional[Tuple[float, float]] = None,
) -> Dict[str, SpanTotals]:
    """Count, total and self time per span name.

    *spans* are ``(name, start, end)``.  Spans nest (a call's wrapped
    callees start after it and end before it); a span's self time is its
    duration minus the durations of its direct children.  With *window*,
    only spans starting inside ``[lo, hi)`` count.
    """
    ordered = sorted(spans, key=lambda span: (span[1], -span[2]))
    totals: Dict[str, SpanTotals] = {}
    child_time: List[float] = [0.0] * len(ordered)
    stack: List[int] = []
    for index, (name, start, end) in enumerate(ordered):
        while stack and ordered[stack[-1]][2] <= start:
            stack.pop()
        if stack:
            child_time[stack[-1]] += end - start
        stack.append(index)
    for index, (name, start, end) in enumerate(ordered):
        if window is not None and not window[0] <= start < window[1]:
            continue
        entry = totals.get(name)
        if entry is None:
            entry = totals[name] = SpanTotals()
        entry.count += 1
        entry.total += end - start
        entry.self_time += end - start - child_time[index]
    return totals


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attribute


class Tracer:
    """Wraps :data:`TARGETS` and records their spans until uninstalled."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._codes: Dict[str, int] = {}
        self._ids = array("H")
        self._starts = array("d")
        self._ends = array("d")
        #: ``AddressSpace.covers`` calls that returned True
        self.cover_hits = 0
        #: every ``TaintTracker.run`` result, in call order
        self.results: list = []
        #: ``(owner, attribute, original)`` for every patched binding
        self._patched: List[Tuple[object, str, object]] = []
        #: ``id(wrapper) -> (wrapper, original)``
        self._originals: Dict[int, Tuple[Callable, Callable]] = {}

    # ------------------------------------------------------------------
    def wrap(
        self,
        name: str,
        func: Callable,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> Callable:
        """*func* with a span named *name* around every call."""
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self._names)
            self._names.append(name)
        ids, starts, ends = self._ids, self._starts, self._ends

        def traced(*args, **kwargs):
            index = len(ends)
            ids.append(code)
            ends.append(0.0)
            starts.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
            if on_result is not None:
                on_result(result)
            return result

        return functools.update_wrapper(traced, func)

    def _on_covers(self, covered) -> None:
        if covered:
            self.cover_hits += 1

    def install(self) -> None:
        """Wrap every target wherever ``repro`` holds a reference to it.

        Methods are patched on their class.  A module-level function is
        also bound by name in every module that imported it, so each of
        those bindings is patched too.
        """
        hooks = {
            "AddressSpace.covers": self._on_covers,
            "TaintTracker.run": self.results.append,
        }
        for name, module_name, path in TARGETS:
            owner, attribute = _resolve(module_name, path)
            original = owner.__dict__[attribute]
            wrapper = self.wrap(name, original, hooks.get(path))
            self._originals[id(wrapper)] = (wrapper, original)
            if isinstance(owner, type):
                self._patch(owner, attribute, original, wrapper)
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attribute, original, wrapper) -> None:
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, plus any binding a module
        imported after :meth:`install` copied from a wrapper."""
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                pair = self._originals.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, key, pair[1])

    # ------------------------------------------------------------------
    def spans(self) -> List[Tuple[str, float, float]]:
        names = self._names
        return [
            (names[code], start, end)
            for code, start, end in zip(self._ids, self._starts, self._ends)
        ]
