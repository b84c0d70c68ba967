"""Convenience harness for running programs on the gate-level SoC.

Used by the test-suite's gate-vs-architectural cross-validation and by the
evaluation harness when it wants ground-truth gate-level runs.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.isa.encode import EncodeError, decode
from repro.isa.program import Program
from repro.logic.ternary import ONE, ZERO
from repro.logic.words import TWord
from repro.sim.compiled import CompiledCircuit
from repro.sim.soc import AddressSpace, CycleEvents, Rom, SoC

#: dbg_phase bit indices (matches the build order in repro.cpu.build).
PHASE_F, PHASE_SE, PHASE_SL, PHASE_DE, PHASE_DL, PHASE_E, PHASE_J = range(7)

#: Symbolic names of the FSM phases, indexed by the values above.
PHASE_NAMES = ("F", "SE", "SL", "DE", "DL", "E", "J")

#: JSON for a boolean, indexed by it.
_JSON_BOOL = ("false", "true")


def _phase_of(codes: bytes) -> int:
    """The phase of the first registered bit (1-6) whose code in
    *codes* is a 1; else ``PHASE_F`` when all six are 0, and -1 when
    one is X."""
    unknown = False
    for bit, code in enumerate(codes, start=1):
        value = code >> 1
        if value == ONE:
            return bit
        if value != ZERO:
            unknown = True
    if unknown:
        return -1  # the FSM itself has unknown state bits
    return PHASE_F


InputSpec = Union[
    Callable[[str], int], Mapping[str, Union[int, Callable[[], int]]]
]


class GateRunner:
    """Loads a program into a gate-level SoC and steps it.

    *inputs* drives the GPIO input ports for concrete runs.  It is either

    * a mapping ``{port_name: value_or_callable}`` -- validated eagerly,
      so an unknown port name fails here with the known names listed,
      rather than cycles later inside the simulation; or
    * a callable ``inputs(port_name) -> int`` polled on every port read
      (kept for stateful drivers); lookup errors it raises are re-raised
      with the offending port named.
    """

    def __init__(
        self,
        circuit: CompiledCircuit,
        program: Program,
        space: Optional[AddressSpace] = None,
        inputs: Optional[InputSpec] = None,
        trace_interval: int = 1,
    ):
        self.program = program
        rom = Rom()
        program.load_rom(rom)
        self.soc = SoC(circuit, rom=rom, space=space)
        program.load_ram(self.soc.space.ram)
        if inputs is not None:
            self._wire_inputs(inputs)
        #: net id by name, built on the first :meth:`read_named`
        self._net_ids: Optional[Dict[str, int]] = None
        #: the six registered phase bits (``dbg_phase[1:7]``), and
        #: :meth:`phase` by their codes (at most 6**6 entries)
        self._phase_nets = np.array(
            circuit.output_nets("dbg_phase")[1:7], dtype=np.int64
        )
        self._phases: Dict[bytes, int] = {}
        self.trace_interval = trace_interval
        self.soc.reset()
        self.events: List[CycleEvents] = []

    def _wire_inputs(self, inputs: InputSpec) -> None:
        ports = self.soc.space.input_ports
        known = [port.name for port in ports]
        if isinstance(inputs, Mapping):
            unknown = sorted(set(inputs) - set(known))
            if unknown:
                raise ValueError(
                    f"unknown input port name(s) {unknown}; "
                    f"this SoC has input ports {known}"
                )
            for port in ports:
                if port.name not in inputs:
                    continue
                value = inputs[port.name]
                if callable(value):
                    port.driver = value
                else:
                    port.driver = lambda value=int(value): value
            return
        if not callable(inputs):
            raise TypeError(
                "inputs must be a mapping {port_name: value} or a "
                f"callable inputs(port_name) -> int, got {type(inputs)!r}"
            )
        for port in ports:

            def driver(name=port.name):
                try:
                    return inputs(name)
                except LookupError as error:
                    raise ValueError(
                        f"inputs callback has no value for port "
                        f"{name!r} (known ports: {known})"
                    ) from error

            port.driver = driver

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def read_named(self, prefix: str, width: int = 16) -> TWord:
        """Read an internal register by its net-name prefix (e.g. 'rf/r4')."""
        if self._net_ids is None:
            self._net_ids = {
                name: index
                for index, name in enumerate(
                    self.soc.circuit.netlist.net_names
                )
            }
        nets = [self._net_ids[f"{prefix}[{i}]"] for i in range(width)]
        return self.soc.circuit.read_nets(self.soc.state, nets)

    def register(self, index: int) -> TWord:
        if index == 0:
            return self.soc.pc()
        if index == 2:
            return self.soc.read_debug("dbg_sr")
        if index == 3:
            return TWord.const(0)
        return self.read_named(f"rf/r{index}")

    def phase(self) -> int:
        """Current FSM phase, read from the *registered* bits only.

        After a clock edge the combinational nets (including the derived F
        bit) are stale until the next evaluation, but the six registered
        phase bits are fresh; F is the all-zero case.
        """
        codes = self.soc.state.codes[self._phase_nets].tobytes()
        phase = self._phases.get(codes)
        if phase is None:
            phase = self._phases[codes] = _phase_of(codes)
        return phase

    def at_halt(self, phase: Optional[int] = None) -> bool:
        """True when executing the idle self-loop (``jmp $``).

        *phase* is the current :meth:`phase` when the caller has just
        read it.
        """
        if (self.phase() if phase is None else phase) != PHASE_J:
            return False
        ir = self.soc.instruction_register()
        if not ir.is_concrete:
            return False
        try:
            instruction = decode([ir.value, 0, 0], 0)
        except EncodeError:
            return False
        return instruction.mnemonic == "jmp" and instruction.offset == -1

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self) -> CycleEvents:
        return self._step()[0]

    def _step(self) -> Tuple[CycleEvents, Optional[int]]:
        """One cycle, plus the FSM phase after it when its trace event
        read the phase (else ``None``)."""
        events = self.soc.step()
        self.events.append(events)
        phase = None
        instruments = self.soc.instruments
        if instruments.obs.enabled and instruments.obs.trace is not None:
            cycle = self.soc.cycle
            if self.trace_interval and cycle % self.trace_interval == 0:
                phase = self.phase()
                self._emit_step(instruments, cycle, events, phase)
        return events, phase

    def _emit_step(
        self, instruments, cycle: int, events: CycleEvents, phase: int
    ) -> None:
        """One per-cycle summary trace event, encoded here and written
        straight to the trace recorder."""
        pc = events.pc
        members = (
            f'"cycle": {cycle}, '
            f'"phase": "{PHASE_NAMES[phase] if phase >= 0 else "X"}", '
            f'"pc": {"null" if pc.xmask else pc.bits}, '
            f'"reset": {_JSON_BOOL[events.reset[0] == ONE]}, '
            f'"read": {_JSON_BOOL[events.read is not None]}, '
            f'"write": {_JSON_BOOL[events.write is not None]}, '
            f'"port_events": {len(events.port_events)}'
        )
        provenance, timeline = instruments.provenance, instruments.timeline
        if provenance is not None:
            members += f', "provenance_edges": {provenance.edges_this_cycle}'
        if timeline is not None:
            members += f', "timeline_frames": {timeline.num_frames}'
        instruments.obs.trace.write("step", members)

    def run(
        self, max_cycles: int = 100_000, stop_at_halt: bool = True
    ) -> int:
        """Step until the idle loop (or *max_cycles*); returns cycles run."""
        start = self.soc.cycle
        phase = None  # the traced step event's phase read, reused here
        with self.soc.instruments.obs.span("gate_run"):
            while self.soc.cycle - start < max_cycles:
                if stop_at_halt and self.at_halt(phase):
                    break
                phase = self._step()[1]
        return self.soc.cycle - start
