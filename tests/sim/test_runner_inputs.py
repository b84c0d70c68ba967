"""Input-port wiring on the gate-level runner.

The mapping form is validated eagerly so a misspelt port name fails at
construction (naming the known ports) instead of surfacing cycles later
as a silently undriven port; the callable form stays lazy for stateful
drivers but converts lookup failures into a clear error.
"""

import pytest

from repro.cpu import compiled_cpu
from repro.isa.assembler import assemble
from repro.sim.runner import GateRunner

READ_P1IN = """
.task sys trusted
    mov &P1IN, r4
    mov r4, &P2OUT
    halt
"""


@pytest.fixture(scope="module")
def circuit():
    return compiled_cpu()


@pytest.fixture
def program():
    return assemble(READ_P1IN, name="readp1")


class TestMappingInputs:
    def test_constant_value_drives_port(self, circuit, program):
        runner = GateRunner(circuit, program, inputs={"P1IN": 0x2A})
        runner.run(max_cycles=60)
        assert runner.register(4).value == 0x2A

    def test_callable_value_drives_port(self, circuit, program):
        values = iter([0x17])
        runner = GateRunner(
            circuit, program, inputs={"P1IN": lambda: next(values)}
        )
        runner.run(max_cycles=60)
        assert runner.register(4).value == 0x17

    def test_unknown_port_name_fails_eagerly(self, circuit, program):
        with pytest.raises(ValueError) as excinfo:
            GateRunner(circuit, program, inputs={"P9IN": 1})
        message = str(excinfo.value)
        assert "P9IN" in message
        # the error lists the valid names so the fix is obvious
        for known in ("P1IN", "P3IN", "P5IN"):
            assert known in message

    def test_all_unknown_names_are_reported(self, circuit, program):
        with pytest.raises(ValueError) as excinfo:
            GateRunner(
                circuit, program, inputs={"P9IN": 1, "BOGUS": 2, "P1IN": 3}
            )
        message = str(excinfo.value)
        assert "BOGUS" in message and "P9IN" in message

    def test_partial_mapping_leaves_other_ports_alone(
        self, circuit, program
    ):
        # only P1IN is driven; P3IN/P5IN keep their default drivers
        runner = GateRunner(circuit, program, inputs={"P1IN": 5})
        runner.run(max_cycles=60)
        assert runner.register(4).value == 5


class TestCallableInputs:
    def test_callable_polled_per_port(self, circuit, program):
        runner = GateRunner(
            circuit, program, inputs=lambda port: {"P1IN": 0x33}.get(port, 0)
        )
        runner.run(max_cycles=60)
        assert runner.register(4).value == 0x33

    def test_lookup_error_names_the_port(self, circuit, program):
        runner = GateRunner(
            circuit, program, inputs=lambda port: {"P5IN": 1}[port]
        )
        with pytest.raises(ValueError, match="P1IN"):
            runner.run(max_cycles=60)

    def test_non_mapping_non_callable_rejected(self, circuit, program):
        with pytest.raises(TypeError):
            GateRunner(circuit, program, inputs=42)


class TestNamedReads:
    def test_net_name_index_is_built_on_the_first_named_read(
        self, circuit, program
    ):
        """A runner that never reads a register by name never indexes
        the netlist's net names; ``read_named`` builds the index once
        and reads through it."""
        plain = GateRunner(circuit, program, inputs={"P1IN": 0x2A})
        plain.run(max_cycles=60)
        assert plain._net_ids is None
        runner = GateRunner(circuit, program, inputs={"P1IN": 0x2A})
        runner.run(max_cycles=60)
        assert runner.read_named("rf/r4").value == 0x2A
        index = runner._net_ids
        assert index is not None
        assert runner.register(4).value == 0x2A
        assert runner._net_ids is index
