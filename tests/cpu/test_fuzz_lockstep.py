"""Random-program lockstep fuzzing: gate-level LP430 vs golden model.

Hypothesis generates random (but well-formed, terminating) programs from
a broad instruction mix; each runs to completion on the compiled netlist
and on the architectural simulator, and the final architectural state --
every register, the flags, the touched memory -- must agree.

A second property checks the *symbolic* relationship: with unknown
(untainted) port inputs, the gate-level result must cover the golden
model's (gate composition may be more conservative, never less).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cpu import compiled_cpu
from repro.isa.assembler import assemble
from repro.isasim.executor import Executor
from repro.sim.runner import GateRunner

SCRATCH_BASE = 0x0200  # 16-word scratch array the fuzz programs may touch

TWO_OP = ["mov", "add", "addc", "sub", "cmp", "bit", "bic", "bis", "xor", "and"]
ONE_OP = ["rra", "rrc", "swpb"]
REGS = [f"r{i}" for i in range(4, 12)]


@st.composite
def random_program(draw):
    lines = [
        "    mov #0x0FFE, sp",
        f"    mov #{SCRATCH_BASE}, r12",  # scratch pointer, kept valid
    ]
    # seed the data registers
    for reg in REGS:
        lines.append(f"    mov #{draw(st.integers(0, 0xFFFF))}, {reg}")

    body_len = draw(st.integers(3, 14))
    for _ in range(body_len):
        kind = draw(st.sampled_from(["two", "one", "store", "load", "stack"]))
        if kind == "two":
            op = draw(st.sampled_from(TWO_OP))
            src = draw(
                st.one_of(
                    st.sampled_from(REGS),
                    st.integers(0, 0xFFFF).map(lambda v: f"#{v}"),
                )
            )
            dst = draw(st.sampled_from(REGS))
            lines.append(f"    {op} {src}, {dst}")
        elif kind == "one":
            op = draw(st.sampled_from(ONE_OP))
            lines.append(f"    {op} {draw(st.sampled_from(REGS))}")
        elif kind == "store":
            offset = draw(st.integers(0, 15))
            src = draw(st.sampled_from(REGS))
            lines.append(f"    mov {src}, {offset}(r12)")
        elif kind == "load":
            offset = draw(st.integers(0, 15))
            dst = draw(st.sampled_from(REGS))
            mode = draw(st.sampled_from(["indexed", "indirect"]))
            if mode == "indexed":
                lines.append(f"    mov {offset}(r12), {dst}")
            else:
                lines.append(f"    mov @r12, {dst}")
        else:  # stack
            reg = draw(st.sampled_from(REGS))
            lines.append(f"    push {reg}")
            lines.append(f"    pop {draw(st.sampled_from(REGS))}")

    # an optional counted loop over a tail of simple ops
    if draw(st.booleans()):
        count = draw(st.integers(1, 4))
        lines.append(f"    mov #{count}, r13")
        lines.append("fuzz_loop:")
        lines.append(
            f"    add {draw(st.sampled_from(REGS))}, "
            f"{draw(st.sampled_from(REGS))}"
        )
        lines.append("    dec r13")
        lines.append("    jnz fuzz_loop")
    lines.append("    halt")
    # initialise the scratch array so loads are deterministic
    lines.append(f".data {SCRATCH_BASE}")
    values = ", ".join(
        str(draw(st.integers(0, 0xFFFF))) for _ in range(16)
    )
    lines.append(f"    .word {values}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def circuit():
    return compiled_cpu()


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(source=random_program())
def test_concrete_lockstep(source):
    program = assemble(source, name="fuzz")
    circuit = compiled_cpu()

    gate = GateRunner(circuit, program)
    gate_cycles = gate.run(max_cycles=5_000)
    assert gate.at_halt(), "gate-level run never halted"

    isa = Executor(program)
    steps = 0
    while not isa.halted and steps < 5_000:
        isa.step()
        steps += 1
    assert isa.halted, "golden run never halted"

    for index in list(range(4, 14)) + [1]:
        gate_word = gate.register(index)
        isa_word = isa.state.read(index)
        assert gate_word.is_concrete and isa_word.is_concrete
        assert gate_word.value == isa_word.value, (
            f"r{index}: gate 0x{gate_word.value:04x} vs "
            f"isa 0x{isa_word.value:04x}\n{source}"
        )
    # flags (masking the reserved bits)
    from repro.isa.spec import FLAG_MASK

    gate_sr = gate.soc.read_debug("dbg_sr").value & FLAG_MASK
    isa_sr = isa.state.sr.value & FLAG_MASK
    assert gate_sr == isa_sr, f"SR: {gate_sr:#x} vs {isa_sr:#x}\n{source}"
    # scratch memory
    for offset in range(16):
        gate_mem = gate.soc.space.ram.get(SCRATCH_BASE + offset)
        isa_mem = isa.space.ram.get(SCRATCH_BASE + offset)
        assert gate_mem.value == isa_mem.value, (
            f"mem[{offset}]: {gate_mem.value:#x} vs {isa_mem.value:#x}"
            f"\n{source}"
        )


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(source=random_program())
def test_concrete_lockstep_through_pickled_handoffs(source):
    """Lockstep oracle through checkpoint hand-offs: the gate-level run
    is sliced into segments and the SoC snapshot is round-tripped
    through pickle between slices -- what a checkpoint save and resume
    does to a worklist state.  Serialization must be invisible to the
    architectural result."""
    import pickle

    program = assemble(source, name="fuzz")
    circuit = compiled_cpu()

    gate = GateRunner(circuit, program)
    cycles = 0
    while not gate.at_halt() and cycles < 5_000:
        # a deliberately odd slice length so hand-offs land at arbitrary
        # FSM phases, not just instruction boundaries
        for _ in range(97):
            if gate.at_halt() or cycles >= 5_000:
                break
            gate.soc.step()
            cycles += 1
        state = pickle.loads(pickle.dumps(gate.soc.snapshot()))
        gate.soc.restore(state)
    assert gate.at_halt(), "gate-level run never halted"

    isa = Executor(program)
    steps = 0
    while not isa.halted and steps < 5_000:
        isa.step()
        steps += 1
    assert isa.halted, "golden run never halted"

    for index in list(range(4, 14)) + [1]:
        gate_word = gate.register(index)
        isa_word = isa.state.read(index)
        assert gate_word.is_concrete and isa_word.is_concrete
        assert gate_word.value == isa_word.value, (
            f"r{index}: gate 0x{gate_word.value:04x} vs "
            f"isa 0x{isa_word.value:04x}\n{source}"
        )
    from repro.isa.spec import FLAG_MASK

    gate_sr = gate.soc.read_debug("dbg_sr").value & FLAG_MASK
    isa_sr = isa.state.sr.value & FLAG_MASK
    assert gate_sr == isa_sr, f"SR: {gate_sr:#x} vs {isa_sr:#x}\n{source}"
    for offset in range(16):
        gate_mem = gate.soc.space.ram.get(SCRATCH_BASE + offset)
        isa_mem = isa.space.ram.get(SCRATCH_BASE + offset)
        assert gate_mem.value == isa_mem.value, (
            f"mem[{offset}]: {gate_mem.value:#x} vs {isa_mem.value:#x}"
            f"\n{source}"
        )


@st.composite
def symbolic_program(draw):
    """Branch-free programs mixing unknown port data into computation."""
    lines = ["    mov #0x0FFE, sp", "    mov &P3IN, r4", "    mov &P3IN, r5"]
    for reg in ("r6", "r7", "r8"):
        lines.append(f"    mov #{draw(st.integers(0, 0xFFFF))}, {reg}")
    for _ in range(draw(st.integers(2, 10))):
        op = draw(st.sampled_from(TWO_OP))
        src = draw(st.sampled_from(["r4", "r5", "r6", "r7", "r8"]))
        dst = draw(st.sampled_from(["r4", "r5", "r6", "r7", "r8"]))
        lines.append(f"    {op} {src}, {dst}")
    lines.append("    halt")
    return "\n".join(lines) + "\n"


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(source=symbolic_program())
def test_symbolic_gate_covers_golden(source):
    program = assemble(source, name="symfuzz")
    circuit = compiled_cpu()

    gate = GateRunner(circuit, program)
    gate.run(max_cycles=2_000)
    assert gate.at_halt()

    isa = Executor(program)
    steps = 0
    while not isa.halted and steps < 2_000:
        isa.step()
        steps += 1
    assert isa.halted

    for index in range(4, 9):
        gate_word = gate.register(index)
        isa_word = isa.state.read(index)
        assert gate_word.covers(isa_word), (
            f"r{index}: gate {gate_word!r} does not cover "
            f"golden {isa_word!r}\n{source}"
        )
