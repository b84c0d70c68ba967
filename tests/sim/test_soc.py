"""SoC-level integration tests: reset, ROM, events, snapshots."""

import pytest

from repro.cpu import compiled_cpu
from repro.isa.assembler import assemble
from repro.logic.ternary import ONE, ZERO
from repro.logic.words import TWord
from repro.netlist.builder import CircuitBuilder, Sig
from repro.sim.compiled import CompiledCircuit
from repro.sim.runner import GateRunner
from repro.sim.soc import Rom, SoC


@pytest.fixture(scope="module")
def circuit():
    return compiled_cpu()


class TestRom:
    def test_concrete_read(self):
        rom = Rom()
        rom.load(0x10, [0xDEAD, 0xBEEF])
        assert rom.read(TWord.const(0x10)).value == 0xDEAD
        assert rom.read(TWord.const(0x11)).value == 0xBEEF

    def test_tainted_code_words(self):
        rom = Rom()
        rom.load(0, [0x1234], tmask=0xFFFF)
        word = rom.read(TWord.const(0))
        assert word.value == 0x1234
        assert word.tmask == 0xFFFF

    def test_tainted_address_taints_fetch(self):
        rom = Rom()
        rom.load(0, [0x1234])
        word = rom.read(TWord.const(0, tmask=1))
        assert word.bits == 0x1234
        assert word.tmask == 0xFFFF

    def test_unknown_address_merges(self):
        rom = Rom()
        rom.load(0, [0xFF00, 0x00FF])
        word = rom.read(TWord(0, 1, 0, 16))  # address 0 or 1
        assert word.xmask == 0xFFFF  # the two words share no bits

    def test_unmatchable_pattern(self):
        rom = Rom(size=16)
        word = rom.read(TWord(0x8000, 0x00FF, 0, 16))
        assert word.xmask == 0xFFFF


class TestSoCBasics:
    def test_reset_lands_at_vector_zero(self, circuit):
        soc = SoC(circuit)
        soc.reset()
        assert soc.pc() == TWord.const(0)

    def test_reset_disarms_watchdog(self, circuit):
        soc = SoC(circuit)
        soc.space.watchdog.write_reg(
            soc.space.watchdog.address, TWord.const(0x5A03), (ONE, 0)
        )
        assert soc.space.watchdog.running
        soc.reset()
        assert not soc.space.watchdog.running

    def test_events_report_instruction_stream(self, circuit):
        program = assemble("mov #7, r4\nhalt")
        runner = GateRunner(circuit, program)
        events = runner.step()
        assert events.pc.value == 0
        assert events.instruction.value == program.word_at(0)

    def test_write_event_contains_footprint(self, circuit):
        program = assemble(
            "mov #0x200, r4\nmov #9, 0(r4)\nhalt"
        )
        runner = GateRunner(circuit, program)
        write = None
        for _ in range(20):
            events = runner.step()
            if events.write is not None:
                write = events.write
                break
        assert write is not None
        assert write.address.value == 0x200
        assert write.data.value == 9
        assert write.ram_match[0x200]
        assert write.ram_match.sum() == 1

    def test_snapshot_restore_roundtrip(self, circuit):
        program = assemble("mov #1, r4\nmov #2, r5\nhalt")
        runner = GateRunner(circuit, program)
        snapshot = runner.soc.snapshot()
        runner.run(max_cycles=30)
        assert runner.register(4).value == 1
        runner.soc.restore(snapshot)
        assert runner.soc.pc() == TWord.const(0)
        # replay reaches the same state
        runner.run(max_cycles=30)
        assert runner.register(4).value == 1
        assert runner.register(5).value == 2

    def test_force_pc(self, circuit):
        program = assemble("nop\nnop\ntarget:\nmov #9, r4\nhalt")
        runner = GateRunner(circuit, program)
        runner.soc.force_pc(program.labels["target"])
        runner.run(max_cycles=20)
        assert runner.register(4).value == 9

    def test_watchdog_por_resets_cpu(self, circuit):
        program = assemble(
            """
                mov #0x5a03, &WDTCTL
                mov #1, r4
            spin:
                jmp spin
            """
        )
        runner = GateRunner(circuit, program)
        for _ in range(80):
            events = runner.step()
            if events.reset[0] == ONE:
                break
        else:
            pytest.fail("watchdog POR never arrived")
        runner.step()
        assert runner.soc.pc().value in (0, 1)  # back at the vector


# ---------------------------------------------------------------------------
# Step order and the port contract, on toy SoC-shaped netlists
# ---------------------------------------------------------------------------
def _buffer(builder, sig):
    """One BUF gate per bit of *sig*."""
    outs = []
    for net in sig:
        out = builder.netlist.add_net()
        builder.netlist.add_gate("BUF", [net], out)
        outs.append(out)
    return Sig(outs)


def toy_soc(break_rule=None):
    """A SoC-shaped netlist whose next PC is the fetched word (so the
    ROM is a linked list), whose load address buffers the fetched word,
    whose load strobe is tied to 1, and whose ``data`` register latches
    the buffered load data.  *break_rule* wires one port against the
    contract: ``"pmem_addr"`` through a gate, ``"dmem_addr"`` or
    ``"dmem_ren"`` from ``dmem_rdata``."""
    b = CircuitBuilder("toy_soc")
    rst = b.input("rst", 1)[0]
    pmem_rdata = b.input("pmem_rdata", 16)
    dmem_rdata = b.input("dmem_rdata", 16)
    pc = b.reg("pc", 16)
    b.drive(pc, pmem_rdata, rst=rst)
    data = b.reg("data", 16)
    b.drive(data, _buffer(b, dmem_rdata))
    b.output(
        "pmem_addr", _buffer(b, pc.q) if break_rule == "pmem_addr" else pc.q
    )
    b.output("dmem_addr", _buffer(
        b, dmem_rdata if break_rule == "dmem_addr" else pmem_rdata
    ))
    b.output("dmem_ren", _buffer(b, Sig([
        dmem_rdata[0] if break_rule == "dmem_ren" else b.bit1()
    ])))
    b.output("dmem_wen", Sig([b.bit0()]))
    b.output("dmem_wdata", b.const(0, 16))
    return CompiledCircuit(b.build()), data


#: The toy ROM's linked list: the word at each address is the next one.
CHAIN = [0x0120, 0x0345, 0x0567, 0x0789, 0x0ABC]


class TestStepOrder:
    def test_load_address_comes_from_this_cycles_fetch(self):
        """The load address must be computed from the instruction word
        fetched in the same cycle, not from the previous cycle's codes
        on ``pmem_rdata``."""
        circuit, data = toy_soc()
        rom = Rom()
        rom.load(0, [CHAIN[0]])
        for here, after in zip(CHAIN, CHAIN[1:] + CHAIN[:1]):
            rom.load(here, [after])
        soc = SoC(circuit, rom=rom)
        for address in CHAIN:
            soc.space.ram.load(address, [address ^ 0x5A5A])
        soc.reset()
        reads = []
        for _ in range(2 * len(CHAIN)):
            events = soc.step()
            assert events.read is not None
            assert events.read.address == events.instruction
            assert events.read.data == TWord.const(
                events.instruction.bits ^ 0x5A5A
            )
            # The load data reached the register through its fanout.
            assert circuit.read_nets(soc.state, data.q) == events.read.data
            reads.append(events.read.address.bits)
        assert set(CHAIN) <= set(reads)


class TestPortContract:
    def test_toy_soc_meets_it(self):
        SoC(toy_soc()[0])

    @pytest.mark.parametrize(
        "port", ["pmem_addr", "dmem_addr", "dmem_ren"]
    )
    def test_broken_rule_names_the_port(self, port):
        circuit, _ = toy_soc(break_rule=port)
        with pytest.raises(ValueError, match=rf"^{port}\[0\]"):
            SoC(circuit)
        # A failed check is not remembered as passed.
        with pytest.raises(ValueError, match=port):
            SoC(circuit)
