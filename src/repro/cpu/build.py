"""Top-level elaboration of the gate-level LP430 CPU.

Wires the decoder, FSM, register file and ALU into the multi-cycle
datapath, exposing the SoC port contract documented in
:mod:`repro.sim.soc`.  The one structural invariant the SoC's two-pass
evaluation relies on -- memory-facing outputs never combinationally depend
on the same cycle's read-data inputs -- holds because:

* ``pmem_addr`` is the PC register's Q pins, verbatim;
* ``dmem_addr``/``dmem_wdata`` derive from registers (regfile, SEXT/DEXT,
  SADDR, SRCV, SP) and the *registered* IR; the live-instruction mux only
  selects fresh ``pmem_rdata`` during F, a phase in which ``dmem_ren`` and
  ``dmem_wen`` (pure functions of the registered phase bits) are 0.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from repro.cpu.alu import build_alu
from repro.cpu.control import begin_fsm, build_decode, finish_fsm
from repro.cpu.regfile import RegFileBuilder
from repro.netlist.builder import CircuitBuilder, Sig
from repro.netlist.netlist import Netlist
from repro.sim.compiled import CompiledCircuit

if TYPE_CHECKING:
    from repro.netlist.stats import NetlistStats


def build_cpu() -> Netlist:
    """Elaborate the LP430 to a flat gate-level netlist."""
    b = CircuitBuilder("lp430")
    rst = b.input("rst", 1)[0]
    pmem_rdata = b.input("pmem_rdata", 16)
    dmem_rdata = b.input("dmem_rdata", 16)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    pc = b.reg("pc", 16)
    sr = b.reg("sr", 16)
    ir = b.reg("ir", 16)
    sext_r = b.reg("sext", 16)
    dext_r = b.reg("dext", 16)
    srcv_r = b.reg("srcv", 16)
    dstv_r = b.reg("dstv", 16)
    saddr_r = b.reg("saddr", 16)

    fsm_regs: dict = {}
    ph = begin_fsm(b, fsm_regs)

    # The live instruction: freshly fetched during F, registered elsewhere.
    live_insn = b.mux(ph.f, ir.q, pmem_rdata)
    dec = build_decode(b, live_insn)
    finish_fsm(b, fsm_regs, ph, dec, rst)

    # ------------------------------------------------------------------
    # Register file and operand address math
    # ------------------------------------------------------------------
    # Two-phase: flip-flops first so read ports can feed the ALU; the
    # write port is connected once the ALU result exists.
    rf = RegFileBuilder(b, pc_q=pc.q, sr_q=sr.q)
    sp_q = rf.sp
    src_reg_val = rf.read(dec.src_reg)
    dst_reg_val = rf.read(dec.dst_reg)

    src_offset = b.mask(sext_r.q, dec.src_indexed)
    src_addr, _ = b.add(src_reg_val, src_offset)
    dst_addr, _ = b.add(dst_reg_val, dext_r.q)
    sp_minus_1, _ = b.add(sp_q, b.const(0xFFFF, 16))

    # ------------------------------------------------------------------
    # Operand selection and ALU
    # ------------------------------------------------------------------
    src_operand = b.mux(dec.src_is_reg, srcv_r.q, src_reg_val)
    dst_old_fmt1 = b.mux(dec.ad, dst_reg_val, dstv_r.q)
    dst_old = b.mux(dec.fmt2, dst_old_fmt1, src_operand)

    alu = build_alu(b, dec, src_operand, dst_old, carry_flag=sr.q[0])

    # ------------------------------------------------------------------
    # Register-file write port
    # ------------------------------------------------------------------
    push_or_call = b.or_bit(dec.is_push, dec.is_call)
    autoinc_wen = b.and_bit(ph.sl, dec.autoinc)
    e_wen = b.and_bit(
        ph.e, b.or_bit(dec.regfile_write_e, push_or_call)
    )
    rf_wen = b.or_bit(autoinc_wen, e_wen)
    waddr_e = b.mux(push_or_call, dec.dst_reg, b.const(1, 4))
    rf_waddr = b.mux(ph.sl, waddr_e, dec.src_reg)
    src_plus_1 = b.inc(src_reg_val)
    wdata_e = b.mux(push_or_call, alu.result, sp_minus_1)
    rf_wdata = b.mux(ph.sl, wdata_e, src_plus_1)
    rf.connect_write_port(rf_waddr, rf_wdata, rf_wen, rst)

    # ------------------------------------------------------------------
    # Status register
    # ------------------------------------------------------------------
    flagged = Sig(
        [
            alu.carry,
            alu.zero,
            alu.negative,
        ]
        + list(sr.q[3:8])
        + [alu.overflow]
        + list(sr.q[9:16])
    )
    sr_e = b.mux(dec.flags_en, sr.q, flagged)
    sr_e = b.mux(dec.sr_write_e, sr_e, alu.result)
    sr_next = b.mux(ph.e, sr.q, sr_e)
    b.drive(sr, sr_next, rst=rst)

    # ------------------------------------------------------------------
    # Program counter
    # ------------------------------------------------------------------
    pc_plus_1 = b.inc(pc.q)
    jump_target, _ = b.add(pc.q, dec.jump_offset)
    flag_c, flag_z, flag_n = sr.q[0], sr.q[1], sr.q[2]
    flag_v = sr.q[8]
    n_xor_v = b.xor_bit(flag_n, flag_v)
    cond_true = b.muxn(
        dec.cond,
        [
            Sig([b.not_bit(flag_z)]),  # jnz
            Sig([flag_z]),  # jz
            Sig([b.not_bit(flag_c)]),  # jnc
            Sig([flag_c]),  # jc
            Sig([flag_n]),  # jn
            Sig([b.not_bit(n_xor_v)]),  # jge
            Sig([n_xor_v]),  # jl
            Sig([b.bit1()]),  # jmp
        ],
    )[0]
    j_pc = b.mux(cond_true, pc.q, jump_target)
    e_pc = b.mux(dec.pc_write_e, pc.q, alu.result)
    e_pc = b.mux(dec.is_call, e_pc, src_operand)
    fetchy = b.or_bit(ph.f, ph.se, ph.de)
    pc_next = b.mux(fetchy, pc.q, pc_plus_1)
    pc_next = b.mux(ph.j, pc_next, j_pc)
    pc_next = b.mux(ph.e, pc_next, e_pc)
    pc_d = b.drive(pc, pc_next, rst=rst)

    # ------------------------------------------------------------------
    # Instruction-stream registers
    # ------------------------------------------------------------------
    b.drive(ir, pmem_rdata, en=ph.f, rst=rst)
    b.drive(sext_r, pmem_rdata, en=ph.se, rst=rst)
    b.drive(dext_r, pmem_rdata, en=ph.de, rst=rst)
    srcv_next = b.mux(ph.sl, pmem_rdata, dmem_rdata)
    b.drive(srcv_r, srcv_next, en=b.or_bit(ph.se, ph.sl), rst=rst)
    b.drive(saddr_r, src_addr, en=ph.sl, rst=rst)
    b.drive(dstv_r, dmem_rdata, en=ph.dl, rst=rst)

    # ------------------------------------------------------------------
    # Memory interface
    # ------------------------------------------------------------------
    fmt1_mem_write = b.and_bit(dec.writes_result, dec.ad)
    e_mem_addr = b.mux(dec.fmt2_mem_write, dst_addr, saddr_r.q)
    e_mem_addr = b.mux(push_or_call, e_mem_addr, sp_minus_1)
    dmem_addr = b.mux(ph.dl, e_mem_addr, dst_addr)
    dmem_addr = b.mux(ph.sl, dmem_addr, src_addr)
    dmem_ren = b.or_bit(ph.sl, ph.dl)
    dmem_wen = b.and_bit(
        ph.e,
        b.or_bit(fmt1_mem_write, dec.fmt2_mem_write, push_or_call),
    )
    dmem_wdata = b.mux(dec.is_call, alu.result, pc.q)
    dmem_wdata = b.mux(dec.is_push, dmem_wdata, src_operand)

    # ------------------------------------------------------------------
    # Ports
    # ------------------------------------------------------------------
    b.output("pmem_addr", pc.q)
    b.output("dmem_addr", dmem_addr)
    b.output("dmem_wdata", dmem_wdata)
    b.output("dmem_wen", Sig([dmem_wen]))
    b.output("dmem_ren", Sig([dmem_ren]))
    b.output("dbg_pc", pc.q)
    b.output("dbg_pc_next", pc_d)
    b.output("dbg_ir", ir.q)
    b.output("dbg_sr", sr.q)
    b.output(
        "dbg_phase",
        Sig([ph.f, ph.se, ph.sl, ph.de, ph.dl, ph.e, ph.j]),
    )

    return b.build()


@lru_cache(maxsize=1)
def compiled_cpu() -> CompiledCircuit:
    """The compiled LP430 (cached -- elaboration takes a moment)."""
    return CompiledCircuit(build_cpu())


def cpu_stats() -> NetlistStats:
    """Synthesis-report style statistics for the LP430 netlist."""
    from repro.netlist.stats import netlist_stats

    return netlist_stats(build_cpu())
