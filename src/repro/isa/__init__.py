"""The LP430 instruction set: an openMSP430-inspired 16-bit ISA.

* :mod:`repro.isa.spec`      -- registers, formats, opcodes, flags, timing.
* :mod:`repro.isa.encode`    -- instruction <-> machine-word codec.
* :mod:`repro.isa.assembler` -- two-pass assembler with labels, sections,
  task/partition directives and debug info (the paper's Figure 11 compile
  flow front end).
* :mod:`repro.isa.disasm`    -- disassembler (the ``objdump`` stage).
* :mod:`repro.isa.program`   -- the loadable system binary plus metadata.
"""

from repro import lazy_exports
from repro.isa.encode import (
    DecodedInstruction,
    EncodeError,
    Operand,
    decode,
    encode,
)

#: Each re-exported name and the submodule it is imported from on first
#: use (see :func:`repro.lazy_exports`): an analysis never loads the
#: disassembler.  ``encode`` is imported eagerly because it is also a
#: submodule's name, which importing that submodule would bind here
#: instead.
__getattr__, __dir__ = lazy_exports(__name__, {
    "COND": "spec",
    "FLAG_C": "spec",
    "FLAG_N": "spec",
    "FLAG_V": "spec",
    "FLAG_Z": "spec",
    "FORMAT_I_OPCODES": "spec",
    "FORMAT_II_OPCODES": "spec",
    "JUMP_MNEMONICS": "spec",
    "MODE_INDEXED": "spec",
    "MODE_INDIRECT": "spec",
    "MODE_INDIRECT_INC": "spec",
    "MODE_REGISTER": "spec",
    "PC": "spec",
    "SP": "spec",
    "SR": "spec",
    "CG": "spec",
    "AssemblyError": "assembler",
    "assemble": "assembler",
    "disassemble_program": "disasm",
    "disassemble_word": "disasm",
    "Program": "program",
    "SourceLine": "program",
    "TaskInfo": "program",
})

__all__ = [
    "PC",
    "SP",
    "SR",
    "CG",
    "FLAG_C",
    "FLAG_Z",
    "FLAG_N",
    "FLAG_V",
    "MODE_REGISTER",
    "MODE_INDEXED",
    "MODE_INDIRECT",
    "MODE_INDIRECT_INC",
    "FORMAT_I_OPCODES",
    "FORMAT_II_OPCODES",
    "JUMP_MNEMONICS",
    "COND",
    "Operand",
    "DecodedInstruction",
    "EncodeError",
    "encode",
    "decode",
    "assemble",
    "AssemblyError",
    "Program",
    "TaskInfo",
    "SourceLine",
    "disassemble_word",
    "disassemble_program",
]
