"""Two-pass assembler for the repro ISA.

The assembly language is deliberately small but complete enough to write
real benchmark kernels:

.. code-block:: asm

        .text
    main:
        la   t0, arr          # pseudo: load address
        li   t1, 10           # pseudo: load immediate
    loop:
        ld   t2, 0(t0)
        add  s0, s0, t2
        addi t0, t0, 8
        addi t1, t1, -1
        bne  t1, zero, loop
        halt

        .data
    arr:
        .word 1, 2, 3, 4, 5, 6, 7, 8, 9, 10

Supported directives: ``.text``, ``.data``, ``.word`` (8-byte words),
``.space N`` (N bytes, zeroed), ``.align N`` (align to N bytes).
Comments start with ``#`` or ``;``.

Pseudo-instructions: ``li``, ``la``, ``mv``, ``call``, ``b``, ``bgt``,
``ble``, ``ret`` and ``nop`` (the last two are real opcodes but take no
operands).
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Sequence, Tuple

from repro.errors import AssemblerError
from repro.isa.instructions import (INSTRUCTION_BYTES, MNEMONIC_TO_OPCODE,
                                    Instruction, Opcode)
from repro.isa.program import DATA_BASE, TEXT_BASE, WORD_BYTES, Program
from repro.isa.registers import (LINK_REG, NUM_ARCH_REGS, REG_ALIASES,
                                 parse_reg, reg_name)

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_MEM_OPERAND_RE = re.compile(r"^(-?\w+)\((\w+)\)$")

#: Signed 16-bit immediate range for I-format instructions.
IMM_MIN, IMM_MAX = -(1 << 15), (1 << 15) - 1

#: Every register's usual spelling (``r7``, ``f3``, the aliases) -> its
#: architectural index.  Other spellings (``R7``, ``r07``) go through
#: :func:`parse_reg`, which also words the error for a non-register.
_REGISTERS = {**{reg_name(index): index for index in range(NUM_ARCH_REGS)},
              **REG_ALIASES}

#: One statement after pass 1: mnemonic, operands, line, address.
_Statement = Tuple[str, List[str], int, int]


def _parse_int(text: str, line: int) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise AssemblerError(f"bad integer literal {text!r}", line) from None


def _reg(token: str, line: int) -> int:
    index = _REGISTERS.get(token)
    if index is not None:
        return index
    try:
        return parse_reg(token)
    except ValueError as exc:
        raise AssemblerError(str(exc), line) from None


def _value(token: str, symbols: Dict[str, int], line: int) -> int:
    """A label's address or an integer literal."""
    value = symbols.get(token)
    return _parse_int(token, line) if value is None else value


def _mem(token: str, symbols: Dict[str, int], line: int) -> Tuple[int, int]:
    """Parse an ``imm(reg)`` memory operand to (base register, offset)."""
    match = _MEM_OPERAND_RE.match(token.replace(" ", ""))
    if not match:
        raise AssemblerError(f"bad memory operand {token!r}", line)
    offset_text, reg_text = match.groups()
    offset = _value(offset_text, symbols, line)
    if not IMM_MIN <= offset <= IMM_MAX:
        raise AssemblerError(f"memory offset {offset} out of range", line)
    return _reg(reg_text, line), offset


# -- encoders ------------------------------------------------------------
#
# ``encode(opcode, operands, symbols, line, addr)`` returns the
# statement's instructions, placed from *addr* on.  Operands are checked
# left to right in the order each form reads them, which fixes which
# error a statement with several bad operands reports.

Encoder = Callable[[Opcode, Sequence[str], Dict[str, int], int, int],
                   Tuple[Instruction, ...]]


def _bare(opcode, ops, symbols, line, addr):
    """``nop``, ``halt``."""
    return (Instruction(opcode, addr=addr),)


def _ret(opcode, ops, symbols, line, addr):
    return (Instruction(opcode, rs1=LINK_REG, addr=addr),)


def _source(opcode, ops, symbols, line, addr):
    """``out rs1``, ``jr rs1``."""
    return (Instruction(opcode, rs1=_reg(ops[0], line), addr=addr),)


def _lui(opcode, ops, symbols, line, addr):
    """``lui``: a zero-extended 16-bit upper half."""
    rd = _reg(ops[0], line)
    imm = _value(ops[1], symbols, line)
    if not 0 <= imm <= 0xFFFF:
        raise AssemblerError(
            f"lui immediate {imm} out of 0..65535 range", line)
    return (Instruction(opcode, rd=rd, imm=imm, addr=addr),)


def _logical(opcode, ops, symbols, line, addr):
    """``andi``/``ori``/``xori``: zero-extended 16-bit immediates."""
    rd, rs1 = _reg(ops[0], line), _reg(ops[1], line)
    imm = _value(ops[2], symbols, line)
    if not 0 <= imm <= 0xFFFF:
        raise AssemblerError(
            f"logical immediate {imm} out of 0..65535 range", line)
    return (Instruction(opcode, rd=rd, rs1=rs1, imm=imm, addr=addr),)


def _arith(opcode, ops, symbols, line, addr):
    """``addi``/``slli``/``srli``/``slti``: signed 16-bit immediates."""
    rd, rs1 = _reg(ops[0], line), _reg(ops[1], line)
    imm = _value(ops[2], symbols, line)
    if not IMM_MIN <= imm <= IMM_MAX:
        raise AssemblerError(
            f"immediate {imm} out of 16-bit range (use li/la)", line)
    return (Instruction(opcode, rd=rd, rs1=rs1, imm=imm, addr=addr),)


def _r3(opcode, ops, symbols, line, addr):
    return (Instruction(opcode, rd=_reg(ops[0], line),
                        rs1=_reg(ops[1], line), rs2=_reg(ops[2], line),
                        addr=addr),)


def _r2(opcode, ops, symbols, line, addr):
    """``fcvt rd, rs1``, ``mv rd, rs1`` (``addi rd, rs1, 0``), and
    ``jalr rd, rs1``."""
    return (Instruction(opcode, rd=_reg(ops[0], line),
                        rs1=_reg(ops[1], line), addr=addr),)


def _load(opcode, ops, symbols, line, addr):
    base, offset = _mem(ops[1], symbols, line)
    return (Instruction(opcode, rd=_reg(ops[0], line), rs1=base, imm=offset,
                        addr=addr),)


def _store(opcode, ops, symbols, line, addr):
    base, offset = _mem(ops[1], symbols, line)
    return (Instruction(opcode, rs1=base, rs2=_reg(ops[0], line), imm=offset,
                        addr=addr),)


def _branch(opcode, ops, symbols, line, addr):
    return (Instruction(opcode, rs1=_reg(ops[0], line),
                        rs2=_reg(ops[1], line),
                        target=_value(ops[2], symbols, line), addr=addr),)


def _swapped(opcode, ops, symbols, line, addr):
    """``bgt a, b, L`` is ``blt b, a, L``; ``ble a, b, L`` is
    ``bge b, a, L``."""
    return (Instruction(opcode, rs1=_reg(ops[1], line),
                        rs2=_reg(ops[0], line),
                        target=_value(ops[2], symbols, line), addr=addr),)


def _jump(opcode, ops, symbols, line, addr):
    """``j L``, ``b L``."""
    return (Instruction(opcode, target=_value(ops[0], symbols, line),
                        addr=addr),)


def _call(opcode, ops, symbols, line, addr):
    """``jal L``, ``call L``: link in ``ra``."""
    return (Instruction(opcode, rd=LINK_REG,
                        target=_value(ops[0], symbols, line), addr=addr),)


def _jal(opcode, ops, symbols, line, addr):
    return (Instruction(opcode, rd=_reg(ops[0], line),
                        target=_value(ops[1], symbols, line), addr=addr),)


def _jalr(opcode, ops, symbols, line, addr):
    """``jalr rs1``: link in ``ra``."""
    return (Instruction(opcode, rd=LINK_REG, rs1=_reg(ops[0], line),
                        addr=addr),)


def _wide(rd: int, value: int, line: int, addr: int):
    """``lui``/``ori`` loading the 32-bit *value* into *rd*."""
    if not 0 <= value < (1 << 32):
        raise AssemblerError(f"li/la value {value} out of 32-bit range",
                             line)
    return (Instruction(Opcode.LUI, rd=rd, imm=value >> 16, addr=addr),
            Instruction(Opcode.ORI, rd=rd, rs1=rd, imm=value & 0xFFFF,
                        addr=addr + INSTRUCTION_BYTES))


def _li(opcode, ops, symbols, line, addr):
    """``li rd, N``: one ``addi`` when N fits 16 bits, else ``lui``/``ori``
    (pass 1 sized it the same way)."""
    rd = _reg(ops[0], line)
    value = _parse_int(ops[1], line)
    if IMM_MIN <= value <= IMM_MAX:
        return (Instruction(Opcode.ADDI, rd=rd, rs1=0, imm=value, addr=addr),)
    return _wide(rd, value, line, addr)


def _la(opcode, ops, symbols, line, addr):
    """``la rd, L``: always ``lui``/``ori``."""
    return _wide(_reg(ops[0], line), _value(ops[1], symbols, line), line,
                 addr)


def _real(mnemonics: str, forms: Dict[int, Encoder]):
    """Table rows of the real opcodes named in *mnemonics*."""
    most = max(forms)
    return {mnemonic: (MNEMONIC_TO_OPCODE[mnemonic], forms,
                       f"{mnemonic} needs {most} operand(s), got {{}}")
            for mnemonic in mnemonics.split()}


def _pseudo(mnemonic: str, opcode: Opcode, count: int, encode: Encoder):
    """The table row of a pseudo-instruction."""
    plural = "s" if count > 1 else ""
    return {mnemonic: (opcode, {count: encode},
                       f"{mnemonic} needs {count} operand{plural}")}


#: Mnemonic -> (opcode, operand count -> encoder, operand-count error):
#: every real opcode and the seven pseudo-instructions (``li`` and
#: ``la`` pick their opcodes themselves).
ENCODERS = {
    **_real("add sub and or xor sll srl sra slt sltu mul div rem "
            "fadd fsub fmul fdiv", {3: _r3}),
    **_real("addi slli srli slti", {3: _arith}),
    **_real("andi ori xori", {3: _logical}),
    **_real("lui", {2: _lui}),
    **_real("fcvt", {2: _r2}),
    **_real("ld fld", {2: _load}),
    **_real("st fst", {2: _store}),
    **_real("beq bne blt bge", {3: _branch}),
    **_real("j", {1: _jump}),
    **_real("jal", {1: _call, 2: _jal}),
    **_real("jr out", {1: _source}),
    **_real("jalr", {1: _jalr, 2: _r2}),
    **_real("ret", {0: _ret}),
    **_real("nop halt", {0: _bare}),
    **_pseudo("li", Opcode.ADDI, 2, _li),
    **_pseudo("la", Opcode.LUI, 2, _la),
    **_pseudo("mv", Opcode.ADDI, 2, _r2),
    **_pseudo("call", Opcode.JAL, 1, _call),
    **_pseudo("b", Opcode.J, 1, _jump),
    **_pseudo("bgt", Opcode.BLT, 3, _swapped),
    **_pseudo("ble", Opcode.BGE, 3, _swapped),
}


class Assembler:
    """Assembles source text into a :class:`Program`."""

    def __init__(self, text_base: int = TEXT_BASE, data_base: int = DATA_BASE):
        self.text_base = text_base
        self.data_base = data_base

    # -- public API -------------------------------------------------------

    def assemble(self, source: str, name: str = "program") -> Program:
        """Assemble *source* and return the linked :class:`Program`."""
        statements, symbols, data, data_size = self._pass1(source)
        instructions = self._pass2(statements, symbols)
        return Program(
            instructions=instructions,
            text_base=self.text_base,
            data=data,
            data_base=self.data_base,
            data_size=data_size,
            symbols=symbols,
            name=name,
        )

    # -- pass 1: layout ----------------------------------------------------

    def _pass1(self, source: str) -> Tuple[List[_Statement], Dict[str, int],
                                           Dict[int, int], int]:
        statements: List[_Statement] = []
        symbols: Dict[str, int] = {}
        data: Dict[int, int] = {}
        # .word operands may reference labels defined later; collect the
        # raw tokens and resolve them once all symbols are known.
        data_tokens: List[Tuple[int, str, int]] = []
        in_text = True
        text_addr = self.text_base
        data_addr = self.data_base

        for lineno, raw in enumerate(source.splitlines(), start=1):
            line = raw.split("#")[0].split(";")[0].strip()
            while ":" in line:
                match = _LABEL_RE.match(line)
                if not match:
                    break
                label = match.group(1)
                if label in symbols:
                    raise AssemblerError(f"duplicate label {label!r}", lineno)
                symbols[label] = text_addr if in_text else data_addr
                line = line[match.end():].strip()
            if not line:
                continue

            parts = line.split(None, 1)
            mnemonic = parts[0].lower()
            rest = parts[1] if len(parts) > 1 else ""
            operands = [op.strip() for op in rest.split(",")] if rest else []

            if not mnemonic.startswith("."):
                if not in_text:
                    raise AssemblerError("instruction in data segment", lineno)
                statements.append((mnemonic, operands, lineno, text_addr))
                size = 1
                if mnemonic == "li":  # one addi, or lui + ori
                    if len(operands) != 2:
                        raise AssemblerError("li needs 2 operands", lineno)
                    value = _parse_int(operands[1], lineno)
                    size = 1 if IMM_MIN <= value <= IMM_MAX else 2
                elif mnemonic == "la":  # always lui + ori
                    size = 2
                text_addr += size * INSTRUCTION_BYTES
            elif mnemonic == ".text":
                in_text = True
            elif mnemonic == ".data":
                in_text = False
            elif mnemonic == ".word":
                if in_text:
                    raise AssemblerError(".word in text segment", lineno)
                for op in operands:
                    data_tokens.append((data_addr, op, lineno))
                    data_addr += WORD_BYTES
            elif mnemonic == ".space":
                if in_text:
                    raise AssemblerError(".space in text segment", lineno)
                if len(operands) != 1:
                    raise AssemblerError(".space needs 1 operand", lineno)
                size = _parse_int(operands[0], lineno)
                if size < 0:
                    raise AssemblerError("negative .space size", lineno)
                data_addr += size
            elif mnemonic == ".align":
                if len(operands) != 1:
                    raise AssemblerError(".align needs 1 operand", lineno)
                boundary = _parse_int(operands[0], lineno)
                if boundary <= 0 or boundary & (boundary - 1):
                    raise AssemblerError(".align needs a power of two", lineno)
                if in_text:
                    raise AssemblerError(".align in text segment", lineno)
                data_addr = (data_addr + boundary - 1) & ~(boundary - 1)
            else:
                raise AssemblerError(f"unknown directive {mnemonic!r}", lineno)

        for addr, token, lineno in data_tokens:
            data[addr] = _value(token, symbols, lineno)
        return statements, symbols, data, data_addr - self.data_base

    # -- pass 2: encode ------------------------------------------------------

    def _pass2(self, statements: List[_Statement],
               symbols: Dict[str, int]) -> List[Instruction]:
        instructions: List[Instruction] = []
        for mnemonic, operands, line, addr in statements:
            row = ENCODERS.get(mnemonic)
            if row is None:
                raise AssemblerError(f"unknown mnemonic {mnemonic!r}", line)
            opcode, forms, needs = row
            encode = forms.get(len(operands))
            if encode is None:
                raise AssemblerError(needs.format(len(operands)), line)
            instructions += encode(opcode, operands, symbols, line, addr)
        return instructions


def assemble(source: str, name: str = "program", **kwargs) -> Program:
    """Convenience wrapper: assemble *source* with default bases."""
    return Assembler(**kwargs).assemble(source, name=name)
