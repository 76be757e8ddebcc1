"""Instruction set definition.

The repro ISA is a small fixed-width RISC instruction set designed to be
easy to generate, emulate and fetch:

* every instruction is ``INSTRUCTION_BYTES`` (4) bytes long;
* 32 integer + 32 FP architectural registers (see :mod:`repro.isa.registers`);
* loads and stores move 8-byte words;
* control transfers carry their (absolute) target address once assembled,
  which keeps the fetch-unit models simple without changing any timing
  behaviour.

The class taxonomy (:class:`OpClass`) mirrors the functional-unit mix in
Table 1 of the paper: integer ALU, integer multiply, integer divide, FP
add, FP multiply, load, store, and the various flavours of control
transfer.
"""

from __future__ import annotations

import enum
from dataclasses import FrozenInstanceError
from typing import Dict, Optional, Tuple

from repro.isa.registers import LINK_REG, ZERO_REG, reg_name

#: Size of every instruction in bytes.  A 64-byte cache block therefore
#: holds 16 instructions, matching Table 1.
INSTRUCTION_BYTES = 4


class OpClass(enum.Enum):
    """Functional-unit class of an instruction."""

    IALU = "ialu"  # integer add/sub/logic/shift/compare
    IMUL = "imul"  # integer multiply
    IDIV = "idiv"  # integer divide
    FADD = "fadd"  # FP add/sub/compare/convert
    FMUL = "fmul"  # FP multiply/divide
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"  # conditional direct branch
    JUMP = "jump"  # unconditional direct jump
    CALL = "call"  # direct call (writes link register)
    IJUMP = "ijump"  # indirect jump (jr)
    ICALL = "icall"  # indirect call (jalr)
    RETURN = "return"  # function return (indirect via link register)
    NOP = "nop"
    HALT = "halt"


#: Classes that transfer control.
CONTROL_CLASSES = frozenset(
    {
        OpClass.BRANCH,
        OpClass.JUMP,
        OpClass.CALL,
        OpClass.IJUMP,
        OpClass.ICALL,
        OpClass.RETURN,
        OpClass.HALT,
    }
)

#: Control classes whose target cannot be determined from the static
#: instruction alone.
INDIRECT_CLASSES = frozenset({OpClass.IJUMP, OpClass.ICALL, OpClass.RETURN})


def _classify(op_class: OpClass) -> Tuple:
    """The classification of an instruction of *op_class*, in the slot
    order of :data:`CLASSIFICATION_FIELDS`.

    ``nop`` and ``halt`` are the only opcodes of their classes.
    """
    return (
        op_class,
        op_class in CONTROL_CLASSES,
        op_class is OpClass.BRANCH,
        op_class in INDIRECT_CLASSES,
        op_class in (OpClass.CALL, OpClass.ICALL),
        op_class is OpClass.RETURN,
        op_class is OpClass.NOP,
        op_class is OpClass.HALT,
        op_class is OpClass.LOAD,
        op_class is OpClass.STORE,
        op_class in (OpClass.LOAD, OpClass.STORE),
    )


#: The classification attributes of an :class:`Instruction`, in the
#: order of :attr:`Opcode.classification`.
CLASSIFICATION_FIELDS = ("op_class", "is_control", "is_cond_branch",
                         "is_indirect", "is_call", "is_return", "is_nop",
                         "is_halt", "is_load", "is_store", "is_mem")


class Opcode(enum.Enum):
    """Every opcode in the ISA.

    The value tuple is ``(mnemonic, op_class)``.
    """

    # Integer register-register.
    ADD = ("add", OpClass.IALU)
    SUB = ("sub", OpClass.IALU)
    AND = ("and", OpClass.IALU)
    OR = ("or", OpClass.IALU)
    XOR = ("xor", OpClass.IALU)
    SLL = ("sll", OpClass.IALU)
    SRL = ("srl", OpClass.IALU)
    SRA = ("sra", OpClass.IALU)
    SLT = ("slt", OpClass.IALU)
    SLTU = ("sltu", OpClass.IALU)
    MUL = ("mul", OpClass.IMUL)
    DIV = ("div", OpClass.IDIV)
    REM = ("rem", OpClass.IDIV)

    # Integer register-immediate.
    ADDI = ("addi", OpClass.IALU)
    ANDI = ("andi", OpClass.IALU)
    ORI = ("ori", OpClass.IALU)
    XORI = ("xori", OpClass.IALU)
    SLLI = ("slli", OpClass.IALU)
    SRLI = ("srli", OpClass.IALU)
    SLTI = ("slti", OpClass.IALU)
    LUI = ("lui", OpClass.IALU)

    # FP arithmetic (operates on the FP register file).
    FADD = ("fadd", OpClass.FADD)
    FSUB = ("fsub", OpClass.FADD)
    FCVT = ("fcvt", OpClass.FADD)  # int reg -> fp reg convert
    FMUL = ("fmul", OpClass.FMUL)
    FDIV = ("fdiv", OpClass.FMUL)

    # Memory.
    LD = ("ld", OpClass.LOAD)
    ST = ("st", OpClass.STORE)
    FLD = ("fld", OpClass.LOAD)
    FST = ("fst", OpClass.STORE)

    # Control.
    BEQ = ("beq", OpClass.BRANCH)
    BNE = ("bne", OpClass.BRANCH)
    BLT = ("blt", OpClass.BRANCH)
    BGE = ("bge", OpClass.BRANCH)
    J = ("j", OpClass.JUMP)
    JAL = ("jal", OpClass.CALL)
    JR = ("jr", OpClass.IJUMP)
    JALR = ("jalr", OpClass.ICALL)
    RET = ("ret", OpClass.RETURN)

    # Misc.
    NOP = ("nop", OpClass.NOP)
    HALT = ("halt", OpClass.HALT)
    OUT = ("out", OpClass.IALU)  # debug output of rs1; behaves as an ALU op

    def __init__(self, mnemonic: str, op_class: OpClass):
        self.mnemonic = mnemonic
        self.op_class = op_class
        #: The classification every :class:`Instruction` of this opcode
        #: carries, in the order of :data:`CLASSIFICATION_FIELDS`.
        self.classification = _classify(op_class)


#: Mnemonic -> Opcode lookup used by the assembler.
MNEMONIC_TO_OPCODE = {op.mnemonic: op for op in Opcode}


#: The constructor arguments of an :class:`Instruction`, in order; with
#: the classification and the dataflow view they are its fields.
ARGUMENT_FIELDS = ("opcode", "rd", "rs1", "rs2", "imm", "target", "addr")

#: Source-register tuple -> the one copy every instruction with those
#: sources shares (50 distinct tuples over the whole suite).  Process-wide
#: and never cleared: a key maps to an equal immutable tuple, so sharing
#: it between callers cannot change what any of them sees.
_SOURCES: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
_shared_sources = _SOURCES.setdefault
_new = object.__new__


class _InstructionSlots:
    """The storage of an :class:`Instruction`: one writable slot per
    field.  The constructor fills a fresh object of this class with
    plain slot stores, then makes it an ``Instruction``, whose fields
    cannot be assigned."""

    __slots__ = ARGUMENT_FIELDS + CLASSIFICATION_FIELDS + ("_srcs", "_dest")


class Instruction(_InstructionSlots):
    """A single static instruction.

    ``rd``/``rs1``/``rs2`` are architectural register indices (see
    :mod:`repro.isa.registers`); unused fields are ``None``.  ``imm`` holds
    the immediate operand; for direct control transfers ``target`` holds
    the absolute byte address of the destination once the program has been
    assembled/linked.  ``addr`` is the address the instruction was placed
    at (-1 until the assembler places it); it takes no part in equality.

    Classification (``op_class``, ``is_control``, ``is_load``, ...) and
    dataflow (``src_regs()``/``dest_reg()``) are **precomputed once** by
    the constructor and stored as plain slots: the timing model consults
    them millions of times per simulation, and a slot read is several
    times cheaper than property dispatch plus enum-membership hashing on
    that path.  Instructions are immutable: assigning or deleting a field
    raises ``FrozenInstanceError``.  Instructions with the same sources
    share one source tuple.
    """

    __slots__ = ()

    def __new__(cls, opcode: Optional[Opcode] = None,
                rd: Optional[int] = None, rs1: Optional[int] = None,
                rs2: Optional[int] = None, imm: int = 0,
                target: Optional[int] = None,
                addr: int = -1) -> "Instruction":
        if opcode is None:
            # Unpickling a bundle of the former format: __setstate__
            # fills the fields.
            return _new(cls)
        self = _new(_InstructionSlots)
        self.opcode = opcode
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm
        self.target = target
        self.addr = addr
        (self.op_class, self.is_control, self.is_cond_branch,
         self.is_indirect, is_call, is_return, self.is_nop, self.is_halt,
         self.is_load, self.is_store, self.is_mem) = opcode.classification
        self.is_call = is_call
        self.is_return = is_return
        if rs1 is None:
            srcs = () if rs2 is None else (rs2,)
        else:
            srcs = (rs1,) if rs2 is None else (rs1, rs2)
        if is_return:
            srcs += (LINK_REG,)
        self._srcs = _shared_sources(srcs, srcs)
        self._dest = LINK_REG if rd is None and is_call else rd
        self.__class__ = cls
        return self

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Pickled as its constructor arguments: a program loaded from a
        # stream bundle is rebuilt through the constructor, like an
        # assembled one.
        return (Instruction, (self.opcode, self.rd, self.rs1, self.rs2,
                              self.imm, self.target, self.addr))

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Bundles written before instructions pickled as their
        # constructor arguments hold each one as its former instance
        # dict, all 20 fields by name; rebuild from the arguments.
        built = Instruction(*[state[name] for name in ARGUMENT_FIELDS])
        for name in _InstructionSlots.__slots__:
            object.__setattr__(self, name, getattr(built, name))

    def _key(self) -> Tuple:
        return (self.opcode, self.rd, self.rs1, self.rs2, self.imm,
                self.target)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in ARGUMENT_FIELDS)
        return f"{type(self).__qualname__}({fields})"

    # -- dataflow --------------------------------------------------------

    def src_regs(self) -> Tuple[int, ...]:
        """Architectural registers read by this instruction.

        ``r0`` reads are included (they rename to the permanent zero
        mapping); callers that want "real" dependences can filter it out.
        """
        return self._srcs

    def dest_reg(self) -> Optional[int]:
        """Architectural register written, or ``None``.

        Writes to ``r0`` are discarded by the emulator but still reported
        here so that the rename stage sees the same operand pattern the
        hardware decoder would.
        """
        return self._dest

    @property
    def next_addr(self) -> int:
        """Address of the sequentially-next instruction."""
        return self.addr + INSTRUCTION_BYTES

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.opcode.mnemonic]
        operands = []
        if self.rd is not None:
            operands.append(reg_name(self.rd))
        if self.rs1 is not None:
            operands.append(reg_name(self.rs1))
        if self.rs2 is not None:
            operands.append(reg_name(self.rs2))
        if self.target is not None:
            operands.append(hex(self.target))
        elif self.imm:
            operands.append(str(self.imm))
        if operands:
            parts.append(", ".join(operands))
        return " ".join(parts)


def writes_zero_only(inst: Instruction) -> bool:
    """True if the instruction's only architectural effect is a write to
    ``r0`` (i.e. it is effectively a NOP for dataflow purposes)."""
    return inst.dest_reg() == ZERO_REG and not inst.is_control and not inst.is_mem
