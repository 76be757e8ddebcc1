"""Functional emulator for the repro ISA.

The emulator executes a :class:`~repro.isa.program.Program` at the
architectural level only — no timing.  Its job is to produce the *oracle
dynamic instruction stream* that drives and checks the timing model, the
same role the functional layer of SimpleScalar's ``sim-outorder`` plays.

Each static instruction is decoded once.  The first time a PC executes,
the machine builds a *handler* for the instruction there: a closure with
its source registers, masked immediate, destination and successor PCs
already bound, kept in the machine's ``pc -> handler`` table.  A handler
applies the instruction's architectural update and returns
``(next_pc, taken, ea)``.  :meth:`Machine.run` keeps only that triple
per instruction (each PC is the previous one's ``next_pc``) and builds
the dynamic records in one bulk pass at the end
(:func:`~repro.emulator.stream.build_records`).

Arithmetic is 64-bit two's complement.  FP registers hold Python floats;
the integer benchmarks the paper evaluates barely touch them, so bit-exact
IEEE behaviour is not required.
"""

from __future__ import annotations

import operator
import weakref
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import EmulationError
from repro.emulator.stream import (
    DynamicInstruction,
    ExecutionResult,
    build_records,
    gc_paused,
)
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import STACK_BASE, WORD_BYTES, Program
from repro.isa.registers import (
    GLOBAL_REG,
    NUM_ARCH_REGS,
    STACK_REG,
    ZERO_REG,
)

_MASK64 = (1 << 64) - 1
_SIGN_BIT = 1 << 63

#: What a handler returns: ``(next_pc, taken, ea)``.
Outcome = Tuple[int, bool, Optional[int]]
Handler = Callable[[], Outcome]


def to_signed(value: int) -> int:
    """Interpret a 64-bit value as signed."""
    value &= _MASK64
    return value - (1 << 64) if value & _SIGN_BIT else value


def to_unsigned(value: int) -> int:
    """Wrap a Python int into the 64-bit unsigned range."""
    return value & _MASK64


class Machine:
    """Architectural machine state plus instruction semantics.

    Handlers bind ``regs``, ``memory`` and ``outputs`` when they are
    built: change those in place, never rebind them.
    """

    def __init__(self, program: Program):
        self.program = program
        self.regs: List = [0] * NUM_ARCH_REGS
        #: Sparse word-addressed memory: {aligned byte address: value}.
        self.memory: Dict[int, object] = dict(program.data)
        self.pc = program.entry
        self.halted = False
        self.outputs: List[int] = []
        self.instructions_executed = 0
        # Software conventions the workload generator relies on.
        self.regs[STACK_REG] = STACK_BASE
        self.regs[GLOBAL_REG] = program.data_base
        #: pc -> handler, filled the first time each PC executes.
        self._handlers: Dict[int, Handler] = {}

    # -- execution -----------------------------------------------------------

    def step(self) -> DynamicInstruction:
        """Execute one instruction; return its dynamic record."""
        if self.halted:
            raise EmulationError("machine is halted")
        return self.run(1).stream[0]

    def run(self, max_instructions: int) -> ExecutionResult:
        """Execute up to *max_instructions*; return the dynamic stream.

        Stops early if the program executes a ``halt``.  Programs used for
        experiments typically loop far longer than any simulation length,
        so truncation (not halting) is the normal outcome.  Runs with the
        cyclic collector paused (:func:`~repro.emulator.stream.gc_paused`).

        Records are numbered on from the instructions already executed.
        When an instruction raises, the machine is left as it was before
        that instruction: ``pc`` names it and it is not counted.
        """
        handlers = self._handlers
        decode = self._decode
        outcomes: List[Outcome] = []
        add = outcomes.append
        pc = start = self.pc
        first = self.instructions_executed
        with gc_paused():
            try:
                for _ in range(max_instructions):
                    if self.halted:
                        break
                    outcome = (handlers.get(pc) or decode(pc))()
                    add(outcome)
                    pc = outcome[0]
            finally:
                self.pc = pc
                self.instructions_executed = first + len(outcomes)
            next_pcs, taken, eas = zip(*outcomes) if outcomes else ((),) * 3
            # Each instruction starts where the one before it went.
            pcs = ((start,) + next_pcs)[:len(next_pcs)]
            stream = build_records(self.program, first, pcs, next_pcs,
                                   taken, eas)
        return ExecutionResult(stream, list(self.outputs), self.halted)

    def _decode(self, pc: int) -> Handler:
        """Build and table the handler for the instruction at *pc*.

        Raises :class:`~repro.errors.ReproError` when *pc* lies outside
        the text segment.
        """
        inst = self.program.inst_at(pc)
        handler = _BUILDERS[inst.opcode](self, inst, pc)
        self._handlers[pc] = handler
        return handler


# -- handler builders ---------------------------------------------------------
#
# A builder takes ``(machine, inst, pc)`` and returns the handler for that
# one static instruction.  Operands are bound here, once; the handler body
# is only the architectural update.  Most builders are parameterised by a
# value or test function that holds the opcode's arithmetic.


def _destination(machine: Machine, inst: Instruction) -> Tuple[List, int]:
    """Where a handler stores its result: ``(register list, index)``.

    Instructions without a destination, or writing ``r0``, still compute
    their value (so it raises as it would), into a private scratch slot.
    """
    dest = inst.dest_reg()
    if dest is None or dest == ZERO_REG:
        return [None], 0
    return machine.regs, dest


def _fall_through(pc: int) -> Outcome:
    return (pc + 4, False, None)


def _taken(inst: Instruction, pc: int) -> Outcome:
    """Outcome of a taken direct transfer: its target, or the next PC
    when it has none."""
    target = inst.target
    return (pc + 4 if target is None else target, True, None)


def _register(value: Callable) -> Callable:
    """Builder for ``rd = value(rs1, rs2)``."""
    def build(machine: Machine, inst: Instruction, pc: int) -> Handler:
        regs = machine.regs
        dest, rd = _destination(machine, inst)
        rs1, rs2, out = inst.rs1, inst.rs2, _fall_through(pc)

        def handler() -> Outcome:
            dest[rd] = value(regs[rs1], regs[rs2])
            return out
        return handler
    return build


def _immediate(value: Callable, mask: Optional[int] = None) -> Callable:
    """Builder for ``rd = value(rs1, imm)``, *imm* masked by *mask*."""
    def build(machine: Machine, inst: Instruction, pc: int) -> Handler:
        regs = machine.regs
        dest, rd = _destination(machine, inst)
        imm = inst.imm if mask is None else inst.imm & mask
        rs1, out = inst.rs1, _fall_through(pc)

        def handler() -> Outcome:
            dest[rd] = value(regs[rs1], imm)
            return out
        return handler
    return build


def _lui(machine: Machine, inst: Instruction, pc: int) -> Handler:
    dest, rd = _destination(machine, inst)
    value, out = (inst.imm & 0xFFFF) << 16, _fall_through(pc)

    def handler() -> Outcome:
        dest[rd] = value
        return out
    return handler


def _unaligned(kind: str, ea: int, pc: int) -> EmulationError:
    return EmulationError(f"unaligned {kind} at {ea:#x} (pc={pc:#x})")


def _load(convert: Callable) -> Callable:
    """Builder for ``rd = convert(mem[rs1 + imm])``."""
    def build(machine: Machine, inst: Instruction, pc: int) -> Handler:
        regs, memory = machine.regs, machine.memory
        dest, rd = _destination(machine, inst)
        rs1, imm, fall = inst.rs1, inst.imm, pc + 4

        def handler() -> Outcome:
            ea = (regs[rs1] + imm) & _MASK64
            if ea % WORD_BYTES:
                raise _unaligned("load", ea, pc)
            dest[rd] = convert(memory.get(ea, 0))
            return (fall, False, ea)
        return handler
    return build


def _store(convert: Callable) -> Callable:
    """Builder for ``mem[rs1 + imm] = convert(rs2)``."""
    def build(machine: Machine, inst: Instruction, pc: int) -> Handler:
        regs, memory = machine.regs, machine.memory
        rs1, rs2, imm, fall = inst.rs1, inst.rs2, inst.imm, pc + 4

        def handler() -> Outcome:
            ea = (regs[rs1] + imm) & _MASK64
            value = convert(regs[rs2])
            if ea % WORD_BYTES:
                raise _unaligned("store", ea, pc)
            memory[ea] = value
            return (fall, False, ea)
        return handler
    return build


def _branch(test: Callable) -> Callable:
    """Builder for a conditional branch taken when ``test(rs1, rs2)``."""
    def build(machine: Machine, inst: Instruction, pc: int) -> Handler:
        regs = machine.regs
        rs1, rs2 = inst.rs1, inst.rs2
        taken, fall = _taken(inst, pc), _fall_through(pc)

        def handler() -> Outcome:
            return taken if test(regs[rs1], regs[rs2]) else fall
        return handler
    return build


def _link(machine: Machine, inst: Instruction) -> Tuple[List, int]:
    """Where a jump stores its return address: calls (``jal``, ``jalr``)
    link like any destination, other jumps into a scratch slot."""
    return _destination(machine, inst) if inst.is_call else ([None], 0)


def _jump(machine: Machine, inst: Instruction, pc: int) -> Handler:
    """``j``/``jal``: go to the target (``jal`` links)."""
    dest, rd = _link(machine, inst)
    link, out = pc + 4, _taken(inst, pc)

    def handler() -> Outcome:
        dest[rd] = link
        return out
    return handler


def _indirect(machine: Machine, inst: Instruction, pc: int) -> Handler:
    """``jr``/``ret``/``jalr``: jump to ``rs1`` (``jalr`` links)."""
    regs = machine.regs
    dest, rd = _link(machine, inst)
    rs1, target, link = inst.rs1, inst.target, pc + 4

    def handler() -> Outcome:
        next_pc = regs[rs1] & _MASK64
        dest[rd] = link
        return (next_pc if target is None else target, True, None)
    return handler


def _nop(machine: Machine, inst: Instruction, pc: int) -> Handler:
    out = _fall_through(pc)

    def handler() -> Outcome:
        return out
    return handler


def _halt(machine: Machine, inst: Instruction, pc: int) -> Handler:
    # A weak reference: the handler table must not point back at its
    # machine, or dropping the machine would leave a reference cycle
    # for the (often paused) cyclic collector.
    owner, out = weakref.ref(machine), _fall_through(pc)

    def handler() -> Outcome:
        owner().halted = True
        return out
    return handler


def _out(machine: Machine, inst: Instruction, pc: int) -> Handler:
    regs, outputs = machine.regs, machine.outputs
    rs1, out = inst.rs1, _fall_through(pc)

    def handler() -> Outcome:
        outputs.append(to_signed(regs[rs1]))
        return out
    return handler


def _div(a, b) -> int:
    divisor = to_signed(b)
    if divisor == 0:
        return _MASK64  # RISC-V convention: div by zero -> -1
    quotient = abs(to_signed(a)) // abs(divisor)
    if (to_signed(a) < 0) != (divisor < 0):
        quotient = -quotient
    return to_unsigned(quotient)


def _rem(a, b):
    divisor = to_signed(b)
    if divisor == 0:
        return a
    dividend = to_signed(a)
    quotient = abs(dividend) // abs(divisor)
    if (dividend < 0) != (divisor < 0):
        quotient = -quotient
    return to_unsigned(dividend - quotient * divisor)


def _fdiv(a, b) -> float:
    divisor = float(b)
    return float(a) / divisor if divisor else 0.0


def _int_word(value):
    # Integer view of an FP-stored word: truncate (the model stores
    # numbers, not bit patterns; see module docstring).
    return to_unsigned(int(value)) if isinstance(value, float) else value


def _float_word(value) -> float:
    return float(to_signed(value) if isinstance(value, int) else value)


_BUILDERS: Dict[Opcode, Callable[[Machine, Instruction, int], Handler]] = {
    Opcode.ADD: _register(lambda a, b: (a + b) & _MASK64),
    Opcode.SUB: _register(lambda a, b: (a - b) & _MASK64),
    Opcode.AND: _register(operator.and_),
    Opcode.OR: _register(operator.or_),
    Opcode.XOR: _register(operator.xor),
    Opcode.SLL: _register(lambda a, b: to_unsigned(a << (b & 63))),
    Opcode.SRL: _register(lambda a, b: to_unsigned(a) >> (b & 63)),
    Opcode.SRA: _register(lambda a, b: to_unsigned(to_signed(a) >> (b & 63))),
    Opcode.SLT: _register(lambda a, b: int(to_signed(a) < to_signed(b))),
    Opcode.SLTU: _register(lambda a, b: int(to_unsigned(a)
                                            < to_unsigned(b))),
    Opcode.MUL: _register(lambda a, b: to_unsigned(to_signed(a)
                                                   * to_signed(b))),
    Opcode.DIV: _register(_div),
    Opcode.REM: _register(_rem),
    Opcode.ADDI: _immediate(lambda a, imm: (a + imm) & _MASK64),
    Opcode.ANDI: _immediate(operator.and_, 0xFFFF),
    Opcode.ORI: _immediate(operator.or_, 0xFFFF),
    Opcode.XORI: _immediate(operator.xor, 0xFFFF),
    Opcode.SLLI: _immediate(lambda a, shift: (a << shift) & _MASK64, 63),
    Opcode.SRLI: _immediate(lambda a, shift: (a & _MASK64) >> shift, 63),
    Opcode.SLTI: _immediate(lambda a, imm: int(to_signed(a) < imm)),
    Opcode.LUI: _lui,
    Opcode.FADD: _register(lambda a, b: float(a) + float(b)),
    Opcode.FSUB: _register(lambda a, b: float(a) - float(b)),
    Opcode.FCVT: _immediate(lambda a, imm: float(to_signed(a))),
    Opcode.FMUL: _register(lambda a, b: float(a) * float(b)),
    Opcode.FDIV: _register(_fdiv),
    Opcode.LD: _load(_int_word),
    Opcode.ST: _store(lambda value: value),
    Opcode.FLD: _load(_float_word),
    Opcode.FST: _store(float),
    Opcode.BEQ: _branch(operator.eq),
    Opcode.BNE: _branch(operator.ne),
    Opcode.BLT: _branch(lambda a, b: to_signed(a) < to_signed(b)),
    Opcode.BGE: _branch(lambda a, b: to_signed(a) >= to_signed(b)),
    Opcode.J: _jump,
    Opcode.JAL: _jump,
    Opcode.JR: _indirect,
    Opcode.JALR: _indirect,
    Opcode.RET: _indirect,
    Opcode.NOP: _nop,
    Opcode.HALT: _halt,
    Opcode.OUT: _out,
}


def execute(program: Program, max_instructions: int = 1_000_000) -> ExecutionResult:
    """Run *program* functionally and return its dynamic stream."""
    return Machine(program).run(max_instructions)
