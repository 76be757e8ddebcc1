"""The reference emulator: one ``if/elif`` opcode chain per instruction.

This is the straightforward emulator :class:`repro.emulator.machine.Machine`
replaced.  It decodes the instruction at the PC every time it executes
it and builds each record as it goes, which makes it slow but easy to
read against the ISA.  ``tests/test_emulator_reference.py`` checks that
the handler-table machine produces the same records, outputs, halted
flag, final state and errors on every opcode.
"""

from typing import Dict, List, Optional

from repro.emulator.machine import to_signed, to_unsigned
from repro.emulator.stream import DynamicInstruction, ExecutionResult
from repro.errors import EmulationError
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import STACK_BASE, WORD_BYTES, Program
from repro.isa.registers import GLOBAL_REG, NUM_ARCH_REGS, STACK_REG, ZERO_REG

_MASK64 = (1 << 64) - 1


class ReferenceMachine:
    """Architectural state plus the opcode chain."""

    def __init__(self, program: Program):
        self.program = program
        self.regs: List = [0] * NUM_ARCH_REGS
        self.memory: Dict[int, object] = dict(program.data)
        self.pc = program.entry
        self.halted = False
        self.outputs: List[int] = []
        self.instructions_executed = 0
        self.regs[STACK_REG] = STACK_BASE
        self.regs[GLOBAL_REG] = program.data_base

    def load_word(self, addr: int):
        if addr % WORD_BYTES:
            raise EmulationError(f"unaligned load at {addr:#x} "
                                 f"(pc={self.pc:#x})")
        return self.memory.get(addr, 0)

    def store_word(self, addr: int, value) -> None:
        if addr % WORD_BYTES:
            raise EmulationError(f"unaligned store at {addr:#x} "
                                 f"(pc={self.pc:#x})")
        self.memory[addr] = value

    def step(self) -> DynamicInstruction:
        if self.halted:
            raise EmulationError("machine is halted")
        pc = self.pc
        inst = self.program.inst_at(pc)
        record = self._execute(inst, pc)
        self.instructions_executed += 1
        return record

    def run(self, max_instructions: int) -> ExecutionResult:
        stream: List[DynamicInstruction] = []
        for _ in range(max_instructions):
            if self.halted:
                break
            stream.append(self.step())
        return ExecutionResult(stream, list(self.outputs), self.halted)

    def _execute(self, inst: Instruction, pc: int) -> DynamicInstruction:
        regs = self.regs
        op = inst.opcode
        next_pc = pc + 4
        taken = False
        ea: Optional[int] = None

        if op is Opcode.ADDI:
            value = to_unsigned(regs[inst.rs1] + inst.imm)
        elif op is Opcode.ADD:
            value = to_unsigned(regs[inst.rs1] + regs[inst.rs2])
        elif op is Opcode.SUB:
            value = to_unsigned(regs[inst.rs1] - regs[inst.rs2])
        elif op is Opcode.AND:
            value = regs[inst.rs1] & regs[inst.rs2]
        elif op is Opcode.OR:
            value = regs[inst.rs1] | regs[inst.rs2]
        elif op is Opcode.XOR:
            value = regs[inst.rs1] ^ regs[inst.rs2]
        elif op is Opcode.SLL:
            value = to_unsigned(regs[inst.rs1] << (regs[inst.rs2] & 63))
        elif op is Opcode.SRL:
            value = to_unsigned(regs[inst.rs1]) >> (regs[inst.rs2] & 63)
        elif op is Opcode.SRA:
            value = to_unsigned(to_signed(regs[inst.rs1])
                                >> (regs[inst.rs2] & 63))
        elif op is Opcode.SLT:
            value = int(to_signed(regs[inst.rs1]) < to_signed(regs[inst.rs2]))
        elif op is Opcode.SLTU:
            value = int(to_unsigned(regs[inst.rs1])
                        < to_unsigned(regs[inst.rs2]))
        elif op is Opcode.MUL:
            value = to_unsigned(to_signed(regs[inst.rs1])
                                * to_signed(regs[inst.rs2]))
        elif op is Opcode.DIV:
            divisor = to_signed(regs[inst.rs2])
            if divisor == 0:
                value = _MASK64  # RISC-V convention: div by zero -> -1
            else:
                quotient = abs(to_signed(regs[inst.rs1])) // abs(divisor)
                if (to_signed(regs[inst.rs1]) < 0) != (divisor < 0):
                    quotient = -quotient
                value = to_unsigned(quotient)
        elif op is Opcode.REM:
            divisor = to_signed(regs[inst.rs2])
            if divisor == 0:
                value = regs[inst.rs1]
            else:
                dividend = to_signed(regs[inst.rs1])
                quotient = abs(dividend) // abs(divisor)
                if (dividend < 0) != (divisor < 0):
                    quotient = -quotient
                value = to_unsigned(dividend - quotient * divisor)
        elif op is Opcode.ANDI:
            value = regs[inst.rs1] & (inst.imm & 0xFFFF)
        elif op is Opcode.ORI:
            value = regs[inst.rs1] | (inst.imm & 0xFFFF)
        elif op is Opcode.XORI:
            value = regs[inst.rs1] ^ (inst.imm & 0xFFFF)
        elif op is Opcode.SLLI:
            value = to_unsigned(regs[inst.rs1] << (inst.imm & 63))
        elif op is Opcode.SRLI:
            value = to_unsigned(regs[inst.rs1]) >> (inst.imm & 63)
        elif op is Opcode.SLTI:
            value = int(to_signed(regs[inst.rs1]) < inst.imm)
        elif op is Opcode.LUI:
            value = (inst.imm & 0xFFFF) << 16
        elif op is Opcode.LD:
            ea = to_unsigned(regs[inst.rs1] + inst.imm)
            value = self.load_word(ea)
            if isinstance(value, float):
                value = to_unsigned(int(value))
        elif op is Opcode.ST:
            ea = to_unsigned(regs[inst.rs1] + inst.imm)
            self.store_word(ea, regs[inst.rs2])
            value = None
        elif op is Opcode.FLD:
            ea = to_unsigned(regs[inst.rs1] + inst.imm)
            value = float(to_signed(self.load_word(ea))
                          if isinstance(self.load_word(ea), int)
                          else self.load_word(ea))
        elif op is Opcode.FST:
            ea = to_unsigned(regs[inst.rs1] + inst.imm)
            self.store_word(ea, float(regs[inst.rs2]))
            value = None
        elif op is Opcode.FADD:
            value = float(regs[inst.rs1]) + float(regs[inst.rs2])
        elif op is Opcode.FSUB:
            value = float(regs[inst.rs1]) - float(regs[inst.rs2])
        elif op is Opcode.FMUL:
            value = float(regs[inst.rs1]) * float(regs[inst.rs2])
        elif op is Opcode.FDIV:
            divisor = float(regs[inst.rs2])
            value = float(regs[inst.rs1]) / divisor if divisor else 0.0
        elif op is Opcode.FCVT:
            value = float(to_signed(regs[inst.rs1]))
        elif op is Opcode.BEQ:
            taken = regs[inst.rs1] == regs[inst.rs2]
            value = None
        elif op is Opcode.BNE:
            taken = regs[inst.rs1] != regs[inst.rs2]
            value = None
        elif op is Opcode.BLT:
            taken = to_signed(regs[inst.rs1]) < to_signed(regs[inst.rs2])
            value = None
        elif op is Opcode.BGE:
            taken = to_signed(regs[inst.rs1]) >= to_signed(regs[inst.rs2])
            value = None
        elif op is Opcode.J:
            taken = True
            value = None
        elif op is Opcode.JAL:
            taken = True
            value = pc + 4
        elif op is Opcode.JR:
            taken = True
            next_pc = to_unsigned(regs[inst.rs1])
            value = None
        elif op is Opcode.JALR:
            taken = True
            next_pc = to_unsigned(regs[inst.rs1])
            value = pc + 4
        elif op is Opcode.RET:
            taken = True
            next_pc = to_unsigned(regs[inst.rs1])
            value = None
        elif op is Opcode.NOP:
            value = None
        elif op is Opcode.HALT:
            self.halted = True
            value = None
        elif op is Opcode.OUT:
            self.outputs.append(to_signed(regs[inst.rs1]))
            value = None
        else:
            raise EmulationError(f"unimplemented opcode {op}")

        if taken and inst.target is not None:
            next_pc = inst.target

        dest = inst.dest_reg()
        if dest is not None and value is not None and dest != ZERO_REG:
            regs[dest] = value

        self.pc = next_pc
        return DynamicInstruction(self.instructions_executed, inst, pc,
                                  next_pc, taken, ea)
