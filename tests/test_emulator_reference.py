"""The handler-table emulator against the reference opcode chain.

:class:`~repro.emulator.machine.Machine` decodes each static instruction
once into a handler and builds its records in bulk;
:class:`tests.emulator_reference.ReferenceMachine` decodes every dynamic
instruction through an ``if/elif`` chain.  On the same program both must
produce the same records, outputs and halted flag, leave the same
machine state, and fail with the same error.
"""

import pytest

from repro.emulator.machine import Machine
from repro.errors import EmulationError, ReproError
from repro.isa.assembler import assemble
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program, link
from repro.isa.registers import LINK_REG, ZERO_REG
from repro.workloads import suite
from tests.emulator_reference import ReferenceMachine

#: Every opcode at least once, with the edge cases of each: division
#: and remainder by zero, shift amounts of 64 and more, a register
#: holding a negative word (loaded, so never masked), an ``fld`` of an
#: integer word, an ``ld`` of a float word, writes to ``r0``, branches
#: both ways, and every kind of call, jump and return.
EVERY_OPCODE = """
main:
    li   t0, -7
    li   t1, 3
    li   t2, 0
    add  s0, t0, t1
    add  zero, t0, t1
    sub  s0, t0, t1
    and  s1, t0, t1
    or   s1, t0, t1
    xor  s1, t0, t1
    li   t3, 70
    sll  s1, t1, t3
    srl  s1, t0, t3
    sra  s1, t0, t3
    li   t4, 64
    sll  s2, t1, t4
    sra  s2, t0, t4
    slt  s2, t0, t1
    sltu s2, t0, t1
    mul  s3, t0, t1
    div  s3, t0, t1
    div  s4, t0, t2
    rem  s5, t0, t1
    rem  s6, t0, t2
    out  s3
    out  s4
    out  s5
    out  s6
    andi s1, t0, 65535
    ori  s1, t2, 4660
    xori s1, t0, 255
    slli s2, t1, 65
    srli s2, t0, 64
    slti s2, t0, -3
    slti s2, t1, -3
    ld   s7, 24(gp)
    srli t5, s7, 4
    out  t5
    srl  t5, s7, t1
    out  t5
    sra  t5, s7, t1
    out  t5
    sltu t5, s7, t1
    out  t5
    mul  t5, s7, t1
    out  t5
    lui  s3, 4660
    fcvt f0, t0
    fcvt f1, t1
    fadd f2, f0, f1
    fsub f3, f0, f1
    fmul f4, f0, f1
    fdiv f5, f0, f1
    fdiv f6, f0, f9
    fst  f4, 0(gp)
    ld   t5, 0(gp)
    out  t5
    st   t0, 8(gp)
    fld  f7, 8(gp)
    fld  f8, 16(gp)
    fcvt f9, t5
    beq  t0, t1, skip
    beq  t2, zero, eq_taken
skip:
    out  zero
eq_taken:
    bne  t0, t0, skip
    bne  t0, t1, ne_taken
    out  zero
ne_taken:
    blt  t1, t0, skip
    blt  t0, t1, lt_taken
    out  zero
lt_taken:
    bge  t0, t1, skip
    bge  t1, t0, ge_taken
    out  zero
ge_taken:
    nop
    call leaf
    la   t6, leaf
    jalr t6
    la   t6, after
    jr   t6
    out  zero
after:
    j    done
    out  zero
leaf:
    addi a0, a0, 1
    out  a0
    ret
done:
    halt
    out  zero
    .data
    .word 0, 0, 0, -5
"""

#: Hand-built oddities the assembler never emits: an ALU op without a
#: destination, direct transfers without a target, jumps that name a
#: destination they must not write, a ``jr`` whose ``target`` overrides
#: the register, and a ``jalr`` linking into r0.
ODD_INSTRUCTIONS = [
    Instruction(Opcode.ADDI, rd=8, rs1=ZERO_REG, imm=0x1018),
    Instruction(Opcode.ADD, rs1=8, rs2=8),
    Instruction(Opcode.J, rd=9),
    Instruction(Opcode.BEQ, rs1=ZERO_REG, rs2=ZERO_REG),
    Instruction(Opcode.JR, rd=9, rs1=8, target=0x1014),
    Instruction(Opcode.JALR, rd=ZERO_REG, rs1=8),
    Instruction(Opcode.JAL, target=0x101C),
    Instruction(Opcode.OUT, rs1=LINK_REG),
    Instruction(Opcode.HALT),
]


def _exact(values):
    """Values compared exactly: ``repr`` tells ``-0.0`` from ``0.0``,
    ``1.0`` from ``1`` and ``True`` from ``1``."""
    return [repr(value) for value in values]


def _records(stream):
    return [(r.index, id(r.inst), r.pc, r.next_pc, repr(r.taken), r.ea)
            for r in stream]


def _state(machine):
    return (machine.pc, machine.halted, machine.instructions_executed,
            _exact(machine.regs), sorted(_exact(machine.memory.items())),
            list(machine.outputs))


def assert_same_runs(program, *lengths):
    """Run both machines through *lengths* in turn; compare every result
    and the final state."""
    machine, reference = Machine(program), ReferenceMachine(program)
    for length in lengths:
        got, want = machine.run(length), reference.run(length)
        assert _records(got.stream) == _records(want.stream)
        assert got.outputs == want.outputs
        assert got.halted == want.halted
    assert _state(machine) == _state(reference)
    return machine


@pytest.mark.parametrize("name", ["gcc", "mcf", "gzip"])
def test_suite_stream_matches_reference(name):
    assert_same_runs(suite.get_benchmark(name), 20_000)


def test_stream_in_two_runs_matches_one_run():
    """Indices continue across runs, and the halves join to the whole."""
    program = suite.get_benchmark("gcc")
    split = assert_same_runs(program, 7_000, 13_000)
    whole = Machine(program)
    joined = Machine(program)
    assert (_records(joined.run(7_000).stream)
            + _records(joined.run(13_000).stream)
            == _records(whole.run(20_000).stream))
    assert _state(split) == _state(whole) == _state(joined)


def test_every_opcode_matches_reference():
    program = assemble(EVERY_OPCODE)
    machine = assert_same_runs(program, 1000)
    stream = Machine(program).run(1000).stream
    assert {record.inst.opcode for record in stream} == set(Opcode)
    assert machine.halted


def test_halt_mid_run_then_empty_runs():
    """The halt lands inside the second run; later runs are empty."""
    program = assemble(EVERY_OPCODE)
    total = len(Machine(program).run(1000))
    machine = assert_same_runs(program, total // 2, total, 10)
    assert machine.run(10).stream == []
    with pytest.raises(EmulationError, match="halted"):
        machine.step()


def test_step_matches_reference():
    program = assemble(EVERY_OPCODE)
    machine, reference = Machine(program), ReferenceMachine(program)
    steps, reference_steps = [], []
    while not reference.halted:
        steps.append(machine.step())
        reference_steps.append(reference.step())
    assert _records(steps) == _records(reference_steps)
    assert _state(machine) == _state(reference)
    for stepper in (machine, reference):
        with pytest.raises(EmulationError, match="machine is halted"):
            stepper.step()


def test_hand_built_oddities_match_reference():
    program = Program(instructions=link(ODD_INSTRUCTIONS))
    machine = assert_same_runs(program, 100)
    assert machine.halted
    assert machine.regs[9] == 0


@pytest.mark.parametrize("source", [
    "addi t0, gp, 4\nld t1, 0(t0)\nhalt",
    "addi t0, gp, 4\nst t1, 0(t0)\nhalt",
    "addi t0, gp, 4\nfld f1, 0(t0)\nhalt",
    "addi t0, gp, 4\nfst f1, 0(t0)\nhalt",
    "li t0, 7\nout t0\nli t0, 16\njr t0\nhalt",
], ids=["ld", "st", "fld", "fst", "jr-outside-text"])
def test_error_matches_reference(source):
    program = assemble(source)
    errors = []
    machines = (Machine(program), ReferenceMachine(program))
    for machine in machines:
        with pytest.raises(ReproError) as info:
            machine.run(100)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    assert _state(machines[0]) == _state(machines[1])
