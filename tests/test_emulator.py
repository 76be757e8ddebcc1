"""Unit tests for the functional emulator: one behaviour per opcode group,
plus kernel-level end-to-end checks."""

import pytest

from repro.emulator.machine import Machine, execute, to_signed, to_unsigned
from repro.emulator.stream import decode_stream, encode_stream
from repro.errors import EmulationError
from repro.isa.assembler import assemble
from repro.isa.program import STACK_BASE
from repro.isa.registers import GLOBAL_REG, STACK_REG
from repro.workloads.kernels import (
    bubble_sort,
    fibonacci,
    hash_kernel,
    linked_list_walk,
    matrix_multiply,
    state_machine,
    vector_sum,
)


def run_outputs(source, max_instructions=100_000):
    return execute(assemble(source), max_instructions).outputs


class TestConversions:
    def test_to_signed(self):
        assert to_signed(0) == 0
        assert to_signed(2**64 - 1) == -1
        assert to_signed(2**63) == -(2**63)
        assert to_signed(2**63 - 1) == 2**63 - 1

    def test_to_unsigned_wraps(self):
        assert to_unsigned(-1) == 2**64 - 1
        assert to_unsigned(2**64 + 5) == 5


class TestArithmetic:
    def test_add_sub_wraparound(self):
        out = run_outputs("""
            li t0, 0x7FFF
            slli t0, t0, 48      # large positive
            add t1, t0, t0       # wraps
            out t1
            sub t2, zero, t0
            out t2
            halt
        """)
        big = 0x7FFF << 48
        assert out == [to_signed((big + big) & (2**64 - 1)),
                       to_signed(-big & (2**64 - 1))]

    def test_mul_signed(self):
        out = run_outputs("""
            li t0, -7
            li t1, 6
            mul t2, t0, t1
            out t2
            halt
        """)
        assert out == [-42]

    def test_div_truncates_toward_zero(self):
        out = run_outputs("""
            li t0, -7
            li t1, 2
            div t2, t0, t1
            out t2
            rem t3, t0, t1
            out t3
            halt
        """)
        assert out == [-3, -1]

    def test_div_by_zero_is_trap_free(self):
        out = run_outputs("""
            li t0, 5
            div t1, t0, zero
            out t1
            rem t2, t0, zero
            out t2
            halt
        """)
        assert out == [-1, 5]  # RISC-V convention

    def test_logic_ops(self):
        out = run_outputs("""
            li t0, 0x0FF0
            li t1, 0x00FF
            and t2, t0, t1
            out t2
            or  t2, t0, t1
            out t2
            xor t2, t0, t1
            out t2
            halt
        """)
        assert out == [0x00F0, 0x0FFF, 0x0F0F]

    def test_shifts(self):
        out = run_outputs("""
            li t0, -8
            srl t1, t0, zero     # shift by 0
            sra t2, t0, zero
            slli t3, t0, 1
            out t3
            li t4, 2
            srl t5, t0, t4
            out t5
            sra t6, t0, t4
            out t6
            halt
        """)
        assert out == [-16, (2**64 - 8) >> 2, -2]

    def test_slt_sltu_disagree_on_negatives(self):
        out = run_outputs("""
            li t0, -1
            li t1, 1
            slt t2, t0, t1
            out t2
            sltu t3, t0, t1
            out t3
            slti t4, t0, 0
            out t4
            halt
        """)
        assert out == [1, 0, 1]

    def test_logical_immediates_zero_extend(self):
        out = run_outputs("""
            li t0, 0
            xori t0, t0, 0x7FFF
            out t0
            halt
        """)
        assert out == [0x7FFF]

    def test_lui_builds_high_bits(self):
        out = run_outputs("""
            lui t0, 0x12
            ori t0, t0, 0x3456
            out t0
            halt
        """)
        assert out == [0x123456]


class TestZeroRegister:
    def test_writes_to_zero_discarded(self):
        out = run_outputs("""
            li t0, 99
            add zero, t0, t0
            out zero
            halt
        """)
        assert out == [0]


class TestMemory:
    def test_load_store_roundtrip(self):
        out = run_outputs("""
            li t0, 1234
            st t0, 0(gp)
            ld t1, 0(gp)
            out t1
            halt
        """)
        assert out == [1234]

    def test_uninitialised_memory_reads_zero(self):
        out = run_outputs("""
            ld t0, 128(gp)
            out t0
            halt
        """)
        assert out == [0]

    def test_unaligned_access_raises(self):
        program = assemble("""
            addi t0, gp, 4
            ld t1, 0(t0)
            halt
        """)
        with pytest.raises(EmulationError, match="unaligned"):
            execute(program)

    def test_initial_conventions(self):
        program = assemble("nop\nhalt")
        machine = Machine(program)
        assert machine.regs[STACK_REG] == STACK_BASE
        assert machine.regs[GLOBAL_REG] == program.data_base


class TestControlFlow:
    def test_taken_and_not_taken_branches(self):
        out = run_outputs("""
            li t0, 1
            beq t0, zero, skip   # not taken
            out t0
            bne t0, zero, end    # taken
        skip:
            out zero
        end:
            halt
        """)
        assert out == [1]

    def test_blt_bge(self):
        out = run_outputs("""
            li t0, -3
            li t1, 2
            blt t0, t1, a
            out zero
        a:  bge t1, t0, b
            out zero
        b:  li t2, 7
            out t2
            halt
        """)
        assert out == [7]

    def test_call_return(self):
        out = run_outputs("""
        main:
            call double
            out a0
            halt
        double:
            li a0, 21
            add a0, a0, a0
            ret
        """)
        assert out == [42]

    def test_indirect_jump_table(self):
        out = run_outputs("""
            la t0, table
            ld t1, 8(t0)        # second entry
            jr t1
        a:  out zero
            halt
        b:  li t2, 5
            out t2
            halt
            .data
        table:
            .word a, b
        """)
        assert out == [5]

    def test_jalr_links(self):
        out = run_outputs("""
            la t0, callee
            jalr t0
            out a0
            halt
        callee:
            li a0, 9
            ret
        """)
        assert out == [9]


class TestRunControl:
    def test_truncation_without_halt(self):
        result = execute(assemble("loop: j loop"), max_instructions=50)
        assert not result.halted
        assert len(result) == 50

    def test_step_after_halt_raises(self):
        machine = Machine(assemble("halt"))
        machine.step()
        with pytest.raises(EmulationError):
            machine.step()

    def test_stream_records_taken_and_next_pc(self):
        program = assemble("""
            li t0, 1
            bne t0, zero, end
            nop
        end:
            halt
        """)
        stream = execute(program).stream
        branch = stream[1]
        assert branch.taken
        assert branch.next_pc == program.symbols["end"]
        assert stream[0].next_pc == stream[0].pc + 4

    def test_load_record_has_ea(self):
        program = assemble("ld t0, 8(gp)\nhalt")
        stream = execute(program).stream
        assert stream[0].ea == program.data_base + 8

    def test_packed_stream_round_trip(self):
        """Decoding the packed columns rebuilds every record, bound to
        the program's own instructions, plus the outputs and halt flag."""
        program = assemble("""
        main:
            li t0, -7
            st t0, 0(gp)
            ld t1, 0(gp)
            out t1
            call f
            halt
        f:  ret
        """)
        result = execute(program)
        decoded = decode_stream(program, encode_stream(result))

        def fields(record):
            return (record.index, record.pc, record.next_pc, record.taken,
                    record.ea)
        assert ([fields(r) for r in decoded.stream]
                == [fields(r) for r in result.stream])
        assert all(d.inst is r.inst
                   for d, r in zip(decoded.stream, result.stream))
        assert (decoded.outputs, decoded.halted) == ([-7], True)


class TestKernels:
    def test_vector_sum(self):
        assert execute(vector_sum(10)).outputs == [55]

    def test_fibonacci(self):
        assert execute(fibonacci(20)).outputs == [6765]

    def test_bubble_sort(self):
        values = [5, 1, 4, 2, 3]
        assert execute(bubble_sort(values)).outputs == sorted(values)

    def test_hash_deterministic(self):
        a = execute(hash_kernel(32, 4)).outputs
        b = execute(hash_kernel(32, 4)).outputs
        assert a == b and len(a) == 1

    def test_linked_list_walk(self):
        n, walks = 16, 3
        expected = sum(range(n))
        assert execute(linked_list_walk(n, walks)).outputs == \
            [expected] * walks

    def test_state_machine_runs_to_halt(self):
        result = execute(state_machine(64))
        assert result.halted
        assert len(result.outputs) == 1
        assert result.outputs[0] > 0

    def test_matrix_multiply_trace(self):
        size = 4
        a = [(i % 7) + 1 for i in range(size * size)]
        b = [(i % 5) + 1 for i in range(size * size)]
        trace = 0
        for i in range(size):
            trace += sum(a[i * size + k] * b[k * size + i]
                         for k in range(size))
        assert execute(matrix_multiply(size)).outputs == [trace]
