"""Tests for binary instruction encoding/decoding and the disassembler."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.emulator.machine import Machine, execute
from repro.isa.assembler import assemble
from repro.isa.disassembler import disassemble_program, format_instruction
from repro.isa.encoding import (
    EncodingError,
    decode,
    encode,
    load_image,
    program_image,
)
from repro.isa.instructions import INSTRUCTION_BYTES, Instruction, Opcode
from repro.isa.program import Program
from repro.workloads.characteristics import WorkloadSpec
from repro.workloads.generator import generate_program
from repro.workloads.kernels import ALL_KERNELS
from tests.test_assembler_contract import EXAMPLE


class TestRoundTrip:
    def test_example_program_roundtrips(self):
        program = assemble(EXAMPLE)
        for inst in program.instructions:
            decoded = decode(encode(inst), inst.addr)
            assert decoded == inst, f"{inst} != {decoded}"

    @pytest.mark.parametrize("kernel", sorted(ALL_KERNELS))
    def test_kernels_roundtrip(self, kernel):
        program = ALL_KERNELS[kernel]()
        for inst in program.instructions:
            assert decode(encode(inst), inst.addr) == inst

    @given(seed=st.integers(min_value=1, max_value=500))
    @settings(max_examples=10, deadline=None)
    def test_generated_workloads_roundtrip(self, seed):
        spec = WorkloadSpec(name="enc", seed=seed, num_functions=6,
                            hot_functions=3, switch_prob=0.2,
                            call_prob=0.15, mem_prob=0.15)
        program = generate_program(spec)
        for inst in program.instructions:
            assert decode(encode(inst), inst.addr) == inst

    def test_image_roundtrip_preserves_semantics(self):
        program = assemble(EXAMPLE)
        image = program_image(program)
        assert len(image) == len(program) * INSTRUCTION_BYTES
        reloaded = load_image(image, program.text_base)
        assert reloaded == program.instructions


class TestEncodeErrors:
    def test_rejects_wide_jump_target(self):
        inst = Instruction(Opcode.J, target=1 << 24, addr=0x1000)
        with pytest.raises(EncodingError, match="text region"):
            encode(inst)

    def test_rejects_unplaced_branch(self):
        inst = Instruction(Opcode.BEQ, rs1=1, rs2=2, target=0x1000)
        with pytest.raises(EncodingError, match="unplaced"):
            encode(inst)

    def test_rejects_wide_immediate(self):
        inst = Instruction(Opcode.ADDI, rd=1, rs1=2, imm=1 << 20,
                           addr=0x1000)
        with pytest.raises(EncodingError, match="immediate"):
            encode(inst)

    def test_decode_rejects_illegal_opcode(self):
        with pytest.raises(EncodingError, match="illegal opcode"):
            decode(0x3F << 26, 0x1000)

    def test_decode_rejects_wide_word(self):
        with pytest.raises(EncodingError):
            decode(1 << 32, 0x1000)

    def test_load_image_rejects_ragged(self):
        with pytest.raises(EncodingError):
            load_image(b"\x00\x01\x02", 0x1000)


class TestDisassembler:
    def test_reassembles_to_identical_instructions(self):
        program = assemble(EXAMPLE)
        source = disassemble_program(program)
        again = assemble(source)
        assert again.instructions == program.instructions

    def test_reassembled_program_behaves_identically(self):
        original = ALL_KERNELS["bubble_sort"]()
        again = assemble(disassemble_program(original))
        assert execute(again).outputs == execute(original).outputs

    def test_generated_workload_reassembles_and_runs(self):
        spec = WorkloadSpec(name="dis", seed=3, num_functions=6,
                            hot_functions=3, switch_prob=0.2)
        original = generate_program(spec)
        again = assemble(disassemble_program(original))
        assert again.instructions == original.instructions
        a = Machine(original).run(2000).stream
        b = Machine(again).run(2000).stream
        assert [(r.pc, r.taken) for r in a] == [(r.pc, r.taken) for r in b]

    def test_format_single_instruction(self):
        program = assemble("st t0, 8(sp)")
        assert format_instruction(program.instructions[0]) == \
            "st   r8, 8(r2)"
