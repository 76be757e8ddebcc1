"""Unit tests for instruction classification and dataflow metadata."""

import pytest

from repro.isa.instructions import (
    CONTROL_CLASSES,
    INDIRECT_CLASSES,
    Instruction,
    MNEMONIC_TO_OPCODE,
    OpClass,
    Opcode,
    writes_zero_only,
)
from repro.isa.registers import LINK_REG


def inst(opcode, **kwargs):
    return Instruction(opcode, **kwargs)


class TestClassification:
    def test_every_opcode_has_unique_mnemonic(self):
        assert len(MNEMONIC_TO_OPCODE) == len(Opcode)

    def test_branch_classes(self):
        assert inst(Opcode.BEQ, rs1=1, rs2=2, target=0x1000).is_cond_branch
        assert inst(Opcode.BNE, rs1=1, rs2=2, target=0x1000).is_control
        assert not inst(Opcode.ADD, rd=1, rs1=2, rs2=3).is_control

    def test_indirect_classes(self):
        assert inst(Opcode.JR, rs1=5).is_indirect
        assert inst(Opcode.JALR, rd=LINK_REG, rs1=5).is_indirect
        assert inst(Opcode.RET, rs1=LINK_REG).is_indirect
        assert not inst(Opcode.J, target=0x1000).is_indirect
        assert not inst(Opcode.JAL, rd=LINK_REG, target=0x1000).is_indirect

    def test_call_and_return(self):
        assert inst(Opcode.JAL, rd=LINK_REG, target=0x1000).is_call
        assert inst(Opcode.JALR, rd=LINK_REG, rs1=3).is_call
        assert inst(Opcode.RET, rs1=LINK_REG).is_return
        assert not inst(Opcode.RET, rs1=LINK_REG).is_call

    def test_memory_classes(self):
        load = inst(Opcode.LD, rd=1, rs1=2, imm=8)
        store = inst(Opcode.ST, rs1=2, rs2=1, imm=8)
        assert load.is_load and load.is_mem and not load.is_store
        assert store.is_store and store.is_mem and not store.is_load

    def test_nop_and_halt(self):
        assert inst(Opcode.NOP).is_nop
        assert inst(Opcode.HALT).is_halt
        assert inst(Opcode.HALT).is_control

    def test_control_class_sets_consistent(self):
        assert INDIRECT_CLASSES < CONTROL_CLASSES
        assert OpClass.BRANCH in CONTROL_CLASSES
        assert OpClass.IALU not in CONTROL_CLASSES


class TestDataflow:
    def test_alu_sources_and_dest(self):
        add = inst(Opcode.ADD, rd=3, rs1=1, rs2=2)
        assert add.src_regs() == (1, 2)
        assert add.dest_reg() == 3

    def test_immediate_sources(self):
        addi = inst(Opcode.ADDI, rd=3, rs1=1, imm=5)
        assert addi.src_regs() == (1,)
        assert addi.dest_reg() == 3

    def test_store_reads_base_and_value(self):
        store = inst(Opcode.ST, rs1=2, rs2=7, imm=0)
        assert set(store.src_regs()) == {2, 7}
        assert store.dest_reg() is None

    def test_call_writes_link(self):
        call = inst(Opcode.JAL, rd=LINK_REG, target=0x1000)
        assert call.dest_reg() == LINK_REG

    def test_return_reads_link(self):
        ret = inst(Opcode.RET, rs1=LINK_REG)
        assert LINK_REG in ret.src_regs()
        assert ret.dest_reg() is None

    def test_branch_has_no_dest(self):
        assert inst(Opcode.BLT, rs1=1, rs2=2, target=0).dest_reg() is None

    def test_same_sources_share_one_tuple(self):
        add = inst(Opcode.ADD, rd=3, rs1=1, rs2=2, addr=0x1000)
        store = inst(Opcode.ST, rs1=1, rs2=2, imm=8, addr=0x1004)
        assert add.src_regs() is store.src_regs()
        assert inst(Opcode.RET, rs1=LINK_REG).src_regs() \
            is inst(Opcode.RET, rs1=LINK_REG).src_regs()

    def test_writes_zero_only(self):
        assert writes_zero_only(inst(Opcode.ADD, rd=0, rs1=1, rs2=2))
        assert not writes_zero_only(inst(Opcode.ADD, rd=1, rs1=1, rs2=2))
        assert not writes_zero_only(inst(Opcode.LD, rd=0, rs1=1, imm=0))


class TestAddressing:
    def test_next_addr(self):
        i = Instruction(Opcode.NOP, addr=0x1000)
        assert i.next_addr == 0x1004

    def test_addr_not_compared(self):
        a = Instruction(Opcode.NOP, addr=0x1000)
        b = Instruction(Opcode.NOP, addr=0x2000)
        assert a == b
        assert hash(a) == hash(b) and len({a, b}) == 1


class TestImmutability:
    def test_fields_cannot_be_assigned_or_deleted(self):
        add = inst(Opcode.ADD, rd=3, rs1=1, rs2=2, addr=0x1000)
        for name in ("rd", "addr", "is_control", "_srcs", "unknown"):
            with pytest.raises(AttributeError):
                setattr(add, name, 7)
            with pytest.raises(AttributeError):
                delattr(add, name)
        assert (add.rd, add.addr, add.src_regs()) == (3, 0x1000, (1, 2))
