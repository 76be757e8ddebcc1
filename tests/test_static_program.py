"""The static program's layout: one compact copy of each instruction.

An :class:`~repro.isa.instructions.Instruction` keeps its fields in
slots, and instructions with the same sources share one source tuple
(``tests/test_isa_instructions.py``), also after a pickle round trip;
instructions with the same decoded form share one
:class:`~repro.core.uop.DecodedUop`.  A :class:`~repro.isa.program.Program`
maps each text address to its instruction, keyed by the instruction's
own ``addr`` int.  Together they keep a generated program under
:data:`MAX_BYTES_PER_INSTRUCTION`.
"""

import gc
import pickle
import tracemalloc

import pytest

from repro.core.uop import DecodeCache
from repro.errors import ReproError
from repro.isa.assembler import assemble
from repro.isa.instructions import INSTRUCTION_BYTES
from repro.workloads import suite
from repro.workloads.generator import generate_program

#: Bound on a generated program's memory per static instruction
#: (tracemalloc): about 290 B with slotted instructions, shared source
#: tuples and an address map keyed by the instructions' own ints; 484 B
#: with an instance dict per instruction.
MAX_BYTES_PER_INSTRUCTION = 340

SOURCE = """
main:
    add  t0, t1, t2
    add  t0, t1, t2
    addi t3, t1, 4
    ld   t4, 8(t1)
    ret
"""


class TestDecodedForms:
    def test_same_operands_share_one_decoded_uop(self):
        first, second, addi, load, _ = assemble(SOURCE).instructions
        cache = DecodeCache()
        decoded = cache.lookup(first.addr, first)
        assert cache.lookup(second.addr, second) is decoded
        assert cache.lookup(addi.addr, addi) is not decoded
        assert cache.lookup(load.addr, load) is not \
            cache.lookup(addi.addr, addi)
        # Sharing the form keeps the per-PC cache and its counters.
        assert (len(cache), cache.hits, cache.misses) == (4, 1, 4)


class TestProgram:
    def test_inst_at_rejects_pcs_outside_the_text_segment(self):
        program = assemble(SOURCE)
        for pc in (program.text_base - INSTRUCTION_BYTES, program.text_end,
                   program.text_end + 0x1000):
            with pytest.raises(ReproError, match="outside text segment"):
                program.inst_at(pc)

    def test_inst_at_rejects_unaligned_pcs(self):
        program = assemble(SOURCE)
        for offset in (1, 2, 3):
            with pytest.raises(ReproError, match="unaligned PC"):
                program.inst_at(program.text_base + offset)

    def test_insts_at_returns_the_objects_inst_at_does(self):
        program = assemble(SOURCE)
        pcs = [inst.addr for inst in program.instructions][::-1]
        found = list(program.insts_at(pcs))
        assert all(a is program.inst_at(pc) for a, pc in zip(found, pcs))
        assert found == program.instructions[::-1]

    def test_pickle_round_trip_keeps_fields_sharing_and_lookups(self):
        program = assemble(SOURCE)
        loaded = pickle.loads(pickle.dumps(program))
        for inst, again in zip(program.instructions, loaded.instructions):
            assert again == inst and repr(again) == repr(inst)
            assert again.src_regs() is inst.src_regs()
            assert loaded.inst_at(again.addr) is again


def _traced_bytes(build):
    """Memory that *build*'s result holds, as tracemalloc counts it."""
    gc.collect()
    tracemalloc.start()
    try:
        built = build()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return built, held


def test_gcc_program_fits_in_340_bytes_per_instruction():
    """gcc, the suite's largest program, generated and loaded back from
    its pickle, stays under :data:`MAX_BYTES_PER_INSTRUCTION` per static
    instruction, data segment and symbols included."""
    program, generated = _traced_bytes(
        lambda: generate_program(suite.get_spec("gcc")))
    payload = pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)
    del program
    loaded, unpickled = _traced_bytes(lambda: pickle.loads(payload))
    count = len(loaded)
    assert count > 30_000
    assert generated / count < MAX_BYTES_PER_INSTRUCTION, generated / count
    assert unpickled / count < MAX_BYTES_PER_INSTRUCTION, unpickled / count
