"""The assembler's contract, frozen: its error messages and its output.

``tests/assembler_contract.json`` holds two tables:

* **errors** — for each bad source, the exact :class:`AssemblerError`
  text and line.  The cases cover every mnemonic and pseudo-instruction
  at each wrong operand count; a bad value in each operand position of
  each form (registers, 16-bit and logical immediates, memory operands,
  targets) and in all of them at once, which pins the order operands
  are checked in; ``li``/``la`` values beyond 32 bits and ``lui``
  values beyond 16; directive and
  segment errors; and sources with errors on two lines, which pin that
  layout errors (pass 1) come before encoding errors (pass 2);
* **programs** — the :func:`~tests.test_stream_digests.program_digest`
  of every hand-written program: each ``ALL_KERNELS`` entry, each
  :mod:`repro.workloads.kernels_extra` kernel at fixed small inputs,
  ``tests/test_encoding.py::EXAMPLE`` and :data:`FORMS`, which writes
  every mnemonic in each operand form the assembler accepts.  Between
  them they use forms the workload generator never emits.

Assembler changes meant to be invisible keep both tables.  When a move
is intended, re-bless from the repository root and review the diff::

    PYTHONPATH=src python -m tests.test_assembler_contract
"""

import functools
import json
from pathlib import Path

import pytest

from repro.errors import AssemblerError
from repro.isa.assembler import assemble
from repro.isa.instructions import MNEMONIC_TO_OPCODE
from repro.workloads import kernels_extra
from repro.workloads.kernels import ALL_KERNELS
from tests.test_encoding import EXAMPLE
from tests.test_stream_digests import program_digest

TABLE = Path(__file__).with_name("assembler_contract.json")

#: Two lines in front of every error case, so its line number is not 1.
PREAMBLE = "main:\n    nop\n"

#: Every mnemonic in each operand form the assembler accepts,
#: including spellings the generator never writes (upper case, ``r01``,
#: FP registers, labels as immediates and offsets).
FORMS = """
    .text
main:
    add  t0, t1, t2
    SUB  T0, R1, Zero
    and  r01, r2, r3
    or   s0, s1, s2
    xor  a0, a1, a2
    sll  t3, t4, t5
    srl  t6, t7, sp
    sra  gp, ra, r31
    slt  r4, r5, r6
    sltu r7, r8, r9
    mul  r10, r11, r12
    div  r13, r14, r15
    rem  r16, r17, r18
    addi t0, t0, -32768
    addi t0, t0, 32767
    addi t1, zero, main
    andi t2, t1, 0
    ori  t2, t2, 65535
    xori t3, t2, 0x7FFF
    slli t4, t3, 63
    srli t5, t4, 1
    slti t6, t5, -1
    lui  t7, 0xFFFF
    fadd f1, f2, f3
    fsub f4, f5, f6
    fcvt f7, t0
    fmul f8, f9, f31
    fdiv f10, f11, f12
    ld   t0, 0(gp)
    ld   t0, -8( sp )
    ld   t1, main(gp)
    st   t0, 32760(t1)
    st   t0, 0x10(t1)
    fld  f1, 8(gp)
    fst  f1, 16(gp)
    beq  t0, t1, main
    bne  t0, zero, later
    blt  t0, t1, 0x1000
    bge  f1, f2, later
    j    later
    jal  later
    jal  t4, later
    jr   t0
    jalr t5
    jalr t6, t5
    ret
    nop
    halt
    out  t0
    out  f3
later:
    li   t0, 0
    li   t0, -32768
    li   t0, 32768
    li   t0, 0xFFFFFFFF
    li   t0, -1
    la   t1, words
    la   t1, 0
    la   t1, 0xFFFFFFFF
    mv   t2, t1
    call main
    b    main
    bgt  t0, t1, main
    ble  t0, t1, later
    .data
words:
    .word 1, -2, later, 0x7FFFFFFFFFFFFFFF
    .space 12
    .align 16
tail:
    .word tail
"""

#: Operand kinds of each mnemonic's form; ``jal`` and ``jalr`` also
#: take a one-operand form.
REG, IMM, LOGICAL, VALUE, MEM, TARGET, LITERAL = (
    "reg", "imm", "logical", "value", "mem", "target", "literal")
_R3 = (REG, REG, REG)
SHAPES = {
    **{m: _R3 for m in ("add", "sub", "and", "or", "xor", "sll", "srl",
                        "sra", "slt", "sltu", "mul", "div", "rem", "fadd",
                        "fsub", "fmul", "fdiv")},
    **{m: (REG, REG, IMM) for m in ("addi", "slli", "srli", "slti")},
    **{m: (REG, REG, LOGICAL) for m in ("andi", "ori", "xori")},
    "lui": (REG, VALUE), "fcvt": (REG, REG),
    **{m: (REG, MEM) for m in ("ld", "st", "fld", "fst")},
    **{m: (REG, REG, TARGET) for m in ("beq", "bne", "blt", "bge",
                                       "bgt", "ble")},
    "j": (TARGET,), "jal": (REG, TARGET), "jr": (REG,),
    "jalr": (REG, REG), "ret": (), "nop": (), "halt": (), "out": (REG,),
    "li": (REG, LITERAL), "la": (REG, TARGET), "mv": (REG, REG),
    "call": (TARGET,), "b": (TARGET,),
}
#: Operand counts accepted besides the full form.
SHORT_FORMS = {"jal": 1, "jalr": 1}

GOOD = {REG: "t1", IMM: "-5", LOGICAL: "255", VALUE: "0x12", MEM: "8(gp)",
        TARGET: "main", LITERAL: "70000"}
BAD = {
    REG: ("r32",),
    IMM: ("32768", "-32769", "zz"),
    LOGICAL: ("-1", "65536", "zz"),
    VALUE: ("zz",),
    MEM: ("32768(t1)", "-32769(t1)", "8(r32)", "zz(t1)", "t1"),
    TARGET: ("nowhere",),
    LITERAL: ("zz", "0x100000000", "-32769", "main"),
}
#: ``la`` resolves labels and literals, then range-checks the value.
LA_BAD = ("nowhere", "-1", "0x100000000")


def _statement(mnemonic, operands):
    return f"{mnemonic} {', '.join(operands)}".rstrip()


def _mnemonic_cases(mnemonic, shape):
    accepted = {len(shape), SHORT_FORMS.get(mnemonic, len(shape))}
    sources = [_statement(mnemonic, [f"t{i}" for i in range(count)])
               for count in range(5) if count not in accepted]
    good = [GOOD[kind] for kind in shape]
    for position, kind in enumerate(shape):
        bad = LA_BAD if (mnemonic, kind) == ("la", TARGET) else BAD[kind]
        for value in bad:
            operands = list(good)
            operands[position] = value
            sources.append(_statement(mnemonic, operands))
    if len(shape) > 1:  # a different bad value in each position
        sources.append(_statement(mnemonic, [
            f"r{32 + position}" if kind == REG else BAD[kind][0]
            for position, kind in enumerate(shape)]))
    return sources


#: Group -> bad sources: one group per mnemonic, then the rest.
ERROR_CASES = {
    **{mnemonic: _mnemonic_cases(mnemonic, shape)
       for mnemonic, shape in SHAPES.items()},
    "short-forms": ["jal nowhere", "jal r32", "jalr r32", "jalr nowhere"],
    "registers": ["add t0, f32, t1", "add t0, t1, q1", "add t0, t1, r1x",
                  "ld t0, 8(q1)", "st f32, 8(t1)", "add t0, t1, 5"],
    "memory-operands": ["ld t0, 8(t1", "ld t0, (t1)", "ld t0, 8 (t1)x",
                        "ld t0, nowhere(t1)"],
    "mnemonics": ["bogus t0, t1", "ADDX t0, t1, t2", "add.w t0, t1, t2"],
    "directives": [
        ".bogus 1", ".text2", ".word 1", ".space 8", ".align 8",
        ".data\n.align 3", ".data\n.align 0", ".data\n.space -1",
        ".data\n.space zz", ".data\n.word zz", ".data\n.word 1, nowhere",
        ".data\nadd t0, t1, t2", ".data\nli t0, 1", "x: nop\nx: nop",
        "main: nop", ".data\n.space", ".data\n.align"],
    # lui takes a 16-bit upper half, as the binary encoding does.
    "lui-range": ["lui t7, 70000", "lui t7, -1",
                  "lui t7, words\n.data\nwords: .word 1"],
    # Pass 1 (layout) reports before pass 2 (encoding), whatever the
    # line order; within a pass the first bad line reports.
    "two-passes": ["bogus\nli t0", "add t0\nli t0, zz", "add t0\n.bogus",
                   "ld t0, zz(t1)\n.data\n.word nowhere", "bogus\nadd t0",
                   "add t0\nbogus", "li t0, 0x100000000\nli t1"],
}
ERROR_SOURCES = [source for sources in ERROR_CASES.values()
                 for source in sources]


def _assembler_error(source):
    """``[message, line]`` of the error assembling *source* raises."""
    try:
        assemble(PREAMBLE + source)
    except AssemblerError as exc:
        return [str(exc), exc.line]
    raise AssertionError(f"assembled without an error: {source!r}")


#: Program name -> a function that assembles it.
PROGRAMS = {
    **{f"kernels/{name}": build for name, build in ALL_KERNELS.items()},
    "kernels_extra/binary_search": functools.partial(
        kernels_extra.binary_search, [2, 3, 5, 8, 13, 21, 34], [5, 4, 34]),
    "kernels_extra/sieve": functools.partial(kernels_extra.sieve, 60),
    "kernels_extra/quicksort": functools.partial(
        kernels_extra.quicksort, [9, -3, 7, 1, 8, 1, 6, -4, 5, 0]),
    "kernels_extra/crc32": functools.partial(
        kernels_extra.crc32_kernel, [1, 2, 250, 77], 2),
    "kernels_extra/bfs": functools.partial(
        kernels_extra.bfs, kernels_extra.random_graph(7, seed=3), 2),
    "tests/test_encoding.py::EXAMPLE": functools.partial(assemble, EXAMPLE),
    "FORMS": functools.partial(assemble, FORMS, name="forms"),
}


@functools.lru_cache(maxsize=None)
def _table():
    return json.loads(TABLE.read_text())


def test_table_covers_every_case():
    assert set(SHAPES) >= set(MNEMONIC_TO_OPCODE)
    assert len(set(ERROR_SOURCES)) == len(ERROR_SOURCES)
    table = _table()
    assert sorted(table["errors"]) == sorted(ERROR_SOURCES)
    assert sorted(table["programs"]) == sorted(PROGRAMS)


@pytest.mark.parametrize("group", list(ERROR_CASES))
def test_error_text_and_line(group):
    errors = _table()["errors"]
    assert ({source: _assembler_error(source)
             for source in ERROR_CASES[group]}
            == {source: errors[source] for source in ERROR_CASES[group]})


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_program_digest(name):
    assert program_digest(PROGRAMS[name]()) == _table()["programs"][name]


def bless():
    """Recompute both tables and rewrite the file."""
    errors = {source: _assembler_error(source) for source in ERROR_SOURCES}
    programs = {name: program_digest(PROGRAMS[name]())
                for name in sorted(PROGRAMS)}
    sections = [
        f"  {json.dumps(section)}: {{\n" + ",\n".join(
            f"    {json.dumps(key)}: {json.dumps(value)}"
            for key, value in entries.items()) + "\n  }"
        for section, entries in (("errors", errors), ("programs", programs))]
    TABLE.write_text("{\n" + ",\n".join(sections) + "\n}\n")
    print(f"wrote {len(errors)} error cases and {len(programs)} program "
          f"digests to {TABLE}")


if __name__ == "__main__":
    bless()
