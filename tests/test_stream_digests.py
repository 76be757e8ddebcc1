"""The stream digest table: the functional layer's output, frozen.

``tests/stream_digests.json`` holds two sha256 digests per suite
benchmark:

* **program** — the generated program: every instruction's fields
  (names and values in :data:`INSTRUCTION_FIELDS` order, enum members
  written by name, so the digest does not depend on the Python version)
  plus the data segment, the symbol table and the segment layout;
* **stream** — the :func:`~repro.emulator.stream.encode_stream` columns
  of its first ``LENGTH`` dynamic instructions, as emulated on a fresh
  :class:`~repro.emulator.machine.Machine`.

Generation, assembly or emulation changes that move a program or a
stream fail here, before any timing result can.  When the move is
intended, re-bless the table and review its diff::

    PYTHONPATH=src python tests/test_stream_digests.py

The module needs no pytest to re-bless, so the table can be checked on
any Python: re-bless, then ``git diff tests/stream_digests.json``.
"""

import enum
import functools
import hashlib
import json
import pickle
from operator import attrgetter
from pathlib import Path

from repro.emulator.machine import Machine
from repro.emulator.stream import encode_stream, gc_paused
from repro.workloads import suite

TABLE = Path(__file__).with_name("stream_digests.json")

#: Dynamic instructions emulated per benchmark.
LENGTH = 20_000

#: Every field of an instruction, in the order the program digests
#: hash them: the key order of the instance dict an instruction had
#: before it kept its fields in slots.
INSTRUCTION_FIELDS = ("opcode", "rd", "rs1", "rs2", "imm", "target",
                      "addr", "op_class", "is_control", "is_cond_branch",
                      "is_indirect", "is_call", "is_return", "is_nop",
                      "is_halt", "is_load", "is_store", "is_mem", "_srcs",
                      "_dest")


def _enum_name(member: enum.Enum) -> str:
    """An enum member in JSON: its name, the same on every Python."""
    return f"{type(member).__name__}.{member.name}"


def _sha256(payload) -> str:
    text = json.dumps(payload, default=_enum_name)
    return hashlib.sha256(text.encode()).hexdigest()


def program_digest(program) -> str:
    """Digest of a program's instructions, data and layout.

    An instruction enters as the values of its
    :data:`INSTRUCTION_FIELDS`, in order; the names enter once.
    """
    return _sha256({
        "fields": [INSTRUCTION_FIELDS],
        "instructions": list(map(attrgetter(*INSTRUCTION_FIELDS),
                                 program.instructions)),
        "data": sorted(program.data.items()),
        "symbols": sorted(program.symbols.items()),
        "layout": [program.text_base, program.entry, program.data_base,
                   program.data_size],
    })


def stream_digest(program) -> str:
    """Digest of the packed stream of *program*'s first ``LENGTH``
    instructions."""
    packed = encode_stream(Machine(program).run(LENGTH))
    columns = [[column.typecode, column.tolist()]
               for column in (packed.pc, packed.next_pc, packed.ea)]
    return _sha256({
        "addresses": columns,
        "taken": list(packed.taken),
        "has_ea": list(packed.has_ea),
        "outputs": packed.outputs,
        "halted": packed.halted,
    })


@functools.lru_cache(maxsize=None)
def _table():
    return json.loads(TABLE.read_text())


def _computed(kind):
    digest = program_digest if kind == "program" else stream_digest
    with gc_paused():  # the payloads are large and acyclic
        return {name: digest(suite.get_benchmark(name))
                for name in suite.BENCHMARK_NAMES}


def _committed(kind):
    return {name: entry[kind] for name, entry in _table().items()}


def test_table_covers_the_suite():
    assert sorted(_table()) == sorted(suite.BENCHMARK_NAMES)


def test_program_digests_match_table():
    assert _computed("program") == _committed("program")


def test_pickled_programs_match_table():
    """A program pickled as a stream bundle stores it loads back to the
    same digest."""
    with gc_paused():
        loaded = {name: program_digest(pickle.loads(pickle.dumps(
            suite.get_benchmark(name), protocol=pickle.HIGHEST_PROTOCOL)))
            for name in suite.BENCHMARK_NAMES}
    assert loaded == _committed("program")


def test_stream_digests_match_table():
    assert _computed("stream") == _committed("stream")


def bless():
    """Recompute both digests of every benchmark and rewrite the table."""
    programs, streams = _computed("program"), _computed("stream")
    TABLE.write_text("{\n" + ",\n".join(
        f"  {json.dumps(name)}: "
        + json.dumps({"program": programs[name], "stream": streams[name]})
        for name in sorted(programs)) + "\n}\n")
    print(f"wrote {len(programs)} program and stream digests to {TABLE}")


if __name__ == "__main__":
    bless()
